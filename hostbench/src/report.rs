//! Turns a workload's rounds into metrics: end-to-end (untraced rounds)
//! and per-layer (traced rounds), the self-time ledger, and the JSON the
//! benchmark prints and writes.

use std::fmt::Write as _;

use dynmds_partition::StrategyKind;

use crate::measure::{self, json_num, json_str, median};
use crate::trace::{Totals, OP_KINDS};
use crate::workloads::{Kind, Point, Round};

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// What one run measured.
pub struct Run {
    /// The timed rounds, in order.
    pub rounds: Vec<Round>,
    /// Set-up samples taken between the rounds, each with the
    /// calibration kernel timed right after it.
    pub setups: Vec<SetupSample>,
}

impl Run {
    /// Geometric mean of the run's calibration kernel pass times, s; 0
    /// without any. On a loaded host a pass takes either about 7.5 or
    /// about 15 ms, and where the two are about as frequent a median
    /// flips between them: with the median, ten `sharded_dense` runs
    /// spread their calibrated throughput 27 %, with this mean 9 %.
    pub fn kernel_s(&self) -> f64 {
        if self.setups.is_empty() {
            return 0.0;
        }
        let logs: f64 = self.setups.iter().map(|s| s.kernel_s.ln()).sum();
        (logs / self.setups.len() as f64).exp()
    }
}

/// One set-up on its own and the calibration kernel timed right after it.
#[derive(Clone, Copy, Debug)]
pub struct SetupSample {
    /// Σ set-up time over the workload's simulations, s.
    pub setup_s: f64,
    /// Mean calibration kernel pass time, s.
    pub kernel_s: f64,
}

/// Reference-host seconds per measured second for `kind`, where the
/// calibration kernel took `kernel_s` a pass; 1 without a kernel time.
pub fn reference_factor(kind: Kind, kernel_s: f64) -> f64 {
    if kernel_s > 0.0 {
        (measure::KERNEL_REFERENCE_S / kernel_s).powf(kind.host_sensitivity())
    } else {
        1.0
    }
}

/// End-to-end metrics: medians over the untraced rounds, and over the
/// set-up samples for `setup_s`. Host times are scaled to the reference
/// host: `wall_s` and `sim_ops_per_s` by the run's mean kernel time,
/// each set-up sample by the kernel timed right after it. `cpu_cores` is
/// a ratio of two times that the host's speed scales alike, and memory
/// does not depend on host speed, so neither of those is scaled.
pub fn end_to_end(kind: Kind, run: &Run) -> Vec<Metric> {
    let plain: Vec<&Round> = run.rounds.iter().filter(|r| !r.traced).collect();
    let med = |f: fn(&Round) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let k = reference_factor(kind, run.kernel_s());
    let setups: Vec<f64> =
        run.setups.iter().map(|s| s.setup_s * reference_factor(kind, s.kernel_s)).collect();
    vec![
        m("wall_s", "s", med(|r| r.wall_s) * k),
        m("setup_s", "s", median(&setups)),
        m("sim_ops_per_s", "ops/s", med(Round::sim_ops_per_s) / k),
        m("cpu_cores", "cores", med(|r| ratio(r.cpu_s, r.wall_s))),
        m("peak_rss_mb", "MiB", med(|r| r.peak_rss_mb)),
    ]
}

/// Per-layer metrics: per-round values from the traced rounds, then the
/// median of each over those rounds, in measured host time (the run's
/// kernel time relates them to the reference host); the tracing overhead
/// compares the traced rounds' throughput with the untraced ones'.
pub fn per_layer(run: &Run, workers: usize) -> Vec<Metric> {
    let rounds = &run.rounds;
    let traced: Vec<Vec<Metric>> =
        rounds.iter().filter(|r| r.traced).map(|r| layer_round(r, workers)).collect();
    let Some(first) = traced.first() else { return Vec::new() };
    let mut out: Vec<Metric> = first
        .iter()
        .enumerate()
        .map(|(i, x)| {
            m(
                x.name.clone(),
                x.unit,
                median(&traced.iter().map(|v| v[i].value).collect::<Vec<_>>()),
            )
        })
        .collect();
    let rate = |t: bool| {
        median(
            &rounds.iter().filter(|r| r.traced == t).map(Round::sim_ops_per_s).collect::<Vec<_>>(),
        )
    };
    let peak = rounds.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    out.push(m("process.peak_rss_mb", "MiB", peak));
    out.push(m("trace.overhead_pct", "%", (rate(false) / rate(true).max(1e-9) - 1.0) * 100.0));
    out.push(m("host.calibration_ms", "ms", run.kernel_s() * 1e3));
    out
}

fn sum(points: &[Point], f: impl Fn(&Point) -> f64) -> f64 {
    points.iter().map(f).sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One traced round's per-layer values. A metric whose layer is not on
/// the workload's path (windows on the legacy engine, events on the
/// sharded one) reads 0.
fn layer_round(r: &Round, workers: usize) -> Vec<Metric> {
    let pts = &r.points;
    let t: Totals = r.trace.expect("a traced round carries its trace aggregates");
    let sharded: Vec<&Point> = pts.iter().filter(|p| p.grid_windows > 0).collect();
    let fan = |f: fn(&crate::trace::Fanout) -> f64| {
        sharded.iter().filter_map(|p| p.fanout.as_ref()).map(f).sum::<f64>()
    };
    let executed = fan(|f| f.windows.count as f64);
    let fanout_s = fan(|f| f.windows.total_s());
    let step_s = fan(|f| f.steps.total_s());
    let sharded_measure_s: f64 = sharded.iter().map(|p| p.measured_s()).sum();
    let slices: Vec<f64> = pts.iter().flat_map(|p| p.slices_s.iter().map(|s| s * 1e3)).collect();
    let events = sum(pts, |p| p.events as f64);
    let event_ns = sum(pts, |p| if p.events > 0 { p.measured_s() * 1e9 } else { 0.0 });
    let ops = sum(pts, |p| p.model.ops as f64);
    let point_s: Vec<f64> = pts.iter().map(|p| p.wall_s).collect();
    let rss_rate: Vec<f64> = pts
        .iter()
        .filter(|p| p.rss_mib.len() > 1)
        .map(|p| {
            let n = p.rss_mib.len() as f64;
            let span = p.measured_sim_s * (n - 1.0) / n;
            ratio(p.rss_mib[p.rss_mib.len() - 1] - p.rss_mib[0], span)
        })
        .collect();
    let busy_share = if sharded.is_empty() {
        ratio(point_s.iter().sum(), workers as f64 * r.wall_s)
    } else {
        ratio(step_s, workers as f64 * sharded_measure_s)
    };
    // Latency quantiles do not add across points: report the largest
    // DynamicSubtree point's (the only point, outside fig2_sweep).
    let reference = pts
        .iter()
        .filter(|p| p.strategy == Some(StrategyKind::DynamicSubtree))
        .max_by_key(|p| p.model.n_mds)
        .or(pts.first());
    let model = |f: fn(&Point) -> f64| sum(pts, f);

    let mut v = vec![
        m("namespace.generate_s", "s", sum(pts, |p| p.generate_s)),
        m(
            "namespace.bytes_per_inode",
            "B",
            ratio(sum(pts, |p| p.ns_heap_bytes as f64), sum(pts, |p| p.ns_items as f64)),
        ),
        m("namespace.items", "count", sum(pts, |p| p.ns_items as f64)),
        m("workload.build_s", "s", sum(pts, |p| p.build_s)),
        m("workload.next_op_calls", "count", t.next_op.count as f64),
        m("workload.next_op_ns", "ns", ratio(t.next_op.total_ns as f64, t.next_op.count as f64)),
    ];
    for (kind, n) in OP_KINDS.iter().zip(t.op_kinds) {
        v.push(m(format!("workload.op.{kind}"), "count", n as f64));
    }
    v.extend([
        m("core.new_s", "s", sum(pts, |p| p.new_s)),
        m("core.warmup_s", "s", sum(pts, |p| p.warmup_s)),
        m("core.measure_s", "s", sum(pts, Point::measured_s)),
        m("core.finish_s", "s", sum(pts, |p| p.finish_s)),
        m("core.slice_ms.p50", "ms", measure::quantile(&slices, 0.5)),
        m("core.slice_ms.p95", "ms", measure::quantile(&slices, 0.95)),
        m("core.slices", "count", slices.len() as f64),
        m("core.rss_mb_per_sim_s", "MiB/s", median(&rss_rate)),
        m("core.events", "count", events),
        m("core.events_per_op", "ratio", ratio(events, ops)),
        m("core.ns_per_event", "ns", ratio(event_ns, events)),
    ]);
    for s in StrategyKind::ALL {
        let of = pts.iter().filter(|p| p.strategy == Some(s) && p.events > 0);
        let (ns, ev) =
            of.fold((0.0, 0.0), |(ns, ev), p| (ns + p.measured_s() * 1e9, ev + p.events as f64));
        v.push(m(format!("fig2.{}.ns_per_event", s.label()), "ns", ratio(ns, ev)));
    }
    v.extend([
        m("core.windows_executed", "count", executed),
        m(
            "core.windows_skipped",
            "count",
            sharded.iter().map(|p| p.grid_windows as f64).sum::<f64>() - executed,
        ),
        m(
            "core.ops_per_window",
            "ratio",
            ratio(sharded.iter().map(|p| p.model.ops as f64).sum(), executed),
        ),
        m("core.window_fanout_s", "s", fanout_s),
        m("core.shard_step_s", "s", step_s),
        m("core.barrier_wait_s", "s", fan(|f| f.idle_ns as f64 / 1e9)),
        m("core.shard_imbalance", "ratio", ratio(fan(|f| f.imbalance_sum), executed)),
        m("core.barrier_serial_s", "s", sharded_measure_s - fanout_s),
        m("harness.pool_busy_share", "ratio", busy_share),
        m("harness.point_s.p50", "s", median(&point_s)),
        m("harness.point_s.max", "s", point_s.iter().copied().fold(0.0, f64::max)),
        m("model.ops", "count", ops),
        m(
            "model.cache_hit_ratio",
            "ratio",
            ratio(model(|p| p.model.hits), model(|p| p.model.served as f64)),
        ),
        m(
            "model.forward_ratio",
            "ratio",
            ratio(model(|p| p.model.forwarded as f64), model(|p| p.model.received as f64)),
        ),
        m("model.fetches_per_op", "ratio", ratio(model(|p| p.model.fetches as f64), ops)),
        m("model.lease_hit_ratio", "ratio", ratio(model(|p| p.model.lease_hits as f64), ops)),
        m("model.latency_p50_us", "us", reference.map_or(0.0, |p| p.model.latency_p50_us)),
        m("model.latency_p99_us", "us", reference.map_or(0.0, |p| p.model.latency_p99_us)),
        m("model.migrations", "count", model(|p| p.model.migrations as f64)),
        m("model.scale_outs", "count", model(|p| p.model.scale_outs as f64)),
        m("model.scale_ins", "count", model(|p| p.model.scale_ins as f64)),
        m("model.node_secs", "s", model(|p| p.model.node_secs)),
    ]);
    v
}

/// The self-time ledger of the traced rounds, summed: each line splits a
/// span into its children plus its own self time, so every line adds up
/// exactly to the measured host time on its left.
pub fn ledger(rounds: &[Round], workers: usize) -> String {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let pts: Vec<&Point> = traced.iter().flat_map(|r| r.points.iter()).collect();
    let s = |f: fn(&Point) -> f64| pts.iter().map(|p| f(p)).sum::<f64>();
    let (wall, gen, build, new, warm, meas, fin) = (
        s(|p| p.wall_s),
        s(|p| p.generate_s),
        s(|p| p.build_s),
        s(|p| p.new_s),
        s(|p| p.warmup_s),
        s(Point::measured_s),
        s(|p| p.finish_s),
    );
    let mut out = String::new();
    let _ = writeln!(out, "self-time ledger over {} traced round(s), host seconds:", traced.len());
    let _ = writeln!(
        out,
        "  points {wall:.4} = namespace.generate {gen:.4} + workload.build {build:.4} + core.new (self) {new:.4} \
         + core.warmup {warm:.4} + core.measure {meas:.4} + core.finish {fin:.4} + point self {:.4}",
        wall - gen - build - new - warm - meas - fin
    );
    let pct = |x: f64, of: f64| ratio(x, of) * 100.0;
    let _ = writeln!(
        out,
        "  shares of point time: set-up {:.1} %, warm-up {:.1} %, measured {:.1} %, finish {:.1} %",
        pct(gen + build + new, wall),
        pct(warm, wall),
        pct(meas, wall),
        pct(fin, wall)
    );
    let sharded: Vec<&&Point> = pts.iter().filter(|p| p.grid_windows > 0).collect();
    if !sharded.is_empty() {
        let fan = |f: fn(&crate::trace::Fanout) -> f64| {
            sharded.iter().filter_map(|p| p.fanout.as_ref()).map(f).sum::<f64>()
        };
        let meas: f64 = sharded.iter().map(|p| p.measured_s()).sum();
        let fanout = fan(|f| f.windows.total_s());
        let steps = fan(|f| f.steps.total_s());
        let idle = fan(|f| f.idle_ns as f64 / 1e9);
        let _ = writeln!(
            out,
            "  slices {meas:.4} = core.window_fanout {fanout:.4} + core.barrier_serial (slice self) {:.4}",
            meas - fanout
        );
        let _ = writeln!(
            out,
            "  worker(s) {workers} × core.window_fanout {:.4} = core.shard_step {steps:.4} + core.barrier_wait {idle:.4}",
            workers as f64 * fanout
        );
        let _ = writeln!(
            out,
            "  shares of measured time: fan-outs {:.1} % (of worker time: shard steps {:.1} %, \
             barrier wait {:.1} %), barrier serial {:.1} %",
            pct(fanout, meas),
            pct(steps, workers as f64 * fanout),
            pct(idle, workers as f64 * fanout),
            pct(meas - fanout, meas)
        );
    }
    let next_op: f64 = traced.iter().filter_map(|r| r.trace.map(|t| t.next_op.total_s())).sum();
    let _ = writeln!(
        out,
        "  of which workload.next_op {next_op:.4} (warm-up and measured span, on whichever thread stepped)"
    );
    out
}

/// The final stdout line, also kept in `results.json`: exactly
/// `correct`, `attempted`, `failed` and `metrics` (name → value, unit).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// `results.json`: the result line's fields plus what identifies and
/// explains the run, in measured (uncalibrated) host time.
pub fn results_json(
    kind: Kind,
    seed: u64,
    threads: usize,
    run: &Run,
    problems: &[String],
    result: &str,
) -> String {
    let rounds = &run.rounds;
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"traced\": {}, \"wall_s\": {}, \"round_setup_s\": {}, \"sim_ops_per_s\": {}, \
                 \"ops\": {}, \"measured_s\": {}, \"cpu_s\": {}, \"peak_rss_mb\": {}, \
                 \"digest\": \"{:016x}\"}}",
                r.traced,
                json_num(r.wall_s),
                json_num(r.setup_s()),
                json_num(r.sim_ops_per_s()),
                r.ops(),
                json_num(r.measured_s()),
                json_num(r.cpu_s),
                json_num(r.peak_rss_mb),
                r.digest
            )
        })
        .collect();
    let problems: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    let setups: Vec<String> = run.setups.iter().map(|s| json_num(s.setup_s)).collect();
    let kernels: Vec<String> = run.setups.iter().map(|s| json_num(s.kernel_s * 1e3)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"threads\": {threads}, \
         \"calibration_ms\": {}, \"reference_factor\": {}, \
         \"setup_samples_s\": [{}], \"kernel_samples_ms\": [{}], \
         \"digest\": \"{:016x}\", \"problems\": [{}], \"rounds\": [{}], \"result\": {result}}}\n",
        json_str(kind.name()),
        json_num(run.kernel_s() * 1e3),
        json_num(reference_factor(kind, run.kernel_s())),
        setups.join(", "),
        kernels.join(", "),
        rounds.first().map_or(0, |r| r.digest),
        problems.join(", "),
        per_round.join(", ")
    )
}
