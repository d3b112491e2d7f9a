//! CLI regenerating the paper's evaluation figures.
//!
//! ```text
//! experiments [--quick] [--csv DIR] <SUBCOMMAND>
//! ```
//!
//! Subcommands: `fig2` `fig3` `fig4` `fig5` `fig6` `fig7` (the paper's
//! figures), `sci` (the §5.2 scientific workload), `ablate-prefetch`
//! `ablate-balance` `ablate-dirhash` `ablate-warming` `ablate-leases`
//! `ablate-shared-writes` `ablate-probation` (design-choice ablations),
//! `availability` (every strategy under node churn; `--faults SPEC`
//! overrides the default schedule — same grammar as `simulate`), `all`,
//! or `bench` (time every `--quick` stage and write `BENCH_sim.json` —
//! see [`run_bench`]; bench stays fault-free).
//!
//! Each subcommand prints the figure's data as an aligned table; `--csv`
//! additionally writes machine-readable CSVs.
//!
//! `--obs` (metrics + snapshots) and `--obs-trace` (additionally per-op
//! spans) run one instrumented representative steady-state simulation
//! after the chosen subcommand, print its summary, and write
//! `obs_metrics.jsonl` / `obs_snapshots.jsonl` / `obs_trace.jsonl` (to
//! `--csv DIR` when given, else the working directory). With `bench`,
//! the instrumented run is timed against the uninstrumented one and the
//! observability overhead is reported.

use std::io::Write as _;

use dynmds_event::{SimDuration, SimRng, SimTime};
use dynmds_harness::parallel::parallel_map;
use dynmds_harness::{
    ablation, availability, flashrun, hitrate, scaling, scirun, shiftrun, ExperimentScale,
};
use dynmds_metrics::Table;
use dynmds_obs::ObsConfig;

struct Args {
    scale: ExperimentScale,
    csv_dir: Option<String>,
    command: String,
    obs: ObsConfig,
    faults: Option<dynmds_core::FaultSchedule>,
    /// Event-queue shards for stages on the sharded engine (`elasticity`);
    /// the CSV is invariant to this by construction.
    shards: usize,
}

/// The figure runner's subcommands (`torture` and `scale` dispatch
/// earlier and parse their own flags).
const COMMANDS: &str = "fig2|fig3|fig4|fig5|fig6|fig7|sci|ablate-prefetch|ablate-balance|\
                        ablate-dirhash|ablate-warming|ablate-leases|ablate-shared-writes|\
                        ablate-probation|availability|elasticity|hotspot|all|bench|bench-sharded|obs";

fn parse_args() -> Args {
    let mut scale = ExperimentScale::Full;
    let mut csv_dir = None;
    let mut command = None;
    let mut obs = ObsConfig::default();
    let mut faults = None;
    let mut shards = 1usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = ExperimentScale::Quick,
            "--csv" => csv_dir = Some(it.next().unwrap_or_else(|| usage("missing --csv DIR"))),
            "--shards" => {
                let v = it.next().unwrap_or_else(|| usage("missing --shards K"));
                shards = v.parse().unwrap_or_else(|_| usage(&format!("bad --shards: {v}")));
            }
            "--faults" => {
                let spec = it.next().unwrap_or_else(|| usage("missing --faults SPEC"));
                faults = Some(
                    dynmds_core::FaultSchedule::parse(&spec)
                        .unwrap_or_else(|e| usage(&format!("bad --faults spec: {e}"))),
                );
            }
            "--obs" => obs.metrics = true,
            "--obs-trace" => {
                obs.metrics = true;
                obs.trace = true;
            }
            "-h" | "--help" => usage(""),
            other if !other.starts_with('-') && command.is_none() => {
                command = Some(other.to_string())
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let command = command.unwrap_or_else(|| "all".to_string());
    if !COMMANDS.split('|').any(|c| c == command) {
        usage(&format!("unknown subcommand: {command}"));
    }
    Args { scale, csv_dir, command, obs, faults, shards }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: experiments [--quick] [--csv DIR] [--obs|--obs-trace] [--faults SPEC] [--shards K] \
         <{}>\n\
         \n\
         or:    experiments torture [--seeds N] [--seed-base B] [--ops K] [--strategy NAME|all]\n\
         \u{20}                     [--out DIR] [--shrink-budget P] [--no-repeat-check] [--threads T]\n\
         \u{20}                     [--shards K]  (cross-check sharded engine reports, K vs 1)\n\
         \u{20}                     [--proxy P]   (force P hotspot proxies on every scenario)\n\
         \u{20}                     [--force-dense] (sharded cross-check never skips idle windows)\n\
         (seeded fuzz scenarios against the DST oracle; repros land in dst/repros/)\n\
         \n\
         or:    experiments scale [--smoke|--full] [--clients N] [--users N] [--target-inodes N]\n\
         \u{20}                   [--materialize N] [--ring N] [--mds N] [--cache N] [--think-us U]\n\
         \u{20}                   [--warmup-ms M] [--measure-ms M] [--shards K] [--threads T]\n\
         \u{20}                   [--strategy NAME|all] [--seed S] [--out DIR]\n\
         (the scale tier: streaming namespace + ScaleWorkload on the sharded engine;\n\
         \u{20}--full defaults to 10^6 clients against a 10^8-inode logical namespace)",
        COMMANDS
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The configuration both `bench` and `--obs` use as the representative
/// steady-state simulation: the largest quick dynamic-subtree scaling
/// point, the shape the hot path is tuned for.
fn representative_config(obs: ObsConfig) -> dynmds_core::SimConfig {
    let mut cfg = dynmds_harness::params::scaling_config(
        dynmds_partition::StrategyKind::DynamicSubtree,
        12,
        ExperimentScale::Quick,
    );
    cfg.obs = obs;
    cfg
}

/// Runs the instrumented representative simulation and writes its JSONL
/// exports next to the CSVs.
fn run_obs(args: &Args) {
    eprintln!("obs: instrumented representative steady-state run...");
    let report =
        dynmds_harness::params::run_steady(representative_config(args.obs), ExperimentScale::Quick);
    let export = report.obs.expect("obs enabled but report carries no export");
    println!("{}", export.summary);
    let dir = args.csv_dir.clone().unwrap_or_else(|| ".".to_string());
    std::fs::create_dir_all(&dir).expect("create obs output dir");
    let mut outputs = vec![
        ("obs_metrics.jsonl", &export.metrics_jsonl),
        ("obs_snapshots.jsonl", &export.snapshots_jsonl),
    ];
    if let Some(trace) = &export.trace_jsonl {
        outputs.push(("obs_trace.jsonl", trace));
    }
    for (name, body) in outputs {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, body).expect("write obs jsonl");
        eprintln!("wrote {path}");
    }
}

fn emit(args: &Args, name: &str, table: &Table) {
    println!("{}", table.render());
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = format!("{dir}/{name}.csv");
        let mut f = std::fs::File::create(&path).expect("create csv");
        f.write_all(table.to_csv().as_bytes()).expect("write csv");
        eprintln!("wrote {path}");
    }
}

/// Scheduler-only microbenchmark: a timer wheel holding ~100k pending
/// events driven through a steady pop-then-reschedule cycle, the shape
/// the simulation hot loop imposes on it. Deltas come from a table
/// precomputed outside the timed region so the RNG never shares the
/// loop with the queue. Returns the median ops/sec (one op = one
/// schedule or one pop) over ten runs.
fn scheduler_ops_per_sec() -> f64 {
    use dynmds_event::EventQueue;
    use std::time::Instant;
    const PENDING: usize = 100_000;
    const STEADY_OPS: usize = 400_000;
    const DELTA_MASK: usize = 8191;
    let deltas: Vec<u64> = {
        let mut rng = SimRng::seed_from_u64(0xD1CE);
        (0..=DELTA_MASK).map(|_| 1 + rng.below(1 << 16)).collect()
    };
    let mut samples: Vec<f64> = (0..10)
        .map(|_| {
            let mut q: EventQueue<u32> = EventQueue::with_delta_hint(SimDuration::from_millis(1));
            let mut now = SimTime::ZERO;
            for i in 0..PENDING {
                q.schedule(now + SimDuration::from_micros(deltas[i & DELTA_MASK]), i as u32);
            }
            let t = Instant::now();
            for i in 0..STEADY_OPS {
                let ev = q.pop().expect("queue never drains in steady state");
                now = ev.at;
                q.schedule(now + SimDuration::from_micros(deltas[i & DELTA_MASK]), ev.event);
            }
            (2 * STEADY_OPS) as f64 / t.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[4] + samples[5]) / 2.0
}

/// One sharded-engine throughput run: a lease-heavy hot-set workload
/// where nearly every operation is a client-local lease completion (one
/// timer-wheel event per op), so the figure measures engine overhead —
/// queue, window loop, exchange — rather than protocol round trips.
/// Returns (simulated ops, ops per wall-clock second).
fn sharded_bench_run(shards: usize, measure: SimDuration) -> (dynmds_core::ShardReport, f64) {
    use std::time::Instant;
    let mut cfg = dynmds_core::SimConfig::small(dynmds_partition::StrategyKind::DynamicSubtree);
    cfg.n_mds = 8;
    cfg.n_clients = 2_000;
    cfg.cache_capacity = 4_000;
    cfg.journal_capacity = 16_000;
    cfg.n_osds = 16;
    cfg.client_leases = true;
    // Leases must outlive the run so the measured window never refreshes:
    // every measured op is then a client-local completion.
    cfg.lease_ttl = SimDuration::from_secs(120);
    // A dense event stream (mean 4k ops/s per client) keeps hundreds of
    // events in every 100µs conservative window, amortizing the
    // per-window barrier across many operations.
    cfg.costs.think_mean = SimDuration::from_micros(250);
    // A modern flash OSD pool; the 2004 commodity-disk default would
    // stretch the lease-population warmup to tens of virtual seconds.
    cfg.costs.osd_disk =
        dynmds_storage::DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
    cfg.balancing = false;
    cfg.traffic_control = false;
    cfg.seed = 42;
    dynmds_harness::parallel::install_shard_driver();
    let snap =
        dynmds_namespace::NamespaceSpec::with_target_items(64, 8_000, cfg.seed ^ 0xF5).generate();
    let n_clients = cfg.n_clients as usize;
    let seed = cfg.seed;
    let mut sim = dynmds_core::ShardedSimulation::new(cfg, shards, None, snap, &move |ns| {
        Box::new(dynmds_workload::HotSetWorkload::new(ns, n_clients, 32, seed ^ 0x17))
    });
    let warmup = SimDuration::from_secs(3);
    sim.run_until(dynmds_event::SimTime::ZERO + warmup);
    sim.reset_measurement();
    // Only the measured span is timed: the warmup's lease-population
    // traffic would otherwise dilute the steady-state figure.
    let t = Instant::now();
    sim.run_until(dynmds_event::SimTime::ZERO + warmup + measure);
    let wall = t.elapsed().as_secs_f64();
    let report = sim.finish();
    let rate = report.ops as f64 / wall.max(1e-9);
    (report, rate)
}

/// Sparse-schedule throughput probe: the same lease-heavy hot-set
/// engine workload as [`sharded_bench_run`], but with two orders of
/// magnitude fewer and slower clients, so the mean event spacing
/// (~1.3 ms cluster-wide) dwarfs the 100 µs conservative window. Nearly
/// every barrier faces an empty span, so the figure measures the
/// idle-window skip — a `--force-dense` run would execute ~12 empty
/// windows per operation. Returns (report, ops per wall-second).
fn sparse_bench_run(shards: usize, measure: SimDuration) -> (dynmds_core::ShardReport, f64) {
    use std::time::Instant;
    let mut cfg = dynmds_core::SimConfig::small(dynmds_partition::StrategyKind::DynamicSubtree);
    cfg.n_mds = 8;
    cfg.n_clients = 32;
    cfg.cache_capacity = 4_000;
    cfg.journal_capacity = 16_000;
    cfg.n_osds = 16;
    cfg.client_leases = true;
    cfg.lease_ttl = SimDuration::from_secs(600);
    // 32 clients thinking 40 ms apart: one event per ~1.25 ms against a
    // 100 µs window grid. This is the elasticity figure's "night" regime.
    cfg.costs.think_mean = SimDuration::from_millis(40);
    cfg.costs.osd_disk =
        dynmds_storage::DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
    cfg.balancing = false;
    cfg.traffic_control = false;
    cfg.seed = 42;
    dynmds_harness::parallel::install_shard_driver();
    let snap =
        dynmds_namespace::NamespaceSpec::with_target_items(64, 8_000, cfg.seed ^ 0xF5).generate();
    let n_clients = cfg.n_clients as usize;
    let seed = cfg.seed;
    let mut sim = dynmds_core::ShardedSimulation::new(cfg, shards, None, snap, &move |ns| {
        Box::new(dynmds_workload::HotSetWorkload::new(ns, n_clients, 32, seed ^ 0x17))
    });
    // Long warmup relative to the dense probe: populating each client's
    // 32-item lease ring takes ~32 think periods at the 40 ms mean.
    let warmup = SimDuration::from_secs(6);
    sim.run_until(dynmds_event::SimTime::ZERO + warmup);
    sim.reset_measurement();
    let t = Instant::now();
    sim.run_until(dynmds_event::SimTime::ZERO + warmup + measure);
    let wall = t.elapsed().as_secs_f64();
    let report = sim.finish();
    let rate = report.ops as f64 / wall.max(1e-9);
    (report, rate)
}

/// Entry point for `experiments scale` — the million-client scale tier.
/// Owns its flag grammar (like `torture`): sizing defaults come from
/// `--smoke` (CI) or `--full` (the ≥10⁶-client, ≥10⁸-inode run), with
/// every knob individually overridable. Prints the deterministic table,
/// writes `scale.csv` to `--out`, and reports wall-clock throughput and
/// peak RSS on stdout only (machine-dependent, never in the CSV).
fn run_scale_cli(raw: &[String]) -> i32 {
    use dynmds_harness::ScaleParams;
    let mut p = ScaleParams::smoke();
    let mut out_dir = ".".to_string();
    let mut it = raw.iter();
    let parse_err = |flag: &str, v: &str| -> ! {
        eprintln!("scale: bad value for {flag}: {v}");
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("scale: missing value for {flag}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--smoke" => p = ScaleParams::smoke(),
            "--full" => p = ScaleParams::full(),
            "--clients" => {
                let v = val("--clients");
                p.clients = v.parse().unwrap_or_else(|_| parse_err("--clients", &v));
            }
            "--users" => {
                let v = val("--users");
                p.users = v.parse().unwrap_or_else(|_| parse_err("--users", &v));
            }
            "--target-inodes" => {
                let v = val("--target-inodes");
                p.target_items = v.parse().unwrap_or_else(|_| parse_err("--target-inodes", &v));
            }
            "--materialize" => {
                let v = val("--materialize");
                p.materialize_users = v.parse().unwrap_or_else(|_| parse_err("--materialize", &v));
            }
            "--ring" => {
                let v = val("--ring");
                p.ring = v.parse().unwrap_or_else(|_| parse_err("--ring", &v));
            }
            "--mds" => {
                let v = val("--mds");
                p.n_mds = v.parse().unwrap_or_else(|_| parse_err("--mds", &v));
            }
            "--cache" => {
                let v = val("--cache");
                p.cache_capacity = v.parse().unwrap_or_else(|_| parse_err("--cache", &v));
            }
            "--think-us" => {
                let v = val("--think-us");
                p.think_mean = SimDuration::from_micros(
                    v.parse().unwrap_or_else(|_| parse_err("--think-us", &v)),
                );
            }
            "--warmup-ms" => {
                let v = val("--warmup-ms");
                p.warmup = SimDuration::from_millis(
                    v.parse().unwrap_or_else(|_| parse_err("--warmup-ms", &v)),
                );
            }
            "--measure-ms" => {
                let v = val("--measure-ms");
                p.measure = SimDuration::from_millis(
                    v.parse().unwrap_or_else(|_| parse_err("--measure-ms", &v)),
                );
            }
            "--shards" => {
                let v = val("--shards");
                p.shards = v.parse().unwrap_or_else(|_| parse_err("--shards", &v));
            }
            "--threads" => {
                let v = val("--threads");
                p.threads = Some(v.parse().unwrap_or_else(|_| parse_err("--threads", &v)));
            }
            "--seed" => {
                let v = val("--seed");
                p.seed = v.parse().unwrap_or_else(|_| parse_err("--seed", &v));
            }
            "--strategy" => {
                let v = val("--strategy");
                if v == "all" {
                    p.strategies = dynmds_partition::StrategyKind::ALL.to_vec();
                } else {
                    match dynmds_partition::StrategyKind::ALL
                        .iter()
                        .find(|k| k.label().eq_ignore_ascii_case(&v))
                    {
                        Some(&k) => p.strategies = vec![k],
                        None => parse_err("--strategy", &v),
                    }
                }
            }
            "--out" => out_dir = val("--out"),
            other => {
                eprintln!("scale: unknown argument: {other}");
                return 2;
            }
        }
    }

    // Honor --threads in every pool fan-out, not just the engine windows.
    dynmds_harness::parallel::set_thread_override(p.threads);

    println!(
        "scale: {} clients, {} logical users ({} materialized), target {} inodes, \
         {} MDS, {} shards",
        p.clients, p.users, p.materialize_users, p.target_items, p.n_mds, p.shards
    );
    let points = dynmds_harness::run_scale(&p);
    let table = dynmds_harness::scale_table(&points);
    println!("{}", table.render());
    // Machine-dependent figures stay out of the CSV.
    for pt in &points {
        println!(
            "scale: {} wall {:.2}s ({:.0} ops/s wall)",
            pt.strategy.label(),
            pt.wall_s,
            pt.wall_ops_per_sec()
        );
    }
    println!("scale: peak RSS {} bytes", peak_rss_bytes());

    std::fs::create_dir_all(&out_dir).expect("create scale output dir");
    let path = format!("{out_dir}/scale.csv");
    std::fs::write(&path, table.to_csv()).expect("write scale.csv");
    eprintln!("wrote {path}");
    0
}

/// Peak resident set (VmHWM) in bytes, 0 where /proc is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Benchmark mode: runs the fixed `--quick` scenario (every figure and
/// ablation stage), timing each, plus one representative steady-state
/// simulation whose served-operation count yields a simulated-ops/sec
/// figure and a scheduler-only microbenchmark. Results go to
/// `BENCH_sim.json` (in `--csv DIR` when given, else the working
/// directory). Tables and CSVs are *not* emitted — this mode exists to
/// track wall-clock, not figure output.
fn run_bench(args: &Args) {
    use std::time::Instant;
    let scale = ExperimentScale::Quick;

    // Wall-clock for the full quick suite on the seed revision of this
    // repo, measured on the same class of machine the suite targets.
    // Kept so speedup_vs_seed in BENCH_sim.json is self-describing.
    const SEED_QUICK_WALL_S: f64 = 17.0;

    // Representative simulation: the largest quick dynamic-subtree
    // scaling point, the configuration the hot path is tuned for.
    eprintln!("bench: representative steady-state run...");
    let t0 = Instant::now();
    let report =
        dynmds_harness::params::run_steady(representative_config(ObsConfig::default()), scale);
    let rep_wall_s = t0.elapsed().as_secs_f64();
    let ops_simulated = report.total_served();
    let ops_per_sec = ops_simulated as f64 / rep_wall_s.max(1e-9);

    eprintln!("bench: scheduler microbench (100k pending, median of 10)...");
    let sched_ops_per_sec = scheduler_ops_per_sec();

    // Sharded-engine throughput: the scaling curve over shard counts,
    // with the 8-shard point as the headline `sharded_ops_per_sec`.
    let mut sharded_curve: Vec<(usize, f64)> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        eprintln!("bench: sharded hot-set run ({shards} shards)...");
        let (report, rate) = sharded_bench_run(shards, SimDuration::from_secs(2));
        assert!(
            report.lease_hits * 10 >= report.ops * 9,
            "sharded bench drifted out of the lease fast path"
        );
        sharded_curve.push((shards, rate));
    }
    let sharded_ops_per_sec = sharded_curve.last().map(|&(_, r)| r).unwrap_or(0.0);

    // Sparse-schedule probe: same engine, ~12 empty windows per op, so
    // this figure tracks the idle-window skip rather than event
    // execution. The lease floor is looser than the dense probe's — the
    // 32-client population re-faults a few leases per measured minute.
    eprintln!("bench: sparse sharded run (idle-window skip)...");
    let sparse_ops_per_sec = {
        let (report, rate) = sparse_bench_run(8, SimDuration::from_secs(60));
        assert!(
            report.lease_hits * 10 >= report.ops * 8,
            "sparse bench drifted out of the lease fast path"
        );
        rate
    };

    // Wall-clock probes for the two figure stages the skip was built
    // for: the diurnal elasticity run (sharded engine, sparse nights)
    // and availability-under-churn (legacy serial engine — reported so
    // the pair is tracked together, though skipping cannot move it).
    eprintln!("bench: elasticity figure wall probe...");
    let elasticity_wall_s = {
        let t = Instant::now();
        drop(dynmds_harness::elasticrun::run_elasticity(scale, 4, None));
        t.elapsed().as_secs_f64()
    };
    eprintln!("bench: availability figure wall probe...");
    let availability_wall_s = {
        let t = Instant::now();
        drop(availability::run_availability(scale, &availability::default_schedule(scale)));
        t.elapsed().as_secs_f64()
    };

    // Scale-tier probe: a shrunken smoke run (not a timed figure stage —
    // it tracks the streaming-namespace memory story, not suite wall
    // time). Yields the headline scale_ops_per_sec (wall) and the
    // namespace footprint per materialized inode.
    eprintln!("bench: scale-tier probe (streaming namespace)...");
    let scale_probe = {
        let mut p = dynmds_harness::ScaleParams::smoke();
        p.clients = 10_000;
        p.users = 4_000;
        p.target_items = 200_000;
        p.materialize_users = 256;
        p.strategies = vec![dynmds_partition::StrategyKind::DynamicSubtree];
        dynmds_harness::run_scale(&p).remove(0)
    };
    let scale_ops_per_sec = scale_probe.wall_ops_per_sec();
    let namespace_bytes_per_inode = scale_probe.bytes_per_inode();

    // Hotspot-absorption probe: the proxy-vs-redirect storm suite on the
    // sharded engine. Like the scale probe it stays out of the timed
    // figure stages (the seed baseline predates it); the headline is
    // total simulated storm ops per wall-second.
    eprintln!("bench: hotspot-absorption probe (proxy vs redirect)...");
    let hotspot_ops_per_sec = {
        let t = Instant::now();
        let pts = dynmds_harness::hotspotrun::run_hotspot(scale, 4, None);
        let ops: u64 = pts.iter().map(|p| p.report.ops).sum();
        ops as f64 / t.elapsed().as_secs_f64().max(1e-9)
    };

    // With --obs/--obs-trace, time the same run instrumented and report
    // the observability overhead (not part of BENCH_sim.json: the
    // committed baseline tracks the uninstrumented hot path).
    if args.obs.enabled() {
        eprintln!("bench: instrumented representative run...");
        let t = Instant::now();
        let obs_report = dynmds_harness::params::run_steady(representative_config(args.obs), scale);
        let obs_wall_s = t.elapsed().as_secs_f64();
        assert!(obs_report.obs.is_some(), "obs enabled but report carries no export");
        println!(
            "bench: obs {} overhead: {obs_wall_s:.3}s vs {rep_wall_s:.3}s ({:+.1}%)",
            if args.obs.trace { "metrics+trace" } else { "metrics" },
            100.0 * (obs_wall_s - rep_wall_s) / rep_wall_s.max(1e-9)
        );
    }

    let mut stages: Vec<(&str, f64)> = Vec::new();
    let mut stage = |name: &'static str, body: &mut dyn FnMut()| {
        eprintln!("bench: {name}...");
        let t = Instant::now();
        body();
        stages.push((name, t.elapsed().as_secs_f64()));
    };
    stage("fig2_fig3", &mut || drop(scaling::run_scaling(scale)));
    stage("fig4", &mut || drop(hitrate::run_hitrate(scale)));
    stage("fig5_fig6", &mut || drop(shiftrun::run_shift(scale)));
    stage("fig7", &mut || drop(flashrun::run_flash(scale)));
    stage("sci", &mut || drop(scirun::run_sci(scale)));
    stage("ablate_prefetch", &mut || drop(ablation::run_ablate_prefetch(scale)));
    stage("ablate_balance", &mut || drop(ablation::run_ablate_balance(scale)));
    stage("ablate_dirhash", &mut || drop(ablation::run_ablate_dir_hash(scale)));
    stage("ablate_leases", &mut || drop(ablation::run_ablate_leases(scale)));
    stage("ablate_probation", &mut || drop(ablation::run_ablate_probation(scale)));
    stage("ablate_shared_writes", &mut || drop(ablation::run_ablate_shared_writes(scale)));
    stage("ablate_warming", &mut || drop(ablation::run_ablate_journal_warming(scale)));

    let total_wall_s: f64 = stages.iter().map(|(_, s)| s).sum();

    // Hand-rolled JSON: the workspace deliberately has no JSON dependency.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"scale\": \"quick\",\n");
    json.push_str(&format!("  \"ops_simulated\": {ops_simulated},\n"));
    json.push_str(&format!("  \"representative_wall_s\": {rep_wall_s:.3},\n"));
    json.push_str(&format!("  \"ops_per_sec\": {ops_per_sec:.1},\n"));
    json.push_str(&format!("  \"scheduler_ops_per_sec\": {sched_ops_per_sec:.1},\n"));
    json.push_str(&format!("  \"sharded_ops_per_sec\": {sharded_ops_per_sec:.1},\n"));
    json.push_str(&format!("  \"sparse_ops_per_sec\": {sparse_ops_per_sec:.1},\n"));
    json.push_str(&format!("  \"scale_ops_per_sec\": {scale_ops_per_sec:.1},\n"));
    json.push_str(&format!("  \"hotspot_ops_per_sec\": {hotspot_ops_per_sec:.1},\n"));
    json.push_str(&format!("  \"elasticity_wall_s\": {elasticity_wall_s:.3},\n"));
    json.push_str(&format!("  \"availability_wall_s\": {availability_wall_s:.3},\n"));
    json.push_str(&format!("  \"namespace_bytes_per_inode\": {namespace_bytes_per_inode:.1},\n"));
    json.push_str("  \"sharded_scaling\": [\n");
    for (i, (shards, rate)) in sharded_curve.iter().enumerate() {
        let comma = if i + 1 < sharded_curve.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"shards\": {shards}, \"ops_per_sec\": {rate:.1}}}{comma}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    ));
    json.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    json.push_str("  \"figures\": [\n");
    for (i, (name, secs)) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        json.push_str(&format!("    {{\"name\": \"{name}\", \"wall_s\": {secs:.3}}}{comma}\n"));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"total_wall_s\": {total_wall_s:.3},\n"));
    json.push_str(&format!("  \"seed_quick_wall_s\": {SEED_QUICK_WALL_S:.1},\n"));
    json.push_str(&format!(
        "  \"speedup_vs_seed\": {:.2}\n",
        SEED_QUICK_WALL_S / total_wall_s.max(1e-9)
    ));
    json.push_str("}\n");

    let path = match &args.csv_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("create output dir");
            format!("{dir}/BENCH_sim.json")
        }
        None => "BENCH_sim.json".to_string(),
    };
    std::fs::write(&path, &json).expect("write BENCH_sim.json");
    println!(
        "bench: {total_wall_s:.2}s for the quick suite ({:.2}x vs seed), \
         {ops_per_sec:.0} simulated ops/s, {sched_ops_per_sec:.0} scheduler ops/s, \
         {sharded_ops_per_sec:.0} sharded ops/s @ 8 shards",
        SEED_QUICK_WALL_S / total_wall_s.max(1e-9)
    );
    eprintln!("wrote {path}");
}

fn main() {
    // `torture` owns its flag grammar; dispatch before the figure parser.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("torture") {
        std::process::exit(dynmds_dst::cli::run_torture(&raw[1..]));
    }
    // `scale` owns its flag grammar too.
    if raw.first().map(String::as_str) == Some("scale") {
        std::process::exit(run_scale_cli(&raw[1..]));
    }
    let args = parse_args();
    if args.command == "bench" {
        run_bench(&args);
        return;
    }
    // Sharded-engine throughput only (the scaling curve `bench` embeds in
    // BENCH_sim.json), for quick iteration and the CI bench smoke.
    if args.command == "bench-sharded" {
        for shards in [1usize, 2, 4, 8] {
            let (r, rate) = sharded_bench_run(shards, SimDuration::from_secs(2));
            println!(
                "shards {shards}: {} ops ({:.1}% lease hits), {rate:.0} ops/s",
                r.ops,
                100.0 * r.lease_hits as f64 / r.ops.max(1) as f64
            );
        }
        let (r, rate) = sparse_bench_run(8, SimDuration::from_secs(60));
        println!("sparse 8 shards: {} ops, {rate:.0} ops/s (idle-window skip)", r.ops);
        return;
    }
    let scale = args.scale;
    let series_bin = match scale {
        ExperimentScale::Quick => SimDuration::from_secs(1),
        ExperimentScale::Full => SimDuration::from_secs(2),
    };

    let want = |name: &str| args.command == name || args.command == "all";

    // Everything a figure stage produces, captured so the stages can run
    // concurrently while stdout (tables, then summary lines) and CSVs are
    // emitted afterwards in the fixed canonical order — `experiments all`
    // prints the same bytes whether it ran on one worker or sixteen.
    struct StageOut {
        tables: Vec<(&'static str, Table)>,
        notes: Vec<String>,
    }
    impl StageOut {
        fn tables(tables: Vec<(&'static str, Table)>) -> Self {
            StageOut { tables, notes: Vec::new() }
        }
    }

    type Stage<'a> = Box<dyn Fn() -> StageOut + Sync + 'a>;
    let mut stages: Vec<Stage> = Vec::new();

    if want("fig2") || want("fig3") {
        stages.push(Box::new(|| {
            eprintln!("running scaling sweep (figures 2 and 3)...");
            let points = scaling::run_scaling(scale);
            let mut tables = Vec::new();
            if want("fig2") {
                tables.push(("fig2", scaling::fig2_table(&points)));
            }
            if want("fig3") {
                tables.push(("fig3", scaling::fig3_table(&points)));
            }
            tables.push(("scaling_detail", scaling::context_table(&points)));
            StageOut::tables(tables)
        }));
    }

    if want("fig4") {
        stages.push(Box::new(|| {
            eprintln!("running cache-size sweep (figure 4)...");
            let points = hitrate::run_hitrate(scale);
            StageOut::tables(vec![("fig4", hitrate::fig4_table(&points))])
        }));
    }

    if want("fig5") || want("fig6") {
        stages.push(Box::new(|| {
            eprintln!("running workload-shift comparison (figures 5 and 6)...");
            let r = shiftrun::run_shift(scale);
            let mut tables = Vec::new();
            if want("fig5") {
                tables.push(("fig5", shiftrun::fig5_table(&r, series_bin)));
            }
            if want("fig6") {
                tables.push(("fig6", shiftrun::fig6_table(&r, series_bin)));
            }
            let s = shiftrun::shift_summary(&r);
            let notes = vec![
                format!(
                    "post-shift mean per-MDS throughput: dynamic {:.0} ops/s vs static {:.0} ops/s",
                    s.dyn_after, s.sta_after
                ),
                format!(
                    "post-shift per-node spread (max-min): dynamic {:.0} vs static {:.0}\n",
                    s.dyn_spread, s.sta_spread
                ),
            ];
            StageOut { tables, notes }
        }));
    }

    if want("fig7") {
        stages.push(Box::new(|| {
            eprintln!("running flash crowd (figure 7)...");
            let r = flashrun::run_flash(scale);
            let bin = SimDuration::from_millis(50);
            let tables = vec![("fig7", flashrun::fig7_table(&r, bin))];
            let s = flashrun::flash_summary(&r, scale);
            let notes = vec![
                format!(
                    "time to serve 95% of the crowd: with TC {:.3}s, without TC {:.3}s",
                    s.tc_t95, s.notc_t95
                ),
                format!(
                    "total forwards: with TC {}, without TC {}\n",
                    s.tc_forwards, s.notc_forwards
                ),
            ];
            StageOut { tables, notes }
        }));
    }

    if want("sci") {
        stages.push(Box::new(|| {
            eprintln!("running scientific-burst workload comparison...");
            let pts = scirun::run_sci(scale);
            StageOut::tables(vec![("sci", scirun::sci_table(&pts))])
        }));
    }

    if want("ablate-prefetch") {
        stages.push(Box::new(|| {
            eprintln!("running prefetch ablation (Table A)...");
            let pts = ablation::run_ablate_prefetch(scale);
            StageOut::tables(vec![(
                "ablate_prefetch",
                ablation::ablation_table("Table A: embedded-inode directory prefetch", &pts),
            )])
        }));
    }

    if want("ablate-balance") {
        stages.push(Box::new(|| {
            eprintln!("running balancing ablation (Table B)...");
            let pts = ablation::run_ablate_balance(scale);
            StageOut::tables(vec![(
                "ablate_balance",
                ablation::ablation_table("Table B: load balancing vs total throughput", &pts),
            )])
        }));
    }

    if want("ablate-dirhash") {
        stages.push(Box::new(|| {
            eprintln!("running huge-directory hashing ablation (Table C)...");
            let pts = ablation::run_ablate_dir_hash(scale);
            StageOut::tables(vec![(
                "ablate_dirhash",
                ablation::ablation_table(
                    "Table C: entry-wise hashing of one huge hot directory",
                    &pts,
                ),
            )])
        }));
    }

    if want("ablate-leases") {
        stages.push(Box::new(|| {
            eprintln!("running client-lease ablation (Table E)...");
            let pts = ablation::run_ablate_leases(scale);
            StageOut::tables(vec![("ablate_leases", ablation::lease_table(&pts))])
        }));
    }

    if want("ablate-probation") {
        stages.push(Box::new(|| {
            eprintln!("running prefetch-insertion ablation (Table G)...");
            let pts = ablation::run_ablate_probation(scale);
            StageOut::tables(vec![(
                "ablate_probation",
                ablation::ablation_table(
                    "Table G: near-tail vs MRU insertion of prefetched metadata",
                    &pts,
                ),
            )])
        }));
    }

    if want("ablate-shared-writes") {
        stages.push(Box::new(|| {
            eprintln!("running shared-writes ablation (Table F)...");
            let pts = ablation::run_ablate_shared_writes(scale);
            StageOut::tables(vec![(
                "ablate_shared_writes",
                ablation::ablation_table(
                    "Table F: GPFS-style shared writes under an N-to-1 write crowd",
                    &pts,
                ),
            )])
        }));
    }

    if want("ablate-warming") {
        stages.push(Box::new(|| {
            eprintln!("running journal cache-warming ablation (Table D)...");
            let pts = ablation::run_ablate_journal_warming(scale);
            StageOut::tables(vec![(
                "ablate_warming",
                ablation::ablation_table(
                    "Table D: journal cache warming on failover (post-failure window)",
                    &pts,
                ),
            )])
        }));
    }

    if want("elasticity") {
        stages.push(Box::new(|| {
            eprintln!("running elastic-provisioning experiment (diurnal workload)...");
            let pts = dynmds_harness::elasticrun::run_elasticity(scale, args.shards, None);
            StageOut::tables(vec![(
                "elasticity",
                dynmds_harness::elasticrun::elasticity_table(&pts),
            )])
        }));
    }

    if want("hotspot") {
        stages.push(Box::new(|| {
            eprintln!("running hotspot-absorption experiment (proxy vs redirect)...");
            let pts = dynmds_harness::hotspotrun::run_hotspot(scale, args.shards, None);
            StageOut::tables(vec![("hotspot", dynmds_harness::hotspotrun::hotspot_table(&pts))])
        }));
    }

    if want("availability") {
        stages.push(Box::new(|| {
            eprintln!("running availability-under-churn experiment...");
            let schedule =
                args.faults.clone().unwrap_or_else(|| availability::default_schedule(scale));
            let pts = availability::run_availability(scale, &schedule);
            StageOut::tables(vec![("availability", availability::availability_table(&pts))])
        }));
    }

    // The stages fan out across workers (each stage also parallelizes its
    // own simulations internally); emission stays serial and ordered.
    for out in parallel_map(&stages, |stage| stage()) {
        for (name, table) in &out.tables {
            emit(&args, name, table);
        }
        for note in &out.notes {
            println!("{note}");
        }
    }
    // The stage closures borrow `args`; release them before the obs tail
    // takes it by value.
    drop(stages);

    // `obs` alone (or any figure combined with --obs/--obs-trace) ends
    // with the instrumented representative run.
    if args.obs.enabled() || args.command == "obs" {
        let mut args = args;
        if !args.obs.enabled() {
            args.obs = ObsConfig::metrics_only();
        }
        run_obs(&args);
    }
}
