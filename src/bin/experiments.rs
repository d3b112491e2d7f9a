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
//! overrides the default schedule — same grammar as `simulate`),
//! `elasticity` and `hotspot` (sharded-engine figures), `all`, or `obs`.
//!
//! Each subcommand prints the figure's data as an aligned table; `--csv`
//! additionally writes machine-readable CSVs.
//!
//! `--obs` (metrics + snapshots) and `--obs-trace` (additionally per-op
//! spans) run one instrumented representative steady-state simulation
//! after the chosen subcommand, print its summary, and write
//! `obs_metrics.jsonl` / `obs_snapshots.jsonl` / `obs_trace.jsonl` (to
//! `--csv DIR` when given, else the working directory).
//!
//! Host-time benchmarking lives in the separate `hostbench/` package
//! (workloads declared in `BENCHMARK.json`), not in this binary.

use std::io::Write as _;

use dynmds_event::SimDuration;
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
                        ablate-probation|availability|elasticity|hotspot|all|obs";

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
                let schedule = dynmds_core::FaultSchedule::parse(&spec)
                    .and_then(|f| {
                        // `availability` runs it, on a cluster of fixed size.
                        f.check_nodes(usize::from(availability::AVAIL_CLUSTER)).map(|()| f)
                    })
                    .unwrap_or_else(|e| usage(&format!("bad --faults spec: {e}")));
                faults = Some(schedule);
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
         \u{20}                     [--force-dense] (sharded cross-check runs every window on all workers)\n\
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

/// The representative steady-state simulation `--obs` and `obs`
/// instrument: the largest quick dynamic-subtree scaling point, the
/// shape the hot path is tuned for.
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

/// Entry point for `experiments scale` — the million-client scale tier.
/// Owns its flag grammar (like `torture`): sizing defaults come from
/// `--smoke` (CI) or `--full` (the ≥10⁶-client, ≥10⁸-inode run), with
/// every knob individually overridable. Prints the deterministic table,
/// writes `scale.csv` to `--out`, and reports wall-clock throughput and
/// peak RSS on stdout only (machine-dependent, never in the CSV).
fn run_scale_cli(raw: &[String]) {
    use dynmds_harness::ScaleParams;
    let mut p = ScaleParams::smoke();
    let mut out_dir = ".".to_string();
    let mut it = raw.iter();
    let parse_err =
        |flag: &str, v: &str| -> ! { usage(&format!("scale: bad value for {flag}: {v}")) };
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| usage(&format!("scale: missing value for {flag}")))
        };
        match a.as_str() {
            "--smoke" => p = ScaleParams::smoke(),
            "--full" => p = ScaleParams::full(),
            "--clients" => p.clients = positive(a, &val(a)),
            "--users" => p.users = positive(a, &val(a)),
            "--target-inodes" => {
                let v = val("--target-inodes");
                p.target_items = v.parse().unwrap_or_else(|_| parse_err("--target-inodes", &v));
            }
            "--materialize" => p.materialize_users = positive(a, &val(a)),
            "--ring" => p.ring = positive(a, &val(a)),
            "--mds" => p.n_mds = positive(a, &val(a)),
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
            other => usage(&format!("scale: unknown argument: {other}")),
        }
    }
    if p.materialize_users > p.users {
        usage(&format!(
            "scale: bad value for --materialize: {} (want at most --users, {})",
            p.materialize_users, p.users
        ));
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
}

/// Parses a sizing flag that must be at least 1: a zero would reach an
/// engine assert and panic instead of failing here as bad usage.
fn positive<T: std::str::FromStr + Default + PartialEq>(flag: &str, v: &str) -> T {
    v.parse().ok().filter(|n| *n != T::default()).unwrap_or_else(|| {
        usage(&format!("scale: bad value for {flag}: {v} (want a positive integer)"))
    })
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

fn main() {
    // `torture` owns its flag grammar; dispatch before the figure parser.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("torture") {
        std::process::exit(dynmds_dst::cli::run_torture(&raw[1..]));
    }
    // `scale` owns its flag grammar too.
    if raw.first().map(String::as_str) == Some("scale") {
        run_scale_cli(&raw[1..]);
        return;
    }
    let args = parse_args();
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
