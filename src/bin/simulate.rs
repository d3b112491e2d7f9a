//! General-purpose simulation driver: run any strategy/feature
//! combination from the command line and get a full report.
//!
//! ```text
//! simulate [flags]
//!   --strategy  static|dynamic|dirhash|filehash|lazyhybrid|elastic (dynamic)
//!                       (elastic needs --shards: only the sharded engine autoscales)
//!   --mds N             servers                               (8)
//!   --clients N         clients                               (80)
//!   --items N           metadata items in the snapshot        (32000)
//!   --cache N           per-MDS cache capacity, inodes        (1200)
//!   --osds N            OSD pool size                         (16; legacy engine only)
//!   --seconds N         measured virtual seconds              (20)
//!   --warmup N          warm-up virtual seconds               (8)
//!   --seed N            RNG seed                              (7)
//!   --shards N          run the sharded engine on N event queues (0 = legacy serial engine)
//!   --threads N         worker threads for the shard fan-out   (worker policy; needs --shards)
//!   --force-dense       sharded engine: run every window on all workers, never skip
//!                       (debug/CI knob — output is byte-identical either way; needs --shards)
//!   --workload general|scientific|hotset|diurnal              (general)
//!   --diurnal-period N  diurnal day length, virtual seconds    (4)
//!   --night-mult X      night think-time multiplier, >= 1      (150)
//!   --leases            enable client metadata leases
//!   --shared-writes     enable GPFS-style shared writes (legacy engine only)
//!   --proxy N           put N hotspot proxies in front of the cluster (0)
//!   --no-balancing      disable the load balancer
//!   --no-traffic-control  disable flash-crowd replication
//!   --dir-hash N        hash directories beyond N entries (legacy engine only)
//!   --fail MDS@SECS     kill a node mid-run (repeatable; = --faults crash:MDS@SECS)
//!   --recover MDS@SECS  bring a node back (repeatable; = --faults recover:MDS@SECS)
//!   --faults SPEC       deterministic fault schedule, `;`-separated (repeatable):
//!                       crash:MDS@T  recover:MDS@T
//!                       churn:mtbf=10s,mttr=2s,seed=9,until=30s[,nodes=A-B]
//!                       disk:lat=4x,iops=0.5x,err=0.01[,scope=osd|journal|all]@FROM..UNTIL
//!                       net:loss=0.02,dup=0.01@FROM..UNTIL
//!   --obs               enable the metrics registry + snapshots
//!   --obs-trace         additionally record per-op lifecycle spans
//!   --obs-out DIR       where the obs JSONL exports go             (.)
//! ```
//!
//! With `--obs`/`--obs-trace` the run ends with a human-readable
//! observability summary and writes `obs_metrics.jsonl`,
//! `obs_snapshots.jsonl` and (tracing only) `obs_trace.jsonl`. All
//! exports are timestamped with the sim clock and byte-identical across
//! runs with the same seed.

use dynmds_core::{FaultEvent, FaultSchedule, ObsExport, ShardedSimulation, SimConfig, Simulation};
use dynmds_event::{SimDuration, SimTime};
use dynmds_metrics::Table;
use dynmds_namespace::{MdsId, Namespace, NamespaceSpec, Snapshot};
use dynmds_partition::StrategyKind;
use dynmds_workload::{
    DiurnalWorkload, GeneralWorkload, HotSetWorkload, ScientificWorkload, Workload, WorkloadConfig,
};

struct Args {
    strategy: StrategyKind,
    n_mds: u16,
    n_clients: u32,
    items: u64,
    cache: usize,
    osds: usize,
    seconds: u64,
    warmup: u64,
    seed: u64,
    shards: usize,
    threads: Option<usize>,
    force_dense: bool,
    workload: String,
    diurnal_period: u64,
    night_mult: f64,
    leases: bool,
    shared_writes: bool,
    proxy: u16,
    no_balancing: bool,
    no_traffic_control: bool,
    dir_hash: usize,
    /// `--faults`, `--fail` and `--recover` entries in command-line order.
    schedule: FaultSchedule,
    obs: dynmds_obs::ObsConfig,
    obs_out: String,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("see `simulate --help` header comment in the source for flags");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Parses a sizing flag that must be at least 1: a zero would reach an
/// engine assert and panic instead of failing here as bad usage.
fn positive<T: std::str::FromStr + Default + PartialEq>(v: &str, flag: &str) -> T {
    v.parse()
        .ok()
        .filter(|n| *n != T::default())
        .unwrap_or_else(|| usage(&format!("bad {flag}: {v} (want a positive integer)")))
}

/// Parses a think-time multiplier: finite and at least 1. A smaller one
/// would reach an engine assert; an infinite one would stall every client.
fn stretch(v: &str, flag: &str) -> f64 {
    v.parse()
        .ok()
        .filter(|x: &f64| x.is_finite() && *x >= 1.0)
        .unwrap_or_else(|| usage(&format!("bad {flag}: {v} (want a finite number >= 1)")))
}

fn parse_fault(v: &str) -> (MdsId, SimTime) {
    let (m, s) =
        v.split_once('@').unwrap_or_else(|| usage(&format!("bad fault spec {v}; want MDS@SECS")));
    (
        MdsId(m.parse().unwrap_or_else(|_| usage("bad MDS index"))),
        SimTime::from_secs(s.parse().unwrap_or_else(|_| usage("bad fault time"))),
    )
}

fn parse_args() -> Args {
    let mut a = Args {
        strategy: StrategyKind::DynamicSubtree,
        n_mds: 8,
        n_clients: 80,
        items: 32_000,
        cache: 1_200,
        osds: 16,
        seconds: 20,
        warmup: 8,
        seed: 7,
        shards: 0,
        threads: None,
        force_dense: false,
        workload: "general".into(),
        diurnal_period: 4,
        night_mult: 150.0,
        leases: false,
        shared_writes: false,
        proxy: 0,
        no_balancing: false,
        no_traffic_control: false,
        dir_hash: 0,
        schedule: FaultSchedule::default(),
        obs: dynmds_obs::ObsConfig::default(),
        obs_out: ".".into(),
    };
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| usage(&format!("missing value for {flag}")))
    };
    let mut given: Vec<String> = Vec::new();
    while let Some(f) = it.next() {
        given.push(f.clone());
        match f.as_str() {
            "--strategy" => {
                a.strategy = match next(&mut it, &f).as_str() {
                    "static" => StrategyKind::StaticSubtree,
                    "dynamic" => StrategyKind::DynamicSubtree,
                    "dirhash" => StrategyKind::DirHash,
                    "filehash" => StrategyKind::FileHash,
                    "lazyhybrid" => StrategyKind::LazyHybrid,
                    "elastic" => StrategyKind::ElasticSubtree,
                    other => usage(&format!("unknown strategy {other}")),
                }
            }
            "--mds" => a.n_mds = positive(&next(&mut it, &f), &f),
            "--clients" => a.n_clients = positive(&next(&mut it, &f), &f),
            "--items" => {
                a.items = next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --items"))
            }
            "--cache" => a.cache = positive(&next(&mut it, &f), &f),
            "--osds" => a.osds = positive(&next(&mut it, &f), &f),
            "--seconds" => {
                a.seconds = next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--warmup" => {
                a.warmup = next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --warmup"))
            }
            "--seed" => a.seed = next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --seed")),
            "--shards" => {
                a.shards = next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --shards"))
            }
            "--threads" => {
                a.threads =
                    Some(next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --threads")))
            }
            "--force-dense" => a.force_dense = true,
            "--workload" => a.workload = next(&mut it, &f),
            "--diurnal-period" => a.diurnal_period = positive(&next(&mut it, &f), &f),
            "--night-mult" => a.night_mult = stretch(&next(&mut it, &f), &f),
            "--leases" => a.leases = true,
            "--shared-writes" => a.shared_writes = true,
            "--proxy" => {
                a.proxy = next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --proxy"))
            }
            "--no-balancing" => a.no_balancing = true,
            "--no-traffic-control" => a.no_traffic_control = true,
            "--dir-hash" => {
                a.dir_hash = next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --dir-hash"))
            }
            "--fail" => {
                let (mds, at) = parse_fault(&next(&mut it, &f));
                a.schedule.events.push(FaultEvent::Crash { at, mds });
            }
            "--recover" => {
                let (mds, at) = parse_fault(&next(&mut it, &f));
                a.schedule.events.push(FaultEvent::Recover { at, mds });
            }
            "--faults" => {
                let spec = FaultSchedule::parse(&next(&mut it, &f))
                    .unwrap_or_else(|e| usage(&format!("bad --faults spec: {e}")));
                a.schedule.events.extend(spec.events);
                a.schedule.churn = spec.churn.or(a.schedule.churn);
            }
            "--obs" => a.obs.metrics = true,
            "--obs-trace" => {
                a.obs.metrics = true;
                a.obs.trace = true;
            }
            "--obs-out" => a.obs_out = next(&mut it, &f),
            "-h" | "--help" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if a.strategy == StrategyKind::ElasticSubtree && a.shards == 0 {
        usage("--strategy elastic needs --shards N (only the sharded engine autoscales)");
    }
    // Flags the chosen engine would silently ignore.
    let (ignored, why): (&[&str], _) = if a.shards > 0 {
        (&["--shared-writes", "--dir-hash", "--osds"], "is not supported with --shards")
    } else {
        (&["--force-dense", "--threads"], "needs --shards N (only the sharded engine reads it)")
    };
    if let Some(f) = given.iter().find(|f| ignored.contains(&f.as_str())) {
        usage(&format!("{f} {why}"));
    }
    if let Err(e) = a.schedule.check_nodes(a.n_mds as usize) {
        usage(&format!("bad fault schedule: {e}"));
    }
    a
}

fn main() {
    let mut a = parse_args();
    let mut cfg = SimConfig::small(a.strategy);
    cfg.n_mds = a.n_mds;
    cfg.n_clients = a.n_clients;
    cfg.cache_capacity = a.cache;
    cfg.journal_capacity = a.cache * 4;
    cfg.n_osds = a.osds;
    cfg.seed = a.seed;
    cfg.client_leases = a.leases;
    cfg.shared_writes = a.shared_writes;
    cfg.proxy.count = a.proxy;
    cfg.force_dense = a.force_dense;
    cfg.dir_hash_threshold = a.dir_hash;
    if a.no_balancing {
        cfg.balancing = false;
    }
    if a.no_traffic_control {
        cfg.traffic_control = false;
    }
    cfg.obs = a.obs;
    cfg.faults = std::mem::take(&mut a.schedule);

    let snapshot =
        NamespaceSpec::with_target_items(a.n_clients as usize, a.items, a.seed ^ 0xF5).generate();
    let stats = snapshot.stats();
    println!(
        "snapshot: {} items ({} dirs, max depth {}); cluster: {} × {}-inode caches; {} clients\n",
        stats.total, stats.dirs, stats.max_depth, a.n_mds, a.cache, a.n_clients
    );

    if a.shards > 0 {
        run_sharded(&a, cfg, snapshot);
        return;
    }

    let workload = workload_factory(&a, &snapshot)(&snapshot.ns);
    let mut sim = Simulation::new(cfg, snapshot, workload);
    sim.run_until(SimTime::from_secs(a.warmup));
    sim.cluster_mut().reset_measurement(SimTime::from_secs(a.warmup));
    sim.run_until(SimTime::from_secs(a.warmup + a.seconds));

    // Every count below covers the measured window only.
    let c = sim.cluster();
    let m = c.measured_counters();
    let absorbed: u64 = c.nodes.iter().map(|n| n.measured().shared_absorbed).sum();
    let proxy = c.proxy_stats();
    let report = sim.finish();

    println!("== results over {:.0} measured seconds ==", report.span_secs());
    println!("per-MDS throughput : {:.0} ops/s", report.avg_mds_throughput());
    println!("cache hit rate     : {:.1} %", report.overall_hit_rate() * 100.0);
    println!("prefix cache share : {:.1} %", report.mean_prefix_pct());
    println!(
        "forwarded requests : {:.2} %",
        100.0 * report.total_forwarded() as f64 / report.total_received().max(1) as f64
    );
    println!(
        "latency mean/p50/p99: {:.2} / {:.2} / {:.2} ms",
        report.latency.mean().unwrap_or(0.0) * 1e3,
        report.latency.median().unwrap_or(0.0) * 1e3,
        report.latency.quantile(0.99).unwrap_or(0.0) * 1e3,
    );
    if m.migrations > 0 {
        println!("subtree migrations : {}", m.migrations);
    }
    if m.lease_hits > 0 {
        println!("lease-served reads : {}", m.lease_hits);
    }
    if absorbed > 0 {
        println!("shared writes absorbed: {absorbed}");
    }
    if proxy.absorbed() > 0 || proxy.forwarded > 0 {
        println!("proxy absorbed     : {} ({} forwarded hot)", proxy.absorbed(), proxy.forwarded);
    }
    if m.failover_timeouts > 0 {
        println!("failover timeouts  : {}", m.failover_timeouts);
    }
    if m.retries > 0 || m.gave_up > 0 {
        println!("client retries     : {} ({} gave up)", m.retries, m.gave_up);
    }
    if m.net_lost > 0 || m.net_dup > 0 {
        println!("network faults     : {} lost, {} duplicated", m.net_lost, m.net_dup);
    }

    println!("\nlatency distribution:");
    print!("{}", report.latency.histogram(0.0005, 8).render(40));

    let mut t =
        Table::new("per-node detail", &["node", "served", "fwd", "hit%", "prefix%", "cache"]);
    for (i, n) in report.nodes.iter().enumerate() {
        t.row(&[
            format!("mds{i}"),
            n.served.to_string(),
            n.forwarded.to_string(),
            format!("{:.1}", n.hit_rate * 100.0),
            format!("{:.1}", n.prefix_fraction * 100.0),
            n.cache_len.to_string(),
        ]);
    }
    println!("\n{}", t.render());

    if let Some(export) = &report.obs {
        write_obs(export, &a.obs_out);
    }
}

/// Prints the obs summary and writes the JSONL exports into `out`.
fn write_obs(export: &ObsExport, out: &str) {
    println!("\n{}", export.summary);
    std::fs::create_dir_all(out).expect("create --obs-out dir");
    let trace = export.trace_jsonl.as_ref().map(|t| ("obs_trace.jsonl", t));
    let exports = [
        ("obs_metrics.jsonl", &export.metrics_jsonl),
        ("obs_snapshots.jsonl", &export.snapshots_jsonl),
    ];
    for (name, body) in exports.into_iter().chain(trace) {
        let path = format!("{out}/{name}");
        std::fs::write(&path, body).expect("write obs jsonl");
        eprintln!("wrote {path}");
    }
}

/// Builds the `--workload` generator over a namespace. The legacy engine
/// calls it once; the sharded engine once per shard, each call seeded
/// identically over the one snapshot every shard reads.
type WorkloadFactory = Box<dyn Fn(&Namespace) -> Box<dyn Workload + Send>>;

fn workload_factory(a: &Args, snapshot: &Snapshot) -> WorkloadFactory {
    let (n_clients, seed) = (a.n_clients as usize, a.seed ^ 0x17);
    let (homes, shared) = (snapshot.user_homes.clone(), snapshot.shared_roots.clone());
    let general = move |ns: &Namespace| {
        GeneralWorkload::new(
            WorkloadConfig { seed, ..Default::default() },
            n_clients,
            &homes,
            &shared,
            ns,
        )
    };
    match (a.workload.as_str(), a.shards > 0) {
        ("general", _) => Box::new(move |ns| Box::new(general(ns))),
        ("diurnal", _) => {
            let (period, mult) = (SimDuration::from_secs(a.diurnal_period), a.night_mult);
            Box::new(move |ns| Box::new(DiurnalWorkload::new(general(ns), period, mult)))
        }
        ("hotset", true) => {
            Box::new(move |ns| Box::new(HotSetWorkload::new(ns, n_clients, 32, seed)))
        }
        ("scientific", false) => {
            let homes = snapshot.user_homes.clone();
            let shared_dirs: Vec<_> = snapshot
                .shared_roots
                .iter()
                .flat_map(|&r| snapshot.ns.walk(r).filter(|&i| snapshot.ns.is_dir(i)).take(4))
                .collect();
            Box::new(move |_| {
                Box::new(ScientificWorkload::new(
                    seed,
                    n_clients,
                    &homes,
                    &shared_dirs,
                    SimDuration::from_secs(8),
                    SimDuration::from_secs(2),
                ))
            })
        }
        (other, true) => usage(&format!(
            "workload {other} is not supported with --shards (use general|hotset|diurnal)"
        )),
        (other, false) => usage(&format!("unknown workload {other}")),
    }
}

/// The `--shards N` path: one run over N event queues with deterministic
/// cross-shard exchanges. The report/CSV surface is invariant in N.
fn run_sharded(a: &Args, cfg: SimConfig, snapshot: Snapshot) {
    if cfg.obs.trace {
        usage("--obs-trace is not supported with --shards (no per-op spans)");
    }
    dynmds_harness::parallel::install_shard_driver();
    let factory = workload_factory(a, &snapshot);
    let sim = ShardedSimulation::new(cfg, a.shards, a.threads, snapshot, &*factory);
    let report =
        sim.run_measured(SimDuration::from_secs(a.warmup), SimDuration::from_secs(a.seconds));
    print!("{}", report.render());
    if let Some(export) = &report.obs {
        write_obs(export, &a.obs_out);
    }
}
