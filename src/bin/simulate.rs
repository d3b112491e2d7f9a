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
//!   --osds N            OSD pool size                         (16)
//!   --seconds N         measured virtual seconds              (20)
//!   --warmup N          warm-up virtual seconds               (8)
//!   --seed N            RNG seed                              (7)
//!   --shards N          run the sharded engine on N event queues (0 = legacy serial engine)
//!   --threads N         worker threads for the shard fan-out   (worker policy)
//!   --force-dense       sharded engine: run every window on all workers, never skip
//!                       (debug/CI knob — output is byte-identical either way)
//!   --workload general|scientific|hotset|diurnal              (general)
//!   --diurnal-period N  diurnal day length, virtual seconds    (4)
//!   --night-mult X      night think-time multiplier            (150)
//!   --leases            enable client metadata leases
//!   --shared-writes     enable GPFS-style shared writes
//!   --proxy N           put N hotspot proxies in front of the cluster (0)
//!   --no-balancing      disable the load balancer
//!   --no-traffic-control  disable flash-crowd replication
//!   --dir-hash N        hash directories beyond N entries
//!   --fail MDS@SECS     kill a node mid-run (repeatable)
//!   --recover MDS@SECS  bring a node back (repeatable)
//!   --faults SPEC       deterministic fault schedule, `;`-separated:
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

use dynmds_core::{FaultEvent, ShardedSimulation, SimConfig, Simulation};
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
    /// `--fail` / `--recover`, as scripted crash and recover events.
    faults: Vec<FaultEvent>,
    fault_spec: Option<String>,
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
        faults: Vec::new(),
        fault_spec: None,
        obs: dynmds_obs::ObsConfig::default(),
        obs_out: ".".into(),
    };
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| usage(&format!("missing value for {flag}")))
    };
    while let Some(f) = it.next() {
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
            "--diurnal-period" => {
                a.diurnal_period =
                    next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --diurnal-period"))
            }
            "--night-mult" => {
                a.night_mult =
                    next(&mut it, &f).parse().unwrap_or_else(|_| usage("bad --night-mult"))
            }
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
                a.faults.push(FaultEvent::Crash { at, mds });
            }
            "--recover" => {
                let (mds, at) = parse_fault(&next(&mut it, &f));
                a.faults.push(FaultEvent::Recover { at, mds });
            }
            "--faults" => a.fault_spec = Some(next(&mut it, &f)),
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
    a
}

fn main() {
    let a = parse_args();
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
    if let Some(spec) = &a.fault_spec {
        cfg.faults = dynmds_core::FaultSchedule::parse(spec)
            .unwrap_or_else(|e| usage(&format!("bad --faults spec: {e}")));
    }
    let mut scheduled = cfg.faults.clone();
    scheduled.events.extend(&a.faults);
    if let Err(e) = scheduled.check_nodes(a.n_mds as usize) {
        usage(&format!("bad fault schedule: {e}"));
    }

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

    let workload: Box<dyn Workload> = match a.workload.as_str() {
        "general" => Box::new(GeneralWorkload::new(
            WorkloadConfig { seed: a.seed ^ 0x17, ..Default::default() },
            a.n_clients as usize,
            &snapshot.user_homes,
            &snapshot.shared_roots,
            &snapshot.ns,
        )),
        "diurnal" => Box::new(DiurnalWorkload::new(
            GeneralWorkload::new(
                WorkloadConfig { seed: a.seed ^ 0x17, ..Default::default() },
                a.n_clients as usize,
                &snapshot.user_homes,
                &snapshot.shared_roots,
                &snapshot.ns,
            ),
            SimDuration::from_secs(a.diurnal_period),
            a.night_mult,
        )),
        "scientific" => {
            let shared_dirs: Vec<_> = snapshot
                .shared_roots
                .iter()
                .flat_map(|&r| snapshot.ns.walk(r).filter(|&i| snapshot.ns.is_dir(i)).take(4))
                .collect();
            Box::new(ScientificWorkload::new(
                a.seed ^ 0x17,
                a.n_clients as usize,
                &snapshot.user_homes,
                &shared_dirs,
                SimDuration::from_secs(8),
                SimDuration::from_secs(2),
            ))
        }
        other => usage(&format!("unknown workload {other}")),
    };

    let mut sim = Simulation::new(cfg, snapshot, workload);
    for &ev in &a.faults {
        match ev {
            FaultEvent::Crash { at, mds } => sim.schedule_failure(at, mds),
            FaultEvent::Recover { at, mds } => sim.schedule_recovery(at, mds),
            _ => unreachable!("--fail and --recover script only crashes and recoveries"),
        }
    }
    sim.run_until(SimTime::from_secs(a.warmup));
    sim.cluster_mut().reset_measurement(SimTime::from_secs(a.warmup));
    sim.run_until(SimTime::from_secs(a.warmup + a.seconds));

    let migrations = sim.cluster().migrations;
    let lease_hits = sim.cluster().clients.lease_hits();
    let absorbed = sim.cluster().shared_write_absorbed;
    let timeouts = sim.cluster().failover_timeouts;
    let (retries, gave_up) = (sim.cluster().retries_total, sim.cluster().gave_up);
    let (net_lost, net_dup) = (sim.cluster().net_lost, sim.cluster().net_dup);
    let proxy = sim.cluster().proxy_stats();
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
    if migrations > 0 {
        println!("subtree migrations : {migrations}");
    }
    if lease_hits > 0 {
        println!("lease-served reads : {lease_hits}");
    }
    if absorbed > 0 {
        println!("shared writes absorbed: {absorbed}");
    }
    if proxy.absorbed() > 0 || proxy.forwarded > 0 {
        println!("proxy absorbed     : {} ({} forwarded hot)", proxy.absorbed(), proxy.forwarded);
    }
    if timeouts > 0 {
        println!("failover timeouts  : {timeouts}");
    }
    if retries > 0 || gave_up > 0 {
        println!("client retries     : {retries} ({gave_up} gave up)");
    }
    if net_lost > 0 || net_dup > 0 {
        println!("network faults     : {net_lost} lost, {net_dup} duplicated");
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
        println!("\n{}", export.summary);
        std::fs::create_dir_all(&a.obs_out).expect("create --obs-out dir");
        let mut outputs = vec![
            ("obs_metrics.jsonl", &export.metrics_jsonl),
            ("obs_snapshots.jsonl", &export.snapshots_jsonl),
        ];
        if let Some(trace) = &export.trace_jsonl {
            outputs.push(("obs_trace.jsonl", trace));
        }
        for (name, body) in outputs {
            let path = format!("{}/{name}", a.obs_out);
            std::fs::write(&path, body).expect("write obs jsonl");
            eprintln!("wrote {path}");
        }
    }
}

/// Per-shard workload builder: each shard gets its own generator, all
/// seeded identically, over the one namespace snapshot every shard reads.
type WorkloadFactory = Box<dyn Fn(&Namespace) -> Box<dyn Workload + Send>>;

/// The `--shards N` path: one run over N event queues with deterministic
/// cross-shard exchanges. The report/CSV surface is invariant in N.
fn run_sharded(a: &Args, mut cfg: SimConfig, snapshot: Snapshot) {
    if cfg.obs.trace {
        usage("--obs-trace is not supported with --shards (no per-op spans)");
    }
    // The legacy --fail/--recover flags fold into the declarative fault
    // schedule the sharded engine consumes.
    cfg.faults.events.extend(&a.faults);
    dynmds_harness::parallel::install_shard_driver();

    let n_clients = a.n_clients as usize;
    let seed = a.seed;
    let factory: WorkloadFactory = match a.workload.as_str() {
        "general" => {
            let homes = snapshot.user_homes.clone();
            let shared = snapshot.shared_roots.clone();
            Box::new(move |ns: &Namespace| {
                Box::new(GeneralWorkload::new(
                    WorkloadConfig { seed: seed ^ 0x17, ..Default::default() },
                    n_clients,
                    &homes,
                    &shared,
                    ns,
                )) as Box<dyn Workload + Send>
            })
        }
        "diurnal" => {
            let homes = snapshot.user_homes.clone();
            let shared = snapshot.shared_roots.clone();
            let (period, mult) = (SimDuration::from_secs(a.diurnal_period), a.night_mult);
            Box::new(move |ns: &Namespace| {
                Box::new(DiurnalWorkload::new(
                    GeneralWorkload::new(
                        WorkloadConfig { seed: seed ^ 0x17, ..Default::default() },
                        n_clients,
                        &homes,
                        &shared,
                        ns,
                    ),
                    period,
                    mult,
                )) as Box<dyn Workload + Send>
            })
        }
        "hotset" => Box::new(move |ns: &Namespace| {
            Box::new(HotSetWorkload::new(ns, n_clients, 32, seed ^ 0x17))
                as Box<dyn Workload + Send>
        }),
        other => usage(&format!(
            "workload {other} is not supported with --shards (use general|hotset|diurnal)"
        )),
    };

    let sim = ShardedSimulation::new(cfg, a.shards, a.threads, snapshot, &*factory);
    let report =
        sim.run_measured(SimDuration::from_secs(a.warmup), SimDuration::from_secs(a.seconds));
    print!("{}", report.render());

    if let Some(export) = &report.obs {
        println!("\n{}", export.summary);
        std::fs::create_dir_all(&a.obs_out).expect("create --obs-out dir");
        for (name, body) in [
            ("obs_metrics.jsonl", &export.metrics_jsonl),
            ("obs_snapshots.jsonl", &export.snapshots_jsonl),
        ] {
            let path = format!("{}/{name}", a.obs_out);
            std::fs::write(&path, body).expect("write obs jsonl");
            eprintln!("wrote {path}");
        }
    }
}
