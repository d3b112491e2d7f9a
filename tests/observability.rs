//! Integration tests for the observability layer: determinism of the
//! exports (metrics, snapshots, op-trace spans) across same-seed runs —
//! including a failover mid-trace — internal consistency between each
//! engine's export and its own accounting, one metric schema for both
//! engines, and both engines' exports pinned byte for byte against
//! `tests/golden/obs/`.

use std::path::Path;
use std::process::Command;

use dynmds::core::{FaultSchedule, ObsExport, ShardedSimulation, SimConfig, Simulation};
use dynmds::event::{SimDuration, SimTime};
use dynmds::harness::elasticrun::{elasticity_config, run_diurnal};
use dynmds::harness::ExperimentScale;
use dynmds::namespace::NamespaceSpec;
use dynmds::obs::ObsConfig;
use dynmds::partition::StrategyKind;
use dynmds::workload::{GeneralWorkload, Workload, WorkloadConfig};

fn sim(obs: ObsConfig) -> Simulation {
    sim_with(obs, |_| {})
}

/// [`sim`] with `tweak` applied to the configuration.
fn sim_with(obs: ObsConfig, tweak: impl FnOnce(&mut SimConfig)) -> Simulation {
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = 4;
    cfg.n_clients = 32;
    cfg.seed = 55;
    cfg.obs = obs;
    tweak(&mut cfg);
    let snap = NamespaceSpec::with_target_items(32, 8_000, 5).generate();
    let wl = Box::new(GeneralWorkload::new(
        WorkloadConfig { seed: 56, ..Default::default() },
        32,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    ));
    Simulation::new(cfg, snap, wl)
}

/// Runs warm-up + measurement with a failure and a recovery injected
/// mid-measurement, returning the obs exports.
fn traced_failover_run(obs: ObsConfig) -> ObsExport {
    let mut s = sim_with(obs, |cfg| {
        cfg.faults = FaultSchedule::parse("crash:1@4s;recover:1@7s").expect("valid fault spec");
    });
    s.run_until(SimTime::from_secs(2));
    s.cluster_mut().reset_measurement(SimTime::from_secs(2));
    s.run_until(SimTime::from_secs(9));
    s.finish().obs.expect("obs enabled")
}

#[test]
fn same_seed_runs_export_byte_identical_obs_under_failover() {
    let a = traced_failover_run(ObsConfig::full());
    let b = traced_failover_run(ObsConfig::full());
    assert_eq!(a.metrics_jsonl, b.metrics_jsonl, "metrics must be byte-identical");
    assert_eq!(a.snapshots_jsonl, b.snapshots_jsonl, "snapshots must be byte-identical");
    assert_eq!(a.trace_jsonl, b.trace_jsonl, "span traces must be byte-identical");
    assert_eq!(a.summary, b.summary, "summaries must be byte-identical");
    let trace = a.trace_jsonl.expect("tracing was on");
    assert!(!trace.is_empty(), "spans were recorded");
    assert!(trace.contains("\"s\":\"dead_timeout\""), "failover visible in spans");
    assert!(a.metrics_jsonl.contains("\"name\":\"node_failures\",\"value\":1"));
    assert!(a.metrics_jsonl.contains("\"name\":\"node_recoveries\",\"value\":1"));
}

#[test]
fn obs_disabled_report_carries_no_export() {
    let mut s = sim(ObsConfig::default());
    s.run_until(SimTime::from_secs(3));
    let report = s.finish();
    assert!(report.obs.is_none());
}

#[test]
fn registry_counters_agree_with_cluster_accounting() {
    // Warm-up, reset, measure: the report's node counters and the obs
    // export both cover the measured window. A low replication threshold
    // makes traffic control replicate, so replica serves are counted.
    let mut s = sim_with(ObsConfig::metrics_only(), |cfg| cfg.replication_threshold = 8.0);
    s.run_until(SimTime::from_secs(2));
    s.cluster_mut().reset_measurement(SimTime::from_secs(2));
    s.run_until(SimTime::from_secs(6));
    let k = s.cluster().measured_counters();
    let report = s.finish();
    let export = report.obs.as_ref().expect("obs enabled");
    assert!(export.trace_jsonl.is_none(), "metrics-only run records no spans");
    assert!(report.nodes.iter().any(|n| n.replica_serves > 0), "replicas must serve reads");

    assert_node_counters_match(&export.metrics_jsonl, &report.nodes);
    for (name, want) in [
        ("replications", k.replications),
        ("subtree_migrations", k.migrations),
        ("delegation_merges", k.delegation_merges),
    ] {
        assert_eq!(scalar(&export.metrics_jsonl, name), want, "{name} disagrees with the cluster");
    }
    assert!(k.replications > 0, "traffic control must replicate");
    let count = format!("\"name\":\"latency_us\",\"count\":{},", report.latency.count());
    assert!(export.metrics_jsonl.contains(&count), "latency count disagrees with the report");
    // Snapshots cover the measurement window at the sampling interval.
    assert!(!export.snapshots_jsonl.is_empty(), "snapshot rows were captured");
    for row in export.snapshots_jsonl.lines() {
        for field in ["\"served\":", "\"cache_prefix\":", "\"journal_depth\":", "\"alive\":"] {
            assert!(row.contains(field), "snapshot row missing {field}: {row}");
        }
    }

    // The sharded engine's export against its own report. Leases, a
    // churn and network-loss storm and the balancer, so every compared
    // count is live.
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.client_leases = true;
    cfg.obs = ObsConfig::metrics_only();
    cfg.faults = FaultSchedule::parse(
        "churn:mtbf=2s,mttr=500ms,seed=9,until=6s,nodes=2-3;net:loss=0.02,dup=0.01@1s..5s",
    )
    .expect("valid fault spec");
    let (snap, make) = general_workload(48);
    let report = ShardedSimulation::new(cfg, 2, Some(1), snap, &make)
        .run_measured(SimDuration::from_secs(1), SimDuration::from_secs(5));
    let metrics = &report.obs.as_ref().expect("metrics on").metrics_jsonl;
    assert_node_counters_match(metrics, &report.nodes);
    let k = &report.counters;
    for (name, want) in [
        ("lease_local_reads", report.lease_hits),
        ("client_retries", k.retries),
        ("ops_gave_up", report.failed),
        ("stale_replies", k.stale_replies),
        ("subtree_migrations", report.migrations),
        ("net_messages_duplicated", k.net_dup),
        ("node_failures", k.failures),
    ] {
        assert_eq!(scalar(metrics, name), want, "{name} disagrees with the report");
    }
    let timeouts = scalar(metrics, "failover_timeouts") + scalar(metrics, "net_messages_lost");
    assert_eq!(timeouts, report.timeouts(), "timeouts disagree with the report");
    let latency = metrics.lines().find(|l| l.contains("\"name\":\"latency_us\"")).expect("latency");
    assert!(latency.contains(&format!("\"count\":{},", report.ops)), "{latency}");
    for (what, n) in [
        ("lease hits", report.lease_hits),
        ("failover timeouts", k.failover_timeouts),
        ("lost messages", k.net_lost),
        ("retries", k.retries),
        ("failures", k.failures),
    ] {
        assert!(n > 0, "the run must exercise {what}: {}", report.render());
    }
}

/// One config on both engines: the same metric names in the same order.
/// A one-MDS cluster keeps its per-MDS shape, and the proxy group is
/// there on both engines whenever the tier is on.
#[test]
fn both_engines_export_one_metric_schema() {
    for (n_mds, proxies) in [(1u16, 0u16), (4, 2)] {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = n_mds;
        cfg.proxy.count = proxies;
        cfg.obs = ObsConfig::metrics_only();
        let (warmup, measure) = (SimDuration::from_secs(1), SimDuration::from_secs(2));
        let (snap, make) = general_workload(48);
        let wl = make(&snap.ns);
        let legacy = Simulation::new(cfg.clone(), snap, wl).run_measured(warmup, measure);
        let (snap, make) = general_workload(48);
        let sharded =
            ShardedSimulation::new(cfg, 2, Some(1), snap, &make).run_measured(warmup, measure);
        let names = |export: Option<&ObsExport>| -> Vec<String> {
            let metrics = &export.expect("metrics on").metrics_jsonl;
            metrics
                .lines()
                .map(|l| {
                    let at = l.find("\"name\":\"").expect("named metric") + 8;
                    l[at..at + l[at..].find('"').expect("name close")].to_string()
                })
                .collect()
        };
        let legacy_names = names(legacy.obs.as_ref());
        assert_eq!(legacy_names, names(sharded.obs.as_ref()), "{n_mds} MDS, {proxies} proxies");
        assert_eq!(legacy_names.last().map(String::as_str), Some("latency_us"));
        assert_eq!(
            legacy_names.iter().any(|n| n.starts_with("proxy_")),
            proxies > 0,
            "the proxy group follows the config"
        );
        for (engine, export) in [("legacy", legacy.obs.as_ref()), ("sharded", sharded.obs.as_ref())]
        {
            let metrics = &export.expect("metrics on").metrics_jsonl;
            let served = metrics.lines().find(|l| l.contains("\"name\":\"served\"")).unwrap();
            assert_eq!(parse_per_mds(served).len(), n_mds as usize, "{engine}: {served}");
        }
    }
}

/// A namespace for `clients` clients and a factory for their general workload,
/// the same for both engines.
fn general_workload(
    clients: usize,
) -> (dynmds::namespace::Snapshot, impl Fn(&dynmds::namespace::Namespace) -> Box<dyn Workload + Send>)
{
    let snap = NamespaceSpec::with_target_items(clients, 8_000, 5).generate();
    let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
    let make = move |ns: &dynmds::namespace::Namespace| -> Box<dyn Workload + Send> {
        Box::new(GeneralWorkload::new(WorkloadConfig::default(), clients, &homes, &shared, ns))
    };
    (snap, make)
}

/// Every per-MDS counter with a report twin must match it.
fn assert_node_counters_match(metrics: &str, nodes: &[dynmds::core::NodeSnapshot]) {
    for (name, get) in [
        ("served", (|n| n.served) as fn(&dynmds::core::NodeSnapshot) -> u64),
        ("forwarded", |n| n.forwarded),
        ("received", |n| n.received),
        ("disk_fetches", |n| n.disk_fetches),
        ("replica_serves", |n| n.replica_serves),
    ] {
        let line = metrics
            .lines()
            .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .unwrap_or_else(|| panic!("metric {name} missing"));
        let want: Vec<u64> = nodes.iter().map(get).collect();
        assert_eq!(parse_per_mds(line), want, "{name} disagrees with the report");
    }
}

/// The `"value"` of scalar counter `name` in a metrics export.
fn scalar(metrics: &str, name: &str) -> u64 {
    let line = metrics
        .lines()
        .find(|l| l.contains(&format!("\"name\":\"{name}\",\"value\":")))
        .unwrap_or_else(|| panic!("scalar {name} missing"));
    let at = line.find("\"value\":").unwrap() + 8;
    line[at..].trim_end_matches('}').parse().expect("integer value")
}

#[test]
fn both_engines_sample_the_same_nine_fields() {
    const FIELDS: [&str; 9] = [
        "served",
        "forwarded",
        "received",
        "misses",
        "cache_prefix",
        "cache_target",
        "journal_depth",
        "delegations",
        "alive",
    ];
    let (warmup, measure) = (SimDuration::from_secs(1), SimDuration::from_secs(2));
    let legacy = sim(ObsConfig::metrics_only()).run_measured(warmup, measure);
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.obs = ObsConfig::metrics_only();
    let (snap, make) = general_workload(48);
    let sharded =
        ShardedSimulation::new(cfg, 2, Some(1), snap, &make).run_measured(warmup, measure);
    for (engine, samples, export) in [
        ("legacy", &legacy.samples, legacy.obs.as_ref()),
        ("sharded", &sharded.samples, sharded.obs.as_ref()),
    ] {
        assert_eq!(samples.fields(), FIELDS, "{engine}: sample fields");
        assert!(samples.len() >= 2, "{engine}: a row per sample tick");
        let export = export.expect("metrics on");
        assert_eq!(export.snapshots_jsonl, samples.to_jsonl(), "{engine}: the snapshot export");
    }
}

/// Pulls the `"per_mds":[…]` array out of a metrics JSONL line.
fn parse_per_mds(line: &str) -> Vec<u64> {
    let start = line.find("\"per_mds\":[").expect("per_mds array") + "\"per_mds\":[".len();
    let end = start + line[start..].find(']').expect("array close");
    line[start..end].split(',').map(|v| v.parse().expect("integer slot")).collect()
}

/// The `simulate` runs whose obs exports are pinned under
/// `tests/golden/obs/<run>/`. Legacy engine: CI's fault-determinism run
/// (churn, disk and network faults, op-trace spans on) and a run with
/// every optional subsystem that has obs counters (a 2-proxy tier,
/// shared writes, leases, dynamic directory hashing). Sharded engine:
/// CI's shard-count fault storm at four shards (churn, disk and network
/// faults) and its hotspot-smoke run (balancer and proxy flush; 14 s,
/// so heartbeats after the first hot-item announcement flush). The
/// sharded elastic golden is a library run, [`regenerate_elastic_row`].
const GOLDEN_OBS_RUNS: &[(&str, &[&str])] = &[
    (
        "fault_storm",
        &[
            "--mds", "4", "--clients", "24", "--items", "8000", "--seconds", "8", "--warmup", "2",
            "--faults",
            "churn:mtbf=4s,mttr=1s,seed=9,until=10s,nodes=1-3;disk:lat=3x,err=0.01@2s..6s;net:loss=0.02,dup=0.01@3s..8s",
            "--obs-trace",
        ],
    ),
    (
        "proxy_tier",
        &[
            "--mds", "4", "--clients", "24", "--items", "4000", "--seconds", "8", "--warmup", "2",
            "--proxy", "2", "--shared-writes", "--leases", "--dir-hash", "32", "--obs",
        ],
    ),
    (
        "sharded_faults",
        &[
            "--shards", "4", "--mds", "4", "--clients", "24", "--items", "6000", "--seconds", "6",
            "--warmup", "2", "--leases", "--faults",
            "churn:mtbf=5s,mttr=1s,seed=9,until=8s,nodes=2-3;disk:lat=3x,err=0.01@2s..5s;net:loss=0.02@3s..7s",
            "--obs",
        ],
    ),
    (
        "sharded_proxy",
        &[
            "--shards", "4", "--proxy", "2", "--mds", "6", "--clients", "36", "--items", "9000",
            "--seconds", "14", "--warmup", "2", "--obs",
        ],
    ),
];

/// Span traces larger than this are pinned by their 64-bit FNV-1a digest
/// (`obs_trace.fnv64`) instead of verbatim.
const TRACE_VERBATIM_MAX: usize = 64 * 1024;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Runs `simulate` with `args`, writing every pinned export into `out`:
/// the metrics and snapshot JSONL, `summary.txt` and the span trace or
/// its digest. `summary.txt` is what `simulate` prints last: the legacy
/// engine's observability summary, or the sharded engine's report
/// followed by the same obs summary.
fn regenerate_obs_run(args: &[&str], out: &Path) {
    let _ = std::fs::remove_dir_all(out);
    std::fs::create_dir_all(out).expect("create output dir");
    let run = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .arg("--obs-out")
        .arg(out)
        .output()
        .expect("spawn simulate");
    assert!(run.status.success(), "simulate failed: {}", String::from_utf8_lossy(&run.stderr));
    let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
    let at = ["# observability summary", "=== sharded"]
        .iter()
        .filter_map(|marker| stdout.find(marker))
        .min()
        .expect("obs summary or sharded report in stdout");
    std::fs::write(out.join("summary.txt"), &stdout[at..]).expect("write summary");
    let trace = out.join("obs_trace.jsonl");
    if let Ok(bytes) = std::fs::read(&trace) {
        if bytes.len() > TRACE_VERBATIM_MAX {
            std::fs::write(out.join("obs_trace.fnv64"), format!("{:016x}\n", fnv64(&bytes)))
                .expect("write trace digest");
            std::fs::remove_file(&trace).expect("drop oversized trace");
        }
    }
}

/// The elastic row of the quick elasticity figure at four shards with
/// metrics on, written as [`regenerate_obs_run`] writes a sharded run.
/// `simulate`'s sizings stay below the controller's watermarks, so its
/// elastic runs never scale; this row does.
fn regenerate_elastic_row(out: &Path) {
    let _ = std::fs::remove_dir_all(out);
    std::fs::create_dir_all(out).expect("create output dir");
    dynmds::harness::parallel::install_shard_driver();
    let scale = ExperimentScale::Quick;
    let mut cfg = elasticity_config(StrategyKind::ElasticSubtree, scale);
    cfg.obs = ObsConfig::metrics_only();
    let report = run_diurnal(cfg, scale, 4, Some(2));
    let export = report.obs.as_ref().expect("metrics on");
    std::fs::write(out.join("obs_metrics.jsonl"), &export.metrics_jsonl).expect("write metrics");
    std::fs::write(out.join("obs_snapshots.jsonl"), &export.snapshots_jsonl)
        .expect("write snapshots");
    std::fs::write(out.join("summary.txt"), format!("{}\n{}\n", report.render(), export.summary))
        .expect("write summary");
}

/// The two sharded goldens that pin a controller must show it acting:
/// proxy flushes delivered, or elastic scale actions taken. A golden of
/// an idle controller pins nothing of its path.
fn assert_controller_acted(run: &str, summary: &str) {
    let count_after = |label: &str| -> u64 {
        let at = summary.find(label).unwrap_or_else(|| panic!("{run}: no `{label}` in summary"));
        let digits: String = summary[at + label.len()..]
            .chars()
            .skip_while(|c| *c == ' ')
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap_or_else(|e| panic!("{run}: `{label}` count: {e}"))
    };
    match run {
        "sharded_proxy" => assert!(count_after("flushed") > 0, "{run}: no proxy flush"),
        "sharded_elastic" => assert!(
            count_after("scale-outs") + count_after("scale-ins") > 0,
            "{run}: the controller never scaled"
        ),
        _ => {}
    }
}

#[test]
fn obs_exports_match_golden() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut mismatched = Vec::new();
    let runs = GOLDEN_OBS_RUNS.iter().map(|&(run, args)| (run, Some(args)));
    for (run, args) in runs.chain([("sharded_elastic", None)]) {
        let golden = Path::new(root).join("tests/golden/obs").join(run);
        let actual = Path::new(root).join("target/golden-actual/obs").join(run);
        match args {
            Some(args) => regenerate_obs_run(args, &actual),
            None => regenerate_elastic_row(&actual),
        }
        let summary = std::fs::read_to_string(actual.join("summary.txt")).expect("read summary");
        assert_controller_acted(run, &summary);
        let mut files: Vec<String> = std::fs::read_dir(&actual)
            .expect("list regenerated exports")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut pinned: Vec<String> = std::fs::read_dir(&golden)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.display()))
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        pinned.sort();
        assert_eq!(pinned, files, "{run}: pinned and regenerated file sets differ");
        for f in files {
            let want = std::fs::read(golden.join(&f)).expect("read golden");
            let got = std::fs::read(actual.join(&f)).expect("read regenerated");
            if want != got {
                mismatched.push(format!(
                    "diff -u {} {}",
                    golden.join(&f).display(),
                    actual.join(&f).display()
                ));
            }
        }
    }
    assert!(
        mismatched.is_empty(),
        "obs exports drifted from their goldens:\n{}",
        mismatched.join("\n")
    );
}
