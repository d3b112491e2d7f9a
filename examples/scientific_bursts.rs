//! Scientific-computing workload demo (§5.2): LLNL-style synchronized
//! bursts — all clients opening the same checkpoint file, then all
//! creating files in the same directory — interleaved with independent
//! analysis phases. Shows how the burst phases concentrate (and, with
//! traffic control, re-spread) load.
//!
//! ```text
//! cargo run --release --example scientific_bursts
//! ```

use dynmds::core::{SimConfig, Simulation};
use dynmds::event::{SimDuration, SimTime};
use dynmds::metrics::AsciiChart;
use dynmds::namespace::NamespaceSpec;
use dynmds::partition::StrategyKind;
use dynmds::workload::ScientificWorkload;

const N_MDS: u16 = 6;
const N_CLIENTS: u32 = 72;
const PERIOD_S: u64 = 8;
const BURST_S: u64 = 2;
const END_S: u64 = 40;

fn main() {
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = N_MDS;
    cfg.n_clients = N_CLIENTS;
    cfg.cache_capacity = 2_500;
    cfg.replication_threshold = 48.0;
    cfg.seed = 23;

    let snapshot = NamespaceSpec {
        users: N_CLIENTS as usize / 2,
        shared_trees: 6,
        seed: 17,
        ..Default::default()
    }
    .generate();
    let shared_dirs: Vec<_> = snapshot
        .shared_roots
        .iter()
        .flat_map(|&r| snapshot.ns.walk(r).filter(|&i| snapshot.ns.is_dir(i)).take(3))
        .collect();
    println!(
        "{N_CLIENTS} compute clients on {N_MDS} MDS nodes; every {PERIOD_S}s a {BURST_S}s burst\n\
         alternates between N-to-1 checkpoint opens and same-directory create storms.\n"
    );
    let workload = Box::new(ScientificWorkload::new(
        29,
        N_CLIENTS as usize,
        &snapshot.user_homes,
        &shared_dirs,
        SimDuration::from_secs(PERIOD_S),
        SimDuration::from_secs(BURST_S),
    ));
    let mut sim = Simulation::new(cfg, snapshot, workload);
    sim.run_until(SimTime::from_secs(END_S));
    let replicated = sim.cluster().view().replicated.len();
    let report = sim.finish();

    // Cluster-wide throughput over time: bursts show as spikes.
    let bin = SimDuration::from_millis(500);
    let pts: Vec<(f64, f64)> = {
        let mut acc = vec![0u64; (END_S * 2) as usize];
        for (t, served) in report.samples.field_rows("served") {
            if let Some(a) = acc.get_mut((t / bin.as_micros()) as usize) {
                *a += served.iter().sum::<u64>();
            }
        }
        // Per-second rate.
        acc.into_iter().enumerate().map(|(k, v)| (k as f64 / 2.0, v as f64 * 2.0)).collect()
    };
    let mut chart = AsciiChart::new("cluster ops/s over time (bursts every 8s)", 76, 12);
    chart.series('*', &pts);
    println!("{}", chart.render());

    println!(
        "burst targets replicated by traffic control : {replicated}\n\
         total ops served                             : {}\n\
         mean latency {:.2} ms, p99 {:.2} ms",
        report.total_served(),
        report.latency.mean().unwrap_or(0.0) * 1e3,
        report.latency.quantile(0.99).unwrap_or(0.0) * 1e3,
    );
    println!(
        "\nThe open-bursts hammer one file: traffic control replicates it and the\n\
         whole cluster answers. The create-bursts hammer one directory: those are\n\
         writes, so they serialize at its authority — the case §4.3's dynamic\n\
         directory hashing (see `experiments ablate-dirhash`) exists for."
    );
}
