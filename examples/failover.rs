//! Failover demo (§2.1.2 / §4.6): kill a metadata server mid-run, watch
//! the survivors take over its subtrees and warm their caches from the
//! shared journal, then bring it back and watch the balancer re-integrate
//! it.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use dynmds::core::{FaultEvent, SimConfig, Simulation};
use dynmds::event::{SimDuration, SimTime};
use dynmds::metrics::AsciiChart;
use dynmds::namespace::{MdsId, NamespaceSpec};
use dynmds::partition::StrategyKind;
use dynmds::workload::{GeneralWorkload, WorkloadConfig};

const FAIL_AT: u64 = 10;
const RECOVER_AT: u64 = 25;
const END: u64 = 45;
const VICTIM: MdsId = MdsId(1);

fn main() {
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = 4;
    cfg.n_clients = 48;
    cfg.seed = 31;
    cfg.faults.events = vec![
        FaultEvent::Crash { at: SimTime::from_secs(FAIL_AT), mds: VICTIM },
        FaultEvent::Recover { at: SimTime::from_secs(RECOVER_AT), mds: VICTIM },
    ];
    let snapshot = NamespaceSpec::with_target_items(48, 12_000, 8).generate();
    let workload = Box::new(GeneralWorkload::new(
        WorkloadConfig { seed: 32, ..Default::default() },
        48,
        &snapshot.user_homes,
        &snapshot.shared_roots,
        &snapshot.ns,
    ));
    let mut sim = Simulation::new(cfg, snapshot, workload);

    println!(
        "4-node cluster, 48 clients; {VICTIM} dies at t={FAIL_AT}s and returns at t={RECOVER_AT}s\n"
    );
    sim.run_until(SimTime::from_secs(END));
    let cluster = sim.cluster();
    println!(
        "failures: {}  recoveries: {}",
        cluster.counters.failures, cluster.counters.recoveries
    );
    println!(
        "requests that timed out against the dead node: {}",
        cluster.counters.failover_timeouts
    );
    println!(
        "recovered node cache after journal warm-up: {} items\n",
        cluster.nodes[VICTIM.index()].cache.len()
    );

    let report = sim.finish();
    let bin = SimDuration::from_secs(1);
    let (mut victim, mut others) = (vec![0u64; END as usize], vec![0u64; END as usize]);
    for (t, served) in report.samples.field_rows("served") {
        let k = (t / bin.as_micros()) as usize;
        if k < END as usize {
            for (i, &v) in served.iter().enumerate() {
                if i == VICTIM.index() {
                    victim[k] += v;
                } else {
                    others[k] += v;
                }
            }
        }
    }
    let victim_pts: Vec<(f64, f64)> =
        victim.into_iter().enumerate().map(|(k, v)| (k as f64, v as f64)).collect();
    let others_pts: Vec<(f64, f64)> =
        others.into_iter().enumerate().map(|(k, v)| (k as f64, v as f64 / 3.0)).collect();

    let mut chart =
        AsciiChart::new("ops/s over time — v = victim node, s = survivors (avg)", 72, 14);
    chart.series('s', &others_pts);
    chart.series('v', &victim_pts);
    println!("{}", chart.render());
    println!(
        "The victim's throughput collapses to zero at t={FAIL_AT}s while survivors\n\
         absorb its subtrees (warmed from the shared journal, §4.6); after the\n\
         recovery at t={RECOVER_AT}s the balancer migrates load back."
    );
}
