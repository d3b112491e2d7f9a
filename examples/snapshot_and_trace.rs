//! Snapshot + trace methodology demo (§5.2 / §7): generate a file-system
//! snapshot, record a workload trace against it, then replay the trace
//! over the snapshot rebuilt from the seed the trace carries, and verify
//! the simulated cluster behaves identically — the paper's prescription
//! that traces need "matching file system metadata snapshots". A snapshot
//! is its spec plus its seed.
//!
//! ```text
//! cargo run --release --example snapshot_and_trace
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use dynmds::core::{SimConfig, Simulation};
use dynmds::event::SimTime;
use dynmds::namespace::{ClientId, Namespace, NamespaceSpec, Snapshot};
use dynmds::partition::StrategyKind;
use dynmds::workload::{
    GeneralWorkload, Op, Trace, TraceRecorder, TraceReplay, Workload, WorkloadConfig,
};

const SNAPSHOT_SEED: u64 = 2026;
const CLIENTS: u32 = 24;

struct PublishingRecorder {
    inner: TraceRecorder<GeneralWorkload>,
    out: Rc<RefCell<Option<Trace>>>,
}

impl Drop for PublishingRecorder {
    fn drop(&mut self) {
        *self.out.borrow_mut() = Some(self.inner.trace().clone());
    }
}

impl Workload for PublishingRecorder {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        self.inner.next_op(ns, client, now)
    }
    fn clients(&self) -> usize {
        self.inner.clients()
    }
    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }
}

fn main() {
    // 1. Generate the snapshot.
    let snap = snapshot(SNAPSHOT_SEED);
    println!("snapshot: {} items from seed {SNAPSHOT_SEED}", snap.ns.total_items());

    // 2. Run a live simulation, recording the workload.
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_clients = CLIENTS;
    cfg.seed = 7;
    let uids: Vec<u32> = {
        let w = base_workload(&snap);
        (0..CLIENTS).map(|c| w.uid_of(ClientId(c))).collect()
    };
    let shared = Rc::new(RefCell::new(None));
    let recorder = PublishingRecorder {
        inner: TraceRecorder::new(base_workload(&snap), SNAPSHOT_SEED),
        out: shared.clone(),
    };
    let mut live = Simulation::new(cfg.clone(), snap, Box::new(recorder));
    live.run_until(SimTime::from_secs(8));
    let live_served: u64 = live.cluster().nodes.iter().map(|n| n.life.served).sum();
    let live_items = live.cluster().ns.total_items();
    drop(live);
    let trace = shared.borrow_mut().take().expect("trace published");
    println!(
        "live run : {} ops served, namespace grew to {} items, trace holds {} records",
        live_served,
        live_items,
        trace.len()
    );

    // 3. Rebuild the snapshot from the trace's seed and replay the trace.
    let rebuilt = snapshot(trace.snapshot_seed);
    let replay = Box::new(TraceReplay::new(&trace, uids));
    let mut replayed = Simulation::new(cfg, rebuilt, replay);
    replayed.run_until(SimTime::from_secs(8));
    let replay_served: u64 = replayed.cluster().nodes.iter().map(|n| n.life.served).sum();
    let replay_items = replayed.cluster().ns.total_items();
    println!("replay   : {replay_served} ops served, namespace grew to {replay_items} items");

    assert_eq!(live_served, replay_served, "replay must match the live run");
    assert_eq!(live_items, replay_items);
    println!("\nlive and replayed runs are identical — trace + snapshot round trip works.");
}

fn snapshot(seed: u64) -> Snapshot {
    NamespaceSpec::with_target_items(CLIENTS as usize, 8_000, seed).generate()
}

fn base_workload(snap: &Snapshot) -> GeneralWorkload {
    GeneralWorkload::new(
        WorkloadConfig { seed: 9, ..Default::default() },
        CLIENTS as usize,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    )
}
