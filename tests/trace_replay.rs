//! Integration test: record a workload from one simulation, replay it in a
//! fresh simulation over the same snapshot, and get the same system
//! behaviour — the paper's future-work methodology of trace-driven
//! evaluation, end to end.

use dynmds::core::{SimConfig, Simulation};
use dynmds::event::SimTime;
use dynmds::namespace::{ClientId, NamespaceSpec};
use dynmds::partition::StrategyKind;
use dynmds::workload::{GeneralWorkload, TraceRecorder, TraceReplay, WorkloadConfig};

const SNAPSHOT_SEED: u64 = 44;

fn config() -> SimConfig {
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = 4;
    cfg.n_clients = 16;
    cfg.seed = 45;
    cfg
}

fn snapshot() -> dynmds::namespace::Snapshot {
    NamespaceSpec::with_target_items(16, 5_000, SNAPSHOT_SEED).generate()
}

#[test]
fn recorded_trace_replays_to_identical_behaviour() {
    // Pass 1: live workload, recorded.
    let cfg = config();
    let snap = snapshot();
    let uids: Vec<u32> = {
        let base = GeneralWorkload::new(
            WorkloadConfig { seed: 46, ..Default::default() },
            16,
            &snap.user_homes,
            &snap.shared_roots,
            &snap.ns,
        );
        (0..16).map(|c| base.uid_of(ClientId(c))).collect()
    };
    let base = GeneralWorkload::new(
        WorkloadConfig { seed: 46, ..Default::default() },
        16,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    );
    let recorder = Box::new(TraceRecorder::new(base, SNAPSHOT_SEED));
    let mut sim = Simulation::new(cfg, snap, recorder);
    sim.run_until(SimTime::from_secs(6));
    let live_served: u64 = sim.cluster().nodes.iter().map(|n| n.life.served).sum();
    let live_items = sim.cluster().ns.total_items();
    // Recover a trace of the identical run: re-run it (determinism is
    // verified elsewhere) with a recorder that shares its trace out
    // through an Rc.
    let snap2 = snapshot();
    let base2 = GeneralWorkload::new(
        WorkloadConfig { seed: 46, ..Default::default() },
        16,
        &snap2.user_homes,
        &snap2.shared_roots,
        &snap2.ns,
    );
    let shared: std::rc::Rc<std::cell::RefCell<Option<dynmds::workload::Trace>>> =
        std::rc::Rc::new(std::cell::RefCell::new(None));
    let mut sim2 = Simulation::new(
        config(),
        snap2,
        Box::new(SharingRecorder {
            inner: TraceRecorder::new(base2, SNAPSHOT_SEED),
            out: shared.clone(),
        }),
    );
    sim2.run_until(SimTime::from_secs(6));
    drop(sim2);
    let trace = shared.borrow_mut().take().expect("recorder published its trace");
    assert!(trace.len() > 1_000, "trace captured the run");

    // Pass 2: replay the trace over a fresh identical snapshot.
    let snap3 = snapshot();
    let replay = Box::new(TraceReplay::new(&trace, uids));
    let mut sim3 = Simulation::new(config(), snap3, replay);
    sim3.run_until(SimTime::from_secs(6));
    let replay_served: u64 = sim3.cluster().nodes.iter().map(|n| n.life.served).sum();
    let replay_items = sim3.cluster().ns.total_items();

    assert_eq!(live_served, replay_served, "replay serves the same op count");
    assert_eq!(live_items, replay_items, "replay mutates the tree identically");
}

/// Adapter: owns the recorder inside the simulation's boxed workload but
/// publishes the captured trace through a shared cell on every op, so the
/// test can take it after the simulation is dropped.
struct SharingRecorder {
    inner: TraceRecorder<GeneralWorkload>,
    out: std::rc::Rc<std::cell::RefCell<Option<dynmds::workload::Trace>>>,
}

impl Drop for SharingRecorder {
    fn drop(&mut self) {
        *self.out.borrow_mut() = Some(self.inner.trace().clone());
    }
}

impl dynmds::workload::Workload for SharingRecorder {
    fn next_op(
        &mut self,
        ns: &dynmds::namespace::Namespace,
        client: ClientId,
        now: SimTime,
    ) -> dynmds::workload::Op {
        self.inner.next_op(ns, client, now)
    }
    fn clients(&self) -> usize {
        self.inner.clients()
    }
    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }
}

#[test]
fn trace_is_cloneable() {
    let snap = snapshot();
    let base = GeneralWorkload::new(
        WorkloadConfig { seed: 46, ..Default::default() },
        16,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    );
    let mut rec = TraceRecorder::new(base, SNAPSHOT_SEED);
    use dynmds::workload::Workload as _;
    for i in 0..200u32 {
        rec.next_op(&snap.ns, ClientId(i % 16), SimTime::from_micros(i as u64));
    }
    let trace = rec.into_trace();
    assert_eq!(trace.clone(), trace, "value semantics");
    assert_eq!(trace.len(), 200);
}
