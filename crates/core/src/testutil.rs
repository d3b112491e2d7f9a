//! Test support: tiny clusters built directly, without the event loop.

#![allow(missing_docs)]

use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, Namespace, NamespaceSpec, Snapshot};
use dynmds_partition::StrategyKind;
use dynmds_workload::{Op, Workload};

use crate::cluster::Cluster;
use crate::config::SimConfig;

/// A workload that stats the root forever — for tests that drive the
/// cluster by hand.
pub struct NullWorkload {
    pub n: usize,
}

impl Workload for NullWorkload {
    fn next_op(&mut self, ns: &Namespace, _client: ClientId, _now: SimTime) -> Op {
        Op::Stat(ns.root())
    }
    fn clients(&self) -> usize {
        self.n
    }
}

/// A small 4-node cluster over a deterministic snapshot.
pub fn tiny_cluster(strategy: StrategyKind) -> Cluster {
    tiny_cluster_with(strategy, |_| {})
}

/// [`tiny_cluster`] with `tweak` applied to its configuration.
pub fn tiny_cluster_with(strategy: StrategyKind, tweak: impl FnOnce(&mut SimConfig)) -> Cluster {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = 4;
    cfg.n_clients = 8;
    cfg.seed = 1;
    tweak(&mut cfg);
    let snap: Snapshot = NamespaceSpec { users: 8, seed: 2, ..Default::default() }.generate();
    Cluster::new(cfg, snap, Box::new(NullWorkload { n: 8 }))
}
