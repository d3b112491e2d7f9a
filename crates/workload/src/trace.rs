//! Workload traces: record any workload's operation stream and replay it
//! later.
//!
//! The paper's future work calls for "the use of actual workload traces
//! with matching file system metadata snapshots". This module provides the
//! machinery: a [`TraceRecorder`] wraps any [`Workload`] and logs each
//! generated operation; the resulting [`Trace`] replays deterministically
//! via [`TraceReplay`] against the *same* snapshot (pair a trace with its
//! snapshot seed, as the paper prescribes).

use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, Namespace};

use crate::ops::Op;
use crate::Workload;

/// One recorded operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Which client issued it.
    pub client: u32,
    /// Virtual time of generation, microseconds.
    pub at_us: u64,
    /// The operation.
    pub op: Op,
}

/// A recorded operation stream plus the snapshot seed it was captured
/// against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Seed of the `NamespaceSpec` the trace is valid against.
    pub snapshot_seed: u64,
    /// Clients the original workload drove.
    pub n_clients: u32,
    /// The records, in generation order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Wraps a workload, recording everything it generates.
pub struct TraceRecorder<W: Workload> {
    inner: W,
    trace: Trace,
}

impl<W: Workload> TraceRecorder<W> {
    /// Starts recording `inner`; `snapshot_seed` documents the snapshot
    /// this trace pairs with.
    pub fn new(inner: W, snapshot_seed: u64) -> Self {
        let n_clients = inner.clients() as u32;
        TraceRecorder { inner, trace: Trace { snapshot_seed, n_clients, records: Vec::new() } }
    }

    /// Finishes recording, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl<W: Workload> Workload for TraceRecorder<W> {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        let op = self.inner.next_op(ns, client, now);
        self.trace.records.push(TraceRecord {
            client: client.0,
            at_us: now.as_micros(),
            op: op.clone(),
        });
        op
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }
}

/// Replays a [`Trace`]: each client consumes its own records in order.
/// When a client exhausts its records the replay falls back to re-statting
/// its last target (an idle tail), so the simulator's closed loop stays
/// well-formed.
pub struct TraceReplay {
    per_client: Vec<Vec<Op>>,
    cursor: Vec<usize>,
    uids: Vec<u32>,
}

impl TraceReplay {
    /// Builds a replayer. `uids` may be empty (all clients uid 0) or one
    /// entry per client.
    pub fn new(trace: &Trace, uids: Vec<u32>) -> Self {
        let n = trace.n_clients as usize;
        assert!(uids.is_empty() || uids.len() == n, "uid table arity");
        let mut per_client: Vec<Vec<Op>> = vec![Vec::new(); n];
        for rec in &trace.records {
            per_client[rec.client as usize].push(rec.op.clone());
        }
        TraceReplay { per_client, cursor: vec![0; n], uids }
    }

    /// Records remaining for `client`.
    pub fn remaining(&self, client: ClientId) -> usize {
        self.per_client[client.index()].len()
            - self.cursor[client.index()].min(self.per_client[client.index()].len())
    }
}

impl Workload for TraceReplay {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, _now: SimTime) -> Op {
        let i = client.index();
        let ops = &self.per_client[i];
        if self.cursor[i] < ops.len() {
            let op = ops[self.cursor[i]].clone();
            self.cursor[i] += 1;
            return op;
        }
        // Idle tail: re-stat the last valid target, or the root.
        let fallback =
            ops.iter().rev().map(|o| o.target()).find(|&t| ns.is_alive(t)).unwrap_or(ns.root());
        Op::Stat(fallback)
    }

    fn clients(&self) -> usize {
        self.per_client.len()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.uids.get(client.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::{GeneralWorkload, WorkloadConfig};
    use dynmds_namespace::NamespaceSpec;

    fn setup() -> (Namespace, GeneralWorkload) {
        let snap = NamespaceSpec { users: 6, seed: 3, ..Default::default() }.generate();
        let wl = GeneralWorkload::new(
            WorkloadConfig { seed: 4, ..Default::default() },
            6,
            &snap.user_homes,
            &snap.shared_roots,
            &snap.ns,
        );
        (snap.ns, wl)
    }

    #[test]
    fn recorder_captures_everything() {
        let (ns, wl) = setup();
        let mut rec = TraceRecorder::new(wl, 3);
        for i in 0..120u32 {
            rec.next_op(&ns, ClientId(i % 6), SimTime::from_micros(i as u64));
        }
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 120);
        assert_eq!(trace.snapshot_seed, 3);
        assert_eq!(trace.n_clients, 6);
        assert!(trace.records.iter().all(|r| r.client < 6));
    }

    #[test]
    fn replay_reproduces_the_recorded_stream() {
        let (ns, wl) = setup();
        let mut rec = TraceRecorder::new(wl, 3);
        let original: Vec<Op> = (0..100u32)
            .map(|i| rec.next_op(&ns, ClientId(i % 6), SimTime::from_micros(i as u64)))
            .collect();
        let trace = rec.into_trace();
        let mut replay = TraceReplay::new(&trace, vec![]);
        let replayed: Vec<Op> =
            (0..100u32).map(|i| replay.next_op(&ns, ClientId(i % 6), SimTime::ZERO)).collect();
        assert_eq!(original, replayed);
    }

    #[test]
    fn replay_falls_back_after_exhaustion() {
        let (ns, wl) = setup();
        let mut rec = TraceRecorder::new(wl, 3);
        rec.next_op(&ns, ClientId(0), SimTime::ZERO);
        let trace = rec.into_trace();
        let mut replay = TraceReplay::new(&trace, vec![]);
        replay.next_op(&ns, ClientId(0), SimTime::ZERO);
        // Exhausted: fallback stats keep coming.
        for _ in 0..5 {
            let op = replay.next_op(&ns, ClientId(0), SimTime::ZERO);
            assert!(matches!(op, Op::Stat(_)));
        }
        assert_eq!(replay.remaining(ClientId(0)), 0);
    }

    #[test]
    fn uids_replay_per_client() {
        let trace = Trace { snapshot_seed: 0, n_clients: 3, records: Vec::new() };
        let replay = TraceReplay::new(&trace, vec![7, 8, 9]);
        assert_eq!(replay.uid_of(ClientId(1)), 8);
        let replay0 = TraceReplay::new(&trace, vec![]);
        assert_eq!(replay0.uid_of(ClientId(1)), 0);
    }
}
