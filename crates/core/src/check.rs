//! Deterministic-simulation-testing probe (DST hooks).
//!
//! A [`DstProbe`] is an optional recorder the cluster carries only when a
//! DST harness asks for it ([`Cluster::enable_dst_probe`]). It taps three
//! things the reference-model oracle in `dynmds-dst` needs but cannot see
//! from outside:
//!
//! 1. the **applied-op log** — every mutation the cluster actually applied
//!    (or rejected), in application order, with the primary inode it
//!    touched. The oracle replays this stream against a flat, strategy-
//!    agnostic model filesystem and diffs the results at checkpoints;
//! 2. **per-logical-op protocol invariants** — within one client
//!    operation (Issue → terminal Reply) the forwarding hop count must be
//!    non-decreasing and bounded, the retry count must be non-decreasing,
//!    and a give-up must happen after *exactly* the configured budget.
//!    These catch exactly the class of bug PR 3 fixed by hand (a retry
//!    path silently resetting `hops`);
//! 3. a violation list, drained by the harness alongside the log.
//!
//! Like the span hooks of [`ClusterObs`](crate::obs::ClusterObs), the
//! disabled path costs a single branch per hook site, and the probe never
//! influences simulation behaviour — it only observes. Unlike the obs
//! export, whose counters are read from the engine when the run ends,
//! the probe records what the engine keeps no copy of.
//!
//! [`Cluster::enable_dst_probe`]: crate::cluster::Cluster::enable_dst_probe

use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, InodeId, MdsId};
use dynmds_workload::Op;

/// One entry of the applied-op log: what `apply_update` did.
#[derive(Clone, Debug)]
pub struct AppliedOp {
    /// Virtual time of application.
    pub at: SimTime,
    /// Node that applied it.
    pub mds: MdsId,
    /// Issuing client.
    pub client: ClientId,
    /// Credential the op ran under.
    pub uid: u32,
    /// The operation itself.
    pub op: Op,
    /// Whether the namespace accepted the mutation (`false` = error
    /// reply, nothing committed).
    pub applied: bool,
    /// The primary inode the mutation touched: the created id for
    /// `Create`/`Mkdir`, the dentry's id for `Unlink`/`Rename`, the
    /// target for the rest. `None` when the op failed.
    pub primary: Option<InodeId>,
    /// Whether the op was absorbed as a replica shared write (§4.2)
    /// instead of applied at the authority.
    pub shared_absorbed: bool,
}

/// One entry of the probe's record stream, in decision order. Mutations
/// and proxy-absorbed answers share one log so the oracle can check each
/// proxy serve against the model state *at the instant the proxy decided
/// to answer* (the proxy's linearization point).
#[derive(Clone, Debug)]
pub enum DstRecord {
    /// `apply_update` ran for a mutation.
    Applied(AppliedOp),
    /// A proxy answered a lookup negatively from its cache; the model
    /// must agree the name is absent right now.
    ProxyNegServe {
        /// When the proxy decided.
        at: SimTime,
        /// The asking client.
        client: ClientId,
        /// Directory searched.
        dir: InodeId,
        /// Name the proxy claims is absent.
        name: String,
    },
    /// A proxy answered a read of `item` from its cache; the model must
    /// agree the inode is alive.
    ProxyReadServe {
        /// When the proxy decided.
        at: SimTime,
        /// The asking client.
        client: ClientId,
        /// Item served from the proxy cache.
        item: InodeId,
    },
}

/// Per-client state of the current logical operation.
#[derive(Clone, Copy, Debug, Default)]
struct Flight {
    /// Highest hop count observed at any arrival of this logical op.
    hops_seen: u8,
    /// Highest retry count observed.
    retries_seen: u8,
    /// Forwards performed within this logical op.
    forwards: u8,
}

/// The recorder. See module docs.
#[derive(Debug, Default)]
pub struct DstProbe {
    flights: Vec<Flight>,
    /// Record stream since the last [`take_records`](Self::take_records).
    applied: Vec<DstRecord>,
    /// Invariant violations since the last drain, in detection order.
    violations: Vec<String>,
    /// Lifetime count of applied-op records (survives drains).
    pub applied_total: u64,
}

impl DstProbe {
    /// A probe for `n_clients` clients.
    pub fn new(n_clients: usize) -> Self {
        DstProbe { flights: vec![Flight::default(); n_clients], ..Default::default() }
    }

    /// Drains the record stream (decision order).
    pub fn take_records(&mut self) -> Vec<DstRecord> {
        std::mem::take(&mut self.applied)
    }

    /// Drains the violation list.
    pub fn take_violations(&mut self) -> Vec<String> {
        std::mem::take(&mut self.violations)
    }

    // ---- hook points (called by the cluster) -------------------------

    /// A client issued a fresh logical op: reset its flight state. The
    /// closed loop guarantees at most one in-flight op per client.
    pub(crate) fn on_issue(&mut self, client: ClientId) {
        if let Some(f) = self.flights.get_mut(client.index()) {
            *f = Flight::default();
        }
    }

    /// A request arrived at a node (dead or alive).
    pub(crate) fn on_arrive(&mut self, now: SimTime, client: ClientId, hops: u8, retries: u8) {
        let Some(f) = self.flights.get_mut(client.index()) else { return };
        if hops < f.hops_seen {
            self.violations.push(format!(
                "client {} at {}us: forwarding hops went backwards ({} after {})",
                client.0,
                now.as_micros(),
                hops,
                f.hops_seen
            ));
        }
        if hops > 3 {
            self.violations.push(format!(
                "client {} at {}us: hop count {} exceeds the forwarding bound of 3",
                client.0,
                now.as_micros(),
                hops
            ));
        }
        if retries < f.retries_seen {
            self.violations.push(format!(
                "client {} at {}us: retry count went backwards ({} after {})",
                client.0,
                now.as_micros(),
                retries,
                f.retries_seen
            ));
        }
        f.hops_seen = f.hops_seen.max(hops);
        f.retries_seen = f.retries_seen.max(retries);
    }

    /// A node forwarded the request onward.
    pub(crate) fn on_forward(&mut self, now: SimTime, client: ClientId) {
        let Some(f) = self.flights.get_mut(client.index()) else { return };
        f.forwards = f.forwards.saturating_add(1);
        if f.forwards > 3 {
            self.violations.push(format!(
                "client {} at {}us: {} forwards within one logical op (bound is 3)",
                client.0,
                now.as_micros(),
                f.forwards
            ));
        }
    }

    /// The client abandoned the op. `retries` is the just-incremented
    /// count; it must equal `max_retries + 1` — giving up earlier means
    /// the budget was short-circuited, later means it leaked.
    pub(crate) fn on_gave_up(&mut self, now: SimTime, client: ClientId, retries: u8, max: u8) {
        if retries != max.saturating_add(1) {
            self.violations.push(format!(
                "client {} at {}us: gave up at retry {} (budget is exactly {})",
                client.0,
                now.as_micros(),
                retries,
                max
            ));
        }
    }

    /// `apply_update` finished for an update op.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_applied(
        &mut self,
        at: SimTime,
        mds: MdsId,
        client: ClientId,
        uid: u32,
        op: &Op,
        applied: bool,
        primary: Option<InodeId>,
        shared_absorbed: bool,
    ) {
        self.applied_total += 1;
        self.applied.push(DstRecord::Applied(AppliedOp {
            at,
            mds,
            client,
            uid,
            op: op.clone(),
            applied,
            primary,
            shared_absorbed,
        }));
    }

    /// A proxy is about to answer an op from its own caches. Hop
    /// accounting invariant: an absorbed op never entered the cluster, so
    /// its flight must show zero arrivals-with-hops and zero forwards.
    fn check_proxy_flight(&mut self, now: SimTime, client: ClientId, what: &str) {
        let Some(f) = self.flights.get(client.index()) else { return };
        if f.hops_seen != 0 || f.forwards != 0 {
            self.violations.push(format!(
                "client {} at {}us: proxy {} absorbed an op that already entered \
                 the cluster ({} hops, {} forwards)",
                client.0,
                now.as_micros(),
                what,
                f.hops_seen,
                f.forwards
            ));
        }
    }

    /// A proxy served a negative lookup from its cache.
    pub(crate) fn on_proxy_neg_serve(
        &mut self,
        now: SimTime,
        client: ClientId,
        dir: InodeId,
        name: &str,
    ) {
        self.check_proxy_flight(now, client, "neg-lookup");
        self.applied.push(DstRecord::ProxyNegServe { at: now, client, dir, name: name.to_owned() });
    }

    /// A proxy served a read from its cache.
    pub(crate) fn on_proxy_read_serve(&mut self, now: SimTime, client: ClientId, item: InodeId) {
        self.check_proxy_flight(now, client, "read");
        self.applied.push(DstRecord::ProxyReadServe { at: now, client, item });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_regression_is_flagged() {
        let mut p = DstProbe::new(2);
        p.on_issue(ClientId(0));
        p.on_arrive(SimTime::from_micros(1), ClientId(0), 1, 0);
        p.on_arrive(SimTime::from_micros(2), ClientId(0), 0, 1);
        let v = p.take_violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("hops went backwards"), "{}", v[0]);
        assert!(p.take_violations().is_empty(), "drained");
    }

    #[test]
    fn fresh_issue_resets_the_flight() {
        let mut p = DstProbe::new(1);
        p.on_issue(ClientId(0));
        p.on_arrive(SimTime::from_micros(1), ClientId(0), 2, 3);
        p.on_issue(ClientId(0));
        p.on_arrive(SimTime::from_micros(2), ClientId(0), 0, 0);
        assert!(p.take_violations().is_empty(), "new logical op starts clean");
    }

    #[test]
    fn exact_give_up_budget_is_enforced() {
        let mut p = DstProbe::new(1);
        p.on_gave_up(SimTime::ZERO, ClientId(0), 7, 6);
        assert!(p.take_violations().is_empty(), "7 = 6 + 1 is the exact budget");
        p.on_gave_up(SimTime::ZERO, ClientId(0), 3, 6);
        assert_eq!(p.take_violations().len(), 1, "early give-up is a bug");
    }

    #[test]
    fn applied_log_drains_in_order() {
        let mut p = DstProbe::new(1);
        for i in 0..3u64 {
            p.on_applied(
                SimTime::from_micros(i),
                MdsId(0),
                ClientId(0),
                0,
                &Op::SetAttr(InodeId(i)),
                true,
                Some(InodeId(i)),
                false,
            );
        }
        let log = p.take_records();
        assert_eq!(log.len(), 3);
        let ats: Vec<SimTime> = log
            .iter()
            .map(|r| match r {
                DstRecord::Applied(a) => a.at,
                other => panic!("expected Applied, got {other:?}"),
            })
            .collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p.applied_total, 3);
        assert!(p.take_records().is_empty());
    }

    #[test]
    fn proxy_absorb_after_cluster_entry_is_flagged() {
        let mut p = DstProbe::new(1);
        p.on_issue(ClientId(0));
        p.on_proxy_neg_serve(SimTime::from_micros(1), ClientId(0), InodeId(4), "x");
        assert!(p.take_violations().is_empty(), "fresh flight may absorb");
        p.on_issue(ClientId(0));
        p.on_arrive(SimTime::from_micros(2), ClientId(0), 1, 0);
        p.on_proxy_read_serve(SimTime::from_micros(3), ClientId(0), InodeId(4));
        let v = p.take_violations();
        assert_eq!(v.len(), 1, "op already inside the cluster must not be absorbed");
        assert!(v[0].contains("proxy read absorbed"), "{}", v[0]);
        let recs = p.take_records();
        assert!(matches!(recs[0], DstRecord::ProxyNegServe { .. }));
        assert!(matches!(recs[1], DstRecord::ProxyReadServe { .. }));
    }
}
