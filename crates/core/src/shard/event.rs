//! Sharded-engine events, their canonical order, and cross-shard mail.

use std::sync::{Mutex, MutexGuard};

use dynmds_namespace::{ClientId, InodeId, MdsId};

/// One sharded-engine event. Cross-entity variants carry `(src, seq)` —
/// a sender rank plus the sender's private send counter — the
/// K-independent part of the canonical ordering key.
#[derive(Clone, Debug)]
pub(super) enum Ev {
    /// A client issues (or re-issues) its next operation.
    Issue(ClientId),
    /// Retry wakeup after a lost request/reply; stale once the client
    /// has moved past `op_seq`.
    Retry { client: ClientId, op_seq: u32 },
    /// A request arrives at a node. `hop` > 0 marks an intra-cluster
    /// forward (already counted at the first receiver).
    Request {
        node: MdsId,
        client: ClientId,
        op_seq: u32,
        item: InodeId,
        write: bool,
        hop: u8,
        src: u64,
        seq: u64,
    },
    /// A reply (or, unless `status` is [`Status::Ok`], the simulator's
    /// omniscient timeout notification) arrives at a client. `from_proxy`
    /// marks answers absorbed at a proxy (no route or lease learned).
    Reply {
        client: ClientId,
        op_seq: u32,
        item: InodeId,
        server: MdsId,
        lease_until: u64,
        status: Status,
        from_proxy: bool,
        src: u64,
        seq: u64,
    },
    /// A hot-item op arrives at proxy `p` (hotspot proxy tier).
    PReq { p: u16, client: ClientId, op_seq: u32, item: InodeId, write: bool, src: u64, seq: u64 },
    /// A coalesced write delta arrives at the authority from a proxy
    /// (heartbeat flush).
    Coalesced { node: MdsId, item: InodeId, delta: u64, src: u64, seq: u64 },
}

/// What became of a request, as its reply tells the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Status {
    /// Served: the reply carries the answer.
    Ok,
    /// The network lost the reply.
    Lost,
    /// The server was dead: the request timed out against it.
    Dead,
}

/// Sender ranks: nodes order before clients, clients before proxies,
/// each by id.
pub(super) fn node_rank(m: MdsId) -> u64 {
    m.0 as u64
}
pub(super) fn client_rank(c: ClientId) -> u64 {
    (1 << 32) | c.0 as u64
}
pub(super) fn proxy_rank(p: u16) -> u64 {
    (2 << 32) | p as u64
}

/// Canonical same-timestamp ordering key — a pure function of the event
/// content, never of queue insertion order, so it is identical for every
/// shard count. `Coalesced` shares the node-inbound class with `Request`
/// (per-source send sequences keep the pairs totally ordered).
pub(super) fn canonical_key(ev: &Ev) -> (u8, u64, u64, u64) {
    match ev {
        Ev::Request { node, src, seq, .. } => (0, node.0 as u64, *src, *seq),
        Ev::Coalesced { node, src, seq, .. } => (0, node.0 as u64, *src, *seq),
        Ev::Reply { client, src, seq, .. } => (1, client.0 as u64, *src, *seq),
        Ev::Retry { client, op_seq } => (2, client.0 as u64, *op_seq as u64, 0),
        Ev::Issue(c) => (3, c.0 as u64, 0, 0),
        Ev::PReq { p, src, seq, .. } => (4, proxy_rank(*p), *src, *seq),
    }
}

/// An outbox entry: the event plus its send time; delivery is at
/// `send + net_hop`.
pub(super) struct OutMsg {
    pub(super) send: u64,
    pub(super) ev: Ev,
}

/// Mail in flight between shards, one cell per `[parity][src][dst]`,
/// where parity is that of the pooled window the mail was sent in. A
/// cell is filled by `src` at the end of one pooled window step and
/// drained by `dst` before or at the start of the next executed window,
/// whose senders, if it is pooled, fill the cells of the other parity,
/// so the two sides never touch a cell at the same time and its lock is
/// never contended. Only pairs with mail touch a cell, once per window;
/// inline windows touch none.
pub(super) struct Mail {
    k: usize,
    cells: Vec<Mutex<Vec<OutMsg>>>,
}

impl Mail {
    pub(super) fn new(k: usize) -> Self {
        Mail { k, cells: (0..2 * k * k).map(|_| Mutex::new(Vec::new())).collect() }
    }

    pub(super) fn cell(
        &self,
        parity: usize,
        src: usize,
        dst: usize,
    ) -> MutexGuard<'_, Vec<OutMsg>> {
        self.cells[(parity * self.k + src) * self.k + dst]
            .lock()
            .expect("a shard step panicked while holding this mail cell")
    }
}
