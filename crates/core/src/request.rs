//! Events flowing through the simulation engine.

use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, MdsId};
use dynmds_workload::Op;

use crate::fault::FaultStep;

/// One in-flight client request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Issuing client.
    pub client: ClientId,
    /// Credential the permission checks run against.
    pub uid: u32,
    /// The metadata operation.
    pub op: Op,
    /// When the client sent it (for latency accounting).
    pub issued_at: SimTime,
    /// How many times it has been forwarded within the cluster.
    pub hops: u8,
    /// How many times the client has re-driven it after a dead-node
    /// timeout or a lost message (bounded by the retry policy).
    pub retries: u8,
    /// Whether a proxy relayed this request into the cluster (the reply
    /// then teaches the proxy's caches instead of the client's routes).
    pub via_proxy: bool,
}

/// The simulator's event alphabet.
#[derive(Clone, Debug)]
pub enum SimEvent {
    /// A client wakes up, generates its next op, and sends it.
    Issue(ClientId),
    /// A request arrives at an MDS (after network latency).
    Arrive {
        /// Receiving server.
        mds: MdsId,
        /// The request.
        req: Request,
    },
    /// A reply reaches its client; the client will think, then issue.
    Reply {
        /// The client.
        client: ClientId,
    },
    /// Load-balancer heartbeat (§4.3).
    Heartbeat,
    /// Metrics sampling tick.
    Sample,
    /// Fault injection: one step of the run's fault schedule — a crash
    /// (§2.1.2), a recovery warm from the journal (§4.6), or a disk or
    /// network window opening or closing.
    Fault(FaultStep),
    /// A duplicated request delivery: the server burns CPU discarding it
    /// (the original carries the real work).
    NetDup {
        /// Receiving server.
        mds: MdsId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::InodeId;

    #[test]
    fn request_carries_context() {
        let r = Request {
            client: ClientId(3),
            uid: 4,
            op: Op::Stat(InodeId(9)),
            issued_at: SimTime::from_micros(12),
            hops: 0,
            retries: 0,
            via_proxy: false,
        };
        assert_eq!(r.op.target(), InodeId(9));
        assert_eq!(r.client, ClientId(3));
    }
}
