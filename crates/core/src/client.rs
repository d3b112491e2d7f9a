//! Client population and request routing (§4.4, §5.3.3).
//!
//! Clients cache *location information* — which servers to contact for
//! which parts of the hierarchy — learned from replies. A request is
//! directed by the **deepest known prefix** of its target; clients that
//! know nothing send to a random server and get forwarded ("their requests
//! must be directed randomly and forwarded within the MDS cluster").
//!
//! Under hashed strategies clients instead compute the placement function
//! themselves and always contact the mapped server directly — which is
//! exactly why those strategies cannot prevent flash crowds (§4.4).

use dynmds_event::SimRng;
use dynmds_namespace::{ClientId, FxHashMap, InodeId, MdsId, Namespace};

/// What a client believes about an item's location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnownLocation {
    /// Served by one authoritative node.
    Single(MdsId),
    /// Replicated on many/all nodes — contact anyone (traffic control).
    Everywhere,
}

/// Per-client location caches plus the routing logic.
pub struct ClientPool {
    routes: Vec<FxHashMap<InodeId, KnownLocation>>,
    /// Per client: metadata leases (item → expiry), §4.2.
    leases: Vec<FxHashMap<InodeId, dynmds_event::SimTime>>,
    uids: Vec<u32>,
    rng: SimRng,
    n_mds: u16,
    lease_hits: u64,
}

impl ClientPool {
    /// Creates `n_clients` clients with empty location caches.
    pub fn new(n_clients: u32, n_mds: u16, seed: u64) -> Self {
        assert!(n_mds > 0, "cluster must be non-empty");
        ClientPool {
            routes: (0..n_clients).map(|_| FxHashMap::default()).collect(),
            leases: (0..n_clients).map(|_| FxHashMap::default()).collect(),
            uids: vec![0; n_clients as usize],
            rng: SimRng::seed_from_u64(seed ^ 0xC11E_47B0),
            n_mds,
            lease_hits: 0,
        }
    }

    /// Whether `client` holds a live lease on `item` at `now`. A hit is
    /// counted and may be served from the client's own cache.
    pub fn lease_valid(
        &mut self,
        client: ClientId,
        item: InodeId,
        now: dynmds_event::SimTime,
    ) -> bool {
        let valid = self.leases[client.index()].get(&item).map(|&exp| exp > now).unwrap_or(false);
        if valid {
            self.lease_hits += 1;
        }
        valid
    }

    /// Grants `client` a lease on `item` until `expiry` (reply-time
    /// piggyback).
    pub fn grant_lease(&mut self, client: ClientId, item: InodeId, expiry: dynmds_event::SimTime) {
        let map = &mut self.leases[client.index()];
        // Opportunistic pruning keeps per-client state bounded.
        if map.len() > 4_096 {
            map.retain(|_, &mut exp| exp > expiry);
        }
        map.insert(item, expiry);
    }

    /// Total lease-served reads.
    pub fn lease_hits(&self) -> u64 {
        self.lease_hits
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Sets the uid a client authenticates as.
    pub fn set_uid(&mut self, client: ClientId, uid: u32) {
        self.uids[client.index()] = uid;
    }

    /// The uid a client authenticates as.
    pub fn uid(&self, client: ClientId) -> u32 {
        self.uids[client.index()]
    }

    /// Picks the server `client` sends a request for `target` to, using
    /// the deepest known prefix; unknown territory goes to a random node.
    pub fn route(&mut self, ns: &Namespace, client: ClientId, target: InodeId) -> MdsId {
        let map = &self.routes[client.index()];
        let hit = std::iter::once(target)
            .chain(ns.ancestors(target))
            .find_map(|id| map.get(&id).copied());
        match hit {
            Some(KnownLocation::Single(m)) => m,
            Some(KnownLocation::Everywhere) => self.random_mds(),
            None => self.random_mds(),
        }
    }

    /// A uniformly random server.
    pub fn random_mds(&mut self) -> MdsId {
        MdsId(self.rng.below(self.n_mds as u64) as u16)
    }

    /// Records location info delivered with a reply ("all responses sent
    /// to clients include current distribution information … for the
    /// metadata requested and their prefix directories").
    pub fn learn(&mut self, client: ClientId, item: InodeId, loc: KnownLocation) {
        self.routes[client.index()].insert(item, loc);
    }

    /// Whether the client has *any* location entry for `item`.
    pub fn knows(&self, client: ClientId, item: InodeId) -> bool {
        self.routes[client.index()].contains_key(&item)
    }

    /// Drops an entry (used by tests; real staleness is corrected by
    /// forwarding + re-learning).
    pub fn forget(&mut self, client: ClientId, item: InodeId) {
        self.routes[client.index()].remove(&item);
    }

    /// Total location entries across all clients (memory accounting).
    pub fn total_entries(&self) -> usize {
        self.routes.iter().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::Permissions;

    fn tree() -> (Namespace, InodeId, InodeId, InodeId) {
        let mut ns = Namespace::new();
        let a = ns.mkdir(ns.root(), "a", Permissions::directory(1)).unwrap();
        let b = ns.mkdir(a, "b", Permissions::directory(1)).unwrap();
        let f = ns.create_file(b, "f", Permissions::shared(1)).unwrap();
        (ns, a, b, f)
    }

    #[test]
    fn unknown_targets_route_randomly_but_in_range() {
        let (ns, _, _, f) = tree();
        let mut pool = ClientPool::new(1, 4, 1);
        for _ in 0..50 {
            let m = pool.route(&ns, ClientId(0), f);
            assert!(m.0 < 4);
        }
    }

    #[test]
    fn deepest_known_prefix_wins() {
        let (ns, a, b, f) = tree();
        let mut pool = ClientPool::new(1, 8, 1);
        pool.learn(ClientId(0), a, KnownLocation::Single(MdsId(1)));
        assert_eq!(pool.route(&ns, ClientId(0), f), MdsId(1), "via /a");
        pool.learn(ClientId(0), b, KnownLocation::Single(MdsId(2)));
        assert_eq!(pool.route(&ns, ClientId(0), f), MdsId(2), "deeper /a/b wins");
        pool.learn(ClientId(0), f, KnownLocation::Single(MdsId(3)));
        assert_eq!(pool.route(&ns, ClientId(0), f), MdsId(3), "exact item wins");
    }

    #[test]
    fn everywhere_spreads_requests() {
        let (ns, _, _, f) = tree();
        let mut pool = ClientPool::new(1, 8, 3);
        pool.learn(ClientId(0), f, KnownLocation::Everywhere);
        let targets: std::collections::HashSet<MdsId> =
            (0..200).map(|_| pool.route(&ns, ClientId(0), f)).collect();
        assert!(targets.len() >= 6, "replicated items spread load: {targets:?}");
    }

    #[test]
    fn clients_have_independent_caches() {
        let (ns, a, _, f) = tree();
        let mut pool = ClientPool::new(2, 8, 1);
        pool.learn(ClientId(0), a, KnownLocation::Single(MdsId(5)));
        assert!(pool.knows(ClientId(0), a));
        assert!(!pool.knows(ClientId(1), a));
        assert_eq!(pool.route(&ns, ClientId(0), f), MdsId(5));
        assert_eq!(pool.total_entries(), 1);
    }

    #[test]
    fn forget_restores_ignorance() {
        let (ns, a, _, f) = tree();
        let mut pool = ClientPool::new(1, 2, 9);
        pool.learn(ClientId(0), a, KnownLocation::Single(MdsId(1)));
        pool.forget(ClientId(0), a);
        assert!(!pool.knows(ClientId(0), a));
        // Routes still total.
        let m = pool.route(&ns, ClientId(0), f);
        assert!(m.0 < 2);
    }

    #[test]
    fn leases_expire_and_count_hits() {
        use dynmds_event::SimTime;
        let mut pool = ClientPool::new(2, 4, 1);
        let item = InodeId(9);
        assert!(!pool.lease_valid(ClientId(0), item, SimTime::from_secs(1)));
        pool.grant_lease(ClientId(0), item, SimTime::from_secs(5));
        assert!(pool.lease_valid(ClientId(0), item, SimTime::from_secs(4)));
        assert!(!pool.lease_valid(ClientId(1), item, SimTime::from_secs(4)), "per-client");
        assert!(!pool.lease_valid(ClientId(0), item, SimTime::from_secs(5)), "expired at ttl");
        assert_eq!(pool.lease_hits(), 1, "only valid checks count");
    }

    #[test]
    fn lease_renewal_extends_expiry() {
        use dynmds_event::SimTime;
        let mut pool = ClientPool::new(1, 2, 1);
        let item = InodeId(3);
        pool.grant_lease(ClientId(0), item, SimTime::from_secs(2));
        pool.grant_lease(ClientId(0), item, SimTime::from_secs(10));
        assert!(pool.lease_valid(ClientId(0), item, SimTime::from_secs(8)));
    }

    #[test]
    fn uids_tracked_per_client() {
        let mut pool = ClientPool::new(3, 2, 1);
        pool.set_uid(ClientId(1), 42);
        assert_eq!(pool.uid(ClientId(0)), 0);
        assert_eq!(pool.uid(ClientId(1)), 42);
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
    }
}
