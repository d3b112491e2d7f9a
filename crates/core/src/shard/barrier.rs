//! Barrier-global steps: faults, crash and redelegation, heartbeat
//! (traffic control, elastic controller, balancer), proxy flush and
//! sampling.

use dynmds_event::SimTime;
use dynmds_namespace::{InodeId, MdsId};
use dynmds_partition::StrategyKind;

use super::event::{proxy_rank, Ev};
use super::{owner, ShardedSimulation};
use crate::config::{IMBALANCE_RATIO, MAX_MIGRATIONS_PER_HEARTBEAT};
use crate::elastic::ScaleAction;
use crate::fault::{crash_applies, heirs, live_in_ring, DiskScope, FaultStep};
use crate::node::sample_row;

impl ShardedSimulation {
    /// Recomputes the next-due-step calendar after anything that moves
    /// one of the three global schedules.
    pub(super) fn recompute_next_due(&mut self) {
        let step = self.steps.get(self.next_step).map_or(u64::MAX, |s| s.0);
        self.next_due = step.min(self.next_heartbeat).min(self.next_sample);
    }

    /// Applies every pending global step with timestamp ≤ `now`, then
    /// any heartbeat / sample ticks that have come due. O(1) via the
    /// next-due calendar when nothing is due (the per-window case).
    pub(super) fn apply_steps(&mut self, now: u64) {
        if now < self.next_due {
            return;
        }
        while self.next_step < self.steps.len() && self.steps[self.next_step].0 <= now {
            let step = self.steps[self.next_step].1;
            self.apply_fault(step);
            self.next_step += 1;
        }
        let w = self.world.window_us;
        while self.next_heartbeat <= now {
            self.heartbeat(self.next_heartbeat);
            self.next_heartbeat += self.world.cfg.heartbeat.as_micros().max(w);
        }
        while self.next_sample <= now {
            self.sample(self.next_sample);
            self.next_sample += self.world.cfg.sample_every.as_micros().max(w);
        }
        self.recompute_next_due();
    }

    /// Applies one step of the fault schedule, at the first window
    /// barrier at or after its time (the grid is K-independent, so the
    /// quantization is identical for every shard count).
    fn apply_fault(&mut self, step: FaultStep) {
        match step {
            FaultStep::Crash(m) => self.crash(m),
            FaultStep::Recover(m) => {
                if !self.world.alive[m.index()] {
                    self.node_shard(m).counters.recoveries += 1;
                }
                self.world.alive[m.index()] = true;
                // A recovered node is back in service whatever took it
                // out; scaling re-parks it if the load doesn't justify
                // the capacity.
                self.world.elastic.members[m.index()] = true;
            }
            FaultStep::Disk { scope, fault } => {
                let salt = self.world.cfg.seed ^ 0xD15C;
                for shard in &mut self.shards {
                    for n in &mut shard.nodes {
                        let node_seed =
                            salt ^ (n.m.id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        match scope {
                            DiskScope::Osd => n.osd.set_fault(fault, node_seed),
                            DiskScope::Journal => n.m.journal_disk.set_fault(fault, node_seed),
                            DiskScope::All => {
                                n.osd.set_fault(fault, node_seed);
                                n.m.journal_disk.set_fault(fault, node_seed ^ 1);
                            }
                        }
                    }
                }
            }
            FaultStep::Net(spec) => self.world.net = spec,
        }
    }

    /// Node failure under the crash rule of both engines
    /// ([`crash_applies`]): mark dead, lose its memory, and hand its
    /// delegations to the heirs of both engines ([`heirs`]; subtree
    /// strategies).
    fn crash(&mut self, dead: MdsId) {
        if !crash_applies(&self.world.alive, dead) {
            return;
        }
        self.world.alive[dead.index()] = false;
        self.node_shard(dead).counters.failures += 1;
        self.node_mut(dead).m.lose_memory();
        let crashes = self.counters().failures;
        let Some(sp) = self.world.partition.as_subtree() else { return };
        let roots = sp.delegations_of(dead);
        let heirs = heirs(&self.world.alive, crashes, roots.len());
        let moves: Vec<_> = roots.into_iter().zip(heirs).map(|(r, h)| (r, dead, h)).collect();
        self.redelegate(&moves);
    }

    /// Moves each `(root, from, to)` delegation and counts it as an
    /// export of `from` and an import of `to`. Entries with `from == to`
    /// are skipped.
    fn redelegate(&mut self, moves: &[(InodeId, MdsId, MdsId)]) {
        for &(r, from, to) in moves.iter().filter(|(_, from, to)| from != to) {
            self.world.partition.delegate(&self.world.snapshot.ns, r, to);
            self.node_mut(from).m.life.subtrees_out += 1;
            self.node_mut(to).m.life.subtrees_in += 1;
        }
    }

    /// Heartbeat: promote replication candidates cluster-wide (traffic
    /// control, quantized to the heartbeat), run the elastic controller,
    /// then the load balancer (rebalancing strategies only).
    fn heartbeat(&mut self, at: u64) {
        // Traffic control and the hotspot proxy tier: union of per-node
        // candidates (none are proxy-hot while the tier is off). Set
        // semantics make the insertion order irrelevant, and the sets are
        // only ever probed, never iterated.
        for shard in &mut self.shards {
            for n in &mut shard.nodes {
                for id in n.hot_pending.drain(..) {
                    shard.counters.replications += self.world.replicated.insert(id) as u64;
                }
                self.world.proxy_hot.extend(n.proxy_hot_pending.drain(..));
            }
        }
        // Push proxy-coalesced deltas to the authorities.
        if self.world.cfg.proxy.enabled() {
            self.flush_proxies(at);
        }
        let elastic = self.world.cfg.strategy == StrategyKind::ElasticSubtree;
        if !self.world.cfg.balancing && !elastic {
            return;
        }
        let n_mds = self.world.cfg.n_mds as usize;
        // Load per node since the last heartbeat.
        let mut loads = vec![0f64; n_mds];
        for shard in &mut self.shards {
            for n in &mut shard.nodes {
                loads[n.m.id.index()] = n.m.take_heartbeat().load();
            }
        }
        if elastic {
            match self.world.elastic.step(&self.world.alive, &loads, at) {
                Some(ScaleAction::Activate(m)) => {
                    self.node_shard(m).counters.scale_outs += 1;
                    self.elastic_activate(m);
                }
                Some(ScaleAction::Park(m)) => {
                    self.node_shard(m).counters.scale_ins += 1;
                    self.elastic_park(m, &loads);
                }
                None => {}
            }
        }
        if !self.world.cfg.balancing {
            return;
        }
        let live: Vec<usize> = (0..n_mds).filter(|&m| self.world.alive[m]).collect();
        if live.len() < 2 {
            return;
        }
        let mean = live.iter().map(|&m| loads[m]).sum::<f64>() / live.len() as f64;
        if mean <= 0.0 {
            return;
        }
        let root = self.world.snapshot.ns.root();
        let mut budget = MAX_MIGRATIONS_PER_HEARTBEAT;
        let mut moves: Vec<(InodeId, MdsId, MdsId)> = Vec::new();
        for &m in &live {
            if budget == 0 {
                break;
            }
            if loads[m] <= IMBALANCE_RATIO * mean {
                continue;
            }
            // Shed the first (sorted) delegation that is not the tree
            // root to the least-loaded live node.
            let donor = MdsId(m as u16);
            let roots = match self.world.partition.as_subtree() {
                Some(sp) => sp.delegations_of(donor),
                None => return,
            };
            let Some(&subtree) = roots.iter().find(|&&r| r != root) else { continue };
            let target = *live
                .iter()
                .min_by(|&&a, &&b| loads[a].partial_cmp(&loads[b]).unwrap().then(a.cmp(&b)))
                .unwrap();
            if target == m {
                continue;
            }
            moves.push((subtree, donor, MdsId(target as u16)));
            budget -= 1;
            self.node_shard(donor).counters.migrations += 1;
        }
        self.redelegate(&moves);
    }

    /// Heartbeat flush of proxy-coalesced write deltas: each proxy (in
    /// global id order) drains its pending map sorted by item and sends
    /// one `Coalesced` message per item to the item's live authority
    /// (ring-walk past dead nodes; a fully-dead cluster drops the
    /// delta). Deliveries are scheduled at `at + L`, the latency any
    /// cross-shard message pays; `at` and the message contents are
    /// K-independent, so the K-invariance argument is untouched.
    fn flush_proxies(&mut self, at: u64) {
        let (n_mds, k) = (self.world.cfg.n_mds as usize, self.shards.len());
        for s in 0..k {
            for i in 0..self.shards[s].proxies.len() {
                let drained = self.shards[s].proxies[i].core.drain_pending();
                let p = self.shards[s].proxy_lo + i as u16;
                for (item, delta) in drained {
                    let auth = self.world.partition.authority(item);
                    let Some(auth) = live_in_ring(&self.world.alive, auth) else { continue };
                    let px = &mut self.shards[s].proxies[i];
                    let seq = px.send_seq;
                    px.send_seq += 1;
                    self.shards[owner(auth.index(), n_mds, k)].queue.schedule(
                        SimTime::from_micros(at + self.world.window_us),
                        Ev::Coalesced { node: auth, item, delta, src: proxy_rank(p), seq },
                    );
                }
            }
        }
    }

    /// Scale-out: a standby node rejoins and is handed back the
    /// delegations it parked with (empty on first-ever activation — the
    /// balancer then migrates load onto it, as onto a recovered node).
    fn elastic_activate(&mut self, m: MdsId) {
        self.world.alive[m.index()] = true;
        let roots = std::mem::take(&mut self.world.elastic.parked_roots[m.index()]);
        let Some(sp) = self.world.partition.as_subtree() else { return };
        // Count the handoff against the current owners.
        let moves: Vec<_> = roots
            .into_iter()
            .map(|r| (r, sp.delegation_of(r).expect("delegated root"), m))
            .collect();
        self.redelegate(&moves);
    }

    /// Scale-in: voluntary departure, distinct from a crash. The victim
    /// hands every delegation to the surviving nodes (round-robin over
    /// them, least-loaded first), clients that knew it as an authority
    /// are redirected, and only then does it stop serving and release its
    /// RAM — nothing orphaned, no request left to time out against it.
    fn elastic_park(&mut self, victim: MdsId, loads: &[f64]) {
        let n_mds = self.world.cfg.n_mds as usize;
        // The controller never parks the last live node, so heirs exist.
        let mut heirs: Vec<usize> =
            (0..n_mds).filter(|&i| self.world.alive[i] && i != victim.index()).collect();
        heirs.sort_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite").then(a.cmp(&b)));
        let roots = match self.world.partition.as_subtree() {
            Some(sp) => sp.delegations_of(victim),
            None => Vec::new(),
        };
        let moves: Vec<_> = roots
            .iter()
            .enumerate()
            .map(|(j, &r)| (r, victim, MdsId(heirs[j % heirs.len()] as u16)))
            .collect();
        self.redelegate(&moves);
        // The departing node's goodbye: rewrite every client route that
        // named it to the post-handoff authority. Per-entry rewrites are
        // order-independent, so map iteration order cannot leak in.
        let partition = &self.world.partition;
        for shard in &mut self.shards {
            for cl in &mut shard.clients {
                for (&item, m) in cl.routes.iter_mut() {
                    if *m == victim {
                        *m = partition.authority(item);
                    }
                }
            }
        }
        // Park: stop serving and release RAM only after the handoff.
        self.world.elastic.parked_roots[victim.index()] = roots;
        self.world.alive[victim.index()] = false;
        self.node_mut(victim).m.lose_memory();
    }

    /// Sample tick: one row of every node's sample window.
    fn sample(&mut self, at: u64) {
        let nodes = self.shards.iter_mut().flat_map(|s| s.nodes.iter_mut().map(|n| &mut n.m));
        let w = &self.world;
        let row = sample_row(w.cfg.n_mds as usize, nodes, &w.alive, &w.partition);
        self.samples.push_row(at, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::shard::testkit::*;
    use crate::shard::ShardReport;
    use dynmds_event::{SimDuration, SimTime};
    use dynmds_partition::StrategyKind;
    use dynmds_workload::WorkloadConfig;

    /// Elastic pool over a day/night load shape: tight heartbeat so the
    /// controller gets enough ticks inside a short test run.
    fn build_elastic(shards: usize, high: f64, low: f64) -> ShardedSimulation {
        use dynmds_workload::DiurnalWorkload;
        let mut cfg = SimConfig::small(StrategyKind::ElasticSubtree);
        cfg.client_leases = true;
        cfg.obs = dynmds_obs::ObsConfig::metrics_only();
        cfg.heartbeat = SimDuration::from_millis(250);
        cfg.elastic.min_nodes = 2;
        cfg.elastic.high_load_per_s = high;
        cfg.elastic.low_load_per_s = low;
        cfg.elastic.sustain = 2;
        cfg.elastic.cooldown_heartbeats = 1;
        let (snap, wl) = (snapshot(&cfg), seeded(&cfg));
        general(cfg, shards, Some(1), snap, wl, |w| {
            Box::new(DiurnalWorkload::new(w, SimDuration::from_secs(3), 150.0))
        })
    }

    fn run_elastic(shards: usize, high: f64, low: f64) -> ShardReport {
        build_elastic(shards, high, low)
            .run_measured(SimDuration::from_secs(2), SimDuration::from_secs(6))
    }

    /// Day/night per-node rates measured on this configuration (daytime
    /// is server-saturated around 700–1500/s per node, the ×150 night
    /// trough is think-limited well under 200/s); the watermarks sit
    /// between the two plateaus.
    const ELASTIC_HIGH: f64 = 500.0;
    const ELASTIC_LOW: f64 = 250.0;

    /// Every delegation names a live node, and every down node is one
    /// the controller parked.
    fn assert_no_parked_owner(sim: &ShardedSimulation, when: &str) {
        for (root, owner) in sim.world.partition.as_subtree().unwrap().delegations() {
            assert!(sim.world.alive[owner.index()], "{when}: {root:?} owned by parked {owner:?}");
        }
        for m in 0..sim.world.alive.len() {
            assert_eq!(sim.world.alive[m], sim.world.elastic.members[m], "{when}: node {m}");
        }
    }

    /// The placement table holds the rule's from-scratch answer for
    /// every id below the id bound, and one past it.
    fn assert_placement_matches(sim: &ShardedSimulation, when: &str) {
        let ns = &sim.world.snapshot.ns;
        let part = &sim.world.partition;
        for id in (0..=ns.id_bound()).map(InodeId) {
            assert_eq!(part.authority(id), part.recompute(ns, id), "{when}: {id:?}");
        }
    }

    /// Runs `slices` slices of `slice_ms` each, checking the placement
    /// table after construction and after every slice.
    fn run_checking_placement(sim: &mut ShardedSimulation, slices: u64, slice_ms: u64) {
        assert_placement_matches(sim, "construction");
        for step in 1..=slices {
            sim.run_until(SimTime::from_millis(slice_ms * step));
            assert_placement_matches(sim, &format!("t={}ms", slice_ms * step));
        }
    }

    #[test]
    fn heartbeat_load_restarts_at_the_measurement_reset() {
        // Heartbeats every 250 ms; the reset lands mid-interval, after
        // ops the window would otherwise count.
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.heartbeat = SimDuration::from_millis(250);
        let mut sim = build_with(cfg, 2, Some(1));
        let life = |sim: &mut ShardedSimulation| -> Vec<_> {
            (0..4).map(|m| sim.node_mut(MdsId(m)).m.life).collect()
        };
        sim.run_until(SimTime::from_millis(1_050));
        let after_heartbeat = life(&mut sim);
        sim.run_until(SimTime::from_millis(1_150));
        let at_reset = life(&mut sim);
        sim.reset_measurement();
        sim.run_until(SimTime::from_millis(1_200));
        let mut pre_reset_ops = 0;
        for m in 0..4 {
            pre_reset_ops += at_reset[m].since(&after_heartbeat[m]).served;
            let window = sim.node_mut(MdsId(m as u16)).m.take_heartbeat();
            let post_reset = sim.node_mut(MdsId(m as u16)).m.life.since(&at_reset[m]);
            assert_eq!(
                (window.served, window.disk_fetches),
                (post_reset.served, post_reset.disk_fetches),
                "node {m}: the next heartbeat loads on post-reset ops only"
            );
        }
        assert!(pre_reset_ops > 0, "ops before the reset, after the last heartbeat");
    }

    #[test]
    fn only_the_elastic_strategy_steps_the_controller() {
        // Every heartbeat sits below the low watermark, so a stepped
        // controller would park nodes down to one.
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.heartbeat = SimDuration::from_millis(250);
        cfg.elastic.min_nodes = 1;
        cfg.elastic.high_load_per_s = f64::MAX;
        cfg.elastic.low_load_per_s = f64::MAX;
        cfg.elastic.sustain = 1;
        cfg.elastic.cooldown_heartbeats = 0;
        let n_mds = cfg.n_mds as u64;
        let mut sim = build_with(cfg, 2, Some(1));
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.world.alive.iter().all(|&a| a), "a non-elastic pool parks nothing");
        let r = sim.finish();
        assert_eq!((r.scale_outs, r.scale_ins), (0, 0));
        assert_eq!(r.provisioned_node_us, n_mds * 2_000_000, "the whole pool is billed");
    }

    #[test]
    fn placement_follows_balancing_and_a_crash_with_links_and_tombstones() {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.heartbeat = SimDuration::from_millis(250);
        // Crash the tree root's owner, so its delegations, the root's
        // among them, move to an heir.
        let root_owner = dynmds_partition::path_hash("/", cfg.n_mds);
        cfg.faults =
            crate::fault::FaultSchedule::parse(&format!("crash:{}@1s", root_owner.0)).unwrap();
        let mut snap = snapshot(&cfg);
        // A hard link into another home, and a tombstone.
        let ns = &mut snap.ns;
        let (home_a, home_b) = (snap.user_homes[0], snap.user_homes[1]);
        let file = ns.walk(home_a).find(|&i| !ns.is_dir(i)).expect("a file in home 0");
        ns.link(file, home_b, "hardlink").unwrap();
        let doomed = ns.walk(home_b).find(|&i| !ns.is_dir(i) && i != file).expect("a file");
        let (dir, name) =
            (ns.parent(doomed).unwrap().unwrap(), ns.name(doomed).unwrap().to_owned());
        ns.unlink(dir, &name).unwrap();
        assert!(!ns.is_alive(doomed));
        let mut sim = general(cfg, 2, Some(1), snap, WorkloadConfig::default(), unshaped);
        run_checking_placement(&mut sim, 12, 250);
        let root = sim.world.snapshot.ns.root();
        let now_owner = sim.world.partition.as_subtree().unwrap().delegation_of(root);
        assert_ne!(now_owner, Some(root_owner), "the crash moved the root");
        let r = sim.finish();
        assert!(r.migrations >= 1, "balancer idle: {r:?}");
    }

    #[test]
    fn placement_matches_hashed_strategies() {
        for strategy in [StrategyKind::FileHash, StrategyKind::LazyHybrid] {
            let mut sim = build(strategy, 2, false);
            run_checking_placement(&mut sim, 4, 250);
            assert!(sim.finish().ops > 0, "{strategy:?}");
        }
    }

    #[test]
    fn elastic_pool_scales_with_the_diurnal_cycle() {
        // Watermarks straddle the day/night per-node rates: daytime load
        // activates standby nodes, the night trough parks them again. At
        // every heartbeat no delegation may name a parked node, and the
        // placement table follows every move.
        let mut sim = build_elastic(2, ELASTIC_HIGH, ELASTIC_LOW);
        assert_eq!(sim.world.alive, [true, true, false, false], "pool starts at min_nodes");
        assert_no_parked_owner(&sim, "construction");
        assert_placement_matches(&sim, "construction");
        for step in 1..=32u64 {
            if step == 9 {
                sim.reset_measurement(); // after 2 s of warm-up
            }
            sim.run_until(SimTime::from_millis(250 * step));
            assert_no_parked_owner(&sim, &format!("t={}ms", 250 * step));
            assert_placement_matches(&sim, &format!("t={}ms", 250 * step));
        }
        let r = sim.finish();
        assert!(r.scale_outs >= 1, "daytime peak never activated a standby node");
        assert!(r.scale_ins >= 1, "night trough never parked a node");
        assert!(r.migrations >= 1, "the balancer never moved a subtree");
        assert!(r.ops > 1_000, "only {} ops completed", r.ops);
        assert!(
            r.provisioned_node_us
                < r.n_mds as u64 * (r.measure_end.as_micros() - r.measure_start.as_micros()),
            "elastic run should use less than the full static pool"
        );
    }

    #[test]
    fn elastic_report_is_invariant_across_shard_counts() {
        let base = run_elastic(1, ELASTIC_HIGH, ELASTIC_LOW);
        assert!(base.scale_outs + base.scale_ins > 0, "controller must act for this test to bite");
        for k in [2usize, 4] {
            let r = run_elastic(k, ELASTIC_HIGH, ELASTIC_LOW);
            assert_eq!(base.render(), r.render(), "render diverged at {k} shards");
            assert_eq!(
                base.obs.as_ref().unwrap().metrics_jsonl,
                r.obs.as_ref().unwrap().metrics_jsonl,
                "obs metrics diverged at {k} shards"
            );
        }
    }

    #[test]
    fn sustained_overload_fills_the_pool_and_hands_trees_back() {
        // A watermark below any observed load forces scale-out to the full
        // pool; the returning nodes must get delegations back.
        let sim = build_elastic(2, 0.001, 0.0);
        let r = sim.run_measured(SimDuration::from_secs(2), SimDuration::from_secs(4));
        assert_eq!(r.scale_outs, 2, "both standby nodes join under sustained overload");
        assert_eq!(r.scale_ins, 0);
        let served: Vec<u64> = r.nodes.iter().map(|n| n.served).collect();
        assert!(served[2] + served[3] > 0, "activated nodes serve traffic: {served:?}");
    }
}
