//! The window loop: pooled and inline windows, the idle-window skip,
//! and mail addressing at the barrier.

use dynmds_event::SimTime;

use super::driver::for_each_shard;
use super::ShardedSimulation;

/// Fewest events the previous executed window must have handled, over
/// all shards, for the next one to go to the pool. Events per executed
/// window of the benchmark's sharded workloads (DESIGN.md §11): the
/// day/night elastic load handles fewer than 8 in 99.8% of its windows,
/// so it stays inline; the dense K=8 run never fewer than 64, so it fans
/// out from its second window on; the scale tier handles 8 or more in
/// almost all of its windows and fans out too. The gate reads a count of
/// simulated events, the same for every K and host, never a host time.
const FANOUT_MIN_EVENTS: u64 = 8;

impl ShardedSimulation {
    /// Advances all shards to `until_us`, window by window. Windows end on
    /// the fixed grid of multiples of the window width; a stop off the
    /// grid splits one window in two but moves no barrier, so how callers
    /// slice a run into `run_until` calls cannot change it. Windows go to
    /// the pool only when [`Self::run_inline`] opens the work gate;
    /// `force_dense` turns the gate and the idle-window skip off and fans
    /// every window out with the full worker count.
    pub(super) fn run_windows(&mut self, until_us: u64) {
        self.apply_steps(self.now_us);
        while self.now_us < until_us {
            let end = if self.world.cfg.force_dense {
                self.next_grid().min(until_us)
            } else {
                match self.run_inline(until_us) {
                    Some(end) => end,
                    None => break,
                }
            };
            let (world, mail, parity) = (&self.world, &self.mail, self.parity);
            for_each_shard(&mut self.shards, &self.claims, self.driver, self.threads, |s| {
                s.run_window(world, mail, parity, end)
            });
            self.parity ^= 1;
            self.last_window_events = self.shards.iter().map(|s| s.window_events).sum();
            self.counts.pooled_windows += 1;
            self.counts.events += self.last_window_events;
            self.now_us = end;
            self.address_mail();
            self.apply_steps(end);
        }
    }

    /// Runs windows on this thread, with no driver call, until `until_us`
    /// (returns `None`) or until the work gate opens (returns the end of
    /// the window to hand to the pool). The gate opens when more than one
    /// shard has an event before the window end or mail in the cells, and
    /// the previous executed window handled at least [`FANOUT_MIN_EVENTS`]
    /// events; waking pool workers for a few events costs more than it
    /// saves.
    ///
    /// Each window steps only its busy shards, and after each step
    /// schedules the shard's outboxes straight into the destination
    /// queues. A message sent in `[w, end)` lands at `send + L ≥ w + L ≥
    /// end`, so no shard stepped later in the same window can see it, and
    /// the stepping order cannot matter. Inline windows write no mail
    /// cells, so they leave `parity` alone. Mail a pooled window left in
    /// the cells stays there if the next window is pooled too, whose
    /// steps schedule it on the workers; if it runs inline, this thread
    /// schedules it first, so the window's busy list sees it.
    ///
    /// Idle window spans — no queued event, no mail due and no calendar
    /// step due — are skipped in one jump, staying on the same grid. With
    /// `t_min` the minimum over every queue head, [`Self::mail_due`] and
    /// the next-due step, every window strictly before the one holding
    /// `t_min` pops no event and its barrier applies no step, so the jump
    /// lands on the grid barrier `⌊t_min / w⌋·w` with identical state. When nothing is due before
    /// `until_us`, time jumps to the final barrier and its steps (due
    /// exactly at `until_us`, as in a dense run) apply. `t_min` is a
    /// function of the pending-event multiset and the calendar, both
    /// shard-count-invariant at barriers, so every K takes the same jumps
    /// and executes the same windows.
    fn run_inline(&mut self, until_us: u64) -> Option<u64> {
        while self.now_us < until_us {
            let mut end = self.next_grid().min(until_us);
            let t_min = self.scan_busy(end).min(self.mail_due).min(self.next_due);
            if t_min >= self.next_grid() {
                if t_min >= until_us {
                    self.now_us = until_us;
                    self.apply_steps(until_us);
                    return None;
                }
                self.now_us = t_min / self.world.window_us * self.world.window_us;
                self.apply_steps(self.now_us);
                end = self.next_grid().min(until_us);
                self.scan_busy(end);
            }
            if self.last_window_events >= FANOUT_MIN_EVENTS && self.busy.len() > 1 {
                return Some(end);
            }
            if self.mail_due != u64::MAX {
                for s in &mut self.shards {
                    s.schedule_inbound(&self.world, &self.mail, self.parity ^ 1);
                }
                self.mail_due = u64::MAX;
                self.scan_busy(end);
            }
            let mut events = 0;
            for j in 0..self.busy.len() {
                events += self.step_inline(self.busy[j], end);
            }
            self.last_window_events = events;
            self.counts.inline_windows += 1;
            self.counts.events += events;
            self.now_us = end;
            self.apply_steps(end);
        }
        None
    }

    /// One pass over the queue heads: fills `busy` with the shards that
    /// have an event before `end` or mail in the cells, and returns the
    /// earliest queued event time (`u64::MAX` when every queue is empty).
    fn scan_busy(&mut self, end: u64) -> u64 {
        self.busy.clear();
        let mut t_min = u64::MAX;
        for (i, s) in self.shards.iter().enumerate() {
            let head = s.queue.peek_time().map_or(u64::MAX, |t| t.as_micros());
            t_min = t_min.min(head);
            if head < end || !s.inbound.is_empty() {
                self.busy.push(i);
            }
        }
        t_min
    }

    /// Steps shard `i` to `end` and schedules what it sent straight into
    /// the destination queues; returns the events it handled.
    fn step_inline(&mut self, i: usize, end: u64) -> u64 {
        self.shards[i].step(&self.world, end);
        let mut sent_to = std::mem::take(&mut self.shards[i].sent_to);
        for dst in sent_to.drain(..) {
            let mut out = std::mem::take(&mut self.shards[i].outbox[dst]);
            let queue = &mut self.shards[dst].queue;
            for m in out.drain(..) {
                queue.schedule(SimTime::from_micros(m.send + self.world.window_us), m.ev);
            }
            self.shards[i].outbox[dst] = out;
        }
        self.shards[i].sent_to = sent_to;
        self.shards[i].window_events
    }

    /// The first grid barrier after `now_us`: where the current window ends.
    fn next_grid(&self) -> u64 {
        (self.now_us / self.world.window_us + 1) * self.world.window_us
    }

    /// Barrier side of a pooled window's mail: turns the destinations
    /// each shard sent to into each destination's list of sources to
    /// drain, and notes when the earliest of that mail lands. Costs one
    /// push per `(src, dst)` pair with mail.
    fn address_mail(&mut self) {
        self.mail_due = u64::MAX;
        for src in 0..self.shards.len() {
            let first = self.shards[src].first_send;
            if first != u64::MAX {
                self.mail_due = self.mail_due.min(first + self.world.window_us);
            }
            let mut sent_to = std::mem::take(&mut self.shards[src].sent_to);
            for dst in sent_to.drain(..) {
                self.shards[dst].inbound.push(src);
            }
            self.shards[src].sent_to = sent_to;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::shard::testkit::*;
    use crate::shard::{RunCounts, ShardReport};
    use dynmds_event::SimDuration;
    use dynmds_partition::StrategyKind;
    use dynmds_workload::{GeneralWorkload, Workload, WorkloadConfig};

    /// Fake fan-out driver: steps every item inline in id order and
    /// appends the `threads` of each call to [`FANOUTS`].
    fn recording_driver(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
        FANOUTS.with(|f| f.borrow_mut().push(threads));
        (0..n).for_each(body);
    }

    thread_local! {
        static FANOUTS: std::cell::RefCell<Vec<Option<usize>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Servers at the scale tier's cost point (30 µs per op, flash OSDs),
    /// so that thousands of clients load windows with dozens of events.
    fn fast_servers(cfg: &mut SimConfig) {
        cfg.costs.cpu_per_op = SimDuration::from_micros(30);
        cfg.costs.cpu_forward = SimDuration::from_micros(5);
        cfg.costs.osd_disk =
            dynmds_storage::DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
    }

    /// The `threads` of every driver call of a K=4 run with three
    /// workers, and the run's counts: `n_mds` fast servers, `n_clients`
    /// clients at `think_us` mean think time.
    fn fanouts(
        n_mds: u16,
        n_clients: u32,
        think_us: u64,
        force_dense: bool,
    ) -> (Vec<Option<usize>>, RunCounts) {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = n_mds;
        cfg.n_clients = n_clients;
        cfg.costs.think_mean = SimDuration::from_micros(think_us);
        cfg.force_dense = force_dense;
        fast_servers(&mut cfg);
        let mut sim = build_with(cfg, 4, Some(3));
        sim.driver = Some(recording_driver);
        FANOUTS.with(|f| f.borrow_mut().clear());
        sim.run_until(SimTime::from_millis(500));
        let counts = sim.run_counts();
        assert!(sim.finish().ops > 0);
        (FANOUTS.with(|f| f.take()), counts)
    }

    #[test]
    fn sparse_windows_run_inline() {
        // Three clients thinking 20 ms each: no window handles 8 events,
        // so no window reaches the driver.
        let (calls, counts) = fanouts(4, 3, 20_000, false);
        assert!(counts.inline_windows > 50, "only {counts:?}");
        assert_eq!(counts.pooled_windows, 0, "{counts:?}");
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn dense_windows_fan_out_once_the_first_is_seen() {
        // 2000 clients at 2 ms over 16 servers: every window after the
        // first has every shard busy and dozens of events. The first has
        // no predecessor to vouch for it, so it runs inline, with no
        // driver call.
        let (calls, counts) = fanouts(16, 2_000, 2_000, false);
        assert_eq!(counts.inline_windows, 1, "{counts:?}");
        assert_eq!(calls.len() as u64, counts.pooled_windows);
        assert!(calls.len() > 1_000, "only {} windows pooled", calls.len());
        assert!(calls.iter().all(|&t| t == Some(3)), "{calls:?}");
    }

    #[test]
    fn force_dense_fans_every_window_out_with_every_worker() {
        let (calls, _) = fanouts(4, 3, 20_000, true);
        assert_eq!(calls.len(), 5_000, "every 100 µs window of 0.5 s executes");
        assert!(calls.iter().all(|&t| t == Some(3)));
    }

    /// Eight fast servers under a shaped load: `clients` clients at a
    /// 1 ms mean think time, wrapped by `shape`.
    fn build_shaped(
        shards: usize,
        clients: u32,
        shape: Shape,
        force_dense: bool,
    ) -> ShardedSimulation {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = 8;
        cfg.n_clients = clients;
        cfg.client_leases = true;
        cfg.costs.think_mean = SimDuration::from_millis(1);
        cfg.heartbeat = SimDuration::from_millis(40);
        cfg.sample_every = SimDuration::from_millis(20);
        cfg.obs = dynmds_obs::ObsConfig::metrics_only();
        cfg.force_dense = force_dense;
        fast_servers(&mut cfg);
        let snap = snapshot(&cfg);
        general(cfg, shards, Some(2), snap, WorkloadConfig::default(), shape)
    }

    /// 5 ms at full rate every 20 ms, think times ×40 in between.
    fn bursty(w: GeneralWorkload) -> Box<dyn Workload + Send> {
        use dynmds_workload::BurstyWorkload;
        let ms = SimDuration::from_millis;
        Box::new(BurstyWorkload::new(w, ms(20), ms(5), 40.0))
    }

    /// A 100 ms day/night cycle, think times up to ×150 at night.
    fn diurnal(w: GeneralWorkload) -> Box<dyn Workload + Send> {
        use dynmds_workload::DiurnalWorkload;
        Box::new(DiurnalWorkload::new(w, SimDuration::from_millis(100), 150.0))
    }

    #[test]
    fn executed_windows_and_events_are_shard_count_invariant() {
        let shapes: [(&str, u32, Shape); 3] =
            [("dense", 2_000, unshaped), ("sparse", 6, unshaped), ("diurnal", 2_000, diurnal)];
        for (name, clients, shape) in shapes {
            let run = |k: usize, dense: bool| {
                let mut sim = build_shaped(k, clients, shape, dense);
                sim.driver = Some(recording_driver);
                sim.run_until(SimTime::from_millis(300));
                sim.run_counts()
            };
            let base = run(1, false);
            assert_eq!(base.pooled_windows, 0, "{name}: one shard never fans out");
            assert!(base.events > 500, "{name}: {base:?}");
            for k in [2, 4, 8] {
                let c = run(k, false);
                assert_eq!(
                    (c.inline_windows + c.pooled_windows, c.events),
                    (base.inline_windows, base.events),
                    "{name}, K={k}: {c:?}"
                );
                if name != "sparse" {
                    assert!(c.pooled_windows > 0, "{name}, K={k}: {c:?}");
                }
            }
            let dense = run(4, true);
            assert_eq!((dense.inline_windows, dense.events), (0, base.events), "{name}");
        }
    }

    /// Runs `sim` to each time in `stops` (µs) in turn, resetting the
    /// statistics at the 100 ms stop, and reports. Also returns how often
    /// execution switched from inline windows to pooled ones and back.
    /// One call covers at most one window when the stops include every
    /// grid barrier, so the counts see every switch.
    fn run_in_stops(mut sim: ShardedSimulation, stops: &[u64]) -> (ShardReport, [u64; 2]) {
        let mut switches = [0; 2];
        let mut last_pooled = None;
        for &t in stops {
            let before = sim.run_counts();
            sim.run_until(SimTime::from_micros(t));
            let after = sim.run_counts();
            // Parity names a pooled window's cells; inline windows write
            // none, so only pooled windows flip it.
            assert_eq!(sim.parity as u64, after.pooled_windows % 2, "parity at {t} µs");
            if after != before {
                let pooled = after.pooled_windows > before.pooled_windows;
                if last_pooled == Some(!pooled) {
                    switches[usize::from(!pooled)] += 1;
                }
                last_pooled = Some(pooled);
            }
            if t == 100_000 {
                sim.reset_measurement();
            }
        }
        (sim.finish(), switches)
    }

    fn obs(r: &ShardReport) -> (String, String) {
        let o = r.obs.as_ref().expect("metrics on");
        (o.metrics_jsonl.clone(), o.snapshots_jsonl.clone())
    }

    #[test]
    fn mail_crosses_run_until_boundaries() {
        // K=4 with every window busy, and K=8 with most windows idle;
        // heartbeats (balancing) and samples fall inside the run.
        for (n_clients, think_us, k) in [(400, 1_000, 4), (6, 20_000, 8)] {
            let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
            cfg.n_mds = 8;
            cfg.n_clients = n_clients;
            cfg.costs.think_mean = SimDuration::from_micros(think_us);
            cfg.heartbeat = SimDuration::from_millis(40);
            cfg.sample_every = SimDuration::from_millis(20);
            cfg.obs = dynmds_obs::ObsConfig::metrics_only();
            let sim = || {
                let mut sim = build_with(cfg.clone(), k, Some(2));
                sim.driver = Some(threaded_driver);
                sim
            };
            let (whole, _) = run_in_stops(sim(), &[100_000, 300_000]);
            let (split, _) = run_in_stops(
                sim(),
                &[13, 37_913, 37_950, 100_000, 100_001, 123_457, 211_111, 299_999, 300_000],
            );
            assert!(whole.ops > 0);
            assert_eq!(whole.render(), split.render(), "{n_clients} clients, K={k}");
            assert_eq!(obs(&whole), obs(&split), "{n_clients} clients, K={k}");
        }
    }

    #[test]
    fn inline_and_pooled_windows_alternate_without_changing_the_run() {
        // Bursts open the gate and idle stretches close it again. Stepping
        // one grid window per call, with an off-grid stop inside every
        // third window, must match one shard and a force-dense run.
        let mut stops: Vec<u64> = (1..=3_000).map(|w| w * 100).collect();
        stops.extend((0..1_000).map(|w| w * 300 + 37));
        stops.sort_unstable();
        let mut gated = build_shaped(4, 2_000, bursty, false);
        gated.driver = Some(recording_driver);
        let (stepped, [up, down]) = run_in_stops(gated, &stops);
        assert!(up >= 10 && down >= 10, "{up} inline→pooled, {down} pooled→inline switches");
        let (one, _) = run_in_stops(build_shaped(1, 2_000, bursty, false), &[100_000, 300_000]);
        let mut dense = build_shaped(4, 2_000, bursty, true);
        dense.driver = Some(recording_driver);
        let (dense, _) = run_in_stops(dense, &[100_000, 300_000]);
        assert!(one.ops > 500, "only {} ops", one.ops);
        for (name, r) in [("one shard", &one), ("force dense", &dense)] {
            assert_eq!(stepped.render(), r.render(), "{name}");
            assert_eq!(obs(&stepped), obs(r), "{name}");
        }
    }
}
