//! Elastic MDS autoscaling (ROADMAP item 3, λFS-style): the controller
//! behind the sixth strategy,
//! [`StrategyKind::ElasticSubtree`](dynmds_partition::StrategyKind).
//! The pool is *provisioned* with `n_mds` nodes but keeps only a
//! load-determined subset *active*; λFS (ASPLOS'24) shows this beating
//! static provisioning on cost at equal latency under CFS-style diurnal
//! load. Only [`ShardedSimulation`](crate::ShardedSimulation) runs it.
//!
//! The signal is the §4.3 balancer's per-node heartbeat load (served +
//! miss-weighted fetches), averaged over live nodes as a per-second
//! rate. [`ElasticCtl::step`] is a pure function of the controller's own
//! state and `(alive, loads, at)`: watermarks held for `sustain`
//! heartbeats, plus a post-action cooldown, yield
//! [`ScaleAction::Activate`] or [`ScaleAction::Park`]. The engine applies
//! the action at the window barrier. Nothing here draws from an RNG, so
//! elastic runs are byte-identical across reruns and shard counts. The
//! engine steps the controller only under the elastic strategy.

use dynmds_event::SimDuration;
use dynmds_namespace::{InodeId, MdsId};

use crate::config::ElasticConfig;

/// What one controller step asks the engine to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScaleAction {
    /// Bring this standby node back into service.
    Activate(MdsId),
    /// Hand off this live node's delegations, then park it.
    Park(MdsId),
}

/// Controller state, one per run; stepped only under the elastic
/// strategy.
#[derive(Clone, Debug, Default)]
pub(crate) struct ElasticCtl {
    cfg: ElasticConfig,
    hb_secs: f64,
    /// Announced membership: every node the controller has not parked.
    /// Clients are told about planned changes, so routing draws from
    /// this set; crashed nodes stay members until clients time out.
    pub(crate) members: Vec<bool>,
    /// Delegations each node held when it was parked; the engine hands
    /// them back on the node's next activation so a returning node is
    /// immediately useful.
    pub(crate) parked_roots: Vec<Vec<InodeId>>,
    high_streak: u32,
    low_streak: u32,
    cooldown: u32,
    /// Provisioned node-microseconds, integrated at heartbeat ticks.
    node_us: u64,
    /// Upper edge of the last accounted interval.
    last_account: u64,
}

impl ElasticCtl {
    /// Fresh controller for an `n`-node pool, every node a member. Load
    /// rates are normalized by the `heartbeat` interval.
    pub fn new(cfg: ElasticConfig, heartbeat: SimDuration, n: usize) -> Self {
        ElasticCtl {
            cfg,
            hb_secs: heartbeat.as_secs_f64(),
            members: vec![true; n],
            parked_roots: vec![Vec::new(); n],
            ..Default::default()
        }
    }

    /// One heartbeat step at `at` µs, given node liveness and each
    /// node's load since the last heartbeat. Accounts provisioned
    /// node-time under the population that held since the last step,
    /// then applies the watermark/sustain/cooldown policy. A returned
    /// action is already recorded in the membership; the caller counts it
    /// and applies it to the cluster before the next step.
    pub fn step(&mut self, alive: &[bool], loads: &[f64], at: u64) -> Option<ScaleAction> {
        let live: Vec<usize> = (0..alive.len()).filter(|&m| alive[m]).collect();
        self.node_us += live.len() as u64 * at.saturating_sub(self.last_account);
        self.last_account = self.last_account.max(at);
        if live.is_empty() {
            self.high_streak = 0;
            self.low_streak = 0;
            return None;
        }

        let mean_rate =
            live.iter().map(|&m| loads[m]).sum::<f64>() / live.len() as f64 / self.hb_secs;
        let e = self.cfg;
        let high = mean_rate > e.high_load_per_s;
        let low = !high && mean_rate < e.low_load_per_s;
        self.high_streak = if high { self.high_streak + 1 } else { 0 };
        self.low_streak = if low { self.low_streak + 1 } else { 0 };
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }

        if self.high_streak >= e.sustain {
            // Lowest-indexed parked node; crashed nodes are not eligible
            // (they come back through recovery, not scaling).
            let i = (0..alive.len()).find(|&i| !self.members[i] && !alive[i])?;
            self.members[i] = true;
            self.high_streak = 0;
            self.cooldown = e.cooldown_heartbeats;
            Some(ScaleAction::Activate(MdsId(i as u16)))
        } else if self.low_streak >= e.sustain && live.len() > e.min_nodes.max(1) as usize {
            // Least-loaded live node departs; index breaks ties.
            let victim = *live
                .iter()
                .min_by(|&&a, &&b| loads[a].partial_cmp(&loads[b]).expect("finite").then(a.cmp(&b)))
                .expect("live nodes exist");
            self.members[victim] = false;
            self.low_streak = 0;
            self.cooldown = e.cooldown_heartbeats;
            Some(ScaleAction::Park(MdsId(victim as u16)))
        } else {
            None
        }
    }

    /// Restarts provisioned-capacity accounting at `at` µs (end of
    /// warm-up: scale events during warm-up still count as events, but
    /// their node-time is not billed to the measurement).
    pub fn reset_accounting(&mut self, at: u64) {
        self.node_us = 0;
        self.last_account = at;
    }

    /// Provisioned node-microseconds consumed by `now`: the integral the
    /// heartbeat steps kept plus the still-open interval under `live`
    /// nodes.
    pub fn provisioned_node_us(&self, live: usize, now: u64) -> u64 {
        self.node_us + live as u64 * now.saturating_sub(self.last_account)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HB: SimDuration = SimDuration::from_secs(5);

    fn at(k: u64) -> u64 {
        k * HB.as_micros()
    }

    /// A 4-node pool with `min_nodes = 2`, watermarks 100/s and 10/s.
    fn ctl(sustain: u32, cooldown_heartbeats: u32) -> ElasticCtl {
        let cfg = ElasticConfig {
            min_nodes: 2,
            high_load_per_s: 100.0,
            low_load_per_s: 10.0,
            sustain,
            cooldown_heartbeats,
        };
        ElasticCtl::new(cfg, HB, 4)
    }

    /// Runs `steps` heartbeats at constant `loads`, applying each action
    /// to `alive` the way the engine does, and collects the answers.
    fn drive(
        c: &mut ElasticCtl,
        alive: &mut [bool],
        loads: &[f64],
        steps: u64,
    ) -> Vec<Option<ScaleAction>> {
        (1..=steps)
            .map(|k| {
                let a = c.step(alive, loads, at(k));
                match a {
                    Some(ScaleAction::Activate(m)) => alive[m.index()] = true,
                    Some(ScaleAction::Park(m)) => alive[m.index()] = false,
                    None => {}
                }
                a
            })
            .collect()
    }

    #[test]
    fn idle_pool_parks_down_to_the_floor_and_never_below() {
        let mut c = ctl(2, 0);
        let mut alive = [true; 4];
        let actions = drive(&mut c, &mut alive, &[0.0; 4], 12);
        let parks: Vec<_> = actions.into_iter().flatten().collect();
        // Least-loaded first, index breaks ties; then the floor holds.
        assert_eq!(parks, [ScaleAction::Park(MdsId(0)), ScaleAction::Park(MdsId(1))]);
        assert_eq!(alive, [false, false, true, true]);
        assert_eq!(c.members, [false, false, true, true]);
    }

    /// A 2-of-4 pool at 200/s per live node.
    fn overload(sustain: u32, cooldown: u32, steps: u64) -> (ElasticCtl, Vec<Option<ScaleAction>>) {
        let mut c = ctl(sustain, cooldown);
        c.members = vec![true, true, false, false];
        let actions = drive(&mut c, &mut [true, true, false, false], &[1_000.0; 4], steps);
        (c, actions)
    }

    #[test]
    fn sustain_and_cooldown_gate_each_action() {
        let (a2, a3) =
            (Some(ScaleAction::Activate(MdsId(2))), Some(ScaleAction::Activate(MdsId(3))));
        // Sustain 3, no cooldown: each activation needs three heartbeats
        // over the watermark, and the streak restarts after acting.
        let (c, actions) = overload(3, 0, 7);
        assert_eq!(actions, [None, None, a2, None, None, a3, None]);
        assert_eq!(c.members, [true; 4]);
        // Sustain 1, cooldown 2: the watermark holds every heartbeat, but
        // the controller sits out two heartbeats after each action.
        assert_eq!(overload(1, 2, 5).1, [a2, None, None, a3, None]);
    }

    #[test]
    fn crashed_nodes_are_not_activated() {
        let mut c = ctl(1, 0);
        c.members[3] = false;
        // Node 2 is down but still a member: a crash, not a parking.
        let actions = drive(&mut c, &mut [true, true, false, false], &[1_000.0; 4], 2);
        assert_eq!(actions, [Some(ScaleAction::Activate(MdsId(3))), None]);
    }

    #[test]
    fn provisioned_node_us_integrates_live_times_dt_exactly() {
        let mut c = ctl(100, 0);
        let loads = [50.0; 4]; // between the watermarks: no action
        assert_eq!(c.step(&[true, true, false, false], &loads, at(1)), None);
        assert_eq!(c.provisioned_node_us(2, at(1)), 2 * 5_000_000);
        assert_eq!(c.step(&[true, true, true, false], &loads, at(2)), None);
        assert_eq!(c.provisioned_node_us(3, at(2)), (2 + 3) * 5_000_000);
        // The open interval since the last step bills the live count.
        assert_eq!(c.provisioned_node_us(3, at(2) + 7), (2 + 3) * 5_000_000 + 3 * 7);
        c.reset_accounting(at(2));
        assert_eq!(c.provisioned_node_us(3, at(3)), 3 * 5_000_000);
    }
}
