//! Figure 7: flash-crowd behaviour with and without traffic control.
//!
//! "Figure 7 shows the number of requests processed over time by
//! individual nodes in the MDS cluster when 10,000 clients simultaneously
//! request the same file … Without traffic control (top), MDS nodes simply
//! forward requests to the authoritative node who is quickly saturated …
//! When traffic control is enabled (bottom), the authority quickly
//! recognizes the file's sudden popularity and replicates the metadata on
//! other nodes" (§5.4).

use dynmds_core::{SimConfig, SimReport, Simulation};
use dynmds_event::{SimDuration, SimTime};
use dynmds_metrics::Table;
use dynmds_namespace::{InodeId, NamespaceSpec, Snapshot};
use dynmds_partition::StrategyKind;
use dynmds_workload::FlashCrowd;

use crate::parallel::parallel_map;
use crate::params::ExperimentScale;

/// Results of both runs.
pub struct FlashResult {
    /// Traffic control enabled.
    pub with_tc: SimReport,
    /// Traffic control disabled.
    pub without_tc: SimReport,
    /// When the crowd fires.
    pub crowd_at: SimTime,
    /// Run length.
    pub duration: SimTime,
}

/// Crowd size per scale.
pub fn crowd_size(scale: ExperimentScale) -> u32 {
    match scale {
        ExperimentScale::Quick => 400,
        ExperimentScale::Full => 3_000,
    }
}

fn flash_config(scale: ExperimentScale, traffic_control: bool) -> SimConfig {
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = 8;
    cfg.n_clients = crowd_size(scale);
    cfg.cache_capacity = 4_000;
    cfg.journal_capacity = 4_000;
    cfg.n_osds = 16;
    cfg.traffic_control = traffic_control;
    cfg.replication_threshold = 64.0;
    // Isolate traffic control: no balancer interference.
    cfg.balancing = false;
    cfg.heartbeat = SimDuration::from_secs(1);
    cfg.sample_every = SimDuration::from_millis(25);
    // Clients poll the hot file continuously after opening it.
    cfg.costs.think_mean = SimDuration::from_millis(50);
    cfg.seed = 777;
    cfg
}

fn flash_snapshot(seed: u64) -> (Snapshot, InodeId) {
    let snap = NamespaceSpec { users: 32, shared_trees: 4, seed, ..Default::default() }.generate();
    let shared = snap.shared_roots[0];
    let target =
        snap.ns.walk(shared).find(|&id| !snap.ns.is_dir(id)).expect("shared tree contains files");
    (snap, target)
}

fn run_one(
    scale: ExperimentScale,
    traffic_control: bool,
    crowd_at: SimTime,
    duration: SimTime,
) -> SimReport {
    let cfg = flash_config(scale, traffic_control);
    let (snap, target) = flash_snapshot(cfg.seed ^ 0xF7);
    let wl = Box::new(FlashCrowd::new(target, cfg.n_clients as usize));
    // The crowd's opens land within a short burst window ("suddenly and
    // without warning", but not literally one instant — the paper's
    // Figure 7 spans a 0.2 s activity window).
    let mut sim = Simulation::with_start(cfg, snap, wl, crowd_at, SimDuration::from_millis(150));
    sim.run_until(duration);
    sim.finish()
}

/// Runs the crowd with TC on and off (in parallel).
pub fn run_flash(scale: ExperimentScale) -> FlashResult {
    let crowd_at = SimTime::from_millis(100);
    let duration = match scale {
        ExperimentScale::Quick => SimTime::from_millis(1_500),
        ExperimentScale::Full => SimTime::from_secs(3),
    };
    let settings = [true, false];
    let mut reports = parallel_map(&settings, |&tc| run_one(scale, tc, crowd_at, duration));
    let without_tc = reports.pop().expect("two runs");
    let with_tc = reports.pop().expect("two runs");
    FlashResult { with_tc, without_tc, crowd_at, duration }
}

/// Figure 7 table: cluster-wide replies/s and forwards/s per bin, for both
/// settings (the paper's top = no TC, bottom = TC).
pub fn fig7_table(r: &FlashResult, bin: SimDuration) -> Table {
    let mut t = Table::new(
        "Figure 7: flash crowd — replies and forwards per second, with/without traffic control",
        &["t_ms", "tc_replies/s", "tc_forwards/s", "notc_replies/s", "notc_forwards/s"],
    );
    let a = r.with_tc.reply_forward_rates(bin);
    let b = r.without_tc.reply_forward_rates(bin);
    for (pa, pb) in a.iter().zip(b.iter()) {
        t.row(&[
            format!("{:.0}", pa.0.as_secs_f64() * 1e3),
            format!("{:.0}", pa.1),
            format!("{:.0}", pa.2),
            format!("{:.0}", pb.1),
            format!("{:.0}", pb.2),
        ]);
    }
    t
}

/// Headline numbers: time for 95% of the crowd's opens to complete, and
/// total forwards, per setting.
pub struct FlashSummary {
    /// Seconds from crowd start until 95% of clients got a reply, TC on.
    pub tc_t95: f64,
    /// Same, TC off.
    pub notc_t95: f64,
    /// Total forwards, TC on.
    pub tc_forwards: u64,
    /// Total forwards, TC off.
    pub notc_forwards: u64,
}

/// Computes the flash-crowd summary.
pub fn flash_summary(r: &FlashResult, scale: ExperimentScale) -> FlashSummary {
    let crowd = crowd_size(scale) as f64;
    let t95 = |rep: &SimReport| {
        let mut served = 0.0;
        for (t, v) in serve_points(rep) {
            served += v;
            if served >= 0.95 * crowd {
                return t.saturating_since(r.crowd_at).as_secs_f64();
            }
        }
        r.duration.saturating_since(r.crowd_at).as_secs_f64()
    };
    FlashSummary {
        tc_t95: t95(&r.with_tc),
        notc_t95: t95(&r.without_tc),
        tc_forwards: r.with_tc.total_forwarded(),
        notc_forwards: r.without_tc.total_forwarded(),
    }
}

/// Cluster-wide served ops per sample row, in time order.
fn serve_points(rep: &SimReport) -> Vec<(SimTime, f64)> {
    let rows = rep.samples.field_rows("served");
    rows.map(|(t, served)| (SimTime::from_micros(t), served.iter().sum::<u64>() as f64)).collect()
}
