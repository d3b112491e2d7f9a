//! Simulation results, shaped for the paper's figures.

use dynmds_event::{SimDuration, SimTime};
use dynmds_metrics::Summary;
use dynmds_obs::SnapshotSeries;
use dynmds_partition::StrategyKind;

/// Final per-node state.
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// Cache hit rate over the measurement window.
    pub hit_rate: f64,
    /// Fraction of the cache holding prefix-only entries (Figure 3).
    pub prefix_fraction: f64,
    /// Cached entries at the end of the run.
    pub cache_len: usize,
    /// Operations served in the measurement window.
    pub served: u64,
    /// Requests forwarded away in the measurement window.
    pub forwarded: u64,
    /// Requests received in the measurement window.
    pub received: u64,
    /// Disk fetches in the measurement window.
    pub disk_fetches: u64,
    /// Reads served from replicas.
    pub replica_serves: u64,
}

/// Everything a run produced.
pub struct SimReport {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Cluster size.
    pub n_mds: u16,
    /// Start of the measurement window (after any warm-up reset).
    pub measure_start: SimTime,
    /// End of the run.
    pub measure_end: SimTime,
    /// Per-node sample series over the measurement window: one row per
    /// sampling window ([`crate::node::sample_row`]).
    pub samples: SnapshotSeries,
    /// Client-observed latency of completed operations (seconds).
    pub latency: Summary,
    /// Final per-node state.
    pub nodes: Vec<NodeSnapshot>,
    /// Rendered observability exports, when enabled for the run.
    pub obs: Option<crate::obs::ObsExport>,
}

impl SimReport {
    /// Measurement span in seconds.
    pub fn span_secs(&self) -> f64 {
        self.measure_end.saturating_since(self.measure_start).as_secs_f64()
    }

    /// Total operations served cluster-wide in the measurement window.
    pub fn total_served(&self) -> u64 {
        self.nodes.iter().map(|n| n.served).sum()
    }

    /// Total forwards in the measurement window.
    pub fn total_forwarded(&self) -> u64 {
        self.nodes.iter().map(|n| n.forwarded).sum()
    }

    /// Total received in the measurement window.
    pub fn total_received(&self) -> u64 {
        self.nodes.iter().map(|n| n.received).sum()
    }

    /// **Figure 2 quantity**: average per-MDS throughput (ops/s) over the
    /// measurement window.
    pub fn avg_mds_throughput(&self) -> f64 {
        let secs = self.span_secs();
        if secs <= 0.0 || self.n_mds == 0 {
            return 0.0;
        }
        self.total_served() as f64 / secs / self.n_mds as f64
    }

    /// **Figure 3 quantity**: mean prefix fraction of the caches, percent.
    pub fn mean_prefix_pct(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        100.0 * self.nodes.iter().map(|n| n.prefix_fraction).sum::<f64>() / self.nodes.len() as f64
    }

    /// **Figure 4 quantity**: cluster-wide cache hit rate, weighted by
    /// node activity.
    pub fn overall_hit_rate(&self) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.served).sum();
        if total == 0 {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.hit_rate * n.served as f64).sum::<f64>() / total as f64
    }

    /// Per node: the sum of sample field `field` over the rows in
    /// `[start, end)`.
    fn sums_in(&self, field: &str, start: SimTime, end: SimTime) -> Vec<f64> {
        let (start, end) = (start.as_micros(), end.as_micros());
        let mut sums = vec![0.0; self.nodes.len()];
        for (_, values) in self.samples.field_rows(field).filter(|&(t, _)| t >= start && t < end) {
            for (sum, &v) in sums.iter_mut().zip(values) {
                *sum += v as f64;
            }
        }
        sums
    }

    /// Cluster-wide sum of sample field `field` over `[start, end)`.
    fn total_in(&self, field: &str, start: SimTime, end: SimTime) -> f64 {
        self.sums_in(field, start, end).into_iter().sum()
    }

    /// **Figure 5 quantity**: per-bin (min, mean, max) of per-node
    /// throughput in ops/s.
    pub fn throughput_range_series(&self, bin: SimDuration) -> Vec<(SimTime, f64, f64, f64)> {
        let secs = bin.as_secs_f64();
        let mut out = Vec::new();
        let mut t = self.measure_start;
        while t < self.measure_end {
            let next = t + bin;
            let served = self.sums_in("served", t, next);
            let mut lo = f64::INFINITY;
            let mut hi: f64 = 0.0;
            let mut sum = 0.0;
            for &s in &served {
                let v = s / secs;
                lo = lo.min(v);
                hi = hi.max(v);
                sum += v;
            }
            if served.is_empty() {
                lo = 0.0;
            }
            out.push((t, lo, sum / served.len().max(1) as f64, hi));
            t = next;
        }
        out
    }

    /// **Figure 6 quantity**: fraction of received requests that were
    /// forwarded, per bin.
    pub fn forward_fraction_series(&self, bin: SimDuration) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        let mut t = self.measure_start;
        while t < self.measure_end {
            let next = t + bin;
            let fwd = self.total_in("forwarded", t, next);
            let recv = self.total_in("received", t, next);
            let frac = if recv > 0.0 { fwd / recv } else { 0.0 };
            out.push((t, frac));
            t = next;
        }
        out
    }

    /// **Figure 7 quantities**: cluster-wide replies/s and forwards/s per
    /// bin.
    pub fn reply_forward_rates(&self, bin: SimDuration) -> Vec<(SimTime, f64, f64)> {
        let secs = bin.as_secs_f64();
        let mut out = Vec::new();
        let mut t = self.measure_start;
        while t < self.measure_end {
            let next = t + bin;
            let served = self.total_in("served", t, next);
            let fwd = self.total_in("forwarded", t, next);
            out.push((t, served / secs, fwd / secs));
            t = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(nodes: Vec<NodeSnapshot>) -> SimReport {
        SimReport {
            strategy: StrategyKind::DynamicSubtree,
            n_mds: nodes.len() as u16,
            measure_start: SimTime::ZERO,
            measure_end: SimTime::from_secs(10),
            samples: crate::node::sample_series(nodes.len().max(1)),
            latency: Summary::new(),
            nodes,
            obs: None,
        }
    }

    fn node(served: u64, hit: f64, prefix: f64) -> NodeSnapshot {
        NodeSnapshot {
            hit_rate: hit,
            prefix_fraction: prefix,
            cache_len: 10,
            served,
            forwarded: 0,
            received: served,
            disk_fetches: 0,
            replica_serves: 0,
        }
    }

    #[test]
    fn throughput_math() {
        let r = report_with(vec![node(5000, 0.9, 0.2), node(3000, 0.8, 0.4)]);
        assert_eq!(r.total_served(), 8000);
        assert!((r.avg_mds_throughput() - 400.0).abs() < 1e-9, "8000 ops/10s/2 nodes");
    }

    #[test]
    fn prefix_pct_is_mean_of_nodes() {
        let r = report_with(vec![node(1, 1.0, 0.2), node(1, 1.0, 0.4)]);
        assert!((r.mean_prefix_pct() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_is_activity_weighted() {
        let r = report_with(vec![node(9000, 1.0, 0.0), node(1000, 0.0, 0.0)]);
        assert!((r.overall_hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn series_helpers_produce_bins() {
        let mut r = report_with(vec![node(100, 1.0, 0.0), node(100, 1.0, 0.0)]);
        for i in 0..10 {
            // served, forwarded, received, misses, then five fields the
            // series helpers do not read; two nodes each.
            let mut row = vec![10, 20, 2, 0, 12, 20, 0, 0];
            row.resize(crate::node::SAMPLE_FIELDS.len() * 2, 0);
            r.samples.push_row(i * 1_000_000, row);
        }
        let ranges = r.throughput_range_series(SimDuration::from_secs(2));
        assert_eq!(ranges.len(), 5);
        let (_, lo, mean, hi) = ranges[0];
        assert!((lo - 10.0).abs() < 1e-9);
        assert!((hi - 20.0).abs() < 1e-9);
        assert!((mean - 15.0).abs() < 1e-9);

        let fwd = r.forward_fraction_series(SimDuration::from_secs(10));
        assert_eq!(fwd.len(), 1);
        assert!((fwd[0].1 - 20.0 / 320.0).abs() < 1e-9);

        let rf = r.reply_forward_rates(SimDuration::from_secs(10));
        assert!((rf[0].1 - 30.0).abs() < 1e-9, "300 ops / 10 s");
        assert!((rf[0].2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = report_with(vec![]);
        assert_eq!(r.avg_mds_throughput(), 0.0);
        assert_eq!(r.mean_prefix_pct(), 0.0);
        assert_eq!(r.overall_hit_rate(), 0.0);
    }
}
