//! The sharded run's report: order-free latency aggregation, the
//! shard-count-invariant text surface and the obs export.

use dynmds_event::SimTime;
use dynmds_obs::{Registry, SnapshotSeries};
use dynmds_partition::StrategyKind;
use dynmds_proxy::ProxyStats;

use crate::obs::{ObsExport, Reader};
use crate::report::NodeSnapshot;

const LAT_BUCKETS: usize = 40;

/// Latency aggregate built purely from commutative integer updates
/// (count, sum, min, max, log2 bucket counts), so merging per-shard
/// aggregates in shard order yields the same bytes for every K.
#[derive(Clone, Debug)]
pub struct LatencyAgg {
    /// Completed-operation count.
    pub count: u64,
    /// Sum of latencies, µs.
    pub sum_us: u64,
    /// Minimum latency seen, µs (`u64::MAX` when empty).
    pub min_us: u64,
    /// Maximum latency seen, µs.
    pub max_us: u64,
    /// `buckets[i]` counts latencies with `floor(log2(us)) == i - 1`
    /// (bucket 0 is `0 µs`, i.e. client-local lease completions).
    pub buckets: [u64; LAT_BUCKETS],
}

impl LatencyAgg {
    pub(super) fn new() -> Self {
        LatencyAgg { count: 0, sum_us: 0, min_us: u64::MAX, max_us: 0, buckets: [0; LAT_BUCKETS] }
    }

    pub(super) fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        let b = if us == 0 { 0 } else { (64 - us.leading_zeros()) as usize };
        self.buckets[b.min(LAT_BUCKETS - 1)] += 1;
    }

    pub(super) fn merge(&mut self, other: &LatencyAgg) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile: the lower bound (power of two) of the
    /// bucket containing the q-th latency.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        self.max_us
    }
}

/// Results of a sharded run. Every field is derived from commutative
/// per-entity aggregates read out in global id order — the
/// shard-count-invariant report surface.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Cluster size.
    pub n_mds: u16,
    /// Proxy-tier size the run was configured with (0 = tier off;
    /// `proxy` is then all zero and absent from `render`).
    pub proxies: u16,
    /// The proxy tier's counters, summed over every proxy.
    pub proxy: ProxyStats,
    /// Measurement window start.
    pub measure_start: SimTime,
    /// Measurement window end.
    pub measure_end: SimTime,
    /// Per-node counts over the measurement window, id order.
    pub nodes: Vec<NodeSnapshot>,
    /// Completed client operations in the measurement window.
    pub ops: u64,
    /// Operations served from a client lease.
    pub lease_hits: u64,
    /// Lost-message timeouts observed.
    pub timeouts: u64,
    /// Retransmissions issued.
    pub retries: u64,
    /// Operations abandoned at the retry cap.
    pub failed: u64,
    /// Replies discarded as stale (duplicates, late retries).
    pub stale_replies: u64,
    /// Balancer subtree migrations.
    pub migrations: u64,
    /// Elastic standby activations over the whole run.
    pub scale_outs: u64,
    /// Elastic voluntary departures over the whole run.
    pub scale_ins: u64,
    /// Provisioned capacity consumed in the measurement window, in
    /// node-microseconds (`n_mds` × span for statically provisioned
    /// runs; the heartbeat-integrated live population for elastic runs).
    pub provisioned_node_us: u64,
    /// Completion-latency aggregate.
    pub latency: LatencyAgg,
    /// Per-node sample series over the measurement window: one row per
    /// sample tick ([`crate::node::sample_row`]).
    pub samples: SnapshotSeries,
    /// Observability export, when `cfg.obs.metrics` was on.
    pub obs: Option<ObsExport>,
}

impl ShardReport {
    /// Measurement span in seconds.
    pub fn span_secs(&self) -> f64 {
        (self.measure_end.as_micros() - self.measure_start.as_micros()) as f64 / 1e6
    }

    /// Provisioned capacity in node-seconds.
    pub fn provisioned_node_secs(&self) -> f64 {
        self.provisioned_node_us as f64 / 1e6
    }

    /// Completed ops per second per MDS.
    pub fn avg_mds_throughput(&self) -> f64 {
        let span = self.span_secs();
        if span <= 0.0 {
            0.0
        } else {
            self.ops as f64 / span / self.n_mds as f64
        }
    }

    /// Renders the shard-count-invariant text report (the surface the
    /// golden-diff CI step compares).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== sharded {:?}: {} MDS, {:.1}s measured ===",
            self.strategy,
            self.n_mds,
            self.span_secs()
        );
        let _ = writeln!(
            out,
            "ops {} ({:.1}/s per MDS)  lease hits {}  timeouts {}  retries {}  failed {}  stale {}  migrations {}",
            self.ops,
            self.avg_mds_throughput(),
            self.lease_hits,
            self.timeouts,
            self.retries,
            self.failed,
            self.stale_replies,
            self.migrations
        );
        if self.strategy == StrategyKind::ElasticSubtree {
            let _ = writeln!(
                out,
                "elastic: node-secs {:.1}  scale-outs {}  scale-ins {}",
                self.provisioned_node_secs(),
                self.scale_outs,
                self.scale_ins
            );
        }
        if self.proxies > 0 {
            let _ = writeln!(
                out,
                "proxy ({}): absorbed {}  coalesced {}  forwarded {}  flushed {} in {} batches",
                self.proxies,
                self.proxy.read_absorbs,
                self.proxy.writes_coalesced,
                self.proxy.forwarded,
                self.proxy.flushed_items,
                self.proxy.flush_batches
            );
        }
        let _ = writeln!(
            out,
            "latency µs: mean {:.1}  p50 {}  p99 {}  max {}",
            self.latency.mean_us(),
            self.latency.quantile_us(0.50),
            self.latency.quantile_us(0.99),
            if self.latency.count == 0 { 0 } else { self.latency.max_us }
        );
        let mut table = dynmds_metrics::Table::new(
            "per-node",
            &["mds", "served", "fwd", "recv", "hit%", "prefix%", "cached", "fetches", "replica"],
        );
        for (i, n) in self.nodes.iter().enumerate() {
            table.row(&[
                i.to_string(),
                n.served.to_string(),
                n.forwarded.to_string(),
                n.received.to_string(),
                format!("{:.1}", n.hit_rate * 100.0),
                format!("{:.1}", n.prefix_fraction * 100.0),
                n.cache_len.to_string(),
                n.disk_fetches.to_string(),
                n.replica_serves.to_string(),
            ]);
        }
        out.push_str(&table.render());
        out
    }

    /// Builds the deterministic obs export from the report's aggregates:
    /// counters in fixed registration order, per-node slots in id order,
    /// latency buckets, and the barrier-sampled sample series.
    pub(super) fn obs_export(&self) -> ObsExport {
        let mut reg = Registry::new();
        for (name, v) in [
            ("client.ops", self.ops),
            ("client.lease_hits", self.lease_hits),
            ("client.timeouts", self.timeouts),
            ("client.retries", self.retries),
            ("client.failed", self.failed),
            ("client.stale_replies", self.stale_replies),
            ("balancer.migrations", self.migrations),
            ("elastic_scale_outs", self.scale_outs),
            ("elastic_scale_ins", self.scale_ins),
        ] {
            reg.counter(name, &[v]);
        }
        let node_counters: [Reader<NodeSnapshot>; 5] = [
            ("mds.served", |n| n.served),
            ("mds.forwarded", |n| n.forwarded),
            ("mds.received", |n| n.received),
            ("mds.disk_fetches", |n| n.disk_fetches),
            ("mds.replica_serves", |n| n.replica_serves),
        ];
        for (name, get) in node_counters {
            reg.counter(name, &self.nodes.iter().map(get).collect::<Vec<_>>());
        }
        reg.counter("latency.log2_us", &self.latency.buckets);
        // Proxy counters register last and only when the tier is on, so
        // proxy-off metric exports are byte-identical to pre-proxy builds.
        if self.proxies > 0 {
            for (name, v) in [
                ("proxy.absorbed", self.proxy.read_absorbs),
                ("proxy.coalesced", self.proxy.writes_coalesced),
                ("proxy.forwarded", self.proxy.forwarded),
                ("proxy.flushed_items", self.proxy.flushed_items),
                ("proxy.flushes", self.proxy.flush_batches),
            ] {
                reg.counter(name, &[v]);
            }
        }
        let snapshots_jsonl = self.samples.to_jsonl();
        let summary = format!(
            "sharded run: {} ops, {} lease hits, {} timeouts, {} retries, {} migrations, {} scale-outs, {} scale-ins\n",
            self.ops,
            self.lease_hits,
            self.timeouts,
            self.retries,
            self.migrations,
            self.scale_outs,
            self.scale_ins
        );
        ObsExport { metrics_jsonl: reg.to_jsonl(), snapshots_jsonl, trace_jsonl: None, summary }
    }
}
