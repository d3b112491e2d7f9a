//! The sharded run's report: the shard-count-invariant text surface.

use dynmds_event::SimTime;
use dynmds_obs::{LatencyAgg, SnapshotSeries};
use dynmds_partition::StrategyKind;
use dynmds_proxy::ProxyStats;

use crate::cluster::ClusterCounters;
use crate::obs::ObsExport;
use crate::report::NodeSnapshot;

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
    /// Cluster-wide counts over the measurement window. The fields from
    /// `ops` to `scale_ins` repeat some of them only because `hostbench`
    /// reads those fields.
    pub counters: ClusterCounters,
    /// Completed client operations in the measurement window
    /// (`latency.count`).
    pub ops: u64,
    /// Operations served from a client lease (`counters.lease_hits`).
    pub lease_hits: u64,
    /// Operations abandoned at the retry cap (`counters.gave_up`).
    pub failed: u64,
    /// Balancer subtree migrations (`counters.migrations`).
    pub migrations: u64,
    /// Elastic standby activations over the whole run, warm-up included.
    pub scale_outs: u64,
    /// Elastic voluntary departures over the whole run, warm-up included.
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

    /// Client timeouts: lost messages and requests to a dead server.
    pub fn timeouts(&self) -> u64 {
        self.counters.net_lost + self.counters.failover_timeouts
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
            self.timeouts(),
            self.counters.retries,
            self.failed,
            self.counters.stale_replies,
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
}
