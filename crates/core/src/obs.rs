//! Observability for both engines: the one metric schema, the one
//! summary, and the legacy engine's op-lifecycle spans (see `dynmds-obs`
//! for the instruments themselves).
//!
//! Each engine counts every event once, in counters both engines share:
//! each node's [`LifeCounters`], the cluster-wide [`ClusterCounters`]
//! and each proxy's [`ProxyStats`], plus the completion-latency
//! [`LatencyAgg`]. When a run ends, the engine hands what it measured
//! over the measurement window to `export` as one `Measured`, which
//! renders every metric and the summary. So both engines export the
//! same metric names in the same order; the proxy and elastic groups
//! appear when the config enables them, whatever the engine.
//!
//! [`ClusterObs`] records only what has no engine twin: the legacy
//! engine's op-lifecycle spans (`--obs-trace`). Every hook begins with
//! one branch on whether tracing is live, so an untraced run pays one
//! predictable untaken branch per hook and nothing else: no allocation,
//! no hashing, no formatting. Obs-on and obs-off runs execute the same
//! counting code.
//!
//! Determinism: counters are integers read from the (deterministic)
//! engine state, and spans are stamped with the sim clock, so metrics,
//! snapshots and trace exports are byte-identical across runs with the
//! same seed.

use dynmds_event::SimTime;
use dynmds_obs::{ObsConfig, Registry, SnapshotSeries, SpanRecorder, DEFAULT_TRACE_CAPACITY};
use dynmds_proxy::ProxyStats;

use crate::cluster::{Cluster, ClusterCounters};
use crate::node::{LifeCounters, MdsNode};

pub use dynmds_obs::{LatencyAgg, SpanStage};

/// Stable lowercase tag for an op kind (span `kind` field).
pub fn op_kind_tag(kind: dynmds_workload::OpKind) -> &'static str {
    use dynmds_workload::OpKind::*;
    match kind {
        Stat => "stat",
        Lookup => "lookup",
        Open => "open",
        Close => "close",
        Readdir => "readdir",
        Create => "create",
        Mkdir => "mkdir",
        Unlink => "unlink",
        Rename => "rename",
        Chmod => "chmod",
        SetAttr => "setattr",
        Link => "link",
    }
}

/// Everything the observability layer produced, rendered at end of run.
#[derive(Clone, Debug)]
pub struct ObsExport {
    /// One JSONL line per metric.
    pub metrics_jsonl: String,
    /// One JSONL line per snapshot row.
    pub snapshots_jsonl: String,
    /// One JSONL line per retained op span (`--obs-trace` only).
    pub trace_jsonl: Option<String>,
    /// Human-readable digest of the run.
    pub summary: String,
}

/// A counter's export name and how to read its value from a `T`.
type Reader<T> = (&'static str, fn(&T) -> u64);

/// The per-MDS counters in export order.
const NODE_COUNTERS: [Reader<LifeCounters>; 12] = [
    ("received", |l| l.received),
    ("served", |l| l.served),
    ("forwarded", |l| l.forwarded),
    ("replica_serves", |l| l.replica_serves),
    ("prefix_misses", |l| l.prefix_misses),
    ("target_misses", |l| l.target_misses),
    ("remote_prefix_fetches", |l| l.remote_prefix_fetches),
    ("disk_fetches", |l| l.disk_fetches),
    ("journal_commits", |l| l.journal_commits),
    ("journal_writebacks", |l| l.journal_writebacks),
    ("shared_write_absorbed", |l| l.shared_absorbed),
    ("journal_warmed_items", |l| l.journal_warmed),
];

/// The cluster-wide counters in export order.
const CLUSTER_COUNTERS: [Reader<ClusterCounters>; 16] = [
    ("estale_replies", |k| k.estale),
    ("stale_replies", |k| k.stale_replies),
    ("lease_local_reads", |k| k.lease_hits),
    ("failover_timeouts", |k| k.failover_timeouts),
    ("replications", |k| k.replications),
    ("dereplications", |k| k.dereplications),
    ("shared_write_flushes", |k| k.shared_write_flushes),
    ("subtree_migrations", |k| k.migrations),
    ("delegation_splits", |k| k.delegation_splits),
    ("delegation_merges", |k| k.delegation_merges),
    ("node_failures", |k| k.failures),
    ("node_recoveries", |k| k.recoveries),
    ("client_retries", |k| k.retries),
    ("ops_gave_up", |k| k.gave_up),
    ("net_messages_lost", |k| k.net_lost),
    ("net_messages_duplicated", |k| k.net_dup),
];

/// The elastic controller's counters, exported when it runs.
const ELASTIC_COUNTERS: [Reader<ClusterCounters>; 2] =
    [("elastic_scale_outs", |k| k.scale_outs), ("elastic_scale_ins", |k| k.scale_ins)];

/// The proxy-tier counters in export order, one slot per proxy, exported
/// when the tier is on.
const PROXY_COUNTERS: [Reader<ProxyStats>; 6] = [
    ("proxy_neg_hits", |s| s.neg_hits),
    ("proxy_read_absorbs", |s| s.read_absorbs),
    ("proxy_writes_coalesced", |s| s.writes_coalesced),
    ("proxy_flushed_items", |s| s.flushed_items),
    ("proxy_flush_batches", |s| s.flush_batches),
    ("proxy_forwarded", |s| s.forwarded),
];

/// What a run measured over its measurement window, in the shape both
/// engines export.
pub(crate) struct Measured<'a> {
    /// Each node's counts, in id order.
    pub nodes: Vec<LifeCounters>,
    /// The cluster-wide counts.
    pub counters: ClusterCounters,
    /// Whether the elastic controller ran.
    pub elastic: bool,
    /// Each proxy's counts, in id order; empty when the tier is off.
    pub proxies: &'a [ProxyStats],
    /// Completion latencies.
    pub latency: &'a LatencyAgg,
    /// The per-node sample series.
    pub samples: &'a SnapshotSeries,
    /// Op-lifecycle spans, when traced.
    pub spans: Option<&'a SpanRecorder>,
}

/// Renders every export of a run: metrics (per-MDS counters, cluster-wide
/// counters, then the elastic and proxy groups when enabled, then the
/// latency histogram), snapshots, spans and the summary.
pub(crate) fn export(m: &Measured) -> ObsExport {
    let mut reg = Registry::new();
    for (name, get) in NODE_COUNTERS {
        reg.per_mds(name, &m.nodes.iter().map(get).collect::<Vec<_>>());
    }
    let elastic: &[Reader<ClusterCounters>] = if m.elastic { &ELASTIC_COUNTERS } else { &[] };
    for (name, get) in CLUSTER_COUNTERS.iter().chain(elastic) {
        reg.scalar(name, get(&m.counters));
    }
    if !m.proxies.is_empty() {
        for (name, get) in PROXY_COUNTERS {
            reg.per_proxy(name, &m.proxies.iter().map(get).collect::<Vec<_>>());
        }
    }
    reg.histogram("latency_us", m.latency);
    ObsExport {
        metrics_jsonl: reg.to_jsonl(),
        snapshots_jsonl: m.samples.to_jsonl(),
        trace_jsonl: m.spans.map(SpanRecorder::to_jsonl),
        summary: summary(m),
    }
}

fn summary(m: &Measured) -> String {
    let mut t = dynmds_metrics::Table::new(
        "observability summary (per MDS)",
        &["node", "recv", "served", "fwd", "replica", "pfx miss", "tgt miss", "disk", "journal"],
    );
    for (i, l) in m.nodes.iter().enumerate() {
        t.row(&[
            format!("mds{i}"),
            l.received.to_string(),
            l.served.to_string(),
            l.forwarded.to_string(),
            l.replica_serves.to_string(),
            l.prefix_misses.to_string(),
            l.target_misses.to_string(),
            l.disk_fetches.to_string(),
            l.journal_commits.to_string(),
        ]);
    }
    let mut out = t.render();
    let (lat, k) = (m.latency, &m.counters);
    out.push_str(&format!(
        "\nlatency µs: mean {:.1}, ~p50 {}, ~p99 {}, max {} over {} ops\n",
        lat.mean_us(),
        lat.quantile_us(0.5),
        lat.quantile_us(0.99),
        lat.max_us,
        lat.count,
    ));
    out.push_str(&format!(
        "cluster: lease-local {}, estale {}, stale {}, failover timeouts {}, replications {} \
         (-{}), migrations {}, splits {}, merges {}, failures {}, recoveries {}\n",
        k.lease_hits,
        k.estale,
        k.stale_replies,
        k.failover_timeouts,
        k.replications,
        k.dereplications,
        k.migrations,
        k.delegation_splits,
        k.delegation_merges,
        k.failures,
        k.recoveries,
    ));
    out.push_str(&format!(
        "faults: retries {}, gave up {}, net lost {}, net dup {}\n",
        k.retries, k.gave_up, k.net_lost, k.net_dup,
    ));
    if m.elastic {
        out.push_str(&format!("elastic: scale-outs {}, scale-ins {}\n", k.scale_outs, k.scale_ins));
    }
    if !m.proxies.is_empty() {
        let p: ProxyStats = m.proxies.iter().sum();
        out.push_str(&format!(
            "proxy ({}): neg hits {}, read absorbs {}, coalesced {}, flushed {} in {} batches, \
             forwarded {}\n",
            m.proxies.len(),
            p.neg_hits,
            p.read_absorbs,
            p.writes_coalesced,
            p.flushed_items,
            p.flush_batches,
            p.forwarded,
        ));
    }
    out.push_str(&format!(
        "snapshots: {} rows × {} fields",
        m.samples.len(),
        m.samples.fields().len()
    ));
    if let Some(spans) = m.spans {
        out.push_str(&format!(
            "; spans: {} retained, {} dropped, {} started",
            spans.len(),
            spans.dropped(),
            spans.started()
        ));
    }
    out.push('\n');
    out
}

/// The legacy engine's op-lifecycle span recorder. Untraced, it is a
/// `None` and every hook is a single branch.
pub struct ClusterObs {
    spans: Option<Box<SpanRecorder>>,
}

impl ClusterObs {
    /// Builds the recorder for `n_clients` clients; it records only when
    /// `cfg.trace` is on.
    pub fn new(cfg: ObsConfig, n_clients: usize) -> Self {
        let spans =
            cfg.trace.then(|| Box::new(SpanRecorder::new(n_clients, DEFAULT_TRACE_CAPACITY)));
        ClusterObs { spans }
    }

    /// Whether span tracing is live.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    /// Client dispatched an op: open its span.
    #[inline]
    pub fn on_issue(&mut self, now: SimTime, client: u32, kind: &'static str) {
        if let Some(spans) = &mut self.spans {
            spans.start(client, kind, now.as_micros());
        }
    }

    /// Records `stage` of `client`'s open span at `at`, on `mds` (or
    /// [`NO_MDS`](dynmds_obs::span::NO_MDS) for a client-side stage).
    #[inline]
    pub fn span(&mut self, client: u32, stage: SpanStage, at: SimTime, mds: u16) {
        if let Some(spans) = &mut self.spans {
            spans.event(client, stage, at.as_micros(), mds);
        }
    }

    /// Closes `client`'s span with the terminal `stage` at `at`, on
    /// `mds` (or [`NO_MDS`](dynmds_obs::span::NO_MDS)).
    #[inline]
    pub fn finish(&mut self, client: u32, stage: SpanStage, at: SimTime, mds: u16) {
        if let Some(spans) = &mut self.spans {
            spans.finish(client, stage, at.as_micros(), mds);
        }
    }

    /// Clears the recorded spans (measurement restart after warm-up).
    pub fn reset(&mut self) {
        if let Some(spans) = &mut self.spans {
            spans.reset();
        }
    }

    /// Renders every export of cluster `c` over its measurement window;
    /// `None` when observability is disabled. The latency histogram is
    /// built from the cluster's latency samples, whole microseconds held
    /// as seconds, so the conversion back is exact.
    pub fn export(&self, c: &Cluster) -> Option<ObsExport> {
        if !c.cfg.obs.enabled() {
            return None;
        }
        let mut latency = LatencyAgg::new();
        for s in c.latency.samples() {
            latency.record((s * 1e6).round() as u64);
        }
        let proxies: Vec<ProxyStats> = c.proxies.iter().map(|p| *p.stats()).collect();
        Some(export(&Measured {
            nodes: c.nodes.iter().map(MdsNode::measured).collect(),
            counters: c.measured_counters(),
            elastic: c.cfg.strategy == dynmds_partition::StrategyKind::ElasticSubtree,
            proxies: &proxies,
            latency: &latency,
            samples: &c.samples,
            spans: self.spans.as_deref(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use dynmds_partition::StrategyKind;

    use super::*;
    use crate::testutil::{tiny_cluster, tiny_cluster_with};

    #[test]
    fn disabled_layer_is_inert_and_exports_nothing() {
        let c = tiny_cluster(StrategyKind::DynamicSubtree);
        let mut obs = ClusterObs::new(ObsConfig::default(), 8);
        assert!(!obs.tracing());
        obs.finish(0, SpanStage::Reply, SimTime::from_millis(2), 0);
        assert!(obs.export(&c).is_none());
    }

    #[test]
    fn metrics_only_layer_renders_engine_counters_without_spans() {
        let mut c = tiny_cluster_with(StrategyKind::DynamicSubtree, |cfg| {
            cfg.obs = ObsConfig::metrics_only();
        });
        c.nodes[1].life.served = 1;
        c.latency.record(0.002_5);
        assert!(!c.obs.tracing());
        let e = c.obs.export(&c).unwrap();
        assert!(e.metrics_jsonl.contains("\"name\":\"served\",\"per_mds\":[0,1,0,0]"));
        assert!(e.metrics_jsonl.contains("\"name\":\"latency_us\",\"count\":1,\"sum\":2500"));
        assert!(e.trace_jsonl.is_none());
        assert!(e.summary.contains("mds1"));
    }

    #[test]
    fn traced_op_produces_one_span_line() {
        let c = tiny_cluster_with(StrategyKind::DynamicSubtree, |cfg| cfg.obs = ObsConfig::full());
        let mut obs = ClusterObs::new(ObsConfig::full(), 4);
        assert!(obs.tracing());
        obs.on_issue(SimTime::from_micros(10), 3, "stat");
        obs.span(3, SpanStage::Arrive, SimTime::from_micros(110), 0);
        obs.span(3, SpanStage::CacheHit, SimTime::from_micros(110), 0);
        obs.finish(3, SpanStage::Reply, SimTime::from_micros(400), 0);
        let e = obs.export(&c).unwrap();
        let trace = e.trace_jsonl.unwrap();
        assert_eq!(trace.lines().count(), 1);
        assert!(trace.contains("\"kind\":\"stat\""));
        assert!(trace.contains("cache_hit"));
    }

    #[test]
    fn reset_measurement_restarts_counters_and_clears_spans() {
        let mut c =
            tiny_cluster_with(StrategyKind::DynamicSubtree, |cfg| cfg.obs = ObsConfig::full());
        c.nodes[0].life.served = 5;
        c.counters.migrations = 3;
        c.obs.on_issue(SimTime::ZERO, 0, "open");
        c.samples.push_row(1_000_000, vec![0; crate::node::SAMPLE_FIELDS.len() * 4]);
        c.reset_measurement(SimTime::from_secs(1));
        c.counters.migrations += 1;
        let e = c.obs.export(&c).unwrap();
        assert!(e.metrics_jsonl.contains("\"name\":\"served\",\"per_mds\":[0,0,0,0]"));
        assert!(e.metrics_jsonl.contains("\"name\":\"subtree_migrations\",\"value\":1"));
        assert_eq!(c.counters.migrations, 4, "the cluster's own counts stay lifetime");
        assert_eq!(e.snapshots_jsonl, "");
        assert_eq!(e.trace_jsonl.unwrap(), "");
    }

    #[test]
    fn op_kind_tags_are_stable() {
        assert_eq!(op_kind_tag(dynmds_workload::OpKind::Stat), "stat");
        assert_eq!(op_kind_tag(dynmds_workload::OpKind::SetAttr), "setattr");
    }
}
