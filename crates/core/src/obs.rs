//! Cluster-side observability wiring (see `dynmds-obs` for the
//! instruments themselves).
//!
//! The engine counts every event once, in its own counters: each node's
//! [`LifeCounters`], the cluster's [`ClusterCounters`](crate::cluster::ClusterCounters)
//! and each proxy's [`ProxyStats`]. [`ClusterObs`] records only what has
//! no engine twin — the op-lifecycle spans and the latency and hop
//! histograms sampled at reply time — and [`ClusterObs::export`] renders
//! the counters over the measurement window, and the engine's per-node
//! sample series as the snapshot export, when the run ends. Obs-on and
//! obs-off runs therefore execute the same counting code. Every hook begins with
//! one branch on whether the layer is live, so a simulation with
//! observability disabled pays one predictable untaken branch per hook
//! and nothing else: no allocation, no hashing, no formatting.
//!
//! Determinism: hooks are called from the (deterministic) event loop and
//! record integers stamped with the sim clock, so metrics, snapshots and
//! trace exports are byte-identical across runs with the same seed.

use dynmds_event::SimTime;
use dynmds_namespace::MdsId;
use dynmds_obs::registry::{HOPS_BOUNDS, LATENCY_BOUNDS_US};
use dynmds_obs::span::NO_MDS;
use dynmds_obs::{HistogramId, ObsConfig, Registry, SpanRecorder, DEFAULT_TRACE_CAPACITY};
use dynmds_proxy::ProxyStats;

use crate::cluster::Cluster;
use crate::node::{LifeCounters, MdsNode};

pub use dynmds_obs::SpanStage;

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
    /// One JSONL line per registered metric.
    pub metrics_jsonl: String,
    /// One JSONL line per snapshot row.
    pub snapshots_jsonl: String,
    /// One JSONL line per retained op span (`--obs-trace` only).
    pub trace_jsonl: Option<String>,
    /// Human-readable digest of the run.
    pub summary: String,
}

/// A counter's export name and how to read its value from a `T`.
pub(crate) type Reader<T> = (&'static str, fn(&T) -> u64);

/// The per-MDS counters in export order, each read from a node's
/// [`LifeCounters`] over the measurement window.
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

/// The proxy-tier counters in export order, one slot per proxy, each read
/// from a proxy's [`ProxyStats`]. Registered after every other counter
/// and only when the tier is on, so proxy-off exports keep the pre-proxy
/// metric set and order.
const PROXY_COUNTERS: [Reader<ProxyStats>; 5] = [
    ("proxy_neg_hits", |s| s.neg_hits),
    ("proxy_read_absorbs", |s| s.read_absorbs),
    ("proxy_writes_coalesced", |s| s.writes_coalesced),
    ("proxy_flushed_items", |s| s.flushed_items),
    ("proxy_forwarded", |s| s.forwarded),
];

/// The cluster-wide counters in export order, over the measurement
/// window.
fn scalar_counters(c: &Cluster) -> [(&'static str, u64); 15] {
    let m = c.measured_counters();
    [
        ("estale_replies", m.estale),
        ("lease_local_reads", c.measured_lease_hits()),
        ("failover_timeouts", m.failover_timeouts),
        ("replications", m.replications),
        ("dereplications", m.dereplications),
        ("shared_write_flushes", m.shared_write_flushes),
        ("subtree_migrations", m.migrations),
        ("delegation_splits", m.delegation_splits),
        ("delegation_merges", m.delegation_merges),
        ("node_failures", m.failures),
        ("node_recoveries", m.recoveries),
        ("client_retries", m.retries),
        ("ops_gave_up", m.gave_up),
        ("net_messages_lost", m.net_lost),
        ("net_messages_duplicated", m.net_dup),
    ]
}

/// Records every counter in export order (per-MDS, cluster-wide, then
/// proxy) from the engine's counters.
fn counter_registry(c: &Cluster) -> Registry {
    let mut reg = Registry::new();
    let measured: Vec<LifeCounters> = c.nodes.iter().map(MdsNode::measured).collect();
    for (name, get) in NODE_COUNTERS {
        reg.counter(name, &measured.iter().map(get).collect::<Vec<_>>());
    }
    for (name, v) in scalar_counters(c) {
        reg.counter(name, &[v]);
    }
    if !c.proxies.is_empty() {
        for (name, get) in PROXY_COUNTERS {
            reg.counter(name, &c.proxies.iter().map(|p| get(p.stats())).collect::<Vec<_>>());
        }
    }
    reg
}

struct Inner {
    /// Holds only the two histograms below; counters are rendered from
    /// the engine at export and print before them.
    hists: Registry,
    latency_us: HistogramId,
    hops: HistogramId,
    spans: Option<SpanRecorder>,
}

impl Inner {
    fn observe_reply(&mut self, reply_at: SimTime, issued_at: SimTime, hops: u64) {
        self.hists.observe(self.latency_us, reply_at.saturating_since(issued_at).as_micros());
        self.hists.observe(self.hops, hops);
    }
}

/// The per-cluster observability layer. Disabled, it is a `None` and
/// every hook is a single branch.
pub struct ClusterObs {
    inner: Option<Box<Inner>>,
}

impl ClusterObs {
    /// Builds the layer for `n_clients` clients.
    pub fn new(cfg: ObsConfig, n_clients: usize) -> Self {
        if !cfg.enabled() {
            return ClusterObs { inner: None };
        }
        let mut hists = Registry::new();
        let latency_us = hists.histogram("latency_us", LATENCY_BOUNDS_US);
        let hops = hists.histogram("hops", HOPS_BOUNDS);
        let spans = cfg.trace.then(|| SpanRecorder::new(n_clients, DEFAULT_TRACE_CAPACITY));
        ClusterObs { inner: Some(Box::new(Inner { hists, latency_us, hops, spans })) }
    }

    /// Whether span tracing is live.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.spans.is_some())
    }

    /// The span recorder, when tracing is live.
    #[inline]
    fn spans(&mut self) -> Option<&mut SpanRecorder> {
        self.inner.as_mut()?.spans.as_mut()
    }

    // ---- op lifecycle hooks -------------------------------------------

    /// Client dispatched an op: open its span.
    #[inline]
    pub fn on_issue(&mut self, now: SimTime, client: u32, kind: &'static str) {
        if let Some(spans) = self.spans() {
            spans.start(client, kind, now.as_micros());
        }
    }

    /// Records `stage` of `client`'s open span at `at`, on `mds` (or
    /// [`NO_MDS`] for a client-side stage).
    #[inline]
    pub fn span(&mut self, client: u32, stage: SpanStage, at: SimTime, mds: u16) {
        if let Some(spans) = self.spans() {
            spans.event(client, stage, at.as_micros(), mds);
        }
    }

    /// Closes `client`'s span with the terminal `stage` at `at`, on
    /// `mds` (or [`NO_MDS`]).
    #[inline]
    pub fn finish(&mut self, client: u32, stage: SpanStage, at: SimTime, mds: u16) {
        if let Some(spans) = self.spans() {
            spans.finish(client, stage, at.as_micros(), mds);
        }
    }

    /// The reply reached its client: close the span, record latency/hops.
    #[inline]
    pub fn on_reply(
        &mut self,
        reply_at: SimTime,
        client: u32,
        mds: MdsId,
        issued_at: SimTime,
        hops: u8,
    ) {
        let Some(inner) = &mut self.inner else { return };
        inner.observe_reply(reply_at, issued_at, hops as u64);
        if let Some(spans) = &mut inner.spans {
            spans.finish(client, SpanStage::Reply, reply_at.as_micros(), mds.0);
        }
    }

    /// A proxy answered an op from its own caches: the op never entered
    /// the cluster. Records latency and a zero hop count, closes the span.
    #[inline]
    pub fn on_proxy_serve(&mut self, reply_at: SimTime, client: u32, issued_at: SimTime) {
        let Some(inner) = &mut self.inner else { return };
        inner.observe_reply(reply_at, issued_at, 0);
        if let Some(spans) = &mut inner.spans {
            spans.finish(client, SpanStage::Reply, reply_at.as_micros(), NO_MDS);
        }
    }

    // ---- reset, export ------------------------------------------------

    /// Clears all recorded data (measurement restart after warm-up).
    pub fn reset(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.hists.reset();
        if let Some(spans) = &mut inner.spans {
            spans.reset();
        }
    }

    /// Renders every export of cluster `c`, its counters read from the
    /// engine. `None` when observability is disabled.
    pub fn export(&self, c: &Cluster) -> Option<ObsExport> {
        let inner = self.inner.as_ref()?;
        let mut metrics_jsonl = counter_registry(c).to_jsonl();
        metrics_jsonl.push_str(&inner.hists.to_jsonl());
        Some(ObsExport {
            metrics_jsonl,
            snapshots_jsonl: c.samples.to_jsonl(),
            trace_jsonl: inner.spans.as_ref().map(|s| s.to_jsonl()),
            summary: Self::render_summary(inner, c),
        })
    }

    fn render_summary(inner: &Inner, c: &Cluster) -> String {
        let mut t = dynmds_metrics::Table::new(
            "observability summary (per MDS)",
            &[
                "node", "recv", "served", "fwd", "replica", "pfx miss", "tgt miss", "disk",
                "journal",
            ],
        );
        for (i, n) in c.nodes.iter().enumerate() {
            let l = n.measured();
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
        let (reg, lat) = (&inner.hists, inner.latency_us);
        out.push_str(&format!(
            "\nlatency: mean {:.2} ms, ~p50 {:.2} ms, ~p99 {:.2} ms over {} ops\n",
            reg.histogram_mean(lat) / 1e3,
            reg.histogram_quantile(lat, 0.5) as f64 / 1e3,
            reg.histogram_quantile(lat, 0.99) as f64 / 1e3,
            reg.histogram_count(lat),
        ));
        let m = c.measured_counters();
        out.push_str(&format!(
            "cluster: lease-local {}, estale {}, failover timeouts {}, replications {} (-{}), \
             migrations {}, splits {}, merges {}, failures {}, recoveries {}\n",
            c.measured_lease_hits(),
            m.estale,
            m.failover_timeouts,
            m.replications,
            m.dereplications,
            m.migrations,
            m.delegation_splits,
            m.delegation_merges,
            m.failures,
            m.recoveries,
        ));
        out.push_str(&format!(
            "faults: retries {}, gave up {}, net lost {}, net dup {}\n",
            m.retries, m.gave_up, m.net_lost, m.net_dup,
        ));
        if !c.proxies.is_empty() {
            let p = c.proxy_stats();
            out.push_str(&format!(
                "proxy ({}): neg hits {}, read absorbs {}, coalesced {}, flushed {}, forwarded {}\n",
                c.proxies.len(),
                p.neg_hits,
                p.read_absorbs,
                p.writes_coalesced,
                p.flushed_items,
                p.forwarded,
            ));
        }
        out.push_str(&format!(
            "snapshots: {} rows × {} fields",
            c.samples.len(),
            c.samples.fields().len()
        ));
        if let Some(spans) = &inner.spans {
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
}

#[cfg(test)]
mod tests {
    use dynmds_partition::StrategyKind;

    use super::*;
    use crate::testutil::tiny_cluster;

    #[test]
    fn disabled_layer_is_inert_and_exports_nothing() {
        let c = tiny_cluster(StrategyKind::DynamicSubtree);
        let mut obs = ClusterObs::new(ObsConfig::default(), 8);
        assert!(!obs.tracing());
        obs.on_reply(SimTime::from_millis(2), 0, MdsId(0), SimTime::from_millis(1), 0);
        assert!(obs.export(&c).is_none());
    }

    #[test]
    fn metrics_only_layer_renders_engine_counters_without_spans() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.nodes[1].life.served = 1;
        let mut obs = ClusterObs::new(ObsConfig::metrics_only(), 8);
        assert!(!obs.tracing());
        obs.span(0, SpanStage::Arrive, SimTime::from_millis(1), 1);
        obs.on_reply(SimTime::from_millis(3), 0, MdsId(1), SimTime::from_millis(1), 1);
        let e = obs.export(&c).unwrap();
        assert!(e.metrics_jsonl.contains("\"name\":\"served\",\"per_mds\":[0,1,0,0]"));
        assert!(e.metrics_jsonl.contains("\"name\":\"latency_us\",\"count\":1"));
        assert!(e.trace_jsonl.is_none());
        assert!(e.summary.contains("mds1"));
    }

    #[test]
    fn traced_op_produces_one_span_line() {
        let c = tiny_cluster(StrategyKind::DynamicSubtree);
        let mut obs = ClusterObs::new(ObsConfig::full(), 4);
        assert!(obs.tracing());
        obs.on_issue(SimTime::from_micros(10), 3, "stat");
        obs.span(3, SpanStage::Arrive, SimTime::from_micros(110), 0);
        obs.span(3, SpanStage::CacheHit, SimTime::from_micros(110), 0);
        obs.on_reply(SimTime::from_micros(400), 3, MdsId(0), SimTime::from_micros(10), 0);
        let e = obs.export(&c).unwrap();
        let trace = e.trace_jsonl.unwrap();
        assert_eq!(trace.lines().count(), 1);
        assert!(trace.contains("\"kind\":\"stat\""));
        assert!(trace.contains("cache_hit"));
    }

    #[test]
    fn reset_measurement_restarts_counters_and_clears_spans() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.obs = ClusterObs::new(ObsConfig::full(), 8);
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
