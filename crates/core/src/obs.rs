//! Cluster-side observability wiring (see `dynmds-obs` for the
//! instruments themselves).
//!
//! [`ClusterObs`] owns the registry, the span recorder and the snapshot
//! series for one simulation, and exposes one `#[inline]` hook per
//! instrumentation point in the op pipeline. Every hook begins with the
//! same single branch — `let Some(inner) = &mut self.inner else { return }`
//! — so a simulation with observability disabled pays one predictable
//! untaken branch per hook and nothing else: no allocation, no hashing,
//! no formatting. All hot-path formatting is deferred to export time.
//!
//! Determinism: hooks are called from the (deterministic) event loop and
//! record integers stamped with the sim clock, so metrics, snapshots and
//! trace exports are byte-identical across runs with the same seed.

use dynmds_event::SimTime;
use dynmds_namespace::MdsId;
use dynmds_obs::registry::{HOPS_BOUNDS, LATENCY_BOUNDS_US};
use dynmds_obs::span::NO_MDS;
use dynmds_obs::{CounterId, HistogramId, ObsConfig, Registry, SnapshotSeries, SpanRecorder};

pub use dynmds_obs::SpanStage;

/// Field order of the periodic per-MDS snapshot rows.
pub const SNAPSHOT_FIELDS: &[&str] =
    &["load", "cache_len", "cache_prefix", "cache_target", "journal_depth", "delegations", "alive"];

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

struct Handles {
    // per-MDS counters
    received: CounterId,
    served: CounterId,
    forwarded: CounterId,
    replica_serves: CounterId,
    prefix_misses: CounterId,
    target_misses: CounterId,
    remote_prefix_fetches: CounterId,
    disk_fetches: CounterId,
    journal_commits: CounterId,
    journal_writebacks: CounterId,
    shared_absorbed: CounterId,
    warmed_items: CounterId,
    // cluster scalars
    estale: CounterId,
    lease_local: CounterId,
    dead_timeouts: CounterId,
    replications: CounterId,
    dereplications: CounterId,
    shared_flushes: CounterId,
    migrations: CounterId,
    delegation_splits: CounterId,
    delegation_merges: CounterId,
    failures: CounterId,
    recoveries: CounterId,
    retries: CounterId,
    gave_up: CounterId,
    net_lost: CounterId,
    net_dup: CounterId,
    // distributions
    latency_us: HistogramId,
    hops: HistogramId,
    // proxy tier (registered only when the tier is enabled, so proxy-off
    // exports keep the exact pre-proxy metric set and order)
    proxy: Option<ProxyHandles>,
}

struct ProxyHandles {
    neg_hits: CounterId,
    read_absorbs: CounterId,
    coalesced: CounterId,
    flushed: CounterId,
    forwarded: CounterId,
    n_proxies: usize,
}

struct Inner {
    reg: Registry,
    h: Handles,
    spans: Option<SpanRecorder>,
    snaps: SnapshotSeries,
    n_mds: usize,
}

/// The per-cluster observability layer. Disabled, it is a `None` and
/// every hook is a single branch.
pub struct ClusterObs {
    inner: Option<Box<Inner>>,
}

impl ClusterObs {
    /// Builds the layer for `n_mds` servers and `n_clients` clients,
    /// without proxy instruments.
    pub fn new(cfg: ObsConfig, n_mds: usize, n_clients: usize) -> Self {
        Self::with_proxies(cfg, n_mds, n_clients, 0)
    }

    /// Builds the layer; `n_proxies > 0` additionally registers the proxy
    /// tier's counters (after every pre-existing metric, so proxy-off
    /// exports are byte-identical to [`ClusterObs::new`]).
    pub fn with_proxies(cfg: ObsConfig, n_mds: usize, n_clients: usize, n_proxies: usize) -> Self {
        if !cfg.enabled() {
            return ClusterObs { inner: None };
        }
        let mut reg = Registry::new();
        let n = n_mds;
        let h = Handles {
            received: reg.counter("received", n),
            served: reg.counter("served", n),
            forwarded: reg.counter("forwarded", n),
            replica_serves: reg.counter("replica_serves", n),
            prefix_misses: reg.counter("prefix_misses", n),
            target_misses: reg.counter("target_misses", n),
            remote_prefix_fetches: reg.counter("remote_prefix_fetches", n),
            disk_fetches: reg.counter("disk_fetches", n),
            journal_commits: reg.counter("journal_commits", n),
            journal_writebacks: reg.counter("journal_writebacks", n),
            shared_absorbed: reg.counter("shared_write_absorbed", n),
            warmed_items: reg.counter("journal_warmed_items", n),
            estale: reg.counter("estale_replies", 1),
            lease_local: reg.counter("lease_local_reads", 1),
            dead_timeouts: reg.counter("failover_timeouts", 1),
            replications: reg.counter("replications", 1),
            dereplications: reg.counter("dereplications", 1),
            shared_flushes: reg.counter("shared_write_flushes", 1),
            migrations: reg.counter("subtree_migrations", 1),
            delegation_splits: reg.counter("delegation_splits", 1),
            delegation_merges: reg.counter("delegation_merges", 1),
            failures: reg.counter("node_failures", 1),
            recoveries: reg.counter("node_recoveries", 1),
            retries: reg.counter("client_retries", 1),
            gave_up: reg.counter("ops_gave_up", 1),
            net_lost: reg.counter("net_messages_lost", 1),
            net_dup: reg.counter("net_messages_duplicated", 1),
            latency_us: reg.histogram("latency_us", LATENCY_BOUNDS_US),
            hops: reg.histogram("hops", HOPS_BOUNDS),
            proxy: (n_proxies > 0).then(|| ProxyHandles {
                neg_hits: reg.counter("proxy_neg_hits", n_proxies),
                read_absorbs: reg.counter("proxy_read_absorbs", n_proxies),
                coalesced: reg.counter("proxy_writes_coalesced", n_proxies),
                flushed: reg.counter("proxy_flushed_items", n_proxies),
                forwarded: reg.counter("proxy_forwarded", n_proxies),
                n_proxies,
            }),
        };
        let spans = cfg.trace.then(|| SpanRecorder::new(n_clients, cfg.ring_capacity()));
        let snaps = SnapshotSeries::new(SNAPSHOT_FIELDS, n_mds);
        ClusterObs { inner: Some(Box::new(Inner { reg, h, spans, snaps, n_mds })) }
    }

    /// Whether any instrument is live (callers use this to skip gathering
    /// snapshot data entirely when observability is off).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether span tracing is live.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.spans.is_some())
    }

    // ---- op lifecycle hooks -------------------------------------------

    /// Client dispatched an op: open its span.
    #[inline]
    pub fn on_issue(&mut self, now: SimTime, client: u32, kind: &'static str) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(spans) = &mut inner.spans {
            spans.start(client, kind, now.as_micros());
        }
    }

    /// Attribute read served from the client's own lease.
    #[inline]
    pub fn on_lease_local(&mut self, now: SimTime, reply_at: SimTime, client: u32) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.lease_local, 0);
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::LeaseLocal, now.as_micros(), NO_MDS);
            spans.finish(client, SpanStage::Reply, reply_at.as_micros(), NO_MDS);
        }
    }

    /// Request arrived at a live MDS.
    #[inline]
    pub fn on_arrive(&mut self, now: SimTime, client: u32, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.received, mds.index());
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::Arrive, now.as_micros(), mds.0);
        }
    }

    /// Request addressed a dead node and is being re-driven.
    #[inline]
    pub fn on_dead_timeout(&mut self, now: SimTime, client: u32, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.dead_timeouts, 0);
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::DeadTimeout, now.as_micros(), mds.0);
        }
    }

    /// Target raced with an unlink.
    #[inline]
    pub fn on_estale(&mut self, now: SimTime, client: u32, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.estale, 0);
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::Estale, now.as_micros(), mds.0);
        }
    }

    /// Non-authoritative receiver forwarded the request.
    #[inline]
    pub fn on_forward(&mut self, now: SimTime, client: u32, from: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.forwarded, from.index());
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::Forward, now.as_micros(), from.0);
        }
    }

    /// Read served by a non-authoritative replica holder.
    #[inline]
    pub fn on_replica_serve(&mut self, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.replica_serves, mds.index());
    }

    /// Prefix traversal completed (`done` = its IO completion time).
    #[inline]
    pub fn on_traverse(&mut self, done: SimTime, client: u32, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::Traverse, done.as_micros(), mds.0);
        }
    }

    /// A prefix directory missed the serving node's cache.
    #[inline]
    pub fn on_prefix_miss(&mut self, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.prefix_misses, mds.index());
    }

    /// A missing prefix was replicated from a peer authority.
    #[inline]
    pub fn on_remote_prefix(&mut self, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.remote_prefix_fetches, mds.index());
    }

    /// The target cache probe resolved (`hit`), at time `now`.
    #[inline]
    pub fn on_target_probe(&mut self, now: SimTime, client: u32, mds: MdsId, hit: bool) {
        let Some(inner) = &mut self.inner else { return };
        if !hit {
            inner.reg.inc(inner.h.target_misses, mds.index());
        }
        if let Some(spans) = &mut inner.spans {
            let stage = if hit { SpanStage::CacheHit } else { SpanStage::CacheMiss };
            spans.event(client, stage, now.as_micros(), mds.0);
        }
    }

    /// A tier-2 fetch was issued by `mds`.
    #[inline]
    pub fn on_disk_fetch(&mut self, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.disk_fetches, mds.index());
    }

    /// A mutation committed to `mds`'s journal; `writebacks` entries were
    /// retired to tier 2.
    #[inline]
    pub fn on_journal_commit(&mut self, done: SimTime, client: u32, mds: MdsId, writebacks: u64) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.journal_commits, mds.index());
        inner.reg.add(inner.h.journal_writebacks, mds.index(), writebacks);
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::Journal, done.as_micros(), mds.0);
        }
    }

    /// `mds` fully served an op.
    #[inline]
    pub fn on_served(&mut self, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.served, mds.index());
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
        inner.reg.observe(inner.h.latency_us, reply_at.saturating_since(issued_at).as_micros());
        inner.reg.observe(inner.h.hops, hops as u64);
        if let Some(spans) = &mut inner.spans {
            spans.finish(client, SpanStage::Reply, reply_at.as_micros(), mds.0);
        }
    }

    // ---- subsystem hooks ----------------------------------------------

    /// A shared-write delta was absorbed at replica `mds`.
    #[inline]
    pub fn on_shared_absorb(&mut self, mds: MdsId) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.shared_absorbed, mds.index());
    }

    /// `contributors` replica deltas were merged at an authority.
    #[inline]
    pub fn on_shared_flush(&mut self, contributors: u64) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.add(inner.h.shared_flushes, 0, contributors);
    }

    /// An item was replicated cluster-wide (traffic control).
    #[inline]
    pub fn on_replicate(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.replications, 0);
    }

    /// `n` items cooled down and were de-replicated.
    #[inline]
    pub fn on_dereplicate(&mut self, n: u64) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.add(inner.h.dereplications, 0, n);
    }

    /// A subtree migrated between servers.
    #[inline]
    pub fn on_migration(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.migrations, 0);
    }

    /// The balancer split a delegation into `n` new delegation points.
    #[inline]
    pub fn on_delegation_split(&mut self, n: u64) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.add(inner.h.delegation_splits, 0, n);
    }

    /// Consolidation merged away `n` redundant delegation points.
    #[inline]
    pub fn on_delegation_merge(&mut self, n: u64) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.add(inner.h.delegation_merges, 0, n);
    }

    /// A client re-drove a request after a dead-node timeout or a lost
    /// message.
    #[inline]
    pub fn on_retry(&mut self, now: SimTime, client: u32) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.retries, 0);
        if let Some(spans) = &mut inner.spans {
            spans.event(client, SpanStage::Retry, now.as_micros(), NO_MDS);
        }
    }

    /// A client exhausted its retry budget and abandoned the op: close
    /// the span with the terminal gave-up stage.
    #[inline]
    pub fn on_gave_up(&mut self, now: SimTime, client: u32) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.gave_up, 0);
        if let Some(spans) = &mut inner.spans {
            spans.finish(client, SpanStage::GaveUp, now.as_micros(), NO_MDS);
        }
    }

    /// The network fault window dropped a message.
    #[inline]
    pub fn on_net_loss(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.net_lost, 0);
    }

    /// The network fault window duplicated a message.
    #[inline]
    pub fn on_net_dup(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.net_dup, 0);
    }

    /// A node died.
    #[inline]
    pub fn on_failure(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.failures, 0);
    }

    /// A node came back.
    #[inline]
    pub fn on_recovery(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.inc(inner.h.recoveries, 0);
    }

    /// `n` working-set items were preloaded into `mds`'s cache from a
    /// shared-storage journal.
    #[inline]
    pub fn on_journal_warm(&mut self, mds: MdsId, n: u64) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.add(inner.h.warmed_items, mds.index(), n);
    }

    // ---- proxy-tier hooks (no-ops unless built `with_proxies`) ---------

    /// Proxy `p` answered an op from its own caches: the op never entered
    /// the cluster. Records latency and a zero hop count, closes the span.
    #[inline]
    pub fn on_proxy_serve(&mut self, reply_at: SimTime, client: u32, issued_at: SimTime) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.observe(inner.h.latency_us, reply_at.saturating_since(issued_at).as_micros());
        inner.reg.observe(inner.h.hops, 0);
        if let Some(spans) = &mut inner.spans {
            spans.finish(client, SpanStage::Reply, reply_at.as_micros(), NO_MDS);
        }
    }

    /// Proxy `p` served a negative lookup from its cache.
    #[inline]
    pub fn on_proxy_neg_hit(&mut self, p: usize) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(ph) = &inner.h.proxy {
            inner.reg.inc(ph.neg_hits, p);
        }
    }

    /// Proxy `p` absorbed a read of a hot cached item.
    #[inline]
    pub fn on_proxy_read_absorb(&mut self, p: usize) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(ph) = &inner.h.proxy {
            inner.reg.inc(ph.read_absorbs, p);
        }
    }

    /// Proxy `p` coalesced a monotone write.
    #[inline]
    pub fn on_proxy_coalesce(&mut self, p: usize) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(ph) = &inner.h.proxy {
            inner.reg.inc(ph.coalesced, p);
        }
    }

    /// Proxy `p` pushed `n` coalesced item deltas to authorities.
    #[inline]
    pub fn on_proxy_flush(&mut self, p: usize, n: u64) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(ph) = &inner.h.proxy {
            inner.reg.add(ph.flushed, p, n);
        }
    }

    /// Proxy `p` relayed a hot request into the cluster.
    #[inline]
    pub fn on_proxy_forward(&mut self, p: usize) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(ph) = &inner.h.proxy {
            inner.reg.inc(ph.forwarded, p);
        }
    }

    // ---- snapshots, reset, export -------------------------------------

    /// Appends one snapshot row (field-major over [`SNAPSHOT_FIELDS`]).
    pub fn snapshot(&mut self, now: SimTime, row: Vec<u64>) {
        let Some(inner) = &mut self.inner else { return };
        inner.snaps.push_row(now.as_micros(), row);
    }

    /// Clears all recorded data (measurement restart after warm-up).
    pub fn reset(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        inner.reg.reset();
        inner.snaps.reset();
        if let Some(spans) = &mut inner.spans {
            spans.reset();
        }
    }

    /// Renders every export. `None` when observability is disabled.
    pub fn export(&self) -> Option<ObsExport> {
        let inner = self.inner.as_ref()?;
        Some(ObsExport {
            metrics_jsonl: inner.reg.to_jsonl(),
            snapshots_jsonl: inner.snaps.to_jsonl(),
            trace_jsonl: inner.spans.as_ref().map(|s| s.to_jsonl()),
            summary: Self::render_summary(inner),
        })
    }

    fn render_summary(inner: &Inner) -> String {
        let reg = &inner.reg;
        let h = &inner.h;
        let mut t = dynmds_metrics::Table::new(
            "observability summary (per MDS)",
            &[
                "node", "recv", "served", "fwd", "replica", "pfx miss", "tgt miss", "disk",
                "journal",
            ],
        );
        for i in 0..inner.n_mds {
            t.row(&[
                format!("mds{i}"),
                reg.counter_value(h.received, i).to_string(),
                reg.counter_value(h.served, i).to_string(),
                reg.counter_value(h.forwarded, i).to_string(),
                reg.counter_value(h.replica_serves, i).to_string(),
                reg.counter_value(h.prefix_misses, i).to_string(),
                reg.counter_value(h.target_misses, i).to_string(),
                reg.counter_value(h.disk_fetches, i).to_string(),
                reg.counter_value(h.journal_commits, i).to_string(),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "\nlatency: mean {:.2} ms, ~p50 {:.2} ms, ~p99 {:.2} ms over {} ops\n",
            reg.histogram_mean(h.latency_us) / 1e3,
            reg.histogram_quantile(h.latency_us, 0.5) as f64 / 1e3,
            reg.histogram_quantile(h.latency_us, 0.99) as f64 / 1e3,
            reg.histogram_count(h.latency_us),
        ));
        out.push_str(&format!(
            "cluster: lease-local {}, estale {}, failover timeouts {}, replications {} (-{}), \
             migrations {}, splits {}, merges {}, failures {}, recoveries {}\n",
            reg.counter_total(h.lease_local),
            reg.counter_total(h.estale),
            reg.counter_total(h.dead_timeouts),
            reg.counter_total(h.replications),
            reg.counter_total(h.dereplications),
            reg.counter_total(h.migrations),
            reg.counter_total(h.delegation_splits),
            reg.counter_total(h.delegation_merges),
            reg.counter_total(h.failures),
            reg.counter_total(h.recoveries),
        ));
        out.push_str(&format!(
            "faults: retries {}, gave up {}, net lost {}, net dup {}\n",
            reg.counter_total(h.retries),
            reg.counter_total(h.gave_up),
            reg.counter_total(h.net_lost),
            reg.counter_total(h.net_dup),
        ));
        if let Some(ph) = &h.proxy {
            out.push_str(&format!(
                "proxy ({}): neg hits {}, read absorbs {}, coalesced {}, flushed {}, forwarded {}\n",
                ph.n_proxies,
                reg.counter_total(ph.neg_hits),
                reg.counter_total(ph.read_absorbs),
                reg.counter_total(ph.coalesced),
                reg.counter_total(ph.flushed),
                reg.counter_total(ph.forwarded),
            ));
        }
        out.push_str(&format!(
            "snapshots: {} rows × {} fields",
            inner.snaps.len(),
            inner.snaps.fields().len()
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
    use super::*;

    #[test]
    fn disabled_layer_is_inert_and_exports_nothing() {
        let mut obs = ClusterObs::new(ObsConfig::default(), 4, 8);
        assert!(!obs.enabled());
        assert!(!obs.tracing());
        obs.on_served(MdsId(0));
        obs.on_reply(SimTime::from_millis(2), 0, MdsId(0), SimTime::from_millis(1), 0);
        assert!(obs.export().is_none());
    }

    #[test]
    fn metrics_only_layer_counts_without_spans() {
        let mut obs = ClusterObs::new(ObsConfig::metrics_only(), 2, 4);
        assert!(obs.enabled());
        assert!(!obs.tracing());
        obs.on_arrive(SimTime::from_millis(1), 0, MdsId(1));
        obs.on_served(MdsId(1));
        obs.on_reply(SimTime::from_millis(3), 0, MdsId(1), SimTime::from_millis(1), 1);
        let e = obs.export().unwrap();
        assert!(e.metrics_jsonl.contains("\"name\":\"served\",\"per_mds\":[0,1]"));
        assert!(e.trace_jsonl.is_none());
        assert!(e.summary.contains("mds1"));
    }

    #[test]
    fn traced_op_produces_one_span_line() {
        let mut obs = ClusterObs::new(ObsConfig::full(), 2, 4);
        assert!(obs.tracing());
        obs.on_issue(SimTime::from_micros(10), 3, "stat");
        obs.on_arrive(SimTime::from_micros(110), 3, MdsId(0));
        obs.on_target_probe(SimTime::from_micros(110), 3, MdsId(0), true);
        obs.on_served(MdsId(0));
        obs.on_reply(SimTime::from_micros(400), 3, MdsId(0), SimTime::from_micros(10), 0);
        let e = obs.export().unwrap();
        let trace = e.trace_jsonl.unwrap();
        assert_eq!(trace.lines().count(), 1);
        assert!(trace.contains("\"kind\":\"stat\""));
        assert!(trace.contains("cache_hit"));
    }

    #[test]
    fn reset_clears_counters_and_spans() {
        let mut obs = ClusterObs::new(ObsConfig::full(), 1, 2);
        obs.on_issue(SimTime::ZERO, 0, "open");
        obs.on_served(MdsId(0));
        obs.snapshot(SimTime::from_secs(1), vec![0; SNAPSHOT_FIELDS.len()]);
        obs.reset();
        let e = obs.export().unwrap();
        assert!(e.metrics_jsonl.contains("\"name\":\"served\",\"value\":0"));
        assert_eq!(e.snapshots_jsonl, "");
        assert_eq!(e.trace_jsonl.unwrap(), "");
    }

    #[test]
    fn op_kind_tags_are_stable() {
        assert_eq!(op_kind_tag(dynmds_workload::OpKind::Stat), "stat");
        assert_eq!(op_kind_tag(dynmds_workload::OpKind::SetAttr), "setattr");
    }
}
