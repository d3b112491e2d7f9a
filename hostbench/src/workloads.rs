//! The four benchmark workloads: their sizing, one timed repetition
//! ("round") of each, a set-up on its own, and the correctness checks
//! that run outside the timed sections.
//!
//! Simulated clients are closed-loop everywhere: each waits for its reply,
//! then thinks for an exponentially distributed time. A workload's seed
//! feeds the engine config and the generator (`seed ^ 0x17`), as the
//! harness does; the default seeds reproduce the harness's own runs. The
//! namespace is always the one the default seed generates: with the
//! namespace seeded too, elastic_diurnal's 80-user tree ranged from 31k
//! to 38k items across seeds, which alone moved every metric.

use std::cell::Cell;
use std::sync::Arc;

use dynmds_core::{ShardReport, ShardedSimulation, SimConfig, SimReport, Simulation};
use dynmds_event::{SimDuration, SimTime};
use dynmds_harness::elasticrun::elasticity_config;
use dynmds_harness::parallel::parallel_map;
use dynmds_harness::params::{general_workload, scaling_config, scaling_snapshot};
use dynmds_harness::scaling::{context_table, fig2_table, fig3_table, ScalePoint};
use dynmds_harness::{run_scale, scale_table, ExperimentScale, ScaleParams};
use dynmds_namespace::{Namespace, NamespaceSpec, Snapshot, StreamingGenerator};
use dynmds_partition::StrategyKind;
use dynmds_storage::DiskParams;
use dynmds_workload::{DiurnalWorkload, GeneralWorkload, ScaleWorkload, Workload, WorkloadConfig};

use crate::measure;
use crate::trace::{self, Fanout, SpanTimer, TimedWorkload, Totals};

/// Measured spans are split into this many `run_until` calls, so slice
/// times give a distribution and memory can be sampled as the run goes.
pub const SLICES: u64 = 200;

/// How big a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The timed benchmark.
    Full,
    /// About 1/50 of the original simulated spans, with every check: CI.
    Smoke,
    /// Unit-test sizing, fast in a debug build. Checks are not run.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The Fig 2/3 strategy × cluster-size sweep on the legacy engine.
    Fig2Sweep,
    /// Every 100 µs window busy on the sharded engine, mixed reads and
    /// namespace writes.
    ShardedDense,
    /// A day/night load with the elastic controller: most windows idle.
    ElasticDiurnal,
    /// The lease-heavy scale tier: warm-up populates the clients' leases,
    /// then every measured op is a client-local lease hit.
    ScaleTier,
}

impl Kind {
    /// Every workload, in the order `--smoke` runs them.
    pub const ALL: [Kind; 4] =
        [Kind::Fig2Sweep, Kind::ShardedDense, Kind::ElasticDiurnal, Kind::ScaleTier];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig2Sweep => "fig2_sweep",
            Kind::ShardedDense => "sharded_dense",
            Kind::ElasticDiurnal => "elastic_diurnal",
            Kind::ScaleTier => "scale_tier",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The seed that reproduces the harness's own run of this shape.
    pub fn default_seed(self) -> u64 {
        match self {
            // `scaling_config` seeds a point with 1000 + cluster size.
            Kind::Fig2Sweep => 1000,
            Kind::ShardedDense => 42,
            // `elasticity_config` runs an 8-node pool: 1000 + 8.
            Kind::ElasticDiurnal => 1008,
            Kind::ScaleTier => 42,
        }
    }

    /// How closely this workload's host time follows the calibration
    /// kernel's: the exponent `e` in time × (reference ÷ kernel)^e. A
    /// workload that does less of the kernel's kind of work is slowed
    /// less by what slows the kernel. Each `e` is the one, in steps of
    /// 0.05, under which the workload's `wall_s`, `setup_s` and
    /// `sim_ops_per_s` moved least between quiet and loaded periods of the
    /// reference host (README.md, Calibration).
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Kind::Fig2Sweep => 0.65,
            Kind::ShardedDense => 0.7,
            Kind::ElasticDiurnal => 0.7,
            Kind::ScaleTier => 0.5,
        }
    }
}

/// Deterministic outputs of one simulation: the modelled system, which a
/// simulator-only change must leave identical.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// Cluster size.
    pub n_mds: u16,
    /// Completed client operations in the measured span.
    pub ops: u64,
    /// Operations abandoned at the retry cap.
    pub failed: u64,
    /// Σ per-node served.
    pub served: u64,
    /// Σ per-node hit rate × served.
    pub hits: f64,
    /// Σ per-node forwarded.
    pub forwarded: u64,
    /// Σ per-node received.
    pub received: u64,
    /// Σ per-node disk fetches.
    pub fetches: u64,
    /// Client-lease completions.
    pub lease_hits: u64,
    /// Latency median, µs.
    pub latency_p50_us: f64,
    /// Latency 99th percentile, µs.
    pub latency_p99_us: f64,
    /// Balancer migrations.
    pub migrations: u64,
    /// Elastic activations.
    pub scale_outs: u64,
    /// Elastic departures.
    pub scale_ins: u64,
    /// Provisioned node-seconds over the measured span.
    pub node_secs: f64,
}

impl Model {
    fn legacy(r: &SimReport) -> Model {
        let q = |p: f64| r.latency.quantile(p).unwrap_or(0.0) * 1e6;
        Model {
            n_mds: r.n_mds,
            ops: r.total_served(),
            failed: 0,
            served: r.total_served(),
            hits: r.nodes.iter().map(|n| n.hit_rate * n.served as f64).sum(),
            forwarded: r.total_forwarded(),
            received: r.total_received(),
            fetches: r.nodes.iter().map(|n| n.disk_fetches).sum(),
            lease_hits: 0,
            latency_p50_us: q(0.5),
            latency_p99_us: q(0.99),
            migrations: 0,
            scale_outs: 0,
            scale_ins: 0,
            node_secs: r.n_mds as f64 * r.span_secs(),
        }
    }

    fn sharded(r: &ShardReport) -> Model {
        Model {
            n_mds: r.n_mds,
            ops: r.ops,
            failed: r.failed,
            served: r.nodes.iter().map(|n| n.served).sum(),
            hits: r.nodes.iter().map(|n| n.hit_rate * n.served as f64).sum(),
            forwarded: r.nodes.iter().map(|n| n.forwarded).sum(),
            received: r.nodes.iter().map(|n| n.received).sum(),
            fetches: r.nodes.iter().map(|n| n.disk_fetches).sum(),
            lease_hits: r.lease_hits,
            latency_p50_us: r.latency.quantile_us(0.50) as f64,
            latency_p99_us: r.latency.quantile_us(0.99) as f64,
            migrations: r.migrations,
            scale_outs: r.scale_outs,
            scale_ins: r.scale_ins,
            node_secs: r.provisioned_node_secs(),
        }
    }
}

/// Host time and counts of one simulation ("point").
#[derive(Clone, Debug, Default)]
pub struct Point {
    /// Strategy under test.
    pub strategy: Option<StrategyKind>,
    /// The engine's barrier grid (one network hop): measured slices end
    /// on it.
    pub grid: SimDuration,
    /// Namespace generation, s.
    pub generate_s: f64,
    /// Workload construction, s.
    pub build_s: f64,
    /// Engine construction, excluding workload construction inside it, s.
    pub new_s: f64,
    /// Unmeasured warm-up, s.
    pub warmup_s: f64,
    /// Each measured `run_until` slice, s.
    pub slices_s: Vec<f64>,
    /// `finish`, s.
    pub finish_s: f64,
    /// The whole point, s.
    pub wall_s: f64,
    /// VmRSS after each slice, MiB (traced rounds only).
    pub rss_mib: Vec<f64>,
    /// Simulated length of the measured span, s.
    pub measured_sim_s: f64,
    /// Events dispatched in the measured span (legacy engine only; the
    /// sharded engine does not report them).
    pub events: u64,
    /// Window fan-outs in the measured span (traced sharded rounds only).
    pub fanout: Option<Fanout>,
    /// Barrier-grid windows in the measured span: executed + skipped
    /// (sharded engine only; 0 on the legacy engine, which has none).
    pub grid_windows: u64,
    /// Namespace items at start.
    pub ns_items: u64,
    /// Namespace heap bytes at start.
    pub ns_heap_bytes: u64,
    /// Deterministic outputs.
    pub model: Model,
}

impl Point {
    /// Namespace generation + workload build + engine construction.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.new_s
    }

    /// Host time of the measured span.
    pub fn measured_s(&self) -> f64 {
        self.slices_s.iter().sum()
    }
}

/// One timed repetition of a workload.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Whether tracing was on.
    pub traced: bool,
    /// Host time from the first set-up to the last report, s.
    pub wall_s: f64,
    /// Process CPU (user + system) over the same interval, s.
    pub cpu_s: f64,
    /// Peak resident set during the round (VmHWM reset at its start), MiB.
    pub peak_rss_mb: f64,
    /// The round's simulations.
    pub points: Vec<Point>,
    /// Digest of the rendered reports.
    pub digest: u64,
    /// Failed per-round checks.
    pub problems: Vec<String>,
    /// Trace aggregates of this round (traced rounds only).
    pub trace: Option<Totals>,
}

impl Round {
    /// Σ set-up over the round's simulations.
    pub fn setup_s(&self) -> f64 {
        self.points.iter().map(Point::setup_s).sum()
    }

    /// Σ host time of the measured spans.
    pub fn measured_s(&self) -> f64 {
        self.points.iter().map(Point::measured_s).sum()
    }

    /// Completed client operations in the measured spans.
    pub fn ops(&self) -> u64 {
        self.points.iter().map(|p| p.model.ops).sum()
    }

    /// Operations abandoned at the retry cap.
    pub fn failed(&self) -> u64 {
        self.points.iter().map(|p| p.model.failed).sum()
    }

    /// Simulated ops per host second of measured span. With concurrent
    /// points (fig2_sweep) this is the rate of one busy pool thread.
    pub fn sim_ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.measured_s().max(1e-9)
    }
}

// ---------------------------------------------------------------------
// engine driving
// ---------------------------------------------------------------------

/// The two engines, as the round loop drives them.
trait Engine {
    /// Runs to `until`; returns events dispatched where the engine says.
    fn advance(&mut self, until: SimTime) -> u64;
    /// Ends the warm-up at `at`.
    fn start_measuring(&mut self, at: SimTime);
}

impl Engine for Simulation {
    fn advance(&mut self, until: SimTime) -> u64 {
        self.run_until(until)
    }

    fn start_measuring(&mut self, at: SimTime) {
        self.cluster_mut().reset_measurement(at);
    }
}

impl Engine for ShardedSimulation {
    fn advance(&mut self, until: SimTime) -> u64 {
        self.run_until(until);
        0
    }

    fn start_measuring(&mut self, _at: SimTime) {
        self.reset_measurement();
    }
}

/// End of measured slice `i` (1-based). Slice ends lie on the `grid_us`
/// barrier grid of the sharded engine, so slicing executes exactly the
/// windows one `run_until` call would.
fn slice_end(warmup: SimDuration, measure: SimDuration, grid_us: u64, i: u64) -> SimTime {
    let m = measure.as_micros();
    let off = if i == SLICES { m } else { m * i / SLICES / grid_us * grid_us };
    SimTime::from_micros(warmup.as_micros() + off)
}

/// Warm-up, then the measured span in [`SLICES`] `run_until` calls on
/// the point's barrier grid.
fn drive(
    sim: &mut impl Engine,
    (warmup, measure): (SimDuration, SimDuration),
    pt: &mut Point,
    span: u64,
) {
    let grid = pt.grid;
    let t = SpanTimer::start();
    sim.advance(SimTime::ZERO + warmup);
    pt.warmup_s = t.stop("core.warmup", span);
    sim.start_measuring(SimTime::ZERO + warmup);
    let traced = trace::enabled();
    let before = traced.then(trace::totals);
    for i in 1..=SLICES {
        let until = slice_end(warmup, measure, grid.as_micros().max(1), i);
        let t = SpanTimer::start();
        trace::set_parent(t.id);
        pt.events += sim.advance(until);
        pt.slices_s.push(t.stop("core.slice", span));
        if traced {
            pt.rss_mib.push(measure::rss_mib());
        }
    }
    trace::set_parent(0);
    pt.fanout = before.map(|b| trace::totals().fanout.minus(&b.fanout));
    pt.measured_sim_s = measure.as_secs_f64();
}

/// Wraps a generator for a traced round.
fn maybe_timed<W: Workload + Send + 'static>(w: W) -> Box<dyn Workload + Send> {
    if trace::enabled() {
        Box::new(TimedWorkload::new(w))
    } else {
        Box::new(w)
    }
}

/// The set-up of one legacy-engine Fig 2 point — namespace, workload and
/// engine, built as `run_scaling` builds them.
fn legacy_setup(
    strategy: StrategyKind,
    n_mds: u16,
    scale: ExperimentScale,
    seed: u64,
    span: u64,
) -> (Point, Simulation) {
    let mut cfg = scaling_config(strategy, n_mds, scale);
    let snapshot_cfg = cfg.clone();
    cfg.seed = seed + n_mds as u64;
    let mut pt = Point { strategy: Some(strategy), grid: cfg.costs.net_hop, ..Point::default() };

    let t = SpanTimer::start();
    let snap = scaling_snapshot(&snapshot_cfg, scale);
    pt.generate_s = t.stop("namespace.generate", span);
    pt.ns_items = snap.ns.total_items();
    pt.ns_heap_bytes = snap.ns.heap_bytes() as u64;

    let t = SpanTimer::start();
    let wl = maybe_timed(*general_workload(&cfg, &snap));
    pt.build_s = t.stop("workload.build", span);

    let t = SpanTimer::start();
    let sim = Simulation::new(cfg, snap, wl);
    pt.new_s = t.stop("core.new", span);
    (pt, sim)
}

/// One legacy-engine Fig 2 point: set-up, warm-up, measured span, report.
fn legacy_point(
    strategy: StrategyKind,
    n_mds: u16,
    scale: ExperimentScale,
    seed: u64,
    spans: (SimDuration, SimDuration),
    round_span: u64,
) -> (Point, ScalePoint) {
    let point_span = SpanTimer::start();
    let span = point_span.id;
    let (mut pt, mut sim) = legacy_setup(strategy, n_mds, scale, seed, span);
    drive(&mut sim, spans, &mut pt, span);

    let t = SpanTimer::start();
    let report = sim.finish();
    pt.finish_s = t.stop("core.finish", span);
    pt.model = Model::legacy(&report);
    pt.wall_s = point_span.stop(&format!("point:{strategy}/{n_mds}"), round_span);
    (pt, scale_point(strategy, n_mds, &report))
}

/// The Fig 2/3 row of a report, exactly as `run_scaling` derives it.
fn scale_point(strategy: StrategyKind, n_mds: u16, report: &SimReport) -> ScalePoint {
    let received = report.total_received();
    ScalePoint {
        strategy,
        n_mds,
        throughput: report.avg_mds_throughput(),
        prefix_pct: report.mean_prefix_pct(),
        hit_rate: report.overall_hit_rate(),
        forward_frac: if received > 0 {
            report.total_forwarded() as f64 / received as f64
        } else {
            0.0
        },
        latency_ms: report.latency.mean().unwrap_or(0.0) * 1e3,
        fetches_per_op: {
            let fetches: u64 = report.nodes.iter().map(|n| n.disk_fetches).sum();
            fetches as f64 / report.total_served().max(1) as f64
        },
    }
}

/// Constructs a sharded engine. Workload construction happens inside the
/// engine's constructor (once per shard); it is timed there and reported
/// as workload build, not as engine construction.
fn sharded_setup(
    cfg: SimConfig,
    shards: usize,
    snap: Snapshot,
    factory: &dyn Fn(&Namespace) -> Box<dyn Workload + Send>,
    pt: &mut Point,
    span: u64,
) -> ShardedSimulation {
    pt.grid = cfg.costs.net_hop;
    pt.ns_items = snap.ns.total_items();
    pt.ns_heap_bytes = snap.ns.heap_bytes() as u64;
    let new_span = SpanTimer::start();
    let new_id = new_span.id;
    let build_s = Cell::new(0.0);
    let make = |ns: &Namespace| {
        let t = SpanTimer::start();
        let w = factory(ns);
        build_s.set(build_s.get() + t.stop("workload.build", new_id));
        w
    };
    let sim = ShardedSimulation::new(cfg, shards, None, snap, &make);
    pt.build_s += build_s.get();
    pt.new_s = new_span.stop("core.new", span) - build_s.get();
    sim
}

/// Warm-up, measured span and report of a constructed sharded engine.
fn sharded_measure(
    mut sim: ShardedSimulation,
    spans: (SimDuration, SimDuration),
    pt: &mut Point,
    span: u64,
) -> ShardReport {
    drive(&mut sim, spans, pt, span);
    pt.grid_windows = spans.1.as_micros() / pt.grid.as_micros().max(1);

    let t = SpanTimer::start();
    let report = sim.finish();
    pt.finish_s = t.stop("core.finish", span);
    pt.model = Model::sharded(&report);
    report
}

// ---------------------------------------------------------------------
// workload shapes
// ---------------------------------------------------------------------

/// fig2_sweep sizing.
struct Fig2 {
    scale: ExperimentScale,
    sizes: Vec<u16>,
    spans: (SimDuration, SimDuration),
}

impl Fig2 {
    fn new(size: Size) -> Fig2 {
        let s = SimDuration::from_secs;
        let ms = SimDuration::from_millis;
        match size {
            // Full-scale per-MDS sizing (10 clients and 4,000 items per
            // MDS, 1,200-entry caches) over 5–30 MDS. The legacy engine's
            // memory grows with the square of the cluster size (~250 MB
            // per 30-MDS point, ~430 MB per 40-MDS point), and a pool of
            // n threads runs n points at once.
            Size::Full => Fig2 {
                scale: ExperimentScale::Full,
                sizes: vec![5, 10, 20, 30],
                spans: (s(2), s(3)),
            },
            Size::Smoke => {
                Fig2 { scale: ExperimentScale::Full, sizes: vec![5, 10], spans: (s(2), s(2)) }
            }
            Size::Tiny => {
                Fig2 { scale: ExperimentScale::Quick, sizes: vec![2], spans: (ms(200), ms(300)) }
            }
        }
    }

    /// The harness's own Quick sweep, which the golden CSVs record.
    fn quick() -> Fig2 {
        let q = ExperimentScale::Quick;
        Fig2 { scale: q, sizes: q.cluster_sizes(), spans: (q.warmup(), q.measure()) }
    }

    /// Every (cluster size, strategy) point, largest cluster first so the
    /// long points do not end up alone at the tail of the pool.
    fn configs(&self) -> Vec<(u16, StrategyKind)> {
        let mut sizes = self.sizes.clone();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes.iter().flat_map(|&n| StrategyKind::ALL.map(|s| (n, s))).collect()
    }

    /// Runs every point on the pool. Returns the points and the Fig 2,
    /// Fig 3 and detail CSVs in the harness's strategy-major order.
    fn run(&self, seed: u64, round_span: u64) -> (Vec<Point>, Vec<ScalePoint>, [String; 3]) {
        let outs = parallel_map(&self.configs(), |&(n, s)| {
            legacy_point(s, n, self.scale, seed, self.spans, round_span)
        });
        let (points, mut rows): (Vec<Point>, Vec<ScalePoint>) = outs.into_iter().unzip();
        let rank = |s: StrategyKind| StrategyKind::ALL.iter().position(|&k| k == s);
        rows.sort_by_key(|p| (rank(p.strategy), p.n_mds));
        let csvs =
            [fig2_table(&rows).to_csv(), fig3_table(&rows).to_csv(), context_table(&rows).to_csv()];
        (points, rows, csvs)
    }

    /// Sets every point up on the pool, as [`Fig2::run`] does, and drops
    /// it: Σ set-up time over the points, s.
    fn setup_s(&self, seed: u64) -> f64 {
        let setups = parallel_map(&self.configs(), |&(n, s)| {
            legacy_setup(s, n, self.scale, seed, 0).0.setup_s()
        });
        setups.iter().sum()
    }
}

/// The paper's Fig 2 claim: at every size, both subtree strategies beat
/// all three hashed ones on per-MDS throughput.
fn subtree_beats_hashed(rows: &[ScalePoint]) -> Vec<String> {
    let tput = |s: StrategyKind, n: u16| {
        rows.iter().find(|p| p.strategy == s && p.n_mds == n).map_or(0.0, |p| p.throughput)
    };
    let mut sizes: Vec<u16> = rows.iter().map(|p| p.n_mds).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let subtree = [StrategyKind::StaticSubtree, StrategyKind::DynamicSubtree];
    let hashed = [StrategyKind::DirHash, StrategyKind::FileHash, StrategyKind::LazyHybrid];
    let mut problems = Vec::new();
    for n in sizes {
        let worst_subtree = subtree.map(|s| tput(s, n)).into_iter().fold(f64::INFINITY, f64::min);
        let best_hashed = hashed.map(|s| tput(s, n)).into_iter().fold(0.0, f64::max);
        if worst_subtree <= best_hashed {
            problems.push(format!(
                "fig2 claim fails at {n} MDS: subtree {worst_subtree:.0} <= hashed {best_hashed:.0} ops/s"
            ));
        }
    }
    problems
}

/// sharded_dense sizing.
struct Dense {
    n_mds: u16,
    shards: usize,
    clients: u32,
    items: u64,
    spans: (SimDuration, SimDuration),
}

impl Dense {
    fn new(size: Size) -> Dense {
        let ms = SimDuration::from_millis;
        match size {
            Size::Full => Dense {
                n_mds: 16,
                shards: 8,
                clients: 2_000,
                items: 200_000,
                spans: (ms(1_000), ms(1_500)),
            },
            Size::Smoke => Dense {
                n_mds: 16,
                shards: 8,
                clients: 2_000,
                items: 200_000,
                spans: (ms(300), ms(300)),
            },
            Size::Tiny => {
                Dense { n_mds: 4, shards: 2, clients: 100, items: 5_000, spans: (ms(100), ms(200)) }
            }
        }
    }

    /// DynamicSubtree with balancing and traffic control, leases off, on
    /// the modern cost point of the scale tier: 30 µs CPU per op, 5 µs
    /// per forward, flash OSDs. 2 ms think time keeps every 100 µs
    /// window busy.
    fn config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = self.n_mds;
        cfg.n_clients = self.clients;
        cfg.cache_capacity = 4_000;
        cfg.journal_capacity = 16_000;
        cfg.n_osds = (self.n_mds as usize * 2).max(16);
        cfg.costs.think_mean = SimDuration::from_millis(2);
        cfg.costs.cpu_per_op = SimDuration::from_micros(30);
        cfg.costs.cpu_forward = SimDuration::from_micros(5);
        cfg.costs.osd_disk = DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
        cfg.seed = seed;
        cfg
    }

    fn run(
        &self,
        seed: u64,
        shards: usize,
        spans: (SimDuration, SimDuration),
        parent: u64,
    ) -> (Point, ShardReport) {
        let point_span = SpanTimer::start();
        let (mut pt, sim) = self.setup(seed, shards, point_span.id);
        let report = sharded_measure(sim, spans, &mut pt, point_span.id);
        pt.wall_s = point_span.stop("point:sharded_dense", parent);
        (pt, report)
    }

    fn setup(&self, seed: u64, shards: usize, span: u64) -> (Point, ShardedSimulation) {
        let cfg = self.config(seed);
        let mut pt = Point { strategy: Some(cfg.strategy), ..Point::default() };
        let t = SpanTimer::start();
        let ns_seed = Kind::ShardedDense.default_seed() ^ 0xF5;
        let snap =
            NamespaceSpec::with_target_items(self.clients as usize, self.items, ns_seed).generate();
        pt.generate_s = t.stop("namespace.generate", span);
        let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
        let n_clients = self.clients as usize;
        let factory = |ns: &Namespace| {
            maybe_timed(GeneralWorkload::new(
                WorkloadConfig { seed: seed ^ 0x17, ..Default::default() },
                n_clients,
                &homes,
                &shared,
                ns,
            ))
        };
        let sim = sharded_setup(cfg, shards, snap, &factory, &mut pt, span);
        (pt, sim)
    }
}

/// elastic_diurnal sizing.
struct Elastic {
    scale: ExperimentScale,
    shards: usize,
    period: SimDuration,
    spans: (SimDuration, SimDuration),
}

/// Night think time is this many times the daytime one.
const NIGHT_MULT: f64 = 150.0;

impl Elastic {
    fn new(size: Size) -> Elastic {
        let s = SimDuration::from_secs;
        match size {
            // Four 120 s days after an 8 s warm-up. What the controller does
            // differs by seed; with one day per round that alone spread the
            // throughput 6% across seeds (2% at a fixed seed).
            Size::Full => Elastic {
                scale: ExperimentScale::Full,
                shards: 4,
                period: s(120),
                spans: (s(8), s(480)),
            },
            Size::Smoke => Elastic {
                scale: ExperimentScale::Full,
                shards: 4,
                period: s(24),
                spans: (s(4), s(24)),
            },
            Size::Tiny => Elastic {
                scale: ExperimentScale::Quick,
                shards: 2,
                period: s(4),
                spans: (s(1), s(4)),
            },
        }
    }

    fn run(
        &self,
        seed: u64,
        shards: usize,
        spans: (SimDuration, SimDuration),
        parent: u64,
    ) -> (Point, ShardReport) {
        let point_span = SpanTimer::start();
        let (mut pt, sim) = self.setup(seed, shards, point_span.id);
        let report = sharded_measure(sim, spans, &mut pt, point_span.id);
        pt.wall_s = point_span.stop("point:elastic_diurnal", parent);
        (pt, report)
    }

    fn setup(&self, seed: u64, shards: usize, span: u64) -> (Point, ShardedSimulation) {
        let mut cfg = elasticity_config(StrategyKind::ElasticSubtree, self.scale);
        let mut pt = Point { strategy: Some(cfg.strategy), ..Point::default() };
        let t = SpanTimer::start();
        let snap = scaling_snapshot(&cfg, self.scale);
        pt.generate_s = t.stop("namespace.generate", span);
        cfg.seed = seed;
        let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
        let n_clients = cfg.n_clients as usize;
        let period = self.period;
        let factory = |ns: &Namespace| {
            maybe_timed(DiurnalWorkload::new(
                GeneralWorkload::new(
                    WorkloadConfig { seed: seed ^ 0x17, ..Default::default() },
                    n_clients,
                    &homes,
                    &shared,
                    ns,
                ),
                period,
                NIGHT_MULT,
            ))
        };
        let sim = sharded_setup(cfg, shards, snap, &factory, &mut pt, span);
        (pt, sim)
    }
}

/// scale_tier sizing: the full tier's shape (16 MDS, K=8, 600 s leases,
/// 500 ms think time) at a tenth of its clients, restricted to
/// DynamicSubtree.
fn scale_params(size: Size, seed: u64) -> ScaleParams {
    let s = SimDuration::from_secs;
    let mut p = match size {
        Size::Full => ScaleParams {
            clients: 100_000,
            users: 100_000,
            target_items: 10_000_000,
            materialize_users: 1_024,
            warmup: s(8),
            measure: s(4),
            ..ScaleParams::full()
        },
        Size::Smoke => ScaleParams::smoke(),
        Size::Tiny => ScaleParams {
            clients: 200,
            users: 400,
            target_items: 20_000,
            materialize_users: 16,
            ring: 4,
            n_mds: 4,
            cache_capacity: 4_096,
            think_mean: SimDuration::from_millis(50),
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_millis(400),
            shards: 2,
            ..ScaleParams::smoke()
        },
    };
    p.strategies = vec![StrategyKind::DynamicSubtree];
    p.threads = None;
    p.seed = seed;
    p
}

/// The scale tier's engine config, rebuilt from `ScaleParams` the way
/// `run_scale` builds it (the check below holds the two together).
fn scale_config(p: &ScaleParams, strategy: StrategyKind) -> SimConfig {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = p.n_mds;
    cfg.n_clients = p.clients;
    cfg.cache_capacity = p.cache_capacity;
    cfg.journal_capacity = p.cache_capacity * 4;
    cfg.n_osds = (p.n_mds as usize * 2).max(16);
    cfg.client_leases = true;
    cfg.lease_ttl = SimDuration::from_secs(600);
    cfg.costs.think_mean = p.think_mean;
    cfg.costs.cpu_per_op = SimDuration::from_micros(30);
    cfg.costs.cpu_forward = SimDuration::from_micros(5);
    cfg.costs.osd_disk = DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
    cfg.balancing = strategy == StrategyKind::DynamicSubtree;
    cfg.traffic_control = strategy == StrategyKind::DynamicSubtree;
    cfg.seed = p.seed;
    cfg
}

/// The set-up of one scale-tier simulation; also returns the namespace's
/// logical inode count.
fn scale_setup(p: &ScaleParams, span: u64) -> (Point, ShardedSimulation, u64) {
    let strategy = StrategyKind::DynamicSubtree;
    let mut pt = Point { strategy: Some(strategy), ..Point::default() };
    let t = SpanTimer::start();
    let spec = ScaleParams { seed: Kind::ScaleTier.default_seed(), ..p.clone() }.spec();
    let mut generator = StreamingGenerator::new(spec);
    for u in 0..p.materialize_users {
        generator.materialize_user(u);
    }
    let logical = generator.logical_items();
    let mut snap = generator.into_snapshot();
    snap.ns.shrink_to_fit();
    pt.generate_s = t.stop("namespace.generate", span);

    let t = SpanTimer::start();
    let (files, ranges) = ScaleWorkload::collect(&snap.ns, &snap.user_homes);
    pt.build_s = t.stop("workload.build", span);
    let (n_clients, ring) = (p.clients as usize, p.ring);
    let factory = |_: &Namespace| {
        maybe_timed(ScaleWorkload::new(Arc::clone(&files), Arc::clone(&ranges), n_clients, ring))
    };
    let cfg = scale_config(p, strategy);
    let sim = sharded_setup(cfg, p.shards, snap, &factory, &mut pt, span);
    (pt, sim, logical)
}

/// One scale-tier simulation; returns the point and its `scale_table` row.
fn scale_run(p: &ScaleParams, parent: u64) -> (Point, dynmds_harness::ScalePoint) {
    let point_span = SpanTimer::start();
    let span = point_span.id;
    let (mut pt, sim, logical) = scale_setup(p, span);
    let report = sharded_measure(sim, (p.warmup, p.measure), &mut pt, span);
    let row = dynmds_harness::ScalePoint {
        strategy: StrategyKind::DynamicSubtree,
        clients: p.clients,
        logical_inodes: logical,
        materialized_inodes: pt.ns_items,
        namespace_heap_bytes: pt.ns_heap_bytes,
        report,
        wall_s: pt.measured_s(),
    };
    pt.wall_s = point_span.stop("point:scale_tier", parent);
    (pt, row)
}

// ---------------------------------------------------------------------
// rounds and checks
// ---------------------------------------------------------------------

/// Runs one timed round of `kind`. Per-round checks run after the clock
/// stops.
pub fn round(kind: Kind, size: Size, seed: u64, index: u64) -> Round {
    trace::begin_round(index);
    let traced = trace::enabled();
    let before = traced.then(trace::totals);
    measure::reset_peak_rss();
    let cpu0 = measure::cpu_s();
    let round_span = SpanTimer::start();
    let span = round_span.id;
    let (points, rendered, problems): (Vec<Point>, String, Vec<String>) = match kind {
        Kind::Fig2Sweep => {
            let (points, rows, csvs) = Fig2::new(size).run(seed, span);
            (points, csvs.concat(), subtree_beats_hashed(&rows))
        }
        Kind::ShardedDense => {
            let d = Dense::new(size);
            let (pt, r) = d.run(seed, d.shards, d.spans, span);
            (vec![pt], r.render(), sharded_problems(&r))
        }
        Kind::ElasticDiurnal => {
            let e = Elastic::new(size);
            let (pt, r) = e.run(seed, e.shards, e.spans, span);
            let mut problems = sharded_problems(&r);
            if r.scale_outs < 1 || r.scale_ins < 1 {
                problems.push(format!(
                    "elastic controller idle: {} scale-outs, {} scale-ins",
                    r.scale_outs, r.scale_ins
                ));
            }
            (vec![pt], r.render(), problems)
        }
        Kind::ScaleTier => {
            let (pt, row) = scale_run(&scale_params(size, seed), span);
            let mut problems = sharded_problems(&row.report);
            let lease = row.report.lease_hits as f64 / row.report.ops.max(1) as f64;
            if lease < 0.9 {
                problems.push(format!("lease-hit ratio {lease:.3} < 0.9"));
            }
            (vec![pt], scale_table(&[row]).to_csv(), problems)
        }
    };
    let wall_s = round_span.stop("round", 0);
    let cpu_s = measure::cpu_s() - cpu0;
    Round {
        traced,
        wall_s,
        cpu_s,
        peak_rss_mb: measure::peak_rss_mib(),
        points,
        digest: measure::digest(&rendered),
        problems,
        trace: before.map(|b| trace::totals().minus(&b)),
    }
}

/// One set-up of `kind` on its own, outside any round: every simulation's
/// namespace generation, workload build and engine construction, done as
/// a round does them and then dropped. Σ over the simulations, s.
pub fn setup_sample(kind: Kind, size: Size, seed: u64) -> f64 {
    match kind {
        Kind::Fig2Sweep => Fig2::new(size).setup_s(seed),
        Kind::ShardedDense => {
            let d = Dense::new(size);
            d.setup(seed, d.shards, 0).0.setup_s()
        }
        Kind::ElasticDiurnal => {
            let e = Elastic::new(size);
            e.setup(seed, e.shards, 0).0.setup_s()
        }
        Kind::ScaleTier => scale_setup(&scale_params(size, seed), 0).0.setup_s(),
    }
}

/// The calibration kernel after a set-up sample of `kind` that took
/// `sample_s` of host time, run where that workload runs: on every pool
/// thread at once for `fig2_sweep`, whose points (and their set-ups) run
/// on the pool, and on this thread otherwise. Mean pass time, s.
///
/// With the kernel on this thread only, `fig2_sweep`'s calibrated
/// `setup_s` spread 16.8 % over ten runs: a sample slowed on the other
/// core came with a fast kernel.
pub fn kernel_s(kind: Kind, sample_s: f64) -> f64 {
    match kind {
        Kind::Fig2Sweep => {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            let passes = parallel_map(&vec![sample_s; threads], |&s| measure::kernel_s(s));
            passes.iter().sum::<f64>() / passes.len() as f64
        }
        _ => measure::kernel_s(sample_s),
    }
}

fn sharded_problems(r: &ShardReport) -> Vec<String> {
    if r.failed == 0 {
        Vec::new()
    } else {
        vec![format!("{} operations failed", r.failed)]
    }
}

/// Checks that run once per process, before the timed rounds: each holds
/// the benchmark's own way of building a workload to the harness's.
pub fn pre_checks(kind: Kind, size: Size, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    match kind {
        Kind::Fig2Sweep => {
            // The point loop reproduces the committed Quick goldens.
            let (_, _, csvs) = Fig2::quick().run(Kind::Fig2Sweep.default_seed(), 0);
            let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden/quick");
            for (name, csv) in ["fig2", "fig3", "scaling_detail"].iter().zip(&csvs) {
                let path = format!("{golden}/{name}.csv");
                match std::fs::read_to_string(&path) {
                    Ok(want) if want == *csv => {}
                    Ok(_) => problems.push(format!("{name}.csv differs from {path}")),
                    Err(e) => problems.push(format!("cannot read {path}: {e}")),
                }
            }
        }
        Kind::ShardedDense => {
            let d = Dense::new(size);
            let prefix = prefix_spans(d.spans, SimDuration::from_millis(200));
            let one = d.run(seed, 1, prefix, 0).1.render();
            let many = d.run(seed, d.shards, prefix, 0).1.render();
            if one != many {
                problems.push(format!("report differs between K=1 and K={}", d.shards));
            }
        }
        Kind::ElasticDiurnal => {
            let e = Elastic::new(size);
            let prefix = prefix_spans(e.spans, SimDuration::from_secs(8));
            let one = e.run(seed, 1, prefix, 0).1.render();
            let many = e.run(seed, e.shards, prefix, 0).1.render();
            if one != many {
                problems.push(format!("report differs between K=1 and K={}", e.shards));
            }
        }
        Kind::ScaleTier => {
            // The rebuilt config matches `run_scale` row for row.
            let p = scale_params(Size::Smoke, ScaleParams::smoke().seed);
            let ours = scale_table(&[scale_run(&p, 0).1]).to_csv();
            let theirs = scale_table(&run_scale(&p)).to_csv();
            if ours != theirs {
                problems.push("scale-tier rebuild differs from run_scale(smoke)".to_string());
            }
        }
    }
    problems
}

/// A short prefix of a run: warm-up and measured span each cut to `cap`.
fn prefix_spans(
    (w, m): (SimDuration, SimDuration),
    cap: SimDuration,
) -> (SimDuration, SimDuration) {
    (w.min(cap), m.min(cap))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests share the process-wide tracer, thread override and parallel
    /// driver; they take this lock so they run one at a time.
    pub static SERIAL: Mutex<()> = Mutex::new(());

    pub fn serial() -> std::sync::MutexGuard<'static, ()> {
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        dynmds_core::shard::install_parallel_driver(trace::traced_driver);
        dynmds_harness::parallel::set_thread_override(Some(2));
        trace::set_workers(2);
        guard
    }

    fn tiny_legacy() -> (SimConfig, Snapshot) {
        let cfg = scaling_config(StrategyKind::DynamicSubtree, 2, ExperimentScale::Quick);
        let snap = scaling_snapshot(&cfg, ExperimentScale::Quick);
        (cfg, snap)
    }

    /// Everything a legacy report holds that the benchmark reads.
    fn legacy_render(r: &SimReport) -> String {
        let rows = [scale_point(r.strategy, r.n_mds, r)];
        format!("{}{:?}{:?}", context_table(&rows).to_csv(), r.nodes, r.latency)
    }

    #[test]
    fn sliced_run_until_matches_one_call_on_both_engines() {
        let _g = serial();
        let spans = (SimDuration::from_millis(300), SimDuration::from_millis(700));

        let (cfg, snap) = tiny_legacy();
        let wl = general_workload(&cfg, &snap);
        let whole = Simulation::new(cfg.clone(), snap, wl).run_measured(spans.0, spans.1);
        let (_, snap) = tiny_legacy();
        let wl = general_workload(&cfg, &snap);
        let mut sim = Simulation::new(cfg.clone(), snap, wl);
        let mut pt = Point { grid: cfg.costs.net_hop, ..Point::default() };
        drive(&mut sim, spans, &mut pt, 0);
        assert_eq!(pt.slices_s.len() as u64, SLICES);
        assert!(pt.events > 0);
        assert_eq!(legacy_render(&whole), legacy_render(&sim.finish()));

        let d = Dense::new(Size::Tiny);
        let cfg = d.config(5);
        let snap =
            || NamespaceSpec::with_target_items(d.clients as usize, d.items, 5 ^ 0xF5).generate();
        let first = snap();
        let (homes, shared) = (first.user_homes.clone(), first.shared_roots.clone());
        let n = d.clients as usize;
        let factory = |ns: &Namespace| -> Box<dyn Workload + Send> {
            Box::new(GeneralWorkload::new(WorkloadConfig::default(), n, &homes, &shared, ns))
        };
        let whole = ShardedSimulation::new(cfg.clone(), 2, None, first, &factory)
            .run_measured(spans.0, spans.1);
        let mut pt = Point::default();
        let sim = sharded_setup(cfg, 2, snap(), &factory, &mut pt, 0);
        let sliced = sharded_measure(sim, spans, &mut pt, 0);
        assert_eq!(whole.render(), sliced.render());
    }

    #[test]
    fn tracing_leaves_reports_identical_and_steps_each_shard_once_per_window() {
        let _g = serial();
        let d = Dense::new(Size::Tiny);
        let plain = d.run(9, d.shards, d.spans, 0).1.render();
        trace::set_enabled(true);
        let before = trace::totals();
        let traced = d.run(9, d.shards, d.spans, 0).1.render();
        let t = trace::totals().minus(&before);
        trace::set_enabled(false);
        assert_eq!(plain, traced, "tracing changed the simulated result");
        let f = t.fanout;
        assert!(f.windows.count > 0, "no fan-out went through the traced driver");
        assert_eq!(f.misdispatched, 0);
        assert_eq!(f.steps.count, f.windows.count * d.shards as u64);
        assert!(t.next_op.count > 0 && t.op_kinds.iter().sum::<u64>() == t.next_op.count);

        // The legacy engine's report is untouched by the workload wrapper.
        let spans = (SimDuration::from_millis(200), SimDuration::from_millis(300));
        let (cfg, snap) = tiny_legacy();
        let wl = general_workload(&cfg, &snap);
        let plain = Simulation::new(cfg.clone(), snap, wl).run_measured(spans.0, spans.1);
        let (_, snap) = tiny_legacy();
        let timed = Box::new(TimedWorkload::new(*general_workload(&cfg, &snap)));
        let traced = Simulation::new(cfg, snap, timed).run_measured(spans.0, spans.1);
        assert_eq!(legacy_render(&plain), legacy_render(&traced));
    }
}
