//! Host-time tracing from outside the simulator.
//!
//! Spans are recorded only here and in the benchmark's round loop, around
//! calls into each layer; no crate of the simulator is changed.
//!
//! * Coarse spans — namespace generation, workload build, engine
//!   construction, warm-up, each measured slice, `finish`, one span per
//!   simulation ("point") and one per repetition ("round") — are kept
//!   whole.
//! * The sharded engine's per-window fan-out is observed by
//!   [`traced_driver`], installed as its parallel driver, and every
//!   `next_op` call by [`TimedWorkload`]. These are aggregated into
//!   counts, totals and log2 histograms, and every [`SAMPLE_EVERY`]th one
//!   is also kept as a span.
//!
//! All spans stay in memory until [`spans_jsonl`] renders them at exit.
//! Tracing is switched per round, so one process can alternate traced and
//! untraced rounds; when it is off the driver costs one relaxed load per
//! window and no workload is wrapped.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use dynmds_event::SimTime;
use dynmds_harness::parallel::parallel_for_indices;
use dynmds_namespace::{ClientId, Namespace};
use dynmds_workload::{Op, OpKind, Workload};

/// One in this many fan-outs and `next_op` calls is kept as a span.
const SAMPLE_EVERY: u64 = 1000;

/// Most shards one traced fan-out can time (the benchmark runs K ≤ 8;
/// the slots are zeroed on every window, so they stay few).
const MAX_FANOUT: usize = 16;

/// Log2 histogram buckets over nanoseconds.
const HIST: usize = 40;

/// Metric-name suffixes of the `Op` variants, in `kind_index` order.
pub const OP_KINDS: [&str; 12] = [
    "stat", "lookup", "open", "close", "readdir", "create", "mkdir", "unlink", "rename", "chmod",
    "setattr", "link",
];

fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Stat => 0,
        OpKind::Lookup => 1,
        OpKind::Open => 2,
        OpKind::Close => 3,
        OpKind::Readdir => 4,
        OpKind::Create => 5,
        OpKind::Mkdir => 6,
        OpKind::Unlink => 7,
        OpKind::Rename => 8,
        OpKind::Chmod => 9,
        OpKind::SetAttr => 10,
        OpKind::Link => 11,
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ROUND: AtomicU64 = AtomicU64::new(0);
static WORKERS: AtomicUsize = AtomicUsize::new(1);
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    totals: Totals { fanout: Fanout::ZERO, next_op: Agg::ZERO, op_kinds: [0; OP_KINDS.len()] },
});

thread_local! {
    /// The span that work on this thread currently belongs to: a slice on
    /// the thread driving an engine, propagated to pool workers by the
    /// traced driver.
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

/// Turns tracing on or off for the rounds that follow.
pub fn set_enabled(on: bool) {
    ON.store(on, Relaxed);
}

/// Whether the current round is traced.
pub fn enabled() -> bool {
    ON.load(Relaxed)
}

/// Pool workers one fan-out can occupy (the pinned thread count).
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Relaxed);
}

/// Tags the spans that follow with repetition `round`.
pub fn begin_round(round: u64) {
    ROUND.store(round, Relaxed);
}

/// Makes `id` the parent of sampled spans recorded on this thread.
pub fn set_parent(id: u64) {
    PARENT.with(|p| p.set(id));
}

fn parent() -> u64 {
    PARENT.with(Cell::get)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn sink() -> MutexGuard<'static, Sink> {
    SINK.lock().expect("a thread panicked while holding the trace sink")
}

/// One recorded span: `[start_ns, end_ns)` on the process clock.
#[derive(Clone, Debug)]
pub struct Span {
    id: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: u64,
    round: u64,
}

impl Span {
    fn new(id: u64, name: &str, start_ns: u64, end_ns: u64, parent: u64) -> Self {
        Span { id, name: name.to_string(), start_ns, end_ns, parent, round: ROUND.load(Relaxed) }
    }
}

/// Times one coarse span. Its id is allocated at the start so children
/// can name it as their parent before it ends.
pub struct SpanTimer {
    /// Span id, for children.
    pub id: u64,
    start_ns: u64,
}

impl SpanTimer {
    /// Starts timing.
    pub fn start() -> Self {
        SpanTimer { id: NEXT_ID.fetch_add(1, Relaxed), start_ns: now_ns() }
    }

    /// Ends the span, keeps it when tracing is on, and returns its length
    /// in seconds (the benchmark needs the time traced or not).
    pub fn stop(self, name: &str, parent: u64) -> f64 {
        let end = now_ns();
        if enabled() {
            sink().spans.push(Span::new(self.id, name, self.start_ns, end, parent));
        }
        (end - self.start_ns) as f64 / 1e9
    }
}

/// Count, total and log2 histogram of a sampled duration.
#[derive(Clone, Copy, Debug)]
pub struct Agg {
    /// Samples.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    hist: [u64; HIST],
}

impl Agg {
    const ZERO: Agg = Agg { count: 0, total_ns: 0, hist: [0; HIST] };

    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist[((64 - ns.leading_zeros()) as usize).min(HIST - 1)] += 1;
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.hist.iter_mut().zip(other.hist) {
            *a += b;
        }
    }

    fn minus(&self, before: &Agg) -> Agg {
        let mut out = *self;
        out.count -= before.count;
        out.total_ns -= before.total_ns;
        for (a, b) in out.hist.iter_mut().zip(before.hist) {
            *a -= b;
        }
        out
    }

    /// Total in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    fn json(&self, name: &str) -> String {
        let hist: Vec<String> = self.hist.iter().map(u64::to_string).collect();
        format!(
            "{{\"aggregate\":\"{name}\",\"count\":{},\"total_ns\":{},\"hist_log2_ns\":[{}]}}",
            self.count,
            self.total_ns,
            hist.join(",")
        )
    }
}

/// What the traced driver saw of the sharded engine's window loop.
#[derive(Clone, Copy, Debug)]
pub struct Fanout {
    /// One sample per executed window: the fan-out's wall time on the
    /// thread that drives the engine.
    pub windows: Agg,
    /// One sample per shard step.
    pub steps: Agg,
    /// Idle worker time inside fan-outs: occupied workers × fan-out wall
    /// time − the steps' busy time.
    pub idle_ns: u64,
    /// Sum over windows of (slowest step ÷ mean step).
    pub imbalance_sum: f64,
    /// Windows in which some shard was not stepped exactly once.
    pub misdispatched: u64,
}

impl Fanout {
    const ZERO: Fanout = Fanout {
        windows: Agg::ZERO,
        steps: Agg::ZERO,
        idle_ns: 0,
        imbalance_sum: 0.0,
        misdispatched: 0,
    };

    /// What happened since `before`.
    pub fn minus(&self, before: &Fanout) -> Fanout {
        Fanout {
            windows: self.windows.minus(&before.windows),
            steps: self.steps.minus(&before.steps),
            idle_ns: self.idle_ns - before.idle_ns,
            imbalance_sum: self.imbalance_sum - before.imbalance_sum,
            misdispatched: self.misdispatched - before.misdispatched,
        }
    }
}

/// Process-lifetime aggregates; a round's share is a difference of two
/// snapshots.
#[derive(Clone, Copy, Debug)]
pub struct Totals {
    /// Window fan-outs.
    pub fanout: Fanout,
    /// `next_op` calls (merged when a [`TimedWorkload`] is dropped).
    pub next_op: Agg,
    /// `next_op` results per `Op` variant.
    pub op_kinds: [u64; OP_KINDS.len()],
}

impl Totals {
    /// What happened since `before`.
    pub fn minus(&self, before: &Totals) -> Totals {
        let mut op_kinds = self.op_kinds;
        for (a, b) in op_kinds.iter_mut().zip(before.op_kinds) {
            *a -= b;
        }
        Totals {
            fanout: self.fanout.minus(&before.fanout),
            next_op: self.next_op.minus(&before.next_op),
            op_kinds,
        }
    }
}

struct Sink {
    spans: Vec<Span>,
    totals: Totals,
}

/// Snapshot of the process-lifetime aggregates.
pub fn totals() -> Totals {
    sink().totals
}

/// Parallel driver for the sharded engine that times each window's
/// fan-out and each shard step around the harness pool's
/// `parallel_for_indices`. Install it with
/// `dynmds_core::shard::install_parallel_driver` before anything else
/// installs one: the first install in a process wins.
pub fn traced_driver(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
    if !enabled() {
        return parallel_for_indices(n, threads, body);
    }
    assert!(n <= MAX_FANOUT, "fan-out of {n} shards exceeds the tracer's {MAX_FANOUT} slots");
    let start: [AtomicU64; MAX_FANOUT] = [const { AtomicU64::new(0) }; MAX_FANOUT];
    let end: [AtomicU64; MAX_FANOUT] = [const { AtomicU64::new(0) }; MAX_FANOUT];
    let repeats = AtomicU64::new(0);
    // Relaxed suffices: the pool joins every worker through a mutex
    // before `parallel_for_indices` returns, which orders these stores
    // before the reads below.
    let stepped = |i: usize, s: u64, e: u64| {
        start[i].store(s, Relaxed);
        if end[i].swap(e.max(1), Relaxed) != 0 {
            repeats.fetch_add(1, Relaxed);
        }
    };
    let slice = parent();
    let workers = threads.unwrap_or(WORKERS.load(Relaxed)).clamp(1, n.max(1));
    let t0 = now_ns();
    let t1 = if workers == 1 {
        // The pool would run the steps inline in index order as well;
        // chaining each step's end into the next one's start halves the
        // clock reads, which dominate the cost of a near-empty window.
        let mut last = t0;
        for i in 0..n {
            body(i);
            let e = now_ns();
            stepped(i, last, e);
            last = e;
        }
        last
    } else {
        parallel_for_indices(n, threads, &|i| {
            set_parent(slice);
            let s = now_ns();
            body(i);
            stepped(i, s, now_ns());
        });
        set_parent(slice);
        now_ns()
    };

    let mut sink = sink();
    let f = &mut sink.totals.fanout;
    f.windows.add(t1 - t0);
    let (mut busy, mut slowest, mut exact) = (0u64, 0u64, repeats.load(Relaxed) == 0);
    for i in 0..n {
        let e = end[i].load(Relaxed);
        let d = e.saturating_sub(start[i].load(Relaxed));
        f.steps.add(d);
        busy += d;
        slowest = slowest.max(d);
        exact &= e != 0;
    }
    let workers = workers as u64;
    f.idle_ns += (workers * (t1 - t0)).saturating_sub(busy);
    f.imbalance_sum += if busy > 0 { (slowest * n as u64) as f64 / busy as f64 } else { 1.0 };
    f.misdispatched += u64::from(!exact);
    if f.windows.count.is_multiple_of(SAMPLE_EVERY) {
        let id = NEXT_ID.fetch_add(1, Relaxed);
        sink.spans.push(Span::new(id, "core.window_fanout", t0, t1, slice));
        for i in 0..n {
            let (s, e) = (start[i].load(Relaxed), end[i].load(Relaxed));
            sink.spans.push(Span::new(
                NEXT_ID.fetch_add(1, Relaxed),
                &format!("core.shard_step.{i}"),
                s,
                e,
                id,
            ));
        }
    }
}

/// A workload wrapper that times `next_op` and counts its results per
/// `Op` variant. Counters are per instance (one per shard) and merge into
/// the process totals when the engine drops the workload.
pub struct TimedWorkload<W> {
    inner: W,
    next_op: Agg,
    op_kinds: [u64; OP_KINDS.len()],
    samples: Vec<Span>,
}

impl<W> TimedWorkload<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        TimedWorkload {
            inner,
            next_op: Agg::ZERO,
            op_kinds: [0; OP_KINDS.len()],
            samples: Vec::new(),
        }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        let t0 = now_ns();
        let op = self.inner.next_op(ns, client, now);
        let t1 = now_ns();
        self.next_op.add(t1 - t0);
        self.op_kinds[kind_index(op.kind())] += 1;
        if self.next_op.count.is_multiple_of(SAMPLE_EVERY) {
            let id = NEXT_ID.fetch_add(1, Relaxed);
            self.samples.push(Span::new(id, "workload.next_op", t0, t1, parent()));
        }
        op
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }

    fn think_scale(&self, now: SimTime) -> f64 {
        self.inner.think_scale(now)
    }
}

impl<W> Drop for TimedWorkload<W> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned sink only loses these counts.
        if let Ok(mut sink) = SINK.lock() {
            sink.totals.next_op.merge(&self.next_op);
            for (a, b) in sink.totals.op_kinds.iter_mut().zip(self.op_kinds) {
                *a += b;
            }
            sink.spans.append(&mut self.samples);
        }
    }
}

/// Every span kept so far, one JSON object per line, followed by the
/// aggregates (fan-outs, shard steps, `next_op`, op counts) since
/// `since`. The spans are handed over: the next call starts empty.
pub fn spans_jsonl(since: &Totals) -> String {
    use crate::measure::json_str;
    let mut sink = sink();
    let mut out = String::new();
    for s in std::mem::take(&mut sink.spans) {
        out.push_str(&format!(
            "{{\"id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}\n",
            s.id,
            json_str(&s.name),
            s.start_ns,
            s.end_ns,
            s.parent,
            s.round
        ));
    }
    let t = sink.totals.minus(since);
    out.push_str(&t.fanout.windows.json("core.window_fanout"));
    out.push('\n');
    out.push_str(&t.fanout.steps.json("core.shard_step"));
    out.push('\n');
    out.push_str(&t.next_op.json("workload.next_op"));
    out.push('\n');
    let kinds: Vec<String> =
        OP_KINDS.iter().zip(t.op_kinds).map(|(k, n)| format!("\"{k}\":{n}")).collect();
    out.push_str(&format!(
        "{{\"aggregate\":\"workload.op\",\"counts\":{{{}}}}}\n",
        kinds.join(",")
    ));
    out
}
