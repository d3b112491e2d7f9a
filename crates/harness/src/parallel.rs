//! Order-preserving parallel execution over a persistent worker pool.
//!
//! [`parallel_map`] used to spawn fresh OS threads per call, which is
//! fine for a handful of experiment stages but not for a per-window shard
//! loop that fans out thousands of times per run. All entry points now
//! share one lazily-grown, process-wide pool of parked workers; a call
//! hands them a *scoped* job (borrowing the caller's stack) and
//! participates inline itself, so:
//!
//! * idle steady state is flat — repeated calls reuse the same threads
//!   and spawn nothing new (unit test
//!   `idle_steady_state_spawns_no_new_threads`);
//! * nesting cannot deadlock — a worker running an outer job that issues
//!   an inner call simply drains the inner items inline; helper tickets
//!   that no worker ever picks up are cancelled, not waited for;
//! * worker panics are caught (workers are recycled, never poisoned) and
//!   re-raised on the calling thread.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One result slot. Each index is written by exactly one worker (the one
/// that claimed it from the shared counter) and read only after the job
/// completed, so the unsynchronized interior access is safe — workers
/// never contend on a shared lock the way a whole-results mutex would
/// force them to.
struct Slot<R>(UnsafeCell<MaybeUninit<R>>);

unsafe impl<R: Send> Sync for Slot<R> {}

/// Pure worker-count policy, separated from process state so tests never
/// have to mutate environment variables (mutating the env from test
/// threads races with concurrent reads and is UB-adjacent on some
/// platforms). Precedence: explicit caller override, then the
/// `DYNMDS_THREADS` value, then detected parallelism; invalid or
/// non-positive overrides fall through, and the result never exceeds the
/// item count.
fn resolve_workers(
    n_items: usize,
    explicit: Option<usize>,
    env: Option<&str>,
    detected: usize,
) -> usize {
    let from_env = || env.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&t| t > 0);
    let chosen = explicit.filter(|&t| t > 0).or_else(from_env).unwrap_or(detected.max(1));
    chosen.min(n_items)
}

/// Process-wide thread override installed by `--threads` entry points
/// (zero means "unset"). The `DYNMDS_THREADS` environment variable is
/// deliberately read once and cached (mutating the env at runtime races
/// with concurrent reads), which used to mean a CLI that ran several
/// sub-runs in one process could not retarget the worker count between
/// them. CLIs now publish their parsed `--threads` here instead of
/// touching the environment; a per-call explicit count still wins.
static PROCESS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `None` clears) the process-wide worker-count
/// override. Call from CLI entry points after parsing `--threads`; every
/// later pool call without a per-call explicit count uses this value in
/// preference to the cached `DYNMDS_THREADS` / detected parallelism.
pub fn set_thread_override(threads: Option<usize>) {
    PROCESS_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Worker count for a run. Precedence: per-call explicit override, then
/// the process-wide [`set_thread_override`] value, then the
/// `DYNMDS_THREADS` environment variable (a positive integer — lets
/// oversubscribed CI machines and reviewers pin reproducible timings),
/// otherwise the detected parallelism. Both process-level inputs are
/// read once and cached: `available_parallelism` re-reads cgroup files
/// on Linux (tens of µs), which the per-window shard fan-out calls far
/// too often to absorb.
pub(crate) fn worker_count(n_items: usize, explicit: Option<usize>) -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    static ENV: OnceLock<Option<String>> = OnceLock::new();
    let detected = *DETECTED
        .get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4));
    let env = ENV.get_or_init(|| std::env::var("DYNMDS_THREADS").ok());
    let explicit =
        explicit.filter(|&t| t > 0).or_else(|| match PROCESS_OVERRIDE.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        });
    resolve_workers(n_items, explicit, env.as_deref(), detected)
}

/// Mutable state of one scoped job, guarded by [`Job::gate`].
struct JobState {
    /// Set by the issuing thread when it has finished its own share and
    /// no longer guarantees the borrowed closure is alive; workers that
    /// dequeue a ticket afterwards must not touch the closure.
    cancelled: bool,
    /// Workers currently executing the closure.
    running: usize,
    /// First panic payload caught in a worker, re-raised by the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// A scoped job: a borrowed `Fn() + Sync` body that any number of pool
/// workers execute while the caller runs its own share. The lifetime of the body
/// is erased to place it in the process-wide queue; safety rests on the
/// cancel-then-drain handshake in [`scoped`]: the body pointer is only
/// dereferenced by a worker that registered in `running` while the job
/// was not yet cancelled, and the caller does not return (or unwind)
/// before `cancelled` is set and `running` has drained to zero.
struct Job {
    body: *const (dyn Fn() + Sync),
    gate: Mutex<JobState>,
    done: Condvar,
}

unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Executes the job body once on a pool worker, unless the job was
    /// already cancelled. Panics are captured, not propagated — the
    /// worker thread must survive to serve later jobs.
    fn serve(&self) {
        {
            let mut st = self.gate.lock().unwrap();
            if st.cancelled {
                return;
            }
            st.running += 1;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.body)() }));
        let mut st = self.gate.lock().unwrap();
        st.running -= 1;
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        if st.running == 0 {
            self.done.notify_all();
        }
    }
}

/// The process-wide pool: a ticket queue plus parked worker threads.
/// Workers are spawned on demand up to the largest helper count any call
/// has asked for, then parked on the condvar between jobs — never
/// respawned, never exited.
struct WorkerPool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    spawned: AtomicUsize,
}

fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

impl WorkerPool {
    /// Grows the pool to at least `want` parked workers.
    fn ensure_workers(&'static self, want: usize) {
        while self.spawned.load(Ordering::Relaxed) < want {
            self.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name("dynmds-pool".into())
                .spawn(move || self.worker_loop())
                .expect("spawn pool worker");
        }
    }

    fn worker_loop(&self) {
        let mut queue = self.queue.lock().unwrap();
        loop {
            match queue.pop_front() {
                Some(job) => {
                    drop(queue);
                    job.serve();
                    queue = self.queue.lock().unwrap();
                }
                None => queue = self.wake.wait(queue).unwrap(),
            }
        }
    }

    /// Number of workers ever spawned (diagnostic for the idle test).
    #[cfg_attr(not(test), allow(dead_code))]
    fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }
}

/// Runs `inline` on the calling thread and `helper` on up to `helpers`
/// pool workers, returning once every execution of either has finished.
/// Both are typically claim-loops over shared atomic state, so however
/// many workers actually show up, each item runs exactly once. Helper
/// tickets still queued when the caller finishes are cancelled rather
/// than waited for — that is what makes nested calls deadlock-free even
/// when every worker is busy.
fn scoped(helpers: usize, helper: &(dyn Fn() + Sync), inline: &dyn Fn()) {
    let pool = pool();
    pool.ensure_workers(helpers);
    // Erase the borrow lifetime; see `Job` for the safety argument.
    let body_static: *const (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(helper) };
    let job = Arc::new(Job {
        body: body_static,
        gate: Mutex::new(JobState { cancelled: false, running: 0, panic: None }),
        done: Condvar::new(),
    });
    {
        let mut queue = pool.queue.lock().unwrap();
        for _ in 0..helpers {
            queue.push_back(Arc::clone(&job));
        }
    }
    // One wakeup per ticket, not `notify_all`: a pool that an earlier
    // call grew to many workers must not wake all of them for one helper
    // ticket. No wakeup is lost: tickets are pushed under the queue lock,
    // and a worker checks the queue under that lock before it waits, so
    // a worker that misses a notification finds the ticket itself.
    for _ in 0..helpers {
        pool.wake.notify_one();
    }

    /// Drop guard: even if the inline share of the body unwinds, the job
    /// is cancelled and in-flight workers are drained before the stack
    /// frame holding the borrowed closure disappears.
    struct Finish<'a>(&'a Job);
    impl Drop for Finish<'_> {
        fn drop(&mut self) {
            let mut st = self.0.gate.lock().unwrap();
            st.cancelled = true;
            while st.running > 0 {
                st = self.0.done.wait(st).unwrap();
            }
        }
    }

    let finish = Finish(&job);
    let inline = catch_unwind(AssertUnwindSafe(inline));
    drop(finish);
    let worker_panic = job.gate.lock().unwrap().panic.take();
    if let Err(payload) = inline {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Applies `f` to every item on the shared worker pool, returning the
/// results in input order. Each item runs exactly once; panics in workers
/// propagate. Worker count comes from `DYNMDS_THREADS` or detected
/// parallelism; use [`parallel_map_threads`] to pin it explicitly.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_threads(items, None, f)
}

/// [`parallel_map`] with an explicit worker-count override (`None` defers
/// to `DYNMDS_THREADS` / detected parallelism). Results are in input
/// order regardless of the thread count, so output is byte-stable across
/// any choice of `threads`.
pub fn parallel_map_threads<T, R, F>(items: &[T], threads: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count(n, threads);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Slot<R>> =
        (0..n).map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit()))).collect();
    // Tracks how many slots were actually filled so a worker panic (which
    // propagates after the job drains) can't leak into reads of
    // uninitialized memory: we only assume all slots on full completion.
    let filled = AtomicUsize::new(0);

    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(&items[i]);
        // Safety: index i was claimed exclusively via fetch_add.
        unsafe { (*slots[i].0.get()).write(r) };
        filled.fetch_add(1, Ordering::Release);
    };
    scoped(workers - 1, &work, &work);

    assert_eq!(filled.load(Ordering::Acquire), n, "every slot filled");
    slots
        .into_iter()
        // Safety: all n slots initialized (asserted above), read once each.
        .map(|s| unsafe { s.0.into_inner().assume_init() })
        .collect()
}

/// Runs `body(i)` for every index in `0..n` on the shared worker pool —
/// the fan-out primitive of the sharded simulation loop, which calls it
/// once per 100µs window to step each shard. Each index runs exactly
/// once. `threads` follows the same policy as [`parallel_map_threads`];
/// with one worker everything runs inline on the caller with zero
/// synchronization.
///
/// Indices stay on the same participant from call to call where they
/// can: with `W` workers the caller is participant 0, helpers number
/// themselves `1..W` in arrival order, and participant `p` first runs
/// the indices `i ≡ p (mod W)` it can claim, then steals any index still
/// unclaimed. A shard stepped every window thus keeps its queue, caches
/// and clients in one core's private caches instead of moving with
/// whichever core grabbed it first; a helper that never arrives costs
/// nothing, since its indices are stolen. Claims are atomic bits, one
/// word per 64 indices, on the stack when `n <= 64`.
pub fn parallel_for_indices(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let workers = worker_count(n, threads);
    if workers <= 1 {
        for i in 0..n {
            body(i);
        }
        return;
    }
    let word = [AtomicU64::new(0)];
    let heap: Vec<AtomicU64>;
    let claims: &[AtomicU64] = if n <= 64 {
        &word
    } else {
        heap = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        &heap
    };
    let arrived = AtomicUsize::new(1);
    scoped(
        workers - 1,
        &|| run_share(claims, n, workers, arrived.fetch_add(1, Ordering::Relaxed), body),
        &|| run_share(claims, n, workers, 0, body),
    );
}

/// Participant `p`'s share of a [`parallel_for_indices`] call over
/// `workers` participants: every index `i ≡ p (mod workers)` it can
/// claim, then every index still unclaimed. `claims` holds one bit per
/// index, set by whoever runs it, so each index runs exactly once however
/// many participants show up.
fn run_share(claims: &[AtomicU64], n: usize, workers: usize, p: usize, body: &dyn Fn(usize)) {
    // Relaxed suffices: a claim bit publishes no data (the `fetch_or`
    // alone decides who runs an index), and the bodies' writes reach the
    // caller through the job's mutex when `scoped` drains its helpers.
    let claim = |i: usize| {
        let bit = 1u64 << (i % 64);
        claims[i / 64].fetch_or(bit, Ordering::Relaxed) & bit == 0
    };
    for i in (p..n).step_by(workers) {
        if claim(i) {
            body(i);
        }
    }
    for (w, word) in claims.iter().enumerate() {
        loop {
            // Lowest unclaimed bit; past `n` only the unused tail is left.
            let i = w * 64 + (!word.load(Ordering::Relaxed)).trailing_zeros() as usize;
            if i >= n.min(w * 64 + 64) {
                break;
            }
            if claim(i) {
                body(i);
            }
        }
    }
}

/// Routes the sharded engine's per-window fan-out through this worker
/// pool, so sweep slots and shard stepping share one set of threads.
/// Call once at binary startup; later calls are no-ops.
pub fn install_shard_driver() {
    dynmds_core::shard::install_parallel_driver(parallel_for_indices);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = vec![];
        let out: Vec<u64> = parallel_map(&items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = parallel_map(&[7u64], |&x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn heavy_closure_runs_once_per_item() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 37);
        assert_eq!(calls.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn results_are_not_copy_types() {
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, |&x| format!("v{x}"));
        assert_eq!(out[49], "v49");
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn worker_resolution_is_pure_and_env_free() {
        // Env override wins over detection and clamps to the item count.
        assert_eq!(resolve_workers(8, None, Some("2"), 16), 2);
        assert_eq!(resolve_workers(1, None, Some("2"), 16), 1, "never more workers than items");
        // Invalid or non-positive env values fall back to detection.
        assert_eq!(resolve_workers(8, None, Some("0"), 4), 4);
        assert_eq!(resolve_workers(8, None, Some("not-a-number"), 4), 4);
        assert_eq!(resolve_workers(8, None, Some(" 3 "), 4), 3, "whitespace tolerated");
        // No env: detected parallelism, still clamped.
        assert_eq!(resolve_workers(8, None, None, 4), 4);
        assert_eq!(resolve_workers(2, None, None, 4), 2);
        assert_eq!(resolve_workers(8, None, None, 0), 1, "detection floor is one worker");
        // Explicit override beats both env and detection; zero is ignored.
        assert_eq!(resolve_workers(8, Some(3), Some("2"), 16), 3);
        assert_eq!(resolve_workers(8, Some(0), Some("2"), 16), 2);
    }

    #[test]
    fn explicit_thread_override_runs_and_preserves_order() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [Some(1), Some(2), Some(64), None] {
            let out = parallel_map_threads(&items, threads, |&x| x * 3);
            assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>(), "{threads:?}");
        }
    }

    #[test]
    fn idle_steady_state_spawns_no_new_threads() {
        let items: Vec<u64> = (0..32).collect();
        // Warm the pool to the largest helper count any test in this
        // module asks for (63, at `Some(64)` over 64 items), so a test
        // running alongside cannot grow it between the two reads.
        let wide: Vec<u64> = (0..64).collect();
        let _ = parallel_map_threads(&wide, Some(64), |&x| x);
        let after_warmup = pool().threads_spawned();
        assert!(after_warmup >= 63, "warm-up grew the pool to {after_warmup}");
        // A shard-loop-shaped usage pattern: many small fan-outs. The
        // pool must recycle its parked workers, not spawn per call.
        for round in 0..200 {
            let out = parallel_map_threads(&items, Some(4), |&x| x + round);
            assert_eq!(out[0], round);
            let steps = AtomicUsize::new(0);
            parallel_for_indices(4, Some(4), &|_| {
                steps.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(steps.into_inner(), 4);
        }
        assert_eq!(
            pool().threads_spawned(),
            after_warmup,
            "steady-state calls must not spawn threads"
        );
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        // Outer items each fan out again; with every pool worker busy on
        // outer bodies, inner calls must complete inline.
        let outer: Vec<u64> = (0..8).collect();
        let out = parallel_map_threads(&outer, Some(4), |&x| {
            let inner: Vec<u64> = (0..16).collect();
            parallel_map_threads(&inner, Some(4), |&y| x * 100 + y).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|x| (0..16).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_for_indices_runs_every_index_once() {
        for threads in [Some(1), Some(3), None] {
            let hits: Vec<AtomicUsize> = (0..41).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_indices(hits.len(), threads, &|i| {
                hits[i].fetch_add(i * 10 + 1, Ordering::Relaxed);
            });
            let got: Vec<usize> = hits.into_iter().map(AtomicUsize::into_inner).collect();
            assert_eq!(got, (0..41).map(|x| x * 10 + 1).collect::<Vec<_>>(), "{threads:?}");
        }
    }

    /// Per-index run counts of `run(hits)` over `n` fresh counters.
    fn index_runs(n: usize, run: impl FnOnce(&[AtomicUsize])) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run(&hits);
        hits.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn parallel_for_indices_runs_once_across_claim_word_edges() {
        for n in [1, 2, 63, 64, 65, 130] {
            for threads in [1, 2, 4] {
                let runs = index_runs(n, |hits| {
                    parallel_for_indices(n, Some(threads), &|i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                });
                assert_eq!(runs, vec![1; n], "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_participant_alone_runs_every_index_once() {
        // A helper that never arrives: participant 0 (or any other) of
        // four, running by itself, steals the other three shares.
        for n in [1usize, 2, 63, 64, 65, 130] {
            for p in [0, 3] {
                let claims: Vec<AtomicU64> =
                    (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
                let runs = index_runs(n, |hits| {
                    run_share(&claims, n, 4, p, &|i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                });
                assert_eq!(runs, vec![1; n], "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nested_parallel_for_indices_in_a_busy_pool_runs_once() {
        // Every participant of the outer call issues an inner call, so
        // the inner calls' helper tickets queue behind busy workers and
        // their callers steal the shares of helpers that never arrive.
        let inner = 130;
        let runs = index_runs(4 * inner, |hits| {
            parallel_for_indices(4, Some(4), &|o| {
                parallel_for_indices(inner, Some(4), &|i| {
                    hits[o * inner + i].fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(runs, vec![1; 4 * inner]);
    }

    #[test]
    fn process_override_beats_env_and_yields_to_per_call() {
        // Regression: `--threads` used to be honored only at the call
        // sites that happened to thread it through; a multi-sub-run CLI
        // retargeting the count mid-process (where re-setting
        // DYNMDS_THREADS is both racy and ignored by the OnceLock cache)
        // silently kept the old value. The process override closes that
        // gap. Run the whole scenario in one test so the global override
        // can be restored before any assertion-free exit path.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_thread_override(None);
            }
        }
        let _restore = Restore;

        set_thread_override(Some(1));
        // With one worker every entry point runs inline on the caller.
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..32).collect();
        let seen: Vec<std::thread::ThreadId> =
            parallel_map(&items, |_| std::thread::current().id());
        assert!(
            seen.iter().all(|&t| t == caller),
            "override Some(1) must run the default-threaded path inline"
        );
        assert_eq!(worker_count(32, None), 1, "override reaches worker_count");
        // A per-call explicit count still beats the process override.
        assert_eq!(worker_count(32, Some(3)), 3, "per-call explicit wins");
        // Retargeting mid-process takes effect immediately.
        set_thread_override(Some(2));
        assert_eq!(worker_count(32, None), 2, "override is re-readable, not cached");
        // Clearing restores the env/detected path (≥1 whatever it is).
        set_thread_override(None);
        assert!(worker_count(32, None) >= 1);
    }

    #[test]
    fn worker_panics_propagate_and_pool_survives() {
        let items: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map_threads(&items, Some(4), |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err(), "the item panic must propagate to the caller");
        // The pool is still serviceable afterwards.
        let out = parallel_map_threads(&items, Some(4), |&x| x + 1);
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], 64);
    }
}
