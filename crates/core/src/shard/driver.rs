//! Parallel fan-out driver injection and the claimed shard fan-out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use super::event::Mail;
use super::handlers::{Shard, World};

/// Parallel fan-out driver: must invoke `body(i)` exactly once for every
/// `i < n` (concurrently is fine), honoring the `threads` override the
/// way the harness worker policy does. Installed once by the harness so
/// the shard loop shares its scoped worker pool; without one, shards run
/// serially in id order (identical results — the driver only changes
/// wall-clock). Only pooled windows call it, each with every shard;
/// inline windows run on the calling thread and never reach it.
pub type ParallelDriver = fn(usize, Option<usize>, &(dyn Fn(usize) + Sync));

pub(super) static DRIVER: OnceLock<ParallelDriver> = OnceLock::new();

/// Installs the process-wide shard fan-out driver. First caller wins;
/// later calls are ignored.
pub fn install_parallel_driver(driver: ParallelDriver) {
    let _ = DRIVER.set(driver);
}

/// Runs `f` once on every shard: through `driver` when one is given (the
/// call site passes the installed one) and there is more than one shard,
/// else serially in id order. `threads` goes to the driver unchanged.
/// Claim flags turn a driver that dispatches a shard twice, or never,
/// into a panic instead of two `&mut` aliases or a skipped shard. The
/// caller owns the flags (one per shard, all clear) so a per-window
/// fan-out allocates nothing; the final check clears them again.
pub(super) fn for_each_shard<S: Send>(
    shards: &mut [S],
    claims: &[AtomicBool],
    driver: Option<ParallelDriver>,
    threads: Option<usize>,
    f: impl Fn(&mut S) + Sync,
) {
    let Some(driver) = driver.filter(|_| shards.len() > 1) else {
        for s in shards.iter_mut() {
            f(s);
        }
        return;
    };
    struct Base<S>(*mut S);
    // SAFETY: the one field points at `shards`, which stays mutably
    // borrowed for the whole fan-out. A worker makes a `&mut S` only for
    // a shard it claimed, so each `S` is reached from one thread at a
    // time, and `S: Send` lets it be used on that thread.
    unsafe impl<S: Send> Sync for Base<S> {}
    impl<S> Base<S> {
        fn at(&self, i: usize) -> *mut S {
            // SAFETY: the only caller indexes `claims[i]` first, and
            // `claims` has one flag per shard, so `i` is in bounds.
            unsafe { self.0.add(i) }
        }
    }
    assert_eq!(claims.len(), shards.len(), "one claim flag per shard");
    let base = Base(shards.as_mut_ptr());
    driver(shards.len(), threads, &|i| {
        assert!(!claims[i].swap(true, Ordering::AcqRel), "driver dispatched shard {i} twice");
        // SAFETY: this call just claimed shard `i`, so no other `&mut`
        // to it exists while `f` runs.
        f(unsafe { &mut *base.at(i) });
    });
    for (i, c) in claims.iter().enumerate() {
        assert!(c.swap(false, Ordering::AcqRel), "driver never dispatched shard {i}");
    }
}

fn _thread_bounds() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<Shard>();
    sync::<World>();
    sync::<Mail>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testkit::*;

    /// Runs eight counters through `driver`; returns each one's run count.
    fn fan_out(driver: Option<ParallelDriver>, threads: Option<usize>) -> [u32; 8] {
        let mut shards = [0u32; 8];
        let claims: [AtomicBool; 8] = Default::default();
        for_each_shard(&mut shards, &claims, driver, threads, |s| *s += 1);
        assert!(claims.iter().all(|c| !c.load(Ordering::Relaxed)), "flags cleared for reuse");
        shards
    }

    #[test]
    fn fan_out_runs_every_shard_once_and_forwards_threads() {
        for threads in [Some(1), Some(3), None] {
            LAST_FANOUT.with(|c| c.set(None));
            assert_eq!(fan_out(Some(threaded_driver), threads), [1; 8]);
            assert_eq!(LAST_FANOUT.with(|c| c.get()), Some((8, threads)));
            assert_eq!(fan_out(None, threads), [1; 8]);
        }
        // One shard is stepped directly, as without a driver.
        let mut one = [0u32];
        LAST_FANOUT.with(|c| c.set(None));
        for_each_shard(&mut one, &[AtomicBool::new(false)], Some(threaded_driver), None, |s| {
            *s += 1
        });
        assert_eq!((one, LAST_FANOUT.with(|c| c.get())), ([1], None));
    }

    #[test]
    #[should_panic(expected = "driver dispatched shard 0 twice")]
    fn double_dispatch_panics() {
        fn twice(n: usize, _: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
            for i in 0..n {
                body(i);
                body(i);
            }
        }
        fan_out(Some(twice), None);
    }

    #[test]
    #[should_panic(expected = "driver never dispatched shard 7")]
    fn skipped_dispatch_panics() {
        fn short(n: usize, _: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
            (0..n - 1).for_each(body);
        }
        fan_out(Some(short), None);
    }
}
