//! Seeded randomness with the distribution helpers the generators need.
//!
//! Workload and namespace generation in the paper are statistical: op
//! mixes, weighted choices, exponential think times, geometric depths.
//! This module wraps a seeded PRNG and provides exactly those samplers so
//! the rest of the workspace never touches `rand` directly, keeping
//! determinism policy in one place.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random source. Two `SimRng`s built from the same seed
/// produce identical streams.
pub struct SimRng {
    rng: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng { rng: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator; used to give each client or
    /// subsystem its own stream so insertion-order changes in one place do
    /// not perturb another.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::seed_from_u64(self.fork_seed(salt))
    }

    /// The seed [`fork`](Self::fork) would hand a child generator —
    /// consumes exactly the same single draw, so callers that need to
    /// *defer* building the child stream (the streaming snapshot
    /// generator materializes subtrees long after the fork sequence ran)
    /// can bank seeds and reconstruct identical streams later.
    pub fn fork_seed(&mut self, salt: u64) -> u64 {
        self.rng.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.rng.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.rng.gen_range(lo..hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.gen::<f64>() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Samples an index according to non-negative `weights` (cumulative
    /// scan + binary search). Panics if all weights are zero or the slice
    /// is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index on empty slice");
        let mut cum = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            debug_assert!(w >= 0.0 && w.is_finite(), "weights must be finite and non-negative");
            total += w;
            cum.push(total);
        }
        assert!(total > 0.0, "weighted_index requires a positive total weight");
        let x = self.unit() * total;
        match cum.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(i) => (i + 1).min(weights.len() - 1),
            Err(i) => i.min(weights.len() - 1),
        }
    }

    /// Exponentially distributed sample with the given mean (e.g. Poisson
    /// inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u = 1.0 - self.unit(); // in (0, 1], avoids ln(0)
        -u.ln() * mean
    }

    /// Geometric sample: number of failures before the first success with
    /// success probability `p`; used for directory depths.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.unit();
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let va: Vec<u64> = (0..20).map(|_| a.below(1 << 30)).collect();
        let vb: Vec<u64> = (0..20).map(|_| b.below(1 << 30)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_produces_independent_deterministic_streams() {
        let mut root1 = SimRng::seed_from_u64(42);
        let mut root2 = SimRng::seed_from_u64(42);
        let mut c1 = root1.fork(5);
        let mut c2 = root2.fork(5);
        for _ in 0..50 {
            assert_eq!(c1.below(100), c2.below(100));
        }
        // Different salts at the same point diverge.
        let mut root3 = SimRng::seed_from_u64(42);
        let mut d = root3.fork(6);
        let s1: Vec<u64> = (0..20).map(|_| root1.fork(0).below(1 << 20)).collect();
        let s2: Vec<u64> = (0..20).map(|_| d.below(1 << 20)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_rate_is_plausible() {
        let mut r = SimRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::seed_from_u64(13);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight bucket must never be drawn");
        assert!(counts[2] > counts[0] * 2, "3:1 weight ratio, got {counts:?}");
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn weighted_index_rejects_all_zero() {
        let mut r = SimRng::seed_from_u64(1);
        r.weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = SimRng::seed_from_u64(17);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = total / n as f64;
        assert!((4.7..5.3).contains(&mean), "got {mean}");
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut r = SimRng::seed_from_u64(19);
        assert_eq!(r.geometric(1.0), 0);
    }

    #[test]
    fn geometric_mean_is_plausible() {
        let mut r = SimRng::seed_from_u64(23);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.geometric(0.5)).sum();
        let mean = total as f64 / n as f64;
        // mean of geometric (failures before success) is (1-p)/p = 1.
        assert!((0.9..1.1).contains(&mean), "got {mean}");
    }

    #[test]
    fn pick_returns_member() {
        let mut r = SimRng::seed_from_u64(41);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.pick(&items)));
        }
    }
}
