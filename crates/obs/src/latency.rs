//! The integer latency histogram both engines export.

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

impl Default for LatencyAgg {
    fn default() -> Self {
        LatencyAgg { count: 0, sum_us: 0, min_us: u64::MAX, max_us: 0, buckets: [0; LAT_BUCKETS] }
    }
}

impl LatencyAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        LatencyAgg::default()
    }

    /// Records one latency of `us` microseconds.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        let b = if us == 0 { 0 } else { (64 - us.leading_zeros()) as usize };
        self.buckets[b.min(LAT_BUCKETS - 1)] += 1;
    }

    /// Adds `other`'s observations to this aggregate.
    pub fn merge(&mut self, other: &LatencyAgg) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_apart() {
        let mut a = LatencyAgg::new();
        for us in [0, 1, 2, 3, 4, 1000] {
            a.record(us);
        }
        assert_eq!(&a.buckets[..5], &[1, 1, 2, 1, 0]);
        assert_eq!(a.buckets[10], 1, "1000 µs is in [512, 1024)");
        assert_eq!((a.count, a.sum_us, a.min_us, a.max_us), (6, 1010, 0, 1000));
        assert_eq!(a.quantile_us(0.5), 2);
        assert_eq!(a.quantile_us(1.0), 512);
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let (mut a, mut b, mut both) = (LatencyAgg::new(), LatencyAgg::new(), LatencyAgg::new());
        for us in [5, 70, 900] {
            a.record(us);
            both.record(us);
        }
        for us in [0, 33] {
            b.record(us);
            both.record(us);
        }
        a.merge(&b);
        assert_eq!(format!("{a:?}"), format!("{both:?}"));
    }

    #[test]
    fn empty_aggregate_reads_zero() {
        let a = LatencyAgg::new();
        assert_eq!((a.mean_us(), a.quantile_us(0.99)), (0.0, 0));
    }
}
