//! The metrics registry: finished counters and fixed-bucket histograms.
//!
//! A counter is recorded once, finished, from counts its caller already
//! keeps: one value for a cluster-wide scalar or one per MDS. Histograms
//! are registered up front and addressed by typed index handles, so
//! recording an observation never touches a name or a hash map. Export
//! walks counters, then histograms, each in registration order, which is
//! fixed by construction: byte-reproducible output.

use crate::push_json_str;

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

struct Metric {
    name: &'static str,
    /// One slot per MDS, or a single slot for scalars.
    slots: Vec<u64>,
}

struct Histogram {
    name: &'static str,
    /// Inclusive upper bounds, strictly increasing; a final implicit
    /// +inf bucket catches the rest.
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }
}

/// Exponential microsecond bounds suitable for op latencies: 64 µs up to
/// ~8.4 s, doubling each bucket.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536, 131_072, 262_144,
    524_288, 1_048_576, 2_097_152, 4_194_304, 8_388_608,
];

/// Small linear bounds for hop counts and similar tiny distributions.
pub const HOPS_BOUNDS: &[u64] = &[0, 1, 2, 3, 4];

/// The per-cluster metrics registry. See module docs.
#[derive(Default)]
pub struct Registry {
    counters: Vec<Metric>,
    histograms: Vec<Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Records a finished counter: one value per MDS, or a single value
    /// for a cluster scalar.
    pub fn counter(&mut self, name: &'static str, values: &[u64]) {
        assert!(!values.is_empty(), "a counter needs at least one slot");
        self.counters.push(Metric { name, slots: values.to_vec() });
    }

    /// Registers a histogram over fixed `bounds` (strictly increasing).
    pub fn histogram(&mut self, name: &'static str, bounds: &'static [u64]) -> HistogramId {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        self.histograms.push(Histogram {
            name,
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].observe(value);
    }

    /// Observations recorded by a histogram.
    pub fn histogram_count(&self, id: HistogramId) -> u64 {
        self.histograms[id.0].count
    }

    /// Mean of a histogram's observations (0 when empty).
    pub fn histogram_mean(&self, id: HistogramId) -> f64 {
        let h = &self.histograms[id.0];
        if h.count == 0 {
            0.0
        } else {
            h.sum as f64 / h.count as f64
        }
    }

    /// Approximate quantile from the bucket boundaries: the upper bound
    /// of the bucket holding the `q` quantile (the histogram's resolution
    /// limit; exact enough for p50/p99 reporting).
    pub fn histogram_quantile(&self, id: HistogramId, q: f64) -> u64 {
        let h = &self.histograms[id.0];
        if h.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * h.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in h.counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return h.bounds.get(i).copied().unwrap_or(h.max);
            }
        }
        h.max
    }

    /// Drops every counter and zeroes every histogram (measurement
    /// restart after warm-up).
    pub fn reset(&mut self) {
        self.counters.clear();
        for h in &mut self.histograms {
            h.counts.iter_mut().for_each(|c| *c = 0);
            h.count = 0;
            h.sum = 0;
            h.max = 0;
        }
    }

    /// One JSONL line per metric, in registration order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in &self.counters {
            Self::counter_line(&mut out, m.name, &m.slots);
        }
        for h in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            push_json_str(&mut out, h.name);
            out.push_str(&format!(",\"count\":{},\"sum\":{},\"max\":{}", h.count, h.sum, h.max));
            out.push_str(",\"bounds\":[");
            for (i, b) in h.bounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str("],\"counts\":[");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("]}\n");
        }
        out
    }

    fn counter_line(out: &mut String, name: &str, slots: &[u64]) {
        out.push_str("{\"type\":\"counter\",\"name\":");
        push_json_str(out, name);
        if slots.len() == 1 {
            out.push_str(&format!(",\"value\":{}}}\n", slots[0]));
        } else {
            out.push_str(",\"per_mds\":[");
            for (i, s) in slots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&s.to_string());
            }
            out.push_str("]}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_per_mds_in_registration_order() {
        let mut r = Registry::new();
        r.counter("served", &[1, 0, 6]);
        r.counter("forwarded", &[2, 3, 4]);
        assert_eq!(
            r.to_jsonl(),
            "{\"type\":\"counter\",\"name\":\"served\",\"per_mds\":[1,0,6]}\n\
             {\"type\":\"counter\",\"name\":\"forwarded\",\"per_mds\":[2,3,4]}\n"
        );
    }

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let mut r = Registry::new();
        let h = r.histogram("lat", &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            r.observe(h, v);
        }
        assert_eq!(r.histogram_count(h), 5);
        let line = r.to_jsonl();
        assert!(line.contains("\"counts\":[2,2,0,1]"), "{line}");
        assert_eq!(r.histogram_quantile(h, 0.5), 100);
        assert_eq!(r.histogram_quantile(h, 1.0), 5000, "overflow bucket reports max");
    }

    #[test]
    fn jsonl_is_stable_across_identical_sequences() {
        let build = || {
            let mut r = Registry::new();
            let h = r.histogram("lat_us", LATENCY_BOUNDS_US);
            for i in 0..100u64 {
                r.observe(h, i * 37);
            }
            r.counter("ops", &[50, 50]);
            r.to_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn scalar_counters_render_value_not_array() {
        let mut r = Registry::new();
        r.counter("migrations", &[9]);
        assert!(r.to_jsonl().contains("\"value\":9"));
    }

    #[test]
    fn reset_drops_counters_and_zeroes_histograms() {
        let mut r = Registry::new();
        let h = r.histogram("lat", &[10]);
        r.counter("ops", &[1, 0]);
        r.observe(h, 3);
        r.reset();
        assert_eq!(r.histogram_count(h), 0);
        assert!(!r.to_jsonl().contains("ops"));
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let mut r = Registry::new();
        let h = r.histogram("lat", &[10]);
        assert_eq!(r.histogram_quantile(h, 0.99), 0);
        assert_eq!(r.histogram_mean(h), 0.0);
    }
}
