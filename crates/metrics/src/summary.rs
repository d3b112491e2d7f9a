//! Distribution summaries.

/// Collects f64 samples and reports min/mean/max/percentiles. Percentiles
/// sort lazily; `record` stays O(1).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds a sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "samples must be finite");
        self.samples.push(v);
    }

    /// Every sample, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on a sorted copy, or
    /// `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }

    /// Median shortcut.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Summary {
        let mut s = Summary::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.record(v);
        }
        s
    }

    #[test]
    fn empty_summary_returns_none() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn basic_stats() {
        let s = filled();
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.sum(), 15.0);
        assert_eq!(s.median(), Some(3.0));
    }

    #[test]
    fn quantiles() {
        let s = filled();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.25), Some(2.0));
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.record(7.0);
        assert_eq!(s.min(), Some(7.0));
        assert_eq!(s.max(), Some(7.0));
        assert_eq!(s.median(), Some(7.0));
    }
}

/// A fixed set of logarithmic latency buckets rendered as an ASCII
/// histogram; built from a [`Summary`]'s samples.
pub struct Histogram {
    /// Bucket upper bounds (seconds) and counts.
    pub buckets: Vec<(f64, usize)>,
    /// Samples above the last bound.
    pub overflow: usize,
}

impl Summary {
    /// Buckets samples into `2^k`-spaced bins starting at `base` seconds.
    pub fn histogram(&self, base: f64, n_buckets: usize) -> Histogram {
        assert!(base > 0.0 && n_buckets > 0, "histogram shape invalid");
        let bounds: Vec<f64> = (0..n_buckets).map(|k| base * 2f64.powi(k as i32)).collect();
        let mut buckets: Vec<(f64, usize)> = bounds.iter().map(|&b| (b, 0)).collect();
        let mut overflow = 0usize;
        for &v in &self.samples {
            match bounds.iter().position(|&b| v <= b) {
                Some(i) => buckets[i].1 += 1,
                None => overflow += 1,
            }
        }
        Histogram { buckets, overflow }
    }
}

impl Histogram {
    /// Renders one line per bucket with a proportional bar.
    pub fn render(&self, width: usize) -> String {
        let max = self
            .buckets
            .iter()
            .map(|&(_, c)| c)
            .chain(std::iter::once(self.overflow))
            .max()
            .unwrap_or(0)
            .max(1);
        let mut out = String::new();
        for &(bound, count) in &self.buckets {
            let bar = "#".repeat(count * width / max);
            out.push_str(&format!("{:>9.3} ms |{bar:<width$}| {count}\n", bound * 1e3));
        }
        if self.overflow > 0 {
            let bar = "#".repeat(self.overflow * width / max);
            out.push_str(&format!("{:>12} |{bar:<width$}| {}\n", "overflow", self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut s = Summary::new();
        for v in [0.0005, 0.0015, 0.003, 0.02, 5.0] {
            s.record(v);
        }
        let h = s.histogram(0.001, 4); // bounds: 1,2,4,8 ms
        assert_eq!(h.buckets.len(), 4);
        assert_eq!(h.buckets[0].1, 1, "≤1ms");
        assert_eq!(h.buckets[1].1, 1, "≤2ms");
        assert_eq!(h.buckets[2].1, 1, "≤4ms");
        assert_eq!(h.buckets[3].1, 0, "≤8ms");
        assert_eq!(h.overflow, 2);
        let r = h.render(20);
        assert!(r.contains("overflow"));
        assert!(r.lines().count() == 5);
    }

    #[test]
    fn empty_histogram_renders() {
        let s = Summary::new();
        let h = s.histogram(0.001, 3);
        assert_eq!(h.overflow, 0);
        assert!(h.render(10).lines().count() == 3);
    }
}
