//! Timestamped sample series.

use dynmds_event::{SimDuration, SimTime};

/// A sequence of `(time, value)` samples, pushed in non-decreasing time
/// order.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample. Times must be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().map(|&(t, _)| t <= at).unwrap_or(true),
            "samples must be pushed in time order"
        );
        self.points.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Samples with `start <= t < end`.
    pub fn window(
        &self,
        start: SimTime,
        end: SimTime,
    ) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied().filter(move |&(t, _)| t >= start && t < end)
    }

    /// Sum of values in `[start, end)`.
    pub fn sum_in(&self, start: SimTime, end: SimTime) -> f64 {
        self.window(start, end).map(|(_, v)| v).sum()
    }

    /// Bins samples into consecutive windows of width `bin`, starting at
    /// `start`, producing one row per bin: `(bin_start, sum, count)`.
    /// Empty bins are included with sum 0 — time-series figures need the
    /// gaps.
    pub fn binned(
        &self,
        start: SimTime,
        end: SimTime,
        bin: SimDuration,
    ) -> Vec<(SimTime, f64, usize)> {
        assert!(bin.as_micros() > 0, "bin width must be positive");
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            let next = t + bin;
            let mut sum = 0.0;
            let mut n = 0usize;
            for (_, v) in self.window(t, next.max(t)) {
                sum += v;
                n += 1;
            }
            out.push((t, sum, n));
            t = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn push_and_window() {
        let mut s = TimeSeries::new();
        s.push(t(10), 1.0);
        s.push(t(20), 2.0);
        s.push(t(30), 3.0);
        assert_eq!(s.len(), 3);
        let w: Vec<f64> = s.window(t(10), t(30)).map(|(_, v)| v).collect();
        assert_eq!(w, vec![1.0, 2.0], "window is half-open");
    }

    #[test]
    fn sum_covers_the_half_open_window() {
        let mut s = TimeSeries::new();
        for i in 1..=4 {
            s.push(t(i * 10), i as f64);
        }
        assert_eq!(s.sum_in(t(0), t(25)), 3.0);
        assert_eq!(s.sum_in(t(500), t(600)), 0.0);
    }

    #[test]
    fn binned_includes_empty_bins() {
        let mut s = TimeSeries::new();
        s.push(t(5), 1.0);
        s.push(t(25), 1.0);
        s.push(t(26), 2.0);
        let bins = s.binned(t(0), t(40), SimDuration::from_micros(10));
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[0], (t(0), 1.0, 1));
        assert_eq!(bins[1], (t(10), 0.0, 0), "empty bin present");
        assert_eq!(bins[2], (t(20), 3.0, 2));
        assert_eq!(bins[3], (t(30), 0.0, 0));
    }

    #[test]
    fn empty_series_bins_to_zeroes() {
        let s = TimeSeries::new();
        let bins = s.binned(t(0), t(30), SimDuration::from_micros(10));
        assert_eq!(bins.len(), 3);
        assert!(bins.iter().all(|&(_, sum, n)| sum == 0.0 && n == 0));
    }
}
