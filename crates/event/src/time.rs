//! Virtual time for the simulator.
//!
//! All simulation time is kept in integer microseconds so that event
//! ordering is exact and runs are reproducible across platforms (no
//! floating-point accumulation drift).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time, in microseconds since simulation start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any event the simulator will ever schedule.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time expressed in (fractional) seconds, for reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference: `self - earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// microsecond. Intended for configuration values, not hot paths.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "duration must be finite and non-negative");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span expressed in (fractional) seconds, for reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales a duration by an integer factor, saturating at the maximum.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales a duration by a float factor (e.g. a service-time multiplier).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0 && factor.is_finite(), "factor must be finite and non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Exact difference; panics in debug builds if `rhs` is later.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_micros(2_000_000));
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_micros(1_000_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_micros(100) + SimDuration::from_micros(50);
        assert_eq!(t.as_micros(), 150);
    }

    #[test]
    fn add_assign_advances_clock() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_micros(7);
        t += SimDuration::from_micros(3);
        assert_eq!(t.as_micros(), 10);
    }

    #[test]
    fn subtraction_yields_duration() {
        let a = SimTime::from_micros(500);
        let b = SimTime::from_micros(200);
        assert_eq!(a - b, SimDuration::from_micros(300));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(300);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(200));
    }

    #[test]
    fn time_addition_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_micros(10);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.saturating_mul(3), SimDuration::from_micros(300));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(50));
        assert_eq!(d - SimDuration::from_micros(150), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015), SimDuration::from_micros(2));
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration::from_micros(1_500_000));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(SimTime::from_micros(7).max(SimTime::from_micros(9)).as_micros(), 9);
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "0.001500s");
    }
}
