//! Long-horizon non-stationary load shapes for elasticity experiments.
//!
//! λFS (ASPLOS'24) and CFS both motivate elastic metadata services with
//! traffic that is *predictably* non-stationary: container fleets and
//! interactive users produce strong day/night cycles, batch systems
//! produce on/off bursts. These wrappers reshape any stationary generator
//! by modulating the mean client think time over virtual time — the op
//! mix and locality stay exactly those of the wrapped workload, only the
//! offered rate changes.
//!
//! The modulation is a pure function of the virtual clock, so runs stay
//! deterministic; the engines fold [`Workload::think_scale`] into the
//! think-time draw (a `×1.0` no-op for every stationary workload).

use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::{ClientId, Namespace};

use crate::ops::Op;
use crate::Workload;

/// A smooth day/night cycle over an inner workload.
///
/// The think-time multiplier follows a raised cosine between `1.0`
/// (daytime peak, at phase 0) and `night_mult` (nighttime trough, at
/// phase ½): offered load swings by roughly `1/night_mult` and sustains
/// both extremes long enough for watermark controllers to react.
pub struct DiurnalWorkload<W> {
    inner: W,
    period: SimDuration,
    night_mult: f64,
}

impl<W: Workload> DiurnalWorkload<W> {
    /// Wraps `inner` with a day/night cycle of `period`; off-peak think
    /// times stretch up to `night_mult` (≥ 1.0).
    pub fn new(inner: W, period: SimDuration, night_mult: f64) -> Self {
        assert!(period.as_micros() > 0, "period must be positive");
        assert!(night_mult.is_finite() && night_mult >= 1.0, "night_mult stretches think time");
        DiurnalWorkload { inner, period, night_mult }
    }
}

impl<W: Workload> Workload for DiurnalWorkload<W> {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        self.inner.next_op(ns, client, now)
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }

    fn think_scale(&self, now: SimTime) -> f64 {
        let phase =
            (now.as_micros() % self.period.as_micros()) as f64 / self.period.as_micros() as f64;
        // 1.0 at the daytime peak, 0.0 at the trough.
        let day = 0.5 * (1.0 + (2.0 * std::f64::consts::PI * phase).cos());
        1.0 + (self.night_mult - 1.0) * (1.0 - day)
    }
}

/// An on/off batch-burst shape over an inner workload: each cycle opens
/// with a full-rate burst of `burst` virtual time, then idles (think
/// times stretched by `idle_mult`) until the next cycle.
pub struct BurstyWorkload<W> {
    inner: W,
    cycle: SimDuration,
    burst: SimDuration,
    idle_mult: f64,
}

impl<W: Workload> BurstyWorkload<W> {
    /// Wraps `inner` with bursts of `burst` every `cycle`; between bursts
    /// think times stretch by `idle_mult` (≥ 1.0).
    pub fn new(inner: W, cycle: SimDuration, burst: SimDuration, idle_mult: f64) -> Self {
        assert!(cycle.as_micros() > 0, "cycle must be positive");
        assert!(burst.as_micros() > 0 && burst < cycle, "burst must fit inside the cycle");
        assert!(idle_mult >= 1.0, "idle_mult stretches think time");
        BurstyWorkload { inner, cycle, burst, idle_mult }
    }
}

impl<W: Workload> Workload for BurstyWorkload<W> {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        self.inner.next_op(ns, client, now)
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }

    fn think_scale(&self, now: SimTime) -> f64 {
        if now.as_micros() % self.cycle.as_micros() < self.burst.as_micros() {
            1.0
        } else {
            self.idle_mult
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inner stand-in: the shape tests never call next_op.
    struct Idle;
    impl Workload for Idle {
        fn next_op(&mut self, ns: &Namespace, _client: ClientId, _now: SimTime) -> Op {
            Op::Stat(ns.root())
        }
        fn clients(&self) -> usize {
            1
        }
    }

    #[test]
    fn diurnal_peaks_at_phase_zero_and_troughs_at_half() {
        let w = DiurnalWorkload::new(Idle, SimDuration::from_secs(10), 8.0);
        assert!((w.think_scale(SimTime::ZERO) - 1.0).abs() < 1e-9);
        assert!((w.think_scale(SimTime::from_secs(5)) - 8.0).abs() < 1e-9);
        assert!((w.think_scale(SimTime::from_secs(10)) - 1.0).abs() < 1e-9, "periodic");
        let quarter = w.think_scale(SimTime::from_micros(2_500_000));
        assert!(quarter > 1.0 && quarter < 8.0, "smooth in between: {quarter}");
    }

    #[test]
    fn bursty_is_a_square_wave() {
        let w =
            BurstyWorkload::new(Idle, SimDuration::from_secs(10), SimDuration::from_secs(2), 6.0);
        assert_eq!(w.think_scale(SimTime::ZERO), 1.0);
        assert_eq!(w.think_scale(SimTime::from_millis(1_999)), 1.0);
        assert_eq!(w.think_scale(SimTime::from_secs(2)), 6.0);
        assert_eq!(w.think_scale(SimTime::from_secs(9)), 6.0);
        assert_eq!(w.think_scale(SimTime::from_secs(10)), 1.0, "next cycle bursts again");
    }

    #[test]
    fn stationary_default_is_exactly_one() {
        assert_eq!(Idle.think_scale(SimTime::from_secs(123)), 1.0);
    }
}
