//! Virtual time for the simulated multiprocessor.
//!
//! Simulation time is a nanosecond counter starting at zero. Durations are
//! plain [`std::time::Duration`] so the rest of the workspace (notably the
//! execution-agnostic controller in `dynfb-core`) needs no custom types.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant of virtual time: nanoseconds since the start of simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    #[must_use]
    pub fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Raw nanoseconds since the start of simulation.
    #[inline]
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed as a [`Duration`] since simulation start.
    #[must_use]
    pub fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// Seconds since simulation start, as a float (for reports).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.as_duration().as_secs_f64()
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Duration {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is later — for
    /// *observed* timestamps, which fault injection (timer jitter, negative
    /// drift) can legitimately make non-monotone.
    #[inline]
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, or `None` when the sum is not representable (past
    /// `u64::MAX` nanoseconds). Plain `u64` arithmetic: no `u128` round
    /// trip through [`Duration::as_nanos`].
    #[inline]
    #[must_use]
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        let ns =
            d.as_secs().checked_mul(1_000_000_000)?.checked_add(u64::from(d.subsec_nanos()))?;
        self.0.checked_add(ns).map(SimTime)
    }
}

/// Panics if the sum overflows simulated time, in release builds too; the
/// event engine uses [`SimTime::checked_add`] and reports
/// `SimError::TimeOverflow` instead.
impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        self.checked_add(rhs).expect("simulated time overflow")
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + Duration::from_micros(9);
        assert_eq!(t.as_nanos(), 9_000);
        assert_eq!(t - SimTime::ZERO, Duration::from_micros(9));
        assert_eq!(t.since(SimTime::from_nanos(4_000)), Duration::from_micros(5));
    }

    #[test]
    fn saturating_since_tolerates_backwards_time() {
        let early = SimTime::from_nanos(100);
        let late = SimTime::from_nanos(400);
        assert_eq!(late.saturating_since(early), Duration::from_nanos(300));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn display_in_seconds() {
        let t = SimTime::from_nanos(1_500_000_000);
        assert_eq!(t.to_string(), "1.500000s");
    }

    #[test]
    fn checked_add_rejects_unrepresentable_sums() {
        let max = SimTime::from_nanos(u64::MAX);
        assert_eq!(max.checked_add(Duration::ZERO), Some(max));
        assert_eq!(max.checked_add(Duration::from_nanos(1)), None);
        assert_eq!(SimTime::ZERO.checked_add(Duration::MAX), None);
        let big = Duration::from_secs(10_000_000_000);
        let once = SimTime::ZERO.checked_add(big).unwrap();
        assert_eq!(once.as_nanos(), 10_000_000_000_000_000_000);
        assert_eq!(once.checked_add(big), None);
        assert_eq!(
            SimTime::from_nanos(7).checked_add(Duration::new(2, 5)),
            Some(SimTime::from_nanos(2_000_000_012))
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
