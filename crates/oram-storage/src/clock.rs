//! Simulated time: nanosecond instants, durations, and a shared clock.
//!
//! All timing in the reproduction is integer nanoseconds so that runs are
//! bit-for-bit reproducible across platforms (no floating-point clock
//! drift). Conversions to floating-point seconds exist only at the
//! reporting boundary.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000_000)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as floating point (reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds as floating point (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.min(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("simulated duration overflow"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("simulated duration underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("simulated duration overflow"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    /// Human-scaled rendering: picks ns/µs/ms/s to keep 3+ significant digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns} ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2} us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2} ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3} s", ns as f64 / 1e9)
        }
    }
}

/// An instant on the simulated timeline, in nanoseconds since simulation
/// start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Nanoseconds since origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration elapsed since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later"),
        )
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("simulated time overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

/// A shared simulated wall clock.
///
/// Cloning yields another handle to the same clock (the state is shared via
/// an atomic), so devices, protocols and trace recorders observe one
/// timeline. Only protocol code advances the clock; devices merely report
/// costs.
///
/// # Example
///
/// ```
/// use oram_storage::clock::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// let handle = clock.clone();
/// clock.advance(SimDuration::from_micros(5));
/// assert_eq!(handle.now().as_nanos(), 5_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at the origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_nanos.load(Ordering::Relaxed))
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let updated = self.now_nanos.fetch_add(d.as_nanos(), Ordering::Relaxed) + d.as_nanos();
        SimTime(updated)
    }

    /// Resets the clock to the origin (between experiment repetitions).
    pub fn reset(&self) {
        self.now_nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(3), SimDuration::from_nanos(3_000));
        assert_eq!(
            SimDuration::from_millis(2),
            SimDuration::from_nanos(2_000_000)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12 ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.50 us");
        assert_eq!(SimDuration::from_millis(20).to_string(), "20.00 ms");
        assert_eq!(SimDuration::from_millis(1290).to_string(), "1.290 s");
    }

    #[test]
    fn time_and_duration_compose() {
        let t = SimTime::from_nanos(50);
        let later = t + SimDuration::from_nanos(25);
        assert_eq!(later.as_nanos(), 75);
        assert_eq!(later.duration_since(t).as_nanos(), 25);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_checks_order() {
        SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn clock_is_shared_between_clones() {
        let clock = SimClock::new();
        let other = clock.clone();
        clock.advance(SimDuration::from_nanos(7));
        other.advance(SimDuration::from_nanos(3));
        assert_eq!(clock.now().as_nanos(), 10);
        clock.reset();
        assert_eq!(other.now(), SimTime::ZERO);
    }

    #[test]
    fn float_reporting_conversions() {
        let d = SimDuration::from_micros(1500);
        assert!((d.as_micros_f64() - 1500.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
    }
}
