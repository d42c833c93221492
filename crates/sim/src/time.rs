//! Simulated time.
//!
//! All simulation timestamps are absolute nanoseconds since the start of the
//! run ([`SimTime`]); intervals are [`SimDuration`]. Both are thin `u64`
//! newtypes: cheap to copy and totally ordered. Their constructors and
//! operators are overflow-checked in every build: a result past `u64::MAX`
//! ns panics instead of wrapping. A `u64` of nanoseconds covers ~584 years
//! of simulated time, far beyond any experiment here (the longest paper
//! run is a few minutes).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds from t=0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since t=0.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since t=0 as a float (for reporting only — never use floats
    /// for scheduling).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so this indicates a scheduling bug.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is in the future"),
        )
    }

    /// Saturating variant of [`SimTime::since`], clamping to zero.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty interval.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    ///
    /// # Panics
    /// Panics with "SimDuration overflow" past `u64::MAX` ns.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self::from_units(us, 1_000)
    }

    /// Builds a duration from milliseconds.
    ///
    /// # Panics
    /// Panics with "SimDuration overflow" past `u64::MAX` ns.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self::from_units(ms, 1_000_000)
    }

    /// Builds a duration from whole seconds.
    ///
    /// # Panics
    /// Panics with "SimDuration overflow" past `u64::MAX` ns.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self::from_units(s, 1_000_000_000)
    }

    /// `count` units of `unit_ns` each, checked in every build (a bare
    /// `*` would wrap in release).
    #[inline]
    const fn from_units(count: u64, unit_ns: u64) -> Self {
        match count.checked_mul(unit_ns) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration overflow"),
        }
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero — callers
    /// feed this with measured rates that can transiently be garbage.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting and rate arithmetic).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration scaled by an integer factor.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Difference of two durations, clamping to zero. For subtracting a
    /// component that is nominally a subset of a measured whole but may
    /// exceed it by wall-clock rounding on the live transport.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimDuration::from_nanos(5).as_nanos(), 5);
        assert_eq!(SimTime::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn unit_constructors_are_exact_up_to_the_last_whole_unit() {
        assert_eq!(
            SimDuration::from_micros(18_446_744_073_709_551).as_nanos(),
            18_446_744_073_709_551_000
        );
        assert_eq!(
            SimDuration::from_millis(18_446_744_073_709).as_nanos(),
            18_446_744_073_709_000_000
        );
        assert_eq!(
            SimDuration::from_secs(18_446_744_073).as_nanos(),
            18_446_744_073_000_000_000
        );
    }

    // The first value past u64::MAX ns, passed through `black_box` so the
    // call runs as it would in a release binary, not in const evaluation.
    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn from_micros_panics_past_u64_max() {
        let _ = SimDuration::from_micros(std::hint::black_box(18_446_744_073_709_552));
    }

    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn from_millis_panics_past_u64_max() {
        let _ = SimDuration::from_millis(std::hint::black_box(18_446_744_073_710));
    }

    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn from_secs_panics_past_u64_max() {
        let _ = SimDuration::from_secs(std::hint::black_box(18_446_744_074));
    }

    #[test]
    fn time_advances_and_measures() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_micros(150);
        assert_eq!(t1.since(t0), SimDuration::from_micros(150));
        assert_eq!(t1.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_backwards_clock() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_nanos(1);
        let _ = t0.since(t1);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(4);
        assert_eq!(a + b, SimDuration::from_micros(14));
        assert_eq!(a - b, SimDuration::from_micros(6));
        assert_eq!(a * 3, SimDuration::from_micros(30));
        assert_eq!(a / 2, SimDuration::from_micros(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}
