//! Virtual time for the simulation kernel.
//!
//! Simulated time is measured in integer **nanoseconds** since the start of
//! the simulation. Using an integer representation keeps event ordering
//! exact and the simulation bit-reproducible: there is no floating-point
//! drift, and two events scheduled at the same instant are ordered by a
//! monotone sequence number in the kernel.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a floating-point value (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration(round_nanos(s * 1e9))
    }

    /// Nanoseconds in this span.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this span as a floating-point value (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction of two spans.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_nanos(self.0))
    }
}

/// `x.round() as u64` for non-negative `x`, without the libm call
/// `f64::round` compiles to on baseline x86-64 (no `roundsd`). Below 2⁵³
/// the truncation `t` converts back exactly and `x - t` is exact
/// (Sterbenz: `t <= x < 2t`, or `t` is zero), so comparing the fraction
/// with one half *is* round-half-away-from-zero. From 2⁵³ up (and for
/// +∞) `round` itself runs; no simulated duration gets there.
#[inline]
fn round_nanos(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 53) as f64;
    if x < EXACT {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

/// Render a nanosecond count with a human-friendly unit.
fn fmt_nanos(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 10_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + SimDuration::micros(3);
        assert_eq!(t.as_nanos(), 3_000);
        let t2 = t + SimDuration::nanos(500);
        assert_eq!((t2 - t).as_nanos(), 500);
        assert_eq!(t2.since(t).as_nanos(), 500);
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_consistent() {
        assert_eq!(SimDuration::secs(1), SimDuration::millis(1_000));
        assert_eq!(SimDuration::millis(1), SimDuration::micros(1_000));
        assert_eq!(SimDuration::micros(1), SimDuration::nanos(1_000));
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration::millis(1_500));
    }

    #[test]
    fn from_secs_f64_boundaries() {
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
        // Rounds to the nearest nanosecond rather than truncating.
        assert_eq!(SimDuration::from_secs_f64(1.5e-9), SimDuration::nanos(2));
        assert_eq!(SimDuration::from_secs_f64(0.4e-9), SimDuration::ZERO);
        // Negative zero is still zero, not a validation failure.
        assert_eq!(SimDuration::from_secs_f64(-0.0), SimDuration::ZERO);
    }

    #[test]
    fn round_nanos_edges_match_f64_round() {
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        for x in [
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            p52 - 0.5,
            p52 + 1.0,
            p53,
            p53 + 2.0,
            1.8e19,
            p53 * 2048.0, // 2⁶⁴: saturates
        ] {
            assert_eq!(round_nanos(x), x.round() as u64, "x = {x:e}");
        }
        assert_eq!(round_nanos(0.49999999999999994), 0);
        assert_eq!(round_nanos(p52 - 0.5), 1 << 52);
        assert_eq!(round_nanos(p53 * 2048.0), u64::MAX);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// The libm-free rounding is the old `(s * 1e9).round() as u64`
        /// on every non-negative finite input; `quarters` aims a second
        /// probe at the .25/.5/.75 fractions below and around 2⁵³.
        #[test]
        fn from_secs_f64_equals_f64_round(bits in 0u64..=u64::MAX, quarters in 0u64..(1u64 << 56)) {
            let s = f64::from_bits(bits >> 1); // sign bit clear
            proptest::prop_assume!(s.is_finite());
            proptest::prop_assert_eq!(
                SimDuration::from_secs_f64(s).as_nanos(),
                (s * 1e9).round() as u64,
                "s = {:e}", s
            );
            let x = quarters as f64 * 0.25;
            proptest::prop_assert_eq!(round_nanos(x), x.round() as u64, "x = {:e}", x);
        }
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_nan() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0e-9);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_infinity() {
        let _ = SimDuration::from_secs_f64(f64::INFINITY);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::micros(2) * 3, SimDuration::micros(6));
        assert_eq!(SimDuration::micros(6) / 3, SimDuration::micros(2));
        let total: SimDuration = (1..=4).map(SimDuration::nanos).sum();
        assert_eq!(total, SimDuration::nanos(10));
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn time_underflow_panics() {
        let _ = SimTime::ZERO - SimTime(1);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::nanos(42)), "42ns");
        assert_eq!(format!("{}", SimDuration::micros(42)), "42.000us");
        assert_eq!(format!("{}", SimDuration::millis(42)), "42.000ms");
        assert_eq!(format!("{}", SimDuration::secs(42)), "42.000s");
    }
}
