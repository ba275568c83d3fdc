//! Virtual time. All simulation time is kept in integer nanoseconds so that
//! event ordering is exact and runs are reproducible — no floating-point
//! drift, no wall-clock reads.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking, since fault-injected reordering can observe events whose
    /// logical send time is after the receive time being compared.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from a float quantity of seconds, rounding to nanoseconds.
    /// Negative and non-finite inputs clamp to zero: callers feed this from
    /// sampled distributions that may produce tiny negative values.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        // `(s * 1e9).round() as u64`, without `round`: on baseline x86-64
        // that is a libm call, and every CPU charge goes through here. The
        // cast truncates (saturating like the original), and the
        // fractional part of a double is exact, so rounding half away from
        // zero gives the same nanosecond for every input.
        let ns = s * 1e9;
        let whole = ns as u64;
        SimDuration(whole.saturating_add((ns - whole as f64 >= 0.5) as u64))
    }

    /// Construct from a float quantity of microseconds (the natural unit for
    /// CPU cost constants), rounding to nanoseconds.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating multiplication by an integer count (e.g. per-row costs).
    pub fn saturating_mul(self, n: u64) -> Self {
        SimDuration(self.0.saturating_mul(n))
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
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
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
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(1_500_000);
        assert_eq!(t.as_micros(), 1_500);
        assert_eq!(t.as_millis(), 1);
        let t2 = t + SimDuration::from_millis(2);
        assert_eq!(t2.as_millis(), 3);
        assert_eq!(t2.since(t), SimDuration::from_millis(2));
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_from_float_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn duration_from_float_rounds_exactly_like_f64_round() {
        let reference = |s: f64| SimDuration((s * 1e9).round() as u64);
        let mut edges = vec![
            0.5e-9,
            1.5e-9,
            2.5e-9,
            f64::from_bits(0.5e-9f64.to_bits() - 1),
            1e-9,
            4.5e-6,
            9.223372036854775e9,
            1.8446744073709552e10,
            1.8446744073709553e10,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        let mut state = 0x7153_u64;
        for _ in 0..200_000 {
            // splitmix64: random bit patterns (every magnitude) and random
            // values near half-nanosecond boundaries.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            edges.push(f64::from_bits(z >> 1));
            let half = (z % 1_000_000_000_000) as f64 + 0.5;
            edges.push(half / 1e9);
            edges.push(f64::from_bits((half / 1e9).to_bits() + 1));
            edges.push(f64::from_bits((half / 1e9).to_bits() - 1));
        }
        for s in edges.into_iter().filter(|s| s.is_finite() && *s > 0.0) {
            assert_eq!(SimDuration::from_secs_f64(s), reference(s), "{s:e} s");
        }
    }

    #[test]
    fn duration_from_micros_f64_rounds_to_nanos() {
        assert_eq!(SimDuration::from_micros_f64(0.5).as_nanos(), 500);
        assert_eq!(SimDuration::from_micros_f64(45.0).as_micros(), 45);
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        let d = SimDuration::from_nanos(u64::MAX);
        assert_eq!((d + d).as_nanos(), u64::MAX);
        assert_eq!(d.saturating_mul(3).as_nanos(), u64::MAX);
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.00us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn division_never_divides_by_zero() {
        assert_eq!(SimDuration::from_secs(1) / 0, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(4) / 2, SimDuration::from_secs(2));
    }
}
