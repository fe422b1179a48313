//! Simulated time.
//!
//! Time is kept as an integer number of nanoseconds since the start of the
//! simulation so that event ordering is exact and runs are reproducible
//! bit-for-bit. Floating-point seconds are only used at the edges (rate
//! computations in the fluid-flow engine and human-readable output).

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock (nanoseconds since t=0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// The last representable instant (about 584 years). Clock arithmetic
    /// saturates here, so an instant at `MAX` is a clamp, not a
    /// measurement.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from (possibly fractional) seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs are clamped to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// One nanosecond — the smallest representable non-zero duration.
    pub const TICK: SimDuration = SimDuration(1);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs are clamped to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True iff this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating duration addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    if !secs.is_finite() || secs <= 0.0 {
        return 0;
    }
    let ns = secs * NANOS_PER_SEC as f64;
    // Round to nearest; clamp to the representable range.
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        round_half_up(ns)
    }
}

/// `ns.round() as u64` for `0 < ns < 2^64`, without the libm call that
/// `f64::round` is on the baseline x86-64 target. The fraction
/// `ns - trunc(ns)` is exact for every finite f64 (and 0 from 2^52 up,
/// where every f64 is an integer), so comparing it with 0.5 rounds half
/// away from zero exactly as `round` does.
fn round_half_up(ns: f64) -> u64 {
    let t = ns as u64;
    t + u64::from(ns - t as f64 >= 0.5)
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
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_epoch() {
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
        assert_eq!(SimTime::ZERO.as_secs_f64(), 0.0);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_nanos(10) + SimDuration::from_nanos(5);
        assert_eq!(t.as_nanos(), 15);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(10);
        assert_eq!(b.since(a).as_nanos(), 5);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn secs_round_trip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_secs_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn huge_secs_saturate() {
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY).as_nanos(), 0);
        assert_eq!(SimDuration::from_secs_f64(1e30).as_nanos(), u64::MAX);
    }

    #[test]
    fn round_half_up_matches_f64_round() {
        use rand::{Rng, SeedableRng};
        let check = |ns: f64| {
            if ns > 0.0 && ns < u64::MAX as f64 {
                assert_eq!(round_half_up(ns), ns.round() as u64, "{ns:e}");
            }
        };
        let ulp_neighbours = |x: f64| {
            [
                f64::from_bits(x.to_bits() - 1),
                x,
                f64::from_bits(x.to_bits() + 1),
            ]
        };
        for x in [
            0.49999999999999994,
            0.5,
            2f64.powi(52),
            2f64.powi(53),
            2f64.powi(64),
            u64::MAX as f64,
        ] {
            ulp_neighbours(x).into_iter().for_each(check);
        }
        for k in 0..100_000u64 {
            ulp_neighbours(k as f64 + 0.5).into_iter().for_each(check);
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..1_000_000 {
            // Any positive finite bit pattern (mostly far below 1), and
            // one with its exponent drawn from the range nanosecond
            // counts live in.
            check(f64::from_bits(rng.gen_range(1..f64::INFINITY.to_bits())));
            let exp = rng.gen_range(1021u64..1023 + 64);
            check(f64::from_bits(exp << 52 | rng.gen_range(0..1u64 << 52)));
        }
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(2.5)), "2.500s");
    }
}
