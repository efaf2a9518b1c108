//! Simulated time.
//!
//! The simulator advances a single global clock in nanoseconds. A
//! newtype keeps simulated instants from being confused with durations
//! or wall-clock values in downstream crates.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds in one microsecond.
pub const US: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const MS: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const SEC: u64 = 1_000_000_000;

/// An instant on the simulated clock, in nanoseconds from simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw nanosecond count.
    #[inline]
    pub fn ns(self) -> u64 {
        self.0
    }

    /// Value in seconds, as a float (for reports).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SEC as f64
    }

    /// Value in milliseconds, as a float (for reports).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MS as f64
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= US {
            write!(f, "{:.3}us", self.0 as f64 / US as f64)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Parse a duration with a unit suffix (`ns`, `us`, `ms`, `s`) into
/// nanoseconds; a bare number is nanoseconds. Used for both simulated
/// cadences (`--snapshot-every 500ms`) and wall budgets
/// (`--wall-budget 30s`).
pub fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (num, mult) = if let Some(x) = t.strip_suffix("ns") {
        (x, 1u64)
    } else if let Some(x) = t.strip_suffix("us") {
        (x, US)
    } else if let Some(x) = t.strip_suffix("ms") {
        (x, MS)
    } else if let Some(x) = t.strip_suffix('s') {
        (x, SEC)
    } else {
        (t, 1)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?} (expected e.g. 500ms, 2s, 250us)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad duration {s:?} (must be non-negative)"));
    }
    Ok((v * mult as f64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_accessors() {
        let t = SimTime::ZERO + 1_500;
        assert_eq!(t.ns(), 1_500);
        assert_eq!(t - SimTime(500), 1_000);
        assert_eq!(t.since(SimTime(2_000)), 0, "since saturates");
        let mut u = t;
        u += 500;
        assert_eq!(u.ns(), 2_000);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime(12).to_string(), "12ns");
        assert_eq!(SimTime(1_500).to_string(), "1.500us");
        assert_eq!(SimTime(2 * MS).to_string(), "2.000ms");
        assert_eq!(SimTime(3 * SEC).to_string(), "3.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime(1) - SimTime(2);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimTime(SEC).as_secs_f64(), 1.0);
        assert_eq!(SimTime(MS).as_millis_f64(), 1.0);
    }

    #[test]
    fn duration_suffixes() {
        assert_eq!(parse_duration_ns("500ms").expect("ok"), 500_000_000);
        assert_eq!(parse_duration_ns("2s").expect("ok"), 2_000_000_000);
        assert_eq!(parse_duration_ns("250us").expect("ok"), 250_000);
        assert_eq!(parse_duration_ns("40ns").expect("ok"), 40);
        assert_eq!(parse_duration_ns("1234").expect("ok"), 1234);
        assert_eq!(parse_duration_ns("0.5ms").expect("ok"), 500_000);
        assert!(parse_duration_ns("fast").is_err());
        assert!(parse_duration_ns("-1s").is_err());
    }
}
