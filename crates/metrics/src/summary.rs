//! Summary statistics for multi-seed experiment sweeps.
//!
//! The paper reports single runs per configuration (machine time on the
//! K Computer was scarce); a simulator has no such excuse. The sweep
//! binaries can repeat every configuration across seeds and report mean
//! ± deviation, so EXPERIMENTS.md can state which gaps are robust.

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build directly from samples.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Self::new();
        for x in samples {
            s.add(x);
        }
        s
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "summary samples must be finite, got {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample standard deviation (0 with fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Standard error of the mean.
    pub fn stderr(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest sample (`NaN`-free by construction; 0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// `mean ± stddev` formatted for reports.
    pub fn display(&self, prec: usize) -> String {
        format!("{:.prec$} ± {:.prec$}", self.mean(), self.stddev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_match_known_values() {
        let s = Summary::of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is ~2.138.
        assert!((s.stddev() - 2.1381).abs() < 1e-3, "got {}", s.stddev());
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::of([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.stderr(), 0.0);
    }

    #[test]
    fn empty_summary_is_calm() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn display_formats() {
        let s = Summary::of([1.0, 2.0, 3.0]);
        assert_eq!(s.display(1), "2.0 ± 1.0");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Summary::new().add(f64::NAN);
    }
}
