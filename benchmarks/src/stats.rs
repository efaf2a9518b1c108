//! Order statistics over small sample sets.

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median (`percentile(samples, 50.0)`).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The smallest sample; `NaN` for an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// The largest sample; `NaN` for an empty slice.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// How the repeats of one metric fold into the figure reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The fastest repeat. For host time on a shared machine: other
    /// tenants only ever add time, in bursts longer than a repeat, so
    /// the median of a few repeats swings with them and the minimum
    /// does not.
    Fastest,
    /// The median repeat.
    Median,
}

impl Fold {
    /// The figure reported for `samples`.
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Fold::Fastest => min(samples),
            Fold::Median => median(samples),
        }
    }

    /// How far the figure is from settled, as a share of it: for the
    /// fastest repeat, how much slower the runner-up was (would the
    /// figure have moved without the best run?); for the median,
    /// `(max − min) ÷ median`. Zero for fewer than two samples or a
    /// zero figure.
    pub fn spread(self, samples: &[f64]) -> f64 {
        let figure = self.of(samples);
        if samples.len() < 2 || figure == 0.0 {
            return 0.0;
        }
        match self {
            Fold::Fastest => {
                let mut v = samples.to_vec();
                v.sort_by(f64::total_cmp);
                (v[1] - v[0]) / figure.abs()
            }
            Fold::Median => (max(samples) - min(samples)) / figure.abs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.8);
        assert_eq!(percentile(&v, 250.0), 5.0);
    }

    #[test]
    fn folds_report_a_figure_and_how_settled_it_is() {
        let v = [12.0, 8.0, 10.0, 9.0];
        assert_eq!(Fold::Fastest.of(&v), 8.0);
        assert_eq!(Fold::Median.of(&v), 9.5);
        assert_eq!(Fold::Fastest.spread(&v), 0.125);
        assert_eq!(Fold::Median.spread(&[9.0, 10.0, 11.0]), 0.2);
        for fold in [Fold::Fastest, Fold::Median] {
            assert_eq!(fold.spread(&[0.0, 0.0]), 0.0);
            assert_eq!(fold.spread(&[3.0]), 0.0);
            assert!(fold.of(&[]).is_nan());
        }
        assert_eq!((min(&v), max(&v)), (8.0, 12.0));
    }
}
