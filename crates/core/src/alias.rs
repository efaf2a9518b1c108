//! Walker alias method for O(1) sampling of discrete distributions.
//!
//! The paper samples its skewed victim distribution with the GNU
//! Scientific Library's "general discrete distribution" facility, which
//! is an alias table. This is our equivalent: `O(n)` construction,
//! `O(1)` sampling, exact to floating-point normalization.

use dws_simnet::DetRng;

/// Alias table over `n` outcomes with arbitrary non-negative weights.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of each slot's own outcome.
    prob: Vec<f64>,
    /// Fallback outcome of each slot.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build a table from weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "alias table needs at least one outcome"
        );
        let mut total = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weight {i} is invalid: {w}");
            total += w;
        }
        assert!(total > 0.0, "weights sum to zero");
        let n = weights.len();
        // Scaled weights: mean 1.0.
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True iff the table has no outcomes (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one outcome index.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let slot = rng.next_below(self.prob.len() as u64) as usize;
        if rng.next_f64() < self.prob[slot] {
            slot
        } else {
            self.alias[slot] as usize
        }
    }

    /// Every slot's `(acceptance probability, alias outcome)`, in slot
    /// order: what a decoded copy of the table needs.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.prob.iter().copied().zip(self.alias.iter().copied())
    }

    /// Exact probability of outcome `i` implied by the table (for
    /// verification and Figure 8's PDF dump).
    pub fn probability(&self, i: usize) -> f64 {
        let n = self.prob.len() as f64;
        let mut p = self.prob[i] / n;
        for (slot, &a) in self.alias.iter().enumerate() {
            if a as usize == i && self.prob[slot] < 1.0 {
                p += (1.0 - self.prob[slot]) / n;
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 8]);
        let mut rng = DetRng::new(5);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = n / 8;
            assert!(
                (c as i64 - expect as i64).abs() < expect as i64 / 10,
                "bucket {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn skewed_weights_match_probabilities() {
        let weights = [8.0, 4.0, 2.0, 1.0, 1.0];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights);
        // Structural check.
        for (i, &w) in weights.iter().enumerate() {
            let p = t.probability(i);
            assert!(
                (p - w / total).abs() < 1e-12,
                "outcome {i}: table p={p}, want {}",
                w / total
            );
        }
        // Empirical check.
        let mut rng = DetRng::new(17);
        let mut counts = [0u64; 5];
        let n = 160_000u64;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = n as f64 * weights[i] / total;
            let err = (c as f64 - expect).abs() / expect;
            assert!(err < 0.05, "outcome {i}: {c} vs {expect:.0} ({err:.3})");
        }
    }

    #[test]
    fn zero_weight_outcomes_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let s = t.sample(&mut rng);
            assert!(s == 1 || s == 3, "sampled zero-weight outcome {s}");
        }
        assert_eq!(t.probability(0), 0.0);
        assert!((t.probability(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let weights: Vec<f64> = (1..=37).map(|i| 1.0 / i as f64).collect();
        let t = AliasTable::new(&weights);
        let sum: f64 = (0..t.len()).map(|i| t.probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn single_outcome_always_wins() {
        let t = AliasTable::new(&[3.5]);
        let mut rng = DetRng::new(0);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn all_zero_weights_rejected() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn negative_weight_rejected() {
        AliasTable::new(&[1.0, -0.1]);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_weights_rejected() {
        AliasTable::new(&[]);
    }
}
