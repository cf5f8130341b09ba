//! Discrete samplers used by the synthetic dataset generators.

use crate::{DataError, Result};
use rand::Rng;

/// A general discrete distribution over `0..n`, sampled by binary search on
/// the cumulative weights.
#[derive(Debug, Clone)]
pub struct Discrete {
    cum: Vec<f64>,
}

impl Discrete {
    /// Builds from non-negative weights (not necessarily normalized).
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(DataError::BadConfig("empty weight vector".into()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(DataError::BadConfig(
                "weights must be finite and >= 0".into(),
            ));
        }
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cum.push(acc);
        }
        if acc <= 0.0 {
            return Err(DataError::BadConfig("weights must not all be zero".into()));
        }
        Ok(Discrete { cum })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one outcome in `0..len()`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cum.last().expect("non-empty");
        let u: f64 = rng.random::<f64>() * total;
        // partition_point returns the first index with cum > u.
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// Zipf weights over `0..n`: `w_i = 1/(i+1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// Weights for a discretized log-normal over `0..n` bins: the density of
/// `exp(N(mu, sigma²))` evaluated at each bin center (bins are unit-width,
/// centered at `i + 1`). A common synthetic stand-in for income-like,
/// right-skewed distributions.
pub fn lognormal_weights(n: usize, mu: f64, sigma: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i + 1) as f64;
            let z = (x.ln() - mu) / sigma;
            (-0.5 * z * z).exp() / x
        })
        .collect()
}

/// Piecewise-constant weights: `segments` is a list of `(length, weight)`
/// pairs; each of the `length` consecutive cells gets `weight`. Used for
/// population-pyramid age distributions.
pub fn piecewise_weights(segments: &[(usize, f64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(segments.iter().map(|&(l, _)| l).sum());
    for &(len, w) in segments {
        out.extend(std::iter::repeat_n(w, len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_noise::seeded_rng;

    #[test]
    fn rejects_bad_weights() {
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[0.0, 0.0]).is_err());
        assert!(Discrete::new(&[1.0, -0.5]).is_err());
        assert!(Discrete::new(&[1.0, f64::NAN]).is_err());
        assert!(Discrete::new(&[1.0, 0.0, 2.0]).is_ok());
    }

    #[test]
    fn sampling_matches_probabilities() {
        let d = Discrete::new(&[2.0, 1.0, 1.0]).unwrap();
        let mut rng = seeded_rng(11);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.5).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.25).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.25).abs() < 0.01);
    }

    #[test]
    fn zero_weight_outcomes_never_sampled() {
        let d = Discrete::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut rng = seeded_rng(3);
        for _ in 0..10_000 {
            assert_ne!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn zipf_is_decreasing_and_heavy_tailed() {
        let w = zipf_weights(100, 1.1);
        assert_eq!(w.len(), 100);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert!((w[0] / w[9] - 10f64.powf(1.1)).abs() < 1e-9);
    }

    #[test]
    fn lognormal_is_unimodal_right_skewed() {
        let w = lognormal_weights(1000, 4.0, 0.7);
        let peak = w
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // Mode of lognormal = exp(mu - sigma^2) ≈ 33.4 -> bin ≈ 32.
        assert!((25..45).contains(&peak), "peak at {peak}");
        // Right tail heavier than left tail at equal distance from peak.
        assert!(w[peak + 20] > w[peak.saturating_sub(20)]);
    }

    #[test]
    fn piecewise_concatenates_segments() {
        let w = piecewise_weights(&[(2, 1.0), (3, 0.5)]);
        assert_eq!(w, vec![1.0, 1.0, 0.5, 0.5, 0.5]);
    }
}
