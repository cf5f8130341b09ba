//! The two-sided geometric ("discrete Laplace") distribution.
//!
//! An extension beyond the paper: frequency-matrix cells are integers, and
//! Ghosh–Roughgarden–Sundararajan showed the two-sided geometric mechanism
//! is the universally utility-maximizing way to release integer counts
//! under ε-DP. `privelet::mechanism::publish_basic_geometric` pairs it with
//! the Basic pipeline so releases are integral without post-processing,
//! addressing one of the consistency concerns the paper defers to Barak et
//! al. (§VIII).
//!
//! PMF: `Pr{η = k} = (1−α)/(1+α) · α^|k|` for integer `k`, with
//! `α = e^(−1/λ) ∈ (0, 1)`. Adding this noise to a sensitivity-Δ integer
//! function with `λ = Δ/ε` gives ε-DP (the discrete analogue of the
//! Laplace argument); its variance is `2α/(1−α)²`.

use crate::{NoiseError, Result};
use rand::Rng;

/// A zero-mean two-sided geometric distribution with ratio `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSidedGeometric {
    alpha: f64,
}

impl TwoSidedGeometric {
    /// Builds from the ratio `α ∈ (0, 1)`.
    pub fn new(alpha: f64) -> Result<Self> {
        if !alpha.is_finite() || alpha <= 0.0 || alpha >= 1.0 {
            return Err(NoiseError::BadScale(alpha));
        }
        Ok(TwoSidedGeometric { alpha })
    }

    /// Builds the discrete analogue of `Lap(λ)`: `α = e^(−1/λ)`.
    pub fn with_scale(lambda: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(NoiseError::BadScale(lambda));
        }
        Self::new((-1.0 / lambda).exp())
    }

    /// The ratio α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The continuous scale λ this ratio corresponds to
    /// (`α = e^(−1/λ)` ⇒ `λ = −1/ln α`; the inverse of
    /// [`with_scale`](Self::with_scale)).
    pub fn scale(&self) -> f64 {
        -1.0 / self.alpha.ln()
    }

    /// The variance `2α/(1−α)²`.
    pub fn variance(&self) -> f64 {
        let one_minus = 1.0 - self.alpha;
        2.0 * self.alpha / (one_minus * one_minus)
    }

    /// Draws one sample as the difference of two one-sided geometrics
    /// (each `⌊ln U / ln α⌋` for uniform `U ∈ (0,1)`), which follows the
    /// two-sided law exactly.
    pub fn sample(&self, rng: &mut impl Rng) -> i64 {
        let g1 = self.one_sided(rng);
        let g2 = self.one_sided(rng);
        g1 - g2
    }

    fn one_sided(&self, rng: &mut impl Rng) -> i64 {
        // U in (0, 1]: reject 0 so ln is finite.
        let mut u: f64 = rng.random();
        while u == 0.0 {
            u = rng.random();
        }
        (u.ln() / self.alpha.ln()).floor() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::stats::RunningStats;

    /// Probability mass at integer `k`: the exact law the sampler is
    /// checked against.
    fn pmf(d: &TwoSidedGeometric, k: i64) -> f64 {
        (1.0 - d.alpha) / (1.0 + d.alpha) * d.alpha.powi(k.unsigned_abs() as i32)
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(TwoSidedGeometric::new(0.0).is_err());
        assert!(TwoSidedGeometric::new(1.0).is_err());
        assert!(TwoSidedGeometric::new(-0.3).is_err());
        assert!(TwoSidedGeometric::new(f64::NAN).is_err());
        assert!(TwoSidedGeometric::with_scale(0.0).is_err());
        assert!(TwoSidedGeometric::with_scale(2.0).is_ok());
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = TwoSidedGeometric::new(0.6).unwrap();
        let total: f64 = (-200i64..=200).map(|k| pmf(&d, k)).sum();
        assert!((total - 1.0).abs() < 1e-12, "sum = {total}");
    }

    #[test]
    fn pmf_ratio_bounds_neighboring_shifts() {
        // The DP property's core: pmf(k)/pmf(k+1) <= 1/alpha.
        let d = TwoSidedGeometric::with_scale(2.0).unwrap();
        for k in -20i64..20 {
            let ratio = pmf(&d, k) / pmf(&d, k + 1);
            assert!(ratio <= 1.0 / d.alpha() + 1e-12);
            assert!(ratio >= d.alpha() - 1e-12);
        }
    }

    #[test]
    fn sample_moments_match() {
        let d = TwoSidedGeometric::with_scale(3.0).unwrap();
        let mut rng = seeded_rng(17);
        let mut stats = RunningStats::new();
        for _ in 0..200_000 {
            stats.push(d.sample(&mut rng) as f64);
        }
        let se = (d.variance() / stats.count() as f64).sqrt();
        assert!(stats.mean().abs() < 5.0 * se, "mean {}", stats.mean());
        let rel = (stats.variance() - d.variance()).abs() / d.variance();
        assert!(
            rel < 0.03,
            "variance {} vs {}",
            stats.variance(),
            d.variance()
        );
    }

    #[test]
    fn sample_distribution_matches_pmf() {
        let d = TwoSidedGeometric::new(0.5).unwrap();
        let mut rng = seeded_rng(4);
        let n = 200_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(d.sample(&mut rng)).or_insert(0usize) += 1;
        }
        for k in -3i64..=3 {
            let emp = *counts.get(&k).unwrap_or(&0) as f64 / n as f64;
            let exact = pmf(&d, k);
            assert!(
                (emp - exact).abs() < 0.01,
                "k={k}: empirical {emp} vs pmf {exact}"
            );
        }
    }

    #[test]
    fn variance_tracks_laplace_for_large_scale() {
        // For large λ the discrete distribution approaches Lap(λ):
        // variance ≈ 2λ².
        let lambda = 50.0;
        let d = TwoSidedGeometric::with_scale(lambda).unwrap();
        let lap_var = 2.0 * lambda * lambda;
        assert!((d.variance() - lap_var).abs() / lap_var < 0.01);
    }
}
