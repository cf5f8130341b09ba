//! The zero-mean Laplace distribution.

use crate::{NoiseError, Result};
use rand::Rng;

/// A zero-mean Laplace distribution with scale ("magnitude") `λ`.
///
/// Density `Pr{η = x} = 1/(2λ) · e^{−|x|/λ}` (Equation 1 of the paper);
/// variance `2λ²`. Sampling uses the inverse CDF:
/// `x = −λ · sign(u) · ln(1 − 2|u|)` for `u` uniform on `(−1/2, 1/2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates the distribution; the scale must be finite and positive.
    pub fn new(scale: f64) -> Result<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(NoiseError::BadScale(scale));
        }
        Ok(Laplace { scale })
    }

    /// The scale λ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The variance `2λ²`.
    #[inline]
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Draws one sample.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        // u uniform on (-1/2, 1/2); reject the single value that maps to
        // -infinity (u = -1/2, i.e. random() returned exactly 0.0).
        let mut r: f64 = rng.random();
        while r == 0.0 {
            r = rng.random();
        }
        let u = r - 0.5;
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Fills `out` with independent samples.
    pub fn sample_into(&self, rng: &mut impl Rng, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-(x.abs()) / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }

    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`. Errors with
    /// [`NoiseError::BadProbability`] for any other `p` (0, 1, NaN, ±∞),
    /// where the quantile is infinite or undefined.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(NoiseError::BadProbability(p));
        }
        Ok(if p < 0.5 {
            self.scale * (2.0 * p).ln()
        } else {
            -self.scale * (2.0 * (1.0 - p)).ln()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::stats::RunningStats;

    #[test]
    fn rejects_bad_scales() {
        assert!(Laplace::new(0.0).is_err());
        assert!(Laplace::new(-1.0).is_err());
        assert!(Laplace::new(f64::NAN).is_err());
        assert!(Laplace::new(f64::INFINITY).is_err());
        assert!(Laplace::new(1.0).is_ok());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = Laplace::new(2.0).unwrap();
        // Trapezoid rule over [-40, 40] (≈ 20 scales each side).
        let steps = 200_000;
        let (a, b) = (-40.0, 40.0);
        let h = (b - a) / steps as f64;
        let mut total = 0.0;
        for i in 0..=steps {
            let x = a + i as f64 * h;
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            total += w * d.pdf(x);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-6, "integral = {total}");
    }

    #[test]
    fn cdf_matches_pdf_numerically() {
        let d = Laplace::new(0.7).unwrap();
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            let eps = 1e-6;
            let numeric = (d.cdf(x + eps) - d.cdf(x - eps)) / (2.0 * eps);
            assert!((numeric - d.pdf(x)).abs() < 1e-4, "x={x}");
        }
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Laplace::new(1.5).unwrap();
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = d.quantile(p).unwrap();
            assert!((d.cdf(x) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn quantile_refuses_probabilities_outside_the_open_unit_interval() {
        let d = Laplace::new(1.5).unwrap();
        for p in [0.0, 1.0, -0.25, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(d.quantile(p), Err(NoiseError::BadProbability(p)), "p={p}");
        }
        // NaN never equals itself, so match the variant instead.
        assert!(matches!(
            d.quantile(f64::NAN),
            Err(NoiseError::BadProbability(p)) if p.is_nan()
        ));
    }

    #[test]
    fn samples_have_expected_moments() {
        let scale = 3.0;
        let d = Laplace::new(scale).unwrap();
        let mut rng = seeded_rng(7);
        let mut stats = RunningStats::new();
        for _ in 0..200_000 {
            stats.push(d.sample(&mut rng));
        }
        // Mean 0 ± a few standard errors; variance 2λ² within 3%.
        let se = (d.variance() / stats.count() as f64).sqrt();
        assert!(stats.mean().abs() < 5.0 * se, "mean = {}", stats.mean());
        let rel = (stats.variance() - d.variance()).abs() / d.variance();
        assert!(
            rel < 0.03,
            "variance = {}, expected {}",
            stats.variance(),
            d.variance()
        );
    }

    #[test]
    fn sample_distribution_matches_cdf() {
        // Empirical CDF at a few points vs analytic, Kolmogorov-style check.
        let d = Laplace::new(1.0).unwrap();
        let mut rng = seeded_rng(99);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &x in &[-2.0, -0.5, 0.0, 0.5, 2.0] {
            let emp = samples.partition_point(|&s| s <= x) as f64 / n as f64;
            assert!(
                (emp - d.cdf(x)).abs() < 0.01,
                "x={x} emp={emp} cdf={}",
                d.cdf(x)
            );
        }
    }

    #[test]
    fn sample_into_fills_buffer() {
        let d = Laplace::new(1.0).unwrap();
        let mut rng = seeded_rng(1);
        let mut buf = [0.0f64; 32];
        d.sample_into(&mut rng, &mut buf);
        assert!(buf.iter().any(|&v| v != 0.0));
        assert!(buf.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Laplace::new(1.0).unwrap();
        let a: Vec<f64> = {
            let mut rng = seeded_rng(5);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = seeded_rng(5);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
