//! Error-annotated answers: a value plus its exact noise std-dev.
//!
//! Both serving paths — online answers
//! ([`ConcurrentEngine`](crate::ConcurrentEngine), or the core's
//! cache-free ones) and compiled plans
//! ([`ReleaseCore`](crate::ReleaseCore)) — return an [`AnnotatedAnswer`]
//! when asked for one, on a release that carries its privacy
//! accounting.

use crate::Result;

/// A query answer annotated with its exact noise standard deviation.
///
/// The std-dev comes from the closed-form variance
/// `Var = 2λ²·∏ᵢ factorᵢ` (see `privelet::variance`): it is a pure
/// function of public transform parameters and the release's λ, so
/// reporting it costs no privacy budget and — because the per-dimension
/// factors ride along with every derived support — no additional
/// derivations at serving time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotatedAnswer {
    /// The noisy answer.
    pub value: f64,
    /// The exact standard deviation of the answer's noise.
    pub std_dev: f64,
}

impl AnnotatedAnswer {
    /// The exact noise variance (`std_dev²`).
    pub fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    /// A two-sided confidence interval at level `beta ∈ (0, 1)`:
    /// `value ± std_dev/√(1−beta)`.
    ///
    /// The bound is Chebyshev's, which is **distribution-free**: the
    /// noise in an answer is a weighted sum of independent Laplace
    /// variables whose law varies per query (from a single Laplace up to
    /// a near-Gaussian mixture), and Chebyshev covers every case with
    /// only the exact variance — at the price of being conservative
    /// (actual coverage is well above `beta`; the calibration harness in
    /// `privelet-eval` measures how much).
    ///
    /// Errors with [`QueryError::BadConfidenceLevel`] when `beta` is
    /// outside `(0, 1)` (including NaN): serving tiers feed
    /// operator-supplied levels straight in, and a bad level must surface
    /// as a refusal, not a panic in the serving thread.
    ///
    /// [`QueryError::BadConfidenceLevel`]: crate::QueryError::BadConfidenceLevel
    pub fn interval(&self, beta: f64) -> Result<(f64, f64)> {
        if !(beta > 0.0 && beta < 1.0) {
            return Err(crate::QueryError::BadConfidenceLevel(beta));
        }
        let k = (1.0 / (1.0 - beta)).sqrt();
        Ok((self.value - k * self.std_dev, self.value + k * self.std_dev))
    }

    /// The z-score of `reference` under this answer's error model:
    /// `(value − reference)/std_dev`. Calibration harnesses feed the
    /// exact answer here; across seeds the scores must have mean ≈ 0 and
    /// variance ≈ 1 if the predicted std-dev is honest.
    pub fn z_score(&self, reference: f64) -> f64 {
        (self.value - reference) / self.std_dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_and_z_score_arithmetic() {
        let a = AnnotatedAnswer {
            value: 10.0,
            std_dev: 2.0,
        };
        assert_eq!(a.variance(), 4.0);
        // Chebyshev at 75%: k = 1/√0.25 = 2.
        let (lo, hi) = a.interval(0.75).unwrap();
        assert!((lo - 6.0).abs() < 1e-12);
        assert!((hi - 14.0).abs() < 1e-12);
        // Wider level ⇒ wider interval, always containing the value.
        let (lo95, hi95) = a.interval(0.95).unwrap();
        assert!(lo95 < lo && hi < hi95);
        assert_eq!(a.z_score(10.0), 0.0);
        assert_eq!(a.z_score(6.0), 2.0);
    }

    #[test]
    fn interval_rejects_bad_levels_as_errors() {
        let a = AnnotatedAnswer {
            value: 0.0,
            std_dev: 1.0,
        };
        for bad in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            match a.interval(bad).unwrap_err() {
                crate::QueryError::BadConfidenceLevel(b) => {
                    assert!(b.is_nan() == bad.is_nan() && (b.is_nan() || b == bad))
                }
                other => panic!("wrong error: {other:?}"),
            }
        }
    }
}
