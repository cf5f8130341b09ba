//! The unified serving interface over the two answering paths.
//!
//! [`AnswerEngine`] is the seam a serving tier programs against: answer
//! one query, answer a batch, report cost diagnostics — without caring
//! whether answers come from prefix sums over a reconstructed matrix
//! ([`Answerer`](crate::Answerer)) or from sparse dots against noisy
//! coefficients ([`ConcurrentEngine`](crate::ConcurrentEngine)). The
//! trait is object-safe, so both engines can sit behind one
//! `dyn AnswerEngine` in a router.

use crate::cache::CacheStats;
use crate::range_query::RangeQuery;
use crate::Result;
use privelet_data::schema::Schema;

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

/// Cost diagnostics an engine reports about itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineDiagnostics {
    /// Short engine kind label ("prefix-sum" or "coefficient").
    pub engine: &'static str,
    /// Values the engine materialized at build time: matrix cells for
    /// the prefix path, refined coefficients for the coefficient path.
    pub build_cells: usize,
    /// Support-cache counters, for engines that memoize supports on the
    /// online path (`None` for engines without a cache); aggregated
    /// across shards for sharded caches.
    pub cache: Option<CacheStats>,
    /// Number of independently locked cache shards: 0 for engines
    /// without a cache, otherwise the sharded cache's shard count (1 is
    /// a single-lock cache).
    pub shards: usize,
}

/// A prepared query-serving engine over one published release.
pub trait AnswerEngine {
    /// The schema queries are validated against.
    fn schema(&self) -> &Schema;

    /// Answers one range-count query (the online path).
    fn answer_one(&self, q: &RangeQuery) -> Result<f64>;

    /// Answers one range-count query with its exact noise std-dev.
    ///
    /// The value equals [`answer_one`](Self::answer_one) bit for bit
    /// (same supports, same float-op order); the annotation is read off
    /// the supports' precomputed variance factors, so on a warm cache or
    /// compiled plan it adds **zero** support derivations. Engines whose
    /// release carries no [`PrivacyMeta`](privelet::PrivacyMeta) error
    /// with [`QueryError::MissingPrivacyMeta`](crate::QueryError).
    fn answer_with_error(&self, q: &RangeQuery) -> Result<AnnotatedAnswer>;

    /// Answers a whole batch, in query order. Engines with a batch
    /// compiler amortize shared work across the batch; the default
    /// contract is only that the result equals answering each query
    /// individually (to floating-point rounding).
    fn answer_batch(&self, queries: &[RangeQuery]) -> Result<Vec<f64>>;

    /// Cost diagnostics: what the engine built, and how its cache is
    /// doing.
    fn diagnostics(&self) -> EngineDiagnostics;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answerer::Answerer;
    use crate::concurrent::ConcurrentEngine;
    use crate::predicate::Predicate;
    use privelet::mechanism::{publish_coefficients, PriveletConfig};
    use privelet_data::medical::medical_example;
    use privelet_data::FrequencyMatrix;

    /// Both engines behind one `dyn AnswerEngine` agree query for query
    /// and batch for batch.
    #[test]
    fn engines_are_interchangeable_behind_the_trait() {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 21)).unwrap();
        let coeff = ConcurrentEngine::from_output(&release).unwrap();
        let rec = release.to_matrix().unwrap();
        let prefix = Answerer::new(rec.schema().clone(), rec.matrix()).unwrap();
        let engines: Vec<&dyn AnswerEngine> = vec![&prefix, &coeff];

        let queries = vec![
            RangeQuery::all(2),
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
        ];
        let batches: Vec<Vec<f64>> = engines
            .iter()
            .map(|e| e.answer_batch(&queries).unwrap())
            .collect();
        for (a, b) in batches[0].iter().zip(&batches[1]) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        for engine in &engines {
            assert_eq!(engine.schema().arity(), 2);
            for (q, want) in queries.iter().zip(&batches[0]) {
                let got = engine.answer_one(q).unwrap();
                assert!((got - want).abs() < 1e-9);
            }
        }

        let d_prefix = prefix.diagnostics();
        assert_eq!(d_prefix.engine, "prefix-sum");
        assert_eq!(d_prefix.build_cells, fm.cell_count());
        assert!(d_prefix.cache.is_none());
        assert_eq!(d_prefix.shards, 0);

        let d_coeff = coeff.diagnostics();
        assert_eq!(d_coeff.engine, "coefficient");
        assert_eq!(d_coeff.build_cells, release.coefficient_count());
        assert_eq!(d_coeff.shards, crate::DEFAULT_SHARD_COUNT);
        let stats = d_coeff.cache.expect("coefficient engine has a cache");
        // The repeated query above hit the cache on both dimensions.
        assert!(stats.hits >= 2, "hits {}", stats.hits);
    }

    #[test]
    fn annotated_answers_agree_across_engines_behind_the_trait() {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 33)).unwrap();
        let coeff = ConcurrentEngine::from_output(&release).unwrap();
        // The prefix engine needs the error model attached explicitly —
        // the reconstructed matrix alone cannot know λ.
        let rec = release.to_matrix().unwrap();
        let bare = Answerer::new(rec.schema().clone(), rec.matrix()).unwrap();
        let q = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        assert_eq!(
            AnswerEngine::answer_with_error(&bare, &q).unwrap_err(),
            crate::QueryError::MissingPrivacyMeta
        );
        let prefix = bare
            .with_error_model(release.transform.clone(), release.meta)
            .unwrap();

        let engines: Vec<&dyn AnswerEngine> = vec![&prefix, &coeff];
        let annotated: Vec<AnnotatedAnswer> = engines
            .iter()
            .map(|e| e.answer_with_error(&q).unwrap())
            .collect();
        // Same release, same formula: the std-devs agree to rounding and
        // each engine's annotated value equals its plain answer bitwise.
        assert!((annotated[0].std_dev - annotated[1].std_dev).abs() < 1e-9);
        assert!(annotated[1].std_dev > 0.0);
        for (engine, a) in engines.iter().zip(&annotated) {
            assert_eq!(a.value, engine.answer_one(&q).unwrap());
        }
    }

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
