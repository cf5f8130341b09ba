//! Batch query answering over one (noisy or exact) frequency matrix.
//!
//! Building the d-dimensional prefix sums once and answering each query in
//! O(2^d) is how the experiment harness evaluates 40 000 queries per
//! published matrix; [`Answerer`] packages that pattern for library users.

use crate::engine::AnnotatedAnswer;
use crate::range_query::RangeQuery;
use crate::{QueryError, Result};
use privelet::transform::HnTransform;
use privelet::variance::exact_query_variance;
use privelet::PrivacyMeta;
use privelet_data::schema::Schema;
use privelet_matrix::{NdMatrix, PrefixSums};

/// A prepared query answerer: prefix sums plus the schema they were built
/// over, and optionally the release's error model (transform + privacy
/// accounting) so even the reconstruct-then-prefix-sum path can annotate
/// answers.
#[derive(Debug, Clone)]
pub struct Answerer {
    schema: Schema,
    prefix: PrefixSums,
    total: f64,
    /// The transform and accounting the matrix was published under, when
    /// known. The prefix path discards the coefficient domain, so error
    /// accounting re-derives each query's per-dimension variance factors
    /// from the transform (O(polylog m) per query, uncached — this is the
    /// offline path; the coefficient engine annotates from its cache).
    error_model: Option<(HnTransform, PrivacyMeta)>,
}

impl Answerer {
    /// Builds the answerer from a published (reconstructed) cell matrix
    /// in O(m), without an error model
    /// ([`answer_with_error`](Self::answer_with_error) will return
    /// [`QueryError::MissingPrivacyMeta`]).
    ///
    /// The serving tier deliberately takes a bare [`NdMatrix`] + schema
    /// rather than a raw-count `FrequencyMatrix`: raw counts must reach
    /// serving code only through a noise-injection point, and the
    /// expected input here is a release's `to_matrix()` reconstruction
    /// (the evaluation harness may also feed exact cells for ground
    /// truth — that is its privilege, not the serving tier's).
    ///
    /// Errors with [`QueryError::ShapeMismatch`] when the matrix shape
    /// does not match the schema's per-attribute domain sizes.
    pub fn new(schema: Schema, cells: &NdMatrix) -> Result<Self> {
        if cells.dims() != schema.dims() {
            return Err(QueryError::ShapeMismatch);
        }
        Ok(Answerer {
            prefix: PrefixSums::build(cells),
            total: cells.total(),
            schema,
            error_model: None,
        })
    }

    /// Attaches the release's error model: the transform the matrix was
    /// published under and its privacy accounting. Errors with
    /// [`QueryError::ShapeMismatch`] when the transform does not fit the
    /// answerer's schema (including a nominal transform whose hierarchy
    /// differs structurally — the same check the coefficient engine
    /// performs at construction).
    pub fn with_error_model(mut self, transform: HnTransform, meta: PrivacyMeta) -> Result<Self> {
        crate::plan::check_release_metadata(&self.schema, &transform)?;
        self.error_model = Some((transform, meta));
        Ok(self)
    }

    /// The schema queries are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The matrix total (= n for an exact matrix).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Answers one range-count query in O(2^d).
    pub fn answer(&self, q: &RangeQuery) -> Result<f64> {
        q.evaluate_prefix(&self.schema, &self.prefix)
    }

    /// [`answer`](Self::answer) with its exact noise std-dev, derived
    /// from the attached error model: the value is the identical prefix
    /// sum, the std-dev is `√(2λ²·∏ᵢ factorᵢ)` with each dimension's
    /// sparse variance factor derived on the spot (O(polylog m)).
    ///
    /// Errors with [`QueryError::MissingPrivacyMeta`] when no error model
    /// was attached ([`with_error_model`](Self::with_error_model)).
    pub fn answer_with_error(&self, q: &RangeQuery) -> Result<AnnotatedAnswer> {
        let (transform, meta) = self
            .error_model
            .as_ref()
            .ok_or(QueryError::MissingPrivacyMeta)?;
        let value = self.answer(q)?;
        let (lo, hi) = q.bounds(&self.schema)?;
        // One authoritative implementation of 2λ²·∏ᵢ factorᵢ (with the
        // core's structured bounds validation, should a future caller
        // bypass `bounds`).
        let variance =
            exact_query_variance(transform, meta.lambda, &lo, &hi).map_err(QueryError::from)?;
        Ok(AnnotatedAnswer {
            value,
            std_dev: variance.sqrt(),
        })
    }

    /// Answers a whole workload. Each query is already O(2^d) on the
    /// prebuilt prefix sums with nothing shareable between queries, so
    /// the batch path is the plain loop.
    pub fn answer_all(&self, queries: &[RangeQuery]) -> Result<Vec<f64>> {
        queries.iter().map(|q| self.answer(q)).collect()
    }

    /// Selectivity of a query relative to a tuple count `n`.
    ///
    /// Errors with [`QueryError::ZeroPopulation`] when `n == 0`: the
    /// ratio is undefined, and both serving paths reject it identically
    /// rather than silently reporting 0.
    pub fn selectivity(&self, q: &RangeQuery, n: usize) -> Result<f64> {
        if n == 0 {
            return Err(QueryError::ZeroPopulation);
        }
        Ok(self.answer(q)? / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use privelet_data::medical::medical_example;
    use privelet_data::FrequencyMatrix;
    use privelet_matrix::rect_sum_naive;

    fn medical_answerer() -> (FrequencyMatrix, Answerer) {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let ans = Answerer::new(fm.schema().clone(), fm.matrix()).unwrap();
        (fm, ans)
    }

    fn exact(fm: &FrequencyMatrix, q: &RangeQuery) -> f64 {
        let (lo, hi) = q.bounds(fm.schema()).unwrap();
        rect_sum_naive(fm.matrix(), &lo, &hi).unwrap()
    }

    #[test]
    fn matches_direct_evaluation() {
        let (fm, ans) = medical_answerer();
        let h = fm.schema().attr(1).domain().hierarchy().unwrap().clone();
        let queries = vec![
            RangeQuery::all(2),
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
            RangeQuery::new(vec![
                Predicate::Range { lo: 1, hi: 4 },
                Predicate::Node {
                    node: h.leaf_node(1),
                },
            ]),
        ];
        let batch = ans.answer_all(&queries).unwrap();
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(*got, exact(&fm, q));
        }
    }

    #[test]
    fn exposes_total_and_selectivity() {
        let (_, ans) = medical_answerer();
        assert_eq!(ans.total(), 8.0);
        let q = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 1 }, Predicate::All]);
        assert!((ans.selectivity(&q, 8).unwrap() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(
            ans.selectivity(&q, 0).unwrap_err(),
            QueryError::ZeroPopulation
        );
    }

    #[test]
    fn error_model_annotates_like_the_coefficient_engine() {
        use crate::concurrent::ConcurrentEngine;
        use privelet::mechanism::{publish_coefficients, PriveletConfig};

        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 61)).unwrap();
        let coeff = ConcurrentEngine::from_output(&release).unwrap();
        let rec = release.to_matrix().unwrap();
        let bare = Answerer::new(rec.schema().clone(), rec.matrix()).unwrap();
        let q = RangeQuery::new(vec![Predicate::Range { lo: 1, hi: 3 }, Predicate::All]);
        assert_eq!(
            bare.answer_with_error(&q).unwrap_err(),
            QueryError::MissingPrivacyMeta
        );

        let prefix = bare
            .with_error_model(release.transform.clone(), release.meta)
            .unwrap();
        let a = prefix.answer_with_error(&q).unwrap();
        let b = coeff.answer_with_error(&q).unwrap();
        // Identical formula over the same release: std-devs agree to
        // rounding; values agree to cross-path rounding.
        assert!((a.std_dev - b.std_dev).abs() < 1e-9);
        assert!((a.value - b.value).abs() < 1e-9);
        assert_eq!(a.value, prefix.answer(&q).unwrap());
    }

    #[test]
    fn error_model_rejects_a_mismatched_transform() {
        use privelet::transform::HnTransform;
        use privelet_data::schema::{Attribute, Schema};
        use std::collections::BTreeSet;

        let (fm, ans) = medical_answerer();
        let other = Schema::new(vec![Attribute::ordinal("x", 3)]).unwrap();
        let other_hn = HnTransform::for_schema(&other, &BTreeSet::new()).unwrap();
        let meta = privelet::PrivacyMeta::for_transform(&other_hn, 1.0).unwrap();
        assert_eq!(
            ans.with_error_model(other_hn, meta).unwrap_err(),
            QueryError::ShapeMismatch
        );
        drop(fm);
    }

    #[test]
    fn propagates_query_errors() {
        let (_, ans) = medical_answerer();
        let bad = RangeQuery::new(vec![Predicate::Range { lo: 9, hi: 9 }, Predicate::All]);
        assert!(ans.answer(&bad).is_err());
        assert!(ans.answer_all(&[bad]).is_err());
    }
}
