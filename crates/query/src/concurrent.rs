//! The coefficient serving engine: one shared release core, one support
//! cache, any number of threads.
//!
//! The paper's central structural fact (§IV–§V) is that a range-count
//! query intersects only O(log m) Haar coefficients per dimension — the
//! two boundary root-to-leaf paths — so a query can be answered
//! *directly in the noisy coefficient domain* as a sparse tensor-product
//! dot, without ever inverting the transform or building O(m) prefix
//! sums. [`ConcurrentEngine`] serves that path one query at a time: an
//! [`Arc`]-shared immutable [`ReleaseCore`] (built once: validation, the
//! O(m') refinement nominal dimensions need, the prefix-sum pass along
//! identity axes, the total) plus an `Arc`-shared support cache of fixed
//! size (1024 direct-mapped slots, one lock each) memoizing
//! per-dimension supports. Each `answer` then reads `∏ᵢ |supportᵢ|`
//! coefficients: O(log mᵢ) on a Haar axis and at most two on an identity
//! (SA) axis, so a Basic release (every axis identity) reads the 2^d
//! corners of a summed-area table. Its answers agree with
//! reconstruct-then-prefix-sum over `to_matrix()` to floating-point
//! rounding (property-tested at the workspace root).
//!
//! Everything else lives on the core, reached through
//! [`core`](ConcurrentEngine::core): batches compile with
//! [`ReleaseCore::plan`] and run with [`ReleaseCore::execute_plan`]
//! (cache-free; a plan interns its own supports), and
//! [`ReleaseCore::answer_uncached`] is the cache-free online answer.
//!
//! A release is write-once, read-many, so no lock guards the
//! coefficients (nothing mutates them), and an online lookup locks only
//! the one cache slot its key hashes to, so lookups of different
//! supports rarely contend. Cloning
//! the engine is two `Arc` bumps; the natural deployment is one clone
//! per serving thread over one core.
//!
//! **Bitwise-equality guarantee.** Online answers and compiled plans
//! derive supports through one function and dot them through one pure
//! kernel, so any thread's answer is bit-identical to the core's
//! cache-free reference ([`ReleaseCore::answer_uncached`]) and to a
//! shared plan's ([`ReleaseCore::execute_plan`]).
//! `tests/concurrent_serving.rs` asserts this from scoped threads on
//! random mixed schemas, along with counter conservation under
//! contention and compile-time `Send + Sync` for the plan, the core and
//! the engine.

use crate::cache::{CacheStats, SharedSupport, SupportCache};
use crate::engine::AnnotatedAnswer;
use crate::plan::QueryPlan;
use crate::range_query::RangeQuery;
use crate::release::ReleaseCore;
use crate::Result;
use privelet::mechanism::CoefficientOutput;
use std::sync::Arc;

/// The coefficient-domain answering engine: an `Arc`-shared immutable
/// [`ReleaseCore`] plus an `Arc`-shared support cache.
///
/// All methods take `&self`; the engine is `Send + Sync` and `Clone`
/// (two pointer bumps — clones serve the same release through the same
/// cache). See the [module docs](self) for the design and guarantees.
#[derive(Debug, Clone)]
pub struct ConcurrentEngine {
    core: Arc<ReleaseCore>,
    cache: Arc<SupportCache>,
}

impl ConcurrentEngine {
    /// Wraps a (possibly already shared) release core with a fresh, empty
    /// support cache. The core's one-time work (validation, refinement,
    /// total) is not repeated.
    pub fn new(core: Arc<ReleaseCore>) -> Self {
        ConcurrentEngine {
            core,
            cache: Arc::new(SupportCache::new()),
        }
    }

    /// Builds core and engine straight from a [`publish_coefficients`]
    /// release.
    ///
    /// [`publish_coefficients`]: privelet::mechanism::publish_coefficients
    pub fn from_output(out: &CoefficientOutput) -> Result<Self> {
        Ok(Self::new(Arc::new(ReleaseCore::from_output(out)?)))
    }

    /// Rolls the engine to a new epoch of the same release series (see
    /// [`ReleaseCore::advance_epoch`] for the lineage validation). The
    /// returned engine shares this engine's cache `Arc`: supports are
    /// pure functions of `(dim, lo, hi)` and the — lineage-pinned —
    /// transform, so every warm entry (and its counters) stays valid
    /// across epochs; only coefficient state rolls with the core.
    /// `self` keeps serving the old epoch, so a serving tier can drain
    /// in-flight traffic on the old engine while new traffic routes to
    /// the new one.
    pub fn advance_epoch(&self, out: &CoefficientOutput) -> Result<Self> {
        Ok(ConcurrentEngine {
            core: Arc::new(self.core.advance_epoch(out)?),
            cache: Arc::clone(&self.cache),
        })
    }

    /// The shared release core: its schema and total, the cache-free
    /// answers, and plan compile and execute. Clone the `Arc` to serve
    /// the same release through another engine with a fresh cache.
    pub fn core(&self) -> &Arc<ReleaseCore> {
        &self.core
    }

    /// Answers one range-count query as a sparse tensor-product dot
    /// against the coefficients: `Σ ∏ᵢ wᵢ[kᵢ] · C[k₁,…,k_d]` over the
    /// per-dimension supports, `∏ᵢ |supportᵢ|` coefficient reads — for
    /// all-Haar schemas O(∏ᵢ log mᵢ), with no O(m) reconstruction before
    /// the first answer.
    ///
    /// Safe and lock-cheap to call from many threads at once: each
    /// dimension's lookup locks only the cache slot its `(dim, lo, hi)`
    /// key hashes to, and a concurrent miss on the same key derives
    /// exactly once per residency. Bit-identical to
    /// [`ReleaseCore::answer_uncached`].
    pub fn answer(&self, q: &RangeQuery) -> Result<f64> {
        self.core.dot(&self.supports(q)?)
    }

    /// [`answer`](Self::answer) with its exact noise std-dev: the same
    /// cached supports and the same dot (bit-identical value), annotated
    /// from the supports' precomputed variance factors — on a warm cache
    /// this adds zero derivations and no lock traffic beyond the lookups
    /// `answer` already performs.
    ///
    /// Errors with [`QueryError::MissingPrivacyMeta`] when the release
    /// carries no privacy accounting.
    ///
    /// [`QueryError::MissingPrivacyMeta`]: crate::QueryError::MissingPrivacyMeta
    pub fn answer_with_error(&self, q: &RangeQuery) -> Result<AnnotatedAnswer> {
        let supports = self.supports(q)?;
        self.core.annotate(self.core.dot(&supports)?, &supports)
    }

    /// Hit/miss/eviction counters and occupancy of the support cache,
    /// summed over its slots.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resolves a query to its per-dimension sparse supports through the
    /// cache: repeated `(dim, lo, hi)` predicates across requests
    /// reuse the memoized support instead of re-deriving it.
    fn supports(&self, q: &RangeQuery) -> Result<Vec<SharedSupport>> {
        let (lo, hi) = q.bounds(self.core.schema())?;
        (0..self.core.schema().arity())
            .map(|dim| {
                let key = (dim, lo[dim], hi[dim]);
                self.cache
                    .get_or_derive(key, || self.core.derive_support(dim, lo[dim], hi[dim]))
            })
            .collect()
    }
}

// The whole point of this engine: provable shareability. A regression
// here (e.g. an `Rc` or `RefCell` slipping into the core) must fail to
// compile, not fail in a stress test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentEngine>();
    assert_send_sync::<ReleaseCore>();
    assert_send_sync::<SupportCache>();
    assert_send_sync::<QueryPlan>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::QueryError;
    use privelet::mechanism::{publish_coefficients, PriveletConfig};
    use privelet::transform::HnTransform;
    use privelet_data::medical::medical_example;
    use privelet_data::schema::{Attribute, Schema};
    use privelet_data::FrequencyMatrix;
    use privelet_matrix::{NdMatrix, PrefixSums};
    use std::collections::BTreeSet;

    fn medical_release(seed: u64) -> (FrequencyMatrix, CoefficientOutput) {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, seed)).unwrap();
        (fm, out)
    }

    /// An engine over bare (exact, unmetered) coefficients.
    fn bare_engine(schema: Schema, hn: HnTransform, coeffs: &NdMatrix) -> Result<ConcurrentEngine> {
        Ok(ConcurrentEngine::new(Arc::new(ReleaseCore::new(
            schema, hn, coeffs,
        )?)))
    }

    fn medical_queries(fm: &FrequencyMatrix) -> Vec<RangeQuery> {
        let h = fm.schema().attr(1).domain().hierarchy().unwrap().clone();
        vec![
            RangeQuery::all(2),
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
            RangeQuery::new(vec![
                Predicate::Range { lo: 1, hi: 4 },
                Predicate::Node {
                    node: h.leaf_node(1),
                },
            ]),
            RangeQuery::new(vec![Predicate::All, Predicate::Node { node: h.root() }]),
            // Repeats query 1: both dims hit a warm cache.
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
        ]
    }

    #[test]
    fn matches_the_core_reference_bitwise() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let core = engine.core();
        let qs = medical_queries(&fm);
        let batch = core.execute_plan(&core.plan(&qs).unwrap()).unwrap();
        assert_eq!(batch.len(), qs.len());
        for (q, &plan) in qs.iter().zip(&batch) {
            // Online (cached) vs the cache-free reference and the plan:
            // one derivation, one kernel, so bitwise.
            let got = engine.answer(q).unwrap();
            assert_eq!(got.to_bits(), core.answer_uncached(q).unwrap().to_bits());
            assert_eq!(got.to_bits(), plan.to_bits(), "online {got} vs plan {plan}");
        }
    }

    #[test]
    fn matches_reconstruct_then_prefix_sum_on_noisy_release() {
        for seed in [1u64, 5, 42] {
            let (fm, out) = medical_release(seed);
            let engine = ConcurrentEngine::from_output(&out).unwrap();
            let rec = out.to_matrix().unwrap();
            let prefix = PrefixSums::build(rec.matrix());
            for q in medical_queries(&fm) {
                let a = engine.answer(&q).unwrap();
                let b = q.evaluate_prefix(rec.schema(), &prefix).unwrap();
                assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
            }
            assert!((engine.core().total() - prefix.total()).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_coefficients_answer_exactly() {
        // Forward-transform the exact matrix (no noise): answers equal the
        // exact evaluation.
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let engine = bare_engine(fm.schema().clone(), hn, &coeffs).unwrap();
        for q in medical_queries(&fm) {
            let (lo, hi) = q.bounds(fm.schema()).unwrap();
            let want = privelet_matrix::rect_sum_naive(fm.matrix(), &lo, &hi).unwrap();
            let got = engine.answer(&q).unwrap();
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert!((engine.core().total() - 8.0).abs() < 1e-9);
        // No λ, no error model.
        assert_eq!(
            engine.answer_with_error(&RangeQuery::all(2)).unwrap_err(),
            QueryError::MissingPrivacyMeta
        );
    }

    #[test]
    fn cache_amortizes_repeated_predicates() {
        let (fm, out) = medical_release(19);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        assert_eq!(engine.cache_stats().hits, 0);
        let q = &medical_queries(&fm)[1];
        let first = engine.answer(q).unwrap();
        let after_first = engine.cache_stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 2, "both dims derived once");
        // Same predicates again: served entirely from the cache, same
        // answer bit for bit.
        assert_eq!(engine.answer(q).unwrap().to_bits(), first.to_bits());
        let after_second = engine.cache_stats();
        assert_eq!((after_second.hits, after_second.misses), (2, 2));
        assert_eq!(after_second.len, 2);
        // The cache-free path is the core's, and agrees bit for bit.
        let uncached = engine.core().answer_uncached(q).unwrap();
        assert_eq!(uncached.to_bits(), first.to_bits());
        assert_eq!(engine.cache_stats(), after_second);
    }

    #[test]
    fn annotated_answers_ride_the_cache_and_match_the_core() {
        let (fm, out) = medical_release(41);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let core = engine.core();
        let qs = medical_queries(&fm);

        // Warm the cache with the plain answers. A twin engine over the
        // same core answers plain where this one annotates.
        let plain: Vec<f64> = qs.iter().map(|q| engine.answer(q).unwrap()).collect();
        let twin = ConcurrentEngine::new(Arc::clone(core));
        for q in qs.iter().chain(&qs) {
            twin.answer(q).unwrap();
        }

        for (q, &v) in qs.iter().zip(&plain) {
            let annotated = engine.answer_with_error(q).unwrap();
            // Same cached supports, same dot: bit-identical value, and
            // the same annotation as the cache-free reference.
            assert_eq!(annotated.value.to_bits(), v.to_bits());
            let reference = core.answer_with_error_uncached(q).unwrap();
            assert_eq!(annotated.value.to_bits(), reference.value.to_bits());
            assert_eq!(annotated.std_dev.to_bits(), reference.std_dev.to_bits());
            assert!(annotated.std_dev > 0.0);
            // Never louder than the analytic worst case.
            assert!(annotated.variance() <= out.meta.variance_bound * (1.0 + 1e-9));
        }
        // Error accounting derived nothing of its own: the cache moved
        // exactly as under plain answering.
        let after = engine.cache_stats();
        assert_eq!(after, twin.cache_stats());
        assert_eq!(after.hits + after.misses, (2 * qs.len() * 2) as u64);

        // The plan path annotates from compile-time factors and agrees.
        let plan = core.plan(&qs).unwrap();
        let annotated_plan = core.execute_plan_with_error(&plan).unwrap();
        assert_eq!(engine.cache_stats(), after, "plan execution is cache-free");
        for (q, a) in qs.iter().zip(&annotated_plan) {
            let online = engine.answer_with_error(q).unwrap();
            // Plan vs online: bitwise, value and std-dev alike.
            assert_eq!(a.value.to_bits(), online.value.to_bits());
            assert_eq!(a.std_dev.to_bits(), online.std_dev.to_bits());
        }
    }

    #[test]
    fn clones_and_epochs_share_the_cache() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let qs = medical_queries(&fm);
        let plan = engine.core().plan(&qs).unwrap();
        let want = engine.core().execute_plan(&plan).unwrap();
        let clone = engine.clone();
        assert!(Arc::ptr_eq(engine.core(), clone.core()));
        assert_eq!(clone.core().execute_plan(&plan).unwrap(), want);
        // Clones share the cache, so online traffic on the clone shows
        // up in the original's counters.
        clone.answer(&qs[1]).unwrap();
        assert_eq!(engine.cache_stats().misses, 2);
        // So does the next epoch's engine: the warm entries carry over.
        let (_, next) = medical_release(38);
        let rolled = engine.advance_epoch(&next).unwrap();
        rolled.answer(&qs[1]).unwrap();
        assert_eq!(engine.cache_stats().hits, 2);
        assert!(!Arc::ptr_eq(engine.core(), rolled.core()));
    }

    #[test]
    fn a_non_finite_epoch_is_refused_and_the_old_engine_keeps_serving() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let qs = medical_queries(&fm);
        let before: Vec<u64> = qs
            .iter()
            .map(|q| engine.answer(q).unwrap().to_bits())
            .collect();
        let (_, mut next) = medical_release(38);
        next.coefficients.as_mut_slice()[3] = f64::NAN;
        assert_eq!(
            engine.advance_epoch(&next).unwrap_err(),
            QueryError::NonFiniteCoefficient { index: 3 }
        );
        let after: Vec<u64> = qs
            .iter()
            .map(|q| engine.answer(q).unwrap().to_bits())
            .collect();
        assert_eq!(after, before);
    }

    #[test]
    fn an_epoch_that_changes_an_axis_transform_is_refused() {
        // Axis 0 has size 4, where identity (SA) and Haar both store 4
        // coefficients: only the transforms tell the two epochs apart.
        let schema =
            Schema::new(vec![Attribute::ordinal("a", 4), Attribute::ordinal("b", 8)]).unwrap();
        let cells = (0..32).map(|i| ((i * 7) % 5) as f64).collect();
        let fm = FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&[4, 8], cells).unwrap())
            .unwrap();
        let sa = BTreeSet::from([0usize]);
        let out = publish_coefficients(&fm, &PriveletConfig::plus(1.0, sa.clone(), 5)).unwrap();
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let qs = [
            RangeQuery::new(vec![Predicate::Range { lo: 1, hi: 2 }, Predicate::All]),
            RangeQuery::new(vec![
                Predicate::Range { lo: 0, hi: 3 },
                Predicate::Range { lo: 2, hi: 6 },
            ]),
        ];
        let bits = |e: &ConcurrentEngine| -> Vec<u64> {
            qs.iter().map(|q| e.answer(q).unwrap().to_bits()).collect()
        };
        let before = bits(&engine);

        let haar = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 6)).unwrap();
        assert_eq!(haar.coefficients.dims(), out.coefficients.dims());
        assert_eq!(
            engine.advance_epoch(&haar).unwrap_err(),
            QueryError::ShapeMismatch
        );
        assert_eq!(bits(&engine), before);

        // A same-transform roll still shares the warm cache, and its
        // cached answers equal its own cache-free ones.
        let next = publish_coefficients(&fm, &PriveletConfig::plus(1.0, sa, 6)).unwrap();
        let rolled = engine.advance_epoch(&next).unwrap();
        let hits = engine.cache_stats().hits;
        for q in &qs {
            let cached = rolled.answer(q).unwrap();
            let uncached = rolled.core().answer_uncached(q).unwrap();
            assert_eq!(cached.to_bits(), uncached.to_bits());
        }
        assert_eq!(engine.cache_stats().hits, hits + 4);
    }

    #[test]
    fn cache_stats_sum_the_slots() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let qs = medical_queries(&fm);
        for q in &qs {
            engine.answer(q).unwrap();
        }
        assert_eq!(engine.core().coefficients().len(), out.coefficient_count());
        let stats = engine.cache_stats();
        // The last query repeats query 1: both dims hit; counters conserve.
        assert!(stats.hits >= 2);
        assert_eq!(stats.hits + stats.misses, (qs.len() * 2) as u64);
        assert_eq!(stats.len as u64, stats.misses - stats.evictions);
        assert_eq!(stats.capacity, 1024);
    }

    #[test]
    fn haar_supports_have_logarithmic_size() {
        let schema = Schema::new(vec![Attribute::ordinal("v", 1 << 12)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let coeffs = NdMatrix::zeros(&hn.output_dims()).unwrap();
        let engine = bare_engine(schema, hn, &coeffs).unwrap();
        let q = RangeQuery::new(vec![Predicate::Range { lo: 37, hi: 3901 }]);
        let support: usize = engine
            .core()
            .supports_uncached(&q)
            .unwrap()
            .iter()
            .map(|s| s.len())
            .product();
        assert!(support <= 2 * 12 + 1, "support {support}");
        // Reconstructing the matrix would have scanned 2^12 cells first.
        assert!(support < 1 << 12);
        assert_eq!(engine.answer(&q).unwrap(), 0.0);
    }

    #[test]
    fn rejects_mismatched_metadata_and_bad_queries() {
        let (fm, out) = medical_release(9);
        // Coefficient matrix with the wrong dims.
        let wrong = NdMatrix::zeros(&[4, 3]).unwrap();
        assert_eq!(
            bare_engine(fm.schema().clone(), out.transform.clone(), &wrong).unwrap_err(),
            QueryError::ShapeMismatch
        );
        // Transform not matching the schema.
        let other = Schema::new(vec![Attribute::ordinal("x", 3)]).unwrap();
        let other_hn = HnTransform::for_schema(&other, &BTreeSet::new()).unwrap();
        assert_eq!(
            bare_engine(fm.schema().clone(), other_hn, &out.coefficients).unwrap_err(),
            QueryError::ShapeMismatch
        );
        // Query errors propagate; bounds fail before any cache lookup.
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let bad = RangeQuery::new(vec![Predicate::Range { lo: 9, hi: 9 }, Predicate::All]);
        assert!(engine.answer(&bad).is_err());
        assert!(engine.core().plan(&[bad]).is_err());
        assert_eq!(engine.cache_stats().hits + engine.cache_stats().misses, 0);
    }

    #[test]
    fn rejects_nominal_transform_over_a_different_hierarchy() {
        use privelet::transform::{DimTransform, NominalTransform};
        use privelet_hierarchy::Spec;

        // Schema hierarchy: 6 leaves in two groups of 3 (9 nodes).
        let schema_h = privelet_hierarchy::builder::three_level(6, 2).unwrap();
        let schema = Schema::new(vec![Attribute::nominal("n", schema_h)]).unwrap();
        // Transform hierarchy: same 6 leaves and 9 nodes, grouped (2, 4).
        let other_h = Arc::new(
            Spec::internal(
                "r",
                vec![
                    Spec::internal("g1", vec![Spec::leaf("a"), Spec::leaf("b")]),
                    Spec::internal(
                        "g2",
                        vec![
                            Spec::leaf("c"),
                            Spec::leaf("d"),
                            Spec::leaf("e"),
                            Spec::leaf("f"),
                        ],
                    ),
                ],
            )
            .build()
            .unwrap(),
        );
        let hn =
            HnTransform::new(vec![DimTransform::Nominal(NominalTransform::new(other_h))]).unwrap();
        // Dims line up (6 in, 9 out) — only the structural check can
        // reject this.
        assert_eq!(hn.input_dims(), schema.dims());
        let coeffs = NdMatrix::zeros(&hn.output_dims()).unwrap();
        assert_eq!(
            bare_engine(schema, hn, &coeffs).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }

    #[test]
    fn refinement_at_build_matters_for_nominal_dims() {
        // Without the build-time refinement, nominal noisy coefficients
        // would disagree with the refined reconstruction (`to_matrix`);
        // the engine's core refines once at build.
        let (fm, out) = medical_release(77);
        use privelet::transform::Transform1d;
        assert!(
            out.transform.transforms()[1].has_refinement(),
            "dim 1 is nominal"
        );
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let rec = out.to_matrix().unwrap();
        let prefix = PrefixSums::build(rec.matrix());
        let h = fm.schema().attr(1).domain().hierarchy().unwrap().clone();
        let q = RangeQuery::new(vec![
            Predicate::All,
            Predicate::Node {
                node: h.leaf_node(0),
            },
        ]);
        let a = engine.answer(&q).unwrap();
        let b = q.evaluate_prefix(rec.schema(), &prefix).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
