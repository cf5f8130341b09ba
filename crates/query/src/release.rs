//! The immutable core of a coefficient-domain release: everything a
//! serving thread needs to answer queries, and nothing that mutates.
//!
//! [`ReleaseCore`] holds the schema, the transform and the **stored**
//! noisy coefficients of one published release. Construction performs
//! the one-time work (metadata validation, the §V-B refinement pass, a
//! prefix-sum pass along every identity axis, the finiteness scan and
//! the total-count query); after that every method takes `&self` and
//! touches only immutable state, so the core is `Send + Sync` by
//! construction and is meant to live inside an [`Arc`] shared across
//! serving threads.
//!
//! Stored layout: Haar and nominal axes hold their (refined)
//! coefficients, and identity (Privelet⁺ SA) axes hold prefix sums along
//! the axis, so an interval there reads two entries instead of every
//! covered cell, and an all-identity release (Basic) reads the 2^d
//! corners of a summed-area table. Supports ([`DimSupport`]) are derived
//! against this layout, so plans compile and execute only through a core.
//!
//! The serving engine layers on top: [`ConcurrentEngine`] pairs an
//! `Arc`'d core with a direct-mapped support cache. Its cached answers
//! are bit-identical to this core's cache-free ones, and to a compiled
//! plan's, because every path derives supports through one function and
//! dots them through one kernel (`crate::kernel`), both pure.
//!
//! [`ConcurrentEngine`]: crate::ConcurrentEngine

use crate::cache::{DimSupport, SharedSupport};
use crate::engine::AnnotatedAnswer;
use crate::plan::QueryPlan;
use crate::range_query::RangeQuery;
use crate::{QueryError, Result};
use privelet::mechanism::CoefficientOutput;
use privelet::transform::{DimTransform, HnTransform};
use privelet::PrivacyMeta;
use privelet_data::schema::{Domain, Schema};
use privelet_matrix::{prefix_sum_axis, NdMatrix};
use std::sync::Arc;

/// Validates that `transform` and `schema` describe the same release:
/// matching dimension sizes, and structurally equal hierarchies on
/// nominal axes. Dimension sizes alone would let a nominal transform
/// built over a *different* hierarchy with the same leaf count slip
/// through; node predicates would then resolve through the schema's
/// hierarchy while weights come from the transform's, silently producing
/// wrong answers. (Haar/identity transforms carry no structure beyond
/// their lengths — Haar over a nominal attribute's imposed leaf order is
/// a legitimate §V-D ablation pairing.)
fn check_release_metadata(schema: &Schema, transform: &HnTransform) -> Result<()> {
    if transform.input_dims() != schema.dims() {
        return Err(QueryError::ShapeMismatch);
    }
    for (attr, dim) in schema.attrs().iter().zip(transform.transforms()) {
        if let DimTransform::Nominal(t) = dim {
            match attr.domain() {
                Domain::Nominal { hierarchy } if hierarchy.as_ref() == t.hierarchy().as_ref() => {}
                _ => return Err(QueryError::ShapeMismatch),
            }
        }
    }
    Ok(())
}

/// The immutable, shareable core of one coefficient-domain release:
/// schema + transform + stored coefficients (+ the noisy total, and the
/// release's [`PrivacyMeta`] when it came from a publisher). See the
/// [module docs](self) for the stored layout and how the serving engine
/// layers on top.
#[derive(Debug, Clone)]
pub struct ReleaseCore {
    schema: Schema,
    transform: HnTransform,
    /// Stored coefficients: refined (mean subtraction already applied on
    /// nominal axes) and prefix-summed along identity axes, so every
    /// answer is a pure dot product.
    coeffs: NdMatrix,
    /// The (noisy) total count — the unconstrained query's answer,
    /// computed once at construction.
    total: f64,
    /// The privacy accounting of the release, when known — `λ` is what
    /// error accounting needs (`Var = 2λ²·∏ᵢ factorᵢ`). `None` for cores
    /// built from bare coefficient matrices (e.g. exact-coefficient test
    /// fixtures), whose noise scale is unknowable; those cores answer
    /// queries but refuse to annotate them.
    meta: Option<PrivacyMeta>,
}

impl ReleaseCore {
    /// Builds the core from a published coefficient matrix and its
    /// metadata, without privacy accounting (error-annotated answering
    /// will return [`QueryError::MissingPrivacyMeta`]; use
    /// [`with_meta`](Self::with_meta) or
    /// [`from_output`](Self::from_output) to carry it). Applies the
    /// refinement once (O(m'); idempotent, so exact or already-refined
    /// coefficients pass through unchanged), runs one O(m') prefix-sum
    /// pass per identity axis, and answers the unconstrained query once
    /// for [`total`](Self::total).
    ///
    /// Errors with [`QueryError::ShapeMismatch`] when the schema, the
    /// transform and the coefficient matrix do not describe the same
    /// release (including a nominal transform whose hierarchy differs
    /// structurally from the schema's), and with
    /// [`QueryError::NonFiniteCoefficient`] when a stored coefficient is
    /// NaN or ±∞ (non-finite input, or a refinement or prefix sum that
    /// overflows).
    pub fn new(schema: Schema, transform: HnTransform, noisy: &NdMatrix) -> Result<Self> {
        Self::build(schema, transform, noisy, None)
    }

    /// [`new`](Self::new) carrying the release's privacy accounting, so
    /// every answer can be annotated with its exact noise std-dev.
    pub fn with_meta(
        schema: Schema,
        transform: HnTransform,
        noisy: &NdMatrix,
        meta: PrivacyMeta,
    ) -> Result<Self> {
        Self::build(schema, transform, noisy, Some(meta))
    }

    fn build(
        schema: Schema,
        transform: HnTransform,
        noisy: &NdMatrix,
        meta: Option<PrivacyMeta>,
    ) -> Result<Self> {
        check_release_metadata(&schema, &transform)?;
        if noisy.dims() != transform.output_dims() {
            return Err(QueryError::ShapeMismatch);
        }
        let mut coeffs = noisy.clone();
        transform
            .refine_in_place(&mut coeffs)
            .map_err(QueryError::from)?;
        for (axis, t) in transform.transforms().iter().enumerate() {
            if let DimTransform::Identity(_) = t {
                prefix_sum_axis(&mut coeffs, axis).map_err(|_| QueryError::ShapeMismatch)?;
            }
        }
        if let Some(index) = coeffs.as_slice().iter().position(|c| !c.is_finite()) {
            return Err(QueryError::NonFiniteCoefficient { index });
        }
        let mut core = ReleaseCore {
            schema,
            transform,
            coeffs,
            total: 0.0,
            meta,
        };
        core.total = core.answer_uncached(&RangeQuery::all(core.schema.arity()))?;
        Ok(core)
    }

    /// Builds the core straight from a [`publish_coefficients`] release,
    /// carrying its [`PrivacyMeta`].
    ///
    /// [`publish_coefficients`]: privelet::mechanism::publish_coefficients
    pub fn from_output(out: &CoefficientOutput) -> Result<Self> {
        Self::with_meta(
            out.schema.clone(),
            out.transform.clone(),
            &out.coefficients,
            out.meta,
        )
    }

    /// Rolls this core to a new epoch of the *same* release series: a
    /// fresh [`CoefficientOutput`] (e.g. from
    /// `IncrementalRelease::advance_epoch` in `privelet`) re-validated
    /// against this core's serving lineage, then rebuilt (refinement,
    /// prefix sums, total) into a new immutable core.
    ///
    /// Lineage validation errors with [`QueryError::ShapeMismatch`] when
    /// the epoch's per-axis transforms differ from this core's — a
    /// different kind on an axis (identity vs Haar store the same number
    /// of coefficients on an axis of size 2^k), a different length, or a
    /// nominal hierarchy that differs structurally — or its coefficient
    /// matrix has different dims; a non-finite stored coefficient errors
    /// with [`QueryError::NonFiniteCoefficient`].
    /// Serving tiers advance by swapping the returned core in; the old
    /// core stays valid for threads still holding it (epoch advance is
    /// never destructive to in-flight reads).
    ///
    /// Cache note: per-dimension supports are pure functions of
    /// `(dim, lo, hi)` and the transform, and the transform is pinned by
    /// the lineage check — so support caches **survive** an epoch
    /// advance untouched, and supports derived on this core still
    /// [`dot`](Self::dot) on the new one. Only coefficient state (this
    /// core's stored matrix and noisy total) rolls.
    pub fn advance_epoch(&self, out: &CoefficientOutput) -> Result<Self> {
        if out.transform.transforms() != self.transform.transforms()
            || out.coefficients.dims() != self.coeffs.dims()
        {
            return Err(QueryError::ShapeMismatch);
        }
        Self::with_meta(
            self.schema.clone(),
            out.transform.clone(),
            &out.coefficients,
            out.meta,
        )
    }

    /// The schema queries are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The transform the release was published under.
    pub fn transform(&self) -> &HnTransform {
        &self.transform
    }

    /// The stored coefficient matrix answers are dotted against: the
    /// refined coefficients, prefix-summed along every identity axis (see
    /// the [module docs](self)).
    pub fn coefficients(&self) -> &NdMatrix {
        &self.coeffs
    }

    /// The (noisy) total count — the unconstrained query's answer.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The release's privacy accounting, when it carries one.
    pub fn meta(&self) -> Option<&PrivacyMeta> {
        self.meta.as_ref()
    }

    /// Derives one dimension's sparse support, uncached: the
    /// `(stride-premultiplied offset, weight)` pairs of the interval-sum
    /// functional over `[lo, hi]` on dimension `dim`, in this core's
    /// stored layout, plus the per-dimension variance factor (an
    /// O(|support|) fold piggybacking on the derivation — no second
    /// derivation, so cached supports carry their error accounting for
    /// free). This is the derivation every cache memoizes, and the one a
    /// compiled plan interns; it is pure, so two threads deriving the
    /// same triple produce identical supports.
    pub fn derive_support(&self, dim: usize, lo: usize, hi: usize) -> Result<SharedSupport> {
        DimSupport::derive(self, dim, lo, hi).map(Arc::new)
    }

    /// Resolves a query to its per-dimension bounds and derives every
    /// support uncached — the cache-free answering path, and the
    /// reference the cached paths must equal bitwise.
    pub fn supports_uncached(&self, q: &RangeQuery) -> Result<Vec<SharedSupport>> {
        let (lo, hi) = q.bounds(&self.schema)?;
        (0..self.schema.arity())
            .map(|dim| self.derive_support(dim, lo[dim], hi[dim]))
            .collect()
    }

    /// Answers one query with no cache involved: derive supports, sparse
    /// dot. The cached path and compiled plans run the same derivation
    /// and kernel, so they equal this bit for bit.
    pub fn answer_uncached(&self, q: &RangeQuery) -> Result<f64> {
        self.dot(&self.supports_uncached(q)?)
    }

    /// [`answer_uncached`](Self::answer_uncached) with error accounting:
    /// the same derive-supports-then-dot, annotated with the exact noise
    /// std-dev from the supports' variance factors. Errors with
    /// [`QueryError::MissingPrivacyMeta`] when the core was built without
    /// accounting.
    pub fn answer_with_error_uncached(&self, q: &RangeQuery) -> Result<AnnotatedAnswer> {
        let supports = self.supports_uncached(q)?;
        self.annotate(self.dot(&supports)?, &supports)
    }

    /// The sparse tensor-product dot of already-derived per-dimension
    /// supports against the stored coefficients:
    /// `Σ ∏ᵢ wᵢ[kᵢ] · C[k₁,…,k_d]`, reading `∏ᵢ |supportᵢ|` coefficients.
    ///
    /// Errors with [`QueryError::WrongArity`] when the number of supports
    /// is not the schema's arity, and with [`QueryError::ShapeMismatch`]
    /// when the `i`-th support was not derived on axis `i` of a core laid
    /// out like this one there: the same stride and the same transform (a
    /// support of a larger release, or of a core of the same dims whose
    /// axis is identity where this one's is Haar, answers another
    /// functional). The check is O(d), and supports derived on an
    /// earlier epoch of this release pass it. Matching transforms and
    /// strides keep every read in bounds.
    pub fn dot(&self, supports: &[SharedSupport]) -> Result<f64> {
        if supports.len() != self.schema.arity() {
            return Err(QueryError::WrongArity {
                expected: self.schema.arity(),
                got: supports.len(),
            });
        }
        if !supports
            .iter()
            .enumerate()
            .all(|(dim, s)| s.fits(self, dim))
        {
            return Err(QueryError::ShapeMismatch);
        }
        Ok(crate::kernel::tensor_dot(
            self.coeffs.as_slice(),
            supports,
            0,
            1.0,
        ))
    }

    /// Annotates an already-computed answer with its exact noise std-dev,
    /// read off the supports' precomputed per-dimension variance factors:
    /// `Var = 2λ²·∏ᵢ factorᵢ` (see `privelet::variance`). Pure arithmetic
    /// over d floats — no derivation, no coefficient reads.
    ///
    /// Errors with [`QueryError::MissingPrivacyMeta`] when the core was
    /// built without accounting ([`new`](Self::new)).
    pub(crate) fn annotate(
        &self,
        value: f64,
        supports: &[SharedSupport],
    ) -> Result<AnnotatedAnswer> {
        let meta = self.meta.as_ref().ok_or(QueryError::MissingPrivacyMeta)?;
        let product: f64 = supports.iter().map(|s| s.variance_factor()).product();
        Ok(AnnotatedAnswer {
            value,
            std_dev: meta.query_variance(product).sqrt(),
        })
    }

    /// Compiles a workload against this release's schema, transform and
    /// stored layout, deriving each distinct `(dim, lo, hi)` support once
    /// into the plan's own pool. Compilation is cache-free: it neither
    /// reads nor fills a [`ConcurrentEngine`](crate::ConcurrentEngine)'s
    /// support cache. The returned plan is immutable and `Send + Sync`,
    /// so one compiled plan can be executed from many threads against
    /// one shared core, and against every later epoch of the release.
    pub fn plan(&self, queries: &[RangeQuery]) -> Result<QueryPlan> {
        QueryPlan::compile(self, queries)
    }

    /// Executes a compiled plan against the stored coefficients. Takes
    /// `&self`, so any number of threads can execute the same plan
    /// against the same core concurrently. Errors with
    /// [`QueryError::ShapeMismatch`] when this core's per-axis transforms
    /// differ from those of the core the plan was compiled on (the check
    /// [`advance_epoch`](Self::advance_epoch) makes), so a plan runs only
    /// within its own release series.
    pub fn execute_plan(&self, plan: &QueryPlan) -> Result<Vec<f64>> {
        plan.execute(self)
    }

    /// [`execute_plan`](Self::execute_plan) with error accounting: one
    /// [`AnnotatedAnswer`] per compiled query. The variance factors were
    /// interned into the plan at compile time (one per distinct
    /// `(dim, lo, hi)` support), so annotation performs **zero**
    /// additional support derivations — it is the same sparse dots plus
    /// one multiply-and-sqrt per distinct query.
    ///
    /// Errors with [`QueryError::MissingPrivacyMeta`] when the core was
    /// built without accounting, and like
    /// [`execute_plan`](Self::execute_plan) on a core of another lineage.
    pub fn execute_plan_with_error(&self, plan: &QueryPlan) -> Result<Vec<AnnotatedAnswer>> {
        let meta = self.meta.as_ref().ok_or(QueryError::MissingPrivacyMeta)?;
        plan.execute_annotated(self, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet::mechanism::{publish_coefficients, PriveletConfig};
    use privelet_data::medical::medical_example;
    use privelet_data::FrequencyMatrix;

    fn medical_core() -> ReleaseCore {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 23)).unwrap();
        ReleaseCore::from_output(&out).unwrap()
    }

    #[test]
    fn core_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReleaseCore>();
        assert_send_sync::<Arc<ReleaseCore>>();
    }

    #[test]
    fn uncached_path_matches_plan_execution() {
        let core = medical_core();
        let queries = vec![RangeQuery::all(2)];
        let plan = core.plan(&queries).unwrap();
        let batch = core.execute_plan(&plan).unwrap();
        // Plan vs uncached online dot: one derivation, one kernel.
        let online = core.answer_uncached(&queries[0]).unwrap();
        assert_eq!(batch[0].to_bits(), online.to_bits());
        assert_eq!(batch[0].to_bits(), core.total().to_bits());
    }

    #[test]
    fn rejects_mismatched_release_metadata() {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 7)).unwrap();
        let wrong = NdMatrix::zeros(&[4, 3]).unwrap();
        assert_eq!(
            ReleaseCore::new(out.schema.clone(), out.transform.clone(), &wrong).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }

    #[test]
    fn meta_gates_error_accounting() {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
        let q = RangeQuery::all(2);

        // A bare core answers but refuses to annotate.
        let bare =
            ReleaseCore::new(out.schema.clone(), out.transform.clone(), &out.coefficients).unwrap();
        assert!(bare.meta().is_none());
        assert_eq!(
            bare.answer_with_error_uncached(&q).unwrap_err(),
            QueryError::MissingPrivacyMeta
        );
        let plan = bare.plan(std::slice::from_ref(&q)).unwrap();
        assert_eq!(
            bare.execute_plan_with_error(&plan).unwrap_err(),
            QueryError::MissingPrivacyMeta
        );

        // The publisher-built core annotates; the value is the identical
        // dot and the std-dev matches the variance module.
        let core = ReleaseCore::from_output(&out).unwrap();
        assert_eq!(core.meta(), Some(&out.meta));
        let annotated = core.answer_with_error_uncached(&q).unwrap();
        assert_eq!(annotated.value, core.answer_uncached(&q).unwrap());
        let want = privelet::variance::exact_query_variance(
            core.transform(),
            out.meta.lambda,
            &[0, 0],
            &[4, 1],
        )
        .unwrap();
        assert!((annotated.variance() - want).abs() <= 1e-9 * want);
        // Plan-path annotation equals the uncached path bit for bit.
        let batch = core.execute_plan_with_error(&plan).unwrap();
        assert_eq!(batch[0].value.to_bits(), annotated.value.to_bits());
        assert_eq!(batch[0].std_dev.to_bits(), annotated.std_dev.to_bits());
    }

    /// An 8×8 pure-Haar release and a coefficient index the total's
    /// support does not read.
    fn grid_release_and_index_off_the_total() -> (CoefficientOutput, usize) {
        use privelet_data::schema::{Attribute, Schema};
        let schema =
            Schema::new(vec![Attribute::ordinal("x", 8), Attribute::ordinal("y", 8)]).unwrap();
        let data: Vec<f64> = (0..64).map(|i| (i % 5) as f64).collect();
        let fm = FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&[8, 8], data).unwrap())
            .unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 3)).unwrap();
        let core = ReleaseCore::from_output(&out).unwrap();
        let total = core.supports_uncached(&RangeQuery::all(2)).unwrap();
        let read: Vec<usize> = total[0]
            .terms()
            .iter()
            .flat_map(|&(i, _)| total[1].terms().iter().map(move |&(j, _)| i + j))
            .collect();
        let index = (0..64).find(|k| !read.contains(k)).unwrap();
        (out, index)
    }

    /// A bare one-axis core over `attr` (identity when `sa`, else its
    /// Haar or nominal transform), built from `coeffs` as published.
    fn one_axis_core(
        attr: privelet_data::schema::Attribute,
        sa: bool,
        coeffs: Vec<f64>,
    ) -> Result<ReleaseCore> {
        let schema = Schema::new(vec![attr]).unwrap();
        let sa = if sa { vec![0] } else { vec![] };
        let hn = HnTransform::for_schema(&schema, &sa.into_iter().collect()).unwrap();
        let m = NdMatrix::from_vec(&hn.output_dims(), coeffs).unwrap();
        ReleaseCore::new(schema, hn, &m)
    }

    #[test]
    fn identity_supports_read_two_prefix_entries() {
        use privelet::transform::{IdentityTransform, Transform1d};
        use privelet_data::schema::Attribute;

        // Cells 1..=6 on one SA axis: stored as prefix sums 1, 3, 6, …
        let cells: Vec<f64> = (1..=6).map(f64::from).collect();
        let core = one_axis_core(Attribute::ordinal("a", 6), true, cells.clone()).unwrap();
        assert_eq!(
            core.coefficients().as_slice(),
            &[1.0, 3.0, 6.0, 10.0, 15.0, 21.0]
        );
        assert_eq!(core.total(), 21.0);
        let identity = IdentityTransform::new(6);
        for lo in 0..6 {
            for hi in lo..6 {
                let s = core.derive_support(0, lo, hi).unwrap();
                assert_eq!(s.len(), 1 + usize::from(lo > 0));
                assert!(s.terms().windows(2).all(|p| p[0].0 < p[1].0));
                // The factor describes the noise on the covered cells.
                assert_eq!(
                    s.variance_factor().to_bits(),
                    identity.query_variance_factor(lo, hi).to_bits()
                );
                let q = RangeQuery::new(vec![crate::Predicate::Range { lo, hi }]);
                let want: f64 = cells[lo..=hi].iter().sum();
                assert_eq!(core.answer_uncached(&q).unwrap(), want);
            }
        }
        // Bounds are still validated before anything is built.
        assert_eq!(
            core.derive_support(0, 2, 6).unwrap_err(),
            QueryError::BadInterval {
                attr: 0,
                lo: 2,
                hi: 6,
                size: 6
            }
        );
    }

    #[test]
    fn refuses_prefix_sums_and_refinements_that_overflow() {
        use privelet_data::schema::Attribute;

        // Finite input, stored [MAX, +∞]: serving it would answer +∞ for
        // the cell [1, 1] instead of MAX.
        let max = f64::MAX;
        assert_eq!(
            one_axis_core(Attribute::ordinal("a", 2), true, vec![max, max]).unwrap_err(),
            QueryError::NonFiniteCoefficient { index: 1 }
        );
        // The same values on a Haar axis are stored as given.
        assert!(one_axis_core(Attribute::ordinal("a", 2), false, vec![max, max]).is_ok());
        // A finite nominal sibling group whose mean subtraction overflows.
        let h = privelet_hierarchy::builder::three_level(4, 2).unwrap();
        let nodes = h.node_count();
        let mut coeffs = vec![0.0; nodes];
        coeffs[1] = max;
        coeffs[2] = max;
        let err = one_axis_core(Attribute::nominal("n", h), false, coeffs).unwrap_err();
        assert!(
            matches!(err, QueryError::NonFiniteCoefficient { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn dot_refuses_supports_of_another_shape() {
        use privelet_data::schema::Attribute;

        let core = medical_core();
        let supports = core.supports_uncached(&RangeQuery::all(2)).unwrap();
        assert_eq!(
            core.dot(&supports).unwrap().to_bits(),
            core.total().to_bits()
        );
        // Too few and too many supports.
        for n in [0, 1, 3] {
            let picked: Vec<SharedSupport> = supports.iter().cycle().take(n).cloned().collect();
            assert_eq!(
                core.dot(&picked).unwrap_err(),
                QueryError::WrongArity {
                    expected: 2,
                    got: n
                }
            );
        }
        // A support derived from a larger release reaches past this
        // core's coefficients: refused, not a slice-index panic.
        let wide = one_axis_core(Attribute::ordinal("x", 64), false, vec![0.0; 64]).unwrap();
        let far = wide.derive_support(0, 61, 61).unwrap();
        assert!(far.terms().last().unwrap().0 >= core.coefficients().len());
        assert_eq!(
            core.dot(&[far, supports[1].clone()]).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }

    /// A 4 × 8 ordinal table published with SA `sa` under `seed`. Axis 0
    /// stores 4 coefficients whether it is identity (SA) or Haar, so the
    /// pure and the SA {0} releases share their coefficient dims.
    fn four_by_eight(sa: &[usize], seed: u64) -> CoefficientOutput {
        use privelet_data::schema::{Attribute, Schema};
        let schema =
            Schema::new(vec![Attribute::ordinal("a", 4), Attribute::ordinal("b", 8)]).unwrap();
        let cells = (0..32).map(|i| ((i * 7) % 5) as f64).collect();
        let fm = FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&[4, 8], cells).unwrap())
            .unwrap();
        let cfg = PriveletConfig::plus(1.0, sa.iter().copied().collect(), seed);
        publish_coefficients(&fm, &cfg).unwrap()
    }

    fn four_by_eight_queries() -> Vec<RangeQuery> {
        use crate::Predicate::{All, Range};
        vec![
            RangeQuery::new(vec![Range { lo: 1, hi: 2 }, All]),
            RangeQuery::new(vec![Range { lo: 0, hi: 3 }, Range { lo: 2, hi: 6 }]),
            RangeQuery::all(2),
        ]
    }

    #[test]
    fn plans_run_only_on_a_core_of_their_own_lineage() {
        let plus = ReleaseCore::from_output(&four_by_eight(&[0], 5)).unwrap();
        let pure = ReleaseCore::from_output(&four_by_eight(&[], 5)).unwrap();
        assert_eq!(plus.coefficients().dims(), pure.coefficients().dims());
        let queries = four_by_eight_queries();
        let plan = plus.plan(&queries).unwrap();
        // Same dims, other layout: the plan's supports would read the pure
        // core's Haar coefficients as prefix sums.
        assert_eq!(
            pure.execute_plan(&plan).unwrap_err(),
            QueryError::ShapeMismatch
        );
        assert_eq!(
            pure.execute_plan_with_error(&plan).unwrap_err(),
            QueryError::ShapeMismatch
        );
        for (q, got) in queries.iter().zip(plus.execute_plan(&plan).unwrap()) {
            assert_eq!(got.to_bits(), plus.answer_uncached(q).unwrap().to_bits());
        }
    }

    #[test]
    fn dot_refuses_supports_of_another_lineage() {
        let plus = ReleaseCore::from_output(&four_by_eight(&[0], 5)).unwrap();
        let pure = ReleaseCore::from_output(&four_by_eight(&[], 5)).unwrap();
        assert_eq!(plus.coefficients().dims(), pure.coefficients().dims());
        for q in four_by_eight_queries() {
            // Same dims, other layout: axis 0's prefix-sum support would
            // read the pure core's Haar coefficients.
            let supports = plus.supports_uncached(&q).unwrap();
            assert_eq!(pure.dot(&supports).unwrap_err(), QueryError::ShapeMismatch);
            // The pure core's own supports, in the wrong axis order.
            let mut swapped = pure.supports_uncached(&q).unwrap();
            swapped.reverse();
            assert_eq!(pure.dot(&swapped).unwrap_err(), QueryError::ShapeMismatch);
            // Supports carried across an epoch roll still dot, and equal
            // the rolled core's own answer bit for bit.
            let rolled = plus.advance_epoch(&four_by_eight(&[0], 6)).unwrap();
            assert_eq!(
                rolled.dot(&supports).unwrap().to_bits(),
                rolled.answer_uncached(&q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn a_plan_runs_on_every_epoch_of_its_series() {
        let core = ReleaseCore::from_output(&four_by_eight(&[0], 5)).unwrap();
        let queries = four_by_eight_queries();
        let plan = core.plan(&queries).unwrap();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for seed in [6, 7] {
            let rolled = core.advance_epoch(&four_by_eight(&[0], seed)).unwrap();
            let fresh = rolled.plan(&queries).unwrap();
            assert_eq!(plan, fresh);
            assert_eq!(
                bits(rolled.execute_plan(&plan).unwrap()),
                bits(rolled.execute_plan(&fresh).unwrap())
            );
            let old = rolled.execute_plan_with_error(&plan).unwrap();
            assert_eq!(old, rolled.execute_plan_with_error(&fresh).unwrap());
        }
    }

    #[test]
    fn refuses_non_finite_coefficients() {
        let (out, index) = grid_release_and_index_off_the_total();
        // A NaN the total never reads would still poison every query
        // whose support does: refused at build, not served as NaN.
        let mut poisoned = out.clone();
        poisoned.coefficients.as_mut_slice()[index] = f64::NAN;
        assert_eq!(
            ReleaseCore::from_output(&poisoned).unwrap_err(),
            QueryError::NonFiniteCoefficient { index }
        );
        // ±∞ anywhere, on every constructor.
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut noisy = out.coefficients.clone();
            noisy.as_mut_slice()[0] = bad;
            let err = QueryError::NonFiniteCoefficient { index: 0 };
            assert_eq!(
                ReleaseCore::new(out.schema.clone(), out.transform.clone(), &noisy).unwrap_err(),
                err
            );
            assert_eq!(
                ReleaseCore::with_meta(out.schema.clone(), out.transform.clone(), &noisy, out.meta)
                    .unwrap_err(),
                err
            );
        }
        assert!(QueryError::NonFiniteCoefficient { index }
            .to_string()
            .contains("not finite"));
    }
}
