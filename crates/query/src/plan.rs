//! Compiled batch plans: intern supports once, answer as sparse dots
//! over one contiguous arena.
//!
//! `answer`ing a workload query by query re-derives each dimension's
//! sparse support even when a thousand-query OLAP batch repeats the same
//! predicate intervals. [`ReleaseCore::plan`] walks the batch once and
//! interns at two levels: repeated **whole queries** (a dashboard
//! refreshed every tick) collapse onto one span list and one sparse dot
//! per execution, and across distinct queries each distinct
//! `(dim, lo, hi)` support is derived exactly once into a shared pool
//! of `(offset, weight)` pairs — the same derivation, and the same
//! stride-premultiplied layout, as the online path's
//! [`ReleaseCore::derive_support`]. Executing the plan
//! ([`ReleaseCore::execute_plan`]) is then the online path's sparse
//! tensor-product dot per distinct query, over spans of one contiguous
//! arena — no per-query allocation, hashing, or bounds re-validation —
//! so plan answers equal online answers bit for bit. The supports are in
//! the core's stored layout, so a plan is compiled and executed only
//! through a core.
//!
//! The plan is also the dedup ledger: [`support_requests`] counts the
//! `(query, dim)` pairs the batch asked for, [`distinct_supports`] the
//! derivations actually performed, and [`dedup_ratio`] the fraction
//! avoided. The acceptance contract — at most one derivation per
//! distinct triple — is asserted against these counters in
//! `tests/serving_engine.rs`.
//!
//! [`support_requests`]: QueryPlan::support_requests
//! [`distinct_supports`]: QueryPlan::distinct_supports
//! [`dedup_ratio`]: QueryPlan::dedup_ratio
//! [`ReleaseCore::plan`]: crate::ReleaseCore::plan
//! [`ReleaseCore::execute_plan`]: crate::ReleaseCore::execute_plan
//! [`ReleaseCore::derive_support`]: crate::ReleaseCore::derive_support

use crate::cache::DimSupport;
use crate::engine::AnnotatedAnswer;
use crate::kernel::tensor_dot;
use crate::range_query::RangeQuery;
use crate::release::ReleaseCore;
use crate::{QueryError, Result};
use privelet::PrivacyMeta;
use privelet_matrix::NdMatrix;
use std::collections::HashMap;

/// A batch of range-count queries compiled against one release core,
/// ready to execute against that core's stored coefficients.
///
/// Interning happens at two levels: repeated *whole queries* share one
/// span list and are evaluated once per execution (their answer fans
/// out), and distinct queries that repeat a per-dimension predicate
/// share the interned support.
///
/// The supports are in the core's stored layout (identity axes read
/// prefix sums), so a plan is compiled with [`ReleaseCore::plan`] and
/// executed with [`ReleaseCore::execute_plan`]; it has no public entry
/// point of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Coefficient dims the plan was compiled for (execution validates).
    coeff_dims: Vec<usize>,
    /// Arena of pooled supports: each one's [`DimSupport::terms`],
    /// back to back.
    arena: Vec<(usize, f64)>,
    /// Per pool entry: `(start, len)` of its slice of the arena.
    spans: Vec<(usize, usize)>,
    /// Per pool entry: the per-dimension variance factor
    /// `Σ_j u(j)²/W(j)²` of that support, folded once at compile time
    /// (one extra f64 per distinct `(dim, lo, hi)` — this is what makes
    /// error-annotated execution derivation-free).
    span_factors: Vec<f64>,
    /// Fixed-width span lists: `ndim` pool ids per **distinct** query.
    span_ids: Vec<u32>,
    /// Per input query: the distinct-query id it resolves to.
    query_ids: Vec<u32>,
    /// Execution order over distinct queries, sorted by the arena start
    /// of each query's leading span (see the schedule in `compile`).
    /// Results are stored by distinct-query id, so the order changes no
    /// float — it is pure memory locality.
    exec_order: Vec<u32>,
    ndim: usize,
    /// Coefficient reads per distinct query (`∏ᵢ |supportᵢ|`), for the
    /// cost accounting below.
    distinct_reads: Vec<usize>,
    /// Per distinct query: the product of its dimensions' variance
    /// factors, so `Var = 2λ²·product` needs no walk at execution time.
    distinct_factors: Vec<f64>,
    /// Sum over **all** input queries of their read cost (the per-query
    /// cost model, before whole-query dedup).
    support_sum: usize,
}

impl QueryPlan {
    /// Compiles a batch: validates every query against the core's
    /// schema, derives each distinct `(dim, lo, hi)` support exactly once
    /// (the derivation behind
    /// [`ReleaseCore::derive_support`](crate::ReleaseCore::derive_support)),
    /// and flattens the batch into pool references.
    ///
    /// Errors if any query fails validation (the per-query error, naming
    /// the offending attribute and bounds). The core validated its
    /// schema and transform against each other when it was built.
    pub(crate) fn compile(core: &ReleaseCore, queries: &[RangeQuery]) -> Result<QueryPlan> {
        let schema = core.schema();
        let ndim = schema.arity();
        let coeff_dims = core.coefficients().dims().to_vec();

        let mut pool: HashMap<(usize, usize, usize), u32> = HashMap::new();
        let mut query_pool: HashMap<&RangeQuery, u32> = HashMap::new();
        let mut arena = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut span_factors: Vec<f64> = Vec::new();
        let mut span_ids = Vec::new();
        let mut query_ids = Vec::with_capacity(queries.len());
        let mut distinct_reads: Vec<usize> = Vec::new();
        let mut distinct_factors: Vec<f64> = Vec::new();
        let mut support_sum = 0usize;

        for q in queries {
            // First interning level: a repeated whole query maps to the
            // already-compiled span list without touching bounds again.
            if let Some(&qid) = query_pool.get(q) {
                query_ids.push(qid);
                support_sum += distinct_reads[qid as usize];
                continue;
            }
            let (lo, hi) = q.bounds(schema)?;
            let mut reads = 1usize;
            let mut factor_product = 1.0f64;
            for dim in 0..ndim {
                // Second interning level: a repeated per-dimension
                // predicate reuses the pooled support across queries.
                let key = (dim, lo[dim], hi[dim]);
                let id = match pool.get(&key) {
                    Some(&id) => id,
                    None => {
                        let support = DimSupport::derive(core, dim, lo[dim], hi[dim])?;
                        let id = spans.len() as u32;
                        spans.push((arena.len(), support.len()));
                        span_factors.push(support.variance_factor());
                        arena.extend_from_slice(support.terms());
                        pool.insert(key, id);
                        id
                    }
                };
                reads *= spans[id as usize].1;
                factor_product *= span_factors[id as usize];
                span_ids.push(id);
            }
            let qid = distinct_reads.len() as u32;
            distinct_reads.push(reads);
            distinct_factors.push(factor_product);
            support_sum += reads;
            query_pool.insert(q, qid);
            query_ids.push(qid);
        }

        // Locality schedule: run distinct queries in order of their
        // leading span's arena position, tie-broken by id for
        // determinism. The arena is the largest structure an execution
        // streams, so the schedule must keep its walk
        // forward-sequential — span-start order does, and it
        // additionally groups queries that share a leading support so
        // their deep coefficient lines are still hot when the next dot
        // gathers them. (Sorting by *coefficient* address instead was
        // measured to lose ~20%: it randomizes the arena walk, which
        // costs more than the gather locality it buys.) Answers land in
        // a by-id scratch vector, so this permutes only the memory
        // access pattern, never any summation.
        let mut exec_order: Vec<u32> = (0..distinct_reads.len() as u32).collect();
        exec_order.sort_by_key(|&qid| (spans[span_ids[qid as usize * ndim] as usize].0, qid));

        Ok(QueryPlan {
            coeff_dims,
            arena,
            spans,
            span_factors,
            span_ids,
            query_ids,
            exec_order,
            ndim,
            distinct_reads,
            distinct_factors,
            support_sum,
        })
    }

    /// Executes the plan against its core's stored coefficients,
    /// returning one answer per compiled query. The allocations are the
    /// returned vector and one `O(distinct queries)` scratch vector:
    /// each **distinct** query's sparse dot runs once, and repeated
    /// queries fan the memoized answer out in input order.
    pub(crate) fn execute(&self, coeffs: &NdMatrix) -> Result<Vec<f64>> {
        if coeffs.dims() != self.coeff_dims {
            return Err(QueryError::ShapeMismatch);
        }
        let data = coeffs.as_slice();
        // Distinct dots run in the locality schedule computed at compile
        // time and land by id, so the fan-out below (and every float)
        // is independent of the schedule. One reusable buffer holds the
        // current query's borrowed arena spans.
        let mut distinct = vec![0.0f64; self.distinct_reads.len()];
        let mut supports: Vec<&[(usize, f64)]> = Vec::with_capacity(self.ndim);
        for &qid in &self.exec_order {
            let q = qid as usize;
            supports.clear();
            supports.extend(
                self.span_ids[q * self.ndim..(q + 1) * self.ndim]
                    .iter()
                    .map(|&id| {
                        let (start, len) = self.spans[id as usize];
                        &self.arena[start..start + len]
                    }),
            );
            distinct[q] = tensor_dot(data, &supports, 0, 1.0);
        }
        Ok(self
            .query_ids
            .iter()
            .map(|&qid| distinct[qid as usize])
            .collect())
    }

    /// [`execute`](Self::execute) with error accounting: one
    /// [`AnnotatedAnswer`] per compiled query, its std-dev read off the
    /// variance factors interned at compile time
    /// (`Var = 2λ²·∏ᵢ factorᵢ` with `λ` from `meta`). Performs the same
    /// sparse dots as `execute` (bit-identical values) plus one
    /// multiply-and-sqrt per **distinct** query — zero additional support
    /// derivations, by construction.
    pub(crate) fn execute_annotated(
        &self,
        coeffs: &NdMatrix,
        meta: &PrivacyMeta,
    ) -> Result<Vec<AnnotatedAnswer>> {
        let values = self.execute(coeffs)?;
        let distinct_stds: Vec<f64> = self
            .distinct_factors
            .iter()
            .map(|&product| meta.query_variance(product).sqrt())
            .collect();
        Ok(values
            .into_iter()
            .zip(&self.query_ids)
            .map(|(value, &qid)| AnnotatedAnswer {
                value,
                std_dev: distinct_stds[qid as usize],
            })
            .collect())
    }

    /// The product of per-dimension variance factors of input query `i`
    /// (`Var = 2λ²·` this), read from the compile-time interned factors;
    /// `None` when `i >= len()`.
    pub fn variance_factor(&self, i: usize) -> Option<f64> {
        let qid = *self.query_ids.get(i)?;
        Some(self.distinct_factors[qid as usize])
    }

    /// Number of compiled queries.
    pub fn len(&self) -> usize {
        self.query_ids.len()
    }

    /// Whether the plan holds no queries.
    pub fn is_empty(&self) -> bool {
        self.query_ids.is_empty()
    }

    /// Number of dimensions per query.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// `(query, dim)` support requests the batch made (= `len · ndim`).
    pub fn support_requests(&self) -> usize {
        self.query_ids.len() * self.ndim
    }

    /// Distinct `(dim, lo, hi)` supports actually derived — the pool
    /// size, and by construction the exact number of
    /// `query_weights` derivations compilation performed.
    pub fn distinct_supports(&self) -> usize {
        self.spans.len()
    }

    /// Fraction of support derivations the pool avoided:
    /// `1 − distinct/requests` (0.0 for an empty plan — nothing was
    /// deduplicated because nothing was requested).
    pub fn dedup_ratio(&self) -> f64 {
        let requests = self.support_requests();
        if requests == 0 {
            0.0
        } else {
            1.0 - self.distinct_supports() as f64 / requests as f64
        }
    }

    /// Total coefficient reads one execution performs: `Σ ∏ᵢ |supportᵢ|`
    /// over the **distinct** queries (repeats reuse the memoized dot).
    pub fn total_reads(&self) -> usize {
        self.distinct_reads.iter().sum()
    }

    /// Mean coefficient reads per query under the per-query cost model
    /// (`∏ᵢ |supportᵢ|` averaged over **all** input queries, before
    /// whole-query dedup; 0.0 for an empty plan).
    pub fn mean_support(&self) -> f64 {
        if self.query_ids.is_empty() {
            0.0
        } else {
            self.support_sum as f64 / self.query_ids.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use privelet::transform::HnTransform;
    use privelet_data::medical::medical_example;
    use privelet_data::schema::{Attribute, Schema};
    use privelet_data::FrequencyMatrix;
    use std::collections::BTreeSet;

    /// The medical table and a bare core over its exact forward
    /// coefficients (pure Privelet: Haar × nominal).
    fn medical() -> (FrequencyMatrix, ReleaseCore) {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let core = ReleaseCore::new(fm.schema().clone(), hn, &coeffs).unwrap();
        (fm, core)
    }

    fn exact(fm: &FrequencyMatrix, q: &RangeQuery) -> f64 {
        let (lo, hi) = q.bounds(fm.schema()).unwrap();
        privelet_matrix::rect_sum_naive(fm.matrix(), &lo, &hi).unwrap()
    }

    #[test]
    fn interns_each_distinct_triple_once() {
        let (_, core) = medical();
        let q1 = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        let q2 = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        let q3 = RangeQuery::new(vec![Predicate::Range { lo: 1, hi: 4 }, Predicate::All]);
        let plan = core.plan(&[q1.clone(), q2, q3, q1.clone()]).unwrap();
        assert_eq!(plan.len(), 4);
        // q1, q2 and the trailing q1 are the same query: one span list,
        // one dot per execution.
        assert_eq!(plan.distinct_reads.len(), 2);
        assert_eq!(plan.support_requests(), 8);
        // Distinct triples: (0,0,2), (0,1,4), (1,0,1) — two age intervals
        // and the shared unconstrained diabetes interval.
        assert_eq!(plan.distinct_supports(), 3);
        assert!((plan.dedup_ratio() - (1.0 - 3.0 / 8.0)).abs() < 1e-12);
        // Execution reads per distinct query; the cost model averages
        // over all of them.
        assert!(plan.total_reads() >= plan.distinct_reads.len());
        assert!(plan.mean_support() >= 1.0);
        assert!(plan.arena.len() >= plan.distinct_supports());
    }

    #[test]
    fn executes_to_exact_answers() {
        let (fm, core) = medical();
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
        let plan = core.plan(&queries).unwrap();
        let got = core.execute_plan(&plan).unwrap();
        for (q, a) in queries.iter().zip(&got) {
            let want = exact(&fm, q);
            assert!((a - want).abs() < 1e-9, "{a} vs {want}");
        }
        // A second execution is the same answers, bit for bit.
        let again = core.execute_plan(&plan).unwrap();
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&got));
    }

    /// Every interned span is exactly the online path's support for its
    /// `(dim, lo, hi)` key — the same pairs bit for bit, the same
    /// variance factor, ascending offsets — on all three kernels.
    #[test]
    fn interned_spans_are_the_online_supports() {
        let h = privelet_hierarchy::builder::three_level(6, 2).unwrap();
        let schema = Schema::new(vec![
            Attribute::ordinal("x", 12),
            Attribute::nominal("n", h.clone()),
            Attribute::ordinal("a", 5),
        ])
        .unwrap();
        // Haar × nominal × identity (attribute 2 in SA).
        let hn = HnTransform::for_schema(&schema, &BTreeSet::from([2])).unwrap();
        let zeros = NdMatrix::zeros(&hn.output_dims()).unwrap();
        let core = ReleaseCore::new(schema.clone(), hn, &zeros).unwrap();
        let xs = [(0, 11), (3, 7), (5, 5)];
        let nodes = [h.root(), h.leaf_node(2), h.parent(h.leaf_node(4)).unwrap()];
        let sas = [(0, 4), (1, 3)];
        let mut queries = Vec::new();
        for &(xlo, xhi) in &xs {
            for &node in &nodes {
                for &(alo, ahi) in &sas {
                    queries.push(RangeQuery::new(vec![
                        Predicate::Range { lo: xlo, hi: xhi },
                        Predicate::Node { node },
                        Predicate::Range { lo: alo, hi: ahi },
                    ]));
                }
            }
        }
        let plan = core.plan(&queries).unwrap();
        let bits = |pairs: &[(usize, f64)]| -> Vec<(usize, u64)> {
            pairs.iter().map(|&(k, w)| (k, w.to_bits())).collect()
        };
        let mut checked = BTreeSet::new();
        for (q, &qid) in queries.iter().zip(&plan.query_ids) {
            let (lo, hi) = q.bounds(&schema).unwrap();
            for dim in 0..3 {
                let id = plan.span_ids[qid as usize * 3 + dim] as usize;
                let (start, len) = plan.spans[id];
                let span = &plan.arena[start..start + len];
                let online = core.derive_support(dim, lo[dim], hi[dim]).unwrap();
                assert_eq!(
                    bits(span),
                    bits(online.terms()),
                    "dim {dim} [{lo:?}, {hi:?}]"
                );
                assert_eq!(
                    plan.span_factors[id].to_bits(),
                    online.variance_factor().to_bits()
                );
                assert!(span.windows(2).all(|p| p[0].0 < p[1].0), "ascending");
                checked.insert(id);
            }
        }
        assert_eq!(checked.len(), plan.distinct_supports());
        assert_eq!(plan.distinct_supports(), xs.len() + nodes.len() + sas.len());
    }

    #[test]
    fn annotated_execution_matches_plain_execution_bitwise() {
        use privelet::variance::exact_query_variance;

        let (fm, bare) = medical();
        let hn = bare.transform().clone();
        let meta = PrivacyMeta::for_transform(&hn, 1.0).unwrap();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let core = ReleaseCore::with_meta(fm.schema().clone(), hn.clone(), &coeffs, meta).unwrap();
        let q1 = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        let queries = vec![RangeQuery::all(2), q1.clone(), q1.clone()];
        let plan = core.plan(&queries).unwrap();

        let plain = core.execute_plan(&plan).unwrap();
        let annotated = core.execute_plan_with_error(&plan).unwrap();
        assert_eq!(annotated.len(), plain.len());
        for (i, (a, &v)) in annotated.iter().zip(&plain).enumerate() {
            // Identical dots: the annotation never perturbs the value.
            assert_eq!(a.value, v);
            assert!(a.std_dev > 0.0);
            // The interned factors reproduce the variance module exactly.
            let (lo, hi) = queries[i].bounds(fm.schema()).unwrap();
            let want = exact_query_variance(&hn, meta.lambda, &lo, &hi).unwrap();
            assert!(
                (a.variance() - want).abs() <= 1e-9 * want,
                "query {i}: {} vs {want}",
                a.variance()
            );
            let factor = plan.variance_factor(i).unwrap();
            assert!((factor - want / (2.0 * meta.lambda * meta.lambda)).abs() < 1e-9);
        }
        // Out of range is `None`, not a panic.
        assert_eq!(plan.variance_factor(plan.len()), None);
        assert_eq!(plan.variance_factor(usize::MAX), None);
        // Repeated whole queries share one interned std-dev.
        assert_eq!(annotated[1], annotated[2]);

        // Empty plans annotate to an empty batch.
        let empty = core.plan(&[]).unwrap();
        assert_eq!(core.execute_plan_with_error(&empty).unwrap(), vec![]);
        assert_eq!(empty.variance_factor(0), None);
    }

    #[test]
    fn empty_plan_is_well_defined() {
        // Regression: every diagnostic that divides by the query or
        // request count must return a well-defined 0-value on an empty
        // workload instead of NaN/∞ — serving tiers feed these straight
        // into reports.
        let (_, core) = medical();
        let plan = core.plan(&[]).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(core.execute_plan(&plan).unwrap(), Vec::<f64>::new());
        assert_eq!(plan.support_requests(), 0);
        assert_eq!(plan.distinct_supports(), 0);
        assert_eq!(plan.distinct_reads.len(), 0);
        assert_eq!(plan.total_reads(), 0);
        assert_eq!(plan.arena.len(), 0);
        // The two ratio diagnostics are the division hazards.
        assert_eq!(plan.dedup_ratio(), 0.0);
        assert!(plan.dedup_ratio().is_finite());
        assert_eq!(plan.mean_support(), 0.0);
        assert!(plan.mean_support().is_finite());
        // An empty plan still validates the coefficient shape.
        let wrong = NdMatrix::zeros(&[2, 2]).unwrap();
        assert_eq!(plan.execute(&wrong).unwrap_err(), QueryError::ShapeMismatch);
    }

    #[test]
    fn rejects_bad_queries_and_shapes() {
        let (_, core) = medical();
        // Invalid interval: the error names the attribute and bounds.
        let bad = RangeQuery::new(vec![Predicate::Range { lo: 9, hi: 9 }, Predicate::All]);
        assert_eq!(
            core.plan(&[bad]).unwrap_err(),
            QueryError::BadInterval {
                attr: 0,
                lo: 9,
                hi: 9,
                size: 5
            }
        );
        // Executing against wrongly shaped coefficients, directly and
        // through a core of another shape.
        let plan = core.plan(&[RangeQuery::all(2)]).unwrap();
        let wrong = NdMatrix::zeros(&[4, 3]).unwrap();
        assert_eq!(plan.execute(&wrong).unwrap_err(), QueryError::ShapeMismatch);
        let other =
            Schema::new(vec![Attribute::ordinal("x", 3), Attribute::ordinal("y", 2)]).unwrap();
        let other_hn = HnTransform::for_schema(&other, &BTreeSet::new()).unwrap();
        let zeros = NdMatrix::zeros(&other_hn.output_dims()).unwrap();
        let other_core = ReleaseCore::new(other, other_hn, &zeros).unwrap();
        assert_eq!(
            other_core.execute_plan(&plan).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }
}
