//! Error-accounting contracts across the whole serving stack.
//!
//! Three tiers of guarantees:
//!
//! 1. **Sparse == dense.** The sparse per-dimension variance factors
//!    (`Transform1d::support_variance_factor`, the production path)
//!    agree with the retained dense basis-vector oracle to 1e-9 on
//!    random 1–3-dimensional mixed Haar/nominal/identity schemas.
//! 2. **Zero extra derivations.** `answer_with_error` performs no support
//!    derivations beyond what plain answering does — an annotated engine's
//!    cache counters equal those of a plain twin over the same core and
//!    queries — and a compiled plan derives exactly the ground-truth
//!    distinct triples and annotates without touching the cache.
//! 3. **Calibration.** Across many publishes, the z-scores
//!    `(noisy − exact)/predicted_std` have mean ≈ 0 and variance ≈ 1,
//!    Chebyshev intervals clear their confidence level, and a
//!    single-Laplace query's |z| has the Laplace median — the predicted
//!    std-dev is the real one, not an estimate. Seed count scales with
//!    `PRIVELET_STRESS_ITERS` (CI raises it under `--release`).

mod common;

use common::{data_matrix, distinct_triples, schema_strategy, stress_iters, workload};
use privelet_repro::core::mechanism::{publish_coefficients, PriveletConfig};
use privelet_repro::core::transform::HnTransform;
use privelet_repro::core::variance::{
    dense_dim_variance_factor, dim_variance_factor, exact_query_variance,
};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::eval::calibration_check;
use privelet_repro::eval::ExactEvaluate;
use privelet_repro::noise::RunningStats;
use privelet_repro::query::{ConcurrentEngine, Predicate, RangeQuery, ReleaseCore};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sparse variance path (support fold + refinement adjoint)
    /// equals the dense refine-then-invert oracle to 1e-9, per dimension
    /// and per whole query, on random mixed schemas.
    #[test]
    fn sparse_variance_matches_dense_oracle(
        (schema, sa) in schema_strategy(),
        wl_seed in any::<u64>(),
    ) {
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let lambda = 3.7f64;
        for q in workload(&schema, wl_seed) {
            let (lo, hi) = q.bounds(&schema).unwrap();
            let mut dense_product = 2.0 * lambda * lambda;
            for axis in 0..schema.arity() {
                let sparse = dim_variance_factor(&hn, axis, lo[axis], hi[axis]).unwrap();
                let dense = dense_dim_variance_factor(&hn, axis, lo[axis], hi[axis]).unwrap();
                prop_assert!(
                    (sparse - dense).abs() <= 1e-9 * dense.abs().max(1.0),
                    "axis {axis} [{}, {}]: sparse {sparse} vs dense {dense}",
                    lo[axis], hi[axis]
                );
                dense_product *= dense;
            }
            let sparse_var = exact_query_variance(&hn, lambda, &lo, &hi).unwrap();
            prop_assert!(
                (sparse_var - dense_product).abs() <= 1e-9 * dense_product.abs().max(1.0),
                "query variance: sparse {sparse_var} vs dense {dense_product}"
            );
        }
    }

    /// The engine's annotated answer carries the exact variance the
    /// variance module computes, and a value bit-identical to its plain
    /// answer; the annotation is bit-identical to the core's cache-free
    /// reference.
    #[test]
    fn annotated_answers_reproduce_the_variance_module(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        noise_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let cfg = PriveletConfig::plus(1.0, sa, noise_seed);
        let release = publish_coefficients(&fm, &cfg).unwrap();
        let engine = ConcurrentEngine::from_output(&release).unwrap();

        // A workload slice keeps the proptest cheap; the full workload
        // is exercised by the counter test below.
        for q in workload(&schema, wl_seed).into_iter().take(6) {
            let (lo, hi) = q.bounds(&schema).unwrap();
            let want =
                exact_query_variance(&release.transform, release.meta.lambda, &lo, &hi).unwrap();
            let a = engine.answer_with_error(&q).unwrap();
            prop_assert_eq!(a.value, engine.answer(&q).unwrap());
            prop_assert!(
                (a.variance() - want).abs() <= 1e-9 * want.max(1e-12),
                "variance {} vs {want}", a.variance()
            );
            let cached = engine.answer_with_error(&q).unwrap();
            let reference = engine.core().answer_with_error_uncached(&q).unwrap();
            prop_assert_eq!(cached.value.to_bits(), reference.value.to_bits());
            prop_assert_eq!(cached.std_dev.to_bits(), reference.std_dev.to_bits());
        }
    }
}

/// The acceptance contract: error annotation adds no derivation. Plain
/// answering and annotated answering move the cache counters
/// identically, and annotated plan execution leaves them alone.
#[test]
fn error_annotation_adds_zero_support_derivations() {
    let schema = Schema::new(vec![
        Attribute::ordinal("a", 64),
        Attribute::ordinal("b", 16),
    ])
    .unwrap();
    let fm = data_matrix(&schema, 7);
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 13)).unwrap();
    let queries = workload(&schema, 99);
    let distinct = distinct_triples(&schema, &queries);

    // Two engines over one core take the same key sequence, one
    // annotated and one plain. Cold and warm, the annotated engine's
    // cache moves exactly like the plain one's — the factor rides the
    // derivation instead of adding one — and the values agree bitwise.
    let coeff = ConcurrentEngine::from_output(&release).unwrap();
    let core = coeff.core();
    let twin = ConcurrentEngine::new(Arc::clone(core));
    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
    let mut plain = Vec::new();
    for pass in 1..=2u64 {
        let annotated: Vec<f64> = queries
            .iter()
            .map(|q| coeff.answer_with_error(q).unwrap().value)
            .collect();
        plain = queries.iter().map(|q| twin.answer(q).unwrap()).collect();
        assert_eq!(bits(&annotated), bits(&plain));
        let stats = coeff.cache_stats();
        assert_eq!(stats, twin.cache_stats(), "pass {pass}");
        assert_eq!(
            stats.hits + stats.misses,
            pass * (queries.len() * schema.arity()) as u64
        );
    }

    // Plan path: compilation derives exactly the distinct triples;
    // annotated execution reads interned factors and never touches the
    // cache.
    let plan = core.plan(&queries).unwrap();
    assert_eq!(plan.distinct_supports(), distinct);
    let before_plan = coeff.cache_stats();
    let annotated = core.execute_plan_with_error(&plan).unwrap();
    assert_eq!(
        coeff.cache_stats(),
        before_plan,
        "plan execution is cache-free"
    );
    for (a, &v) in annotated.iter().zip(&plain) {
        // Plan vs online: one derivation, one kernel, so bitwise.
        assert_eq!(
            a.value.to_bits(),
            v.to_bits(),
            "plan {} vs online {v}",
            a.value
        );
        assert!(a.std_dev > 0.0);
    }
}

/// Across-seed calibration at stress scale: pooled z-scores are
/// standard, Chebyshev coverage clears its level, and the predicted
/// std-dev never exceeds the analytic Corollary-1 bound.
#[test]
fn calibration_matches_the_laplace_sum_distribution() {
    let seeds = stress_iters(96);
    let schema = Schema::new(vec![
        Attribute::ordinal("age", 16),
        Attribute::ordinal("income", 8),
    ])
    .unwrap();
    let fm = data_matrix(&schema, 21);
    let queries = workload(&schema, 5);
    let beta = 0.9;
    let report =
        calibration_check(&fm, &PriveletConfig::pure(1.0, 1000), &queries, seeds, beta).unwrap();
    assert_eq!(report.seeds, seeds);
    // Pooled over seeds·queries scores: the predictor is unbiased and
    // correctly scaled. Tolerances are generous because scores within
    // one seed are correlated (they share a noise draw) and the Laplace
    // tails are heavy — but they still reject a λ or factor off by √2
    // (which would put the variance at 2.0 or 0.5).
    assert!(report.mean_z.abs() < 0.3, "mean z {}", report.mean_z);
    assert!(
        (report.z_variance - 1.0).abs() < 0.4,
        "z variance {}",
        report.z_variance
    );
    assert!(
        report.coverage >= beta,
        "Chebyshev coverage {} below {beta}",
        report.coverage
    );

    // Predicted variance never exceeds the analytic worst case.
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 1)).unwrap();
    let ans = ConcurrentEngine::from_output(&release).unwrap();
    for q in &queries {
        let a = ans.answer_with_error(q).unwrap();
        assert!(a.variance() <= release.meta.variance_bound * (1.0 + 1e-9));
    }
}

/// A power-of-two full-range Haar query reads only the base coefficient,
/// so its noise is one single Laplace draw — the strongest possible
/// calibration check: |z| must have the standardized Laplace's median
/// `ln 2 / √2 ≈ 0.49`, which a mis-scaled or Gaussian-shaped predictor
/// would miss.
#[test]
fn single_coefficient_query_has_laplace_shaped_z_scores() {
    let seeds = stress_iters(96).max(64);
    let schema = Schema::new(vec![Attribute::ordinal("v", 16)]).unwrap();
    let fm = data_matrix(&schema, 3);
    let q = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 15 }]);
    let exact = q.evaluate(&fm).unwrap();

    let mut zs = Vec::with_capacity(seeds);
    let mut stats = RunningStats::new();
    for s in 0..seeds {
        let release =
            publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5000 + s as u64)).unwrap();
        let ans = ConcurrentEngine::from_output(&release).unwrap();
        // One coefficient read ⇒ one Laplace draw.
        let supports = ans.core().supports_uncached(&q).unwrap();
        assert_eq!(supports.iter().map(|s| s.len()).product::<usize>(), 1);
        let a = ans.answer_with_error(&q).unwrap();
        let z = a.z_score(exact);
        zs.push(z.abs());
        stats.push(z);
    }
    zs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = zs[zs.len() / 2];
    // Standardized Laplace: median |z| = ln2/√2 ≈ 0.490 (a standard
    // normal would put it at 0.674); wide bands keep the test honest at
    // 64–96 seeds while still separating "λ off by 2×" (≈0.98 or ≈0.25).
    assert!(
        (0.28..=0.78).contains(&median),
        "median |z| {median}, expected ≈ 0.49"
    );
    assert!(stats.mean().abs() < 0.5, "z mean {}", stats.mean());
    assert!(
        stats.variance() > 0.35 && stats.variance() < 2.5,
        "z variance {}",
        stats.variance()
    );
}

/// Exact-coefficient releases (no publisher, no λ) answer but refuse to
/// annotate — on the engine, on the core, and on both per-query and plan
/// paths.
#[test]
fn unmetered_releases_refuse_annotation_everywhere() {
    use privelet_repro::query::QueryError;

    let schema = Schema::new(vec![Attribute::ordinal("x", 8)]).unwrap();
    let fm = data_matrix(&schema, 1);
    let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
    let coeffs = hn.forward(fm.matrix()).unwrap();
    let ans = ConcurrentEngine::new(Arc::new(
        ReleaseCore::new(schema.clone(), hn, &coeffs).unwrap(),
    ));
    let q = RangeQuery::all(1);
    assert!(ans.answer(&q).is_ok());
    assert_eq!(
        ans.answer_with_error(&q).unwrap_err(),
        QueryError::MissingPrivacyMeta
    );
    let plan = ans.core().plan(std::slice::from_ref(&q)).unwrap();
    assert!(ans.core().execute_plan(&plan).is_ok());
    assert_eq!(
        ans.core().execute_plan_with_error(&plan).unwrap_err(),
        QueryError::MissingPrivacyMeta
    );
    assert_eq!(
        ans.core().answer_with_error_uncached(&q).unwrap_err(),
        QueryError::MissingPrivacyMeta
    );
}
