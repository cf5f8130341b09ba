//! Property tests for the unified serving engine: compiled batch plans
//! equal the per-query loop on random 1–3-dimensional mixed schemas
//! (exact and noisy coefficients), the planner derives each distinct
//! `(dim, lo, hi)` support exactly once, and workload generation is
//! byte-for-byte deterministic per seed.

mod common;

use common::{data_matrix, distinct_triples, schema_strategy, workload};
use privelet_repro::core::mechanism::{publish_coefficients, PriveletConfig};
use privelet_repro::core::transform::HnTransform;
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::matrix::PrefixSums;
use privelet_repro::query::{generate_workload, ConcurrentEngine, ReleaseCore, WorkloadConfig};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact coefficients: the compiled plan's batch answers equal both
    /// the per-query coefficient loop and prefix sums over the exact
    /// matrix to 1e-9, and the planner performs exactly one support
    /// derivation per distinct `(dim, lo, hi)` triple.
    #[test]
    fn batch_plan_matches_per_query_on_exact_coefficients(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let queries = workload(&schema, wl_seed);

        let core = Arc::new(ReleaseCore::new(schema.clone(), hn, &coeffs).unwrap());
        let plan = core.plan(&queries).unwrap();
        prop_assert_eq!(plan.len(), queries.len());
        prop_assert_eq!(plan.support_requests(), queries.len() * schema.arity());
        // At most (here: exactly) one derivation per distinct triple.
        prop_assert_eq!(plan.distinct_supports(), distinct_triples(&schema, &queries));
        // The workload always repeats at least one whole query.
        prop_assert!(plan.distinct_supports() < plan.support_requests());
        prop_assert!(plan.dedup_ratio() > 0.0);

        let batch = core.execute_plan(&plan).unwrap();
        let coeff = ConcurrentEngine::new(core);
        let prefix = PrefixSums::build(fm.matrix());
        for (q, &got) in queries.iter().zip(&batch) {
            let one = coeff.answer(q).unwrap();
            let want = q.evaluate_prefix(&schema, &prefix).unwrap();
            prop_assert!((got - one).abs() < 1e-9, "batch {got} vs per-query {one}");
            prop_assert!((got - want).abs() < 1e-9, "batch {got} vs prefix {want}");
        }
    }

    /// Noisy releases: the plan path (`core().plan` + `execute_plan`)
    /// equals the per-query online loop bit for bit, and prefix sums over
    /// the reconstructed matrix to rounding.
    /// Noisy cell values reach O(λ·m) in magnitude, so the prefix-sum
    /// tolerance scales with the summed coefficient mass.
    #[test]
    fn batch_plan_matches_per_query_on_noisy_releases(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        noise_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let cfg = PriveletConfig::plus(1.0, sa, noise_seed);
        let release = publish_coefficients(&fm, &cfg).unwrap();
        let coeff = ConcurrentEngine::from_output(&release).unwrap();
        let queries = workload(&schema, wl_seed);

        let core = coeff.core();
        let batch = core.execute_plan(&core.plan(&queries).unwrap()).unwrap();
        for (q, &got) in queries.iter().zip(&batch) {
            // One derivation and one kernel on both paths: plan and
            // online answers are bitwise equal.
            let one = coeff.answer(q).unwrap();
            prop_assert_eq!(one.to_bits(), got.to_bits(), "plan {} vs online {}", got, one);
        }

        let rec = release.to_matrix().unwrap();
        let prefix = PrefixSums::build(rec.matrix());
        let scale: f64 = release
            .coefficients
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .sum::<f64>()
            .max(1.0);
        let dense: Vec<f64> = queries
            .iter()
            .map(|q| q.evaluate_prefix(rec.schema(), &prefix).unwrap())
            .collect();
        for (&a, &b) in batch.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-9 * scale, "{a} vs {b} (scale {scale})");
        }
    }

    /// Workload generation is deterministic: the same `WorkloadConfig`
    /// yields byte-identical query lists across two calls.
    #[test]
    fn workload_generation_is_deterministic(
        (schema, _) in schema_strategy(),
        n_queries in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let cfg = WorkloadConfig {
            n_queries,
            min_predicates: 1,
            max_predicates: 4,
            seed,
        };
        let a = generate_workload(&schema, &cfg).unwrap();
        let b = generate_workload(&schema, &cfg).unwrap();
        prop_assert_eq!(&a, &b);
        // Byte-identical, not merely equal under PartialEq.
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// The online cache amortizes repeated predicates like the plan pool:
/// each triple is derived once per residency. Two triples of one
/// workload can share a cache slot and displace each other, so a triple
/// is derived again only after an eviction, on either pass.
#[test]
fn online_cache_derives_each_triple_once() {
    let schema = Schema::new(vec![
        Attribute::ordinal("a", 64),
        Attribute::ordinal("b", 16),
    ])
    .unwrap();
    let fm = data_matrix(&schema, 7);
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 13)).unwrap();
    let coeff = ConcurrentEngine::from_output(&release).unwrap();
    let queries = workload(&schema, 99);
    let distinct = distinct_triples(&schema, &queries) as u64;
    let lookups = (queries.len() * schema.arity()) as u64;
    // One miss (= one derivation) per distinct triple, plus one per
    // eviction that displaced it; every occupied slot is a miss that no
    // later miss displaced.
    let ledger = |pass: u64| {
        let stats = coeff.cache_stats();
        assert_eq!(stats.hits + stats.misses, pass * lookups);
        assert!(
            distinct <= stats.misses && stats.misses <= distinct + stats.evictions,
            "pass {pass}: {stats:?} over {distinct} distinct triples"
        );
        assert_eq!(stats.len as u64, stats.misses - stats.evictions);
    };

    let first: Vec<f64> = queries.iter().map(|q| coeff.answer(q).unwrap()).collect();
    ledger(1);
    let second: Vec<f64> = queries.iter().map(|q| coeff.answer(q).unwrap()).collect();
    ledger(2);
    assert_eq!(first, second);
}
