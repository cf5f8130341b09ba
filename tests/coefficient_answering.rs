//! Property tests for coefficient-domain query answering: on random
//! 1–3-dimensional mixed schemas and random workloads, the
//! `ConcurrentEngine`'s sparse tensor-product dot agrees with
//! inverse-transform + prefix sums (`PrefixSums` +
//! `RangeQuery::evaluate_prefix`) — exactly (to 1e-9) on exact
//! coefficients, and to floating-point rounding on noisy releases. An
//! all-identity release (Basic) reads the 2^d corners of a summed-area
//! table per query.

use privelet_repro::core::mechanism::{publish_coefficients, publish_privelet, PriveletConfig};
use privelet_repro::core::transform::HnTransform;
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::FrequencyMatrix;
use privelet_repro::hierarchy::builder::random as random_hierarchy;
use privelet_repro::matrix::{NdMatrix, PrefixSums};
use privelet_repro::query::{generate_workload, ConcurrentEngine, ReleaseCore, WorkloadConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One random dimension: ordinal, nominal (random hierarchy), or SA.
#[derive(Debug, Clone)]
enum DimSpec {
    Ordinal(usize),
    Nominal { leaves: usize, seed: u64 },
    Sa(usize),
}

fn dim_spec() -> impl Strategy<Value = DimSpec> {
    prop_oneof![
        (1usize..=12).prop_map(DimSpec::Ordinal),
        ((1usize..=12), any::<u64>()).prop_map(|(leaves, seed)| DimSpec::Nominal { leaves, seed }),
        (1usize..=12).prop_map(DimSpec::Sa),
    ]
}

fn build(specs: &[DimSpec]) -> (Schema, BTreeSet<usize>) {
    let mut sa = BTreeSet::new();
    let attrs = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| match spec {
            DimSpec::Ordinal(n) => Attribute::ordinal(format!("o{i}"), *n),
            DimSpec::Nominal { leaves, seed } => Attribute::nominal(
                format!("n{i}"),
                random_hierarchy(*leaves, 4, *seed).expect("random hierarchy is valid"),
            ),
            DimSpec::Sa(n) => {
                sa.insert(i);
                Attribute::ordinal(format!("s{i}"), *n)
            }
        })
        .collect();
    (Schema::new(attrs).expect("generated schema is valid"), sa)
}

/// 1–3 dimensions, as the ISSUE's equivalence contract states.
fn schema_strategy() -> impl Strategy<Value = (Schema, BTreeSet<usize>)> {
    prop::collection::vec(dim_spec(), 1..=3).prop_map(|specs| build(&specs))
}

fn data_matrix(schema: &Schema, seed: u64) -> FrequencyMatrix {
    let n = schema.cell_count();
    let data: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 40) & 0xFF) as f64)
        .collect();
    FrequencyMatrix::from_parts(
        schema.clone(),
        NdMatrix::from_vec(&schema.dims(), data).unwrap(),
    )
    .unwrap()
}

fn workload(schema: &Schema, seed: u64) -> Vec<privelet_repro::query::RangeQuery> {
    let mut queries = generate_workload(
        schema,
        &WorkloadConfig {
            n_queries: 24,
            min_predicates: 1,
            max_predicates: schema.arity().min(3),
            seed,
        },
    )
    .unwrap();
    // Always include the unconstrained query (the whole-matrix sum is the
    // worst case for the sparse-support cancellations).
    queries.push(privelet_repro::query::RangeQuery::all(schema.arity()));
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact coefficients (no noise): the coefficient-domain answer equals
    /// the prefix-sum answer to 1e-9 on every query of a random workload.
    #[test]
    fn exact_coefficients_match_prefix_answerer(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let coeff = ConcurrentEngine::new(Arc::new(
            ReleaseCore::new(schema.clone(), hn, &coeffs).unwrap(),
        ));
        let prefix = PrefixSums::build(fm.matrix());
        for q in workload(&schema, wl_seed) {
            let a = coeff.answer(&q).unwrap();
            let b = q.evaluate_prefix(&schema, &prefix).unwrap();
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b} on {q:?}");
        }
        prop_assert!((coeff.core().total() - prefix.total()).abs() < 1e-9);
    }

    /// Noisy releases: serving from the published coefficients agrees with
    /// reconstructing the matrix and serving from prefix sums. Noisy cell
    /// values reach O(λ·m) in magnitude, so the tolerance scales with the
    /// total mass the two paths sum in different orders.
    #[test]
    fn noisy_release_matches_reconstructed_answerer(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        noise_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let cfg = PriveletConfig::plus(1.0, sa, noise_seed);
        let release = publish_coefficients(&fm, &cfg).unwrap();
        let coeff = ConcurrentEngine::from_output(&release).unwrap();
        let rec = release.to_matrix().unwrap();
        let prefix = PrefixSums::build(rec.matrix());
        let scale: f64 = release
            .coefficients
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .sum::<f64>()
            .max(1.0);
        for q in workload(&schema, wl_seed) {
            let a = coeff.answer(&q).unwrap();
            let b = q.evaluate_prefix(rec.schema(), &prefix).unwrap();
            prop_assert!(
                (a - b).abs() < 1e-9 * scale,
                "{a} vs {b} (scale {scale}) on {q:?}"
            );
        }
    }

    /// An all-identity release (Privelet⁺ with SA = every attribute,
    /// which is Basic) reads at most 2^d stored entries per query — the
    /// corners of a summed-area table — and answers like prefix sums
    /// over the reconstructed matrix.
    #[test]
    fn all_identity_release_reads_the_summed_area_corners(
        (schema, _) in schema_strategy(),
        data_seed in any::<u64>(),
        noise_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let sa: BTreeSet<usize> = (0..schema.arity()).collect();
        let cfg = PriveletConfig::plus(1.0, sa, noise_seed);
        let release = publish_coefficients(&fm, &cfg).unwrap();
        let core = ReleaseCore::from_output(&release).unwrap();
        let queries = workload(&schema, wl_seed);
        let plan = core.plan(&queries).unwrap();
        let corners = 1usize << schema.arity();
        prop_assert!(plan.total_reads() <= plan.len() * corners);
        prop_assert!(plan.mean_support() <= corners as f64);

        let rec = release.to_matrix().unwrap();
        let prefix = PrefixSums::build(rec.matrix());
        let scale: f64 = release
            .coefficients
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .sum::<f64>()
            .max(1.0);
        for (q, a) in queries.iter().zip(core.execute_plan(&plan).unwrap()) {
            let b = q.evaluate_prefix(&schema, &prefix).unwrap();
            prop_assert!((a - b).abs() < 1e-9 * scale, "{a} vs {b} on {q:?}");
        }
    }

    /// The coefficient release and the dense publish with the same seed
    /// are the same mechanism: inverting the release reproduces the dense
    /// matrix bit for bit, and so does the one refinement pass followed
    /// by the plain inverse, run by hand on the published coefficients.
    #[test]
    fn release_inverts_to_dense_publish(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        noise_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let cfg = PriveletConfig::plus(1.0, sa, noise_seed);
        let release = publish_coefficients(&fm, &cfg).unwrap();
        let dense = publish_privelet(&fm, &cfg).unwrap();
        let reconstructed = release.to_matrix().unwrap();
        let mut refined = release.coefficients.clone();
        release.transform.refine_in_place(&mut refined).unwrap();
        let by_hand = release.transform.inverse(&refined).unwrap();
        let dense = dense.matrix.matrix().as_slice();
        prop_assert_eq!(dense.len(), by_hand.len());
        for (i, ((d, r), h)) in dense
            .iter()
            .zip(reconstructed.matrix().as_slice())
            .zip(by_hand.as_slice())
            .enumerate()
        {
            prop_assert_eq!(d.to_bits(), r.to_bits(), "to_matrix, cell {}", i);
            prop_assert_eq!(d.to_bits(), h.to_bits(), "refine + inverse, cell {}", i);
        }
    }
}
