//! Property tests for the transforms and mechanisms.

use privelet::sensitivity::{measured_sensitivity, unit_bump_weighted_l1};
use privelet::transform::{HaarTransform, HnTransform, NominalTransform, Transform1d};
use privelet_data::schema::{Attribute, Schema};
use privelet_hierarchy::builder::random as random_hierarchy;
use privelet_matrix::{NdMatrix, Shape};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Strategy: one random dimension spec — ordinal size, nominal hierarchy
/// (from a seeded generator), or an SA (identity) dimension.
#[derive(Debug, Clone)]
enum DimSpec {
    Ordinal(usize),
    Nominal { leaves: usize, seed: u64 },
    Sa(usize),
}

fn dim_spec() -> impl Strategy<Value = DimSpec> {
    prop_oneof![
        (1usize..=9).prop_map(DimSpec::Ordinal),
        ((1usize..=9), any::<u64>()).prop_map(|(leaves, seed)| DimSpec::Nominal { leaves, seed }),
        (1usize..=9).prop_map(DimSpec::Sa),
    ]
}

fn build_schema(specs: &[DimSpec]) -> (Schema, BTreeSet<usize>) {
    let mut sa = BTreeSet::new();
    let attrs = specs
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
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

fn schema_strategy() -> impl Strategy<Value = (Schema, BTreeSet<usize>)> {
    prop::collection::vec(dim_spec(), 1..=3).prop_map(|specs| build_schema(&specs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Haar forward/inverse is the identity for any length and data.
    #[test]
    fn haar_roundtrip(data in prop::collection::vec(-100.0f64..100.0, 1..40)) {
        let t = HaarTransform::new(data.len());
        let mut c = vec![0.0; t.output_len()];
        t.forward_alloc(&data, &mut c);
        let mut back = vec![0.0; data.len()];
        t.inverse_alloc(&c, &mut back);
        for (a, b) in data.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// Nominal forward/inverse is the identity for random hierarchies, and
    /// exact sibling groups sum to ~zero.
    #[test]
    fn nominal_roundtrip(
        leaves in 1usize..=24,
        hseed in any::<u64>(),
        scale in 0.1f64..10.0,
    ) {
        let h = Arc::new(random_hierarchy(leaves, 5, hseed).unwrap());
        let t = NominalTransform::new(h.clone());
        let data: Vec<f64> = (0..leaves).map(|i| ((i * 31 % 17) as f64 - 8.0) * scale).collect();
        let mut c = vec![0.0; t.output_len()];
        t.forward_alloc(&data, &mut c);
        for group in h.sibling_groups() {
            let s: f64 = group.iter().map(|&id| c[h.level_order_pos(id)]).sum();
            prop_assert!(s.abs() < 1e-8 * (1.0 + scale * leaves as f64));
        }
        let mut back = vec![0.0; leaves];
        t.inverse_alloc(&c, &mut back);
        for (a, b) in data.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    /// The HN transform round-trips through the plain inverse and through
    /// refine-then-inverse on random mixed schemas (ordinal + nominal +
    /// identity dims).
    #[test]
    fn hn_roundtrip((schema, sa) in schema_strategy(), seed in any::<u64>()) {
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        // Deterministic pseudo-random data from the seed.
        let n = schema.cell_count();
        let data: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 33) as f64 / 2.0e9) - 1.0)
            .collect();
        let m = NdMatrix::from_vec(&schema.dims(), data).unwrap();
        let c = hn.forward(&m).unwrap();
        let plain = hn.inverse(&c).unwrap();
        let mut c_refined = c.clone();
        hn.refine_in_place(&mut c_refined).unwrap();
        let refined = hn.inverse(&c_refined).unwrap();
        for (a, b) in m.as_slice().iter().zip(plain.as_slice()) {
            prop_assert!((a - b).abs() < 1e-8);
        }
        for (a, b) in m.as_slice().iter().zip(refined.as_slice()) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// Theorem 2: the measured generalized sensitivity never exceeds
    /// ρ = ∏P(Aᵢ), and equals it when every nominal hierarchy has uniform
    /// leaf depth (always true for ordinal/identity dims).
    #[test]
    fn hn_sensitivity_bounded_by_rho((schema, sa) in schema_strategy()) {
        // Keep the probe tractable.
        prop_assume!(schema.cell_count() <= 200);
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let measured = measured_sensitivity(&hn).unwrap();
        prop_assert!(
            measured <= hn.rho() * (1.0 + 1e-9),
            "measured {measured} exceeds rho {}",
            hn.rho()
        );
    }

    /// The HN transform is linear: T(aM + M') = a·T(M) + T(M').
    #[test]
    fn hn_linearity((schema, sa) in schema_strategy(), a in -3.0f64..3.0) {
        prop_assume!(schema.cell_count() <= 300);
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let n = schema.cell_count();
        let m1: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let m2: Vec<f64> = (0..n).map(|i| ((i * 11) % 19) as f64 - 9.0).collect();
        let combo: Vec<f64> = m1.iter().zip(&m2).map(|(x, y)| a * x + y).collect();
        let dims = schema.dims();
        let c1 = hn.forward(&NdMatrix::from_vec(&dims, m1).unwrap()).unwrap();
        let c2 = hn.forward(&NdMatrix::from_vec(&dims, m2).unwrap()).unwrap();
        let cc = hn.forward(&NdMatrix::from_vec(&dims, combo).unwrap()).unwrap();
        for ((x, y), z) in c1.as_slice().iter().zip(c2.as_slice()).zip(cc.as_slice()) {
            prop_assert!((a * x + y - z).abs() < 1e-7);
        }
    }

    /// Weight factorization: for_each_weight visits every coefficient once
    /// with the product weight.
    #[test]
    fn weights_factorize((schema, sa) in schema_strategy()) {
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let out_dims = hn.output_dims();
        let shape = Shape::new(&out_dims).unwrap();
        let mut visited = vec![false; shape.len()];
        let mut coords = vec![0usize; out_dims.len()];
        hn.for_each_weight(|lin, w| {
            // Plain asserts: panics inside the closure are reported as
            // proptest failures.
            assert!(!visited[lin]);
            visited[lin] = true;
            shape.coords(lin, &mut coords).unwrap();
            let direct = hn.weight_at(&coords).unwrap();
            assert!((w - direct).abs() < 1e-12);
            assert!(w > 0.0);
        });
        prop_assert!(visited.iter().all(|&v| v));
    }

    /// Unit bumps on identity-only transforms cost exactly 1.
    #[test]
    fn identity_unit_cost(size in 1usize..=30, cell_seed in any::<u64>()) {
        let schema = Schema::new(vec![Attribute::ordinal("a", size)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::from([0])).unwrap();
        let cell = (cell_seed as usize) % size;
        let cost = unit_bump_weighted_l1(&hn, &[cell]).unwrap();
        prop_assert!((cost - 1.0).abs() < 1e-12);
    }
}
