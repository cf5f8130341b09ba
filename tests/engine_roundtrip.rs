//! Property tests for the executor-backed HN transform engine:
//! `forward ∘ inverse` round-trips mixed Haar/nominal/identity schemas in
//! 1–4 dimensions to within 1e-9, and the tiled and per-lane walks agree
//! bit for bit.

use privelet_repro::core::transform::HnTransform;
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::hierarchy::builder::random as random_hierarchy;
use privelet_repro::matrix::{LaneExecutor, NdMatrix};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One random dimension: ordinal, nominal (random hierarchy), or SA.
#[derive(Debug, Clone)]
enum DimSpec {
    Ordinal(usize),
    Nominal { leaves: usize, seed: u64 },
    Sa(usize),
}

fn dim_spec() -> impl Strategy<Value = DimSpec> {
    prop_oneof![
        (1usize..=10).prop_map(DimSpec::Ordinal),
        ((1usize..=10), any::<u64>()).prop_map(|(leaves, seed)| DimSpec::Nominal { leaves, seed }),
        (1usize..=10).prop_map(DimSpec::Sa),
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

/// 1–4 dimensions, as the engine contract promises.
fn schema_strategy() -> impl Strategy<Value = (Schema, BTreeSet<usize>)> {
    prop::collection::vec(dim_spec(), 1..=4).prop_map(|specs| build(&specs))
}

fn data_matrix(schema: &Schema, seed: u64) -> NdMatrix {
    let n = schema.cell_count();
    let data: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 33) as f64 / 1.0e9) - 4.0)
        .collect();
    NdMatrix::from_vec(&schema.dims(), data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// forward ∘ inverse == id (both inverse flavors) on a reused serial
    /// executor, to 1e-9.
    #[test]
    fn roundtrip_on_serial_executor((schema, sa) in schema_strategy(), seed in any::<u64>()) {
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let m = data_matrix(&schema, seed);
        let mut exec = LaneExecutor::new();
        let c = hn.forward_with(&mut exec, &m).unwrap();
        let plain = hn.inverse_with(&mut exec, &c).unwrap();
        let refined = hn.inverse_refined_with(&mut exec, &c).unwrap();
        prop_assert_eq!(plain.dims(), m.dims());
        for (a, b) in m.as_slice().iter().zip(plain.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9, "plain: {a} vs {b}");
        }
        for (a, b) in m.as_slice().iter().zip(refined.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9, "refined: {a} vs {b}");
        }
    }

    /// The cache-blocked tile width never changes what the engine
    /// computes: forward and refined-inverse transforms are bit-identical
    /// to the per-lane walk (`tile = 1`) at every width in the grid —
    /// boundary-heavy widths (3), the default (8), wide tiles (64), and a
    /// width exceeding every lane count here — across random 1–4-dim
    /// mixed Haar/nominal/SA schemas with non-power-of-two extents.
    #[test]
    fn tile_width_never_changes_transform_output(
        (schema, sa) in schema_strategy(),
        seed in any::<u64>(),
    ) {
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let m = data_matrix(&schema, seed);
        let mut reference = LaneExecutor::new().with_tile_lanes(1);
        let c_ref = hn.forward_with(&mut reference, &m).unwrap();
        let b_ref = hn.inverse_refined_with(&mut reference, &c_ref).unwrap();
        for tile in [3usize, 8, 64, 1 << 20] {
            let mut exec = LaneExecutor::new().with_tile_lanes(tile);
            let c = hn.forward_with(&mut exec, &m).unwrap();
            prop_assert_eq!(c.as_slice(), c_ref.as_slice(), "forward tile {}", tile);
            let b = hn.inverse_refined_with(&mut exec, &c).unwrap();
            prop_assert_eq!(b.as_slice(), b_ref.as_slice(), "inverse tile {}", tile);
        }
    }
}

/// A fixed large mixed case (the proptest shapes above are mostly small):
/// it round-trips, and the default tiled executor agrees bitwise with the
/// per-lane walk end to end.
#[test]
fn large_mixed_schema_roundtrips_and_matches_across_executors() {
    let schema = Schema::new(vec![
        Attribute::ordinal("age", 50),
        Attribute::nominal(
            "occ",
            privelet_repro::hierarchy::builder::three_level(48, 6).unwrap(),
        ),
        Attribute::ordinal("income", 40),
    ])
    .unwrap();
    let sa = BTreeSet::from([2usize]);
    let hn = HnTransform::for_schema(&schema, &sa).unwrap();
    let m = data_matrix(&schema, 0xFEED);

    let mut tiled = LaneExecutor::new();
    let mut per_lane = LaneExecutor::new().with_tile_lanes(1);
    let c_tiled = hn.forward_with(&mut tiled, &m).unwrap();
    let c_per_lane = hn.forward_with(&mut per_lane, &m).unwrap();
    assert_eq!(c_tiled.as_slice(), c_per_lane.as_slice());

    let back_tiled = hn.inverse_refined_with(&mut tiled, &c_tiled).unwrap();
    let back_per_lane = hn.inverse_refined_with(&mut per_lane, &c_tiled).unwrap();
    assert_eq!(back_tiled.as_slice(), back_per_lane.as_slice());
    for (a, b) in m.as_slice().iter().zip(back_tiled.as_slice()) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
