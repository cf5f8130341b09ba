//! Property tests for the executor-backed HN transform engine:
//! `forward ∘ inverse` round-trips mixed Haar/nominal/identity schemas in
//! 1–4 dimensions to within 1e-9 (with and without the refinement in
//! between), the tiled and per-lane walks agree bit for bit, the one
//! refinement pass equals a per-lane `Transform1d::refine` walk bit for
//! bit, and skipping identity (SA) axes in a plain forward or inverse
//! changes no bit against a walk that runs every axis.

use privelet_repro::core::transform::{HnTransform, Transform1d};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::hierarchy::builder::{flat, random as random_hierarchy, three_level};
use privelet_repro::matrix::{map_lanes, LaneExecutor, NdMatrix};
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

/// The refinement applied to a copy, as every noisy release applies it
/// before inverting.
fn refine_copy(hn: &HnTransform, c: &NdMatrix) -> NdMatrix {
    let mut out = c.clone();
    hn.refine_in_place(&mut out).unwrap();
    out
}

fn seeded_matrix(dims: &[usize], seed: u64) -> NdMatrix {
    let n: usize = dims.iter().product();
    let data: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 33) as f64 / 1.0e9) - 4.0)
        .collect();
    NdMatrix::from_vec(dims, data).unwrap()
}

fn bits(m: &NdMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The HN transform as a `map_lanes` walk that runs every axis's
/// `Transform1d` kernel, identity axes included: forward over axes
/// `0..d`, or inverse over `d..0`.
fn walk_every_axis(hn: &HnTransform, m: &NdMatrix, inverse: bool) -> NdMatrix {
    let mut out = m.clone();
    let mut axes: Vec<usize> = (0..hn.ndim()).collect();
    if inverse {
        axes.reverse();
    }
    for axis in axes {
        let t = &hn.transforms()[axis];
        let mut scratch = vec![0.0; t.scratch_len()];
        let len = if inverse {
            t.input_len()
        } else {
            t.output_len()
        };
        out = map_lanes(&out, axis, len, |src, dst| {
            if inverse {
                t.inverse(src, dst, &mut scratch);
            } else {
                t.forward(src, dst, &mut scratch);
            }
        })
        .unwrap();
    }
    out
}

/// `forward_with` and `inverse_with`, which stage no identity axis, equal
/// the every-axis walk by `to_bits` at tile widths 1, 8 and 64.
fn assert_identity_skip_is_exact(schema: &Schema, sa: &BTreeSet<usize>, seed: u64) {
    let hn = HnTransform::for_schema(schema, sa).unwrap();
    let m = seeded_matrix(&schema.dims(), seed);
    let c_ref = walk_every_axis(&hn, &m, false);
    let b_ref = walk_every_axis(&hn, &c_ref, true);
    for tile in [1usize, 8, 64] {
        let mut exec = LaneExecutor::new().with_tile_lanes(tile);
        let c = hn.forward_with(&mut exec, &m).unwrap();
        assert_eq!(bits(&c), bits(&c_ref), "forward, tile {tile}, sa {sa:?}");
        let b = hn.inverse_with(&mut exec, &c_ref).unwrap();
        assert_eq!(bits(&b), bits(&b_ref), "inverse, tile {tile}, sa {sa:?}");
    }
}

/// Fixed identity-skip cases: every axis in SA (the executor's
/// zero-stage copy), only the last axis (the contiguous stage), and Age
/// and Gender on a census-shaped schema.
#[test]
fn identity_skip_fixed_cases() {
    let census = Schema::new(vec![
        Attribute::ordinal("age", 12),
        Attribute::nominal("gender", flat(2).unwrap()),
        Attribute::nominal("occupation", three_level(8, 2).unwrap()),
        Attribute::ordinal("income", 8),
    ])
    .unwrap();
    let d = census.arity();
    for sa in [
        (0..d).collect::<BTreeSet<usize>>(),
        BTreeSet::from([d - 1]),
        BTreeSet::from([0, 1]),
    ] {
        assert_identity_skip_is_exact(&census, &sa, 0x5EED);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identity skip over random SA sets on random mixed schemas.
    #[test]
    fn identity_skip_matches_every_axis_walk(
        (schema, sa) in schema_strategy(),
        seed in any::<u64>(),
    ) {
        assert_identity_skip_is_exact(&schema, &sa, seed);
    }

    /// forward ∘ inverse == id, with and without the refinement between
    /// them, on a reused serial executor, to 1e-9.
    #[test]
    fn roundtrip_on_serial_executor((schema, sa) in schema_strategy(), seed in any::<u64>()) {
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let m = seeded_matrix(&schema.dims(), seed);
        let mut exec = LaneExecutor::new();
        let c = hn.forward_with(&mut exec, &m).unwrap();
        let plain = hn.inverse_with(&mut exec, &c).unwrap();
        let refined = hn.inverse_with(&mut exec, &refine_copy(&hn, &c)).unwrap();
        prop_assert_eq!(plain.dims(), m.dims());
        for (a, b) in m.as_slice().iter().zip(plain.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9, "plain: {a} vs {b}");
        }
        for (a, b) in m.as_slice().iter().zip(refined.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9, "refined: {a} vs {b}");
        }
    }

    /// The cache-blocked tile width never changes what the engine
    /// computes: forward and refine-then-inverse are bit-identical
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
        let m = seeded_matrix(&schema.dims(), seed);
        let mut reference = LaneExecutor::new().with_tile_lanes(1);
        let c_ref = hn.forward_with(&mut reference, &m).unwrap();
        let b_ref = hn.inverse_with(&mut reference, &refine_copy(&hn, &c_ref)).unwrap();
        for tile in [3usize, 8, 64, 1 << 20] {
            let mut exec = LaneExecutor::new().with_tile_lanes(tile);
            let c = hn.forward_with(&mut exec, &m).unwrap();
            prop_assert_eq!(c.as_slice(), c_ref.as_slice(), "forward tile {}", tile);
            let b = hn.inverse_with(&mut exec, &refine_copy(&hn, &c)).unwrap();
            prop_assert_eq!(b.as_slice(), b_ref.as_slice(), "inverse tile {}", tile);
        }
    }

    /// `refine_in_place` is the per-lane refinement, bit for bit: the
    /// reference walks every axis in order with `map_lanes`, calling
    /// `Transform1d::refine` on each lane (a no-op on axes without a
    /// refinement), over arbitrary coefficients rather than a forward
    /// image, so the nominal sibling groups do not already sum to zero.
    #[test]
    fn refine_in_place_matches_per_lane_refine(
        (schema, sa) in schema_strategy(),
        seed in any::<u64>(),
    ) {
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let c = seeded_matrix(&hn.output_dims(), seed);
        let mut expected = c.clone();
        for (axis, t) in hn.transforms().iter().enumerate() {
            expected = map_lanes(&expected, axis, t.output_len(), |src, dst| {
                dst.copy_from_slice(src);
                t.refine(dst);
            })
            .unwrap();
        }
        let got = refine_copy(&hn, &c);
        prop_assert_eq!(got.dims(), expected.dims());
        for (i, (a, b)) in got.as_slice().iter().zip(expected.as_slice()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "coeff {}", i);
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
    let m = seeded_matrix(&schema.dims(), 0xFEED);

    let mut tiled = LaneExecutor::new();
    let mut per_lane = LaneExecutor::new().with_tile_lanes(1);
    let c_tiled = hn.forward_with(&mut tiled, &m).unwrap();
    let c_per_lane = hn.forward_with(&mut per_lane, &m).unwrap();
    assert_eq!(c_tiled.as_slice(), c_per_lane.as_slice());

    let c_refined = refine_copy(&hn, &c_tiled);
    let back_tiled = hn.inverse_with(&mut tiled, &c_refined).unwrap();
    let back_per_lane = hn.inverse_with(&mut per_lane, &c_refined).unwrap();
    assert_eq!(back_tiled.as_slice(), back_per_lane.as_slice());
    for (a, b) in m.as_slice().iter().zip(back_tiled.as_slice()) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
