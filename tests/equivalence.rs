//! Structural equivalences the design relies on:
//!
//! 1. Privelet⁺ with `SA = all attributes` IS the Basic mechanism (identity
//!    transform, unit weights, ρ = 1) — bit-for-bit with a shared seed.
//! 2. Privelet⁺ with `SA = ∅` is pure Privelet.
//! 3. The identity-dimension formulation of Privelet⁺ equals the paper's
//!    Figure-5 sub-matrix formulation: slicing the frequency matrix along
//!    the `SA` dimensions and transforming each sub-matrix yields exactly
//!    the integrated transform's coefficients and weights.

use privelet_repro::core::mechanism::{publish_basic, publish_privelet, PriveletConfig};
use privelet_repro::core::transform::HnTransform;
use privelet_repro::data::census::{self, CensusConfig};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::FrequencyMatrix;
use privelet_repro::hierarchy::builder::three_level;
use privelet_repro::matrix::NdMatrix;
use std::collections::BTreeSet;

fn small_census_fm() -> FrequencyMatrix {
    let mut cfg = CensusConfig::us().scaled();
    cfg.n_tuples = 10_000;
    cfg.age_size = 13;
    cfg.occupation_size = 20;
    cfg.occupation_groups = 4;
    cfg.income_size = 9;
    let table = census::generate(&cfg).unwrap();
    FrequencyMatrix::from_table(&table).unwrap()
}

#[test]
fn privelet_plus_sa_all_is_basic_bit_for_bit() {
    let fm = small_census_fm();
    let sa: BTreeSet<usize> = (0..fm.schema().arity()).collect();
    for (eps, seed) in [(0.5, 1u64), (1.0, 42), (1.25, 7)] {
        let plus = publish_privelet(&fm, &PriveletConfig::plus(eps, sa.clone(), seed)).unwrap();
        let basic = publish_basic(&fm, eps, seed).unwrap();
        assert_eq!(
            plus.matrix.matrix().as_slice(),
            basic.matrix().as_slice(),
            "eps={eps} seed={seed}"
        );
        assert_eq!(plus.meta.rho, 1.0);
        assert_eq!(plus.meta.lambda, 2.0 / eps);
    }
}

#[test]
fn privelet_plus_empty_sa_is_pure_privelet() {
    let fm = small_census_fm();
    let pure = publish_privelet(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
    let plus = publish_privelet(&fm, &PriveletConfig::plus(1.0, BTreeSet::new(), 5)).unwrap();
    assert_eq!(
        pure.matrix.matrix().as_slice(),
        plus.matrix.matrix().as_slice()
    );
    assert_eq!(pure.meta.rho, plus.meta.rho);
    assert_eq!(pure.meta.variance_bound, plus.meta.variance_bound);
}

#[test]
fn figure5_submatrix_formulation_matches_identity_dims() {
    // 3-D matrix: SA = {0}; the integrated transform's coefficient slice at
    // SA-coordinate a must equal the 2-D HN transform of the sub-matrix at
    // that coordinate, and the weights must match Figure 5's
    // per-sub-matrix W_HN.
    let schema = Schema::new(vec![
        Attribute::ordinal("sa_dim", 3),
        Attribute::ordinal("ord", 5),
        Attribute::nominal("nom", three_level(6, 2).unwrap()),
    ])
    .unwrap();
    let dims = schema.dims();
    let n: usize = dims.iter().product();
    let data: Vec<f64> = (0..n).map(|i| ((i * 13) % 23) as f64 - 7.0).collect();
    let m = NdMatrix::from_vec(&dims, data).unwrap();

    let sa = BTreeSet::from([0usize]);
    let integrated = HnTransform::for_schema(&schema, &sa).unwrap();
    let coeffs = integrated.forward(&m).unwrap();

    // The sub-schema of the non-SA dims.
    let sub_schema =
        Schema::new(vec![Attribute::ordinal("ord", 5), schema.attr(2).clone()]).unwrap();
    let sub_hn = HnTransform::for_schema(&sub_schema, &BTreeSet::new()).unwrap();

    for a in 0..3 {
        let sub_m = privelet_repro::matrix::fix_axes(&m, &[0], &[a]).unwrap();
        let sub_coeffs = sub_hn.forward(&sub_m).unwrap();
        let slice = privelet_repro::matrix::fix_axes(&coeffs, &[0], &[a]).unwrap();
        assert_eq!(slice.dims(), sub_coeffs.dims());
        for (x, y) in slice.as_slice().iter().zip(sub_coeffs.as_slice()) {
            assert!((x - y).abs() < 1e-9, "coefficient mismatch at SA coord {a}");
        }
    }

    // Weights: the integrated weight at (a, j, k) is the sub-matrix weight
    // at (j, k) (identity dims contribute factor 1).
    for a in 0..3 {
        for j in 0..integrated.output_dims()[1] {
            for k in 0..integrated.output_dims()[2] {
                let w_int = integrated.weight_at(&[a, j, k]).unwrap();
                let w_sub = sub_hn.weight_at(&[j, k]).unwrap();
                assert!((w_int - w_sub).abs() < 1e-12);
            }
        }
    }

    // And the privacy accounting matches Corollary 1: rho is the
    // sub-transform's rho.
    assert_eq!(integrated.rho(), sub_hn.rho());
}

#[test]
fn axis_order_does_not_change_the_transform() {
    // The standard decomposition applies 1-D transforms axis by axis; the
    // result is order-independent because the per-axis operators act on
    // disjoint index factors. Verify by comparing against the reversed
    // application order on a permuted schema.
    let schema_ab = Schema::new(vec![
        Attribute::ordinal("a", 4),
        Attribute::nominal("b", three_level(6, 2).unwrap()),
    ])
    .unwrap();
    let schema_ba = Schema::new(vec![
        Attribute::nominal("b", three_level(6, 2).unwrap()),
        Attribute::ordinal("a", 4),
    ])
    .unwrap();
    let data: Vec<f64> = (0..24).map(|i| ((i * 5) % 7) as f64).collect();
    let m_ab = NdMatrix::from_vec(&[4, 6], data.clone()).unwrap();
    // Transpose the data for the permuted schema.
    let mut transposed = vec![0.0; 24];
    for i in 0..4 {
        for j in 0..6 {
            transposed[j * 4 + i] = data[i * 6 + j];
        }
    }
    let m_ba = NdMatrix::from_vec(&[6, 4], transposed).unwrap();

    let hn_ab = HnTransform::for_schema(&schema_ab, &BTreeSet::new()).unwrap();
    let hn_ba = HnTransform::for_schema(&schema_ba, &BTreeSet::new()).unwrap();
    let c_ab = hn_ab.forward(&m_ab).unwrap();
    let c_ba = hn_ba.forward(&m_ba).unwrap();
    // c_ab[(x, y)] must equal c_ba[(y, x)].
    for x in 0..c_ab.dims()[0] {
        for y in 0..c_ab.dims()[1] {
            let lhs = c_ab.get(&[x, y]).unwrap();
            let rhs = c_ba.get(&[y, x]).unwrap();
            assert!((lhs - rhs).abs() < 1e-9, "({x},{y}): {lhs} vs {rhs}");
        }
    }
}
