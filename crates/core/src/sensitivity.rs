//! Empirical generalized-sensitivity probes (Definition 3).
//!
//! Because every transform here is linear, the coefficient change caused by
//! bumping one frequency cell by δ is the forward transform of `δ·e_cell`.
//! The weighted L1 norm of that image, maximized over cells, is the exact
//! generalized sensitivity of the transform w.r.t. its weights — these
//! probes verify Lemma 2, Lemma 4 and Theorem 2 numerically and feed the
//! ablation benches.

use crate::transform::HnTransform;
use crate::Result;
use privelet_matrix::{NdMatrix, Shape};

/// The weighted L1 norm `Σ_c W(c)·|Δc|` of the coefficient change caused by
/// a unit bump of the input cell at `coords`.
pub fn unit_bump_weighted_l1(hn: &HnTransform, coords: &[usize]) -> Result<f64> {
    let dims = hn.input_dims();
    let mut unit = NdMatrix::zeros(&dims)?;
    unit.set(coords, 1.0)?;
    let c = hn.forward(&unit)?;
    let out_shape = Shape::new(&hn.output_dims())?;
    let mut out_coords = vec![0usize; out_shape.ndim()];
    let mut total = 0.0f64;
    for (lin, &v) in c.as_slice().iter().enumerate() {
        if v != 0.0 {
            out_shape.coords(lin, &mut out_coords)?;
            total += hn.weight_at(&out_coords)? * v.abs();
        }
    }
    Ok(total)
}

/// The exact generalized sensitivity of an HN transform, measured by
/// probing **every** input cell. Exponential in matrix size — use only on
/// small transforms (tests, ablations).
pub fn measured_sensitivity(hn: &HnTransform) -> Result<f64> {
    let dims = hn.input_dims();
    let shape = Shape::new(&dims)?;
    let mut coords = vec![0usize; shape.ndim()];
    let mut worst = 0.0f64;
    for lin in 0..shape.len() {
        shape.coords(lin, &mut coords)?;
        worst = worst.max(unit_bump_weighted_l1(hn, &coords)?);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_data::schema::{Attribute, Schema};
    use privelet_hierarchy::builder::three_level;
    use privelet_hierarchy::Spec;
    use std::collections::BTreeSet;

    #[test]
    fn measured_equals_rho_for_uniform_depth() {
        let schema = Schema::new(vec![
            Attribute::ordinal("a", 6),
            Attribute::nominal("o", three_level(6, 2).unwrap()),
        ])
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let measured = measured_sensitivity(&hn).unwrap();
        assert!(
            (measured - hn.rho()).abs() < 1e-9,
            "measured {measured} vs rho {}",
            hn.rho()
        );
    }

    #[test]
    fn measured_below_rho_for_uneven_hierarchy() {
        // A hierarchy with a shallow leaf: rho (computed from max depth) is
        // an upper bound, achieved only by the deepest leaves.
        let h = Spec::internal(
            "root",
            vec![
                Spec::leaf("a"),
                Spec::internal("b", vec![Spec::leaf("c"), Spec::leaf("d")]),
            ],
        )
        .build()
        .unwrap();
        let schema = Schema::new(vec![Attribute::nominal("x", h)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let shallow = unit_bump_weighted_l1(&hn, &[0]).unwrap();
        let deep = unit_bump_weighted_l1(&hn, &[1]).unwrap();
        assert!(shallow < deep);
        assert!((deep - hn.rho()).abs() < 1e-9);
        assert!((measured_sensitivity(&hn).unwrap() - hn.rho()).abs() < 1e-9);
    }

    #[test]
    fn identity_dims_cost_one() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 7)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::from([0])).unwrap();
        assert_eq!(measured_sensitivity(&hn).unwrap(), 1.0);
    }
}
