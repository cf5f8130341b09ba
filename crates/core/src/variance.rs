//! Exact per-query noise variance of a Privelet release.
//!
//! The paper bounds the noise variance of every range-count query
//! (Lemma 3, Lemma 5, Theorem 3) but its future-work section asks for
//! finer utility statements. For this mechanism the *exact* variance is
//! computable in closed form:
//!
//! A query answer is `y = 1ᵣᵀ · R(C*)`, where `1ᵣ` is the indicator of the
//! query rectangle and `R` is the (linear!) refine-then-invert map. With
//! independent coefficient noise of variance `2(λ/W(c))²` injected before
//! refinement,
//!
//! ```text
//! Var[y] = Σ_c u(c)² · 2λ²/W(c)²,   u = Rᵀ·1ᵣ .
//! ```
//!
//! Because the transform, the refinement, the weights and the rectangle
//! indicator all factor across dimensions, `u` is a tensor product and
//!
//! ```text
//! Var[y] = 2λ² · ∏ᵢ Σ_j uᵢ(j)² / wᵢ(j)² ,
//! ```
//!
//! where `uᵢ` is dimension `i`'s interval-sum support
//! ([`Transform1d::query_weights`] — the adjoint of the inverse applied to
//! the interval indicator) pushed through the adjoint of the refinement.
//! The support has O(polylog m) entries on Haar/nominal dimensions, so the
//! per-dimension factor is a **sparse fold**
//! ([`Transform1d::support_variance_factor`]) — the same derivation the
//! serving stack already performs and caches per distinct `(dim, lo, hi)`
//! triple, which is why error bars at serving time are nearly free. This
//! turns the paper's worst-case bounds into exact error bars for any given
//! query, at no privacy cost (it uses only public transform parameters).
//!
//! [`dense_dim_variance_factor`] retains the original dense O(m'·(m+m'))
//! basis-vector loop purely as a test oracle for the sparse path.

use crate::transform::{HnTransform, Transform1d};
use crate::{CoreError, Result};

/// The per-dimension factor `Σ_j uᵢ(j)²/wᵢ(j)²` for an inclusive interval
/// `[lo, hi]` on dimension `axis` of `hn`, computed sparsely in
/// O(polylog m) via [`Transform1d::query_variance_factor`].
///
/// Errors with [`CoreError::BadAxis`] on an out-of-range axis and
/// [`CoreError::BadQueryBounds`] on an invalid interval (`Err`, never a
/// panic, so untrusted query bounds can be fed here directly — the
/// verdicts of [`HnTransform::check_query_bounds`], which the serving
/// derivation runs too).
pub fn dim_variance_factor(hn: &HnTransform, axis: usize, lo: usize, hi: usize) -> Result<f64> {
    let t = checked_transform(hn, axis, lo, hi)?;
    Ok(t.query_variance_factor(lo, hi))
}

/// The dense basis-vector oracle for [`dim_variance_factor`]: pushes every
/// coefficient basis vector through refine-then-invert and folds
/// `(interval sum / weight)²`. O(m'·(m + m')) per call — retained only so
/// tests can pin the sparse path against an implementation that makes no
/// structural assumptions about supports or refinement adjoints.
pub fn dense_dim_variance_factor(
    hn: &HnTransform,
    axis: usize,
    lo: usize,
    hi: usize,
) -> Result<f64> {
    let t = checked_transform(hn, axis, lo, hi)?;
    let in_len = t.input_len();
    let out_len = t.output_len();
    let weights = t.weights();
    let mut basis = vec![0.0f64; out_len];
    let mut image = vec![0.0f64; in_len];
    let mut scratch = vec![0.0f64; out_len.max(t.scratch_len())];
    let mut factor = 0.0f64;
    for j in 0..out_len {
        basis.fill(0.0);
        basis[j] = 1.0;
        // Refine-then-invert the j-th coefficient basis vector.
        t.refine(&mut basis);
        t.inverse(&basis, &mut image, &mut scratch);
        let u: f64 = image[lo..=hi].iter().sum();
        if u != 0.0 {
            let scaled = u / weights[j];
            factor += scaled * scaled;
        }
    }
    Ok(factor)
}

/// The exact noise variance of the range-count query with per-dimension
/// inclusive bounds `[lo, hi]`, answered on a Privelet release built from
/// `hn` with Laplace parameter `lambda` (`= 2ρ/ε`): `2λ²·∏ᵢ factorᵢ` over
/// the sparse per-dimension factors.
///
/// Errors with [`CoreError::BadQueryArity`] on an arity mismatch and
/// [`CoreError::BadQueryBounds`] (naming the offending axis) on an
/// invalid interval.
pub fn exact_query_variance(
    hn: &HnTransform,
    lambda: f64,
    lo: &[usize],
    hi: &[usize],
) -> Result<f64> {
    let d = hn.ndim();
    if lo.len() != d || hi.len() != d {
        let got = if lo.len() != d { lo.len() } else { hi.len() };
        return Err(CoreError::BadQueryArity { expected: d, got });
    }
    let mut product = 2.0 * lambda * lambda;
    for axis in 0..d {
        product *= dim_variance_factor(hn, axis, lo[axis], hi[axis])?;
    }
    Ok(product)
}

/// Validates `(axis, lo, hi)` with [`HnTransform::check_query_bounds`],
/// the check the serving derivation runs, so the variance and serving
/// paths reject bad input identically.
fn checked_transform(
    hn: &HnTransform,
    axis: usize,
    lo: usize,
    hi: usize,
) -> Result<&crate::transform::DimTransform> {
    hn.check_query_bounds(axis, lo, hi)?;
    Ok(&hn.transforms()[axis])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::hn_variance_bound;
    use crate::mechanism::{publish_privelet, PriveletConfig};
    use privelet_data::schema::{Attribute, Schema};
    use privelet_data::FrequencyMatrix;
    use privelet_hierarchy::builder::{flat, three_level};
    use privelet_matrix::NdMatrix;
    use privelet_noise::RunningStats;
    use std::collections::BTreeSet;

    fn mixed_hn() -> HnTransform {
        let schema = Schema::new(vec![
            Attribute::ordinal("a", 13),
            Attribute::nominal("b", three_level(8, 2).unwrap()),
            Attribute::nominal("g", flat(2).unwrap()),
            Attribute::ordinal("s", 6),
        ])
        .unwrap();
        HnTransform::for_schema(&schema, &BTreeSet::from([3])).unwrap()
    }

    #[test]
    fn sparse_factor_matches_dense_oracle_on_every_interval() {
        // Exhaustive over every interval of every dimension of a mixed
        // Haar/nominal/flat-nominal/identity transform; the workspace-root
        // proptest widens this to random schemas.
        let hn = mixed_hn();
        for axis in 0..hn.ndim() {
            let len = hn.transforms()[axis].input_len();
            for lo in 0..len {
                for hi in lo..len {
                    let sparse = dim_variance_factor(&hn, axis, lo, hi).unwrap();
                    let dense = dense_dim_variance_factor(&hn, axis, lo, hi).unwrap();
                    assert!(
                        (sparse - dense).abs() <= 1e-9 * dense.abs().max(1.0),
                        "axis {axis} [{lo},{hi}]: sparse {sparse} vs dense {dense}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_dims_give_covered_cell_count() {
        // With unit weights and the identity transform, the factor is the
        // number of covered positions, so Var = 2λ²·k — Basic's formula.
        let schema = Schema::new(vec![Attribute::ordinal("a", 10)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::from([0])).unwrap();
        for (lo, hi) in [(0usize, 9usize), (3, 5), (7, 7)] {
            let v = exact_query_variance(&hn, 2.0, &[lo], &[hi]).unwrap();
            assert!((v - 8.0 * (hi - lo + 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_variance_never_exceeds_theorem3_bound() {
        let schema = Schema::new(vec![
            Attribute::ordinal("a", 13),
            Attribute::nominal("b", three_level(8, 2).unwrap()),
            Attribute::nominal("g", flat(2).unwrap()),
        ])
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let eps = 1.0;
        let lambda = 2.0 * hn.rho() / eps;
        let bound = hn_variance_bound(&hn, eps);
        for (lo, hi) in [
            (vec![0, 0, 0], vec![12, 7, 1]),
            (vec![2, 3, 0], vec![9, 5, 0]),
            (vec![5, 0, 1], vec![5, 0, 1]),
        ] {
            let v = exact_query_variance(&hn, lambda, &lo, &hi).unwrap();
            assert!(v <= bound * (1.0 + 1e-9), "exact {v} vs bound {bound}");
            assert!(v > 0.0);
        }
    }

    #[test]
    fn prediction_matches_empirical_variance_1d_haar() {
        let size = 16usize;
        let schema = Schema::new(vec![Attribute::ordinal("x", size)]).unwrap();
        let fm = FrequencyMatrix::from_parts(
            schema.clone(),
            NdMatrix::from_vec(&[size], (0..size).map(|i| i as f64).collect()).unwrap(),
        )
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let eps = 1.0;
        let lambda = 2.0 * hn.rho() / eps;
        for (lo, hi) in [(0usize, 15usize), (3, 11), (6, 6)] {
            let predicted = exact_query_variance(&hn, lambda, &[lo], &[hi]).unwrap();
            let mut stats = RunningStats::new();
            for t in 0..3000u64 {
                let out = publish_privelet(&fm, &PriveletConfig::pure(eps, t)).unwrap();
                let y: f64 = out.matrix.matrix().as_slice()[lo..=hi].iter().sum();
                stats.push(y);
            }
            let rel = (stats.sample_variance() - predicted).abs() / predicted;
            assert!(
                rel < 0.12,
                "range [{lo},{hi}]: empirical {} vs predicted {predicted}",
                stats.sample_variance()
            );
        }
    }

    #[test]
    fn prediction_matches_empirical_variance_nominal_with_refinement() {
        // The mean-subtraction refinement correlates the published cells;
        // the sparse predictor accounts for it through the refinement
        // adjoint in `support_variance_factor`.
        let h = three_level(9, 3).unwrap();
        let schema = Schema::new(vec![Attribute::nominal("occ", h.clone())]).unwrap();
        let fm = FrequencyMatrix::from_parts(
            schema.clone(),
            NdMatrix::from_vec(&[9], (0..9).map(|i| (i * 3) as f64).collect()).unwrap(),
        )
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let eps = 1.0;
        let lambda = 2.0 * hn.rho() / eps;
        // Query the middle group's subtree and one leaf.
        let mids = h.nodes_at_level(2);
        let (glo, ghi) = h.leaf_range(mids[1]);
        for (lo, hi) in [(glo, ghi), (4usize, 4usize), (0, 8)] {
            let predicted = exact_query_variance(&hn, lambda, &[lo], &[hi]).unwrap();
            let mut stats = RunningStats::new();
            for t in 0..3000u64 {
                let out = publish_privelet(&fm, &PriveletConfig::pure(eps, t)).unwrap();
                let y: f64 = out.matrix.matrix().as_slice()[lo..=hi].iter().sum();
                stats.push(y);
            }
            let rel = (stats.sample_variance() - predicted).abs() / predicted;
            assert!(
                rel < 0.12,
                "range [{lo},{hi}]: empirical {} vs predicted {predicted}",
                stats.sample_variance()
            );
        }
    }

    #[test]
    fn prediction_matches_empirical_variance_multidim() {
        let schema = Schema::new(vec![
            Attribute::ordinal("a", 6),
            Attribute::nominal("g", flat(2).unwrap()),
        ])
        .unwrap();
        let fm = FrequencyMatrix::from_parts(
            schema.clone(),
            NdMatrix::from_vec(&[6, 2], (0..12).map(|i| i as f64).collect()).unwrap(),
        )
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let eps = 0.8;
        let lambda = 2.0 * hn.rho() / eps;
        let (lo, hi) = (vec![1usize, 0usize], vec![4usize, 0usize]);
        let predicted = exact_query_variance(&hn, lambda, &lo, &hi).unwrap();
        let mut stats = RunningStats::new();
        for t in 0..4000u64 {
            let out = publish_privelet(&fm, &PriveletConfig::pure(eps, t)).unwrap();
            let mut y = 0.0;
            for a in lo[0]..=hi[0] {
                y += out.matrix.matrix().get(&[a, 0]).unwrap();
            }
            stats.push(y);
        }
        let rel = (stats.sample_variance() - predicted).abs() / predicted;
        assert!(
            rel < 0.12,
            "empirical {} vs predicted {predicted}",
            stats.sample_variance()
        );
    }

    #[test]
    fn rejects_bad_bounds_with_structured_errors() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 4)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        // lo > hi and hi out of the domain: BadQueryBounds naming the axis.
        assert!(matches!(
            exact_query_variance(&hn, 1.0, &[2], &[1]).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 0,
                lo: 2,
                hi: 1,
                len: 4
            }
        ));
        assert!(matches!(
            exact_query_variance(&hn, 1.0, &[0], &[4]).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 0,
                hi: 4,
                len: 4,
                ..
            }
        ));
        // Arity mismatch: BadQueryArity, naming the offending slice's length.
        assert!(matches!(
            exact_query_variance(&hn, 1.0, &[0, 0], &[1, 1]).unwrap_err(),
            CoreError::BadQueryArity {
                expected: 1,
                got: 2
            }
        ));
        // Per-dimension entry points validate the axis like
        // `HnTransform::check_query_bounds` does.
        assert!(matches!(
            dim_variance_factor(&hn, 1, 0, 0).unwrap_err(),
            CoreError::BadAxis { axis: 1, ndim: 1 }
        ));
        assert!(matches!(
            dense_dim_variance_factor(&hn, 1, 0, 0).unwrap_err(),
            CoreError::BadAxis { axis: 1, ndim: 1 }
        ));
        assert!(matches!(
            dense_dim_variance_factor(&hn, 0, 3, 2).unwrap_err(),
            CoreError::BadQueryBounds { axis: 0, .. }
        ));
    }
}
