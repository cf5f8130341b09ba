//! The paper's analytic noise-variance bounds and the `SA` selection rule.
//!
//! Definitions (§VI-C), for an attribute `A`:
//!
//! ```text
//! P(A) = 1 + log₂|A|  if A is ordinal (padded to a power of two)
//!        h            if A is nominal (hierarchy height)
//! H(A) = (2 + log₂|A|)/2  if A is ordinal
//!        4                if A is nominal
//! ```
//!
//! With `σ = √2·λ` (a Laplace noise of magnitude `λ/W(c)` has variance
//! `2λ²/W(c)² = (σ/W(c))²`), Theorem 3 bounds the per-query noise variance
//! by `σ²·∏H(Aᵢ)`; plugging `λ = 2ρ/ε` with `ρ = ∏P(Aᵢ)` (Theorem 2) gives
//! the published bounds:
//!
//! - Eq. 4 (1-D ordinal): `(2 + log₂m)(2 + 2log₂m)²/ε²`.
//! - Eq. 6 (1-D nominal): `4·2·(2h)²/ε² = 32h²/ε²`.
//! - Eq. 7 (Privelet⁺): `8/ε² · (∏_{A∈SA}|A|) · ∏_{A∉SA}(P(A)²·H(A))`.
//!
//! Basic's per-cell variance is `8/ε²` (λ = 2/ε, variance 2λ²), so a query
//! covering `k` cells carries `8k/ε²`. (§VI-D's displayed Basic formula
//! `2(2|A|/ε)²` is a typo — its printed value `128/ε²` for `|A| = 16`
//! equals `8|A|/ε²`, consistent with §II-B.)

use crate::transform::{DimTransform, HaarTransform, HnTransform, Transform1d};
use crate::Result;
use privelet_data::schema::{Attribute, Schema};
use std::collections::BTreeSet;

/// Per-cell noise variance of the Basic mechanism at privacy ε: `8/ε²`.
fn basic_cell_variance(epsilon: f64) -> f64 {
    8.0 / (epsilon * epsilon)
}

/// Worst-case noise variance of a Basic-answered query covering
/// `covered_cells` cells: `8·k/ε²` (§II-B's Θ(m/ε²) with k = m).
pub fn basic_query_variance(epsilon: f64, covered_cells: usize) -> f64 {
    basic_cell_variance(epsilon) * covered_cells as f64
}

/// Equation 4: the 1-D ordinal Privelet bound
/// `(2 + log₂m)(2 + 2log₂m)²/ε²` for a (padded) domain of `m` values.
pub fn eq4_ordinal_bound(m: usize, epsilon: f64) -> f64 {
    // An empty domain reads as one value (no levels), not a panic.
    let l = f64::from(HaarTransform::new(m.max(1)).levels());
    (2.0 + l) * (2.0 + 2.0 * l) * (2.0 + 2.0 * l) / (epsilon * epsilon)
}

/// Equation 6: the 1-D nominal Privelet bound `32h²/ε²` for hierarchy
/// height `h`.
pub fn eq6_nominal_bound(h: usize, epsilon: f64) -> f64 {
    let h = h as f64;
    32.0 * h * h / (epsilon * epsilon)
}

/// The general Privelet⁺ bound of Corollary 1 / Equation 7 for an HN
/// transform: `2λ²·∏H = 8ρ²·∏H/ε²`, where identity (`SA`) dimensions
/// contribute `P = 1` and `H = |A|`.
pub fn hn_variance_bound(hn: &HnTransform, epsilon: f64) -> f64 {
    let rho = hn.rho();
    8.0 * rho * rho * hn.variance_factor() / (epsilon * epsilon)
}

/// Equation 7 evaluated from a schema and an `SA` set: the
/// [`hn_variance_bound`] of the transform [`HnTransform::for_schema`]
/// builds, so `P(A)` and `H(A)` have one definition (each 1-D transform's
/// [`p_value`](Transform1d::p_value) and [`h_value`](Transform1d::h_value)).
/// Errors with [`CoreError::BadSaIndex`](crate::CoreError::BadSaIndex) on
/// an `SA` index outside the schema.
pub fn privelet_plus_bound(schema: &Schema, sa: &BTreeSet<usize>, epsilon: f64) -> Result<f64> {
    Ok(hn_variance_bound(
        &HnTransform::for_schema(schema, sa)?,
        epsilon,
    ))
}

/// The §VII-A selection rule: an attribute belongs in `SA` iff
/// `|A| ≤ P(A)²·H(A)` — i.e. Basic's variance contribution for that
/// dimension is no worse than Privelet's. `P(A)` and `H(A)` are those of
/// the attribute's wavelet transform.
pub fn should_exclude(attr: &Attribute) -> bool {
    let t = DimTransform::for_attribute(attr, false);
    let p = t.p_value();
    (attr.size() as f64) <= p * p * t.h_value()
}

/// Recommends the `SA` set for a schema by applying [`should_exclude`] to
/// every attribute.
pub fn recommend_sa(schema: &Schema) -> BTreeSet<usize> {
    schema
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| should_exclude(a))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_hierarchy::builder::three_level;

    #[test]
    fn section_v_d_worked_example() {
        // Occupation: m = 512 leaves, hierarchy height 3.
        // HWT-on-ordered-nominal: (2 + 9)(2 + 18)²/ε² = 4400/ε².
        assert_eq!(eq4_ordinal_bound(512, 1.0), 4400.0);
        // Nominal transform: 4·2·(2·3)²/ε² = 288/ε² — a 15-fold reduction.
        assert_eq!(eq6_nominal_bound(3, 1.0), 288.0);
        assert!(eq4_ordinal_bound(512, 1.0) / eq6_nominal_bound(3, 1.0) > 15.0);
    }

    #[test]
    fn section_vi_d_worked_example() {
        // |A| = 16 ordinal: Privelet bound 2(2P/ε)²·H = 600/ε²;
        // Basic: 8|A|/ε² = 128/ε² (the paper's printed value).
        let schema = Schema::new(vec![Attribute::ordinal("a", 16)]).unwrap();
        let bound = privelet_plus_bound(&schema, &BTreeSet::new(), 1.0).unwrap();
        assert_eq!(bound, 600.0);
        assert_eq!(basic_query_variance(1.0, 16), 128.0);
        // So a 16-value domain belongs in SA.
        assert!(should_exclude(schema.attr(0)));
    }

    #[test]
    fn eq4_matches_hn_bound_for_1d_ordinal() {
        for m in [16usize, 64, 512, 1024] {
            let schema = Schema::new(vec![Attribute::ordinal("a", m)]).unwrap();
            let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
            let eq4 = eq4_ordinal_bound(m, 0.8);
            let general = hn_variance_bound(&hn, 0.8);
            assert!(
                (eq4 - general).abs() < 1e-9 * eq4,
                "m={m}: {eq4} vs {general}"
            );
        }
    }

    #[test]
    fn eq6_matches_hn_bound_for_1d_nominal() {
        let schema = Schema::new(vec![Attribute::nominal(
            "occ",
            three_level(512, 22).unwrap(),
        )])
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        assert_eq!(hn_variance_bound(&hn, 1.0), eq6_nominal_bound(3, 1.0));
    }

    #[test]
    fn privelet_plus_bound_matches_transform_bound() {
        let schema = Schema::new(vec![
            Attribute::ordinal("age", 101),
            Attribute::nominal("gender", privelet_hierarchy::builder::flat(2).unwrap()),
            Attribute::nominal("occ", three_level(512, 22).unwrap()),
            Attribute::ordinal("income", 1001),
        ])
        .unwrap();
        for sa in [
            BTreeSet::new(),
            BTreeSet::from([0, 1]),
            BTreeSet::from([0, 1, 2, 3]),
        ] {
            let direct = privelet_plus_bound(&schema, &sa, 1.25).unwrap();
            let hn = HnTransform::for_schema(&schema, &sa).unwrap();
            let via_hn = hn_variance_bound(&hn, 1.25);
            // Both sides multiply the same factors in the same order.
            assert_eq!(
                direct.to_bits(),
                via_hn.to_bits(),
                "sa={sa:?}: {direct} vs {via_hn}"
            );
        }
    }

    #[test]
    fn census_sa_recommendation_matches_paper() {
        // §VII-A: "we set SA = {Age, Gender}, since each of these two
        // attributes has |A| <= P(A)²·H(A)".
        let schema = Schema::new(vec![
            Attribute::ordinal("Age", 101),
            Attribute::nominal("Gender", privelet_hierarchy::builder::flat(2).unwrap()),
            Attribute::nominal("Occupation", three_level(512, 22).unwrap()),
            Attribute::ordinal("Income", 1001),
        ])
        .unwrap();
        assert_eq!(recommend_sa(&schema), BTreeSet::from([0, 1]));
    }

    #[test]
    fn sa_choice_never_hurts_when_rule_applies() {
        // Adding a rule-qualifying attribute to SA cannot increase the
        // bound (the claim following Eq. 7).
        let schema = Schema::new(vec![
            Attribute::ordinal("small", 16),
            Attribute::ordinal("large", 1 << 12),
        ])
        .unwrap();
        let none = privelet_plus_bound(&schema, &BTreeSet::new(), 1.0).unwrap();
        let with_small = privelet_plus_bound(&schema, &BTreeSet::from([0]), 1.0).unwrap();
        assert!(with_small <= none);
        // And the large attribute should stay wavelet-transformed.
        assert!(!should_exclude(schema.attr(1)));
    }

    #[test]
    fn bad_sa_rejected() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 4)]).unwrap();
        assert!(matches!(
            privelet_plus_bound(&schema, &BTreeSet::from([3]), 1.0).unwrap_err(),
            crate::CoreError::BadSaIndex { index: 3, arity: 1 }
        ));
    }

    #[test]
    fn haar_levels_count_the_padded_domain() {
        // The level count behind P(A) and H(A) of an ordinal attribute
        // counts the padded domain.
        for (size, levels) in [(1, 0), (2, 1), (5, 3), (512, 9), (1001, 10)] {
            assert_eq!(HaarTransform::new(size).levels(), levels, "size {size}");
        }
        // Eq. 4 reads an empty domain as a single value.
        assert_eq!(eq4_ordinal_bound(0, 1.0), eq4_ordinal_bound(1, 1.0));
    }
}
