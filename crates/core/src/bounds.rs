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

use crate::transform::HnTransform;
use crate::{CoreError, Result};
use privelet_data::schema::{Attribute, Domain, Schema};
use std::collections::BTreeSet;

/// `⌈log₂ size⌉` — the padded level count of an ordinal domain.
fn padded_levels(size: usize) -> u32 {
    size.next_power_of_two().trailing_zeros()
}

/// `P(A)` for an attribute (ordinal uses the padded domain size).
fn p_attr(attr: &Attribute) -> f64 {
    match attr.domain() {
        Domain::Ordinal { size } => 1.0 + f64::from(padded_levels(*size)),
        Domain::Nominal { hierarchy } => hierarchy.height() as f64,
    }
}

/// `H(A)` for an attribute (ordinal uses the padded domain size).
fn h_attr(attr: &Attribute) -> f64 {
    match attr.domain() {
        Domain::Ordinal { size } => (2.0 + f64::from(padded_levels(*size))) / 2.0,
        Domain::Nominal { .. } => 4.0,
    }
}

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
    let l = f64::from(padded_levels(m));
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

/// Equation 7 evaluated directly from a schema and an `SA` set.
pub fn privelet_plus_bound(schema: &Schema, sa: &BTreeSet<usize>, epsilon: f64) -> Result<f64> {
    if let Some(&bad) = sa.iter().find(|&&i| i >= schema.arity()) {
        return Err(CoreError::BadSaIndex {
            index: bad,
            arity: schema.arity(),
        });
    }
    let mut rho = 1.0f64;
    let mut hfac = 1.0f64;
    for (i, attr) in schema.attrs().iter().enumerate() {
        if sa.contains(&i) {
            hfac *= attr.size() as f64;
        } else {
            rho *= p_attr(attr);
            hfac *= h_attr(attr);
        }
    }
    Ok(8.0 * rho * rho * hfac / (epsilon * epsilon))
}

/// The §VII-A selection rule: an attribute belongs in `SA` iff
/// `|A| ≤ P(A)²·H(A)` — i.e. Basic's variance contribution for that
/// dimension is no worse than Privelet's.
pub fn should_exclude(attr: &Attribute) -> bool {
    let p = p_attr(attr);
    (attr.size() as f64) <= p * p * h_attr(attr)
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
            assert!(
                (direct - via_hn).abs() < 1e-9 * direct.max(1.0),
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
        assert!(privelet_plus_bound(&schema, &BTreeSet::from([3]), 1.0).is_err());
    }

    #[test]
    fn padded_levels_examples() {
        assert_eq!(padded_levels(1), 0);
        assert_eq!(padded_levels(2), 1);
        assert_eq!(padded_levels(5), 3);
        assert_eq!(padded_levels(512), 9);
        assert_eq!(padded_levels(1001), 10);
    }
}
