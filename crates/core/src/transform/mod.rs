//! Wavelet transforms: 1-D building blocks and the multi-dimensional
//! Haar–nominal composition.
//!
//! - [`transform1d`] — the [`Transform1d`] trait every 1-D transform
//!   implements; the HN transform and the lane-execution engine dispatch
//!   through it.
//! - [`haar`] — the Haar wavelet transform for ordinal dimensions (§IV).
//! - [`nominal`] — the novel nominal wavelet transform for hierarchy-equipped
//!   dimensions (§V), including the mean-subtraction refinement.
//! - [`identity`] — the pass-through used by Privelet⁺ for `SA` dimensions
//!   (§VI-D).
//! - [`hn`] — the multi-dimensional HN transform via standard decomposition
//!   (§VI-A) with factorized weights (§VI-B), executed on the
//!   [`LaneExecutor`](privelet_matrix::LaneExecutor) engine.

pub mod haar;
pub mod hn;
pub mod identity;
pub mod nominal;
pub mod transform1d;

pub use haar::HaarTransform;
pub use hn::HnTransform;
pub use identity::IdentityTransform;
pub use nominal::NominalTransform;
pub use transform1d::Transform1d;

use privelet_data::schema::{Attribute, Domain};

/// The 1-D transform applied along one dimension of the HN transform.
///
/// This enum exists purely as object-safe *storage*: a schema mixes Haar,
/// nominal and identity dimensions, so `HnTransform` needs one sized slot
/// per dimension. All behavior lives in the [`Transform1d`] trait; the
/// enum's own impl is a single match (`as_transform`) and every trait
/// method delegates through it.
#[derive(Debug, Clone, PartialEq)]
pub enum DimTransform {
    /// Haar wavelet transform (ordinal dimension).
    Haar(HaarTransform),
    /// Nominal wavelet transform (nominal dimension with hierarchy).
    Nominal(NominalTransform),
    /// Identity (dimension in Privelet⁺'s `SA` set).
    Identity(IdentityTransform),
}

impl DimTransform {
    /// Chooses the transform for an attribute: Haar for ordinal, nominal
    /// for nominal — unless the attribute is in `SA`, in which case the
    /// identity transform is used (Privelet⁺, §VI-D).
    pub fn for_attribute(attr: &Attribute, in_sa: bool) -> DimTransform {
        if in_sa {
            return DimTransform::Identity(IdentityTransform::new(attr.size()));
        }
        match attr.domain() {
            Domain::Ordinal { size } => DimTransform::Haar(HaarTransform::new(*size)),
            Domain::Nominal { hierarchy } => {
                DimTransform::Nominal(NominalTransform::new(hierarchy.clone()))
            }
        }
    }

    /// The variant as a trait object — the one place the enum is matched.
    #[inline]
    fn as_transform(&self) -> &dyn Transform1d {
        match self {
            DimTransform::Haar(t) => t,
            DimTransform::Nominal(t) => t,
            DimTransform::Identity(t) => t,
        }
    }
}

impl Transform1d for DimTransform {
    #[inline]
    fn input_len(&self) -> usize {
        self.as_transform().input_len()
    }

    #[inline]
    fn output_len(&self) -> usize {
        self.as_transform().output_len()
    }

    #[inline]
    fn scratch_len(&self) -> usize {
        self.as_transform().scratch_len()
    }

    #[inline]
    fn state_len(&self) -> usize {
        self.as_transform().state_len()
    }

    #[inline]
    fn forward(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        self.as_transform().forward(src, dst, scratch)
    }

    #[inline]
    fn inverse(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        self.as_transform().inverse(src, dst, scratch)
    }

    #[inline]
    fn refine(&self, coeffs: &mut [f64]) {
        self.as_transform().refine(coeffs)
    }

    #[inline]
    fn has_refinement(&self) -> bool {
        self.as_transform().has_refinement()
    }

    fn weights(&self) -> Vec<f64> {
        self.as_transform().weights()
    }

    fn query_weights(&self, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        self.as_transform().query_weights(lo, hi)
    }

    fn update_weights(&self, cell: usize) -> Vec<(usize, f64)> {
        self.as_transform().update_weights(cell)
    }

    fn max_update_support(&self) -> usize {
        self.as_transform().max_update_support()
    }

    fn support_variance_factor(&self, support: &[(usize, f64)]) -> f64 {
        self.as_transform().support_variance_factor(support)
    }

    fn p_value(&self) -> f64 {
        self.as_transform().p_value()
    }

    fn h_value(&self) -> f64 {
        self.as_transform().h_value()
    }

    fn kind(&self) -> &'static str {
        self.as_transform().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_hierarchy::builder::three_level;

    #[test]
    fn for_attribute_picks_by_domain_kind() {
        let ord = Attribute::ordinal("age", 10);
        let nom = Attribute::nominal("occ", three_level(8, 2).unwrap());
        assert_eq!(DimTransform::for_attribute(&ord, false).kind(), "haar");
        assert_eq!(DimTransform::for_attribute(&nom, false).kind(), "nominal");
        assert_eq!(DimTransform::for_attribute(&ord, true).kind(), "identity");
        assert_eq!(DimTransform::for_attribute(&nom, true).kind(), "identity");
    }

    #[test]
    fn lane_dispatch_roundtrips() {
        let nom = Attribute::nominal("occ", three_level(9, 3).unwrap());
        for t in [
            DimTransform::for_attribute(&Attribute::ordinal("a", 7), false),
            DimTransform::for_attribute(&nom, false),
            DimTransform::for_attribute(&Attribute::ordinal("a", 7), true),
        ] {
            let n = t.input_len();
            let src: Vec<f64> = (0..n).map(|i| (i as f64) * 1.5 - 3.0).collect();
            let mut c = vec![0.0; t.output_len()];
            let mut scratch = vec![0.0; t.scratch_len()];
            t.forward(&src, &mut c, &mut scratch);
            t.refine(&mut c); // no-op on exact coefficients
            let mut back = vec![0.0; n];
            t.inverse(&c, &mut back, &mut scratch);
            for (a, b) in src.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10, "{} roundtrip", t.kind());
            }
        }
    }

    #[test]
    fn factors_match_section_vi_c() {
        // P(A) = 1 + log2|A| (ordinal), h (nominal), 1 (identity);
        // H(A) = (2 + log2|A|)/2, 4, |A|.
        let ord = DimTransform::for_attribute(&Attribute::ordinal("a", 16), false);
        assert_eq!(ord.p_value(), 5.0);
        assert_eq!(ord.h_value(), 3.0);
        let nom = DimTransform::for_attribute(
            &Attribute::nominal("o", three_level(16, 4).unwrap()),
            false,
        );
        assert_eq!(nom.p_value(), 3.0);
        assert_eq!(nom.h_value(), 4.0);
        let id = DimTransform::for_attribute(&Attribute::ordinal("a", 16), true);
        assert_eq!(id.p_value(), 1.0);
        assert_eq!(id.h_value(), 16.0);
    }

    #[test]
    fn weights_length_matches_output() {
        let t = DimTransform::for_attribute(
            &Attribute::nominal("o", three_level(10, 3).unwrap()),
            false,
        );
        assert_eq!(t.weights().len(), t.output_len());
        assert_eq!(t.output_len(), 14); // 10 leaves + 3 groups + root
    }

    #[test]
    fn trait_and_enum_dispatch_agree() {
        let t = DimTransform::for_attribute(&Attribute::ordinal("a", 6), false);
        let dynt: &dyn Transform1d = t.as_transform();
        assert_eq!(dynt.input_len(), t.input_len());
        assert_eq!(dynt.output_len(), t.output_len());
        assert_eq!(dynt.weights(), t.weights());
        assert_eq!(dynt.kind(), t.kind());
    }
}
