//! The identity "transform" used by Privelet⁺ for attributes in `SA`.
//!
//! Privelet⁺ (§VI-D) splits the frequency matrix along the dimensions in
//! `SA` and applies the HN wavelet transform only to the remaining
//! dimensions. Algebraically this is the HN transform in which every `SA`
//! dimension uses the identity map with unit weights: the per-sub-matrix
//! processing of Figure 5 and the identity-dimension formulation touch the
//! same cells with the same weights (asserted by `tests/equivalence.rs` at
//! the workspace root). The identity transform has generalized sensitivity
//! `P(A) = 1` and per-query variance factor `H(A) = |A|` (Corollary 1).

use super::transform1d::Transform1d;

/// Identity transform over a domain of `len` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityTransform {
    len: usize,
}

impl IdentityTransform {
    /// Builds the identity transform for a domain of `len ≥ 1` values.
    pub fn new(len: usize) -> Self {
        assert!(len >= 1, "identity transform needs a non-empty domain");
        IdentityTransform { len }
    }
}

impl Transform1d for IdentityTransform {
    /// Domain size |A|.
    #[inline]
    fn input_len(&self) -> usize {
        self.len
    }

    /// Output length (= input length).
    #[inline]
    fn output_len(&self) -> usize {
        self.len
    }

    /// The kernel state is the lane itself.
    #[inline]
    fn state_len(&self) -> usize {
        self.len
    }

    /// Forward: copy, keeping the lane as the state. Only the streaming
    /// release runs this kernel inside an HN transform: a plain forward
    /// skips identity axes (see [`HnTransform`](super::HnTransform)).
    fn forward(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        debug_assert_eq!(src.len(), self.len);
        debug_assert_eq!(dst.len(), self.len);
        scratch[..self.len].copy_from_slice(src);
        dst.copy_from_slice(src);
    }

    /// Inverse: copy.
    fn inverse(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
        debug_assert_eq!(src.len(), self.len);
        debug_assert_eq!(dst.len(), self.len);
        dst.copy_from_slice(src);
    }

    /// Unit weights.
    fn weights(&self) -> Vec<f64> {
        vec![1.0; self.len]
    }

    /// Interval-sum support: the covered cells themselves, weight 1 each
    /// (coefficients *are* cells for the identity transform).
    fn query_weights(&self, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        assert!(
            lo <= hi && hi < self.len,
            "interval [{lo}, {hi}] out of range for domain of {}",
            self.len
        );
        (lo..=hi).map(|i| (i, 1.0)).collect()
    }

    /// Single-cell-increment support: the cell itself, weight 1.
    fn update_weights(&self, cell: usize) -> Vec<(usize, f64)> {
        assert!(
            cell < self.len,
            "cell {cell} out of range for domain of {}",
            self.len
        );
        vec![(cell, 1.0)]
    }

    /// An increment touches exactly one coefficient.
    fn max_update_support(&self) -> usize {
        1
    }

    /// Sparse variance factor: unit weights and no refinement, so the
    /// factor is the plain sum of squared support weights — the covered
    /// cell count for an interval support (Basic's per-query formula).
    fn support_variance_factor(&self, support: &[(usize, f64)]) -> f64 {
        support.iter().map(|&(_, v)| v * v).sum()
    }

    /// Generalized sensitivity factor `P(A) = 1`.
    fn p_value(&self) -> f64 {
        1.0
    }

    /// Variance factor `H(A) = |A|`.
    fn h_value(&self) -> f64 {
        self.len as f64
    }

    /// No refinement step for pass-through dimensions.
    fn has_refinement(&self) -> bool {
        false
    }

    fn kind(&self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_both_ways() {
        let t = IdentityTransform::new(4);
        let src = [1.0, -2.0, 3.0, 4.5];
        let mut c = [0.0; 4];
        t.forward_alloc(&src, &mut c);
        assert_eq!(c, src);
        let mut back = [0.0; 4];
        t.inverse_alloc(&c, &mut back);
        assert_eq!(back, src);
        // The kernel state is the lane itself, left in scratch.
        assert_eq!(t.scratch_len(), 4);
        let mut scratch = [0.0; 4];
        t.forward(&src, &mut c, &mut scratch);
        assert_eq!((t.state_len(), scratch), (4, src));
    }

    #[test]
    fn query_weights_are_the_covered_cells() {
        let t = IdentityTransform::new(5);
        assert_eq!(t.query_weights(1, 3), vec![(1, 1.0), (2, 1.0), (3, 1.0)]);
        assert_eq!(t.query_weights(4, 4), vec![(4, 1.0)]);
    }

    #[test]
    fn update_weights_are_the_single_cell() {
        let t = IdentityTransform::new(5);
        assert_eq!(t.update_weights(2), vec![(2, 1.0)]);
        assert_eq!(t.max_update_support(), 1);
    }

    #[test]
    fn factors_match_corollary_1() {
        let t = IdentityTransform::new(16);
        assert_eq!(t.p_value(), 1.0);
        assert_eq!(t.h_value(), 16.0);
        assert_eq!(t.weights(), vec![1.0; 16]);
        assert_eq!(t.output_len(), 16);
    }
}
