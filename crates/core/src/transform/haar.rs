//! The one-dimensional Haar wavelet transform (§IV).
//!
//! The HWT requires a vector of `2^l` totally ordered elements; shorter
//! ordinal domains are zero-padded ("dummy values", §IV). Coefficients use
//! the classic binary-heap layout:
//!
//! - index `0` — the *base coefficient* `c₀` (mean of all entries);
//! - index `j ∈ [1, 2^l)` — the coefficient of the decomposition-tree node
//!   at level `⌊log₂ j⌋ + 1` (the root `c₁` is index 1; node `j`'s children
//!   are `2j` and `2j+1`). A node's coefficient is `(a₁ − a₂)/2` where `a₁`
//!   (`a₂`) is the average of the leaves in its left (right) subtree.
//!
//! The weight function `W_Haar` (§IV-B) assigns `m` to the base coefficient
//! and `2^(l−i+1)` to a level-`i` coefficient, giving generalized
//! sensitivity `1 + log₂ m` (Lemma 2) and per-query noise variance at most
//! `(2 + log₂ m)/2 · σ²` (Lemma 3).

use super::transform1d::Transform1d;

/// The 1-D Haar transform for an ordinal dimension of `input_len` values,
/// zero-padded to `padded_len = 2^l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaarTransform {
    input_len: usize,
    padded_len: usize,
    levels: u32,
}

impl HaarTransform {
    /// Builds the transform for a domain of `input_len ≥ 1` values.
    pub fn new(input_len: usize) -> Self {
        assert!(input_len >= 1, "Haar transform needs a non-empty domain");
        let padded_len = input_len.next_power_of_two();
        let levels = padded_len.trailing_zeros();
        HaarTransform {
            input_len,
            padded_len,
            levels,
        }
    }

    /// Number of decomposition-tree levels `l = log₂(padded_len)`.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

impl Transform1d for HaarTransform {
    /// Domain size |A| before padding.
    #[inline]
    fn input_len(&self) -> usize {
        self.input_len
    }

    /// Padded length `2^l` (= number of coefficients).
    #[inline]
    fn output_len(&self) -> usize {
        self.padded_len
    }

    /// The heap pyramid the forward keeps (the inverse uses half).
    #[inline]
    fn scratch_len(&self) -> usize {
        2 * self.padded_len
    }

    /// The averaging pyramid in heap layout, leaves included.
    #[inline]
    fn state_len(&self) -> usize {
        2 * self.padded_len
    }

    /// Forward transform with caller-provided scratch (hot path for the
    /// multi-dimensional transform, which reuses one buffer across lanes):
    /// `src.len() == input_len`, `dst.len() == padded_len`,
    /// `scratch.len() >= 2 · padded_len`. `scratch[..2m]` is left holding
    /// the heap pyramid: node `j`'s coefficient is `0.5 * (a − b)` and its
    /// average `0.5 * (a + b)` of its children's averages `a = [2j]`,
    /// `b = [2j + 1]`; leaves sit at `m + x`, zero-padded.
    fn forward(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        let m = self.padded_len;
        debug_assert_eq!(src.len(), self.input_len);
        debug_assert_eq!(dst.len(), m);
        let pyramid = &mut scratch[..2 * m];
        pyramid[0] = 0.0;
        pyramid[m..m + self.input_len].copy_from_slice(src);
        pyramid[m + self.input_len..].fill(0.0);
        // One level at a time, bottom-up: nodes `[half, 2·half)` read
        // their children `[2·half, 4·half)`.
        let mut half = m / 2;
        while half >= 1 {
            let (parents, children) = pyramid.split_at_mut(2 * half);
            for (i, pair) in children[..2 * half].chunks_exact(2).enumerate() {
                let (a, b) = (pair[0], pair[1]);
                parents[half + i] = 0.5 * (a + b);
                dst[half + i] = 0.5 * (a - b);
            }
            half /= 2;
        }
        dst[0] = pyramid[1];
    }

    /// Inverse transform (Equation 3 applied level by level) with
    /// caller-provided scratch: `src.len() == padded_len`,
    /// `dst.len() == input_len`, `scratch.len() >= padded_len`. Entries
    /// beyond the original domain (padding) are discarded.
    fn inverse(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        debug_assert_eq!(src.len(), self.padded_len);
        debug_assert_eq!(dst.len(), self.input_len);
        debug_assert!(scratch.len() >= self.padded_len);
        scratch[0] = src[0];
        let mut half = 1usize;
        while half < self.padded_len {
            // Expand from the back so parents are read before their slots
            // are overwritten.
            for i in (0..half).rev() {
                let parent = scratch[i];
                let detail = src[half + i];
                scratch[2 * i] = parent + detail;
                scratch[2 * i + 1] = parent - detail;
            }
            half *= 2;
        }
        dst.copy_from_slice(&scratch[..self.input_len]);
    }

    /// The weight vector `W_Haar` over the coefficient layout: index 0 → `m`
    /// (padded), index `j` at level `i = ⌊log₂ j⌋+1` → `2^(l−i+1)`.
    fn weights(&self) -> Vec<f64> {
        let l = self.levels;
        let mut w = Vec::with_capacity(self.padded_len);
        w.push(self.padded_len as f64);
        for j in 1..self.padded_len {
            let level_minus_1 = usize::BITS - 1 - j.leading_zeros(); // floor(log2 j)
            w.push((1u64 << (l - level_minus_1)) as f64);
        }
        w
    }

    /// Sparse support of the interval-sum functional (§IV / Theorem 1's
    /// dual): the base coefficient contributes once per covered cell, and
    /// a detail coefficient `c_j` contributes `+1` per covered cell in its
    /// left subtree and `−1` per covered cell in its right subtree — which
    /// cancels to zero unless node `j`'s span straddles `lo` or `hi`. The
    /// only candidates are therefore the ancestors of the two boundary
    /// leaves, so the support has at most `2·log₂ m + 1` entries and a
    /// range-count query can be answered in O(log m) coefficient reads.
    fn query_weights(&self, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        assert!(
            lo <= hi && hi < self.input_len,
            "interval [{lo}, {hi}] out of range for domain of {}",
            self.input_len
        );
        let m = self.padded_len;
        let mut out = Vec::with_capacity(2 * self.levels as usize + 1);
        out.push((0usize, (hi - lo + 1) as f64));
        // |[lo, hi] ∩ [a, b)| for an inclusive query interval.
        let overlap = |a: usize, b: usize| -> usize {
            let l = lo.max(a);
            let r = hi.min(b - 1);
            if l > r {
                0
            } else {
                r - l + 1
            }
        };
        // Node j of level s (counting up from the leaves) spans 2^s leaves
        // and is node j − 2^(l−s) of its level.
        let mut push = |j: usize, s: u32| {
            let span = 1usize << s;
            let start = (j - (m >> s)) * span;
            let mid = start + span / 2;
            let w = overlap(start, mid) as f64 - overlap(mid, start + span) as f64;
            if w != 0.0 {
                out.push((j, w));
            }
        };
        // Candidate nodes: the ancestors of the two boundary leaves in the
        // virtual heap (leaf x ↔ virtual node m + x), walked level by level
        // from the root. Heap indices grow level by level and a ≤ b within
        // a level, so pushing a, then b once the paths split, visits each
        // candidate once, in ascending order.
        for s in (1..=self.levels).rev() {
            let a = (m + lo) >> s;
            let b = (m + hi) >> s;
            push(a, s);
            if b != a {
                push(b, s);
            }
        }
        out
    }

    /// Sparse forward column at `cell`: the base coefficient moves by
    /// `1/m` per unit and each ancestor of the virtual leaf `m + cell`
    /// moves by `±1/span` (`+` from the left subtree, `−` from the
    /// right) — exactly `log₂ m + 1` entries, ascending by index.
    fn update_weights(&self, cell: usize) -> Vec<(usize, f64)> {
        assert!(
            cell < self.input_len,
            "cell {cell} out of range for domain of {}",
            self.input_len
        );
        let m = self.padded_len;
        let mut out = Vec::with_capacity(self.levels as usize + 1);
        out.push((0usize, 1.0 / m as f64));
        let leaf = m + cell;
        // Ancestors from the root down (ascending heap index), matching
        // query_weights' deterministic ordering.
        for s in (1..=self.levels).rev() {
            let j = leaf >> s;
            let child = leaf >> (s - 1);
            let level_minus_1 = usize::BITS - 1 - j.leading_zeros();
            let span = (m >> level_minus_1) as f64;
            let w = if child & 1 == 0 {
                1.0 / span
            } else {
                -1.0 / span
            };
            out.push((j, w));
        }
        out
    }

    /// Every cell touches the base plus one node per level.
    fn max_update_support(&self) -> usize {
        self.levels as usize + 1
    }

    /// Sparse variance factor `Σ_j (u(j)/W(j))²`: Haar has no refinement,
    /// so `u` is the support itself, and each entry's weight is computed
    /// in O(1) from its heap index (base → `m`, level-`i` node →
    /// `2^(l−i+1)`) — no O(m) weight vector is materialized.
    fn support_variance_factor(&self, support: &[(usize, f64)]) -> f64 {
        support
            .iter()
            .map(|&(j, v)| {
                let w = if j == 0 {
                    self.padded_len as f64
                } else {
                    let level_minus_1 = usize::BITS - 1 - j.leading_zeros();
                    (1u64 << (self.levels - level_minus_1)) as f64
                };
                let scaled = v / w;
                scaled * scaled
            })
            .sum()
    }

    /// Generalized sensitivity `P(A) = 1 + log₂ m` of the transform w.r.t.
    /// its weights (Lemma 2, exact — property-tested below).
    fn p_value(&self) -> f64 {
        1.0 + f64::from(self.levels)
    }

    /// Per-query variance factor `H(A) = (2 + log₂ m)/2` (Lemma 3).
    fn h_value(&self) -> f64 {
        (2.0 + f64::from(self.levels)) / 2.0
    }

    /// No refinement step for Haar coefficients.
    fn has_refinement(&self) -> bool {
        false
    }

    fn kind(&self) -> &'static str {
        "haar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-2 example: M = [9,3,6,2,8,4,5,7].
    const FIG2: [f64; 8] = [9.0, 3.0, 6.0, 2.0, 8.0, 4.0, 5.0, 7.0];

    #[test]
    fn figure2_coefficients() {
        let t = HaarTransform::new(8);
        let mut c = vec![0.0; 8];
        t.forward_alloc(&FIG2, &mut c);
        // c0..c7 per Figure 2: 5.5, -0.5, 1, 0, 3, 2, 2, -1.
        assert_eq!(c, vec![5.5, -0.5, 1.0, 0.0, 3.0, 2.0, 2.0, -1.0]);
    }

    #[test]
    fn figure2_weights() {
        // WHaar assigns 8, 8, 4, 2 to c0, c1, c2, c4 (§IV-B).
        let t = HaarTransform::new(8);
        let w = t.weights();
        assert_eq!(w, vec![8.0, 8.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn example2_reconstruction_identity() {
        // v2 = c0 + c1 + c2 - c4 (Example 2).
        let t = HaarTransform::new(8);
        let mut c = vec![0.0; 8];
        t.forward_alloc(&FIG2, &mut c);
        assert_eq!(c[0] + c[1] + c[2] - c[4], 3.0);
        let mut back = vec![0.0; 8];
        t.inverse_alloc(&c, &mut back);
        assert_eq!(back, FIG2.to_vec());
    }

    #[test]
    fn roundtrip_with_padding() {
        // |A| = 5 pads to 8; inverse truncates the dummies.
        let t = HaarTransform::new(5);
        assert_eq!(t.output_len(), 8);
        let src = [1.0, -2.0, 3.5, 0.0, 7.0];
        let mut c = vec![0.0; 8];
        t.forward_alloc(&src, &mut c);
        let mut back = vec![0.0; 5];
        t.inverse_alloc(&c, &mut back);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_lengths() {
        // |A| = 1: single base coefficient, identity mapping.
        let t = HaarTransform::new(1);
        assert_eq!(t.output_len(), 1);
        assert_eq!(t.levels(), 0);
        let mut c = vec![0.0];
        t.forward_alloc(&[42.0], &mut c);
        assert_eq!(c, vec![42.0]);
        assert_eq!(t.weights(), vec![1.0]);
        assert_eq!(t.p_value(), 1.0);
        let mut back = vec![0.0];
        t.inverse_alloc(&c, &mut back);
        assert_eq!(back, vec![42.0]);

        // |A| = 2: base + one detail.
        let t2 = HaarTransform::new(2);
        let mut c2 = vec![0.0; 2];
        t2.forward_alloc(&[10.0, 4.0], &mut c2);
        assert_eq!(c2, vec![7.0, 3.0]);
        assert_eq!(t2.weights(), vec![2.0, 2.0]);
    }

    #[test]
    fn base_coefficient_is_mean() {
        let t = HaarTransform::new(8);
        let mut c = vec![0.0; 8];
        t.forward_alloc(&FIG2, &mut c);
        let mean: f64 = FIG2.iter().sum::<f64>() / 8.0;
        assert!((c[0] - mean).abs() < 1e-12);
    }

    #[test]
    fn linearity() {
        let t = HaarTransform::new(8);
        let a = FIG2;
        let b: Vec<f64> = FIG2.iter().map(|v| v * -0.5 + 1.0).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let mut ca = vec![0.0; 8];
        let mut cb = vec![0.0; 8];
        let mut cs = vec![0.0; 8];
        t.forward_alloc(&a, &mut ca);
        t.forward_alloc(&b, &mut cb);
        t.forward_alloc(&sum, &mut cs);
        for i in 0..8 {
            assert!((cs[i] - (ca[i] + cb[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn lemma2_sensitivity_is_exact_for_every_cell() {
        // Changing any single entry by delta changes the weighted coefficient
        // L1 norm by exactly (1 + log2 m) * delta.
        for len in [4usize, 8, 16] {
            let t = HaarTransform::new(len);
            let w = t.weights();
            let delta = 1.0;
            for cell in 0..len {
                let mut unit = vec![0.0; len];
                unit[cell] = delta;
                let mut c = vec![0.0; t.output_len()];
                t.forward_alloc(&unit, &mut c);
                let weighted: f64 = c.iter().zip(&w).map(|(ci, wi)| wi * ci.abs()).sum();
                let expected = t.p_value() * delta;
                assert!(
                    (weighted - expected).abs() < 1e-9,
                    "len={len} cell={cell}: {weighted} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn padded_sensitivity_uses_padded_levels() {
        // |A| = 5 pads to 8 -> P = 1 + 3 = 4 for real cells too.
        let t = HaarTransform::new(5);
        let w = t.weights();
        for cell in 0..5 {
            let mut unit = vec![0.0; 5];
            unit[cell] = 1.0;
            let mut c = vec![0.0; 8];
            t.forward_alloc(&unit, &mut c);
            let weighted: f64 = c.iter().zip(&w).map(|(ci, wi)| wi * ci.abs()).sum();
            assert!((weighted - 4.0).abs() < 1e-9, "cell {cell}: {weighted}");
        }
    }

    #[test]
    fn query_weights_reproduce_example2() {
        // The single-cell interval [1, 1] is Example 2's reconstruction:
        // v2 = c0 + c1 + c2 - c4.
        let t = HaarTransform::new(8);
        let w = t.query_weights(1, 1);
        assert_eq!(w, vec![(0, 1.0), (1, 1.0), (2, 1.0), (4, -1.0)]);
    }

    #[test]
    fn query_weights_are_adjoint_of_inverse() {
        // Σ_k w_k·c_k == Σ_{x∈[lo,hi]} inverse(c)[x] for arbitrary
        // (noisy-like) coefficient vectors, every interval, padded or not.
        for len in [1usize, 2, 5, 8, 13, 16] {
            let t = HaarTransform::new(len);
            let c: Vec<f64> = (0..t.output_len())
                .map(|i| ((i * 73 + 11) % 19) as f64 * 0.37 - 3.0)
                .collect();
            let mut back = vec![0.0; len];
            t.inverse_alloc(&c, &mut back);
            for lo in 0..len {
                for hi in lo..len {
                    let direct: f64 = back[lo..=hi].iter().sum();
                    let sparse: f64 = t.query_weights(lo, hi).iter().map(|&(k, w)| w * c[k]).sum();
                    assert!(
                        (direct - sparse).abs() < 1e-9,
                        "len={len} [{lo},{hi}]: {direct} vs {sparse}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_weight_support_is_logarithmic() {
        // Every interval's support is ≤ 2·log₂ m + 1 coefficients, even
        // for intervals covering most of a large domain.
        let t = HaarTransform::new(1 << 10);
        let bound = 2 * 10 + 1;
        for (lo, hi) in [(0, 1023), (1, 1022), (511, 512), (0, 800), (37, 901)] {
            let support = t.query_weights(lo, hi);
            assert!(
                support.len() <= bound,
                "[{lo},{hi}]: {} entries > {bound}",
                support.len()
            );
            assert!(support.iter().all(|&(_, w)| w != 0.0));
        }
    }

    #[test]
    fn update_weights_are_the_forward_column() {
        // The sparse column at `cell` must equal forward(e_cell)
        // restricted to its nonzeros, with exactly log₂ m + 1 entries.
        for len in [1usize, 2, 5, 8, 13, 16] {
            let t = HaarTransform::new(len);
            for cell in 0..len {
                let mut unit = vec![0.0; len];
                unit[cell] = 1.0;
                let mut dense = vec![0.0; t.output_len()];
                t.forward_alloc(&unit, &mut dense);
                let sparse = t.update_weights(cell);
                assert_eq!(sparse.len(), t.max_update_support());
                assert_eq!(sparse.len(), t.levels() as usize + 1);
                let mut rebuilt = vec![0.0; t.output_len()];
                for &(j, w) in &sparse {
                    rebuilt[j] += w;
                }
                for (j, (&d, &r)) in dense.iter().zip(&rebuilt).enumerate() {
                    assert!(
                        (d - r).abs() < 1e-12,
                        "len={len} cell={cell} coeff {j}: {d} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_weights_figure2_single_cell() {
        // Dual of Example 2: bumping v2 (cell 1) by δ moves c0 and c1 by
        // δ/8, c2 by δ/4, and c4 by −δ/2.
        let t = HaarTransform::new(8);
        assert_eq!(
            t.update_weights(1),
            vec![(0, 0.125), (1, 0.125), (2, 0.25), (4, -0.5)]
        );
    }

    #[test]
    fn scratch_and_alloc_paths_agree() {
        let t = HaarTransform::new(6);
        let src = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let mut c1 = vec![0.0; 8];
        let mut c2 = vec![0.0; 8];
        let mut scratch = vec![0.0; t.scratch_len()];
        t.forward_alloc(&src, &mut c1);
        t.forward(&src, &mut c2, &mut scratch);
        assert_eq!(c1, c2);
        let mut b1 = vec![0.0; 6];
        let mut b2 = vec![0.0; 6];
        t.inverse_alloc(&c1, &mut b1);
        t.inverse(&c1, &mut b2, &mut scratch);
        assert_eq!(b1, b2);
    }

    /// The forward leaves its kernel state in scratch: the zero-padded
    /// leaves at `m + x` and every node's average at its heap index, from
    /// which each detail coefficient is `0.5 * (a − b)` of its children.
    #[test]
    fn forward_leaves_the_heap_pyramid_in_scratch() {
        let t = HaarTransform::new(6);
        let src = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let mut c = vec![0.0; 8];
        let mut scratch = vec![f64::NAN; t.scratch_len()];
        t.forward(&src, &mut c, &mut scratch);
        let state = &scratch[..t.state_len()];
        assert_eq!(state.len(), 16);
        assert_eq!(state[0], 0.0);
        assert_eq!(&state[8..14], &src);
        assert_eq!(&state[14..], &[0.0, 0.0]);
        for j in 1..8 {
            assert_eq!(state[j], 0.5 * (state[2 * j] + state[2 * j + 1]), "avg {j}");
            assert_eq!(c[j], 0.5 * (state[2 * j] - state[2 * j + 1]), "detail {j}");
        }
        assert_eq!(c[0], state[1]);
    }
}
