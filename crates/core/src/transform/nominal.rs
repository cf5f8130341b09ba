//! The nominal wavelet transform (§V).
//!
//! Given a 1-D frequency vector over a nominal domain with hierarchy `H`,
//! the transform produces one coefficient per node of `H` (the
//! decomposition tree `R` is `H` with a value-child attached to each leaf,
//! so `H`'s nodes are exactly `R`'s internal nodes):
//!
//! - the *base coefficient* (root) is the sum of all entries (leaf-sum of
//!   the root);
//! - any other node's coefficient is its leaf-sum minus the **average**
//!   leaf-sum of its parent's children.
//!
//! Coefficients are laid out in level order of `H` (base first), matching
//! §VI-A. The transform is *over-complete*: it emits `node_count ≥
//! leaf_count` coefficients.
//!
//! Reconstruction follows Equation 5: an entry `v` equals the reconstructed
//! leaf-sum of its `H`-leaf, computed top-down as
//! `ls(node) = c(node) + ls(parent)/fanout(parent)`.
//!
//! The weight function `W_Nom` (§V-B) assigns 1 to the base coefficient and
//! `f/(2f−2)` (where `f` is the parent's fanout) to every other
//! coefficient, giving generalized sensitivity `h` (the hierarchy height,
//! Lemma 4). The *mean-subtraction* refinement (§V-B) re-centers every
//! noisy sibling group to sum to zero; on exact coefficients it is a no-op,
//! and after it every range-count query carries noise variance `< 4σ²`
//! (Lemma 5).

use super::transform1d::Transform1d;
use privelet_hierarchy::Hierarchy;
use std::sync::Arc;

/// The 1-D nominal wavelet transform for a hierarchy-equipped domain.
/// Two transforms are equal when their hierarchies are structurally equal.
#[derive(Debug, Clone, PartialEq)]
pub struct NominalTransform {
    hierarchy: Arc<Hierarchy>,
}

impl NominalTransform {
    /// Builds the transform over a hierarchy.
    pub fn new(hierarchy: Arc<Hierarchy>) -> Self {
        NominalTransform { hierarchy }
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Arc<Hierarchy> {
        &self.hierarchy
    }

    /// The mean-subtraction refinement (§V-B): within every sibling group
    /// (children of one internal node), subtract the group mean so the
    /// group sums to zero. Operates on a coefficient lane in level-order
    /// layout. A no-op on exact coefficients.
    fn mean_subtract(&self, coeffs: &mut [f64]) {
        let h = &self.hierarchy;
        debug_assert_eq!(coeffs.len(), h.node_count());
        for group in h.sibling_groups() {
            let mean: f64 = group
                .iter()
                .map(|&id| coeffs[h.level_order_pos(id)])
                .sum::<f64>()
                / group.len() as f64;
            for &id in group {
                coeffs[h.level_order_pos(id)] -= mean;
            }
        }
    }
}

impl Transform1d for NominalTransform {
    /// Domain size |A| (= leaf count).
    #[inline]
    fn input_len(&self) -> usize {
        self.hierarchy.leaf_count()
    }

    /// Number of coefficients `m'` (= node count; over-complete).
    #[inline]
    fn output_len(&self) -> usize {
        self.hierarchy.node_count()
    }

    /// The kernel state: one leaf-sum per hierarchy node.
    #[inline]
    fn state_len(&self) -> usize {
        self.hierarchy.node_count()
    }

    /// Forward transform: `src.len() == leaf_count`,
    /// `dst.len() == node_count`; `scratch[..node_count]` is left holding
    /// the leaf-sums by node id (the kernel state).
    fn forward(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        let h = &self.hierarchy;
        debug_assert_eq!(src.len(), h.leaf_count());
        debug_assert_eq!(dst.len(), h.node_count());
        debug_assert!(scratch.len() >= h.node_count());
        // Leaf-sums bottom-up: reverse level order visits children first.
        for pos in 0..h.leaf_count() {
            scratch[h.leaf_node(pos)] = src[pos];
        }
        for &id in h.level_order().iter().rev() {
            if !h.is_leaf(id) {
                scratch[id] = h.children(id).iter().map(|&c| scratch[c]).sum();
            }
        }
        // Coefficients in level order.
        for &id in h.level_order() {
            let pos = h.level_order_pos(id);
            dst[pos] = match h.parent(id) {
                None => scratch[id], // base = leaf-sum of the root
                Some(p) => scratch[id] - scratch[p] / h.fanout(p) as f64,
            };
        }
    }

    /// Inverse transform (Equation 5): `src.len() == node_count`,
    /// `dst.len() == leaf_count`; `scratch.len() >= node_count` holds the
    /// reconstructed leaf-sums.
    fn inverse(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        let h = &self.hierarchy;
        debug_assert_eq!(src.len(), h.node_count());
        debug_assert_eq!(dst.len(), h.leaf_count());
        debug_assert!(scratch.len() >= h.node_count());
        // Leaf-sums top-down.
        for &id in h.level_order() {
            let pos = h.level_order_pos(id);
            scratch[id] = match h.parent(id) {
                None => src[pos],
                Some(p) => src[pos] + scratch[p] / h.fanout(p) as f64,
            };
        }
        for pos in 0..h.leaf_count() {
            dst[pos] = scratch[h.leaf_node(pos)];
        }
    }

    /// The refinement is the mean subtraction (§V-B).
    fn refine(&self, coeffs: &mut [f64]) {
        self.mean_subtract(coeffs);
    }

    fn has_refinement(&self) -> bool {
        true
    }

    /// The weight vector `W_Nom` over the level-order coefficient layout:
    /// base → 1; otherwise `f/(2f−2)` where `f` is the parent's fanout.
    fn weights(&self) -> Vec<f64> {
        let h = &self.hierarchy;
        let mut w = vec![0.0f64; h.node_count()];
        for &id in h.level_order() {
            let pos = h.level_order_pos(id);
            w[pos] = match h.parent(id) {
                None => 1.0,
                Some(p) => {
                    let f = h.fanout(p) as f64;
                    f / (2.0 * f - 2.0)
                }
            };
        }
        w
    }

    /// Interval-sum support: the adjoint of the Equation-5 reconstruction
    /// applied to the interval's indicator, run sparsely bottom-up.
    ///
    /// Seed every covered leaf's coefficient with weight 1, then fold each
    /// node's accumulated weight into its parent scaled by `1/fanout` —
    /// exactly reversing `ls(node) = c(node) + ls(parent)/fanout(parent)`.
    /// Level-order positions are monotone in depth, so draining a map in
    /// descending position order processes every node after all of its
    /// children. The support is the covered leaves plus their ancestors —
    /// O(cells + height) entries; unlike Haar, covered leaves never
    /// cancel (each carries weight 1), so the per-covered-cell term is
    /// irreducible even for the §II-A whole-subtree query shape.
    fn query_weights(&self, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        let h = &self.hierarchy;
        assert!(
            lo <= hi && hi < h.leaf_count(),
            "interval [{lo}, {hi}] out of range for domain of {}",
            h.leaf_count()
        );
        let mut acc = std::collections::BTreeMap::new();
        for pos in lo..=hi {
            acc.insert(h.level_order_pos(h.leaf_node(pos)), 1.0f64);
        }
        let mut out = Vec::new();
        while let Some((pos, w)) = acc.pop_last() {
            out.push((pos, w));
            let id = h.level_order()[pos];
            if let Some(p) = h.parent(id) {
                *acc.entry(h.level_order_pos(p)).or_insert(0.0) += w / h.fanout(p) as f64;
            }
        }
        out.reverse();
        out
    }

    /// Sparse forward column at leaf `cell`: adding `δ` at the leaf adds
    /// `δ` to the leaf-sum of every root-path node, so the touched
    /// coefficients are the root (moves by `δ`) plus every *child of a
    /// path node* — the path member of a fanout-`f` group moves by
    /// `δ(1 − 1/f)` and each silent sibling by `−δ/f` (their coefficient
    /// reads the parent's leaf-sum). Zero-weight entries (fanout-1
    /// groups) are dropped, matching `query_weights`' nonzero contract.
    fn update_weights(&self, cell: usize) -> Vec<(usize, f64)> {
        let h = &self.hierarchy;
        assert!(
            cell < h.leaf_count(),
            "cell {cell} out of range for domain of {}",
            h.leaf_count()
        );
        let mut node = h.leaf_node(cell);
        let mut path = vec![node];
        while let Some(p) = h.parent(node) {
            path.push(p);
            node = p;
        }
        // `node` is now the root.
        let mut out = vec![(h.level_order_pos(node), 1.0)];
        for k in 1..path.len() {
            let p = path[k];
            let f = h.fanout(p) as f64;
            for &c in h.children(p) {
                let w = if c == path[k - 1] {
                    1.0 - 1.0 / f
                } else {
                    -1.0 / f
                };
                if w != 0.0 {
                    out.push((h.level_order_pos(c), w));
                }
            }
        }
        out.sort_unstable_by_key(|&(pos, _)| pos);
        out
    }

    /// Deepest-path touch count: the root plus one whole sibling group
    /// per internal path node, maximized over leaves — `1 + Σ fanout`
    /// along the worst root path (so it *exceeds* `⌈log₂ m⌉ + 1` for
    /// wide hierarchies, unlike Haar).
    fn max_update_support(&self) -> usize {
        let h = &self.hierarchy;
        (0..h.leaf_count())
            .map(|pos| {
                let mut n = 1usize;
                let mut id = h.leaf_node(pos);
                while let Some(p) = h.parent(id) {
                    n += h.fanout(p);
                    id = p;
                }
                n
            })
            .max()
            .unwrap_or(1)
    }

    /// Sparse variance factor `Σ_j (u(j)/W(j))²` where `u` is the support
    /// pushed through the adjoint of the mean-subtraction refinement.
    ///
    /// The refinement subtracts each sibling group's mean, which is a
    /// symmetric projection, so its adjoint is the same group-mean
    /// subtraction applied to the support weights: for a group of fanout
    /// `f` whose members carry support weights `v_j` (zero off the
    /// support) and mean `μ = Σ v_j / f`, the refined weights are
    /// `v_j − μ` on the support members and `−μ` on the `f − s` silent
    /// siblings. All siblings share one coefficient weight
    /// (`W = f/(2f−2)`, a function of the parent's fanout), so the
    /// group's contribution collapses to the closed form
    /// `(Σ v_j² − 2μ·Σ v_j + f·μ²)/W²` — O(s) per touched group, never
    /// O(f). The base coefficient has no siblings and passes through
    /// unrefined.
    fn support_variance_factor(&self, support: &[(usize, f64)]) -> f64 {
        let h = &self.hierarchy;
        let mut factor = 0.0f64;
        // Per touched sibling group: (Σv, Σv², members in support).
        let mut groups: std::collections::BTreeMap<usize, (f64, f64)> =
            std::collections::BTreeMap::new();
        for &(pos, v) in support {
            let id = h.level_order()[pos];
            match h.parent(id) {
                None => factor += v * v, // base: weight 1, no siblings
                Some(p) => {
                    let entry = groups.entry(p).or_insert((0.0, 0.0));
                    entry.0 += v;
                    entry.1 += v * v;
                }
            }
        }
        for (parent, (sum, sum_sq)) in groups {
            let f = h.fanout(parent) as f64;
            let w = f / (2.0 * f - 2.0);
            let mu = sum / f;
            // Σ_{j∈S}(v_j−μ)² + (f−s)·μ², with the silent-sibling term
            // folded in: Σv² − 2μ·Σv + f·μ².
            let refined_sq = sum_sq - 2.0 * mu * sum + f * mu * mu;
            factor += refined_sq / (w * w);
        }
        factor
    }

    /// Generalized sensitivity `P(A) = h` (Lemma 4; for non-uniform-depth
    /// hierarchies this is the maximum leaf depth, which the sensitivity
    /// achieves at the deepest leaves).
    fn p_value(&self) -> f64 {
        self.hierarchy.height() as f64
    }

    /// Per-query variance factor `H(A) = 4` (Lemma 5; requires the
    /// mean-subtraction refinement).
    fn h_value(&self) -> f64 {
        4.0
    }

    fn kind(&self) -> &'static str {
        "nominal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_hierarchy::Spec;

    /// The Figure-3 hierarchy and frequency vector M = [9,3,6,2,8,2].
    fn figure3() -> (Arc<Hierarchy>, [f64; 6]) {
        let h = Spec::internal(
            "any",
            vec![
                Spec::internal(
                    "c1",
                    vec![Spec::leaf("v1"), Spec::leaf("v2"), Spec::leaf("v3")],
                ),
                Spec::internal(
                    "c2",
                    vec![Spec::leaf("v4"), Spec::leaf("v5"), Spec::leaf("v6")],
                ),
            ],
        )
        .build()
        .unwrap();
        (Arc::new(h), [9.0, 3.0, 6.0, 2.0, 8.0, 2.0])
    }

    #[test]
    fn figure3_coefficients() {
        let (h, m) = figure3();
        let t = NominalTransform::new(h);
        assert_eq!(t.input_len(), 6);
        assert_eq!(t.output_len(), 9);
        let mut c = vec![0.0; 9];
        t.forward_alloc(&m, &mut c);
        // Level order: c0 (base), c1, c2, then the six leaves c3..c8.
        // Figure 3: c0=30, c1=3, c2=-3, c3..c8 = 3, -3, 0, -2, 4, -2.
        assert_eq!(c, vec![30.0, 3.0, -3.0, 3.0, -3.0, 0.0, -2.0, 4.0, -2.0]);
    }

    #[test]
    fn example3_reconstruction() {
        // v1 = c3 + c0/2/3 + c1/3 = 3 + 5 + 1 = 9.
        let (h, m) = figure3();
        let t = NominalTransform::new(h);
        let mut c = vec![0.0; 9];
        t.forward_alloc(&m, &mut c);
        assert_eq!(c[3] + c[0] / 6.0 + c[1] / 3.0, 9.0);
        let mut back = vec![0.0; 6];
        t.inverse_alloc(&c, &mut back);
        for (a, b) in m.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn weights_depend_on_parent_fanout() {
        let (h, _) = figure3();
        let t = NominalTransform::new(h);
        let w = t.weights();
        assert_eq!(w[0], 1.0);
        // c1, c2 have parent fanout 2 -> 2/(2*2-2) = 1.
        assert_eq!(w[1], 1.0);
        assert_eq!(w[2], 1.0);
        // Leaves have parent fanout 3 -> 3/4.
        for &leaf_w in &w[3..9] {
            assert_eq!(leaf_w, 0.75);
        }
    }

    #[test]
    fn sibling_groups_sum_to_zero_exactly() {
        let (h, m) = figure3();
        let t = NominalTransform::new(h.clone());
        let mut c = vec![0.0; 9];
        t.forward_alloc(&m, &mut c);
        for group in h.sibling_groups() {
            let s: f64 = group.iter().map(|&id| c[h.level_order_pos(id)]).sum();
            assert!(s.abs() < 1e-12, "group sums to {s}");
        }
    }

    #[test]
    fn mean_subtraction_is_noop_on_exact_coefficients() {
        let (h, m) = figure3();
        let t = NominalTransform::new(h);
        let mut c = vec![0.0; 9];
        t.forward_alloc(&m, &mut c);
        let before = c.clone();
        t.mean_subtract(&mut c);
        for (a, b) in before.iter().zip(&c) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_subtraction_recenters_noisy_groups() {
        let (h, m) = figure3();
        let t = NominalTransform::new(h.clone());
        let mut c = vec![0.0; 9];
        t.forward_alloc(&m, &mut c);
        // Perturb one leaf coefficient; its group no longer sums to 0.
        c[3] += 6.0;
        t.mean_subtract(&mut c);
        for group in h.sibling_groups() {
            let s: f64 = group.iter().map(|&id| c[h.level_order_pos(id)]).sum();
            assert!(s.abs() < 1e-12);
        }
        // The perturbation is spread: c3 got +6 - 2 = +4 relative to exact.
        assert_eq!(c[3], 3.0 + 4.0);
        assert_eq!(c[4], -3.0 - 2.0);
    }

    #[test]
    fn query_weights_reproduce_example3() {
        // The single-leaf interval [0, 0] is Example 3's reconstruction:
        // v1 = c3 + c1/3 + c0/6.
        let (h, _) = figure3();
        let t = NominalTransform::new(h);
        let w = t.query_weights(0, 0);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], (0, 1.0 / 6.0));
        assert_eq!(w[1], (1, 1.0 / 3.0));
        assert_eq!(w[2], (3, 1.0));
    }

    #[test]
    fn query_weights_are_adjoint_of_inverse() {
        // Σ_k w_k·c_k == Σ_{x∈[lo,hi]} inverse(c)[x] for arbitrary
        // coefficient vectors on uneven hierarchies too.
        let hierarchies = vec![
            figure3().0,
            Arc::new(privelet_hierarchy::builder::flat(7).unwrap()),
            Arc::new(
                Spec::internal(
                    "root",
                    vec![
                        Spec::leaf("a"),
                        Spec::internal("b", vec![Spec::leaf("c"), Spec::leaf("d")]),
                    ],
                )
                .build()
                .unwrap(),
            ),
        ];
        for h in hierarchies {
            let t = NominalTransform::new(h);
            let n = t.input_len();
            let c: Vec<f64> = (0..t.output_len())
                .map(|i| ((i * 41 + 7) % 13) as f64 * 0.61 - 2.5)
                .collect();
            let mut back = vec![0.0; n];
            t.inverse_alloc(&c, &mut back);
            for lo in 0..n {
                for hi in lo..n {
                    let direct: f64 = back[lo..=hi].iter().sum();
                    let sparse: f64 = t.query_weights(lo, hi).iter().map(|&(k, w)| w * c[k]).sum();
                    assert!(
                        (direct - sparse).abs() < 1e-9,
                        "n={n} [{lo},{hi}]: {direct} vs {sparse}"
                    );
                }
            }
        }
    }

    #[test]
    fn subtree_query_support_is_ancestors_plus_leaves() {
        // A whole-subtree interval (the §II-A node-predicate shape)
        // touches the subtree's leaves plus the root-path ancestors.
        let (h, _) = figure3();
        let t = NominalTransform::new(h.clone());
        let (lo, hi) = h.leaf_range(1); // node c1's three leaves
        let support = t.query_weights(lo, hi);
        // c0 (root), c1, and the three leaf coefficients c3..c5.
        let positions: Vec<usize> = support.iter().map(|&(k, _)| k).collect();
        assert_eq!(positions, vec![0, 1, 3, 4, 5]);
        // Root weight: 3 leaves × 1/(2·3) each; c1: 3 × 1/3.
        assert!((support[0].1 - 0.5).abs() < 1e-12);
        assert!((support[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_weights_are_the_forward_column() {
        // The sparse column at each leaf must equal forward(e_leaf)
        // restricted to its nonzeros, on even and uneven hierarchies.
        let hierarchies = vec![
            figure3().0,
            Arc::new(privelet_hierarchy::builder::flat(7).unwrap()),
            Arc::new(
                Spec::internal(
                    "root",
                    vec![
                        Spec::leaf("a"),
                        Spec::internal("b", vec![Spec::leaf("c"), Spec::leaf("d")]),
                    ],
                )
                .build()
                .unwrap(),
            ),
            Arc::new(Spec::leaf("only").build().unwrap()),
        ];
        for h in hierarchies {
            let t = NominalTransform::new(h);
            let n = t.input_len();
            for cell in 0..n {
                let mut unit = vec![0.0; n];
                unit[cell] = 1.0;
                let mut dense = vec![0.0; t.output_len()];
                t.forward_alloc(&unit, &mut dense);
                let sparse = t.update_weights(cell);
                assert!(sparse.len() <= t.max_update_support());
                let mut rebuilt = vec![0.0; t.output_len()];
                for &(pos, w) in &sparse {
                    rebuilt[pos] += w;
                }
                for (pos, (&d, &r)) in dense.iter().zip(&rebuilt).enumerate() {
                    assert!(
                        (d - r).abs() < 1e-12,
                        "n={n} cell={cell} coeff {pos}: {d} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_weights_figure3_touch_whole_sibling_groups() {
        // Bumping v1 touches the root, both level-1 nodes (c1 on the
        // path, c2 its silent sibling) and c1's full leaf group.
        let (h, _) = figure3();
        let t = NominalTransform::new(h);
        let w = t.update_weights(0);
        let positions: Vec<usize> = w.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(w[0].1, 1.0); // root: full δ
        assert_eq!(w[1].1, 0.5); // c1: 1 − 1/2
        assert_eq!(w[2].1, -0.5); // c2: −1/2
        assert!((w[3].1 - (1.0 - 1.0 / 3.0)).abs() < 1e-15);
        assert!((w[4].1 - (-1.0 / 3.0)).abs() < 1e-15);
        // Deepest path: 1 + fanout(root) + fanout(c1) = 1 + 2 + 3.
        assert_eq!(t.max_update_support(), 6);
    }

    #[test]
    fn lemma4_sensitivity_is_exact_for_every_cell() {
        let (h, _) = figure3();
        let t = NominalTransform::new(h);
        let w = t.weights();
        for cell in 0..6 {
            let mut unit = vec![0.0; 6];
            unit[cell] = 1.0;
            let mut c = vec![0.0; 9];
            t.forward_alloc(&unit, &mut c);
            let weighted: f64 = c.iter().zip(&w).map(|(ci, wi)| wi * ci.abs()).sum();
            assert!(
                (weighted - 3.0).abs() < 1e-9,
                "cell {cell}: {weighted} (h = 3)"
            );
        }
    }

    #[test]
    fn uneven_depth_sensitivity_bounded_by_height() {
        // Root -> (leaf a, internal b -> (leaf c, leaf d)): h = 3.
        let h = Arc::new(
            Spec::internal(
                "root",
                vec![
                    Spec::leaf("a"),
                    Spec::internal("b", vec![Spec::leaf("c"), Spec::leaf("d")]),
                ],
            )
            .build()
            .unwrap(),
        );
        let t = NominalTransform::new(h);
        let w = t.weights();
        let mut worst: f64 = 0.0;
        for cell in 0..3 {
            let mut unit = vec![0.0; 3];
            unit[cell] = 1.0;
            let mut c = vec![0.0; t.output_len()];
            t.forward_alloc(&unit, &mut c);
            let weighted: f64 = c.iter().zip(&w).map(|(ci, wi)| wi * ci.abs()).sum();
            assert!(weighted <= 3.0 + 1e-9, "cell {cell}: {weighted}");
            worst = worst.max(weighted);
        }
        // The deep leaves achieve the bound; the shallow leaf costs less.
        assert!((worst - 3.0).abs() < 1e-9);
        assert_eq!(t.p_value(), 3.0);
    }

    #[test]
    fn degenerate_single_leaf() {
        let h = Arc::new(Spec::leaf("only").build().unwrap());
        let t = NominalTransform::new(h);
        assert_eq!(t.input_len(), 1);
        assert_eq!(t.output_len(), 1);
        let mut c = vec![0.0];
        t.forward_alloc(&[5.0], &mut c);
        assert_eq!(c, vec![5.0]);
        let mut back = vec![0.0];
        t.inverse_alloc(&c, &mut back);
        assert_eq!(back, vec![5.0]);
        assert_eq!(t.p_value(), 1.0);
        assert_eq!(t.weights(), vec![1.0]);
    }

    #[test]
    fn flat_hierarchy_roundtrip() {
        let h = Arc::new(privelet_hierarchy::builder::flat(5).unwrap());
        let t = NominalTransform::new(h);
        let src = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut c = vec![0.0; t.output_len()];
        t.forward_alloc(&src, &mut c);
        assert_eq!(c[0], 20.0); // base = total
        let mut back = vec![0.0; 5];
        t.inverse_alloc(&c, &mut back);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
