//! Reference-implementation tests: the fast transforms must agree with
//! coefficients computed *directly from the paper's definitions*.
//!
//! - Haar (§IV-A): "it generates a wavelet coefficient c for each internal
//!   node N, such that c = (a₁ − a₂)/2, where a₁ (a₂) is the average value
//!   of the leaves in the left (right) subtree of N"; the base coefficient
//!   is the mean of all leaves.
//! - Nominal (§V-A): "The coefficient for the root node is set to the sum
//!   of all leaves in its subtree ... For any other internal node, its
//!   coefficient equals its leaf-sum minus the average leaf-sum of its
//!   parent's children."
//!
//! The nominal kernels run over flat level-order sibling ranges; the
//! node-id walk they replaced is kept below as a bit-for-bit oracle, so a
//! reordered sum or a reciprocal multiply in the range loops fails here.
//! Likewise Haar's `query_weights` walks the two boundary paths level by
//! level, and the `BTreeSet` walk it replaced pins it entry for entry.

use privelet::transform::{HaarTransform, NominalTransform, Transform1d};
use privelet_hierarchy::builder::{flat, random as random_hierarchy, three_level};
use privelet_hierarchy::Hierarchy;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// O(m log m) Haar coefficients straight from the definition, heap layout.
fn haar_reference(data: &[f64]) -> Vec<f64> {
    let p = data.len().next_power_of_two();
    let mut padded = data.to_vec();
    padded.resize(p, 0.0);
    let mut coef = vec![0.0; p];
    coef[0] = padded.iter().sum::<f64>() / p as f64;
    // Node j (j >= 1) at level floor(log2 j) + 1 covers a segment of
    // seg_len = p / 2^(level-1) leaves starting at (j - 2^(level-1)) * seg_len.
    for (j, c) in coef.iter_mut().enumerate().skip(1) {
        let level_m1 = (usize::BITS - 1 - j.leading_zeros()) as usize; // floor(log2 j)
        let nodes_at_level = 1usize << level_m1;
        let seg_len = p / nodes_at_level;
        let start = (j - nodes_at_level) * seg_len;
        let half = seg_len / 2;
        let left: f64 = padded[start..start + half].iter().sum::<f64>() / half as f64;
        let right: f64 = padded[start + half..start + seg_len].iter().sum::<f64>() / half as f64;
        *c = 0.5 * (left - right);
    }
    coef
}

/// Leaf-sum of a hierarchy node by explicit traversal.
fn leaf_sum(h: &Hierarchy, node: usize, data: &[f64]) -> f64 {
    let (lo, hi) = h.leaf_range(node);
    data[lo..=hi].iter().sum()
}

/// Nominal coefficients straight from the definition, level-order layout.
fn nominal_reference(h: &Hierarchy, data: &[f64]) -> Vec<f64> {
    let mut coef = vec![0.0; h.node_count()];
    for &id in h.level_order() {
        let pos = h.level_order_pos(id);
        coef[pos] = match h.parent(id) {
            None => leaf_sum(h, id, data),
            Some(p) => {
                let avg: f64 = h
                    .children(p)
                    .iter()
                    .map(|&c| leaf_sum(h, c, data))
                    .sum::<f64>()
                    / h.fanout(p) as f64;
                leaf_sum(h, id, data) - avg
            }
        };
    }
    coef
}

/// The node-id forward walk: leaf-sums by node id, bottom-up in reverse
/// level order with each node's children summed in children order, then
/// the coefficients in level order. Returns `(coefficients, leaf-sums by
/// node id)`.
fn node_id_forward(h: &Hierarchy, src: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut ls = vec![0.0; h.node_count()];
    for (pos, &v) in src.iter().enumerate() {
        ls[h.leaf_node(pos)] = v;
    }
    for &id in h.level_order().iter().rev() {
        if !h.is_leaf(id) {
            ls[id] = h.children(id).iter().map(|&c| ls[c]).sum();
        }
    }
    let mut coef = vec![0.0; h.node_count()];
    for &id in h.level_order() {
        coef[h.level_order_pos(id)] = match h.parent(id) {
            None => ls[id],
            Some(p) => ls[id] - ls[p] / h.fanout(p) as f64,
        };
    }
    (coef, ls)
}

/// The node-id inverse walk (Equation 5): leaf-sums top-down in level
/// order, then each leaf's sum.
fn node_id_inverse(h: &Hierarchy, coef: &[f64]) -> Vec<f64> {
    let mut ls = vec![0.0; h.node_count()];
    for &id in h.level_order() {
        let pos = h.level_order_pos(id);
        ls[id] = match h.parent(id) {
            None => coef[pos],
            Some(p) => coef[pos] + ls[p] / h.fanout(p) as f64,
        };
    }
    (0..h.leaf_count())
        .map(|pos| ls[h.leaf_node(pos)])
        .collect()
}

/// The node-id mean subtraction: every sibling group, by node id.
fn node_id_refine(h: &Hierarchy, coef: &mut [f64]) {
    for group in h.sibling_groups() {
        let mean = group
            .iter()
            .map(|&id| coef[h.level_order_pos(id)])
            .sum::<f64>()
            / group.len() as f64;
        for &id in group {
            coef[h.level_order_pos(id)] -= mean;
        }
    }
}

/// `n` values with full 53-bit mantissas in `[-50, 50)`, so reordering a
/// sum or replacing a division changes low-order bits.
fn unit_noise(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The flat kernels against the node-id oracle, bit for bit: the forward
/// coefficients and its kept state (read by node through
/// `level_order_pos`), the inverse and the refinement of arbitrary
/// coefficients.
fn assert_matches_node_id_walk(h: &Arc<Hierarchy>, seed: u64) {
    let t = NominalTransform::new(h.clone());
    let src = unit_noise(h.leaf_count(), seed);
    let (want, want_ls) = node_id_forward(h, &src);
    let mut coef = vec![0.0; t.output_len()];
    let mut state = vec![f64::NAN; t.scratch_len()];
    t.forward(&src, &mut coef, &mut state);
    assert_eq!(bits(&coef), bits(&want), "forward");
    let kept: Vec<f64> = (0..h.node_count())
        .map(|id| state[h.level_order_pos(id)])
        .collect();
    assert_eq!(bits(&kept), bits(&want_ls), "kept state");

    let noisy = unit_noise(h.node_count(), !seed);
    let mut back = vec![0.0; t.input_len()];
    t.inverse_alloc(&noisy, &mut back);
    assert_eq!(bits(&back), bits(&node_id_inverse(h, &noisy)), "inverse");

    let (mut refined, mut want_refined) = (noisy.clone(), noisy);
    t.refine(&mut refined);
    node_id_refine(h, &mut want_refined);
    assert_eq!(bits(&refined), bits(&want_refined), "refine");
}

/// The `BTreeSet` Haar support walk: collect every ancestor of the two
/// boundary leaves in the virtual heap (leaf x ↔ node m + x), deduped and
/// ascending, then weigh each by its covered cells left of its midpoint
/// minus those right of it, keeping the nonzero ones after the base
/// coefficient.
fn btree_haar_query_weights(n: usize, lo: usize, hi: usize) -> Vec<(usize, f64)> {
    let m = n.next_power_of_two();
    let mut out = vec![(0usize, (hi - lo + 1) as f64)];
    let mut nodes = BTreeSet::new();
    for leaf in [lo, hi] {
        let mut j = (m + leaf) >> 1;
        while j >= 1 {
            nodes.insert(j);
            j >>= 1;
        }
    }
    let overlap = |a: usize, b: usize| -> usize {
        let (l, r) = (lo.max(a), hi.min(b - 1));
        if l > r {
            0
        } else {
            r - l + 1
        }
    };
    for &j in &nodes {
        let level_minus_1 = (usize::BITS - 1 - j.leading_zeros()) as usize;
        let span = m >> level_minus_1;
        let start = (j - (1usize << level_minus_1)) * span;
        let mid = start + span / 2;
        let w = overlap(start, mid) as f64 - overlap(mid, start + span) as f64;
        if w != 0.0 {
            out.push((j, w));
        }
    }
    out
}

/// `HaarTransform::query_weights` against the `BTreeSet` walk: the same
/// indices in the same order, and the same weights bit for bit.
fn assert_haar_support_matches_btree_walk(n: usize, lo: usize, hi: usize) {
    let pairs = |v: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
        v.into_iter().map(|(k, w)| (k, w.to_bits())).collect()
    };
    assert_eq!(
        pairs(HaarTransform::new(n).query_weights(lo, hi)),
        pairs(btree_haar_query_weights(n, lo, hi)),
        "n = {n}, [{lo}, {hi}]"
    );
}

#[test]
fn haar_supports_match_btree_walk_on_every_small_interval() {
    for n in 1..=130 {
        for lo in 0..n {
            for hi in lo..n {
                assert_haar_support_matches_btree_walk(n, lo, hi);
            }
        }
    }
}

#[test]
fn flat_nominal_kernels_match_node_id_walk_on_fixed_shapes() {
    for h in [flat(1), flat(2), three_level(64, 8)] {
        let h = Arc::new(h.unwrap());
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            assert_matches_node_id_walk(&h, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Sampled intervals on domains up to m = 2^20, power-of-two sizes
    /// included.
    #[test]
    fn haar_supports_match_btree_walk_up_to_2_pow_20(
        exp in 0u32..=20,
        pad in any::<usize>(),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let m = 1usize << exp;
        // n in (m/2, m]: a power of two when pad lands on 0.
        let n = m - pad % m.div_ceil(2);
        let lo = a % n;
        let hi = lo + b % (n - lo);
        assert_haar_support_matches_btree_walk(n, lo, hi);
        assert_haar_support_matches_btree_walk(n, 0, n - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat range kernels == node-id walk, bit for bit, on random
    /// hierarchies.
    #[test]
    fn flat_nominal_kernels_match_node_id_walk(
        leaves in 1usize..=40,
        max_fanout in 2usize..=6,
        hseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let h = Arc::new(random_hierarchy(leaves, max_fanout, hseed).unwrap());
        assert_matches_node_id_walk(&h, seed);
    }

    /// Fast Haar == definitional Haar for arbitrary data and lengths.
    #[test]
    fn haar_matches_reference(data in prop::collection::vec(-50.0f64..50.0, 1..48)) {
        let t = HaarTransform::new(data.len());
        let mut fast = vec![0.0; t.output_len()];
        t.forward_alloc(&data, &mut fast);
        let reference = haar_reference(&data);
        prop_assert_eq!(fast.len(), reference.len());
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "coef {i}: {a} vs {b}");
        }
    }

    /// Fast nominal == definitional nominal for random hierarchies.
    #[test]
    fn nominal_matches_reference(
        leaves in 1usize..=30,
        hseed in any::<u64>(),
    ) {
        let h = Arc::new(random_hierarchy(leaves, 5, hseed).unwrap());
        let data: Vec<f64> = (0..leaves).map(|i| ((i * 17) % 29) as f64 - 14.0).collect();
        let t = NominalTransform::new(h.clone());
        let mut fast = vec![0.0; t.output_len()];
        t.forward_alloc(&data, &mut fast);
        let reference = nominal_reference(&h, &data);
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "coef {i}: {a} vs {b}");
        }
    }

    /// Equation 3: every entry reconstructs as c0 + Σ gᵢ·cᵢ over its
    /// decomposition-tree ancestors with signs by subtree side.
    #[test]
    fn equation3_reconstruction(data in prop::collection::vec(-50.0f64..50.0, 2..33)) {
        let t = HaarTransform::new(data.len());
        let p = t.output_len();
        let mut coef = vec![0.0; p];
        t.forward_alloc(&data, &mut coef);
        for (v_idx, &v) in data.iter().enumerate() {
            let mut acc = coef[0];
            // Walk from the leaf up: leaf v_idx sits under heap node
            // (p + v_idx) / 2 at the bottom level, etc.
            let mut node = p + v_idx;
            while node > 1 {
                let parent = node / 2;
                let sign = if node.is_multiple_of(2) { 1.0 } else { -1.0 };
                acc += sign * coef[parent];
                node = parent;
            }
            prop_assert!((acc - v).abs() < 1e-9, "entry {v_idx}: {acc} vs {v}");
        }
    }

    /// Equation 5: every entry reconstructs as the leaf-sum chain over its
    /// hierarchy ancestors.
    #[test]
    fn equation5_reconstruction(
        leaves in 1usize..=24,
        hseed in any::<u64>(),
    ) {
        let h = Arc::new(random_hierarchy(leaves, 4, hseed).unwrap());
        let data: Vec<f64> = (0..leaves).map(|i| ((i * 23) % 31) as f64).collect();
        let t = NominalTransform::new(h.clone());
        let mut coef = vec![0.0; t.output_len()];
        t.forward_alloc(&data, &mut coef);
        for (pos, &datum) in data.iter().enumerate() {
            let path = h.path_to_leaf(pos);
            // v = c_{last} + Σ_{i<last} c_i · ∏_{j=i..last-1} 1/f_j.
            let mut acc = coef[h.level_order_pos(*path.last().unwrap())];
            for (i, &anc) in path.iter().enumerate().take(path.len() - 1) {
                let mut scale = 1.0;
                for &mid in &path[i..path.len() - 1] {
                    scale /= h.fanout(mid) as f64;
                }
                acc += coef[h.level_order_pos(anc)] * scale;
            }
            prop_assert!((acc - datum).abs() < 1e-9, "leaf {pos}: {acc} vs {datum}");
        }
    }
}
