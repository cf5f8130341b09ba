//! The [`Hierarchy`] tree: storage, traversal, sibling groups, leaf ranges.

/// An attribute hierarchy.
///
/// Nodes are identified by dense `usize` ids; node `0` is the root. Leaves
/// are additionally numbered by *position* `0..leaf_count()` in
/// left-to-right traversal order — positions are the nominal domain values
/// used by frequency matrices and queries.
///
/// Levels are 1-based as in the paper: the root is level 1, and the
/// hierarchy's *height* `h` is the maximum level of any leaf. Hierarchies
/// need not have all leaves at the same depth (the paper's census
/// hierarchies do, but nothing in the transform requires it; sensitivity
/// accounting uses the maximum depth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    level: Vec<usize>,
    leaf_lo: Vec<usize>,
    leaf_hi: Vec<usize>,
    /// Node id of the leaf at each domain position.
    leaf_nodes: Vec<usize>,
    /// All node ids in level order (root first, then level 2, ...).
    level_order: Vec<usize>,
    /// Inverse of `level_order`.
    level_order_pos: Vec<usize>,
    labels: Vec<String>,
    height: usize,
}

impl Hierarchy {
    /// Internal constructor used by the builders; assumes the parent /
    /// children arrays already describe a valid tree rooted at node 0 with
    /// every internal node having ≥ 2 children.
    pub(crate) fn from_parts(
        parent: Vec<Option<usize>>,
        children: Vec<Vec<usize>>,
        labels: Vec<String>,
    ) -> Self {
        let n = parent.len();
        debug_assert_eq!(children.len(), n);
        debug_assert_eq!(labels.len(), n);

        // Levels via BFS from the root; this is also the level order.
        let mut level = vec![0usize; n];
        let mut level_order = Vec::with_capacity(n);
        level[0] = 1;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(id) = queue.pop_front() {
            level_order.push(id);
            for &c in &children[id] {
                level[c] = level[id] + 1;
                queue.push_back(c);
            }
        }
        debug_assert_eq!(level_order.len(), n);
        let mut level_order_pos = vec![0usize; n];
        for (pos, &id) in level_order.iter().enumerate() {
            level_order_pos[id] = pos;
        }

        // Leaf positions via iterative DFS (left-to-right).
        let mut leaf_lo = vec![usize::MAX; n];
        let mut leaf_hi = vec![0usize; n];
        let mut leaf_nodes = Vec::new();
        let mut stack = vec![(0usize, false)];
        while let Some((id, processed)) = stack.pop() {
            if children[id].is_empty() {
                let pos = leaf_nodes.len();
                leaf_lo[id] = pos;
                leaf_hi[id] = pos;
                leaf_nodes.push(id);
            } else if processed {
                leaf_lo[id] = leaf_lo[children[id][0]];
                leaf_hi[id] = leaf_hi[*children[id].last().expect("internal has children")];
            } else {
                stack.push((id, true));
                for &c in children[id].iter().rev() {
                    stack.push((c, false));
                }
            }
        }

        let height = leaf_nodes.iter().map(|&id| level[id]).max().unwrap_or(1);

        Hierarchy {
            parent,
            children,
            level,
            leaf_lo,
            leaf_hi,
            leaf_nodes,
            level_order,
            level_order_pos,
            labels,
            height,
        }
    }

    /// Number of nodes (internal + leaves). This is the number of nominal
    /// wavelet coefficients the transform produces (§V-A's `m'`).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Number of leaves (= nominal domain size).
    #[inline]
    pub fn leaf_count(&self) -> usize {
        self.leaf_nodes.len()
    }

    /// Height `h`: maximum 1-based level of any leaf.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The root node id (always 0).
    #[inline]
    pub fn root(&self) -> usize {
        0
    }

    /// Whether `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: usize) -> bool {
        self.children[id].is_empty()
    }

    /// Children of `id` (empty for leaves).
    #[inline]
    pub fn children(&self, id: usize) -> &[usize] {
        &self.children[id]
    }

    /// Parent of `id`, `None` for the root.
    #[inline]
    pub fn parent(&self, id: usize) -> Option<usize> {
        self.parent[id]
    }

    /// Fanout (number of children) of `id`.
    #[inline]
    pub fn fanout(&self, id: usize) -> usize {
        self.children[id].len()
    }

    /// 1-based level of `id` (root = 1).
    #[inline]
    pub fn level(&self, id: usize) -> usize {
        self.level[id]
    }

    /// Human-readable label of `id`.
    #[inline]
    pub fn label(&self, id: usize) -> &str {
        &self.labels[id]
    }

    /// Inclusive range of leaf positions under `id`.
    #[inline]
    pub fn leaf_range(&self, id: usize) -> (usize, usize) {
        (self.leaf_lo[id], self.leaf_hi[id])
    }

    /// Node id of the leaf at domain position `pos`.
    #[inline]
    pub fn leaf_node(&self, pos: usize) -> usize {
        self.leaf_nodes[pos]
    }

    /// All node ids in level order (root first). This is the coefficient
    /// layout order of the nominal wavelet transform (§VI-A: "sorted based
    /// on a level-order traversal ... the base coefficient always ranks
    /// first").
    #[inline]
    pub fn level_order(&self) -> &[usize] {
        &self.level_order
    }

    /// Position of node `id` in the level order.
    #[inline]
    pub fn level_order_pos(&self, id: usize) -> usize {
        self.level_order_pos[id]
    }

    /// Iterates over all node ids, root included.
    fn node_ids(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.node_count()
    }

    /// Iterates over all internal node ids.
    fn internal_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.node_ids().filter(move |&id| !self.is_leaf(id))
    }

    /// Iterates over the sibling groups: for every internal node, the slice
    /// of its children. These are the groups over which the nominal
    /// transform's mean-subtraction refinement operates (§V-B).
    pub fn sibling_groups(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.internal_nodes().map(move |id| self.children(id))
    }

    /// Path from the root down to the leaf at position `pos` (inclusive on
    /// both ends). The nominal reconstruction (Eq. 5) walks this path.
    pub fn path_to_leaf(&self, pos: usize) -> Vec<usize> {
        let mut path = Vec::with_capacity(self.height);
        let mut cur = Some(self.leaf_nodes[pos]);
        while let Some(id) = cur {
            path.push(id);
            cur = self.parent[id];
        }
        path.reverse();
        path
    }

    /// Node ids at a given 1-based level.
    pub fn nodes_at_level(&self, lvl: usize) -> Vec<usize> {
        self.level_order
            .iter()
            .copied()
            .filter(|&id| self.level[id] == lvl)
            .collect()
    }

    /// All non-root node ids (candidate nominal query predicates are
    /// non-root nodes per §VII-A).
    pub fn non_root_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        1..self.node_count()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::Spec;
    use crate::Hierarchy;

    /// The Figure-3 hierarchy: root with two children, each with 3 leaves.
    pub(crate) fn figure3() -> Hierarchy {
        Spec::internal(
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
        .unwrap()
    }

    #[test]
    fn figure3_shape() {
        let h = figure3();
        assert_eq!(h.leaf_count(), 6);
        assert_eq!(h.node_count(), 9);
        assert_eq!(h.height(), 3);
        assert_eq!(h.fanout(h.root()), 2);
    }

    #[test]
    fn figure3_levels_and_leaf_ranges() {
        let h = figure3();
        assert_eq!(h.level(h.root()), 1);
        let mids = h.nodes_at_level(2);
        assert_eq!(mids.len(), 2);
        assert_eq!(h.leaf_range(mids[0]), (0, 2));
        assert_eq!(h.leaf_range(mids[1]), (3, 5));
        assert_eq!(h.leaf_range(h.root()), (0, 5));
        for pos in 0..6 {
            let leaf = h.leaf_node(pos);
            assert!(h.is_leaf(leaf));
            assert_eq!(h.leaf_range(leaf), (pos, pos));
            assert_eq!(h.level(leaf), 3);
        }
    }

    #[test]
    fn figure3_level_order_is_bfs() {
        let h = figure3();
        let order = h.level_order();
        assert_eq!(order[0], h.root());
        let levels: Vec<usize> = order.iter().map(|&id| h.level(id)).collect();
        let mut sorted = levels.clone();
        sorted.sort_unstable();
        assert_eq!(
            levels, sorted,
            "level order must be non-decreasing in level"
        );
        for (pos, &id) in order.iter().enumerate() {
            assert_eq!(h.level_order_pos(id), pos);
        }
    }

    #[test]
    fn figure3_paths() {
        let h = figure3();
        let p = h.path_to_leaf(0);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], h.root());
        assert_eq!(h.label(p[2]), "v1");
        let p5 = h.path_to_leaf(5);
        assert_eq!(h.label(p5[2]), "v6");
        assert_eq!(h.label(p5[1]), "c2");
    }

    #[test]
    fn sibling_groups_cover_all_non_root_nodes() {
        let h = figure3();
        let grouped: usize = h.sibling_groups().map(|g| g.len()).sum();
        assert_eq!(grouped, h.node_count() - 1);
        for g in h.sibling_groups() {
            assert!(g.len() >= 2);
            let parent = h.parent(g[0]).unwrap();
            for &c in g {
                assert_eq!(h.parent(c), Some(parent));
            }
        }
    }

    #[test]
    fn single_leaf_hierarchy_is_degenerate_but_valid() {
        let h = Spec::leaf("only").build().unwrap();
        assert_eq!(h.leaf_count(), 1);
        assert_eq!(h.node_count(), 1);
        assert_eq!(h.height(), 1);
        assert!(h.is_leaf(h.root()));
        assert_eq!(h.path_to_leaf(0), vec![0]);
    }

    #[test]
    fn uneven_depth_hierarchy() {
        // Root -> (leaf a, internal b -> (leaf c, leaf d)).
        let h = Spec::internal(
            "root",
            vec![
                Spec::leaf("a"),
                Spec::internal("b", vec![Spec::leaf("c"), Spec::leaf("d")]),
            ],
        )
        .build()
        .unwrap();
        assert_eq!(h.leaf_count(), 3);
        assert_eq!(h.height(), 3);
        assert_eq!(h.level(h.leaf_node(0)), 2);
        assert_eq!(h.level(h.leaf_node(1)), 3);
        assert_eq!(h.leaf_range(h.root()), (0, 2));
    }
}
