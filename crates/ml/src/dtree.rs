//! CART decision-tree classifier.
//!
//! AIDE models the user's interest with a binary decision tree over the
//! normalized exploration attributes (paper §2.2; the authors used Weka's
//! CART [8]). We implement CART from scratch: binary splits on numeric
//! attributes chosen by Gini-impurity decrease, midpoint thresholds, and
//! optional cost-complexity pruning.
//!
//! Two properties of the tree are load-bearing for AIDE:
//!
//! 1. it is a *white-box* model — every relevant leaf corresponds to a
//!    hyper-rectangle (conjunction of range predicates), so the learned
//!    model translates directly into a SQL query
//!    ([`DecisionTree::relevant_regions`]);
//! 2. its split rules expose which boundaries moved between iterations,
//!    which drives the adaptive boundary-exploitation phase (§5.2).

use aide_util::geom::Rect;
use aide_util::par::Pool;

/// Hyper-parameters for tree induction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum Gini-impurity decrease for a split to be kept.
    pub min_gain: f64,
    /// Cost-complexity pruning strength (0 disables pruning).
    pub ccp_alpha: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 32,
            min_samples_split: 2,
            min_samples_leaf: 1,
            min_gain: 1e-9,
            ccp_alpha: 0.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        label: bool,
        samples: usize,
        positives: usize,
    },
    Split {
        dim: usize,
        threshold: f64,
        left: usize,
        right: usize,
        samples: usize,
        positives: usize,
    },
}

/// A trained CART classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    dims: usize,
    nodes: Vec<Node>,
    root: usize,
}

/// One decision rule (`point[dim] <= threshold` goes left), exposed so the
/// boundary-exploitation phase can diff split rules between iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRule {
    /// Attribute index.
    pub dim: usize,
    /// Split threshold on the normalized domain.
    pub threshold: f64,
}

impl DecisionTree {
    /// Fits a tree on row-major `data` (`dims` values per point) with
    /// boolean `labels` (`true` = relevant).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is ragged, the label count disagrees, or the
    /// training set is empty.
    pub fn fit(dims: usize, data: &[f64], labels: &[bool], params: &TreeParams) -> Self {
        Self::fit_with(dims, data, labels, params, &Pool::serial())
    }

    /// [`DecisionTree::fit`] with the per-dimension split search fanned out
    /// over `pool`. Each dimension's candidate split depends only on the
    /// multiset of `(value, label)` pairs, and the cross-dimension winner
    /// is reduced in dimension order with the serial tie-break (strictly
    /// greater gain wins), so the fitted tree is identical to the serial
    /// one for any thread count.
    pub fn fit_with(
        dims: usize,
        data: &[f64],
        labels: &[bool],
        params: &TreeParams,
        pool: &Pool,
    ) -> Self {
        assert!(dims > 0, "at least one attribute is required");
        assert_eq!(data.len() % dims, 0, "ragged training buffer");
        let n = data.len() / dims;
        assert_eq!(n, labels.len(), "label count mismatch");
        assert!(n > 0, "cannot fit a tree on zero samples");
        let mut indices: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        let root = build(dims, data, labels, &mut indices[..], params, 0, &mut nodes, pool);
        let mut tree = Self { dims, nodes, root };
        if params.ccp_alpha > 0.0 {
            tree.prune(params.ccp_alpha);
        }
        tree
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Predicts relevance for a normalized point.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the point has the wrong dimensionality.
    pub fn predict(&self, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dims);
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { label, .. } => return *label,
                Node::Split {
                    dim,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if point[*dim] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.count_leaves(self.root)
    }

    fn count_leaves(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => self.count_leaves(*left) + self.count_leaves(*right),
        }
    }

    /// Maximum depth (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.depth_of(self.root)
    }

    fn depth_of(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + self.depth_of(*left).max(self.depth_of(*right)),
        }
    }

    /// The hyper-rectangles of all leaves labeled `label`, intersected
    /// with `bounds` (the normalized exploration space). Relevant regions
    /// are the predicate set `P_r` the extraction query is built from
    /// (paper §2.2); irrelevant regions are `P_nr`.
    pub fn regions(&self, label: bool, bounds: &Rect) -> Vec<Rect> {
        self.boxes(label, bounds, |t| t)
    }

    /// Shorthand for `regions(true, bounds)` — the relevant areas.
    pub fn relevant_regions(&self, bounds: &Rect) -> Vec<Rect> {
        self.regions(true, bounds)
    }

    /// The leaves labeled `label` as exact, disjoint closed boxes within
    /// `bounds`: a point of `bounds` lies in one of them exactly when
    /// [`DecisionTree::predict`] gives it `label`, and in at most one.
    ///
    /// [`DecisionTree::regions`] starts a right child at the threshold
    /// `t` itself, so neighbouring regions share a face (what SQL
    /// rendering wants). Here a right child starts at `t.next_up()`:
    /// `x > t` holds exactly when `x >= t.next_up()` for every finite
    /// `x`, so the box edges reproduce the split rule `x <= t` bit for
    /// bit.
    pub fn leaf_boxes(&self, label: bool, bounds: &Rect) -> Vec<Rect> {
        self.boxes(label, bounds, f64::next_up)
    }

    /// The walk behind [`DecisionTree::regions`] and
    /// [`DecisionTree::leaf_boxes`]; `right_lo(t)` is where a right child
    /// of threshold `t` starts.
    fn boxes(&self, label: bool, bounds: &Rect, right_lo: fn(f64) -> f64) -> Vec<Rect> {
        assert_eq!(bounds.dims(), self.dims, "bounds dimensionality mismatch");
        let mut out = Vec::new();
        self.collect_boxes(self.root, label, bounds.clone(), right_lo, &mut out);
        out
    }

    fn collect_boxes(
        &self,
        node: usize,
        label: bool,
        rect: Rect,
        right_lo: fn(f64) -> f64,
        out: &mut Vec<Rect>,
    ) {
        match &self.nodes[node] {
            Node::Leaf { label: l, .. } => {
                if *l == label {
                    out.push(rect);
                }
            }
            Node::Split {
                dim,
                threshold,
                left,
                right,
                ..
            } => {
                let (d, t) = (*dim, *threshold);
                if rect.lo(d) <= t {
                    let l = rect.with_dim(d, rect.lo(d), t.min(rect.hi(d)));
                    self.collect_boxes(*left, label, l, right_lo, out);
                }
                // `hi > t` keeps `right_lo(t) <= hi`, so no box is empty.
                if rect.hi(d) > t {
                    let r = rect.with_dim(d, right_lo(t).max(rect.lo(d)), rect.hi(d));
                    self.collect_boxes(*right, label, r, right_lo, out);
                }
            }
        }
    }

    /// All split rules in the tree, in a stable (preorder) order.
    pub fn split_rules(&self) -> Vec<SplitRule> {
        let mut out = Vec::new();
        self.collect_rules(self.root, &mut out);
        out
    }

    fn collect_rules(&self, node: usize, out: &mut Vec<SplitRule>) {
        if let Node::Split {
            dim,
            threshold,
            left,
            right,
            ..
        } = &self.nodes[node]
        {
            out.push(SplitRule {
                dim: *dim,
                threshold: *threshold,
            });
            self.collect_rules(*left, out);
            self.collect_rules(*right, out);
        }
    }

    /// Attributes that appear in at least one split rule. AIDE uses this
    /// to check whether irrelevant exploration attributes were eliminated
    /// from the final query (paper §6.3).
    pub fn used_dims(&self) -> Vec<usize> {
        let mut used = vec![false; self.dims];
        for rule in self.split_rules() {
            used[rule.dim] = true;
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(d, _)| d)
            .collect()
    }

    /// Gini importance per attribute (impurity decrease weighted by node
    /// size, normalized to sum to 1 when any split exists).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.dims];
        self.accumulate_importance(self.root, &mut imp);
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    fn accumulate_importance(&self, node: usize, imp: &mut [f64]) {
        if let Node::Split {
            dim,
            left,
            right,
            samples,
            positives,
            ..
        } = &self.nodes[node]
        {
            let (ls, lp) = self.node_counts(*left);
            let (rs, rp) = self.node_counts(*right);
            let parent = gini(*positives, *samples);
            let weighted = (ls as f64 * gini(lp, ls) + rs as f64 * gini(rp, rs)) / *samples as f64;
            imp[*dim] += *samples as f64 * (parent - weighted);
            self.accumulate_importance(*left, imp);
            self.accumulate_importance(*right, imp);
        }
    }

    fn node_counts(&self, node: usize) -> (usize, usize) {
        match &self.nodes[node] {
            Node::Leaf {
                samples, positives, ..
            }
            | Node::Split {
                samples, positives, ..
            } => (*samples, *positives),
        }
    }

    /// Renders the tree in Graphviz DOT format with attribute names —
    /// the white-box inspection view (split nodes show their rule, leaves
    /// show label and sample counts).
    ///
    /// # Panics
    ///
    /// Panics if `attr_names` does not cover every attribute index.
    pub fn to_dot(&self, attr_names: &[&str]) -> String {
        assert!(
            attr_names.len() >= self.dims,
            "need a name for each of the {} attributes",
            self.dims
        );
        let mut out = String::from("digraph decision_tree {\n  node [shape=box];\n");
        self.dot_node(self.root, attr_names, &mut out);
        out.push_str("}\n");
        out
    }

    fn dot_node(&self, node: usize, attr_names: &[&str], out: &mut String) {
        match &self.nodes[node] {
            Node::Leaf {
                label,
                samples,
                positives,
            } => {
                let class = if *label { "relevant" } else { "irrelevant" };
                out.push_str(&format!(
                    "  n{node} [label=\"{class}\\n{positives}/{samples} relevant\", \
                     style=filled, fillcolor=\"{}\"];\n",
                    if *label { "palegreen" } else { "lightgray" }
                ));
            }
            Node::Split {
                dim,
                threshold,
                left,
                right,
                ..
            } => {
                out.push_str(&format!(
                    "  n{node} [label=\"{} <= {:.4}\"];\n",
                    attr_names[*dim], threshold
                ));
                out.push_str(&format!("  n{node} -> n{left} [label=\"yes\"];\n"));
                out.push_str(&format!("  n{node} -> n{right} [label=\"no\"];\n"));
                self.dot_node(*left, attr_names, out);
                self.dot_node(*right, attr_names, out);
            }
        }
    }

    /// Weakest-link cost-complexity pruning: repeatedly collapses the
    /// internal node with the smallest effective alpha until every
    /// remaining node's alpha exceeds `ccp_alpha`.
    pub fn prune(&mut self, ccp_alpha: f64) {
        loop {
            let Some((node, alpha)) = self.weakest_link(self.root) else {
                return;
            };
            if alpha > ccp_alpha {
                return;
            }
            let (samples, positives) = self.node_counts(node);
            self.nodes[node] = Node::Leaf {
                label: positives * 2 > samples,
                samples,
                positives,
            };
        }
    }

    /// Returns `(node, alpha)` of the internal node with minimal effective
    /// alpha, or `None` if the tree is a single leaf.
    fn weakest_link(&self, root: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if let Node::Split { left, right, .. } = &self.nodes[node] {
                let alpha = self.effective_alpha(node);
                if best.map(|(_, a)| alpha < a).unwrap_or(true) {
                    best = Some((node, alpha));
                }
                stack.push(*left);
                stack.push(*right);
            }
        }
        best
    }

    /// `(R(collapsed leaf) - R(subtree)) / (leaves - 1)` with
    /// misclassification-count risk normalized by total training size.
    fn effective_alpha(&self, node: usize) -> f64 {
        let (root_samples, _) = self.node_counts(self.root);
        let (samples, positives) = self.node_counts(node);
        let leaf_errors = positives.min(samples - positives) as f64;
        let subtree_errors = self.subtree_errors(node) as f64;
        let leaves = self.count_leaves(node) as f64;
        if leaves <= 1.0 {
            return f64::INFINITY;
        }
        ((leaf_errors - subtree_errors) / root_samples as f64) / (leaves - 1.0)
    }

    fn subtree_errors(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf {
                label,
                samples,
                positives,
            } => {
                if *label {
                    samples - positives
                } else {
                    *positives
                }
            }
            Node::Split { left, right, .. } => {
                self.subtree_errors(*left) + self.subtree_errors(*right)
            }
        }
    }
}

/// Gini impurity of a node with `positives` of `samples` relevant.
#[inline]
fn gini(positives: usize, samples: usize) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    let p = positives as f64 / samples as f64;
    2.0 * p * (1.0 - p)
}

/// Recursively builds the subtree over `indices`, returning its node id.
#[allow(clippy::too_many_arguments)]
fn build(
    dims: usize,
    data: &[f64],
    labels: &[bool],
    indices: &mut [u32],
    params: &TreeParams,
    depth: usize,
    nodes: &mut Vec<Node>,
    pool: &Pool,
) -> usize {
    let samples = indices.len();
    let positives = indices.iter().filter(|&&i| labels[i as usize]).count();
    let make_leaf = |nodes: &mut Vec<Node>| {
        nodes.push(Node::Leaf {
            // Ties favour "irrelevant": showing the user an uncertain area
            // is cheaper through discovery than through a bad prediction.
            label: positives * 2 > samples,
            samples,
            positives,
        });
        nodes.len() - 1
    };
    if positives == 0
        || positives == samples
        || samples < params.min_samples_split
        || depth >= params.max_depth
    {
        return make_leaf(nodes);
    }
    let Some((dim, threshold, gain)) =
        best_split(dims, data, labels, indices, params.min_samples_leaf, pool)
    else {
        return make_leaf(nodes);
    };
    if gain < params.min_gain {
        return make_leaf(nodes);
    }
    // Partition in place: left gets point[dim] <= threshold.
    let mut lo = 0usize;
    let mut hi = indices.len();
    while lo < hi {
        if data[indices[lo] as usize * dims + dim] <= threshold {
            lo += 1;
        } else {
            hi -= 1;
            indices.swap(lo, hi);
        }
    }
    debug_assert!(lo > 0 && lo < indices.len(), "degenerate split survived");
    let (left_slice, right_slice) = indices.split_at_mut(lo);
    let left = build(dims, data, labels, left_slice, params, depth + 1, nodes, pool);
    let right = build(dims, data, labels, right_slice, params, depth + 1, nodes, pool);
    nodes.push(Node::Split {
        dim,
        threshold,
        left,
        right,
        samples,
        positives,
    });
    nodes.len() - 1
}

/// Below this node size the per-dimension fan-out costs more than the
/// sorts it distributes; small nodes always search serially.
const PAR_SPLIT_MIN_SAMPLES: usize = 512;

/// Sweeps `order` (already sorted by `dim`'s values) for the boundary with
/// maximal Gini decrease on that dimension. This is the single source of
/// truth for the split tie-breaks: the first maximum wins within a
/// dimension, midpoint thresholds, and equal-value runs host no boundary.
/// Both the cold fit (which sorts first) and the incremental refit (which
/// maintains sorted orders across batches) call this, so they cannot
/// disagree on the chosen split.
fn sweep_dim(
    dims: usize,
    data: &[f64],
    labels: &[bool],
    order: &[u32],
    dim: usize,
    min_samples_leaf: usize,
) -> Option<(usize, f64, f64)> {
    let n = order.len();
    let total_pos = order.iter().filter(|&&i| labels[i as usize]).count();
    let parent = gini(total_pos, n);
    let mut best: Option<(usize, f64, f64)> = None;
    let mut left_pos = 0usize;
    for i in 0..n - 1 {
        if labels[order[i] as usize] {
            left_pos += 1;
        }
        let v = data[order[i] as usize * dims + dim];
        let next = data[order[i + 1] as usize * dims + dim];
        if v == next {
            continue; // cannot split between equal values
        }
        let left_n = i + 1;
        let right_n = n - left_n;
        if left_n < min_samples_leaf || right_n < min_samples_leaf {
            continue;
        }
        let right_pos = total_pos - left_pos;
        let weighted = (left_n as f64 * gini(left_pos, left_n)
            + right_n as f64 * gini(right_pos, right_n))
            / n as f64;
        let gain = parent - weighted;
        if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
            // Midpoint threshold: no training point sits exactly on
            // the boundary, keeping region extraction unambiguous. Between
            // values an ulp apart the midpoint can round up to `next`,
            // which would send every point left; `v` splits them there.
            let mid = v + (next - v) / 2.0;
            best = Some((dim, if mid < next { mid } else { v }, gain));
        }
    }
    best
}

/// Cross-dimension reduce: strictly greater gain displaces the incumbent,
/// so the first-best dimension (in dimension order) wins ties.
fn merge_candidates(
    best: Option<(usize, f64, f64)>,
    cand: Option<(usize, f64, f64)>,
) -> Option<(usize, f64, f64)> {
    match (best, cand) {
        (Some((_, _, g)), Some(c)) if c.2 > g => Some(c),
        (None, c) => c,
        (b, _) => b,
    }
}

/// Finds the `(dim, threshold, gain)` with maximal Gini decrease, or
/// `None` if no split separates the points.
///
/// Dimensions are searched independently (in parallel when the pool and
/// node size warrant it) and reduced in dimension order with a strictly
/// greater gain required to displace the incumbent — the same
/// first-maximum-wins tie-break as a serial scan, so the chosen split
/// never depends on the thread count.
fn best_split(
    dims: usize,
    data: &[f64],
    labels: &[bool],
    indices: &[u32],
    min_samples_leaf: usize,
    pool: &Pool,
) -> Option<(usize, f64, f64)> {
    let n = indices.len();
    // Per-dimension candidate: sorts `order` by the dimension's values and
    // sweeps the boundaries. The result depends only on the multiset of
    // (value, label) pairs: runs of equal values cannot host a boundary,
    // and at a run boundary the left-side label counts are the same for
    // any input permutation of `order` — so searching each dimension from
    // a fresh copy of `indices` matches the serial reuse of one buffer.
    let dim_best = |dim: usize, order: &mut [u32]| -> Option<(usize, f64, f64)> {
        sort_by_dim(dims, data, order, dim);
        sweep_dim(dims, data, labels, order, dim, min_samples_leaf)
    };
    if pool.is_serial() || dims < 2 || n < PAR_SPLIT_MIN_SAMPLES {
        let mut best = None;
        let mut order: Vec<u32> = indices.to_vec();
        for dim in 0..dims {
            best = merge_candidates(best, dim_best(dim, &mut order));
        }
        best
    } else {
        pool.par_map_reduce(
            dims,
            1,
            |range| {
                let mut order: Vec<u32> = indices.to_vec();
                dim_best(range.start, &mut order)
            },
            None,
            merge_candidates,
        )
    }
}

/// Sorts `order` by `dim`'s coordinate. Ties keep an arbitrary index
/// order, which [`sweep_dim`] is invariant to.
fn sort_by_dim(dims: usize, data: &[f64], order: &mut [u32], dim: usize) {
    order.sort_unstable_by(|&a, &b| {
        data[a as usize * dims + dim]
            .partial_cmp(&data[b as usize * dims + dim])
            .expect("training coordinates are finite")
    });
}

/// What a [`IncrementalTree::refit`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefitOutcome {
    /// `true` when the refit fell back to a full from-scratch rebuild
    /// (an interior split flipped, or pruning is enabled).
    pub rebuilt: bool,
    /// Number of leaves whose sample set changed and were re-searched.
    /// Counts the leaves of the whole tree after a full rebuild.
    pub leaves_touched: usize,
}

/// Fitting-time bookkeeping for one node of an [`IncrementalTree`].
#[derive(Debug, Clone)]
struct FitNode {
    depth: usize,
    samples: usize,
    positives: usize,
    kind: FitKind,
}

#[derive(Debug, Clone)]
enum FitKind {
    /// A leaf owns its (unordered) training-sample indices.
    Leaf { indices: Vec<u32> },
    /// A split caches, per dimension, the node's sample indices sorted by
    /// that dimension's coordinate — the expensive part of the split
    /// search. A refit merges the new samples into each order (O(n)) and
    /// re-sweeps, instead of re-sorting (O(n log n)).
    Split {
        dim: usize,
        threshold: f64,
        left: usize,
        right: usize,
        orders: Vec<Vec<u32>>,
    },
}

/// A CART fit that can absorb labeled batches incrementally.
///
/// The tree is kept in a rebuild-from-node representation: every node
/// owns enough state (leaf sample sets, per-dimension sorted orders at
/// splits) to re-run the split search locally. [`IncrementalTree::refit`]
/// routes new samples down the existing structure, verifies that every
/// interior split on a touched path is still the one a cold fit would
/// choose (same dimension, bit-identical threshold), re-searches only the
/// leaves whose sample set changed, and falls back to a full rebuild the
/// moment an interior split flips.
///
/// The compiled tree is **bit-identical** to
/// [`DecisionTree::fit`] on the concatenated batches — node layout
/// included — which is what lets the session swap refits in without
/// perturbing any downstream decision.
///
/// ```
/// use aide_ml::{DecisionTree, IncrementalTree, TreeParams};
///
/// let params = TreeParams::default();
/// let mut inc = IncrementalTree::fit(1, &[1.0, 2.0], &[false, false], &params);
/// let out = inc.refit(&[3.0, 4.0], &[true, true]);
/// assert!(!out.rebuilt || out.leaves_touched > 0);
/// let cold = DecisionTree::fit(1, &[1.0, 2.0, 3.0, 4.0], &[false, false, true, true], &params);
/// assert_eq!(inc.tree(), &cold);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalTree {
    dims: usize,
    params: TreeParams,
    data: Vec<f64>,
    labels: Vec<bool>,
    nodes: Vec<FitNode>,
    root: usize,
    tree: DecisionTree,
}

impl IncrementalTree {
    /// Cold-fits the initial batch. Same contract as [`DecisionTree::fit`].
    pub fn fit(dims: usize, data: &[f64], labels: &[bool], params: &TreeParams) -> Self {
        Self::fit_with(dims, data, labels, params, &Pool::serial())
    }

    /// [`IncrementalTree::fit`] with the leaf split searches run on `pool`.
    pub fn fit_with(
        dims: usize,
        data: &[f64],
        labels: &[bool],
        params: &TreeParams,
        pool: &Pool,
    ) -> Self {
        assert!(dims > 0, "at least one attribute is required");
        assert_eq!(data.len() % dims, 0, "ragged training buffer");
        let n = data.len() / dims;
        assert_eq!(n, labels.len(), "label count mismatch");
        assert!(n > 0, "cannot fit a tree on zero samples");
        let mut this = Self {
            dims,
            params: *params,
            data: data.to_vec(),
            labels: labels.to_vec(),
            nodes: Vec::new(),
            root: 0,
            tree: DecisionTree {
                dims,
                nodes: Vec::new(),
                root: 0,
            },
        };
        this.rebuild(pool);
        this
    }

    /// The current compiled classifier.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Total training samples absorbed so far.
    pub fn samples(&self) -> usize {
        self.labels.len()
    }

    /// Absorbs one batch of labeled points. See [`IncrementalTree::refit_with`].
    pub fn refit(&mut self, added_points: &[f64], added_labels: &[bool]) -> RefitOutcome {
        self.refit_with(added_points, added_labels, &Pool::serial())
    }

    /// Absorbs one batch of labeled points, re-running the split search
    /// only where the sample set changed. The resulting
    /// [`IncrementalTree::tree`] is bit-identical to a cold
    /// [`DecisionTree::fit_with`] over every batch seen so far.
    pub fn refit_with(
        &mut self,
        added_points: &[f64],
        added_labels: &[bool],
        pool: &Pool,
    ) -> RefitOutcome {
        assert_eq!(
            added_points.len(),
            added_labels.len() * self.dims,
            "ragged refit batch"
        );
        let base = self.labels.len();
        self.data.extend_from_slice(added_points);
        self.labels.extend_from_slice(added_labels);
        if added_labels.is_empty() {
            return RefitOutcome {
                rebuilt: false,
                leaves_touched: 0,
            };
        }
        // Cost-complexity pruning is a whole-tree transform: any local
        // change can shift the weakest link, so pruned trees always rebuild.
        if self.params.ccp_alpha > 0.0 {
            return self.full_rebuild(pool);
        }
        let adds: Vec<u32> = (base as u32..self.labels.len() as u32).collect();
        let mut leaves_touched = 0usize;
        let mut stack: Vec<(usize, Vec<u32>)> = vec![(self.root, adds)];
        while let Some((id, adds)) = stack.pop() {
            let added_pos = adds
                .iter()
                .filter(|&&i| self.labels[i as usize])
                .count();
            let node = &mut self.nodes[id];
            node.samples += adds.len();
            node.positives += added_pos;
            match &mut node.kind {
                FitKind::Leaf { indices } => {
                    indices.extend_from_slice(&adds);
                    leaves_touched += 1;
                    self.regrow_leaf(id, pool);
                }
                FitKind::Split {
                    dim,
                    threshold,
                    left,
                    right,
                    orders,
                } => {
                    let (dim, threshold, left, right) = (*dim, *threshold, *left, *right);
                    // Merge the new samples into each cached order, then
                    // re-sweep every dimension: a cold fit would see the
                    // augmented sample set, so any dimension could now win.
                    for d in 0..self.dims {
                        let mut sorted_adds = adds.clone();
                        sort_by_dim(self.dims, &self.data, &mut sorted_adds, d);
                        let merged = merge_orders(self.dims, &self.data, &orders[d], &sorted_adds, d);
                        orders[d] = merged;
                    }
                    let orders = match &self.nodes[id].kind {
                        FitKind::Split { orders, .. } => orders,
                        FitKind::Leaf { .. } => unreachable!(),
                    };
                    let mut best = None;
                    for d in 0..self.dims {
                        best = merge_candidates(
                            best,
                            sweep_dim(
                                self.dims,
                                &self.data,
                                &self.labels,
                                &orders[d],
                                d,
                                self.params.min_samples_leaf,
                            ),
                        );
                    }
                    let stable = matches!(
                        best,
                        Some((bd, bt, g)) if bd == dim && bt == threshold && g >= self.params.min_gain
                    );
                    if !stable {
                        // Interior split flipped: the incremental premise
                        // (ancestor partitions unchanged) is void.
                        return self.full_rebuild(pool);
                    }
                    let mut go_left = Vec::new();
                    let mut go_right = Vec::new();
                    for &i in &adds {
                        if self.data[i as usize * self.dims + dim] <= threshold {
                            go_left.push(i);
                        } else {
                            go_right.push(i);
                        }
                    }
                    if !go_left.is_empty() {
                        stack.push((left, go_left));
                    }
                    if !go_right.is_empty() {
                        stack.push((right, go_right));
                    }
                }
            }
        }
        self.tree = self.compile();
        RefitOutcome {
            rebuilt: false,
            leaves_touched,
        }
    }

    /// Re-runs the split search on one touched leaf, growing a subtree in
    /// place when the augmented sample set now splits.
    fn regrow_leaf(&mut self, id: usize, pool: &Pool) {
        let depth = self.nodes[id].depth;
        let mut indices = match &mut self.nodes[id].kind {
            FitKind::Leaf { indices } => std::mem::take(indices),
            FitKind::Split { .. } => unreachable!("regrow_leaf on a split"),
        };
        let sub = build_fit(
            self.dims,
            &self.data,
            &self.labels,
            &mut indices,
            &self.params,
            depth,
            &mut self.nodes,
            pool,
        );
        // `build_fit` appends a fresh subtree; alias the old slot to its
        // root so parents keep their child ids. (The displaced nodes stay
        // allocated until the next full rebuild — bounded garbage.)
        let root = self.nodes[sub].clone();
        self.nodes[id] = root;
    }

    fn full_rebuild(&mut self, pool: &Pool) -> RefitOutcome {
        self.rebuild(pool);
        RefitOutcome {
            rebuilt: true,
            leaves_touched: self.tree.num_leaves(),
        }
    }

    fn rebuild(&mut self, pool: &Pool) {
        let n = self.labels.len();
        let mut indices: Vec<u32> = (0..n as u32).collect();
        self.nodes.clear();
        self.root = build_fit(
            self.dims,
            &self.data,
            &self.labels,
            &mut indices,
            &self.params,
            0,
            &mut self.nodes,
            pool,
        );
        self.tree = self.compile();
    }

    /// Compiles the fit representation into a plain [`DecisionTree`] with
    /// the same post-order node layout as [`DecisionTree::fit`], so the
    /// two compare equal structurally, not just behaviorally.
    fn compile(&self) -> DecisionTree {
        let mut nodes = Vec::new();
        let root = self.compile_node(self.root, &mut nodes);
        let mut tree = DecisionTree {
            dims: self.dims,
            nodes,
            root,
        };
        if self.params.ccp_alpha > 0.0 {
            tree.prune(self.params.ccp_alpha);
        }
        tree
    }

    fn compile_node(&self, id: usize, nodes: &mut Vec<Node>) -> usize {
        let fit = &self.nodes[id];
        match &fit.kind {
            FitKind::Leaf { .. } => {
                nodes.push(Node::Leaf {
                    label: fit.positives * 2 > fit.samples,
                    samples: fit.samples,
                    positives: fit.positives,
                });
            }
            FitKind::Split {
                dim,
                threshold,
                left,
                right,
                ..
            } => {
                let l = self.compile_node(*left, nodes);
                let r = self.compile_node(*right, nodes);
                nodes.push(Node::Split {
                    dim: *dim,
                    threshold: *threshold,
                    left: l,
                    right: r,
                    samples: fit.samples,
                    positives: fit.positives,
                });
            }
        }
        nodes.len() - 1
    }
}

/// Merges a node's cached dim-sorted order with a (dim-sorted) batch of
/// added indices. Ties may interleave arbitrarily; the sweep is invariant.
fn merge_orders(dims: usize, data: &[f64], order: &[u32], adds: &[u32], dim: usize) -> Vec<u32> {
    let key = |i: u32| data[i as usize * dims + dim];
    let mut out = Vec::with_capacity(order.len() + adds.len());
    let (mut a, mut b) = (0usize, 0usize);
    while a < order.len() && b < adds.len() {
        if key(order[a]) <= key(adds[b]) {
            out.push(order[a]);
            a += 1;
        } else {
            out.push(adds[b]);
            b += 1;
        }
    }
    out.extend_from_slice(&order[a..]);
    out.extend_from_slice(&adds[b..]);
    out
}

/// [`build`]'s twin that additionally records the fit representation:
/// leaves own their sample indices, splits cache per-dimension sorted
/// orders. Chooses exactly the same structure as [`build`] (shared sweep
/// and merge code), just serially per node — nodes the refit touches are
/// far below [`PAR_SPLIT_MIN_SAMPLES`] in the steering loop.
#[allow(clippy::too_many_arguments)]
fn build_fit(
    dims: usize,
    data: &[f64],
    labels: &[bool],
    indices: &mut [u32],
    params: &TreeParams,
    depth: usize,
    nodes: &mut Vec<FitNode>,
    pool: &Pool,
) -> usize {
    let samples = indices.len();
    let positives = indices.iter().filter(|&&i| labels[i as usize]).count();
    let make_leaf = |nodes: &mut Vec<FitNode>, indices: &[u32]| {
        nodes.push(FitNode {
            depth,
            samples,
            positives,
            kind: FitKind::Leaf {
                indices: indices.to_vec(),
            },
        });
        nodes.len() - 1
    };
    if positives == 0
        || positives == samples
        || samples < params.min_samples_split
        || depth >= params.max_depth
    {
        return make_leaf(nodes, indices);
    }
    // Build the per-dimension sorted orders once and sweep them — the
    // same candidates `best_split` would produce, kept for future refits.
    let orders: Vec<Vec<u32>> = if pool.is_serial() || dims < 2 || samples < PAR_SPLIT_MIN_SAMPLES {
        (0..dims)
            .map(|d| {
                let mut o = indices.to_vec();
                sort_by_dim(dims, data, &mut o, d);
                o
            })
            .collect()
    } else {
        pool.par_map_collect(dims, 1, |range| {
            let mut o = indices.to_vec();
            sort_by_dim(dims, data, &mut o, range.start);
            vec![o]
        })
    };
    let mut best = None;
    for d in 0..dims {
        best = merge_candidates(
            best,
            sweep_dim(dims, data, labels, &orders[d], d, params.min_samples_leaf),
        );
    }
    let Some((dim, threshold, gain)) = best else {
        return make_leaf(nodes, indices);
    };
    if gain < params.min_gain {
        return make_leaf(nodes, indices);
    }
    // Partition in place: left gets point[dim] <= threshold.
    let mut lo = 0usize;
    let mut hi = indices.len();
    while lo < hi {
        if data[indices[lo] as usize * dims + dim] <= threshold {
            lo += 1;
        } else {
            hi -= 1;
            indices.swap(lo, hi);
        }
    }
    debug_assert!(lo > 0 && lo < indices.len(), "degenerate split survived");
    let (left_slice, right_slice) = indices.split_at_mut(lo);
    let left = build_fit(dims, data, labels, left_slice, params, depth + 1, nodes, pool);
    let right = build_fit(dims, data, labels, right_slice, params, depth + 1, nodes, pool);
    nodes.push(FitNode {
        depth,
        samples,
        positives,
        kind: FitKind::Split {
            dim,
            threshold,
            left,
            right,
            orders,
        },
    });
    nodes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Figure 2 example: relevant iff
    /// (age <= 20 ∧ 10 < dosage <= 15) ∨ (20 < age <= 40 ∧ dosage <= 10).
    fn figure2_data() -> (Vec<f64>, Vec<bool>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let mut push = |age: f64, dosage: f64| {
            let relevant = (age <= 20.0 && dosage > 10.0 && dosage <= 15.0)
                || (age > 20.0 && age <= 40.0 && dosage <= 10.0);
            data.push(age);
            data.push(dosage);
            labels.push(relevant);
        };
        for age_step in 0..40 {
            for dosage_step in 0..15 {
                push(age_step as f64 + 0.5, dosage_step as f64 + 0.5);
            }
        }
        (data, labels)
    }

    #[test]
    fn values_an_ulp_apart_split_at_the_lower_one() {
        // The midpoint of these two rounds (to even) up to the second.
        let v = 1.0f64.next_up();
        assert_eq!(v + (v.next_up() - v) / 2.0, v.next_up());
        let tree = DecisionTree::fit(1, &[v, v.next_up()], &[false, true], &TreeParams::default());
        assert_eq!(tree.split_rules()[0].threshold, v);
        assert!(!tree.predict(&[v]));
        assert!(tree.predict(&[v.next_up()]));
    }

    #[test]
    fn separable_data_is_learned_exactly() {
        let (data, labels) = figure2_data();
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        for (i, &label) in labels.iter().enumerate() {
            let p = &data[i * 2..i * 2 + 2];
            assert_eq!(tree.predict(p), label, "point {p:?}");
        }
    }

    #[test]
    fn relevant_regions_partition_the_space() {
        let (data, labels) = figure2_data();
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let bounds = Rect::new(vec![0.0, 0.0], vec![40.0, 15.0]);
        let relevant = tree.regions(true, &bounds);
        let irrelevant = tree.regions(false, &bounds);
        assert!(!relevant.is_empty());
        // Volumes of relevant + irrelevant regions tile the bounds.
        let vol: f64 = relevant.iter().chain(&irrelevant).map(|r| r.volume()).sum();
        assert!((vol - bounds.volume()).abs() < 1e-6, "volume {vol}");
        // Every training point's region label matches the prediction.
        for i in 0..labels.len() {
            let p = &data[i * 2..i * 2 + 2];
            let in_relevant = relevant.iter().any(|r| r.contains(p));
            assert_eq!(in_relevant, tree.predict(p), "point {p:?}");
        }
    }

    #[test]
    fn pure_training_set_yields_single_leaf() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let labels = vec![true, true];
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert!(tree.predict(&[50.0, 50.0]));
        assert!(tree.split_rules().is_empty());
        assert!(tree.used_dims().is_empty());
    }

    #[test]
    fn identical_points_with_mixed_labels_fall_back_to_majority() {
        let data = vec![5.0, 5.0, 5.0, 5.0, 5.0, 5.0];
        let labels = vec![true, false, false];
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        assert_eq!(tree.num_leaves(), 1);
        assert!(!tree.predict(&[5.0, 5.0]));
    }

    #[test]
    fn tie_breaks_to_irrelevant() {
        let data = vec![5.0, 5.0];
        let labels = vec![true, false];
        // Identical points, 50/50 labels: conservative leaf = irrelevant.
        let tree = DecisionTree::fit(1, &data, &labels, &TreeParams::default());
        assert!(!tree.predict(&[5.0]));
    }

    #[test]
    fn max_depth_limits_growth() {
        let (data, labels) = figure2_data();
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(2, &data, &labels, &params);
        assert!(tree.depth() <= 1);
        assert!(tree.num_leaves() <= 2);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (data, labels) = figure2_data();
        let params = TreeParams {
            min_samples_leaf: 50,
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(2, &data, &labels, &params);
        let bounds = Rect::new(vec![0.0, 0.0], vec![40.0, 15.0]);
        // Every leaf region must hold at least 50 training points.
        for rect in tree
            .regions(true, &bounds)
            .iter()
            .chain(tree.regions(false, &bounds).iter())
        {
            let n = (0..labels.len())
                .filter(|&i| rect.contains(&data[i * 2..i * 2 + 2]))
                .count();
            assert!(n >= 50, "leaf with {n} points");
        }
    }

    #[test]
    fn used_dims_excludes_irrelevant_attributes() {
        // Label depends only on dim 0; dim 1 is noise with a coarse grid,
        // so the clean dim-0 split dominates.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            data.push(i as f64);
            data.push((i * 37 % 100) as f64);
            labels.push(i < 50);
        }
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        assert_eq!(tree.used_dims(), vec![0]);
        let imp = tree.feature_importances();
        assert!(imp[0] > 0.99);
        assert!(imp[1] < 0.01);
    }

    #[test]
    fn pruning_collapses_noise_splits() {
        // 200 points, labels = dim0 < 50 with 4 flipped labels: the
        // unpruned tree carves noise leaves; strong pruning removes them.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            data.push((i % 100) as f64);
            data.push((i / 2) as f64);
            let mut l = (i % 100) < 50;
            if i % 53 == 0 {
                l = !l;
            }
            labels.push(l);
        }
        let unpruned = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let mut pruned = unpruned.clone();
        pruned.prune(0.02);
        assert!(pruned.num_leaves() < unpruned.num_leaves());
        assert!(pruned.num_leaves() >= 2, "pruning kept the real split");
        // The dominant structure survives.
        assert!(pruned.predict(&[10.0, 50.0]));
        assert!(!pruned.predict(&[90.0, 50.0]));
    }

    #[test]
    fn split_rules_report_thresholds() {
        let data = vec![0.0, 0.0, 10.0, 0.0, 20.0, 0.0, 30.0, 0.0];
        let labels = vec![false, false, true, true];
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let rules = tree.split_rules();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].dim, 0);
        assert!((rules[0].threshold - 15.0).abs() < 1e-12);
    }

    #[test]
    fn dot_export_mentions_rules_and_leaves() {
        let data = vec![0.0, 0.0, 10.0, 0.0, 20.0, 0.0, 30.0, 0.0];
        let labels = vec![false, false, true, true];
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let dot = tree.to_dot(&["age", "dosage"]);
        assert!(dot.starts_with("digraph decision_tree {"));
        assert!(dot.contains("age <= 15.0000"), "split rule missing: {dot}");
        assert!(dot.contains("relevant"));
        assert!(dot.contains("irrelevant"));
        assert!(dot.contains("-> "), "edges missing");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    #[should_panic(expected = "need a name")]
    fn dot_export_requires_all_attribute_names() {
        let tree = DecisionTree::fit(2, &[1.0, 2.0], &[true], &TreeParams::default());
        tree.to_dot(&["only_one"]);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_training_set_panics() {
        DecisionTree::fit(1, &[], &[], &TreeParams::default());
    }

    #[test]
    fn incremental_refit_matches_cold_fit_batch_by_batch() {
        // Grow the figure-2 set in shuffled batches of 7; after each batch
        // the incremental tree must equal a cold fit on the prefix,
        // node-layout included.
        let (data, labels) = figure2_data();
        let n = labels.len();
        let order: Vec<usize> = (0..n).map(|i| (i * 131) % n).collect();
        let params = TreeParams::default();
        let first = 16usize;
        let batch_of = |range: std::ops::Range<usize>| {
            let mut d = Vec::new();
            let mut l = Vec::new();
            for &i in &order[range] {
                d.extend_from_slice(&data[i * 2..i * 2 + 2]);
                l.push(labels[i]);
            }
            (d, l)
        };
        let (d0, l0) = batch_of(0..first);
        let mut inc = IncrementalTree::fit(2, &d0, &l0, &params);
        let (mut all_d, mut all_l) = (d0, l0);
        let mut start = first;
        let mut saw_incremental = false;
        while start < n {
            let end = (start + 7).min(n);
            let (d, l) = batch_of(start..end);
            let out = inc.refit(&d, &l);
            saw_incremental |= !out.rebuilt;
            all_d.extend_from_slice(&d);
            all_l.extend_from_slice(&l);
            let cold = DecisionTree::fit(2, &all_d, &all_l, &params);
            assert_eq!(inc.tree(), &cold, "prefix of {} samples", all_l.len());
            start = end;
        }
        assert!(saw_incremental, "every batch fell back to a rebuild");
    }

    #[test]
    fn empty_refit_batch_is_a_no_op() {
        let (data, labels) = figure2_data();
        let params = TreeParams::default();
        let mut inc = IncrementalTree::fit(2, &data, &labels, &params);
        let before = inc.tree().clone();
        let out = inc.refit(&[], &[]);
        assert_eq!(out, RefitOutcome { rebuilt: false, leaves_touched: 0 });
        assert_eq!(inc.tree(), &before);
        assert_eq!(inc.samples(), labels.len());
    }

    #[test]
    fn pruned_params_always_rebuild() {
        let (data, labels) = figure2_data();
        let params = TreeParams {
            ccp_alpha: 0.01,
            ..TreeParams::default()
        };
        let mut inc = IncrementalTree::fit(2, &data[..2 * 50], &labels[..50], &params);
        let out = inc.refit(&data[2 * 50..2 * 80], &labels[50..80]);
        assert!(out.rebuilt);
        let cold = DecisionTree::fit(2, &data[..2 * 80], &labels[..80], &params);
        assert_eq!(inc.tree(), &cold);
    }

    #[test]
    fn interior_flip_falls_back_to_rebuild_and_still_matches() {
        // Start with a clean x-split, then flood the right side with
        // points that make a different root split optimal.
        let params = TreeParams::default();
        let data = vec![0.0, 0.0, 1.0, 0.0, 10.0, 0.0, 11.0, 0.0];
        let labels = vec![true, true, false, false];
        let mut inc = IncrementalTree::fit(2, &data, &labels, &params);
        assert_eq!(inc.tree().split_rules()[0].dim, 0);
        // New batch: labels now depend on dim 1, overwhelming dim 0.
        let mut add = Vec::new();
        let mut add_l = Vec::new();
        for i in 0..40 {
            let y = if i % 2 == 0 { 0.0 } else { 5.0 };
            add.push(5.0 + (i % 7) as f64 * 0.9);
            add.push(y);
            add_l.push(y > 2.0);
        }
        let out = inc.refit(&add, &add_l);
        let mut all = data.clone();
        all.extend_from_slice(&add);
        let mut all_l = labels.clone();
        all_l.extend_from_slice(&add_l);
        let cold = DecisionTree::fit(2, &all, &all_l, &params);
        assert_eq!(inc.tree(), &cold);
        assert!(out.rebuilt, "expected the interior flip to force a rebuild");
    }

    #[test]
    fn parallel_fit_is_identical_to_serial() {
        // Large enough to cross PAR_SPLIT_MIN_SAMPLES at the root, with
        // duplicate-heavy coordinates to stress the equal-value runs the
        // permutation-invariance argument hinges on.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..1_500usize {
            let x = (i % 40) as f64;
            let y = ((i * 7) % 25) as f64;
            data.push(x);
            data.push(y);
            labels.push((x <= 20.0 && y > 10.0 && y <= 15.0) || (x > 20.0 && i % 53 == 0));
        }
        let serial = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        for threads in [2, 3, 8] {
            let par =
                DecisionTree::fit_with(2, &data, &labels, &TreeParams::default(), &Pool::new(threads));
            assert_eq!(serial, par, "{threads} threads");
        }
    }
}
