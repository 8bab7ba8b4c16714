//! Multi-output CART regression tree.
//!
//! Splits minimise the summed per-output sum of squared errors; leaves
//! predict the mean target vector of their training samples. This is the
//! standard multi-output extension of CART used by scikit-learn's
//! `DecisionTreeRegressor`, which is what the paper's Random Forest builds
//! on.
//!
//! # Presorted growth
//!
//! A tree grows on flat row-major data and sees its training
//! sample as a list of row ids, so a bootstrap sample is a list of draws,
//! not a copy of the rows. Every feature is sorted once per tree, with a
//! stable sort of the sample in draw order; each node then owns one range
//! of every sorted list, and a split partitions those ranges stably into
//! its children. A stable partition of a list sorted by (value, draw
//! position) is again sorted by (value, draw position) — which is the
//! order a stable sort of the child's own samples, taken in draw order,
//! would produce. So every node scans its samples in exactly the order a
//! per-node sort gives, and every mean, total and prefix sum adds the same
//! numbers in the same order: the fitted tree is the same to the last bit
//! as one that re-sorts at every node (`tests/forest_equivalence.rs`
//! checks this against that tree, kept under `tests/support/`).
//!
//! # Query-driven growth
//!
//! Cross-validation reads a fitted forest only at a few held-out rows.
//! [`RandomForest::fit_predict`](crate::forest::RandomForest::fit_predict)
//! grows each tree with the same recursion but descends only into the
//! children some query falls into (`x[f] <= threshold`, the test
//! [`DecisionTree::predict`] makes), and adds the leaf each query reaches
//! to that query's sum. That is exact on a one-feature design, for three
//! reasons. A node's split and mean are a pure function of its range of
//! the presorted lists. Growing a node permutes only its own range of
//! each list, so skipping a sibling changes nothing another node reads.
//! And with one feature, `best_split`'s shuffle of a one-element list
//! draws nothing from the tree's RNG, so a skipped node leaves the stream
//! where every later node expects it. Every node on a query's path, and
//! its leaf mean, is therefore the one full growth makes. With more
//! features the shuffle draws once per node in growth order, a skipped
//! subtree would shift every later draw, and the query path refuses such
//! a design.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Tree growth parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features considered per split (`None` = all).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 16,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone)]
enum TreeNode {
    Leaf {
        value: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted multi-output regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
    n_features: usize,
    n_outputs: usize,
}

/// Training data flattened row-major: row `i` has its features at
/// `x[i * n_features..]` and its targets at `y[i * n_outputs..]`.
pub(crate) struct Design {
    x: Vec<f64>,
    y: Vec<f64>,
    n_rows: usize,
    n_features: usize,
    n_outputs: usize,
}

impl Design {
    /// Flattens feature rows `x` and target rows `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, rows are ragged, or `x.len() != y.len()`.
    pub(crate) fn new(x: &[Vec<f64>], y: &[Vec<f64>]) -> Self {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let n_features = x[0].len();
        let n_outputs = y[0].len();
        assert!(x.iter().all(|r| r.len() == n_features), "ragged features");
        assert!(y.iter().all(|r| r.len() == n_outputs), "ragged targets");
        Design {
            x: x.concat(),
            y: y.concat(),
            n_rows: x.len(),
            n_features,
            n_outputs,
        }
    }

    /// Number of rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features per row.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of targets per row.
    pub(crate) fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    fn x(&self, row: usize, feature: usize) -> f64 {
        self.x[row * self.n_features + feature]
    }

    fn y(&self, row: usize) -> &[f64] {
        &self.y[row * self.n_outputs..(row + 1) * self.n_outputs]
    }
}

/// The buffers growing a tree needs, reused across the trees of a forest.
#[derive(Default)]
pub(crate) struct Scratch {
    /// `n_features + 1` lists of the tree's sample, as row ids, each as
    /// long as the sample: list 0 in draw order, list `1 + f` stably
    /// sorted by feature `f`. A node owns the same range of every list.
    lists: Vec<usize>,
    /// The right-hand rows of one partition, before they move back.
    spill: Vec<usize>,
    /// Per design row: whether it goes left at the split being made.
    goes_left: Vec<bool>,
    /// The features a split considers.
    features: Vec<usize>,
    /// Query growth: query ids. A node some query falls into owns one
    /// range of it, and a split partitions that range into its children.
    reach: Vec<usize>,
    /// The current node's mean target vector.
    mean: Vec<f64>,
    /// Per output, one split scan's prefix sums of targets and squared
    /// targets, and their totals over the node.
    sum: Vec<f64>,
    sumsq: Vec<f64>,
    total_sum: Vec<f64>,
    total_sumsq: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on feature rows `x` and target rows `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, rows are ragged, `x.len() != y.len()`, or
    /// a feature is NaN — training data shape errors are programming
    /// errors.
    pub fn fit(x: &[Vec<f64>], y: &[Vec<f64>], cfg: &TreeConfig, seed: u64) -> Self {
        let design = Design::new(x, y);
        let rows: Vec<usize> = (0..design.n_rows).collect();
        Self::fit_rows(&design, &rows, cfg, seed, &mut Scratch::default())
    }

    /// Fits a tree on the sample `rows` of `design` (row ids, repeats
    /// allowed, in draw order), growing in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or a feature is NaN.
    pub(crate) fn fit_rows(
        design: &Design,
        rows: &[usize],
        cfg: &TreeConfig,
        seed: u64,
        scratch: &mut Scratch,
    ) -> Self {
        let mut grower = Grower::new(design, rows, cfg, seed, scratch, &[], &mut []);
        grower.grow(0, rows.len(), 0, None);
        DecisionTree {
            nodes: grower.nodes,
            n_features: design.n_features,
            n_outputs: design.n_outputs,
        }
    }

    /// Grows the tree [`Self::fit_rows`] fits only as far as `queries`
    /// (the one feature of each query row) fall, and adds the leaf each
    /// reaches to its row of `sums` (`n_outputs` values per query) with
    /// [`add_leaf`]. The module doc's "Query-driven growth" says why the
    /// leaves are the ones full growth makes.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, a feature is NaN, or the design has
    /// more than one feature.
    pub(crate) fn add_leaves(
        design: &Design,
        rows: &[usize],
        cfg: &TreeConfig,
        seed: u64,
        scratch: &mut Scratch,
        queries: &[f64],
        sums: &mut [f64],
    ) {
        assert_eq!(design.n_features, 1, "query-driven growth needs a one-feature design");
        if queries.is_empty() {
            return;
        }
        Grower::new(design, rows, cfg, seed, scratch, queries, sums).grow(
            0,
            rows.len(),
            0,
            Some(0..queries.len()),
        );
    }

    /// Predicts the target vector for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature count.
    pub fn predict(&self, features: &[f64]) -> Vec<f64> {
        self.leaf(features).to_vec()
    }

    /// The mean target vector of the leaf `features` falls into.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature count.
    pub(crate) fn leaf(&self, features: &[f64]) -> &[f64] {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { value } => return value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of outputs the tree predicts.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of nodes in the tree (leaves + splits).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.depth_from(0)
    }

    fn depth_from(&self, node: usize) -> usize {
        match &self.nodes[node] {
            TreeNode::Leaf { .. } => 0,
            TreeNode::Split { left, right, .. } => {
                1 + self.depth_from(*left).max(self.depth_from(*right))
            }
        }
    }
}

/// One tree's growth: the node `start..end` is that range of every list
/// in `s.lists`.
struct Grower<'a> {
    design: &'a Design,
    cfg: &'a TreeConfig,
    rng: StdRng,
    s: &'a mut Scratch,
    /// Sample size: the length of each list.
    n: usize,
    /// The fitted nodes; full growth only.
    nodes: Vec<TreeNode>,
    /// Query growth: each query's feature value, and per query its
    /// running sum of leaves (`n_outputs` values). Empty in full growth.
    queries: &'a [f64],
    sums: &'a mut [f64],
}

impl<'a> Grower<'a> {
    /// Sorts the sample `rows` (row ids in draw order) into the lists of
    /// `scratch`, lists every query in its `reach`, and sizes its buffers
    /// for `design`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or a feature is NaN.
    fn new(
        design: &'a Design,
        rows: &[usize],
        cfg: &'a TreeConfig,
        seed: u64,
        scratch: &'a mut Scratch,
        queries: &'a [f64],
        sums: &'a mut [f64],
    ) -> Self {
        assert!(!rows.is_empty(), "empty training set");
        let n = rows.len();
        let lists = &mut scratch.lists;
        lists.clear();
        lists.extend_from_slice(rows);
        for f in 0..design.n_features {
            lists.extend_from_slice(rows);
            lists[(1 + f) * n..].sort_by(|&a, &b| {
                design
                    .x(a, f)
                    .partial_cmp(&design.x(b, f))
                    .expect("finite features")
            });
        }
        scratch.goes_left.clear();
        scratch.goes_left.resize(design.n_rows, false);
        scratch.reach.clear();
        scratch.reach.extend(0..queries.len());
        for buf in [
            &mut scratch.mean,
            &mut scratch.sum,
            &mut scratch.sumsq,
            &mut scratch.total_sum,
            &mut scratch.total_sumsq,
        ] {
            buf.clear();
            buf.resize(design.n_outputs, 0.0);
        }
        Grower {
            design,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            s: scratch,
            n,
            nodes: Vec::new(),
            queries,
            sums,
        }
    }

    /// Grows the subtree for the samples `start..end`. In full growth
    /// (`reach` is `None`: every branch is wanted) it records the
    /// subtree's nodes and returns the id of its root. In query growth
    /// `reach` is the node's range of `s.reach`, never empty; it grows
    /// only the children some query falls into, records no node, and
    /// returns `None`.
    fn grow(
        &mut self,
        start: usize,
        end: usize,
        depth: usize,
        reach: Option<Range<usize>>,
    ) -> Option<usize> {
        let len = end - start;
        let cfg = self.cfg;
        self.node_mean(start, end);
        if depth >= cfg.max_depth
            || len < cfg.min_samples_split
            || len < 2 * cfg.min_samples_leaf
        {
            return self.leaf(reach);
        }
        let Some((feature, threshold)) = self.best_split(start, end) else {
            return self.leaf(reach);
        };
        let n_left = self.mark_left(start, end, feature, threshold);
        if n_left < cfg.min_samples_leaf || len - n_left < cfg.min_samples_leaf {
            return self.leaf(reach);
        }
        self.partition(start, end);
        let mid = start + n_left;
        let Some(reach) = reach else {
            // Reserve the split slot before growing children so child ids
            // are known.
            let id = self.nodes.len();
            self.nodes.push(TreeNode::Leaf { value: Vec::new() });
            let left = self.grow(start, mid, depth + 1, None)?;
            let right = self.grow(mid, end, depth + 1, None)?;
            self.nodes[id] = TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            };
            return Some(id);
        };
        // The queries that go left, by `predict`'s test, first.
        let queries = self.queries;
        let ids = &mut self.s.reach[reach.clone()];
        let mut split = 0;
        for pos in 0..ids.len() {
            if queries[ids[pos]] <= threshold {
                ids.swap(split, pos);
                split += 1;
            }
        }
        let split = reach.start + split;
        if split > reach.start {
            self.grow(start, mid, depth + 1, Some(reach.start..split));
        }
        if split < reach.end {
            self.grow(mid, end, depth + 1, Some(split..reach.end));
        }
        None
    }

    /// A leaf predicting the mean [`Self::node_mean`] left in scratch: in
    /// full growth a recorded node, whose id is returned; in query growth
    /// added to the sum of every query in `reach`, returning `None`.
    fn leaf(&mut self, reach: Option<Range<usize>>) -> Option<usize> {
        let Some(reach) = reach else {
            self.nodes.push(TreeNode::Leaf {
                value: self.s.mean.clone(),
            });
            return Some(self.nodes.len() - 1);
        };
        let k = self.design.n_outputs;
        for &q in &self.s.reach[reach] {
            add_leaf(&mut self.sums[q * k..(q + 1) * k], &self.s.mean);
        }
        None
    }

    /// Sets `s.mean` to the mean target vector of `start..end`, summed in
    /// draw order.
    fn node_mean(&mut self, start: usize, end: usize) {
        let Scratch { lists, mean, .. } = &mut *self.s;
        mean.fill(0.0);
        for &i in &lists[start..end] {
            for (m, v) in mean.iter_mut().zip(self.design.y(i)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= (end - start) as f64;
        }
    }

    /// Finds the (feature, threshold) minimising summed SSE over the
    /// samples `start..end`, or `None` if no split improves on the
    /// node. Expects `s.mean` to hold the node's mean.
    fn best_split(&mut self, start: usize, end: usize) -> Option<(usize, f64)> {
        let Grower {
            design: d,
            cfg,
            rng,
            s,
            n,
            ..
        } = self;
        let n = *n;
        s.features.clear();
        s.features.extend(0..d.n_features);
        if let Some(k) = cfg.max_features {
            s.features.shuffle(rng);
            s.features.truncate(k.max(1).min(d.n_features));
        }

        let parent_sse: f64 = s.lists[start..end]
            .iter()
            .map(|&i| {
                d.y(i)
                    .iter()
                    .zip(&s.mean)
                    .map(|(v, m)| {
                        let diff = v - m;
                        diff * diff
                    })
                    .sum::<f64>()
            })
            .sum();
        let mut best: Option<(f64, usize, f64)> = None;

        let len = end - start;
        for &f in &s.features {
            let order = &s.lists[(1 + f) * n + start..(1 + f) * n + end];

            // Prefix sums of targets and squared targets.
            for o in 0..d.n_outputs {
                s.total_sum[o] = order.iter().map(|&i| d.y(i)[o]).sum();
                s.total_sumsq[o] = order.iter().map(|&i| d.y(i)[o] * d.y(i)[o]).sum();
            }
            s.sum.fill(0.0);
            s.sumsq.fill(0.0);

            for pos in 0..len - 1 {
                for (o, &v) in d.y(order[pos]).iter().enumerate() {
                    s.sum[o] += v;
                    s.sumsq[o] += v * v;
                }
                // Only split between distinct feature values.
                let (here, next) = (d.x(order[pos], f), d.x(order[pos + 1], f));
                if here == next {
                    continue;
                }
                let nl = (pos + 1) as f64;
                let nr = (len - pos - 1) as f64;
                let mut split_sse = 0.0;
                for o in 0..d.n_outputs {
                    let ls = s.sumsq[o] - s.sum[o] * s.sum[o] / nl;
                    let rs_sum = s.total_sum[o] - s.sum[o];
                    let rs = (s.total_sumsq[o] - s.sumsq[o]) - rs_sum * rs_sum / nr;
                    split_sse += ls + rs;
                }
                let improves = match best {
                    None => split_sse < parent_sse - 1e-12,
                    Some((b, _, _)) => split_sse < b,
                };
                if improves {
                    best = Some((split_sse, f, 0.5 * (here + next)));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Marks which rows of `start..end` go left at `feature <=
    /// threshold` and returns how many samples do.
    fn mark_left(&mut self, start: usize, end: usize, feature: usize, threshold: f64) -> usize {
        let Scratch {
            lists, goes_left, ..
        } = &mut *self.s;
        let mut n_left = 0;
        for &i in &lists[start..end] {
            let left = self.design.x(i, feature) <= threshold;
            goes_left[i] = left;
            n_left += usize::from(left);
        }
        n_left
    }

    /// Partitions `start..end` of every list stably by the marks of
    /// [`Self::mark_left`]: left rows first, each side in list order.
    fn partition(&mut self, start: usize, end: usize) {
        let Scratch {
            lists,
            spill,
            goes_left,
            ..
        } = &mut *self.s;
        for list in lists.chunks_exact_mut(self.n) {
            let node = &mut list[start..end];
            spill.clear();
            let mut kept = 0;
            for pos in 0..node.len() {
                let i = node[pos];
                if goes_left[i] {
                    node[kept] = i;
                    kept += 1;
                } else {
                    spill.push(i);
                }
            }
            node[kept..].copy_from_slice(spill);
        }
    }
}

/// Adds a leaf's mean target vector to a running sum, output by output:
/// the one addition both [`RandomForest::predict`] and query growth make
/// per tree.
///
/// [`RandomForest::predict`]: crate::forest::RandomForest::predict
pub(crate) fn add_leaf(sum: &mut [f64], leaf: &[f64]) {
    for (s, v) in sum.iter_mut().zip(leaf) {
        *s += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_targets_yield_single_leaf() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![vec![5.0], vec![5.0], vec![5.0]];
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), 0);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&[1.5]), vec![5.0]);
    }

    #[test]
    fn perfect_step_function_is_learned_exactly() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![if i < 5 { 1.0 } else { 2.0 }])
            .collect();
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), 0);
        assert_eq!(t.predict(&[0.0]), vec![1.0]);
        assert_eq!(t.predict(&[9.0]), vec![2.0]);
        assert_eq!(t.predict(&[4.4]), vec![1.0]);
    }

    #[test]
    fn multi_output_split_considers_all_outputs() {
        // Output 0 is constant; output 1 steps at x=2.5. The split must be
        // driven by output 1.
        let x: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let y: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![1.0, if i < 3 { 0.0 } else { 10.0 }])
            .collect();
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), 0);
        assert_eq!(t.predict(&[0.0]), vec![1.0, 0.0]);
        assert_eq!(t.predict(&[5.0]), vec![1.0, 10.0]);
    }

    #[test]
    fn max_depth_limits_tree() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&x, &y, &cfg, 0);
        assert!(t.depth() <= 3);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        let y: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        let cfg = TreeConfig {
            min_samples_leaf: 4,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&x, &y, &cfg, 0);
        // With 16 samples and min leaf 4 there can be at most 4 leaves.
        let leaves = (0..t.n_nodes())
            .filter(|&i| matches!(t.nodes[i], TreeNode::Leaf { .. }))
            .count();
        assert!(leaves <= 4, "leaves={leaves}");
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0], vec![2.0]];
        let y = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), 0);
        // The only legal split separates x=1 from x=2.
        assert_eq!(t.predict(&[1.0]), vec![1.0]);
        assert_eq!(t.predict(&[2.0]), vec![10.0]);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i * 7 % 13) as f64, (i * 3 % 11) as f64])
            .collect();
        let y: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0] * 2.0 + r[1]]).collect();
        let cfg = TreeConfig {
            max_features: Some(1),
            ..TreeConfig::default()
        };
        let a = DecisionTree::fit(&x, &y, &cfg, 7);
        let b = DecisionTree::fit(&x, &y, &cfg, 7);
        for i in 0..20 {
            let probe = vec![i as f64, (20 - i) as f64];
            assert_eq!(a.predict(&probe), b.predict(&probe));
        }
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_rejects_wrong_arity() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![vec![0.0], vec![1.0]];
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), 0);
        t.predict(&[0.0, 1.0]);
    }
}
