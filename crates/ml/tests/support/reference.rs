//! The forest oracle: `DecisionTree` and `RandomForest::fit` exactly as
//! `vc_ml` computed them before presorted growth — every node re-sorts
//! its indices per feature, allocates its prefix sums, and `sse`
//! recomputes the node mean; every tree fits on a copied bootstrap
//! sample. Nothing here is shared with the production code except the
//! two config types, so the equivalence suite compares two independent
//! computations. Test files include it with
//! `#[path = "support/reference.rs"] mod reference;`.
//!
//! The bodies are the old ones verbatim; the only edits are the two
//! config imports and [`RandomForest::trees`], which lets the suite
//! compare the shapes of individual trees.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use rand::SeedableRng;

use vc_ml::forest::ForestConfig;
use vc_ml::tree::TreeConfig;

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

impl DecisionTree {
    /// Fits a tree on feature rows `x` and target rows `y`.
    pub fn fit(x: &[Vec<f64>], y: &[Vec<f64>], cfg: &TreeConfig, seed: u64) -> Self {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let n_features = x[0].len();
        let n_outputs = y[0].len();
        assert!(x.iter().all(|r| r.len() == n_features), "ragged features");
        assert!(y.iter().all(|r| r.len() == n_outputs), "ragged targets");

        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_features,
            n_outputs,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let indices: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, y, indices, 0, cfg, &mut rng);
        tree
    }

    /// Predicts the target vector for one feature row.
    pub fn predict(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(features.len(), self.n_features, "feature count mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { value } => return value.clone(),
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

    /// Grows the subtree for `indices`, returning its node id.
    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        indices: Vec<usize>,
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let mean = mean_vector(y, &indices, self.n_outputs);
        if depth >= cfg.max_depth
            || indices.len() < cfg.min_samples_split
            || indices.len() < 2 * cfg.min_samples_leaf
        {
            return self.push_leaf(mean);
        }
        match self.best_split(x, y, &indices, cfg, rng) {
            None => self.push_leaf(mean),
            Some((feature, threshold)) => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| x[i][feature] <= threshold);
                if li.len() < cfg.min_samples_leaf || ri.len() < cfg.min_samples_leaf {
                    return self.push_leaf(mean);
                }
                // Reserve the split slot before growing children so child
                // ids are known.
                let id = self.nodes.len();
                self.nodes.push(TreeNode::Leaf { value: Vec::new() });
                let left = self.grow(x, y, li, depth + 1, cfg, rng);
                let right = self.grow(x, y, ri, depth + 1, cfg, rng);
                self.nodes[id] = TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                id
            }
        }
    }

    fn push_leaf(&mut self, value: Vec<f64>) -> usize {
        self.nodes.push(TreeNode::Leaf { value });
        self.nodes.len() - 1
    }

    /// Finds the (feature, threshold) minimising summed SSE, or `None` if
    /// no split improves on the parent.
    fn best_split(
        &self,
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        indices: &[usize],
        cfg: &TreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(k) = cfg.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(self.n_features));
        }

        let parent_sse = sse(y, indices, self.n_outputs);
        let mut best: Option<(f64, usize, f64)> = None;

        for &f in &features {
            // Sort indices by this feature.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("finite features"));

            // Prefix sums of targets and squared targets.
            let n = order.len();
            let k = self.n_outputs;
            let mut sum = vec![0.0; k];
            let mut sumsq = vec![0.0; k];
            let total_sum: Vec<f64> = (0..k)
                .map(|o| order.iter().map(|&i| y[i][o]).sum())
                .collect();
            let total_sumsq: Vec<f64> = (0..k)
                .map(|o| order.iter().map(|&i| y[i][o] * y[i][o]).sum())
                .collect();

            for pos in 0..n - 1 {
                let i = order[pos];
                for o in 0..k {
                    sum[o] += y[i][o];
                    sumsq[o] += y[i][o] * y[i][o];
                }
                // Only split between distinct feature values.
                if x[order[pos]][f] == x[order[pos + 1]][f] {
                    continue;
                }
                let nl = (pos + 1) as f64;
                let nr = (n - pos - 1) as f64;
                let mut split_sse = 0.0;
                for o in 0..k {
                    let ls = sumsq[o] - sum[o] * sum[o] / nl;
                    let rs_sum = total_sum[o] - sum[o];
                    let rs = (total_sumsq[o] - sumsq[o]) - rs_sum * rs_sum / nr;
                    split_sse += ls + rs;
                }
                let improves = match best {
                    None => split_sse < parent_sse - 1e-12,
                    Some((b, _, _)) => split_sse < b,
                };
                if improves {
                    let threshold = 0.5 * (x[order[pos]][f] + x[order[pos + 1]][f]);
                    best = Some((split_sse, f, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

fn mean_vector(y: &[Vec<f64>], indices: &[usize], k: usize) -> Vec<f64> {
    let mut mean = vec![0.0; k];
    for &i in indices {
        for o in 0..k {
            mean[o] += y[i][o];
        }
    }
    for v in &mut mean {
        *v /= indices.len() as f64;
    }
    mean
}

fn sse(y: &[Vec<f64>], indices: &[usize], k: usize) -> f64 {
    let mean = mean_vector(y, indices, k);
    indices
        .iter()
        .map(|&i| {
            (0..k)
                .map(|o| {
                    let d = y[i][o] - mean[o];
                    d * d
                })
                .sum::<f64>()
        })
        .sum()
}

/// A fitted Random Forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_outputs: usize,
}

impl RandomForest {
    /// Fits a forest on feature rows `x` and target rows `y`.
    pub fn fit(x: &[Vec<f64>], y: &[Vec<f64>], cfg: &ForestConfig, seed: u64) -> Self {
        assert!(!x.is_empty(), "empty training set");
        let n_features = x[0].len();
        let n_outputs = y[0].len();
        // sqrt-feature heuristic unless the caller fixed max_features.
        let max_features = cfg
            .tree
            .max_features
            .unwrap_or_else(|| ((n_features as f64).sqrt().ceil() as usize).max(1));
        let tree_cfg = TreeConfig {
            max_features: Some(max_features),
            ..cfg.tree.clone()
        };

        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            let tree_seed: u64 = rng.random();
            let (bx, by): (Vec<Vec<f64>>, Vec<Vec<f64>>) = if cfg.bootstrap {
                let mut bx = Vec::with_capacity(x.len());
                let mut by = Vec::with_capacity(y.len());
                for _ in 0..x.len() {
                    let i = rng.random_range(0..x.len());
                    bx.push(x[i].clone());
                    by.push(y[i].clone());
                }
                (bx, by)
            } else {
                (x.to_vec(), y.to_vec())
            };
            trees.push(DecisionTree::fit(&bx, &by, &tree_cfg, tree_seed));
        }
        RandomForest { trees, n_outputs }
    }

    /// Predicts the mean target vector over all trees.
    pub fn predict(&self, features: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_outputs];
        for t in &self.trees {
            let p = t.predict(features);
            for (a, v) in acc.iter_mut().zip(p) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= self.trees.len() as f64;
        }
        acc
    }

    /// The fitted trees, in fit order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}
