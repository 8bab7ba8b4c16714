//! Multi-output Random Forest regressor.
//!
//! Bootstrap-aggregated CART trees with per-split feature subsampling —
//! the model the paper selects because it "learns non-linear functions
//! with very little or no tuning" (§5).

use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;

use crate::tree::{add_leaf, DecisionTree, Design, Scratch, TreeConfig};

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees; at least one.
    pub n_trees: usize,
    /// Per-tree growth parameters. `max_features = None` here means
    /// "use sqrt(n_features)" at fit time (the usual forest default).
    pub tree: TreeConfig,
    /// Whether to bootstrap-sample the training set per tree.
    pub bootstrap: bool,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 14,
                min_samples_leaf: 2,
                min_samples_split: 4,
                max_features: None,
            },
            bootstrap: true,
        }
    }
}

/// A fitted Random Forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_outputs: usize,
}

impl RandomForest {
    /// Fits a forest on feature rows `x` and target rows `y`.
    ///
    /// Deterministic for a fixed `seed`: each tree derives its bootstrap
    /// sample and split randomness from a per-tree child seed.
    ///
    /// # Panics
    ///
    /// Panics with "a forest needs at least one tree" if `cfg.n_trees`
    /// is 0, and on empty, ragged or NaN-featured training data (see
    /// [`DecisionTree::fit`]).
    pub fn fit(x: &[Vec<f64>], y: &[Vec<f64>], cfg: &ForestConfig, seed: u64) -> Self {
        let design = Design::new(x, y);
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for_each_tree(&design, cfg, seed, |rows, tree_cfg, tree_seed, scratch| {
            trees.push(DecisionTree::fit_rows(&design, rows, tree_cfg, tree_seed, scratch));
        });
        RandomForest {
            trees,
            n_outputs: design.n_outputs(),
        }
    }

    /// What [`Self::fit`] on `x`, `y`, `cfg` and `seed` followed by
    /// [`Self::predict`] at `[q]` returns for each `q` of `queries`, to
    /// the last bit, for a one-feature design. Each tree grows only the
    /// branches some query falls into (see the `tree` module's
    /// "Query-driven growth"); no tree is kept.
    ///
    /// # Panics
    ///
    /// Panics with "a forest needs at least one tree" if `cfg.n_trees`
    /// is 0, if the rows of `x` have more than one feature (the per-node
    /// feature shuffle would make skipped branches shift the randomness
    /// of later ones), and where [`Self::fit`] panics.
    pub fn fit_predict(
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        cfg: &ForestConfig,
        seed: u64,
        queries: &[f64],
    ) -> Vec<Vec<f64>> {
        let design = Design::new(x, y);
        let k = design.n_outputs();
        let mut sums = vec![0.0; queries.len() * k];
        for_each_tree(&design, cfg, seed, |rows, tree_cfg, tree_seed, scratch| {
            DecisionTree::add_leaves(
                &design, rows, tree_cfg, tree_seed, scratch, queries, &mut sums,
            );
        });
        mean_over_trees(&mut sums, cfg.n_trees);
        (0..queries.len()).map(|q| sums[q * k..(q + 1) * k].to_vec()).collect()
    }

    /// Predicts the mean target vector over all trees.
    pub fn predict(&self, features: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_outputs];
        for t in &self.trees {
            add_leaf(&mut acc, t.leaf(features));
        }
        mean_over_trees(&mut acc, self.trees.len());
        acc
    }

    /// Number of trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, in fit order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Number of outputs the forest predicts.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }
}

/// Draws each tree's sample and seed from `seed`, in tree order, and
/// hands them to `grow` with the per-tree configuration and the buffers
/// every tree reuses. A tree's sample is a list of row draws into the
/// shared design.
///
/// # Panics
///
/// Panics if `cfg.n_trees` is 0: the mean over no trees is `0/0`.
fn for_each_tree(
    design: &Design,
    cfg: &ForestConfig,
    seed: u64,
    mut grow: impl FnMut(&[usize], &TreeConfig, u64, &mut Scratch),
) {
    assert!(cfg.n_trees > 0, "a forest needs at least one tree");
    let n = design.n_rows();
    // sqrt-feature heuristic unless the caller fixed max_features.
    let max_features = cfg
        .tree
        .max_features
        .unwrap_or_else(|| ((design.n_features() as f64).sqrt().ceil() as usize).max(1));
    let tree_cfg = TreeConfig {
        max_features: Some(max_features),
        ..cfg.tree.clone()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut scratch = Scratch::default();
    for _ in 0..cfg.n_trees {
        let tree_seed: u64 = rng.random();
        rows.clear();
        if cfg.bootstrap {
            rows.extend((0..n).map(|_| rng.random_range(0..n)));
        } else {
            rows.extend(0..n);
        }
        grow(&rows, &tree_cfg, tree_seed, &mut scratch);
    }
}

/// Divides sums of `n_trees` leaves into their means.
fn mean_over_trees(sum: &mut [f64], n_trees: usize) {
    for s in sum {
        *s /= n_trees as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_quadratic(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // Deterministic pseudo-noise from the index so tests need no RNG.
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64) / n as f64 * 4.0]).collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| vec![x[0] * x[0] + ((i * 2654435761) % 97) as f64 / 970.0])
            .collect();
        (xs, ys)
    }

    #[test]
    fn forest_fits_nonlinear_function() {
        let (xs, ys) = noisy_quadratic(300);
        let rf = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 1);
        // Mean absolute error over the training points.
        let err = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (rf.predict(x)[0] - y[0]).abs())
            .sum::<f64>()
            / xs.len() as f64;
        assert!(err < 0.25, "training error too high: {err}");
    }

    #[test]
    fn forest_interpolates_between_samples() {
        let (xs, ys) = noisy_quadratic(300);
        let rf = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 1);
        let p = rf.predict(&[2.0]);
        assert!((p[0] - 4.0).abs() < 0.5, "predicted {}", p[0]);
    }

    #[test]
    fn forest_is_deterministic_for_fixed_seed() {
        let (xs, ys) = noisy_quadratic(100);
        let a = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 9);
        let b = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 9);
        for i in 0..10 {
            let probe = vec![i as f64 * 0.4];
            assert_eq!(a.predict(&probe), b.predict(&probe));
        }
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let (xs, ys) = noisy_quadratic(100);
        let a = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 1);
        let b = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 2);
        let differs = (0..20).any(|i| {
            let probe = vec![i as f64 * 0.2];
            a.predict(&probe) != b.predict(&probe)
        });
        assert!(differs);
    }

    #[test]
    fn multi_output_predictions_have_right_arity() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (50 - i) as f64, 1.0])
            .collect();
        let rf = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 3);
        assert_eq!(rf.n_outputs(), 3);
        assert_eq!(rf.predict(&[25.0]).len(), 3);
    }

    #[test]
    #[should_panic(expected = "a forest needs at least one tree")]
    fn fit_refuses_a_forest_of_no_trees() {
        let (xs, ys) = noisy_quadratic(10);
        let cfg = ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        };
        RandomForest::fit(&xs, &ys, &cfg, 0);
    }

    #[test]
    #[should_panic(expected = "a forest needs at least one tree")]
    fn fit_predict_refuses_a_forest_of_no_trees() {
        let (xs, ys) = noisy_quadratic(10);
        let cfg = ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        };
        RandomForest::fit_predict(&xs, &ys, &cfg, 0, &[1.0]);
    }

    #[test]
    fn no_bootstrap_with_full_features_behaves_like_bagged_tree() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i < 10 { 0.0 } else { 1.0 }])
            .collect();
        let cfg = ForestConfig {
            n_trees: 5,
            bootstrap: false,
            tree: TreeConfig {
                max_features: Some(1),
                ..TreeConfig::default()
            },
        };
        let rf = RandomForest::fit(&xs, &ys, &cfg, 0);
        assert_eq!(rf.predict(&[0.0]), vec![0.0]);
        assert_eq!(rf.predict(&[19.0]), vec![1.0]);
    }
}
