//! `DecisionTree` and `RandomForest` against the per-node-sorting
//! forest they replaced (`support/reference.rs`): every prediction equal
//! to the last bit, and every tree the same size and depth. There is no
//! tolerance anywhere in this file — presorting, stable partitioning,
//! row-id bootstrap samples and reused buffers are reorganisations, not
//! approximations.
//!
//! Inputs are drawn to hit the orderings that matter: features from a
//! few levels (so ties are the rule), repeated rows, `-0.0` beside `0.0`
//! (equal under the split comparison, distinct in bits), 1–4 features
//! (so the per-split feature shuffle runs), 1–12 outputs, bootstrap on
//! and off, and the growth limits varied.
//!
//! `RandomForest::fit_predict`, which grows only the branches its
//! queries fall into, is checked the same way against `fit` followed by
//! `predict`, on the one-feature designs it accepts.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;
use vc_ml::forest::{ForestConfig, RandomForest};
use vc_ml::tree::{DecisionTree, TreeConfig};

/// A dataset and growth limits, derived from one seed.
#[derive(Debug)]
struct Case {
    x: Vec<Vec<f64>>,
    y: Vec<Vec<f64>>,
    tree: TreeConfig,
    bootstrap: bool,
    n_trees: usize,
}

/// xorshift64 over `seed`, so a case is reproducible from its seed.
fn stream(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    }
}

fn case(seed: u64, n_features: usize, n_outputs: usize, levels: u64) -> Case {
    let mut next = stream(seed);
    let n = 1 + next(40) as usize;
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        // Every fourth row repeats an earlier one.
        if !x.is_empty() && next(4) == 0 {
            let again = x[next(x.len() as u64) as usize].clone();
            x.push(again);
            continue;
        }
        let row = (0..n_features)
            .map(|_| {
                let v = (next(levels) as f64 - (levels / 2) as f64) * 0.5;
                if v == 0.0 && next(2) == 0 {
                    -0.0
                } else {
                    v
                }
            })
            .collect();
        x.push(row);
    }
    let y = (0..n)
        .map(|_| {
            (0..n_outputs)
                .map(|_| (next(2000) as f64 - 1000.0) / 37.0)
                .collect()
        })
        .collect();
    let max_features = match next(3) {
        0 => None,
        _ => Some(next(n_features as u64 + 2) as usize),
    };
    Case {
        x,
        y,
        tree: TreeConfig {
            max_depth: next(8) as usize,
            min_samples_leaf: next(4) as usize,
            min_samples_split: next(6) as usize,
            max_features,
        },
        bootstrap: next(2) == 0,
        n_trees: 1 + next(6) as usize,
    }
}

/// Every training row, the midpoint of each consecutive pair of rows,
/// and for each feature the first row moved to each midpoint between
/// that feature's sorted values.
fn probes(x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out = x.to_vec();
    for pair in x.windows(2) {
        out.push(pair[0].iter().zip(&pair[1]).map(|(a, b)| 0.5 * (a + b)).collect());
    }
    for f in 0..x[0].len() {
        let mut values: Vec<f64> = x.iter().map(|r| r[f]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in values.windows(2) {
            let mut probe = x[0].clone();
            probe[f] = 0.5 * (pair[0] + pair[1]);
            out.push(probe);
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

fn check(c: &Case, seed: u64) -> Result<(), TestCaseError> {
    let tree = DecisionTree::fit(&c.x, &c.y, &c.tree, seed);
    let old_tree = reference::DecisionTree::fit(&c.x, &c.y, &c.tree, seed);
    prop_assert_eq!(tree.n_nodes(), old_tree.n_nodes(), "{:?}", c);
    prop_assert_eq!(tree.depth(), old_tree.depth());

    let cfg = ForestConfig {
        n_trees: c.n_trees,
        tree: c.tree.clone(),
        bootstrap: c.bootstrap,
    };
    let forest = RandomForest::fit(&c.x, &c.y, &cfg, seed);
    let old_forest = reference::RandomForest::fit(&c.x, &c.y, &cfg, seed);
    prop_assert_eq!(forest.trees().len(), old_forest.trees().len());
    for (t, old) in forest.trees().iter().zip(old_forest.trees()) {
        prop_assert_eq!(t.n_nodes(), old.n_nodes(), "{:?}", c);
        prop_assert_eq!(t.depth(), old.depth());
    }

    for probe in probes(&c.x) {
        prop_assert_eq!(
            bits(&tree.predict(&probe)),
            bits(&old_tree.predict(&probe)),
            "tree at {:?}: {:?}",
            probe,
            c
        );
        prop_assert_eq!(
            bits(&forest.predict(&probe)),
            bits(&old_forest.predict(&probe)),
            "forest at {:?}: {:?}",
            probe,
            c
        );
    }
    Ok(())
}

/// Queries for a one-feature design: [`probes`] (every training value
/// and every midpoint between sorted values, which is where a split's
/// threshold lies, so some queries land exactly on one), all of them
/// again, and values outside the training range.
fn queries(x: &[Vec<f64>]) -> Vec<f64> {
    let once: Vec<f64> = probes(x).iter().map(|p| p[0]).collect();
    let mut out = [once.as_slice(), once.as_slice()].concat();
    out.extend([-1e9, 1e9, f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -0.0, 0.0]);
    out
}

/// `fit_predict` at every query against `fit` then `predict` at it.
fn check_queries(c: &Case, seed: u64, n_trees: usize) -> Result<(), TestCaseError> {
    let cfg = ForestConfig {
        n_trees,
        tree: c.tree.clone(),
        bootstrap: c.bootstrap,
    };
    let forest = RandomForest::fit(&c.x, &c.y, &cfg, seed);
    let queries = queries(&c.x);
    let grown = RandomForest::fit_predict(&c.x, &c.y, &cfg, seed, &queries);
    prop_assert_eq!(grown.len(), queries.len());
    for (q, pred) in queries.iter().zip(&grown) {
        prop_assert_eq!(
            bits(pred),
            bits(&forest.predict(&[*q])),
            "query {} with {} trees: {:?}",
            q,
            n_trees,
            c
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn query_driven_predictions_match_fit_then_predict(
        seed in 0u64..1_000_000,
        n_outputs in 1usize..13,
        levels in 1u64..9,
    ) {
        let c = case(seed, 1, n_outputs, levels);
        check_queries(&c, seed, c.n_trees)?;
        check_queries(&c, seed, 1)?;
    }

    #[test]
    fn fits_match_the_reference_bit_for_bit(
        seed in 0u64..1_000_000,
        n_features in 1usize..5,
        n_outputs in 1usize..13,
        levels in 2u64..9,
    ) {
        check(&case(seed, n_features, n_outputs, levels), seed)?;
    }

    #[test]
    fn all_equal_features_match_the_reference(
        seed in 0u64..1_000_000,
        n_features in 1usize..5,
        n_outputs in 1usize..13,
    ) {
        let c = case(seed, n_features, n_outputs, 1);
        prop_assert!(c.x.iter().all(|r| r.iter().all(|&v| v == 0.0)));
        check(&c, seed)?;
    }
}

/// The forest configuration the engine trains with, on a dataset shaped
/// like a probe-pair design: one ratio feature, a dozen outputs. Its
/// `fit_predict` must also match its `predict` at every query.
#[test]
fn engine_shaped_forest_matches_the_reference() {
    let mut next = stream(11);
    let x: Vec<Vec<f64>> = (0..36).map(|_| vec![next(60) as f64 / 40.0]).collect();
    let y: Vec<Vec<f64>> = (0..36)
        .map(|_| (0..12).map(|_| next(1000) as f64 / 500.0).collect())
        .collect();
    let cfg = ForestConfig {
        n_trees: 20,
        ..ForestConfig::default()
    };
    let forest = RandomForest::fit(&x, &y, &cfg, 7);
    let old = reference::RandomForest::fit(&x, &y, &cfg, 7);
    for probe in probes(&x) {
        assert_eq!(bits(&forest.predict(&probe)), bits(&old.predict(&probe)));
    }
    let queries = queries(&x);
    let grown = RandomForest::fit_predict(&x, &y, &cfg, 7, &queries);
    for (q, pred) in queries.iter().zip(&grown) {
        assert_eq!(bits(pred), bits(&forest.predict(&[*q])), "query {q}");
    }
}

/// With two features the per-node feature shuffle draws from the tree's
/// randomness, so skipping a branch would shift every later draw.
#[test]
#[should_panic(expected = "query-driven growth needs a one-feature design")]
fn query_driven_growth_refuses_two_features() {
    let x = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0]];
    let y = vec![vec![0.0], vec![1.0], vec![2.0]];
    RandomForest::fit_predict(&x, &y, &ForestConfig::default(), 0, &[0.5]);
}
