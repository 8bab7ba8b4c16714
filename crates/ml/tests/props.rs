//! Property tests for the ML primitives.

use proptest::prelude::*;
use vc_ml::cv::leave_group_out;
use vc_ml::forest::{ForestConfig, RandomForest};
use vc_ml::tree::{DecisionTree, TreeConfig};

/// Random small regression dataset: n rows, f features, k outputs.
fn arb_dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    (4usize..40, 1usize..4, 1usize..3, 0u64..1000).prop_map(|(n, f, k, seed)| {
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 100.0
        };
        for _ in 0..n {
            x.push((0..f).map(|_| next()).collect());
            y.push((0..k).map(|_| next()).collect());
        }
        (x, y)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tree_predictions_stay_within_target_range((x, y) in arb_dataset()) {
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), 0);
        let k = y[0].len();
        for probe in &x {
            let p = tree.predict(probe);
            for o in 0..k {
                let lo = y.iter().map(|r| r[o]).fold(f64::INFINITY, f64::min);
                let hi = y.iter().map(|r| r[o]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(p[o] >= lo - 1e-9 && p[o] <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn forest_predictions_stay_within_target_range((x, y) in arb_dataset()) {
        let cfg = ForestConfig { n_trees: 10, ..ForestConfig::default() };
        let rf = RandomForest::fit(&x, &y, &cfg, 1);
        let k = y[0].len();
        for probe in &x {
            let p = rf.predict(probe);
            for o in 0..k {
                let lo = y.iter().map(|r| r[o]).fold(f64::INFINITY, f64::min);
                let hi = y.iter().map(|r| r[o]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(p[o] >= lo - 1e-9 && p[o] <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn tree_fits_training_data_exactly_with_unit_leaves((x, y) in arb_dataset()) {
        // With min leaf 1 and unlimited depth, distinct single-feature
        // rows must be memorised when all feature rows are distinct.
        let distinct = {
            let mut seen: Vec<&Vec<f64>> = Vec::new();
            x.iter().all(|r| {
                if seen.contains(&r) { false } else { seen.push(r); true }
            })
        };
        prop_assume!(distinct);
        let cfg = TreeConfig { max_depth: 64, min_samples_leaf: 1, min_samples_split: 2, max_features: None };
        let tree = DecisionTree::fit(&x, &y, &cfg, 0);
        for (probe, truth) in x.iter().zip(&y) {
            let p = tree.predict(probe);
            for (a, b) in p.iter().zip(truth) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn leave_group_out_train_and_test_are_disjoint(labels in proptest::collection::vec(0u8..5, 1..30)) {
        let names: Vec<String> = labels.iter().map(|l| format!("g{l}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        for split in leave_group_out(&refs) {
            for &t in &split.test {
                prop_assert!(!split.train.contains(&t));
            }
            prop_assert_eq!(split.test.len() + split.train.len(), refs.len());
        }
    }

    #[test]
    fn leave_group_out_tests_each_index_exactly_once(labels in proptest::collection::vec(0u8..5, 1..30)) {
        let names: Vec<String> = labels.iter().map(|l| format!("g{l}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut tested = vec![0usize; refs.len()];
        for split in leave_group_out(&refs) {
            for &t in &split.test {
                tested[t] += 1;
            }
        }
        prop_assert!(tested.iter().all(|&c| c == 1), "tested = {tested:?}");
    }
}
