//! Property tests for the k-means clustering behind Figure 3.

use proptest::prelude::*;
use vc_bench::experiments::kmeans::{silhouette, KMeans};

/// Random small regression dataset: n rows, f features, k outputs. The
/// clustering reads the feature rows only.
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
    fn kmeans_labels_are_in_range(k in 2usize..5, (data, _) in arb_dataset()) {
        prop_assume!(data.len() >= k);
        let model = KMeans::fit(&data, k, 3);
        prop_assert_eq!(model.labels.len(), data.len());
        prop_assert!(model.labels.iter().all(|&l| l < k));
        prop_assert!(model.inertia >= 0.0);
    }

    #[test]
    fn silhouette_is_bounded((data, _) in arb_dataset(), k in 2usize..4) {
        prop_assume!(data.len() >= k);
        let model = KMeans::fit(&data, k, 5);
        let s = silhouette(&data, &model.labels);
        prop_assert!((-1.0..=1.0).contains(&s), "s = {s}");
    }
}
