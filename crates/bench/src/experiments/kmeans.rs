//! k-means clustering with k-means++ seeding and silhouette-based model
//! selection.
//!
//! The paper clusters workloads' relative-performance vectors and selects
//! `k` by maximising the average silhouette coefficient over all data
//! points, "the standard practice in the field" (§5, Figure 3).

use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;

/// Maximum Lloyd iterations of one restart.
const MAX_ITER: usize = 100;
/// Random restarts per fit (best inertia wins).
const N_INIT: usize = 8;

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment per input row.
    pub labels: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl KMeans {
    /// Fits `k` clusters to `data` (rows = points).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, ragged, or has fewer points than `k`.
    pub fn fit(data: &[Vec<f64>], k: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "empty data");
        assert!(data.len() >= k, "fewer points than clusters");
        let dim = data[0].len();
        assert!(data.iter().all(|r| r.len() == dim), "ragged data");

        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<KMeans> = None;
        for _ in 0..N_INIT {
            let model = Self::fit_once(data, k, &mut rng);
            if best.as_ref().is_none_or(|b| model.inertia < b.inertia) {
                best = Some(model);
            }
        }
        best.expect("at least one restart")
    }

    fn fit_once(data: &[Vec<f64>], k: usize, rng: &mut StdRng) -> KMeans {
        let mut centroids = kmeans_pp_init(data, k, rng);
        let mut labels = vec![0usize; data.len()];
        for _ in 0..MAX_ITER {
            // Assignment step.
            let mut changed = false;
            for (i, p) in data.iter().enumerate() {
                let nearest = (0..k)
                    .min_by(|&a, &b| {
                        sq_dist(p, &centroids[a])
                            .partial_cmp(&sq_dist(p, &centroids[b]))
                            .expect("finite distances")
                    })
                    .expect("k > 0");
                if labels[i] != nearest {
                    labels[i] = nearest;
                    changed = true;
                }
            }
            // Update step.
            let dim = data[0].len();
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (p, &l) in data.iter().zip(&labels) {
                counts[l] += 1;
                for (s, v) in sums[l].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for s in &mut sums[c] {
                        *s /= counts[c] as f64;
                    }
                    centroids[c] = sums[c].clone();
                } else {
                    // Re-seed an empty cluster at the farthest point.
                    let far = data
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            sq_dist(a, &centroids[c])
                                .partial_cmp(&sq_dist(b, &centroids[c]))
                                .expect("finite distances")
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty data");
                    centroids[c] = data[far].clone();
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let inertia = data
            .iter()
            .zip(&labels)
            .map(|(p, &l)| sq_dist(p, &centroids[l]))
            .sum();
        KMeans {
            centroids,
            labels,
            inertia,
        }
    }
}

/// k-means++ initialisation: first centroid uniform, subsequent centroids
/// sampled with probability proportional to squared distance from the
/// nearest chosen centroid.
fn kmeans_pp_init(data: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(data[rng.random_range(0..data.len())].clone());
    while centroids.len() < k {
        let d2: Vec<f64> = data
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| sq_dist(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total == 0.0 {
            // All points coincide with centroids; duplicate one.
            centroids.push(data[rng.random_range(0..data.len())].clone());
            continue;
        }
        let mut target = rng.random_range(0.0..total);
        let mut chosen = data.len() - 1;
        for (i, w) in d2.iter().enumerate() {
            if target < *w {
                chosen = i;
                break;
            }
            target -= w;
        }
        centroids.push(data[chosen].clone());
    }
    centroids
}

/// Mean silhouette coefficient of a clustering.
///
/// For each point: `s = (b - a) / max(a, b)` where `a` is the mean
/// intra-cluster distance and `b` the mean distance to the nearest other
/// cluster. Points in singleton clusters score 0 (Rousseeuw's convention).
pub fn silhouette(data: &[Vec<f64>], labels: &[usize]) -> f64 {
    assert_eq!(data.len(), labels.len());
    let n = data.len();
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    if k < 2 || n < 2 {
        return 0.0;
    }
    let counts = {
        let mut c = vec![0usize; k];
        for &l in labels {
            c[l] += 1;
        }
        c
    };
    let mut total = 0.0;
    for i in 0..n {
        if counts[labels[i]] <= 1 {
            continue; // s = 0 contribution
        }
        let mut dist_sum = vec![0.0f64; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            dist_sum[labels[j]] += sq_dist(&data[i], &data[j]).sqrt();
        }
        let a = dist_sum[labels[i]] / (counts[labels[i]] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != labels[i] && counts[c] > 0)
            .map(|c| dist_sum[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

/// Fits k-means for each `k` in `k_range` and returns the `(k, model,
/// silhouette)` with the highest mean silhouette coefficient.
///
/// This is the paper's automatic selection of the number of workload
/// categories.
pub fn select_k(
    data: &[Vec<f64>],
    k_range: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> (usize, KMeans, f64) {
    let mut best: Option<(usize, KMeans, f64)> = None;
    for k in k_range {
        if k < 2 || k > data.len() {
            continue;
        }
        let model = KMeans::fit(
            data,
            k,
            seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let s = silhouette(data, &model.labels);
        if best.as_ref().is_none_or(|(_, _, bs)| s > *bs) {
            best = Some((k, model, s));
        }
    }
    best.expect("k_range contained at least one feasible k")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2-D, deterministic.
    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                let dx = ((i * 7 % 10) as f64 - 4.5) / 10.0;
                let dy = ((i * 3 % 10) as f64 - 4.5) / 10.0;
                data.push(vec![cx + dx, cy + dy]);
                truth.push(ci);
            }
        }
        (data, truth)
    }

    #[test]
    fn kmeans_recovers_separated_blobs() {
        let (data, truth) = blobs();
        let model = KMeans::fit(&data, 3, 0);
        // Same-truth points must share a label; different-truth points not.
        for i in 0..data.len() {
            for j in 0..data.len() {
                assert_eq!(
                    truth[i] == truth[j],
                    model.labels[i] == model.labels[j],
                    "points {i} and {j} misclustered"
                );
            }
        }
    }

    #[test]
    fn silhouette_is_high_for_good_clustering() {
        let (data, truth) = blobs();
        assert!(silhouette(&data, &truth) > 0.8);
    }

    #[test]
    fn silhouette_is_low_for_random_labels() {
        let (data, _) = blobs();
        let bad: Vec<usize> = (0..data.len()).map(|i| i % 3).collect();
        assert!(silhouette(&data, &bad) < 0.2);
    }

    #[test]
    fn select_k_finds_three_blobs() {
        let (data, _) = blobs();
        let (k, _, s) = select_k(&data, 2..=6, 0);
        assert_eq!(k, 3);
        assert!(s > 0.8);
    }

    #[test]
    fn kmeans_is_deterministic_for_fixed_seed() {
        let (data, _) = blobs();
        let a = KMeans::fit(&data, 3, 5);
        let b = KMeans::fit(&data, 3, 5);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = blobs();
        let k2 = KMeans::fit(&data, 2, 0);
        let k3 = KMeans::fit(&data, 3, 0);
        assert!(k3.inertia < k2.inertia);
    }

    #[test]
    fn singleton_clusters_do_not_crash_silhouette() {
        let data = vec![vec![0.0], vec![0.1], vec![10.0]];
        let labels = vec![0, 0, 1];
        let s = silhouette(&data, &labels);
        assert!(s > 0.5);
    }
}
