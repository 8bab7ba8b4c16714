//! Figure 3: workloads cluster into a small number of
//! performance-vector shapes.
//!
//! The paper clusters relative-performance vectors with k-means, picking
//! `k` by the mean silhouette coefficient, and reports that workloads
//! fall into about six categories across its systems.

use std::fmt::Write as _;

use vc_core::concern::ConcernSet;
use vc_core::important::important_placements;
use vc_core::model::{TrainingSet, TrainingWorkload};
use vc_sim::SimOracle;
use vc_topology::Machine;

use super::kmeans::{select_k, KMeans};

/// The clustering result for one machine.
#[derive(Debug, Clone)]
pub struct Clusters {
    /// Workload names, index-aligned with `labels`.
    pub workloads: Vec<String>,
    /// The silhouette-selected number of clusters.
    pub k: usize,
    /// Mean silhouette coefficient at that `k`.
    pub silhouette: f64,
    /// Cluster label per workload.
    pub labels: Vec<usize>,
    /// Mean relative-performance vector per workload.
    pub vectors: Vec<Vec<f64>>,
    /// The fitted model.
    pub model: KMeans,
}

/// Builds relative-performance vectors for the whole suite (optionally
/// enlarged with synthetic workloads) and clusters them.
pub fn run(machine: &Machine, vcpus: usize, baseline: usize, extra_synthetic: usize) -> Clusters {
    let cs = ConcernSet::for_machine(machine);
    let ips = important_placements(machine, &cs, vcpus).expect("feasible container");
    let oracle = if extra_synthetic > 0 {
        SimOracle::with_synthetic(machine.clone(), extra_synthetic, 42)
    } else {
        SimOracle::new(machine.clone())
    };
    let workloads: Vec<TrainingWorkload> = oracle
        .workloads()
        .iter()
        .map(|w| TrainingWorkload {
            name: w.name.clone(),
            family: w.family.clone(),
        })
        .collect();
    let ts = TrainingSet::build(&oracle, &workloads, &ips, baseline, 2);
    let vectors: Vec<Vec<f64>> = (0..workloads.len()).map(|w| ts.mean_rel(w)).collect();
    let (k, model, silhouette) = select_k(&vectors, 2..=8, 17);
    Clusters {
        workloads: workloads.into_iter().map(|w| w.name).collect(),
        k,
        silhouette,
        labels: model.labels.clone(),
        vectors,
        model,
    }
}

/// Renders cluster membership and centroids (the figure's two example
/// clusters generalised to all of them).
pub fn render(machine: &Machine, c: &Clusters) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "k-means on relative-performance vectors, {} (k = {}, silhouette = {:.2}):",
        machine.name(),
        c.k,
        c.silhouette
    );
    for cluster in 0..c.k {
        let members: Vec<&str> = c
            .workloads
            .iter()
            .zip(&c.labels)
            .filter(|(_, &l)| l == cluster)
            .map(|(w, _)| w.as_str())
            .collect();
        if members.is_empty() {
            continue;
        }
        let centroid: Vec<String> = c.model.centroids[cluster]
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect();
        let _ = writeln!(out, "  cluster {cluster}: [{}]", centroid.join(", "));
        let _ = writeln!(out, "    members: {}", members.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::machines;

    #[test]
    fn intel_suite_forms_a_handful_of_categories() {
        let intel = machines::intel_xeon_e7_4830_v3();
        let c = run(&intel, 24, 1, 0);
        // The paper found ~6 categories; allow the plausible band.
        assert!((2..=8).contains(&c.k), "k = {}", c.k);
        assert!(c.silhouette > 0.3, "weak clustering: {}", c.silhouette);
    }

    #[test]
    fn vectors_within_a_cluster_are_closer_than_across() {
        let intel = machines::intel_xeon_e7_4830_v3();
        let c = run(&intel, 24, 1, 0);
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..c.vectors.len() {
            for j in i + 1..c.vectors.len() {
                let d = dist(&c.vectors[i], &c.vectors[j]);
                if c.labels[i] == c.labels[j] {
                    intra.push(d);
                } else {
                    inter.push(d);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&intra) < mean(&inter));
    }

    #[test]
    fn render_lists_all_clusters() {
        let intel = machines::intel_xeon_e7_4830_v3();
        let c = run(&intel, 24, 1, 0);
        let text = render(&intel, &c);
        for w in &c.workloads {
            assert!(text.contains(w.as_str()), "{w} missing from rendering");
        }
    }
}
