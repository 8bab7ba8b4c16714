//! Ablations over the paper's modelling choices:
//!
//! * probe-pair choice (selected vs worst vs naive neighbour);
//! * Random Forest vs a single CART tree;
//! * number of measurement repetitions per placement;
//! * measured (stream) interconnect scores vs naive link sums — the
//!   paper's "simpler and more accurate to measure" claim, which changes
//!   which packings survive the Pareto filter.

use std::fmt::Write as _;

use vc_core::concern::ConcernSet;
use vc_core::important::important_placements;
use vc_core::model::{cv_error_perf_pair, select_probe_pair, TrainingSet, TrainingWorkload};
use vc_ml::forest::ForestConfig;
use vc_ml::tree::TreeConfig;
use vc_sim::SimOracle;
use vc_topology::Machine;

/// Ablation results for one machine.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// CV error (%) with the automatically selected probe pair.
    pub err_selected_pair: f64,
    /// CV error (%) with the worst probe pair.
    pub err_worst_pair: f64,
    /// CV error (%) probing the placement next to the baseline.
    pub err_naive_pair: f64,
    /// CV error (%) with a single unbagged tree instead of a forest.
    pub err_single_tree: f64,
    /// CV error (%) with one measurement seed instead of several.
    pub err_one_seed: f64,
    /// Important placements using measured interconnect scores.
    pub placements_measured: usize,
    /// Important placements using naive link-sum scores.
    pub placements_link_sum: usize,
}

fn training_set(machine: &Machine, vcpus: usize, baseline: usize, seeds: u64) -> TrainingSet {
    let cs = ConcernSet::for_machine(machine);
    let ips = important_placements(machine, &cs, vcpus).expect("feasible container");
    let oracle = SimOracle::new(machine.clone());
    let workloads: Vec<TrainingWorkload> = oracle
        .workloads()
        .iter()
        .map(|w| TrainingWorkload {
            name: w.name.clone(),
            family: w.family.clone(),
        })
        .collect();
    TrainingSet::build(&oracle, &workloads, &ips, baseline, seeds)
}

/// Runs all ablations.
pub fn run(machine: &Machine, vcpus: usize, baseline: usize, seed: u64) -> Ablations {
    let ts = training_set(machine, vcpus, baseline, 3);
    let cfg = ForestConfig {
        n_trees: 60,
        ..ForestConfig::default()
    };

    let (best_other, err_selected_pair) = select_probe_pair(&ts, &cfg, seed);
    let mut err_worst_pair = 0.0f64;
    for other in 0..ts.n_placements() {
        if other != ts.baseline {
            err_worst_pair =
                err_worst_pair.max(cv_error_perf_pair(&ts, ts.baseline, other, &cfg, seed));
        }
    }
    let naive_other = if ts.baseline + 1 < ts.n_placements() {
        ts.baseline + 1
    } else {
        ts.baseline - 1
    };
    let err_naive_pair = cv_error_perf_pair(&ts, ts.baseline, naive_other, &cfg, seed);

    let single_tree_cfg = ForestConfig {
        n_trees: 1,
        bootstrap: false,
        tree: TreeConfig {
            max_features: None,
            ..TreeConfig::default()
        },
    };
    let err_single_tree = cv_error_perf_pair(&ts, ts.baseline, best_other, &single_tree_cfg, seed);

    let ts_one = training_set(machine, vcpus, baseline, 1);
    let err_one_seed = cv_error_perf_pair(&ts_one, ts_one.baseline, best_other, &cfg, seed);

    // Interconnect scoring variant: naive link sums instead of the
    // stream measurement. Rebuild the concern pipeline on a machine whose
    // interconnect scores are link sums by replacing the measured score
    // with `internal_link_sum` through a custom count.
    let cs = ConcernSet::for_machine(machine);
    let placements_measured = important_placements(machine, &cs, vcpus)
        .expect("feasible")
        .len();
    let placements_link_sum = important_placements_link_sum(machine, vcpus);

    Ablations {
        err_selected_pair,
        err_worst_pair,
        err_naive_pair,
        err_single_tree,
        err_one_seed,
        placements_measured,
        placements_link_sum,
    }
}

/// Important-placement count when the interconnect concern uses naive
/// link sums. Implemented by re-running Algorithms 1–3 against a machine
/// whose link bandwidths make the link-sum ordering equal to the measured
/// ordering only for direct-connected sets; two-hop effects vanish, which
/// is exactly the paper's argument for measuring.
fn important_placements_link_sum(machine: &Machine, vcpus: usize) -> usize {
    use vc_core::enumerate::node_scores;
    use vc_core::packing::generate_packings;

    // Reproduce the pipeline with link-sum scores.
    let nscores = node_scores(machine, vcpus);
    let packings = generate_packings(machine.num_nodes(), &nscores);
    let score = |part: &Vec<vc_topology::NodeId>| machine.interconnect().internal_link_sum(part);
    let scored: Vec<(Vec<usize>, Vec<f64>)> = packings
        .iter()
        .map(|p| {
            let mut s: Vec<f64> = p.parts.iter().map(score).collect();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            (p.size_signature(), s)
        })
        .collect();
    let surviving: Vec<usize> = (0..packings.len())
        .filter(|&a| {
            !(0..packings.len()).any(|b| {
                if a == b || scored[a].0 != scored[b].0 {
                    return false;
                }
                let all_le = scored[a]
                    .1
                    .iter()
                    .zip(&scored[b].1)
                    .all(|(x, y)| *x <= *y + 1e-9);
                let eq = scored[a]
                    .1
                    .iter()
                    .zip(&scored[b].1)
                    .all(|(x, y)| (*x - *y).abs() <= 1e-9);
                all_le && (!eq || b < a)
            })
        })
        .collect();

    // Count distinct (size, link-sum, l2-variant) classes.
    let mut classes: Vec<(usize, u64, usize)> = Vec::new();
    let l2_candidates =
        vc_core::enumerate::feasible_scores(vcpus, machine.num_l2_groups(), machine.l2_capacity());
    let l2_per_node = machine.num_l2_groups() / machine.num_nodes();
    for &pi in &surviving {
        for part in &packings[pi].parts {
            let n = part.len();
            for &s2 in &l2_candidates {
                if s2 % n != 0 || s2 / n > l2_per_node || s2 < n {
                    continue;
                }
                let key = (n, (score(part) * 1e6).round() as u64, s2);
                if !classes.contains(&key) {
                    classes.push(key);
                }
            }
        }
    }
    classes.len()
}

/// Renders the ablation summary.
pub fn render(machine: &Machine, a: &Ablations) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Ablations, {}:", machine.name());
    let _ = writeln!(
        out,
        "  probe pair: selected {:.1} %, naive neighbour {:.1} %, worst {:.1} %",
        a.err_selected_pair, a.err_naive_pair, a.err_worst_pair
    );
    let _ = writeln!(
        out,
        "  model: forest {:.1} %, single tree {:.1} %",
        a.err_selected_pair, a.err_single_tree
    );
    let _ = writeln!(
        out,
        "  repetitions: three seeds {:.1} %, one seed {:.1} %",
        a.err_selected_pair, a.err_one_seed
    );
    let _ = writeln!(
        out,
        "  interconnect scoring: measured -> {} placements, link-sum -> {} placements",
        a.placements_measured, a.placements_link_sum
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::machines;

    #[test]
    fn selected_pair_is_at_least_as_good_as_alternatives() {
        let amd = machines::amd_opteron_6272();
        let a = run(&amd, 16, 0, 11);
        assert!(a.err_selected_pair <= a.err_worst_pair + 1e-9);
        assert!(a.err_selected_pair <= a.err_naive_pair + 1e-9);
    }

    #[test]
    fn forest_beats_single_tree() {
        let amd = machines::amd_opteron_6272();
        let a = run(&amd, 16, 0, 11);
        assert!(a.err_selected_pair <= a.err_single_tree);
    }

    #[test]
    fn link_sum_scoring_changes_the_placement_set() {
        // The paper argues measured scores are more accurate; on this
        // topology the naive link sums produce a different (and not
        // obviously correct) class count.
        let amd = machines::amd_opteron_6272();
        let a = run(&amd, 16, 0, 11);
        assert_eq!(a.placements_measured, 13);
        assert_ne!(a.placements_link_sum, a.placements_measured);
    }
}
