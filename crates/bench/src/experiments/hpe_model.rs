//! The HPE-feature baseline of Figure 4: hardware performance events
//! observed in a *single* placement in, performance vector out, through
//! the same Random Forest as the paper's model, with Sequential Forward
//! Selection over the plausible HPE set — the approach the paper shows to
//! be markedly less reliable (§6).
//!
//! Only the figure trains it, so it lives here and not in the pipeline:
//! the counters come from [`vc_sim::hpe`], observed on the simulator that
//! measured the training set.

use vc_core::assign::assign_vcpus;
use vc_core::model::TrainingSet;
use vc_ml::cv::leave_group_out;
use vc_ml::forest::{ForestConfig, RandomForest};
use vc_ml::metrics::mean_abs_pct_error;
use vc_sim::engine::ContainerRun;
use vc_sim::{hpe, SimOracle};

use super::sfs::sequential_forward_selection;

/// HPE observations of a training set's workloads in its baseline
/// placement.
#[derive(Debug, Clone)]
pub struct HpeCorpus {
    /// Counter names, in observation order.
    pub names: Vec<String>,
    /// `obs[w][s][f]`: counter `f` of workload `w` under seed `s`.
    pub obs: Vec<Vec<Vec<f64>>>,
}

impl HpeCorpus {
    /// Observes every workload of `ts`, in order, in its baseline
    /// placement on `oracle`'s machine, under the seeds its performance
    /// was measured with (`0..n_seeds`).
    pub fn observe(oracle: &SimOracle, ts: &TrainingSet) -> Self {
        let machine = oracle.machine();
        let assignment = assign_vcpus(machine, &ts.placements[ts.baseline].spec)
            .expect("the baseline is a placement of this machine");
        let obs = ts
            .workloads
            .iter()
            .zip(&ts.rel)
            .map(|(w, seeds)| {
                let run = ContainerRun {
                    workload: oracle.workload(&w.name),
                    assignment: &assignment,
                };
                (0..seeds.len() as u64)
                    .map(|seed| hpe::observe(machine, &run, seed))
                    .collect()
            })
            .collect();
        HpeCorpus {
            names: hpe::hpe_names(),
            obs,
        }
    }

    /// Workload `w`'s observation averaged over its seeds.
    pub fn mean(&self, w: usize) -> Vec<f64> {
        let mut mean = vec![0.0; self.names.len()];
        for row in &self.obs[w] {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= self.obs[w].len() as f64;
        }
        mean
    }
}

/// The HPE-feature baseline model: selected HPEs from a single placement
/// in, baseline-relative performance vector out.
#[derive(Debug, Clone)]
pub struct HpeModel {
    /// Indices of the selected HPE features.
    pub selected: Vec<usize>,
    forest: RandomForest,
}

impl HpeModel {
    /// Fits on explicit feature indices, over workloads `rows` of `ts`
    /// and their observations in `hpe`: one training row per seed.
    pub fn fit(
        ts: &TrainingSet,
        hpe: &HpeCorpus,
        rows: &[usize],
        selected: &[usize],
        cfg: &ForestConfig,
        seed: u64,
    ) -> Self {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &w in rows {
            for (srow, hrow) in ts.rel[w].iter().zip(&hpe.obs[w]) {
                xs.push(selected.iter().map(|&f| hrow[f]).collect());
                ys.push(srow.clone());
            }
        }
        HpeModel {
            selected: selected.to_vec(),
            forest: RandomForest::fit(&xs, &ys, cfg, seed),
        }
    }

    /// Predicts the baseline-relative performance vector from an HPE
    /// observation.
    pub fn predict(&self, hpes: &[f64]) -> Vec<f64> {
        let features: Vec<f64> = self.selected.iter().map(|&f| hpes[f]).collect();
        self.forest.predict(&features)
    }

    /// Runs Sequential Forward Selection over the HPE features, scoring
    /// candidate subsets by [`cv_error_hpe`]. Returns the selected
    /// indices and final CV error.
    pub fn select_features(
        ts: &TrainingSet,
        hpe: &HpeCorpus,
        max_features: usize,
        cfg: &ForestConfig,
        seed: u64,
    ) -> (Vec<usize>, f64) {
        let result = sequential_forward_selection(hpe.names.len(), max_features, 0.05, |subset| {
            cv_error_hpe(ts, hpe, subset, cfg, seed)
        });
        (result.selected, result.score)
    }
}

/// Leave-family-out CV error (mean absolute percentage) of an HPE model
/// on a feature subset, predicting each held-out workload from its mean
/// observation.
pub fn cv_error_hpe(
    ts: &TrainingSet,
    hpe: &HpeCorpus,
    selected: &[usize],
    cfg: &ForestConfig,
    seed: u64,
) -> f64 {
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    for split in &leave_group_out(&ts.families()) {
        let model = HpeModel::fit(ts, hpe, &split.train, selected, cfg, seed);
        for &w in &split.test {
            preds.push(model.predict(&hpe.mean(w)));
            truths.push(ts.mean_rel(w));
        }
    }
    mean_abs_pct_error(&preds, &truths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_core::concern::ConcernSet;
    use vc_core::important::important_placements;
    use vc_core::model::{PerfOracle, TrainingWorkload};
    use vc_core::placement::PlacementSpec;
    use vc_topology::machines;

    /// A synthetic oracle with two latent workload categories: "flat"
    /// workloads perform identically everywhere; "numa" workloads improve
    /// with node count.
    struct ToyOracle;

    impl PerfOracle for ToyOracle {
        fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64 {
            let nodes = spec.num_nodes() as f64;
            let noise = 1.0 + 0.002 * ((seed as f64 * 0.7 + nodes).sin());
            let base = if workload.starts_with("flat") {
                100.0
            } else {
                40.0 + 20.0 * nodes
            };
            base * noise
        }
    }

    /// The toy's training set, and two counters per observation: a
    /// memory intensity that tells the categories apart, and a constant.
    fn toy_corpus() -> (TrainingSet, HpeCorpus) {
        let amd = machines::amd_opteron_6272();
        let cs = ConcernSet::for_machine(&amd);
        let ips = important_placements(&amd, &cs, 16).unwrap();
        let workloads: Vec<TrainingWorkload> = ["flat", "numa"]
            .iter()
            .flat_map(|kind| {
                (0..4).map(move |i| TrainingWorkload {
                    name: format!("{kind}{i}"),
                    family: format!("{kind}{i}"),
                })
            })
            .collect();
        let ts = TrainingSet::build(&ToyOracle, &workloads, &ips, 0, 3);
        let obs = workloads
            .iter()
            .map(|w| {
                let intensity = if w.name.starts_with("flat") { 1.0 } else { 9.0 };
                (0..3)
                    .map(|seed| vec![intensity + 0.01 * (seed as f64).cos(), 5.0])
                    .collect()
            })
            .collect();
        let names = vec!["mem_intensity".into(), "noise".into()];
        (ts, HpeCorpus { names, obs })
    }

    #[test]
    fn hpe_sfs_picks_the_informative_counter() {
        let (ts, hpe) = toy_corpus();
        let cfg = ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        };
        let (selected, err) = HpeModel::select_features(&ts, &hpe, 2, &cfg, 0);
        assert!(selected.contains(&0), "selected {selected:?}");
        assert!(err < 10.0);
    }

    #[test]
    fn mean_averages_each_counter_over_seeds() {
        let (_, hpe) = toy_corpus();
        let mean = hpe.mean(4);
        let cos_mean = (0..3).map(|s| (s as f64).cos()).sum::<f64>() / 3.0;
        assert!(
            (mean[0] - (9.0 + 0.01 * cos_mean)).abs() < 1e-12,
            "{mean:?}"
        );
        assert_eq!(mean[1], 5.0);
    }
}
