//! The performance prediction pipeline (§5).
//!
//! The model maps performance observed in **two** probe placements to the
//! full relative-performance vector over all important placements. The
//! probe pair is chosen automatically during training: the anchor is the
//! reporting baseline and the second probe is the placement that gives the
//! best cross-validated accuracy.
//!
//! The paper's comparison baseline, a forest over hardware performance
//! events observed in a single placement, is not part of the pipeline: it
//! lives with the Fig. 4 experiment in `vc-bench`.

use vc_ml::cv::leave_group_out;
use vc_ml::forest::{ForestConfig, RandomForest};
use vc_ml::metrics::mean_abs_pct_error;

use crate::important::ImportantPlacement;
use crate::placement::PlacementSpec;

/// Source of performance measurements for (workload, placement) pairs.
///
/// Implemented by the `vc-sim` simulator in this repository; on real
/// hardware it would wrap container runs under cpuset pinning.
pub trait PerfOracle {
    /// Measured performance of `workload` in `spec` (higher is better);
    /// `seed` selects the measurement-noise realisation.
    fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64;

    /// Measured performance of `workload` in `spec` under every noise
    /// seed `0..seeds`, in seed order: element `s` is exactly the value
    /// [`Self::perf`] returns for seed `s`, to the last bit. On hardware
    /// that means `seeds` repeated runs, which is what the default does;
    /// a simulator whose noise is drawn after its solve may share one
    /// solve across the seeds instead.
    fn perf_seeds(&self, workload: &str, spec: &PlacementSpec, seeds: u64) -> Vec<f64> {
        (0..seeds).map(|seed| self.perf(workload, spec, seed)).collect()
    }
}

/// A thread-safe, reference-counted oracle, shareable across a serving
/// fleet. `vc-sim`'s `SimOracle` is `Send + Sync` (pure data plus pure
/// functions), so it coerces directly; hardware-backed oracles must
/// synchronise their measurement channel internally.
pub type SharedOracle = std::sync::Arc<dyn PerfOracle + Send + Sync>;

impl<T: PerfOracle + ?Sized> PerfOracle for std::sync::Arc<T> {
    fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64 {
        (**self).perf(workload, spec, seed)
    }

    fn perf_seeds(&self, workload: &str, spec: &PlacementSpec, seeds: u64) -> Vec<f64> {
        (**self).perf_seeds(workload, spec, seeds)
    }
}

impl<T: PerfOracle + ?Sized> PerfOracle for &T {
    fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64 {
        (**self).perf(workload, spec, seed)
    }

    fn perf_seeds(&self, workload: &str, spec: &PlacementSpec, seeds: u64) -> Vec<f64> {
        (**self).perf_seeds(workload, spec, seeds)
    }
}

/// A workload available for training, with its family for grouped
/// cross-validation (the paper excludes *related* workloads, e.g. both
/// Spark jobs, when predicting either).
#[derive(Debug, Clone)]
pub struct TrainingWorkload {
    /// Workload name passed to the oracle.
    pub name: String,
    /// Family label for leave-group-out cross-validation.
    pub family: String,
}

/// Measured training data for one machine and one vCPU count.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// The workloads measured.
    pub workloads: Vec<TrainingWorkload>,
    /// The important placements, in id order.
    pub placements: Vec<ImportantPlacement>,
    /// Index (into `placements`) of the reporting baseline.
    pub baseline: usize,
    /// `rel[w][s][p]`: performance of workload `w` under seed `s` in
    /// placement `p`, relative to the baseline placement.
    pub rel: Vec<Vec<Vec<f64>>>,
}

impl TrainingSet {
    /// Measures every workload in every important placement with
    /// `n_seeds` noise realisations (the training corpus of §5).
    ///
    /// Each (workload, placement) pair is one
    /// [`PerfOracle::perf_seeds`] call for all seeds at once, and each
    /// row divides by the baseline placement's measurement under the same
    /// seed.
    pub fn build(
        oracle: &dyn PerfOracle,
        workloads: &[TrainingWorkload],
        placements: &[ImportantPlacement],
        baseline: usize,
        n_seeds: u64,
    ) -> Self {
        assert!(baseline < placements.len(), "baseline out of range");
        assert!(n_seeds > 0, "need at least one seed");
        let rel = workloads
            .iter()
            .map(|w| {
                let perf: Vec<Vec<f64>> = placements
                    .iter()
                    .map(|p| oracle.perf_seeds(&w.name, &p.spec, n_seeds))
                    .collect();
                let base = &perf[baseline];
                (0..base.len())
                    .map(|s| perf.iter().map(|p| p[s] / base[s]).collect())
                    .collect()
            })
            .collect();
        TrainingSet {
            workloads: workloads.to_vec(),
            placements: placements.to_vec(),
            baseline,
            rel,
        }
    }

    /// Number of important placements.
    pub fn n_placements(&self) -> usize {
        self.placements.len()
    }

    /// Mean relative-performance vector of a workload over seeds.
    pub fn mean_rel(&self, w: usize) -> Vec<f64> {
        let seeds = self.rel[w].len() as f64;
        let mut mean = vec![0.0; self.n_placements()];
        for row in &self.rel[w] {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= seeds;
        }
        mean
    }

    /// Family labels per workload (for grouped CV).
    pub fn families(&self) -> Vec<&str> {
        self.workloads.iter().map(|w| w.family.as_str()).collect()
    }
}

/// The paper's model: performance in two placements in, performance
/// vector out.
#[derive(Debug, Clone)]
pub struct PerfPairModel {
    /// Anchor probe (also the reporting baseline).
    pub anchor: usize,
    /// Second probe.
    pub other: usize,
    forest: RandomForest,
}

impl PerfPairModel {
    /// Fits the model on (a subset of) the training set. `rows` selects
    /// workload indices; pass all indices for a full fit.
    pub fn fit(
        ts: &TrainingSet,
        rows: &[usize],
        anchor: usize,
        other: usize,
        cfg: &ForestConfig,
        seed: u64,
    ) -> Self {
        let ys = anchor_relative(ts, rows, anchor);
        PerfPairModel {
            anchor,
            other,
            forest: RandomForest::fit(&ratio_inputs(&ys, other), &ys, cfg, seed),
        }
    }

    /// Predicts the performance vector relative to the anchor placement,
    /// from the measured perf ratio `other / anchor`.
    pub fn predict_rel_to_anchor(&self, ratio: f64) -> Vec<f64> {
        self.forest.predict(&[ratio])
    }

    /// Predicts absolute performance in every placement from the two
    /// probe measurements.
    pub fn predict_absolute(&self, perf_anchor: f64, perf_other: f64) -> Vec<f64> {
        self.predict_rel_to_anchor(perf_other / perf_anchor)
            .into_iter()
            .map(|r| r * perf_anchor)
            .collect()
    }
}

/// Chooses the second probe placement by grouped cross-validation, with
/// the anchor fixed to the training set's baseline (§5: "the training
/// process automatically finds the two of the important placements that
/// give the highest accuracy").
///
/// Candidates are ranked first by how often they identify each held-out
/// workload's best placement — the decision the scheduler acts on — and
/// then by mean error. Returns `(other, cv_error_pct)`.
///
/// The selection is miss-bounded: a candidate's cross-validation stops
/// at the fold where its misses exceed the best candidate's so far.
/// Misses only grow, so that candidate could no longer win, and the
/// result is the one scoring every candidate in full would give.
///
/// # Panics
///
/// Panics when the training set has fewer than two placements — there
/// is no second probe to choose. Callers check
/// [`TrainingSet::n_placements`] first (the engine answers
/// `PlacementError::NoProbePair` instead of calling).
pub fn select_probe_pair(ts: &TrainingSet, cfg: &ForestConfig, seed: u64) -> (usize, f64) {
    let anchor = ts.baseline;
    let cv = PairCv::new(ts, anchor);
    let mut best: Option<(usize, usize, f64)> = None;
    for other in 0..ts.n_placements() {
        if other == anchor {
            continue;
        }
        let max_misses = best.map_or(usize::MAX, |(bm, _, _)| bm);
        let Some((misses, err)) = cv.quality(other, cfg, seed, max_misses) else {
            continue;
        };
        let better = match best {
            None => true,
            Some((bm, _, be)) => misses < bm || (misses == bm && err < be),
        };
        if better {
            best = Some((misses, other, err));
        }
    }
    let (_, other, err) = best.expect("at least two placements");
    (other, err)
}

/// Leave-family-out cross-validation of perf-pair models with a fixed
/// anchor. Everything the second probe does not change is built once:
/// the family splits, each fold's anchor-relative training targets, and
/// each held-out workload's mean relative vector. A fold's forest is
/// only ever read at its held-out workloads, so it is grown only where
/// they fall ([`RandomForest::fit_predict`]): the predictions a fitted
/// [`PerfPairModel`] makes, to the last bit, without whole trees.
struct PairCv {
    anchor: usize,
    /// One per family split: the training targets ([`anchor_relative`])
    /// and how many held-out workloads follow in `truths`.
    folds: Vec<(Vec<Vec<f64>>, usize)>,
    /// Mean relative vectors ([`TrainingSet::mean_rel`]) of the held-out
    /// workloads, fold by fold.
    truths: Vec<Vec<f64>>,
}

impl PairCv {
    fn new(ts: &TrainingSet, anchor: usize) -> Self {
        let mut folds = Vec::new();
        let mut truths = Vec::new();
        for split in leave_group_out(&ts.families()) {
            folds.push((anchor_relative(ts, &split.train, anchor), split.test.len()));
            truths.extend(split.test.iter().map(|&w| ts.mean_rel(w)));
        }
        PairCv {
            anchor,
            folds,
            truths,
        }
    }

    /// CV quality of the probe pair `(anchor, other)`: (count of
    /// workloads whose best placement is mispredicted, mean absolute
    /// percentage error) — or `None` as soon as the count exceeds
    /// `max_misses`.
    fn quality(
        &self,
        other: usize,
        cfg: &ForestConfig,
        seed: u64,
        max_misses: usize,
    ) -> Option<(usize, f64)> {
        let argmax = |v: &[f64]| -> usize {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty")
        };
        let mut preds = Vec::with_capacity(self.truths.len());
        let mut misses = 0usize;
        let mut held_out = 0;
        for (ys, n_test) in &self.folds {
            let truths = &self.truths[held_out..held_out + n_test];
            held_out += n_test;
            let ratios: Vec<f64> = truths.iter().map(|t| t[other] / t[self.anchor]).collect();
            let rel = RandomForest::fit_predict(&ratio_inputs(ys, other), ys, cfg, seed, &ratios);
            for (truth, rel_anchor) in truths.iter().zip(rel) {
                // Convert back to baseline-relative for comparison.
                let pred: Vec<f64> = rel_anchor.iter().map(|r| r * truth[self.anchor]).collect();
                if argmax(&pred) != argmax(truth) {
                    misses += 1;
                    if misses > max_misses {
                        return None;
                    }
                }
                preds.push(pred);
            }
        }
        Some((misses, mean_abs_pct_error(&preds, &self.truths)))
    }
}

/// The model's input rows for anchor-relative targets `ys`: each row's
/// `other` entry, the ratio `other / anchor` it was measured at.
fn ratio_inputs(ys: &[Vec<f64>], other: usize) -> Vec<Vec<f64>> {
    ys.iter().map(|y| vec![y[other]]).collect()
}

/// The training targets of workloads `rows`: every seed's relative
/// performance vector divided by its `anchor` entry.
fn anchor_relative(ts: &TrainingSet, rows: &[usize], anchor: usize) -> Vec<Vec<f64>> {
    rows.iter()
        .flat_map(|&w| &ts.rel[w])
        .map(|row| row.iter().map(|v| v / row[anchor]).collect())
        .collect()
}

/// Leave-family-out CV error (mean absolute percentage) of a perf-pair
/// model.
pub fn cv_error_perf_pair(
    ts: &TrainingSet,
    anchor: usize,
    other: usize,
    cfg: &ForestConfig,
    seed: u64,
) -> f64 {
    PairCv::new(ts, anchor)
        .quality(other, cfg, seed, usize::MAX)
        .expect("no miss bound")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concern::ConcernSet;
    use crate::important::important_placements;
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

    fn toy_training_set() -> TrainingSet {
        let amd = machines::amd_opteron_6272();
        let cs = ConcernSet::for_machine(&amd);
        let ips = important_placements(&amd, &cs, 16).unwrap();
        let workloads: Vec<TrainingWorkload> = (0..4)
            .map(|i| TrainingWorkload {
                name: format!("flat{i}"),
                family: format!("flat{i}"),
            })
            .chain((0..4).map(|i| TrainingWorkload {
                name: format!("numa{i}"),
                family: format!("numa{i}"),
            }))
            .collect();
        TrainingSet::build(&ToyOracle, &workloads, &ips, 0, 3)
    }

    #[test]
    fn training_set_has_expected_shape() {
        let ts = toy_training_set();
        assert_eq!(ts.rel.len(), 8);
        assert_eq!(ts.rel[0].len(), 3);
        assert_eq!(ts.rel[0][0].len(), 13);
        // Baseline column is exactly 1.0.
        for w in &ts.rel {
            for s in w {
                assert!((s[0] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn perf_pair_model_separates_categories() {
        let ts = toy_training_set();
        let cfg = ForestConfig {
            n_trees: 30,
            ..ForestConfig::default()
        };
        let rows: Vec<usize> = (0..ts.workloads.len()).collect();
        // Anchor = baseline (2-node), other = an 8-node placement (last).
        let other = ts.n_placements() - 1;
        let model = PerfPairModel::fit(&ts, &rows, ts.baseline, other, &cfg, 0);
        // A flat workload: ratio ~1 -> flat vector.
        let flat = model.predict_rel_to_anchor(1.0);
        assert!(flat.iter().all(|v| (v - 1.0).abs() < 0.05), "{flat:?}");
        // A numa workload: 8 nodes vs 2 nodes = 200/80 = 2.5.
        let numa = model.predict_rel_to_anchor(2.5);
        let eight_node_rel = numa[other];
        assert!(eight_node_rel > 2.0, "{numa:?}");
    }

    #[test]
    fn probe_pair_selection_prefers_discriminative_placement() {
        let ts = toy_training_set();
        let cfg = ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        };
        let (other, err) = select_probe_pair(&ts, &cfg, 0);
        // The chosen probe must differ in node count from the 2-node
        // baseline, otherwise the ratio carries no category signal.
        assert_ne!(ts.placements[other].spec.num_nodes(), 2);
        assert!(err < 5.0, "cv error too high: {err}");
    }

    #[test]
    fn predict_absolute_rescales_by_anchor() {
        let ts = toy_training_set();
        let cfg = ForestConfig {
            n_trees: 10,
            ..ForestConfig::default()
        };
        let rows: Vec<usize> = (0..ts.workloads.len()).collect();
        let model = PerfPairModel::fit(&ts, &rows, 0, 1, &cfg, 0);
        let abs = model.predict_absolute(100.0, 100.0);
        // Anchor placement prediction should be ~100.
        assert!((abs[0] - 100.0).abs() < 5.0);
    }
}
