//! Training against the computations it replaced, bit for bit:
//!
//! - `select_probe_pair`, which stops a candidate's cross-validation
//!   once it can no longer win and grows each fold's forest only where
//!   its held-out workloads fall, against the exhaustive selection that
//!   fits and scores every candidate in full (kept verbatim below), on
//!   all three machines at their own sizes and at 2, 4, 8, 16 and 32
//!   vCPUs, wherever a size has two placements to probe;
//! - `cv_error_perf_pair` against the same full fits, every candidate;
//! - `SimOracle::perf_seeds`, one solve shared by every noise seed,
//!   against per-seed `perf`;
//! - `TrainingSet::build` through `SimOracle` against a build through an
//!   oracle that only measures one seed at a time.

use vc_core::concern::ConcernSet;
use vc_core::important::{important_placements, ImportantPlacement};
use vc_core::model::{
    cv_error_perf_pair, select_probe_pair, PerfOracle, PerfPairModel, TrainingSet,
    TrainingWorkload,
};
use vc_core::placement::PlacementSpec;
use vc_ml::cv::leave_group_out;
use vc_ml::forest::ForestConfig;
use vc_ml::metrics::mean_abs_pct_error;
use vc_sim::SimOracle;
use vc_topology::{machines, Machine};

/// The three machine classes, each at two container sizes.
fn machines_and_sizes() -> Vec<(Machine, [usize; 2])> {
    vec![
        (machines::amd_opteron_6272(), [8, 16]),
        (machines::intel_xeon_e7_4830_v3(), [12, 24]),
        (machines::zen_like(), [8, 16]),
    ]
}

/// The engine's small training configuration: the paper suite, two
/// seeds, twenty trees.
fn fast_forest() -> ForestConfig {
    ForestConfig {
        n_trees: 20,
        ..ForestConfig::default()
    }
}

fn catalog(machine: &Machine, vcpus: usize) -> Vec<ImportantPlacement> {
    important_placements(machine, &ConcernSet::for_machine(machine), vcpus).expect("feasible size")
}

fn suite(oracle: &SimOracle) -> Vec<TrainingWorkload> {
    oracle
        .workloads()
        .iter()
        .map(|w| TrainingWorkload {
            name: w.name.clone(),
            family: w.family.clone(),
        })
        .collect()
}

/// The selection before miss-bounding: every candidate scored in full,
/// ranked by misses and then by error. Also checks each candidate's
/// `cv_error_perf_pair` against its full score.
fn exhaustive_select(ts: &TrainingSet, cfg: &ForestConfig, seed: u64) -> (usize, f64) {
    let anchor = ts.baseline;
    let mut best: Option<(usize, usize, f64)> = None;
    for other in 0..ts.n_placements() {
        if other == anchor {
            continue;
        }
        let (misses, err) = full_quality(ts, anchor, other, cfg, seed);
        let cv_err = cv_error_perf_pair(ts, anchor, other, cfg, seed);
        assert_eq!(cv_err.to_bits(), err.to_bits(), "cv error of {other}: {cv_err} vs {err}");
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

/// CV quality of a probe pair, every fold: (count of workloads whose
/// best placement is mispredicted, mean absolute percentage error).
fn full_quality(
    ts: &TrainingSet,
    anchor: usize,
    other: usize,
    cfg: &ForestConfig,
    seed: u64,
) -> (usize, f64) {
    let families = ts.families();
    let splits = leave_group_out(&families);
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    let mut misses = 0usize;
    let argmax = |v: &[f64]| -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty")
    };
    for split in &splits {
        let model = PerfPairModel::fit(ts, &split.train, anchor, other, cfg, seed);
        for &w in &split.test {
            let truth = ts.mean_rel(w);
            let ratio = truth[other] / truth[anchor];
            let rel_anchor = model.predict_rel_to_anchor(ratio);
            // Convert back to baseline-relative for comparison.
            let pred: Vec<f64> = rel_anchor.iter().map(|r| r * truth[anchor]).collect();
            if argmax(&pred) != argmax(&truth) {
                misses += 1;
            }
            preds.push(pred);
            truths.push(truth);
        }
    }
    (misses, mean_abs_pct_error(&preds, &truths))
}

fn assert_selection_matches(ts: &TrainingSet, cfg: &ForestConfig, seed: u64, label: &str) {
    let (probe, err) = select_probe_pair(ts, cfg, seed);
    let (ref_probe, ref_err) = exhaustive_select(ts, cfg, seed);
    assert_eq!(probe, ref_probe, "{label}: probe");
    assert_eq!(err.to_bits(), ref_err.to_bits(), "{label}: {err} vs {ref_err}");
}

#[test]
fn probe_selection_matches_the_exhaustive_scan() {
    let cfg = fast_forest();
    for (machine, own) in machines_and_sizes() {
        let oracle = SimOracle::new(machine.clone());
        let workloads = suite(&oracle);
        // The machine's own sizes plus the power-of-two sweep, each
        // size that has a second placement to probe.
        let mut sizes = vec![2, 4, 8, 16, 32];
        sizes.extend(own);
        sizes.sort_unstable();
        sizes.dedup();
        let mut checked = 0;
        for vcpus in sizes {
            let Ok(placements) =
                important_placements(&machine, &ConcernSet::for_machine(&machine), vcpus)
            else {
                continue;
            };
            if placements.len() < 2 {
                continue;
            }
            for baseline in [0, 1] {
                let ts = TrainingSet::build(&oracle, &workloads, &placements, baseline, 2);
                let label = format!("{} at {vcpus} vCPUs, baseline {baseline}", machine.name());
                assert_selection_matches(&ts, &cfg, 7, &label);
            }
            checked += 1;
        }
        assert!(checked > 0, "{}: no size has two placements", machine.name());
    }
}

/// Two workload categories: "compact" loses a little with every node,
/// "numa" gains with every node.
struct ToyOracle;

impl PerfOracle for ToyOracle {
    fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64 {
        let nodes = spec.num_nodes() as f64;
        let noise = 1.0 + 0.002 * ((seed as f64 * 0.7 + nodes).sin());
        let base = if workload.starts_with("compact") {
            100.0 - 5.0 * nodes
        } else {
            40.0 + 20.0 * nodes
        };
        base * noise
    }
}

/// With an eight-node baseline, the first candidate (two nodes) tells
/// the categories apart and misses nothing; a later eight-node
/// candidate sees the same ratio for both and misses, so the zero-miss
/// bound cuts it short.
#[test]
fn miss_bound_prunes_and_still_matches_on_a_toy_oracle() {
    let amd = machines::amd_opteron_6272();
    let placements = catalog(&amd, 16);
    let baseline = placements.len() - 1;
    assert_eq!(placements[baseline].spec.num_nodes(), 8);
    let workloads: Vec<TrainingWorkload> = ["compact", "numa"]
        .iter()
        .flat_map(|kind| {
            (0..4).map(move |i| TrainingWorkload {
                name: format!("{kind}{i}"),
                family: format!("{kind}{i}"),
            })
        })
        .collect();
    let ts = TrainingSet::build(&ToyOracle, &workloads, &placements, baseline, 3);
    let cfg = fast_forest();
    let misses = |other| full_quality(&ts, baseline, other, &cfg, 0).0;
    assert_eq!(misses(0), 0, "the first candidate must set a zero-miss bound");
    assert!(
        (1..baseline).any(|other| misses(other) > 0),
        "some later candidate must be cut short"
    );
    assert_selection_matches(&ts, &cfg, 0, "toy oracle");
}

#[test]
fn perf_seeds_match_per_seed_perf() {
    for (machine, [vcpus, _]) in machines_and_sizes() {
        let oracle = SimOracle::new(machine.clone());
        for placement in catalog(&machine, vcpus) {
            for w in oracle.workloads() {
                let seeds = oracle.perf_seeds(&w.name, &placement.spec, 3);
                assert_eq!(seeds.len(), 3);
                for (seed, value) in (0..3).zip(seeds) {
                    let single = oracle.perf(&w.name, &placement.spec, seed);
                    assert_eq!(
                        value.to_bits(),
                        single.to_bits(),
                        "{} {:?} seed {seed}",
                        w.name,
                        placement.spec
                    );
                }
            }
        }
    }
}

/// Forwards `perf` only, so `perf_seeds` is the trait's per-seed
/// default.
struct PerSeed<'a>(&'a SimOracle);

impl PerfOracle for PerSeed<'_> {
    fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64 {
        self.0.perf(workload, spec, seed)
    }
}

fn bits(rows: &[Vec<Vec<f64>>]) -> Vec<Vec<Vec<u64>>> {
    rows.iter()
        .map(|w| w.iter().map(|s| s.iter().map(|v| v.to_bits()).collect()).collect())
        .collect()
}

#[test]
fn training_sets_match_per_seed_measurement() {
    for (machine, [vcpus, _]) in machines_and_sizes() {
        let oracle = SimOracle::new(machine.clone());
        let workloads = suite(&oracle);
        let placements = catalog(&machine, vcpus);
        let shared = TrainingSet::build(&oracle, &workloads, &placements, 1, 3);
        let per_seed = TrainingSet::build(&PerSeed(&oracle), &workloads, &placements, 1, 3);
        assert_eq!(bits(&shared.rel), bits(&per_seed.rel), "{} rel", machine.name());
    }
}
