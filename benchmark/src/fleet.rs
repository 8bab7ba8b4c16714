//! Fleets, engine configurations and the set-up / quality helpers the
//! four workloads share.

use std::time::Instant;

use vc_core::model::PerfOracle;
use vc_engine::{EngineConfig, MachineId, Placed, PlacementEngine, PlacementRequest};
use vc_ml::forest::ForestConfig;
use vc_topology::machines;

use crate::stats::median;

/// `vcplace serve`'s engine configuration, neighbour-blind: 2 training
/// seeds, paper suite only, 20 trees.
pub fn serve_config() -> EngineConfig {
    EngineConfig {
        n_seeds: 2,
        extra_synthetic: 0,
        forest: ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Exactly `vcplace serve`'s configuration: [`serve_config`] with
/// interference scoring and the 2 % degradation budget.
pub fn serve_config_colocated() -> EngineConfig {
    EngineConfig {
        interference: true,
        degradation_budget: Some(0.02),
        ..serve_config()
    }
}

/// The fleet pattern of every workload: host `i` is an AMD Opteron 6272
/// for `i % 4 ∈ {0, 1}`, Zen-like for 2, Intel E7-4830 v3 reporting
/// against baseline 1 for 3 — three machine classes.
pub fn mixed_fleet(cfg: EngineConfig, hosts: usize) -> PlacementEngine {
    let mut engine = PlacementEngine::new(cfg);
    for i in 0..hosts {
        match i % 4 {
            0 | 1 => engine.add_machine(machines::amd_opteron_6272()),
            2 => engine.add_machine(machines::zen_like()),
            _ => engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1),
        };
    }
    engine
}

/// The smallest fleet with all three machine classes: one host each.
pub fn one_per_class(cfg: EngineConfig) -> PlacementEngine {
    let mut engine = PlacementEngine::new(cfg);
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::zen_like());
    engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
    engine
}

/// One member host per machine class, class order.
pub fn class_reps(engine: &PlacementEngine) -> Vec<MachineId> {
    engine
        .fleet_index()
        .classes()
        .iter()
        .map(|c| c.members()[0])
        .collect()
}

/// Trains every machine class at every size in `sizes` by placing and
/// releasing one best-effort container per size (phase 1 evaluates all
/// classes, so one request warms them all).
pub fn prewarm(engine: &PlacementEngine, sizes: &[usize]) {
    for &vcpus in sizes {
        let decision = engine.place(&PlacementRequest::new("WTbtree", vcpus));
        let placed = decision.placed().expect("an empty fleet hosts any size");
        engine.release(placed).expect("just placed");
    }
}

/// Runs `build` `repeats` times — tearing each earlier result down
/// before the next build, so peak memory is one fleet's — and returns
/// the last result with the median build time in seconds.
pub fn repeat_setup<T>(
    repeats: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), median(&times))
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether the container really gets what it was promised: the oracle's
/// measurement of the committed placement against the request's goal.
pub fn meets_goal(engine: &PlacementEngine, req: &PlacementRequest, placed: &Placed) -> bool {
    let measured =
        engine
            .sim_oracle(placed.machine)
            .perf(&req.workload, &placed.spec, req.probe_seed);
    measured >= placed.goal_perf
}

/// `(met, total)` of [`meets_goal`] over every live resident.
pub fn residents_meeting_goal(engine: &PlacementEngine) -> (usize, usize) {
    let (mut met, mut total) = (0, 0);
    for id in engine.machine_ids() {
        let snapshot = engine.host_snapshot(id);
        if snapshot.residents().is_empty() {
            continue;
        }
        let oracle = engine.sim_oracle(id);
        for r in snapshot.residents() {
            let measured = oracle.perf(&r.request.workload, &r.spec, r.request.probe_seed);
            met += usize::from(measured >= r.goal_perf);
            total += 1;
        }
    }
    (met, total)
}

/// Mean cross-validated error (%) of the engine's trained models over
/// every class at every size in `sizes` — the Fig. 4 number. All cache
/// hits once the sizes are warm.
pub fn model_cv_err_pct(engine: &PlacementEngine, sizes: &[usize]) -> f64 {
    let mut errors = Vec::new();
    for rep in class_reps(engine) {
        for &vcpus in sizes {
            let catalog = engine.catalog(rep, vcpus).expect("warm size");
            let baseline = engine.baseline(rep).min(catalog.placements.len() - 1);
            let artifact = engine.model(rep, vcpus, baseline, None).expect("warm size");
            errors.push(artifact.cv_error_pct);
        }
    }
    errors.iter().sum::<f64>() / errors.len() as f64
}
