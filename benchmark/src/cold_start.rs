//! `cold_start` — the paper's pipeline, uncached: rounds of a fresh
//! 3-host engine (one host per machine class, `train_seed = 7 + round`)
//! on which the *first* `place` of `WTbtree` at each size in
//! `{2,4,8,16,32}` is timed. Each first place trains three classes:
//! Algorithms 1–3 build the catalog, `TrainingSet::build` sweeps the
//! simulator, `select_probe_pair` cross-validates, the forest is
//! fitted. Only whole rounds are run, so every run times the same mix
//! of sizes.
//!
//! The engine configuration is `vcplace serve`'s (2 seeds, paper suite,
//! 20 trees), not `EngineConfig::default()`: the paper-sized corpus
//! costs ≈ 13 s per round here, more than a run may measure. This is
//! also exactly the work every other workload's `setup_s` pays.
//!
//! Why: `vc-core` enumeration/model, `vc-ml` fit and bulk `vc-sim`
//! sweeps do all the work here and none in the warm workloads (which
//! assert zero cache computes in their timed phase).

use std::hint::black_box;
use std::time::{Duration, Instant};

use vc_core::availability::AvailabilityIndex;
use vc_core::concern::ConcernSet;
use vc_core::important::{important_placements_from_packings, surviving_packings};
use vc_core::model::{select_probe_pair, PerfPairModel, TrainingSet, TrainingWorkload};
use vc_engine::{EngineConfig, MachineId, PlacementEngine, PlacementRequest};
use vc_ml::RandomForest;

use crate::checks::occupied_hosts;
use crate::fleet::{
    class_reps, meets_goal, model_cv_err_pct, one_per_class, peak_rss_mb, serve_config,
};
use crate::gen::{SplitMix, ALL_SIZES};
use crate::layers::{
    chosen_host_layers, common_layer_metrics, forest_design, micro_probes, replay_evaluate,
    set_trace_overhead, Derived,
};
use crate::metrics::Outcome;
use crate::stats::{median, Samples, Segment};
use crate::trace::{Layers, Recorder};
use crate::Opts;

/// Quoted tail, per round of five first places: the second slowest
/// size.
const TAIL_Q: f64 = 0.75;
/// First places the digests cover: two rounds, which every full-scale
/// run completes.
const DIGEST_ITEMS: u64 = 2 * ALL_SIZES.len() as u64;
/// Warm `can_fit` probes and warm place + release pairs after each
/// first place: microsecond-scale calls need more samples than the
/// first places alone would give.
const WARM_REPEATS: usize = 5;
/// Fleet constructions timed up front for `setup_s` (each ≈ 0.3 ms).
const SETUP_SAMPLES: usize = 64;

fn config(round: u64) -> EngineConfig {
    EngineConfig {
        train_seed: 7 + round,
        ..serve_config()
    }
}

/// The four pipeline stages one machine class pays on a first place,
/// each a span around the public functions the engine's caches call.
/// Returns their summed duration.
fn pipeline_stages(
    rec: &mut Recorder,
    engine: &PlacementEngine,
    rep: MachineId,
    vcpus: usize,
) -> u64 {
    let machine = engine.machine(rep);
    let cfg = engine.config();
    let (catalog, catalog_ns) = rec.leaf("core.catalog_build", || {
        let concerns = ConcernSet::for_machine(machine);
        let packings = surviving_packings(machine, &concerns, vcpus).expect("feasible size");
        let placements = important_placements_from_packings(machine, &concerns, vcpus, &packings)
            .expect("feasible size");
        let availability = AvailabilityIndex::build(machine, &concerns, &placements);
        (placements, availability)
    });
    let (placements, availability) = catalog;
    black_box(availability);
    let oracle = engine.sim_oracle(rep);
    let workloads: Vec<TrainingWorkload> = oracle
        .workloads()
        .iter()
        .map(|w| TrainingWorkload {
            name: w.name.clone(),
            family: w.family.clone(),
        })
        .collect();
    let baseline = engine.baseline(rep).min(placements.len() - 1);
    let (ts, training_ns) = rec.leaf("core.training_build", || {
        TrainingSet::build(
            oracle.as_ref(),
            &workloads,
            &placements,
            baseline,
            cfg.n_seeds,
        )
    });
    let ((probe, _), select_ns) = rec.leaf("core.select_probe", || {
        select_probe_pair(&ts, &cfg.forest, cfg.train_seed)
    });
    let rows: Vec<usize> = (0..ts.workloads.len()).collect();
    let fit = rec.leaf("core.model_fit", || {
        PerfPairModel::fit(&ts, &rows, baseline, probe, &cfg.forest, cfg.train_seed)
    });
    // The `vc-ml` share of the fit, on the same design matrix.
    let (xs, ys) = forest_design(&ts.rel, baseline, probe);
    let forest = rec.leaf("ml.forest_fit", || {
        RandomForest::fit(&xs, &ys, &cfg.forest, cfg.train_seed)
    });
    black_box((fit.0, forest.0));
    catalog_ns + training_ns + select_ns + fit.1
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = SplitMix::new(opts.seed);
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut derived = Derived::default();
    let (mut cold, mut release, mut can_fit) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut plain_cold = Samples::default();
    let (mut met, mut placed_total, mut hosts_used) = (0usize, 0usize, 0usize);
    let mut cv_errors = Vec::new();
    let mut computes = 0;
    // One segment per round.
    let mut segments = Vec::new();

    // Set-up of this workload is fleet construction alone: everything
    // else a first place pays is the thing being timed.
    let mut setup_times: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(one_per_class(config(0)));
            t.elapsed().as_secs_f64()
        })
        .collect();

    let total = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut timed_start = start;
    let mut last_engine = None;
    let mut round = 0u64;
    while start.elapsed() < total {
        // A traced run spends its first quarter untraced: the baseline
        // `trace.overhead_pct` compares against.
        if opts.trace && !rec.enabled() && start.elapsed() >= total / 4 {
            plain_cold = std::mem::take(&mut cold);
            release = Samples::default();
            can_fit = Samples::default();
            (out.attempted, out.failed, met, placed_total, computes) = (0, 0, 0, 0, 0);
            cv_errors.clear();
            segments.clear();
            rec.set_enabled(true);
            timed_start = Instant::now();
        }
        let t = Instant::now();
        let engine = one_per_class(config(round));
        setup_times.push(t.elapsed().as_secs_f64());
        let counts = [cold.len(), release.len(), can_fit.len()];
        let reps = class_reps(&engine);
        for vcpus in ALL_SIZES {
            let req = PlacementRequest::new("WTbtree", vcpus)
                .with_goal(0.9)
                .with_probe_seed(rng.next_u64());
            rec.request(round * ALL_SIZES.len() as u64 + vcpus as u64);
            let root = rec.enter("request");
            if rec.enabled() {
                for &rep in &reps {
                    derived.explained_ns += pipeline_stages(&mut rec, &engine, rep, vcpus);
                }
            }
            let (decision, ns) = rec.leaf("engine.place", || engine.place(&req));
            cold.push(ns);
            out.attempted += 1;
            if out.script.items < DIGEST_ITEMS {
                out.script.request(&req);
                out.decisions.decision(decision.placed());
            }
            if rec.enabled() {
                derived.place_ns += ns;
                // Warm from here on: the hot-path layers on this engine.
                let replay = replay_evaluate(&mut rec, &engine, &reps, &req);
                derived.replayed(&replay);
            }
            for _ in 0..WARM_REPEATS {
                let (fit, ns) = rec.leaf("engine.can_fit", || engine.can_fit(&req));
                black_box(fit);
                can_fit.push(ns);
                out.attempted += 1;
            }
            match decision.placed() {
                Some(placed) => {
                    if rec.enabled() {
                        chosen_host_layers(&mut rec, &engine, placed.machine, vcpus);
                    }
                    placed_total += 1;
                    met += usize::from(meets_goal(&engine, &req, placed));
                    hosts_used = hosts_used.max(occupied_hosts(&engine));
                    out.checks.live_vcpus(&engine, vcpus, "after a first place");
                    let (released, ns) = rec.leaf("engine.release", || engine.release(placed));
                    release.push(ns);
                    out.attempted += 1;
                    out.failed += u64::from(released.is_err());
                    for _ in 1..WARM_REPEATS {
                        let again = engine.place(&req);
                        out.attempted += 2;
                        match again.placed() {
                            Some(p) => {
                                let (released, ns) =
                                    rec.leaf("engine.release", || engine.release(p));
                                release.push(ns);
                                out.failed += u64::from(released.is_err());
                            }
                            None => out.failed += 1,
                        }
                    }
                }
                None => out.failed += 1,
            }
            rec.exit(root);
        }
        let places = cold.range(counts[0]..cold.len());
        segments.push(Segment::of(
            places.len() as u64,
            t.elapsed().as_secs_f64(),
            &places,
            TAIL_Q,
            &release.range(counts[1]..release.len()),
            &can_fit.range(counts[2]..can_fit.len()),
        ));
        out.checks.drained(&engine);
        cv_errors.push(model_cv_err_pct(&engine, &ALL_SIZES));
        computes += engine.stats().total_computes();
        last_engine = Some(engine);
        round += 1;
    }
    let wall_s = timed_start.elapsed().as_secs_f64();
    let rounds = cv_errors.len();
    out.notes.push(format!(
        "samples: first place {} release {} can_fit {} | {rounds} whole rounds | wall {wall_s:.2}s",
        cold.len(),
        release.len(),
        can_fit.len(),
    ));
    // 3 classes × 5 sizes × (catalog + training set + model) per round.
    let expected = rounds as u64 * 3 * ALL_SIZES.len() as u64 * 3;
    out.checks.expect(computes == expected, || {
        format!("{computes} cache computes over {rounds} rounds, expected {expected}")
    });

    let engine = last_engine.expect("at least one round");
    if opts.trace {
        let layers = Layers::fold(std::slice::from_ref(&rec));
        let m = &mut out.metrics;
        // Counters of the last round: a fresh engine starts from zero.
        let zero = one_per_class(config(0)).stats();
        let per_round = ALL_SIZES.len() as u64;
        common_layer_metrics(m, &layers, &derived, &zero, &engine.stats(), per_round);
        // Σ over the three classes: what one first place pays per stage.
        let per_place = |name: &str| layers.get(name).sum() as f64 / 1e6 / cold.len() as f64;
        m.set("core.catalog_build_ms", per_place("core.catalog_build"));
        m.set("core.training_build_ms", per_place("core.training_build"));
        m.set("core.select_probe_ms", per_place("core.select_probe"));
        m.set("core.model_fit_ms", per_place("core.model_fit"));
        m.set("ml.forest_fit_ms", per_place("ml.forest_fit"));
        set_trace_overhead(m, &cold, &plain_cold);
        micro_probes(m, &engine);
        if let Err(e) = crate::write_trace("cold_start", &[rec]) {
            out.checks.fail(format!("trace file: {e}"));
        }
    } else {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_times));
        m.set_timings(&segments);
        m.set("goal_met_share", met as f64 / placed_total.max(1) as f64);
        m.set(
            "model_cv_err_pct",
            cv_errors.iter().sum::<f64>() / rounds as f64,
        );
        m.set("hosts_used", hosts_used as f64);
        m.set("peak_rss_mb", peak_rss_mb());
    }
    out
}
