//! Layer measurement from outside: the traced run replays, around each
//! request and on identical inputs, the public calls `place` makes
//! inside (per class: catalog, model, the two `SimOracle::perf` probes,
//! `predict_absolute`, `requirements`; then `can_fit`, `place`,
//! snapshot load + `available` on the chosen host), and times the
//! hot-path structures of `vc-topology` / `vc-sync` directly.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vc_core::model::PerfOracle;
use vc_engine::{EngineStats, MachineId, PlacementDecision, PlacementEngine, PlacementRequest};
use vc_ml::RandomForest;
use vc_sync::{Domain, Slot};
use vc_topology::{AvailabilitySketch, CapacitySummary, ThreadId};

use crate::metrics::Metrics;
use crate::stats::{median, Samples};
use crate::trace::{Layers, Recorder};

/// Per-request sums over the machine classes, plus the totals
/// `sim.perf_share` and `trace.coverage` are ratios of.
#[derive(Default)]
pub struct Derived {
    /// Per request, Σ over classes of the two probes and the predict.
    pub probe_predict: Samples,
    /// Per request, Σ over classes of every evaluate-layer call.
    pub eval: Samples,
    /// Σ `SimOracle::perf` time in the replays.
    pub perf_ns: u64,
    /// Σ layer time that explains `place`: the evaluate replay plus
    /// snapshot load and `available` on the chosen host.
    pub explained_ns: u64,
    /// Σ `place` time of the same requests.
    pub place_ns: u64,
}

impl Derived {
    pub fn replayed(&mut self, replay: &Replay) {
        self.probe_predict.push(replay.probe_predict_ns);
        self.eval.push(replay.eval_ns);
        self.perf_ns += replay.perf_ns;
    }

    pub fn merge(&mut self, other: &Derived) {
        self.probe_predict.extend(&other.probe_predict);
        self.eval.extend(&other.eval);
        self.perf_ns += other.perf_ns;
        self.explained_ns += other.explained_ns;
        self.place_ns += other.place_ns;
    }
}

/// Time of one evaluate replay, by part.
#[derive(Default, Clone, Copy)]
pub struct Replay {
    /// Every call: catalog, model, probes, predict, requirements.
    pub eval_ns: u64,
    /// Probes and predict only.
    pub probe_predict_ns: u64,
    pub perf_ns: u64,
}

/// Replays phase 1 of `place` for `req`: for each machine class the
/// same public calls `PlacementEngine::evaluate` makes, each its own
/// span. Read-only (cache hits, simulator probes).
pub fn replay_evaluate(
    rec: &mut Recorder,
    engine: &PlacementEngine,
    reps: &[MachineId],
    req: &PlacementRequest,
) -> Replay {
    let mut replay = Replay::default();
    for &rep in reps {
        let (catalog, catalog_ns) =
            rec.leaf("engine.catalog_hit", || engine.catalog(rep, req.vcpus));
        let Ok(catalog) = catalog else { continue };
        let baseline = engine.baseline(rep).min(catalog.placements.len() - 1);
        let (artifact, model_ns) = rec.leaf("engine.model_hit", || {
            engine.model(rep, req.vcpus, baseline, None)
        });
        let Ok(artifact) = artifact else { continue };
        let oracle = engine.sim_oracle(rep);
        let anchor_spec = &catalog.placements[artifact.baseline].spec;
        let probe_spec = &catalog.placements[artifact.probe].spec;
        let (anchor, p1) = rec.leaf("sim.perf", || {
            oracle.perf(&req.workload, anchor_spec, req.probe_seed)
        });
        let (other, p2) = rec.leaf("sim.perf", || {
            oracle.perf(&req.workload, probe_spec, req.probe_seed.wrapping_add(1))
        });
        let (predicted, predict_ns) = rec.leaf("core.predict", || {
            artifact.model.predict_absolute(anchor, other)
        });
        let (shapes, shapes_ns) =
            rec.leaf("core.requirements", || catalog.availability.requirements());
        black_box((predicted, shapes));
        replay.perf_ns += p1 + p2;
        replay.probe_predict_ns += p1 + p2 + predict_ns;
        replay.eval_ns += catalog_ns + model_ns + p1 + p2 + predict_ns + shapes_ns;
    }
    replay
}

/// The traced form of one `place`: evaluate replay, `can_fit`, the
/// real `place`, then snapshot load + `available` on the chosen host.
/// Returns the decision and the `place` duration.
pub fn traced_place(
    rec: &mut Recorder,
    engine: &PlacementEngine,
    reps: &[MachineId],
    req: &PlacementRequest,
    derived: &mut Derived,
) -> (PlacementDecision, u64) {
    let replay = replay_evaluate(rec, engine, reps, req);
    let (fit, _) = rec.leaf("engine.can_fit", || engine.can_fit(req));
    black_box(fit);
    let (decision, place_ns) = rec.leaf("engine.place", || engine.place(req));
    let mut explained = replay.eval_ns;
    if let Some(placed) = decision.placed() {
        explained += chosen_host_layers(rec, engine, placed.machine, req.vcpus);
    }
    derived.replayed(&replay);
    derived.explained_ns += explained;
    derived.place_ns += place_ns;
    (decision, place_ns)
}

/// Snapshot load + `AvailabilityIndex::available` on `host` — what a
/// commit reads before it reserves. Returns their summed duration.
pub fn chosen_host_layers(
    rec: &mut Recorder,
    engine: &PlacementEngine,
    host: MachineId,
    vcpus: usize,
) -> u64 {
    let (snapshot, load_ns) = rec.leaf("engine.snapshot_load", || engine.host_snapshot(host));
    let catalog = engine.catalog(host, vcpus).expect("placed size is warm");
    let (available, available_ns) = rec.leaf("core.available", || {
        catalog
            .availability
            .available(engine.machine(host), snapshot.occupancy())
    });
    black_box(available);
    load_ns + available_ns
}

/// Sets the layer metrics every workload derives the same way: span
/// medians, per-request differences, `engine.stats()` deltas over the
/// traced timed phase (per placement request), share and coverage.
pub fn common_layer_metrics(
    metrics: &mut Metrics,
    layers: &Layers,
    derived: &Derived,
    before: &EngineStats,
    after: &EngineStats,
    place_requests: u64,
) {
    metrics.set("sim.perf_us", layers.get("sim.perf").p50_us());
    metrics.set(
        "core.requirements_ns",
        layers.get("core.requirements").p50_ns(),
    );
    metrics.set("core.available_us", layers.get("core.available").p50_us());
    metrics.set("core.predict_ns", layers.get("core.predict").p50_ns());
    metrics.set("engine.place_us", layers.get("engine.place").p50_us());
    metrics.set("engine.can_fit_us", layers.get("engine.can_fit").p50_us());
    metrics.set("engine.release_us", layers.get("engine.release").p50_us());
    metrics.set(
        "engine.catalog_hit_ns",
        layers.get("engine.catalog_hit").p50_ns(),
    );
    metrics.set(
        "engine.model_hit_ns",
        layers.get("engine.model_hit").p50_ns(),
    );
    metrics.set(
        "engine.snapshot_load_ns",
        layers.get("engine.snapshot_load").p50_ns(),
    );
    // Differences of medians over the same requests; each may come out
    // slightly negative when the two sides are within noise.
    let can_fit_us = layers.get("engine.can_fit").p50_us();
    metrics.set(
        "engine.commit_us",
        layers.get("engine.place").p50_us() - can_fit_us,
    );
    metrics.set(
        "engine.eval_overhead_us",
        can_fit_us - derived.probe_predict.p50_us(),
    );
    metrics.set("engine.descent_us", can_fit_us - derived.eval.p50_us());
    if derived.place_ns > 0 {
        let place = derived.place_ns as f64;
        metrics.set("sim.perf_share", derived.perf_ns as f64 / place);
        metrics.set("trace.coverage", derived.explained_ns as f64 / place);
    }
    metrics.set("trace.spans", layers.spans as f64);
    metrics.set("trace.harness_share", layers.self_share("request"));

    let per_req = |delta: u64| delta as f64 / place_requests.max(1) as f64;
    metrics.set(
        "engine.snapshot_published",
        per_req(after.snapshot.published - before.snapshot.published),
    );
    metrics.set(
        "engine.snapshot_reads",
        per_req(after.snapshot.reads - before.snapshot.reads),
    );
    metrics.set(
        "engine.stale_retries",
        per_req(after.snapshot.stale_retries - before.snapshot.stale_retries),
    );
    metrics.set(
        "engine.host_lock_acquisitions",
        per_req(after.host_lock_acquisitions - before.host_lock_acquisitions),
    );
    metrics.set(
        "engine.sketch_skips",
        per_req(after.sketch.skips - before.sketch.skips),
    );
    metrics.set(
        "engine.sketch_admits",
        per_req(after.sketch.admits - before.sketch.admits),
    );
    metrics.set(
        "engine.sketch_stale",
        per_req(after.sketch.stale - before.sketch.stale),
    );
    metrics.set(
        "engine.summary_skips",
        per_req(after.summary.skips - before.summary.skips),
    );
    metrics.set(
        "engine.summary_admits",
        per_req(after.summary.admits - before.summary.admits),
    );
    metrics.set("engine.offers", per_req(after.offers - before.offers));
    metrics.set(
        "engine.cache_computes",
        (after.total_computes() - before.total_computes()) as f64,
    );
    metrics.set(
        "engine.cache_evictions",
        (after.total_evictions() - before.total_evictions()) as f64,
    );
    let lookups = after.interference.lookups - before.interference.lookups;
    metrics.set(
        "core.interference_computes",
        (after.interference.computes - before.interference.computes) as f64,
    );
    if lookups > 0 {
        metrics.set(
            "core.interference_hit_share",
            (after.interference.hits - before.interference.hits) as f64 / lookups as f64,
        );
    }
}

/// `trace.overhead_pct`: how much slower the traced segment's median
/// operation is than the same script's untraced segment. Unset when a
/// (smoke-scale) run left either segment without samples.
pub fn set_trace_overhead(metrics: &mut Metrics, traced: &Samples, plain: &Samples) {
    if traced.len() > 0 && plain.len() > 0 {
        let pct = 100.0 * (traced.quantile(0.5) / plain.quantile(0.5) - 1.0);
        metrics.set("trace.overhead_pct", pct);
    }
}

/// The host the micro probes run on: one with both reserved and free
/// threads (the state a publish usually sees), else the first with any
/// free thread.
pub fn probe_host(engine: &PlacementEngine) -> MachineId {
    let ids = engine.machine_ids();
    let usage = |id: &MachineId| engine.utilisation(*id);
    ids.iter()
        .find(|id| matches!(usage(id), (used, total) if used > 0 && used < total))
        .or_else(|| {
            ids.iter()
                .find(|id| matches!(usage(id), (used, total) if used < total))
        })
        .copied()
        .unwrap_or(MachineId(0))
}

/// Median nanoseconds per call of `op`, timed in `batches` batches of
/// `batch` calls (a single nanosecond-scale call is below the clock's
/// resolution).
fn per_call_ns(batches: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&times)
}

/// Times the hot-path structures the engine's publish path drives —
/// `OccupancyMap` reserve/release, `CapacitySummary::publish`,
/// `AvailabilitySketch::{update, admits}`, `Slot::{store, load}` — on
/// `host`'s current occupancy, plus `SimOracle::perf` by container size
/// and one forest predict. Read-only towards the engine.
pub fn micro_probes(metrics: &mut Metrics, engine: &PlacementEngine) {
    let host = probe_host(engine);
    let machine = engine.machine(host);
    let mut occ = engine.occupancy(host);
    let free: Vec<ThreadId> = machine
        .threads()
        .iter()
        .map(|t| t.id)
        .filter(|&t| occ.is_free(t))
        .take(4)
        .collect();

    if !free.is_empty() {
        let pair_ns = per_call_ns(200, 64, || {
            occ.reserve(&free).expect("free threads");
            occ.release(&free).expect("just reserved");
        });
        metrics.set("topology.reserve_release_ns", pair_ns);
    }

    let summary = CapacitySummary::new(machine);
    metrics.set(
        "topology.summary_publish_ns",
        per_call_ns(200, 64, || summary.publish(&occ)),
    );

    let sketch = AvailabilitySketch::new(machine);
    let before = sketch.profile(&occ);
    sketch.attach(&before);
    let mut taken = occ.clone();
    if !free.is_empty() {
        taken.reserve(&free).expect("free threads");
    }
    let after = sketch.profile(&taken);
    let mut flip = false;
    let update_ns = per_call_ns(200, 64, || {
        if flip {
            sketch.update(&after, &before);
        } else {
            sketch.update(&before, &after);
        }
        flip = !flip;
    });
    metrics.set("topology.sketch_update_ns", update_ns);
    let node_cap = occ.node_capacity();
    let l2_cap = occ.l2_capacity();
    metrics.set(
        "topology.sketch_admits_ns",
        per_call_ns(200, 256, || {
            black_box(sketch.admits(black_box((node_cap, 1)), black_box((l2_cap, 1))));
        }),
    );

    let domain = Domain::new();
    let slot = Slot::new(Arc::new(occ.clone()));
    let mut fresh: Vec<Arc<_>> = (0..200 * 16).map(|_| Arc::new(occ.clone())).collect();
    metrics.set(
        "sync.slot_store_ns",
        per_call_ns(200, 16, || {
            slot.store(fresh.pop().expect("one value per store"), &domain);
        }),
    );
    metrics.set(
        "sync.slot_load_ns",
        per_call_ns(200, 64, || {
            black_box(slot.load(&domain));
        }),
    );

    // `SimOracle::perf` by container size, on the class of `host`.
    let oracle = engine.sim_oracle(host);
    let mut forest_inputs = None;
    for (vcpus, name) in [
        (4, "sim.perf_us_v4"),
        (16, "sim.perf_us_v16"),
        (32, "sim.perf_us_v32"),
    ] {
        let Ok(catalog) = engine.catalog(host, vcpus) else {
            continue;
        };
        let baseline = engine.baseline(host).min(catalog.placements.len() - 1);
        let spec = &catalog.placements[baseline].spec;
        let mut seed = 0;
        let ns = per_call_ns(15, 1, || {
            seed += 1;
            black_box(oracle.perf("WTbtree", spec, seed));
        });
        metrics.set(name, ns / 1e3);
        if vcpus == 16 {
            forest_inputs = Some(baseline);
        }
    }

    // One forest predict, on a forest fitted like `PerfPairModel`'s
    // (its own forest is private): x = probe ratio, y = the
    // per-placement vector relative to the anchor.
    if let Some(baseline) = forest_inputs {
        if let (Ok(ts), Ok(artifact)) = (
            engine.training_set(host, 16, baseline, None),
            engine.model(host, 16, baseline, None),
        ) {
            let (xs, ys) = forest_design(&ts.rel, artifact.baseline, artifact.probe);
            let cfg = engine.config();
            let forest = RandomForest::fit(&xs, &ys, &cfg.forest, cfg.train_seed);
            metrics.set(
                "ml.forest_predict_ns",
                per_call_ns(100, 16, || {
                    black_box(forest.predict(black_box(&[1.0])));
                }),
            );
        }
    }
}

/// The design matrix `PerfPairModel::fit` builds from a training set's
/// `rel[workload][seed][placement]`.
pub fn forest_design(
    rel: &[Vec<Vec<f64>>],
    anchor: usize,
    other: usize,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for rows in rel {
        for row in rows {
            xs.push(vec![row[other] / row[anchor]]);
            ys.push(row.iter().map(|v| v / row[anchor]).collect());
        }
    }
    (xs, ys)
}
