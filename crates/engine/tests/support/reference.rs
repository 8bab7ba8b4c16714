//! The decision oracle: a flat, fleet-order reimplementation of
//! admission written only against the engine's *public* API — no
//! sketches, no summaries on the decision path, no branch-and-bound, no
//! memoised penalties. Test files include it with
//! `#[path = "support/reference.rs"] mod reference;` and compare every
//! `Placed` the engine produces against [`decide`] computed on the same
//! engine state just before the placement.
//!
//! Per host, in machine-id order:
//!
//! 1. predictions — `catalog` + `model` + the two `sim_oracle().perf`
//!    probes → `predict_absolute`, goal = `goal_frac × anchor`;
//! 2. what fits — `occupancy(id)` through the catalog's
//!    `availability.available(..)`;
//! 3. which class — goal-clearing only, preferring fewest nodes, then
//!    fewest pristine nodes broken open, then highest (adjusted)
//!    prediction;
//! 4. which host — FirstFit takes the first host that yields a class,
//!    BestScore the highest adjusted prediction, ties to the lowest id.
//!
//! With `EngineConfig::interference` on, each prediction is multiplied
//! by the co-location penalty asked straight from the
//! `InterferenceOracle` with the host's real residents, unmemoised (in
//! `(0, 1]`, the penalty contract; an idle host costs nothing).

#![allow(dead_code)] // each including test file uses its own subset

use vc_core::interference::{InterferenceOracle, ResidentWorkload};
use vc_core::model::PerfOracle;
use vc_engine::{BatchStrategy, MachineId, Placed, PlacementEngine, PlacementRequest};
use vc_topology::{L2GroupId, NodeId, OccupancyMap, ThreadId};

/// What the reference says a request should get.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    pub machine: MachineId,
    pub placement_id: usize,
    pub nodes: Vec<NodeId>,
    pub threads: Vec<ThreadId>,
    pub predicted_perf: f64,
    pub interference_penalty: f64,
}

/// `(per-class predictions indexed by id − 1, absolute goal)` for the
/// request on one host, or `None` when the host cannot evaluate it.
fn predict(engine: &PlacementEngine, id: MachineId, req: &PlacementRequest) -> Option<(Vec<f64>, f64)> {
    let oracle = engine.sim_oracle(id);
    if req.vcpus == 0 || !oracle.workloads().iter().any(|w| w.name == req.workload) {
        return None;
    }
    let catalog = engine.catalog(id, req.vcpus).ok()?;
    let baseline = engine.baseline(id).min(catalog.placements.len() - 1);
    let artifact = engine.model(id, req.vcpus, baseline, None).ok()?;
    let anchor_spec = &catalog.placements[artifact.baseline].spec;
    let probe_spec = &catalog.placements[artifact.probe].spec;
    let anchor = oracle.perf(&req.workload, anchor_spec, req.probe_seed);
    let other = oracle.perf(&req.workload, probe_spec, req.probe_seed.wrapping_add(1));
    Some((artifact.model.predict_absolute(anchor, other), req.goal_frac * anchor))
}

/// The placement the request would take on one host right now.
fn on_host(engine: &PlacementEngine, id: MachineId, req: &PlacementRequest) -> Option<Decision> {
    let residents: Vec<ResidentWorkload> = engine
        .residents(id)
        .iter()
        .map(|r| ResidentWorkload {
            workload: r.request.workload.clone(),
            threads: r.threads.clone(),
        })
        .collect();
    on_record(engine, id, req, &engine.occupancy(id), &residents)
}

/// The placement the request would take on host `id` were its record
/// `occ` with `residents` running.
pub fn on_record(
    engine: &PlacementEngine,
    id: MachineId,
    req: &PlacementRequest,
    occ: &OccupancyMap,
    residents: &[ResidentWorkload],
) -> Option<Decision> {
    let (predicted, goal) = predict(engine, id, req)?;
    if !predicted.iter().any(|&p| p >= goal) {
        return None;
    }
    let catalog = engine.catalog(id, req.vcpus).ok()?;
    let mut best: Option<((usize, usize), Decision)> = None;
    for ap in catalog.availability.available(engine.machine(id), occ) {
        let idle = predicted[ap.id - 1];
        if idle < goal {
            continue;
        }
        let penalty = if engine.config().interference {
            engine
                .sim_oracle(id)
                .co_location_penalty(&req.workload, &ap.threads, occ, residents)
        } else {
            1.0
        };
        let perf = idle * penalty;
        if perf < goal {
            continue;
        }
        let rank = (ap.spec.num_nodes(), ap.pristine_consumed);
        let better = best.as_ref().is_none_or(|(cur_rank, cur)| {
            rank < *cur_rank || (rank == *cur_rank && perf > cur.predicted_perf)
        });
        if better {
            let decision = Decision {
                machine: id,
                placement_id: ap.id,
                nodes: ap.spec.nodes.clone(),
                threads: ap.threads.clone(),
                predicted_perf: perf,
                interference_penalty: penalty,
            };
            best = Some((rank, decision));
        }
    }
    best.map(|(_, decision)| decision)
}

/// The reference's answer for `req` on the engine's current state.
pub fn decide(engine: &PlacementEngine, req: &PlacementRequest, strategy: BatchStrategy) -> Option<Decision> {
    let mut offers = engine
        .machine_ids()
        .into_iter()
        .filter_map(|id| on_host(engine, id, req));
    match strategy {
        BatchStrategy::FirstFit => offers.next(),
        BatchStrategy::BestScore => offers.fold(None, |best: Option<Decision>, offer| match best {
            Some(b) if b.predicted_perf >= offer.predicted_perf => Some(b),
            _ => Some(offer),
        }),
    }
}

/// Asserts the engine's outcome equals the reference's, field for field.
pub fn assert_matches(got: Option<&Placed>, want: Option<&Decision>, ctx: &str) {
    match (got, want) {
        (Some(p), Some(d)) => {
            assert_eq!(p.machine, d.machine, "{ctx}: machine diverged");
            assert_eq!(p.placement_id, d.placement_id, "{ctx}: class diverged");
            assert_eq!(p.spec.nodes, d.nodes, "{ctx}: node set diverged");
            assert_eq!(p.threads, d.threads, "{ctx}: threads diverged");
            assert_eq!(p.predicted_perf, d.predicted_perf, "{ctx}: prediction diverged");
            assert_eq!(
                p.interference_penalty, d.interference_penalty,
                "{ctx}: penalty diverged"
            );
        }
        (None, None) => {}
        (got, want) => panic!(
            "{ctx}: engine and reference disagree on feasibility (engine: {}, reference: {})",
            got.is_some(),
            want.is_some()
        ),
    }
}

/// Places one request on the engine and checks the decision against the
/// reference computed on the state just before it.
pub fn place_checked(
    engine: &PlacementEngine,
    req: &PlacementRequest,
    strategy: BatchStrategy,
    ctx: &str,
) -> Option<Placed> {
    let want = decide(engine, req, strategy);
    let got = engine
        .place_batch(std::slice::from_ref(req), strategy)
        .pop()
        .expect("one decision per request");
    assert_matches(got.placed(), want.as_ref(), ctx);
    got.placed().cloned()
}

/// How many hosts a full scan of the occupancy maps says could take
/// the request — some goal-clearing class shape has enough nodes and
/// enough L2 groups with room, counted unit by unit: the count `can_fit`
/// must report however many shards its sketch descent skips.
pub fn full_scan_fit_count(engine: &PlacementEngine, req: &PlacementRequest) -> usize {
    engine
        .machine_ids()
        .into_iter()
        .filter(|&id| {
            let Some((predicted, goal)) = predict(engine, id, req) else {
                return false;
            };
            let catalog = engine.catalog(id, req.vcpus).expect("predicted above");
            let occ = engine.occupancy(id);
            let nodes_with = |k| {
                (0..occ.num_nodes())
                    .filter(|&n| occ.free_on_node(NodeId(n)) >= k)
                    .count()
            };
            let l2s_with = |k| {
                (0..occ.num_l2_groups())
                    .filter(|&g| occ.free_in_l2(L2GroupId(g)) >= k)
                    .count()
            };
            catalog
                .availability
                .requirements()
                .iter()
                .zip(&catalog.placements)
                .any(|(shape, ip)| {
                    predicted[ip.id - 1] >= goal
                        && nodes_with(shape.per_node) >= shape.num_nodes
                        && l2s_with(shape.per_l2) >= shape.num_l2
                })
        })
        .count()
}
