//! Interference-aware co-location scoring, end to end:
//!
//! * `interference: false` (the default) is bit-for-bit the
//!   neighbour-blind engine — same decisions as an independent
//!   per-machine reference, zero interference-model activity;
//! * with no co-residency, `interference: true` changes nothing;
//! * with co-residency, interference flips a BestScore decision onto an
//!   idle host — and the simulator confirms the flipped decision is
//!   strictly faster;
//! * warm-path interference lookups are answered from the cache
//!   (counter-verified: no new co-location simulations), and no
//!   simulator call ever runs under a host lock (scoring runs against
//!   occupancy snapshots taken outside it).

use vc_engine::{
    BatchStrategy, EngineConfig, MachineId, Placed, PlacementEngine, PlacementRequest,
};
use vc_ml::forest::ForestConfig;
use vc_sim::{simulate_co_location, ContainerRun, SimConfig};
use vc_topology::machines;

fn fast_config() -> EngineConfig {
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

fn engine_with(interference: bool) -> PlacementEngine {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference,
        ..fast_config()
    });
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    engine
}

fn stream(n: usize) -> Vec<PlacementRequest> {
    (0..n)
        .map(|i| {
            let wl = ["WTbtree", "swaptions", "streamcluster"][i % 3];
            let goal = [0.0, 0.9][(i / 3) % 2];
            PlacementRequest::new(wl, 16)
                .with_goal(goal)
                .with_probe_seed(i as u64)
        })
        .collect()
}

fn assert_same_placed(a: &Placed, b: &Placed, ctx: &str) {
    assert_eq!(a.machine, b.machine, "{ctx}: machine diverged");
    assert_eq!(a.placement_id, b.placement_id, "{ctx}: class diverged");
    assert_eq!(a.spec.nodes, b.spec.nodes, "{ctx}: node set diverged");
    assert_eq!(a.threads, b.threads, "{ctx}: threads diverged");
    assert_eq!(a.predicted_perf, b.predicted_perf, "{ctx}: prediction diverged");
    assert_eq!(a.goal_perf, b.goal_perf, "{ctx}: goal diverged");
    assert_eq!(a.goal_met, b.goal_met, "{ctx}: goal_met diverged");
}

/// The equivalence proof for the off switch: a default-config engine
/// and an explicit `interference: false` engine commit bit-identical
/// decisions on a co-residency-heavy stream (containers accumulate, so
/// occupancy-conditional scoring *would* bite if it were consulted),
/// and the interference machinery is never touched.
#[test]
fn interference_off_is_bit_for_bit_neighbour_blind() {
    let default_engine = engine_with(false);
    let mut unspecified = PlacementEngine::new(fast_config()); // field defaulted
    unspecified.add_machine(machines::amd_opteron_6272());
    unspecified.add_machine(machines::amd_opteron_6272());
    assert!(!unspecified.config().interference, "off must be the default");

    let reqs = stream(12);
    // Sequential placement with no releases: later requests commit into
    // heavily occupied hosts.
    for (i, req) in reqs.iter().enumerate() {
        let a = default_engine.place_batch(std::slice::from_ref(req), BatchStrategy::BestScore);
        let b = unspecified.place_batch(std::slice::from_ref(req), BatchStrategy::BestScore);
        match (a[0].placed(), b[0].placed()) {
            (Some(x), Some(y)) => {
                assert_same_placed(x, y, &format!("request {i}"));
                assert_eq!(x.interference_penalty, 1.0, "off-mode penalty must be 1");
            }
            (None, None) => {}
            _ => panic!("request {i}: engines disagree on feasibility"),
        }
    }
    for engine in [&default_engine, &unspecified] {
        let c = engine.stats().interference;
        assert_eq!(
            (c.lookups, c.hits, c.computes),
            (0, 0, 0),
            "interference machinery consulted with the knob off"
        );
    }
}

/// With no co-residency (every container released before the next
/// arrives), the interference-aware engine decides exactly like the
/// neighbour-blind one — penalties short-circuit to 1.0 on idle hosts,
/// without a single co-location simulation.
#[test]
fn interference_on_empty_hosts_changes_nothing() {
    let off = engine_with(false);
    let on = engine_with(true);
    for (i, req) in stream(8).iter().enumerate() {
        let d_off = off.place(req);
        let d_on = on.place(req);
        match (d_off.placed(), d_on.placed()) {
            (Some(x), Some(y)) => {
                assert_same_placed(x, y, &format!("request {i}"));
                assert_eq!(y.interference_penalty, 1.0);
                off.release(x).unwrap();
                on.release(y).unwrap();
            }
            (None, None) => {}
            _ => panic!("request {i}: engines disagree on feasibility"),
        }
    }
    let c = on.stats().interference;
    assert!(c.lookups > 0, "on-mode commits must consult the model");
    assert_eq!(c.computes, 0, "idle hosts must never cost a simulation");
    assert_eq!(c.hits, c.lookups);
}

/// The co-location demo of the acceptance criteria. Fleet: two Intel
/// boxes. Machine 0 carries three 12-vCPU residents (two fill node
/// N0, one half-fills node N1); machine 1 is idle. A fourth 12-vCPU
/// container under BestScore:
///
/// * neighbour-blind, both machines offer the same 1-node class at the
///   same idle-host prediction — the tie breaks to machine 0, stacking
///   the candidate next to the resident on N1;
/// * interference-aware, machine 0's offer is discounted by the
///   co-location penalty and the candidate goes to idle machine 1.
///
/// The simulator then confirms the flip is *strictly better*: the
/// candidate runs faster on machine 1 than it would have co-located on
/// machine 0, simulated against the same real resident workloads the
/// penalty scored.
#[test]
fn interference_steers_best_score_away_from_busy_hosts() {
    let build = |interference: bool| {
        let mut engine = PlacementEngine::new(EngineConfig {
            interference,
            ..fast_config()
        });
        engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        engine
    };
    let resident_req = |i: u64| PlacementRequest::new("streamcluster", 12).with_probe_seed(i);
    let candidate_req = PlacementRequest::new("streamcluster", 12).with_probe_seed(99);

    let residents_for = |engine: &PlacementEngine| -> Vec<Placed> {
        (0..3)
            .map(|i| {
                let d = engine.place_batch(
                    std::slice::from_ref(&resident_req(i)),
                    BatchStrategy::FirstFit,
                );
                let p = d[0].placed().expect("machine 0 has room").clone();
                assert_eq!(p.machine, MachineId(0), "residents must stack first-fit");
                p
            })
            .collect()
    };

    let off = build(false);
    let off_residents = residents_for(&off);
    let off_decision = off.place_batch(
        std::slice::from_ref(&candidate_req),
        BatchStrategy::BestScore,
    );
    let off_placed = off_decision[0].placed().expect("node N1 has room").clone();
    assert_eq!(
        off_placed.machine,
        MachineId(0),
        "neighbour-blind BestScore ties break onto the busy host"
    );

    let on = build(true);
    let on_residents = residents_for(&on);
    let on_decision = on.place_batch(
        std::slice::from_ref(&candidate_req),
        BatchStrategy::BestScore,
    );
    let on_placed = on_decision[0].placed().expect("machine 1 is idle").clone();
    assert_eq!(
        on_placed.machine,
        MachineId(1),
        "interference-aware BestScore must prefer the idle host"
    );
    assert!(
        on_placed.interference_penalty == 1.0,
        "the idle host carries no penalty"
    );

    // Decision changed; now let the simulator judge both options with
    // the *real* resident workloads.
    let intel = machines::intel_xeon_e7_4830_v3();
    let oracle = off.sim_oracle(MachineId(0));
    let workload_of = |name: &str| {
        oracle
            .workloads()
            .iter()
            .find(|w| w.name == name)
            .expect("suite workload")
    };
    let resident_runs: Vec<ContainerRun> = off_residents
        .iter()
        .map(|p| ContainerRun {
            workload: workload_of("streamcluster"),
            assignment: &p.threads,
        })
        .collect();
    let probe = SimConfig::interference_probe();
    // Option A (neighbour-blind choice): co-located on machine 0.
    let co = simulate_co_location(
        &intel,
        &ContainerRun {
            workload: workload_of("streamcluster"),
            assignment: &off_placed.threads,
        },
        &resident_runs,
        &probe,
        0,
    );
    // Option B (interference-aware choice): alone on idle machine 1.
    let alone = simulate_co_location(
        &intel,
        &ContainerRun {
            workload: workload_of("streamcluster"),
            assignment: &on_placed.threads,
        },
        &[],
        &probe,
        0,
    );
    assert!(
        alone.candidate.inst_per_sec > co.candidate.inst_per_sec,
        "the interference-aware decision must be strictly better: \
         alone {} vs co-located {}",
        alone.candidate.inst_per_sec,
        co.candidate.inst_per_sec
    );
    // Keep the borrows honest: residents stay alive through the check.
    drop(on_residents);
}

/// Racing batches against an interference-aware engine: commits score
/// against occupancy snapshots and re-score when a concurrent commit
/// wins the reserve race — capacity must end exactly committed (no
/// over-commit, and no spurious rejection of a host that still has
/// room just because a neighbour raced first).
#[test]
fn racing_interference_batches_never_overcommit_or_bounce() {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        ..fast_config()
    });
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    let engine = std::sync::Arc::new(engine);
    // Warm the model caches so the race is over commitment.
    let warm = engine.place(&PlacementRequest::new("WTbtree", 16));
    engine.release(warm.placed().expect("fits")).unwrap();

    let placed_total: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let engine = std::sync::Arc::clone(&engine);
                s.spawn(move || {
                    let reqs: Vec<PlacementRequest> = (0..2)
                        .map(|i| {
                            PlacementRequest::new("WTbtree", 16).with_probe_seed(t * 10 + i)
                        })
                        .collect();
                    engine
                        .place_batch(&reqs, BatchStrategy::FirstFit)
                        .iter()
                        .filter(|d| d.placed().is_some())
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // 16 racing 16-vCPU requests against 128 threads: exactly 8 fit —
    // a lost reserve race must re-score the host, not reject.
    assert_eq!(placed_total, 8, "over- or under-commitment under races");
    for id in engine.machine_ids() {
        let (used, total) = engine.utilisation(id);
        assert_eq!(used, total, "both hosts must end exactly full");
    }
}

/// Warm-path cache behaviour: repeating the same placement against the
/// same occupancy signature answers every interference lookup from the
/// cache — the co-location simulator runs only on the first (cold)
/// commit, and never under a host lock (scoring runs on snapshots; a
/// deadlock-free run of this test with computes > 0 exercises exactly
/// that path).
#[test]
fn warm_interference_lookups_hit_the_cache() {
    let engine = PlacementEngine::single(
        machines::amd_opteron_6272(),
        EngineConfig {
            interference: true,
            ..fast_config()
        },
    );
    // A long-lived half-node resident pins the occupancy signature; the
    // pristine-averse retargeter will stack the candidate onto the same
    // node, so the two share an L3 and a memory controller.
    let resident = engine
        .place(&PlacementRequest::new("streamcluster", 4))
        .placed()
        .expect("empty machine")
        .clone();

    let req = PlacementRequest::new("WTbtree", 4).with_probe_seed(7);
    let first = engine.place(&req).placed().expect("room").clone();
    let cold = engine.stats().interference;
    assert!(
        cold.computes > 0,
        "committing next to a resident must measure interference"
    );
    assert!(
        first.interference_penalty < 1.0,
        "sharing hardware with a streaming resident must cost something"
    );

    // Same request against the same signature, repeatedly: zero new
    // simulations.
    engine.release(&first).unwrap();
    for _ in 0..3 {
        let again = engine.place(&req).placed().expect("room").clone();
        assert_eq!(again.interference_penalty, first.interference_penalty);
        engine.release(&again).unwrap();
    }
    let warm = engine.stats().interference;
    assert_eq!(
        warm.computes, cold.computes,
        "warm-path lookups must not re-simulate"
    );
    assert!(warm.hits > cold.hits, "repeats must be cache hits");
    engine.release(&resident).unwrap();
}
