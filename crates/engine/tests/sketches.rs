//! Hierarchical-sketch guarantees: every shard's availability sketch
//! equals the ground truth recomputed from its members' occupancy maps
//! after every churn and rebalance event, the sketch descent commits
//! bit-for-bit the decisions of a flat fleet-order scan (the
//! public-API reference in `support/`), and
//! `can_fit` counts exactly the full-scan hosts while charging skipped
//! shards to [`FitProbe::sketch_skipped`](vc_engine::FitProbe).

#[path = "support/config.rs"]
mod config;
#[path = "support/reference.rs"]
mod reference;

use config::fast_config;

use proptest::prelude::*;
use std::sync::OnceLock;
use vc_engine::{
    BatchStrategy, EngineConfig, Placed, PlacementEngine, PlacementRequest, RebalancePolicy,
};
use vc_topology::{machines, L2GroupId, Machine, NodeId};

/// 2-host shards, so small test fleets still exercise the multi-shard
/// merge, shard skipping and remainder shards.
fn sketch_config() -> EngineConfig {
    EngineConfig {
        sketch_shard: 2,
        ..fast_config()
    }
}

/// The sketch table axes of one machine model, derived exactly as the
/// sketch derives them: per-node / per-L2 thread capacities from the
/// thread list (max over units on uneven topologies).
fn table_dims(machine: &Machine) -> (usize, usize, usize, usize) {
    let mut cap_per_node = vec![0usize; machine.num_nodes()];
    let mut cap_per_l2 = vec![0usize; machine.num_l2_groups()];
    for t in machine.threads() {
        cap_per_node[t.node.index()] += 1;
        cap_per_l2[t.l2_group.index()] += 1;
    }
    (
        machine.num_nodes(),
        cap_per_node.iter().copied().max().unwrap_or(0),
        machine.num_l2_groups(),
        cap_per_l2.iter().copied().max().unwrap_or(0),
    )
}

/// Asserts every shard sketch of every class equals the ground truth
/// recomputed from the members' occupancy maps, unit by unit — entry
/// by entry over both tables. Valid at quiescence (no commit in
/// flight), exactly like `audit()`'s summary-vs-occupancy check.
fn assert_sketches_match_occupancy(engine: &PlacementEngine, models: &[Machine]) {
    let shard = engine.sketch_shard_size();
    for (class, model) in models.iter().enumerate() {
        let members = engine.fleet_index().classes()[class].members();
        let sketches = engine.class_sketches(class);
        assert_eq!(
            sketches.len(),
            members.len().div_ceil(shard),
            "class {class}: one sketch per {shard}-host shard"
        );
        let (num_nodes, cap_node, num_l2, cap_l2) = table_dims(model);
        for (s, chunk) in members.chunks(shard).enumerate() {
            let sketch = &sketches[s];
            assert_eq!(sketch.num_hosts(), chunk.len(), "class {class} shard {s}");
            let occs: Vec<_> = chunk.iter().map(|&id| engine.occupancy(id)).collect();
            for k in 0..=cap_node {
                for n in 1..=num_nodes {
                    let truth = occs
                        .iter()
                        .filter(|occ| {
                            (0..num_nodes)
                                .filter(|&u| occ.free_on_node(NodeId(u)) >= k)
                                .count()
                                >= n
                        })
                        .count();
                    assert_eq!(
                        sketch.hosts_with_nodes(k, n),
                        truth,
                        "class {class} shard {s}: N[{k}][{n}] diverged from occupancy"
                    );
                }
            }
            for k in 0..=cap_l2 {
                for g in 1..=num_l2 {
                    let truth = occs
                        .iter()
                        .filter(|occ| {
                            (0..num_l2)
                                .filter(|&u| occ.free_in_l2(L2GroupId(u)) >= k)
                                .count()
                                >= g
                        })
                        .count();
                    assert_eq!(
                        sketch.hosts_with_l2s(k, g),
                        truth,
                        "class {class} shard {s}: L[{k}][{g}] diverged from occupancy"
                    );
                }
            }
        }
    }
}

/// The two fleet models used throughout, class order (amd hosts are
/// always added first, so class 0 is amd, class 1 intel).
fn fleet_models() -> Vec<Machine> {
    vec![machines::amd_opteron_6272(), machines::intel_xeon_e7_4830_v3()]
}

/// One engine for the churn proptest (cases share it and release
/// everything they place): 5 amd + 3 intel hosts in 2-host shards, so
/// both classes have full shards *and* a remainder shard.
fn churn_engine() -> &'static PlacementEngine {
    static ENGINE: OnceLock<PlacementEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut engine = PlacementEngine::new(sketch_config());
        for _ in 0..5 {
            engine.add_machine(machines::amd_opteron_6272());
        }
        for _ in 0..3 {
            engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        }
        engine
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After any interleaving of placements and releases, every shard
    /// sketch equals the counts recomputed from its members' occupancy
    /// maps: commits and releases publish the sketch delta before
    /// dropping the host lock, so quiescent state never drifts.
    #[test]
    fn sketches_track_summaries_through_churn(
        ops in proptest::collection::vec((0u8..4, 0u64..1000), 4..16),
    ) {
        let engine = churn_engine();
        let models = fleet_models();
        let mut live: Vec<Placed> = Vec::new();
        for (op, seed) in ops {
            if op == 0 && !live.is_empty() {
                let victim = live.remove(seed as usize % live.len());
                engine.release(&victim).unwrap();
            } else {
                let vcpus = [8, 16, 24][(seed % 3) as usize];
                let req = PlacementRequest::new("WTbtree", vcpus).with_probe_seed(seed);
                if let Some(p) = engine.place(&req).placed() {
                    live.push(p.clone());
                }
            }
            assert_sketches_match_occupancy(engine, &models);
        }
        for p in live.drain(..) {
            engine.release(&p).unwrap();
        }
        assert_sketches_match_occupancy(engine, &models);
    }
}

/// Rebalance migrations retarget residents across hosts — source and
/// destination publications both carry sketch deltas, so the tables
/// track ground truth through every pass of a draining rebalance loop.
#[test]
fn sketches_track_summaries_through_rebalance_moves() {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        degradation_budget: Some(0.005),
        ..sketch_config()
    });
    for _ in 0..3 {
        engine.add_machine(machines::amd_opteron_6272());
    }
    let models = vec![machines::amd_opteron_6272()];

    // Crowd the fleet so colocation penalties push someone over the
    // degradation budget and the rebalancer has moves to make.
    let reqs: Vec<PlacementRequest> = (0..10)
        .map(|i| {
            PlacementRequest::new(["WTbtree", "streamcluster"][i % 2], 16)
                .with_probe_seed(i as u64)
        })
        .collect();
    let decisions = engine.place_batch(&reqs, BatchStrategy::FirstFit);
    let placed: Vec<Placed> = decisions.iter().filter_map(|d| d.placed().cloned()).collect();
    assert!(!placed.is_empty(), "the crowded fleet must admit something");
    assert_sketches_match_occupancy(&engine, &models);

    // Rebalance until a pass stops moving (or a bounded number of
    // passes); the sketch must match ground truth after every pass.
    let policy = RebalancePolicy::default();
    let mut moves = 0;
    for _ in 0..4 {
        let report = engine.rebalance(&policy);
        moves += report.migrations.len();
        assert_sketches_match_occupancy(&engine, &models);
        if report.migrations.is_empty() {
            break;
        }
    }
    let _ = moves; // moves are plan-dependent; the invariant is what matters

    // Movers re-home tickets: release through the engine's forwarding
    // and re-check one last time from the empty fleet.
    for p in &placed {
        engine.release(p).unwrap();
    }
    assert_sketches_match_occupancy(&engine, &models);
    for id in engine.machine_ids() {
        assert_eq!(engine.utilisation(id).0, 0, "fleet must drain fully");
    }
}

/// The descent (in deliberately tiny 2-host shards) commits exactly the
/// reference scan's decisions — machine, placement class, node set,
/// threads, prediction — over a churned stream on both strategies,
/// while the counters show it actually skipped and admitted shards.
#[test]
fn sketch_descent_is_decision_equivalent_to_the_flat_scan() {
    let mut engine = PlacementEngine::new(sketch_config());
    for _ in 0..4 {
        engine.add_machine(machines::amd_opteron_6272());
    }
    engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);

    let reqs: Vec<PlacementRequest> = (0..24)
        .map(|i| {
            let wl = ["WTbtree", "swaptions", "streamcluster"][i % 3];
            let goal = [0.0, 0.9][(i / 3) % 2];
            PlacementRequest::new(wl, [8, 16, 32][i % 3])
                .with_goal(goal)
                .with_probe_seed(i as u64)
        })
        .collect();

    let mut live: Vec<Placed> = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let strat = if i % 2 == 0 { BatchStrategy::FirstFit } else { BatchStrategy::BestScore };
        live.extend(reference::place_checked(&engine, req, strat, &format!("request {i}")));
        // Churn holes into the fleet so later requests see fragmented
        // occupancy.
        if i % 5 == 4 && live.len() >= 2 {
            engine.release(&live.remove(0)).unwrap();
        }
    }
    assert!(!live.is_empty(), "the stream must place something");

    // The descent really ran: shards were admitted, and once the fleet
    // saturated, whole shards were jumped without reading summaries.
    let stats = engine.stats();
    assert!(stats.sketch.admits > 0, "descent must admit shards");
    assert!(stats.sketch.skips > 0, "a saturated fleet must skip whole shards");

    for p in live.drain(..) {
        engine.release(&p).unwrap();
    }
}

/// `can_fit` regression: the sketch-counted probe reports *exactly* the
/// count a full scan of the occupancy maps gives (the reference's
/// answer) in every fleet state, only charging provably-hopeless shards
/// to `sketch_skipped` instead of scanning them.
#[test]
fn can_fit_counts_match_the_full_summary_scan() {
    let mut engine = PlacementEngine::new(sketch_config());
    for _ in 0..4 {
        engine.add_machine(machines::amd_opteron_6272());
    }
    let probe_req = PlacementRequest::new("swaptions", 16);
    let full_scan = || reference::full_scan_fit_count(&engine, &probe_req);

    // Idle fleet: every host admits; nothing is skipped.
    let probe = engine.can_fit(&probe_req);
    assert_eq!(probe.hosts, full_scan(), "idle-fleet counts diverged");
    assert_eq!(probe.hosts, 4, "all four idle hosts admit a 16-vCPU shape");
    assert_eq!(probe.goal_clearing_classes, 1);
    assert_eq!(probe.sketch_skipped, 0, "idle shards are never skipped");

    // Saturate one host at a time, comparing the probe at every
    // intermediate occupancy.
    let mut live = Vec::new();
    for s in 0..16u64 {
        let req = PlacementRequest::new("swaptions", 16).with_probe_seed(s);
        live.push(engine.place(&req).placed().expect("256 threads hold 16 × 16 vCPUs").clone());
        assert_eq!(
            engine.can_fit(&probe_req).hosts,
            full_scan(),
            "counts diverged after {} commits",
            s + 1
        );
    }

    // Full fleet: zero hosts both ways, and the sketch proved all four
    // hosts (two full shards) hopeless without reading a summary.
    let probe = engine.can_fit(&probe_req);
    assert_eq!((probe.hosts, full_scan()), (0, 0));
    assert_eq!(probe.sketch_skipped, 4, "both full shards skipped whole");

    // Drain one host: its shard reappears in the probe immediately.
    engine.release(&live.pop().expect("placed sixteen")).unwrap();
    let probe = engine.can_fit(&probe_req);
    assert_eq!(probe.hosts, full_scan());
    assert!(probe.hosts >= 1, "the drained host must admit again");
    assert!(probe.sketch_skipped < 4, "its shard is no longer skipped");

    for p in &live {
        engine.release(p).unwrap();
    }
}

/// Counter sanity on a sharded fleet: admits accrue while placing,
/// skips only once shards saturate, and a stale admission (counted,
/// never wrong) can only happen on an admitted shard.
#[test]
fn sketch_counters_account_for_the_descent() {
    let mut engine = PlacementEngine::new(sketch_config());
    for _ in 0..4 {
        engine.add_machine(machines::amd_opteron_6272());
    }

    let mut placed = Vec::new();
    for s in 0..16u64 {
        let req = PlacementRequest::new("swaptions", 16).with_probe_seed(s);
        placed.push(engine.place(&req).placed().expect("fleet has room").clone());
    }
    let filled = engine.stats();
    assert!(filled.sketch.admits > 0, "placements descend through admitted shards");

    // Overflow on the saturated fleet: both shards are jumped in O(1).
    assert!(engine.place(&PlacementRequest::new("swaptions", 16).with_probe_seed(99)).placed().is_none());
    let over = engine.stats();
    assert_eq!(
        over.sketch.skips - filled.sketch.skips,
        4,
        "the overflow must jump all four full hosts shard-wide"
    );
    assert_eq!(over.summary.skips, filled.summary.skips, "skipped shards read no summaries");
    assert!(
        over.sketch.stale <= over.sketch.admits,
        "a stale walk presupposes an admitted shard"
    );

    for p in &placed {
        engine.release(p).unwrap();
    }
    assert_sketches_match_occupancy(&engine, &[machines::amd_opteron_6272()]);
}
