//! Cache-layer guarantees: cached answers are identical to uncached
//! ones, and concurrent serving never deadlocks or double-computes.

#[path = "support/config.rs"]
mod config;

use config::fast_config;

use std::sync::Arc;

use proptest::prelude::*;
use vc_core::concern::ConcernSet;
use vc_core::important::important_placements;
use vc_engine::{BatchStrategy, MachineId, PlacementEngine, PlacementRequest};
use vc_topology::{machines, CacheConfig, Machine, MachineBuilder};

/// A small random machine, mirroring the root property tests.
fn arb_machine() -> impl Strategy<Value = Machine> {
    (
        2usize..=4,
        1usize..=2,
        1usize..=4,
        1usize..=2,
        1usize..=2,
        1u64..1000,
    )
        .prop_map(|(pkgs, npp, l2s, cores, smt, bw_seed)| {
            let bw = 1.0 + (bw_seed as f64) / 100.0;
            MachineBuilder::new("prop")
                .packages(pkgs)
                .nodes_per_package(npp)
                .l3_groups_per_node(1)
                .l2_groups_per_l3(l2s)
                .cores_per_l2(cores)
                .threads_per_core(smt)
                .caches(CacheConfig {
                    l2_size_mib: 1.0,
                    l3_size_mib: 8.0,
                })
                .full_mesh(bw)
                .build()
                .expect("constrained builder always yields a valid machine")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_catalog_equals_direct_enumeration(machine in arb_machine(), vcpus in 1usize..=16) {
        let engine = PlacementEngine::single(machine.clone(), fast_config());
        let concerns = ConcernSet::for_machine(&machine);
        let direct = important_placements(&machine, &concerns, vcpus);
        // Ask twice: the second answer must come from cache and still
        // match the direct computation exactly.
        for _ in 0..2 {
            match (engine.catalog(MachineId(0), vcpus), &direct) {
                (Ok(catalog), Ok(ips)) => {
                    prop_assert_eq!(catalog.placements.len(), ips.len());
                    for (a, b) in catalog.placements.iter().zip(ips) {
                        prop_assert_eq!(a.id, b.id);
                        prop_assert_eq!(&a.spec, &b.spec);
                        prop_assert_eq!(&a.scores, &b.scores);
                    }
                }
                (Err(e), Err(direct_e)) => prop_assert_eq!(&e, direct_e),
                (cached, _) => {
                    return Err(TestCaseError::Fail(format!(
                        "cache and direct disagree on feasibility: cached ok={} direct ok={}",
                        cached.is_ok(), direct.is_ok()
                    )));
                }
            }
        }
        prop_assert_eq!(engine.stats().catalogs.computes, 1);
    }
}

/// Warm model answers must be bit-identical to a fresh engine's cold
/// answers: caching changes cost, never results.
#[test]
fn cached_model_predictions_match_fresh_engine() {
    let warm = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let warm_artifact = warm.model(MachineId(0), 16, 0, None).unwrap();
    // Prime, then re-fetch from cache.
    let cached = warm.model(MachineId(0), 16, 0, None).unwrap();
    assert!(Arc::ptr_eq(&warm_artifact, &cached), "second fetch must be the cached Arc");

    let fresh = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let fresh_artifact = fresh.model(MachineId(0), 16, 0, None).unwrap();
    assert_eq!(warm_artifact.probe, fresh_artifact.probe);
    assert_eq!(warm_artifact.baseline, fresh_artifact.baseline);
    for ratio in [0.5, 0.8, 1.0, 1.3, 2.5] {
        assert_eq!(
            warm_artifact.model.predict_rel_to_anchor(ratio),
            fresh_artifact.model.predict_rel_to_anchor(ratio),
            "cached and uncached predictions diverge at ratio {ratio}"
        );
    }
}

/// Many threads hammering the same cold engine: placements succeed, no
/// deadlock (the test would hang), and each cache key is computed
/// exactly once even under contention.
#[test]
fn concurrent_place_batch_never_deadlocks_or_double_computes() {
    let mut engine = PlacementEngine::new(fast_config());
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    let engine = Arc::new(engine);

    let n_threads = 8;
    std::thread::scope(|s| {
        for t in 0..n_threads {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                let reqs: Vec<PlacementRequest> = (0..4)
                    .map(|i| {
                        PlacementRequest::new("WTbtree", 16).with_probe_seed(t * 100 + i)
                    })
                    .collect();
                let decisions = engine.place_batch(&reqs, BatchStrategy::FirstFit);
                assert_eq!(decisions.len(), 4);
                for d in &decisions {
                    if let Some(p) = d.placed() {
                        engine.release(p).unwrap();
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    // Both fleet machines share one fingerprint, and every request asks
    // for the same (vcpus, baseline, family=None): exactly one catalog,
    // one training sweep and one model across all 8 threads.
    assert_eq!(stats.catalogs.computes, 1, "catalog double-computed");
    assert_eq!(stats.training_sets.computes, 1, "training sweep double-computed");
    assert_eq!(stats.models.computes, 1, "model double-computed");
    assert!(stats.models.lookups >= n_threads);
}

/// Racing placements from many threads must never over-commit a
/// machine: the 64-thread box holds at most four 16-vCPU containers no
/// matter how the commits interleave.
#[test]
fn concurrent_placements_never_overcommit_capacity() {
    let engine = Arc::new(PlacementEngine::single(
        machines::amd_opteron_6272(),
        fast_config(),
    ));
    // Warm the caches so the racing threads contend on commitment, not
    // on training.
    let warm = engine.place(&PlacementRequest::new("WTbtree", 16));
    engine.release(warm.placed().expect("fits")).unwrap();

    let placed_total = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    let d = engine.place(
                        &PlacementRequest::new("WTbtree", 16).with_probe_seed(t),
                    );
                    usize::from(d.placed().is_some())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<usize>()
    });
    let (used, total) = engine.utilisation(MachineId(0));
    assert!(used <= total, "over-committed: {used}/{total}");
    assert_eq!(used, placed_total * 16);
    assert_eq!(placed_total, 4, "exactly four 16-vCPU containers fit on 64 threads");
}

/// Concurrent *distinct* keys also resolve exactly once each.
#[test]
fn concurrent_distinct_vcpu_catalogs_compute_once_each() {
    let engine = Arc::new(PlacementEngine::single(
        machines::amd_opteron_6272(),
        fast_config(),
    ));
    let sizes = [2usize, 4, 8, 16, 32];
    std::thread::scope(|s| {
        for _ in 0..6 {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                for &v in &sizes {
                    let catalog = engine.catalog(MachineId(0), v).unwrap();
                    assert!(!catalog.placements.is_empty());
                }
            });
        }
    });
    assert_eq!(engine.stats().catalogs.computes, sizes.len() as u64);
}

/// The batch path and the one-at-a-time path commit identical decisions
/// under FirstFit on a single machine.
#[test]
fn batch_and_sequential_placement_agree() {
    let batch_engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let seq_engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let reqs: Vec<PlacementRequest> = (0..6)
        .map(|i| PlacementRequest::new("swaptions", 16).with_probe_seed(i))
        .collect();
    let batched = batch_engine.place_batch(&reqs, BatchStrategy::FirstFit);
    for (req, b) in reqs.iter().zip(&batched) {
        let one = seq_engine.place(req);
        match (b.placed(), one.placed()) {
            (Some(x), Some(y)) => {
                assert_eq!(x.machine, y.machine);
                assert_eq!(x.placement_id, y.placement_id);
                assert_eq!(x.predicted_perf, y.predicted_perf);
            }
            (None, None) => {}
            _ => panic!("batch and sequential disagree for {:?}", req.workload),
        }
    }
}
