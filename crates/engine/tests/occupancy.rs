//! Occupancy invariants: committed placements reserve concrete,
//! non-overlapping hardware threads; departures restore exactly what
//! they held; and the old machine-granular accounting bug (two
//! containers "placed" on overlapping node sets) stays fixed.

#[path = "support/config.rs"]
mod config;

use config::fast_config;

use std::collections::HashMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use vc_engine::{BatchStrategy, MachineId, Placed, PlacementEngine, PlacementRequest};
use vc_topology::machines;

/// Asserts that no two placements in `live` share a hardware thread and
/// that the engine's counters agree with the live set.
fn assert_disjoint_and_accounted(engine: &PlacementEngine, live: &[Placed]) {
    let mut owner: HashMap<(usize, usize), usize> = HashMap::new();
    for (i, p) in live.iter().enumerate() {
        assert_eq!(p.threads.len(), p.spec.vcpus, "placement {i} thread count");
        for &t in &p.threads {
            if let Some(j) = owner.insert((p.machine.0, t.index()), i) {
                panic!("placements {i} and {j} share thread {t} on machine {:?}", p.machine);
            }
        }
    }
    for id in engine.machine_ids() {
        let expected: usize = live
            .iter()
            .filter(|p| p.machine == id)
            .map(|p| p.threads.len())
            .sum();
        let (used, total) = engine.utilisation(id);
        assert_eq!(used, expected, "machine {id:?} counter drift");
        assert!(used <= total);
        // Node-level counters must sum to the machine-level one.
        let node_sum: usize = engine.node_utilisation(id).iter().map(|&(_, u, _)| u).sum();
        assert_eq!(node_sum, used, "machine {id:?} node counters drift");
    }
}

/// One engine shared by every property-test case: the model caches warm
/// up once, and each case releases everything it placed, returning the
/// occupancy to empty for the next case.
fn shared_engine() -> &'static PlacementEngine {
    static ENGINE: OnceLock<PlacementEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut engine = PlacementEngine::new(fast_config());
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine(machines::intel_xeon_e7_4830_v3());
        engine
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random interleaving of arrivals and departures never yields two
    /// live containers sharing a hardware thread, and the occupancy
    /// counters always equal the sum of live reservations.
    #[test]
    fn committed_placements_never_overlap(
        ops in proptest::collection::vec((0u8..4, 0u64..1000), 4..24),
    ) {
        let engine = shared_engine();
        let mut live: Vec<Placed> = Vec::new();
        for (op, seed) in ops {
            if op == 0 && !live.is_empty() {
                // Depart a pseudo-random live container.
                let victim = live.remove(seed as usize % live.len());
                engine.release(&victim).unwrap();
            } else {
                let vcpus = [8, 16, 24][(seed % 3) as usize];
                let req = PlacementRequest::new("WTbtree", vcpus).with_probe_seed(seed);
                if let Some(p) = engine.place(&req).placed() {
                    live.push(p.clone());
                }
            }
            assert_disjoint_and_accounted(engine, &live);
        }
        // Leave the engine empty for the next case.
        for p in live.drain(..) {
            engine.release(&p).unwrap();
        }
    }
}

/// Releasing a container restores exactly the per-node capacity it held
/// — no more, no less — and the freed node set can host a new arrival.
#[test]
fn release_restores_exactly_the_freed_capacity() {
    let engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let req = PlacementRequest::new("swaptions", 16);
    let a = engine.place(&req).placed().expect("fits").clone();
    let b = engine.place(&req).placed().expect("fits").clone();
    let before = engine.node_utilisation(MachineId(0));

    engine.release(&a).unwrap();
    let after = engine.node_utilisation(MachineId(0));
    for ((node, was, cap), (_, now, _)) in before.iter().zip(&after) {
        let freed_here = a.threads.iter().filter(|&&t| {
            engine.machine(MachineId(0)).thread(t).node == *node
        }).count();
        assert_eq!(*was - freed_here, *now, "node {node} freed wrong amount");
        assert!(now <= cap);
    }
    // b is untouched by a's departure.
    let (used, _) = engine.utilisation(MachineId(0));
    assert_eq!(used, b.threads.len());

    // The freed set hosts a newcomer without touching b's threads.
    let c = engine.place(&req).placed().expect("freed capacity hosts it").clone();
    assert!(c.threads.iter().all(|t| !b.threads.contains(t)));
}

/// Regression: under machine-granular accounting, two 24-vCPU containers
/// on one Intel machine were both handed the *same* representative node
/// set (both specs named node 0), silently sharing every thread the
/// model scored as private. Node-granular occupancy must give the second
/// container disjoint hardware.
#[test]
fn co_located_containers_get_disjoint_hardware() {
    let engine = PlacementEngine::single(machines::intel_xeon_e7_4830_v3(), fast_config());
    // Best-effort 24-vCPU requests: the preferred class is single-node
    // (fewest nodes), which fills one 24-thread node exactly.
    let req = |s: u64| PlacementRequest::new("WTbtree", 24).with_probe_seed(s);
    let a = engine.place(&req(0)).placed().expect("first fits").clone();
    let b = engine.place(&req(1)).placed().expect("second fits").clone();
    assert!(
        a.threads.iter().all(|t| !b.threads.contains(t)),
        "containers share hardware threads: {:?} vs {:?}",
        a.spec.nodes,
        b.spec.nodes
    );
    // With the single-node class both containers occupy whole distinct
    // nodes; in every case the node sets must not overlap while each
    // node is fully reserved.
    if a.spec.num_nodes() == 1 && b.spec.num_nodes() == 1 {
        assert_ne!(a.spec.nodes, b.spec.nodes, "both containers on one node set");
    }
    // Four such containers fill the machine; the fifth is rejected with
    // a reason naming the exhausted node.
    for s in 2..4 {
        assert!(engine.place(&req(s)).placed().is_some(), "container {s} fits");
    }
    let overflow = engine.place(&req(4));
    assert!(overflow.placed().is_none());
    match overflow {
        vc_engine::PlacementDecision::Rejected { reason } => {
            assert!(reason.contains("node N"), "reason must name the node: {reason}");
        }
        _ => unreachable!(),
    }
}

/// Batch placement respects occupancy exactly like sequential placement:
/// the same requests against identical engines commit identical machine
/// and thread choices.
#[test]
fn batch_and_sequential_occupancy_agree() {
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
                assert_eq!(x.spec.nodes, y.spec.nodes);
                assert_eq!(x.threads, y.threads);
            }
            (None, None) => {}
            _ => panic!("batch and sequential disagree for {:?}", req.workload),
        }
    }
    assert_eq!(
        batch_engine.node_utilisation(MachineId(0)),
        seq_engine.node_utilisation(MachineId(0))
    );
}
