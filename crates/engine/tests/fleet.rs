//! Fleet-index guarantees: class-level evaluation is score-equivalent
//! to the pre-refactor per-machine sweep, capacity summaries never let
//! a placement through that the occupancy map would reject, and the
//! per-class work accounting holds at fleet scale.

#[path = "support/reference.rs"]
mod reference;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use vc_engine::{
    BatchStrategy, EngineConfig, MachineId, Placed, PlacementEngine, PlacementRequest,
    RebalancePolicy,
};
use vc_ml::forest::ForestConfig;
use vc_topology::{machines, ThreadId};

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

/// The reference semantics `place_batch` must preserve: one independent
/// single-machine engine per host, swept in fleet order per request —
/// exactly the pre-fleet-index per-machine evaluation, with *nothing*
/// shared between hosts (each reference engine trains its own model).
struct PerMachineSweep {
    engines: Vec<PlacementEngine>,
}

impl PerMachineSweep {
    fn new(fleet: &[(vc_topology::Machine, usize)]) -> Self {
        PerMachineSweep {
            engines: fleet
                .iter()
                .map(|(m, baseline)| {
                    let mut e = PlacementEngine::new(fast_config());
                    e.add_machine_with_baseline(m.clone(), *baseline);
                    e
                })
                .collect(),
        }
    }

    /// First-fit: the first machine (fleet order) that accepts wins.
    fn place(&self, req: &PlacementRequest) -> Option<(usize, Placed)> {
        for (i, e) in self.engines.iter().enumerate() {
            if let Some(p) = e.place(req).placed() {
                return Some((i, p.clone()));
            }
        }
        None
    }
}

/// Asserts every machine's lock-free summary agrees with its
/// authoritative occupancy map (valid whenever no commit is in flight):
/// `audit()` compares the two under each host lock, and `can_fit`, which
/// reads only sketches and summaries, counts exactly the hosts a scan
/// of the occupancy maps admits.
fn assert_summaries_published(engine: &PlacementEngine) {
    engine.audit().expect("summaries agree with occupancy");
    let probe = PlacementRequest::new("WTbtree", 16);
    assert_eq!(
        engine.can_fit(&probe).hosts,
        reference::full_scan_fit_count(engine, &probe),
        "summaries admit other hosts than the occupancy maps"
    );
}

/// The fleet-indexed, summary-prefiltered `place_batch` must commit the
/// same machines, placement classes, node sets, threads and predicted
/// performance as a sweep over per-machine engines that share nothing.
#[test]
fn sharded_batch_matches_per_machine_sweep() {
    let fleet = vec![
        (machines::amd_opteron_6272(), 0),
        (machines::amd_opteron_6272(), 0),
        (machines::intel_xeon_e7_4830_v3(), 1),
    ];
    let mut engine = PlacementEngine::new(fast_config());
    for (m, b) in &fleet {
        engine.add_machine_with_baseline(m.clone(), *b);
    }
    let reference = PerMachineSweep::new(&fleet);

    // Enough 16-vCPU containers to overflow the 64+64+96-thread fleet,
    // so rejections are compared too; a mix of goals exercises the
    // goal-clearing filter.
    let reqs: Vec<PlacementRequest> = (0..16)
        .map(|i| {
            let wl = ["WTbtree", "swaptions"][i % 2];
            let goal = [0.0, 0.9][(i / 2) % 2];
            PlacementRequest::new(wl, 16).with_goal(goal).with_probe_seed(i as u64)
        })
        .collect();
    let decisions = engine.place_batch(&reqs, BatchStrategy::FirstFit);

    let mut placed_count = 0;
    for (req, d) in reqs.iter().zip(&decisions) {
        let expected = reference.place(req);
        match (d.placed(), expected) {
            (Some(got), Some((machine_idx, want))) => {
                placed_count += 1;
                assert_eq!(got.machine.0, machine_idx, "machine choice diverged");
                assert_eq!(got.placement_id, want.placement_id, "class diverged");
                assert_eq!(got.spec.nodes, want.spec.nodes, "node set diverged");
                assert_eq!(got.threads, want.threads, "threads diverged");
                assert_eq!(
                    got.predicted_perf, want.predicted_perf,
                    "prediction diverged: class-shared model is not score-equivalent"
                );
                assert_eq!(got.goal_perf, want.goal_perf);
            }
            (None, None) => {}
            (got, want) => panic!(
                "fleet engine and per-machine sweep disagree on feasibility \
                 (fleet placed: {}, sweep placed: {})",
                got.is_some(),
                want.is_some()
            ),
        }
    }
    assert!(placed_count >= 8, "fleet should fill before rejecting");
    assert!(placed_count < reqs.len(), "some requests must be rejected");
    assert_summaries_published(&engine);

    // The fleet engine did its model work per class (2 classes), not
    // per host (3 hosts) — while the reference sweep trained 3 times.
    let stats = engine.stats();
    assert_eq!(stats.models.computes, 2, "one model per machine class");
    assert_eq!(stats.catalogs.computes, 2, "one catalog per machine class");
}

/// One engine per property test (cargo may run the test fns
/// concurrently, so they must not share occupancy); within a test the
/// cases share the engine and release everything they place.
fn batch_vs_sequential_engine() -> &'static PlacementEngine {
    static ENGINE: OnceLock<PlacementEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut engine = PlacementEngine::new(fast_config());
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        engine
    })
}

fn churn_engine() -> &'static PlacementEngine {
    static ENGINE: OnceLock<PlacementEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut engine = PlacementEngine::new(fast_config());
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        engine
    })
}

/// Its own engine: the torn-read proptest churns concurrently, which
/// would race the quiescent-point assertions of the tests above if
/// they shared occupancy.
fn torn_read_engine() -> &'static PlacementEngine {
    static ENGINE: OnceLock<PlacementEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut engine = PlacementEngine::new(fast_config());
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        engine
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched and one-at-a-time placement of the same request stream
    /// commit identical decisions, and the lock-free summaries match
    /// the occupancy maps after every quiescent point.
    #[test]
    fn batch_equals_sequential_on_random_streams(
        picks in proptest::collection::vec((0usize..3, 0usize..3, 0u64..1000), 1..8),
    ) {
        let engine = batch_vs_sequential_engine();
        let reqs: Vec<PlacementRequest> = picks
            .iter()
            .map(|&(w, g, seed)| {
                PlacementRequest::new(["WTbtree", "swaptions", "blast"][w], 16)
                    .with_goal([0.0, 0.9, 1.05][g])
                    .with_probe_seed(seed)
            })
            .collect();

        let batched = engine.place_batch(&reqs, BatchStrategy::FirstFit);
        let batch_placed: Vec<Placed> =
            batched.iter().filter_map(|d| d.placed().cloned()).collect();
        for p in &batch_placed {
            engine.release(p).unwrap();
        }

        let sequential: Vec<Option<Placed>> =
            reqs.iter().map(|r| engine.place(r).placed().cloned()).collect();
        for p in sequential.iter().flatten() {
            engine.release(p).unwrap();
        }
        assert_summaries_published(engine);

        for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            match (b.placed(), s) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.machine, y.machine, "request {}", i);
                    prop_assert_eq!(x.placement_id, y.placement_id, "request {}", i);
                    prop_assert_eq!(&x.threads, &y.threads, "request {}", i);
                    prop_assert_eq!(x.predicted_perf, y.predicted_perf, "request {}", i);
                }
                (None, None) => {}
                _ => prop_assert!(false, "batch and sequential disagree on request {}", i),
            }
        }
    }

    /// After any interleaving of placements and releases, every
    /// summary equals its occupancy map: commits and releases always
    /// publish before dropping the host lock.
    #[test]
    fn summaries_track_occupancy_through_churn(
        ops in proptest::collection::vec((0u8..4, 0u64..1000), 4..20),
    ) {
        let engine = churn_engine();
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
            assert_summaries_published(engine);
        }
        for p in live.drain(..) {
            engine.release(&p).unwrap();
        }
        assert_summaries_published(engine);
    }
}

/// Phase-1 work is per machine class: a fleet of many same-model hosts
/// costs |classes| evaluations per request, and one catalog / training
/// sweep / model per class — the acceptance criterion of the
/// fingerprint-sharded fleet index.
#[test]
fn evaluation_and_training_are_counted_per_class_not_per_host() {
    let mut engine = PlacementEngine::new(fast_config());
    for _ in 0..100 {
        engine.add_machine(machines::amd_opteron_6272());
    }
    engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
    assert_eq!(engine.num_machines(), 101);
    assert_eq!(engine.fleet_index().num_classes(), 2);

    let reqs: Vec<PlacementRequest> = (0..3)
        .map(|i| PlacementRequest::new("WTbtree", 16).with_probe_seed(i))
        .collect();
    let decisions = engine.place_batch(&reqs, BatchStrategy::FirstFit);
    assert!(decisions.iter().all(|d| d.placed().is_some()));

    let stats = engine.stats();
    assert_eq!(
        stats.evaluations, 6,
        "3 requests × 2 classes, independent of the 101 hosts"
    );
    assert_eq!(stats.catalogs.computes, 2, "one catalog per class");
    assert_eq!(stats.training_sets.computes, 2, "one sweep per class");
    assert_eq!(stats.models.computes, 2, "one model per class");
}

/// Sizes whose catalog has exactly one important placement (on the AMD
/// 6272: 1, 48 and 64 vCPUs among others) have nothing to predict: the
/// single probe is the answer, no model is trained, and asking for one
/// is a typed error — this used to panic inside `select_probe_pair`.
#[test]
fn single_placement_sizes_place_without_a_model() {
    let mut engine = PlacementEngine::new(fast_config());
    let id = engine.add_machine(machines::amd_opteron_6272());
    for vcpus in [1, 48, 64] {
        let decision = engine.place(&PlacementRequest::new("WTbtree", vcpus));
        let placed = decision
            .placed()
            .unwrap_or_else(|| panic!("{vcpus} vCPUs rejected: {decision:?}"));
        assert_eq!(placed.placement_id, 1, "{vcpus} vCPUs");
        assert_eq!(placed.threads.len(), vcpus);
        engine.release(placed).expect("release");
    }
    assert_eq!(engine.stats().models.computes, 0, "nothing to train");
    assert!(matches!(
        engine.model(id, 64, 0, None),
        Err(vc_core::placement::PlacementError::NoProbePair { placements: 1 })
    ));
    engine.audit().expect("views agree at quiescence");
}

/// Once the fleet is saturated, further requests are rejected purely by
/// the lock-free hierarchy — the shard sketch proves the whole shard
/// empty without reading a single member summary; a departure
/// immediately restores admissibility because releases publish sketch
/// and summary together.
#[test]
fn full_hosts_are_skipped_by_sketches_without_locking() {
    let mut engine = PlacementEngine::new(fast_config());
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());

    let req = |s: u64| PlacementRequest::new("swaptions", 16).with_probe_seed(s);
    let mut placed = Vec::new();
    for s in 0..8 {
        placed.push(engine.place(&req(s)).placed().expect("fleet has room").clone());
    }
    let before = engine.stats();
    let overflow = engine.place(&req(100));
    let stats = engine.stats();
    assert!(overflow.placed().is_none(), "130th vCPU cannot exist");
    assert_eq!(
        stats.sketch.skips - before.sketch.skips,
        2,
        "both full hosts must be ruled out shard-wide by the sketch"
    );
    assert_eq!(
        stats.summary.skips, before.summary.skips,
        "a sketch-skipped shard's member summaries are never read"
    );
    assert_eq!(
        stats.host_lock_acquisitions, before.host_lock_acquisitions,
        "a rejection by the lock-free hierarchy must not lock"
    );
    match overflow {
        vc_engine::PlacementDecision::Rejected { reason } => {
            assert!(
                reason.contains("availability sketches"),
                "reason should credit the sketch descent: {reason}"
            );
            assert!(reason.contains("node N"), "reason must name a node: {reason}");
            assert!(
                reason.contains("per its summary"),
                "reason should explain from the summary: {reason}"
            );
        }
        _ => unreachable!(),
    }

    engine.release(&placed.pop().expect("eight placed")).unwrap();
    assert!(
        engine.place(&req(101)).placed().is_some(),
        "release published sketch and summary; the host is admissible again"
    );
}

/// Racing batches against a small fleet: stale summaries may admit a
/// host whose occupancy then rejects the commit (counted as `stale`,
/// re-offered elsewhere), but capacity is never over-committed and the
/// summaries converge to the occupancy maps at quiescence.
#[test]
fn racing_batches_stay_consistent_under_stale_summaries() {
    let mut engine = PlacementEngine::new(fast_config());
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    let engine = Arc::new(engine);
    // Warm the caches so the race is over commitment, not training.
    let warm = engine.place(&PlacementRequest::new("WTbtree", 16));
    engine.release(warm.placed().expect("fits")).unwrap();

    let placed_total: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let engine = Arc::clone(&engine);
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

    // 16 racing 16-vCPU requests against 128 threads: exactly 8 fit.
    assert_eq!(placed_total, 8, "over- or under-commitment under races");
    for id in engine.machine_ids() {
        let (used, total) = engine.utilisation(id);
        assert_eq!(used, total, "both hosts must end exactly full");
    }
    assert_summaries_published(&engine);
}

/// BestScore ranks machine classes before realising offers: on a fleet
/// where one class dominates, members of the other classes are never
/// dry-run at all — `EngineStats::offers` stays at the winning class's
/// realisations instead of one per admitted host (the pre-ranking
/// engine offered every one of the 101 hosts).
#[test]
fn best_score_offers_only_the_winning_class() {
    let mut engine = PlacementEngine::new(fast_config());
    for _ in 0..100 {
        engine.add_machine(machines::amd_opteron_6272());
    }
    engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);

    let req = PlacementRequest::new("WTbtree", 16);
    let placed = engine
        .place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore)
        .pop()
        .unwrap()
        .placed()
        .expect("empty fleet")
        .clone();
    let stats = engine.stats();
    assert!(
        stats.offers <= 2,
        "class-ranked BestScore must stop at the leader's ceiling \
         (idle host offers it immediately), not dry-run 101 hosts: {} offers",
        stats.offers
    );
    // And the choice is still the best-scoring host: the winning class
    // ceiling equals the committed prediction (idle fleet, no penalty).
    assert_eq!(placed.interference_penalty, 1.0);
    engine.release(&placed).unwrap();

    // Tie-correctness at the ceiling: repeating the request must keep
    // choosing the lowest machine id of the winning class.
    let again = engine
        .place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore)
        .pop()
        .unwrap()
        .placed()
        .expect("fits")
        .clone();
    assert_eq!(again.machine, placed.machine, "deterministic tie-break");
    engine.release(&again).unwrap();
}

/// LRU-bounded engines stay bounded: distinct vcpus values beyond
/// [`PlacementEngine::CACHE_CAPACITY`] evict the oldest catalogs,
/// visibly in the stats, without changing any answer. The filler keys
/// are sizes the 64-thread machine cannot host — cached errors, cheap
/// to compute, and entries like any other.
#[test]
fn bounded_engine_caches_evict_and_still_answer() {
    let engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let cap = PlacementEngine::CACHE_CAPACITY;

    let first = engine.catalog(MachineId(0), 4).unwrap();
    let first_len = first.placements.len();
    for vcpus in 100..100 + cap {
        assert!(engine.catalog(MachineId(0), vcpus).is_err());
    }
    let stats = engine.stats();
    assert_eq!(stats.catalogs.computes, cap as u64 + 1);
    assert_eq!(stats.catalogs.evictions, 1, "the oldest key, 4 vCPUs, went");
    assert_eq!(stats.total_evictions(), 1);

    // The evicted key recomputes to the identical catalog.
    let again = engine.catalog(MachineId(0), 4).unwrap();
    assert_eq!(again.placements.len(), first_len);
    for (a, b) in again.placements.iter().zip(&first.placements) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.scores, b.scores);
    }
    let stats = engine.stats();
    assert_eq!(stats.catalogs.computes, cap as u64 + 2);
    assert_eq!(stats.catalogs.evictions, 2);
}

// ---------------------------------------------------------------------
// Wait-free snapshot reads: equivalence, consistency and lock accounting
// ---------------------------------------------------------------------

/// Decisions scored on epoch-published snapshots — plain admission,
/// BestScore offer ranking and interference probes against the real
/// residents — equal the public-API reference's, bit for bit, through
/// churn and a rebalance pass; every published view matches the
/// record under its lock at each quiescent point.
#[test]
fn snapshot_scored_decisions_match_the_reference() {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        degradation_budget: Some(0.005),
        ..fast_config()
    });
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);

    let request = |i: usize| {
        let wl = ["WTbtree", "streamcluster", "swaptions"][i % 3];
        PlacementRequest::new(wl, [4, 8, 16][i % 3])
            .with_goal([0.0, 0.9][(i / 3) % 2])
            .with_probe_seed(i as u64)
    };
    let strategy = |i: usize| {
        if i.is_multiple_of(2) { BatchStrategy::FirstFit } else { BatchStrategy::BestScore }
    };

    // Admission (FirstFit) and offer-ranked admission (BestScore),
    // interleaved so both paths run against churned occupancy.
    let mut live = Vec::new();
    for i in 0..10 {
        live.extend(reference::place_checked(&engine, &request(i), strategy(i), &format!("request {i}")));
        engine.audit().unwrap();
        for id in engine.machine_ids() {
            assert_eq!(
                engine.node_utilisation(id),
                engine.host_snapshot(id).occupancy().node_usage()
            );
        }
    }
    assert!(!live.is_empty(), "the stream must place something");

    // A rebalance pass re-homes residents; admission on the moved
    // fleet still matches the reference.
    let report = engine.rebalance(&RebalancePolicy::default());
    assert!(report.scanned > 0, "the pass must have scanned the residents");
    engine.audit().unwrap();
    for i in 10..14 {
        live.extend(reference::place_checked(&engine, &request(i), strategy(i), &format!("request {i}")));
    }

    let stats = engine.stats();
    assert!(stats.snapshot.published > 0, "commits must publish snapshots");
    assert!(stats.snapshot.reads > 0, "scoring must read snapshots");

    for p in &live {
        engine.release(p).unwrap();
    }
    engine.audit().unwrap();
    for id in engine.machine_ids() {
        assert_eq!(engine.utilisation(id).0, 0);
    }
}

/// Zero lock acquisitions on the scoring path: a warm engine
/// takes the host mutex exactly once per committed placement
/// and once per release — never for offers, BestScore ranking,
/// summary prefilters, rejected requests or read accessors.
#[test]
fn scoring_and_accessors_acquire_no_host_locks() {
    let mut engine = PlacementEngine::new(fast_config());
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());

    // Warm every cache so the measured region is pure decision-making.
    let warm = engine.place(&PlacementRequest::new("WTbtree", 16));
    engine.release(warm.placed().expect("fits")).unwrap();

    let locks_at = |e: &PlacementEngine| e.stats().host_lock_acquisitions;
    let base = locks_at(&engine);

    // Read accessors: wait-free, zero locks.
    for id in engine.machine_ids() {
        let _ = engine.utilisation(id);
        let _ = engine.node_utilisation(id);
        let _ = engine.occupancy(id);
        let _ = engine.residents(id);
        let _ = engine.host_snapshot(id);
    }
    let _ = engine.num_residents();
    assert_eq!(locks_at(&engine) - base, 0, "accessors must not lock");

    // Fill the fleet: 8 commits = exactly 8 acquisitions, although
    // BestScore dry-ran offers across hosts for every request.
    let reqs: Vec<PlacementRequest> = (0..8)
        .map(|i| PlacementRequest::new("swaptions", 16).with_probe_seed(i))
        .collect();
    let decisions = engine.place_batch(&reqs, BatchStrategy::BestScore);
    let placed: Vec<Placed> = decisions.iter().filter_map(|d| d.placed().cloned()).collect();
    assert_eq!(placed.len(), 8, "128 threads hold exactly eight 16-vCPU containers");
    assert_eq!(
        locks_at(&engine) - base,
        8,
        "one lock per commit; offers and prefilters must be lock-free"
    );

    // A rejected request on the full fleet: zero locks (summaries and
    // snapshots rule every host out before any commit attempt).
    let overflow = engine.place(&PlacementRequest::new("swaptions", 16).with_probe_seed(99));
    assert!(overflow.placed().is_none());
    assert_eq!(locks_at(&engine) - base, 8, "rejections must not lock");

    // Releases: one acquisition each.
    for p in &placed {
        engine.release(p).unwrap();
    }
    assert_eq!(locks_at(&engine) - base, 16, "one lock per release");
}

/// Snapshots are never observed mid-commit: under racing writers every
/// loaded snapshot is internally consistent — the union of its
/// residents' threads is exactly its occupancy's used set, tickets are
/// strictly sorted, and per-node usage re-derives from the residents.
fn assert_snapshot_consistent(s: &vc_engine::HostSnapshot) {
    let occ = s.occupancy();
    let mut used = vec![false; occ.total_threads()];
    let mut last_ticket = None;
    for r in s.residents() {
        assert!(last_ticket < Some(r.ticket), "registry must be ticket-sorted");
        last_ticket = Some(r.ticket);
        for &t in &r.threads {
            assert!(!used[t.0], "two residents share thread {t:?}: torn snapshot");
            used[t.0] = true;
        }
    }
    for (t, &in_registry) in used.iter().enumerate() {
        assert_eq!(
            in_registry,
            !occ.is_free(ThreadId(t)),
            "thread {t}: registry and occupancy disagree — snapshot torn mid-commit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent writers churn placements and releases while reader
    /// threads continuously load `host_snapshot` — no loaded snapshot
    /// may ever show a half-applied commit, release or publication.
    #[test]
    fn snapshots_are_never_torn_under_concurrent_churn(
        seeds in proptest::collection::vec(0u64..1000, 2..5),
    ) {
        let engine = torn_read_engine();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Validating readers, hammering every machine's slot.
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for id in engine.machine_ids() {
                            assert_snapshot_consistent(&engine.host_snapshot(id));
                        }
                    }
                });
            }
            // Writers: placement/release churn from the generated seeds.
            let writers: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    s.spawn(move || {
                        let mut live = Vec::new();
                        for i in 0..4u64 {
                            let req = PlacementRequest::new("WTbtree", 8)
                                .with_probe_seed(seed.wrapping_mul(31).wrapping_add(i));
                            if let Some(p) = engine.place(&req).placed() {
                                live.push(p.clone());
                            }
                            if i % 2 == 1 {
                                for p in live.drain(..) {
                                    engine.release(&p).unwrap();
                                }
                            }
                        }
                        for p in live {
                            engine.release(&p).unwrap();
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // Quiescent: every published snapshot is the record under its lock.
        for id in engine.machine_ids() {
            assert_snapshot_consistent(&engine.host_snapshot(id));
        }
        prop_assert_eq!(engine.audit(), Ok(()));
    }
}
