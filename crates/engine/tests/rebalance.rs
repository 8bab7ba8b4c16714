//! The self-correcting loop, end to end:
//!
//! * with `degradation_budget` unset, `rebalance()` is a no-op and the
//!   engine commits bit-for-bit the decisions of a budget-less engine;
//! * with a budget nothing ever exceeds, passes scan but never migrate
//!   — and decisions remain bit-for-bit identical;
//! * the cost/benefit gate keeps migrations whose Table 2 price
//!   outweighs the predicted gain from executing;
//! * a genuinely degraded resident is migrated (priced via
//!   `MigrationModel`), its simulator-measured degradation strictly
//!   improves, and the admission-time `Placed` handle still releases it
//!   from its new home;
//! * release errors are surfaced, counted, and leave occupancy intact.
//!
//! No simulator or migration-model call runs under a host lock: scoring
//! and pricing run on snapshots (the deadlock-free completion of these
//! tests, which all take host locks through commits/releases while
//! penalties simulate, exercises exactly that).

#[path = "support/config.rs"]
mod config;

use config::fast_config;

use vc_engine::{
    BatchStrategy, EngineConfig, MachineId, MigrationMode, Placed, PlacementEngine,
    PlacementRequest, RebalancePolicy, ReleaseError,
};
use vc_sim::{simulate_co_location, ContainerRun};
use vc_topology::machines;

fn two_amd(budget: Option<f64>) -> PlacementEngine {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        degradation_budget: budget,
        ..fast_config()
    });
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    engine
}

/// A streaming resident on half of host 0's node 0, and a candidate the
/// pristine-averse retargeter stacks right next to it — the classic
/// co-location pathology the rebalancer exists to fix. Host 1 is idle.
fn degraded_pair(engine: &PlacementEngine) -> (Placed, Placed) {
    let resident = engine
        .place(&PlacementRequest::new("streamcluster", 4))
        .placed()
        .expect("empty fleet")
        .clone();
    assert_eq!(resident.machine, MachineId(0));
    let victim = engine
        .place(&PlacementRequest::new("WTbtree", 4).with_probe_seed(7))
        .placed()
        .expect("room next to the resident")
        .clone();
    assert_eq!(victim.machine, MachineId(0), "must stack beside the resident");
    assert!(
        victim.interference_penalty < 1.0,
        "the pair must actually interfere"
    );
    (resident, victim)
}

fn assert_same_placed(a: &Placed, b: &Placed, ctx: &str) {
    assert_eq!(a.machine, b.machine, "{ctx}: machine diverged");
    assert_eq!(a.placement_id, b.placement_id, "{ctx}: class diverged");
    assert_eq!(a.spec.nodes, b.spec.nodes, "{ctx}: node set diverged");
    assert_eq!(a.threads, b.threads, "{ctx}: threads diverged");
    assert_eq!(a.predicted_perf, b.predicted_perf, "{ctx}: prediction diverged");
}

/// Budget unset (the default): `rebalance` scans nothing, moves
/// nothing, touches nothing — and admission decisions are bit-for-bit
/// those of an engine on which `rebalance` is never called.
#[test]
fn budget_unset_rebalance_is_a_noop() {
    let rebalanced = two_amd(None);
    let untouched = two_amd(None);
    assert!(rebalanced.config().degradation_budget.is_none(), "default");

    let policy = RebalancePolicy::default();
    for i in 0..6 {
        let req = PlacementRequest::new(["WTbtree", "streamcluster"][i % 2], 8)
            .with_probe_seed(i as u64);
        let a = rebalanced.place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore);
        // A pass between every placement: must change nothing.
        let report = rebalanced.rebalance(&policy);
        assert_eq!(report.scanned, 0, "budget unset must not even scan");
        assert_eq!(report.over_budget, 0);
        assert!(report.migrations.is_empty());
        let b = untouched.place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore);
        match (a[0].placed(), b[0].placed()) {
            (Some(x), Some(y)) => assert_same_placed(x, y, &format!("request {i}")),
            (None, None) => {}
            _ => panic!("request {i}: engines disagree on feasibility"),
        }
    }
}

/// A budget nothing exceeds: passes scan the population but never
/// migrate, and the decision stream stays bit-for-bit identical to the
/// budget-less engine's.
#[test]
fn generous_budget_scans_but_never_migrates() {
    let generous = two_amd(Some(0.99));
    let reference = two_amd(None);
    let policy = RebalancePolicy::default();
    let mut scanned_total = 0;
    for i in 0..6 {
        let req = PlacementRequest::new(["WTbtree", "streamcluster"][i % 2], 8)
            .with_probe_seed(i as u64);
        let a = generous.place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore);
        let report = generous.rebalance(&policy);
        scanned_total += report.scanned;
        assert_eq!(report.over_budget, 0, "no degradation reaches 0.99");
        assert!(report.migrations.is_empty());
        assert_eq!(report.blocked_by_cost + report.blocked_no_target, 0);
        let b = reference.place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore);
        match (a[0].placed(), b[0].placed()) {
            (Some(x), Some(y)) => assert_same_placed(x, y, &format!("request {i}")),
            (None, None) => {}
            _ => panic!("request {i}: engines disagree on feasibility"),
        }
    }
    assert!(scanned_total > 0, "the passes must have examined residents");
}

/// The cost/benefit gate: the same degraded resident that a normal
/// horizon migrates is kept in place when the credited runtime is too
/// short for the move to pay for itself (WiredTiger's 36 GB freeze
/// outweighs a fraction of a second of recovered throughput).
#[test]
fn cost_benefit_gate_blocks_unprofitable_moves() {
    let engine = two_amd(Some(0.005));
    let (_resident, _victim) = degraded_pair(&engine);
    let stingy = RebalancePolicy {
        expected_runtime_s: 0.001,
        ..RebalancePolicy::default()
    };
    let report = engine.rebalance(&stingy);
    assert!(report.over_budget >= 1, "the victim must be over budget");
    assert!(
        report.migrations.is_empty(),
        "no move can pay for itself in a millisecond of runtime"
    );
    assert!(report.blocked_by_cost >= 1, "the gate must be what blocked it");
    // Nothing moved: both containers still where they were.
    assert_eq!(engine.utilisation(MachineId(0)).0, 8);
    assert_eq!(engine.utilisation(MachineId(1)).0, 0);
}

/// The acceptance demo: a degraded resident is migrated to the idle
/// host, the move is priced by the Table 2 model, and the simulator —
/// running the *real* workloads — confirms the container is strictly
/// faster in its new home. The admission-time handle then releases it
/// from where it lives now.
#[test]
fn degraded_resident_is_migrated_and_measurably_faster() {
    let engine = two_amd(Some(0.005));
    let (resident, victim) = degraded_pair(&engine);

    let policy = RebalancePolicy {
        mode: MigrationMode::Fast,
        ..RebalancePolicy::default()
    };
    let report = engine.rebalance(&policy);
    assert!(report.over_budget >= 1);
    // The bandwidth-starved streamcluster (scanned first, worst off) is
    // the mover; once it leaves, WiredTiger re-scores within budget and
    // stays put — one move fixes the pair.
    assert_eq!(report.migrations.len(), 1, "one move must fix the pair");
    let m = &report.migrations[0];
    assert_eq!(m.ticket, resident.ticket, "the streaming resident moves");
    assert_eq!(m.workload, "streamcluster");
    assert_eq!(m.from, MachineId(0));
    assert!(
        m.degradation_after < m.degradation_before,
        "{} !< {}",
        m.degradation_after,
        m.degradation_before
    );
    assert_ne!(
        (m.to, m.placed.spec.nodes.clone()),
        (m.from, resident.spec.nodes.clone()),
        "the move must change where the container runs"
    );
    // Priced, not hand-waved: Table 2 streamcluster row (0.1 GB, base
    // setup plus per-task cost — sub-second but strictly positive).
    assert!(m.estimate.moved_gb > 0.0);
    assert!(m.estimate.duration_s > 0.0);
    assert!((report.moved_gb() - m.estimate.moved_gb).abs() < 1e-9);
    assert!(report.frozen_s() > 0.0, "fast migration freezes the container");

    // The registry followed the move: same ticket, new threads.
    let new_home: Vec<_> = engine
        .residents(m.to)
        .into_iter()
        .filter(|r| r.ticket == m.ticket)
        .collect();
    assert_eq!(new_home.len(), 1);
    assert_eq!(new_home[0].threads, m.placed.threads);
    assert!(
        engine
            .residents(MachineId(0))
            .iter()
            .any(|r| r.ticket == victim.ticket),
        "WiredTiger stays"
    );
    // Both hosts' registries own exactly their occupancy's threads.
    engine.audit().unwrap();

    // Let the simulator judge, with the real workloads: the mover next
    // to WiredTiger (before) vs in its new home (after, with whatever
    // neighbours live there now).
    let amd = machines::amd_opteron_6272();
    let oracle = engine.sim_oracle(MachineId(0));
    let workload_of = |name: &str| {
        oracle
            .workloads()
            .iter()
            .find(|w| w.name == name)
            .expect("suite workload")
    };
    let before = simulate_co_location(
        &amd,
        &ContainerRun {
            workload: workload_of("streamcluster"),
            assignment: &resident.threads,
        },
        &[ContainerRun {
            workload: workload_of("WTbtree"),
            assignment: &victim.threads,
        }],
    );
    let neighbours = engine.residents(m.to);
    let after_neighbours: Vec<ContainerRun> = neighbours
        .iter()
        .filter(|r| r.ticket != m.ticket)
        .map(|r| ContainerRun {
            workload: workload_of(&r.request.workload),
            assignment: &r.threads,
        })
        .collect();
    let after = simulate_co_location(
        &amd,
        &ContainerRun {
            workload: workload_of("streamcluster"),
            assignment: &m.placed.threads,
        },
        &after_neighbours,
    );
    assert!(
        after.candidate > before.candidate,
        "the move must measurably help: after {} vs before {}",
        after.candidate,
        before.candidate
    );

    // The caller never heard about the move; its admission-time handle
    // (stale machine, stale threads) still releases the container from
    // wherever it lives now.
    engine.release(&resident).unwrap();
    engine.release(&victim).unwrap();
    assert_eq!(engine.utilisation(MachineId(0)).0, 0);
    assert_eq!(engine.utilisation(MachineId(1)).0, 0);
    assert_eq!(engine.stats().release_failures, 0);
    assert_eq!(engine.num_residents(), 0);
}

/// Release misuse is an error, counted, and harmless: double releases
/// (including via a handle made stale by a rebalance move that then
/// departed) leave occupancy and summaries untouched.
#[test]
fn release_errors_are_surfaced_counted_and_harmless() {
    let engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let placed = engine
        .place(&PlacementRequest::new("swaptions", 16))
        .placed()
        .expect("fits")
        .clone();
    let other = engine
        .place(&PlacementRequest::new("swaptions", 16))
        .placed()
        .expect("fits")
        .clone();

    engine.release(&placed).unwrap();
    assert_eq!(engine.utilisation(MachineId(0)).0, 16);

    // Double release: refused, counted, and the *other* container's
    // threads are untouched (the old thread-list release would have
    // failed half-way or freed someone else's hardware).
    let err = engine.release(&placed).unwrap_err();
    assert!(matches!(err, ReleaseError::UnknownPlacement { ticket, .. } if ticket == placed.ticket));
    assert!(err.to_string().contains("already released"), "{err}");
    let stats = engine.stats();
    assert_eq!(stats.release_failures, 1);
    assert_eq!(stats.releases, 1);
    assert_eq!(engine.utilisation(MachineId(0)).0, 16, "nothing was freed");
    let occ = engine.occupancy(MachineId(0));
    for &t in &other.threads {
        assert!(!occ.is_free(t), "double release freed a live container's thread");
    }

    engine.release(&other).unwrap();
    assert_eq!(engine.stats().releases, 2);
    assert_eq!(engine.utilisation(MachineId(0)).0, 0);
}

/// Lock accounting, the wait-free-planning acceptance check: a pass
/// that only scans and scores takes **zero** host locks (everything
/// runs on epoch-published snapshots), and a pass that executes moves
/// takes exactly the executed moves' commit bookkeeping — one
/// acquisition for a same-host move, two (source + destination) for a
/// cross-host move — which `RebalanceReport::host_lock_acquisitions`
/// must report exactly.
#[test]
fn rebalance_lock_acquisitions_equal_executed_move_bookkeeping() {
    // Plan-only pass: a generous budget scans the same degraded pair
    // but never moves — and never locks.
    let generous = two_amd(Some(0.99));
    let _pair = degraded_pair(&generous);
    let report = generous.rebalance(&RebalancePolicy::default());
    assert!(report.scanned > 0, "the pass must have scanned residents");
    assert!(report.migrations.is_empty());
    assert_eq!(
        report.host_lock_acquisitions, 0,
        "scanning and scoring must run entirely on snapshots"
    );

    // A cost-blocked pass plans a move but never executes: still zero.
    let blocked = two_amd(Some(0.005));
    let _pair = degraded_pair(&blocked);
    let stingy = RebalancePolicy {
        expected_runtime_s: 0.001,
        ..RebalancePolicy::default()
    };
    let report = blocked.rebalance(&stingy);
    assert!(report.blocked_by_cost >= 1);
    assert_eq!(
        report.host_lock_acquisitions, 0,
        "a planned-but-gated move must not lock anything"
    );

    // An executing pass: exactly the moves' commit locks, nothing for
    // the planning around them.
    let engine = two_amd(Some(0.005));
    let _pair = degraded_pair(&engine);
    let report = engine.rebalance(&RebalancePolicy::default());
    assert_eq!(report.migrations.len(), 1, "one move fixes the pair");
    assert_eq!(report.failed_commits, 0);
    let expected: u64 = report
        .migrations
        .iter()
        .map(|m| if m.from == m.to { 1 } else { 2 })
        .sum();
    assert_eq!(
        report.host_lock_acquisitions, expected,
        "every acquisition must be an executed move's commit"
    );

    // The settled follow-up pass scans the same population, migrates
    // nothing, and plans entirely on published snapshots.
    let settled = engine.rebalance(&RebalancePolicy::default());
    assert!(settled.scanned > 0 && settled.migrations.is_empty());
    assert_eq!(settled.host_lock_acquisitions, 0, "a settled pass must not lock");
}

/// The report counts the pass's own locks, not the engine's: settled
/// passes running while another thread churns place/release on the
/// other host report exactly zero, although the engine-wide counter
/// climbs under them (the old counter-delta charged every concurrent
/// commit and release to the pass).
#[test]
fn concurrent_churn_is_not_charged_to_a_settled_pass() {
    let engine = two_amd(Some(0.99));
    // Fill host 0 so the churner's requests land on host 1.
    for seed in 0..4 {
        let p = engine
            .place(&PlacementRequest::new("swaptions", 16).with_probe_seed(seed))
            .placed()
            .expect("host 0 has room")
            .clone();
        assert_eq!(p.machine, MachineId(0));
    }
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
    let churned = AtomicU64::new(0);
    let engine_locks_before = engine.stats().host_lock_acquisitions;
    let mut reports = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            // Stops on its own once the passes below have seen enough
            // churn, so a failing assertion can never strand it.
            while churned.load(SeqCst) < 20 {
                let req = PlacementRequest::new("swaptions", 16);
                let p = engine.place(&req).placed().expect("host 1 has room").clone();
                assert_eq!(p.machine, MachineId(1));
                engine.release(&p).unwrap();
                churned.fetch_add(1, SeqCst);
            }
        });
        while reports.len() < 5 || churned.load(SeqCst) < 20 {
            reports.push(engine.rebalance(&RebalancePolicy::default()));
        }
    });
    for (i, report) in reports.iter().enumerate() {
        assert!(report.scanned >= 4 && report.migrations.is_empty());
        assert_eq!(report.host_lock_acquisitions, 0, "pass {i} was charged");
    }
    let engine_locks = engine.stats().host_lock_acquisitions - engine_locks_before;
    assert!(engine_locks >= 40, "the churner locked {engine_locks} times");
}

/// A same-host rebalance: with no second host to flee to, the victim is
/// moved onto a far node of its own machine (the same-host path
/// releases before it reserves, so overlapping node sets are legal).
#[test]
fn rebalance_can_move_within_one_host() {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        degradation_budget: Some(0.005),
        ..fast_config()
    });
    engine.add_machine(machines::amd_opteron_6272());
    let (_resident, victim) = {
        let resident = engine
            .place(&PlacementRequest::new("streamcluster", 4))
            .placed()
            .expect("empty fleet")
            .clone();
        let victim = engine
            .place(&PlacementRequest::new("WTbtree", 4).with_probe_seed(7))
            .placed()
            .expect("room")
            .clone();
        (resident, victim)
    };
    let report = engine.rebalance(&RebalancePolicy::default());
    assert_eq!(report.migrations.len(), 1);
    let m = &report.migrations[0];
    assert_eq!(m.from, MachineId(0));
    assert_eq!(m.to, MachineId(0));
    assert_ne!(
        m.placed.spec.nodes, victim.spec.nodes,
        "the move must change the node set"
    );
    assert!(m.degradation_after < m.degradation_before);
    // Occupancy stays exact: still exactly two containers' threads.
    assert_eq!(engine.utilisation(MachineId(0)).0, 8);
    engine.audit().unwrap();
    engine.release(&victim).unwrap();
    assert_eq!(engine.utilisation(MachineId(0)).0, 4);
}

/// Hysteresis, counting half: a ticket moved in pass `p` is skipped —
/// before any re-scoring — in every pass `q` with `q − p ≤ cooldown`,
/// counted in `suppressed_by_cooldown`, and re-examined the pass after
/// the window closes. With no pressure rebuilt, the counts are exact.
#[test]
fn cooldown_suppresses_rescans_until_the_window_expires() {
    let engine = two_amd(Some(0.005));
    let _pair = degraded_pair(&engine);
    let policy = RebalancePolicy::default().with_cooldown_passes(2);

    let r1 = engine.rebalance(&policy);
    assert_eq!(r1.pass, 1, "pass numbering is engine-wide and 1-based");
    assert_eq!(r1.migrations.len(), 1);
    assert_eq!(r1.suppressed_by_cooldown, 0, "nothing was cooling yet");
    let moved = r1.migrations[0].ticket;

    // Passes 2 and 3: the mover is inside its window — suppressed, and
    // the only cooling ticket, so the count is exactly one. The victim
    // is re-scored normally (within budget now) and stays.
    for expected_pass in [2u64, 3] {
        let r = engine.rebalance(&policy);
        assert_eq!(r.pass, expected_pass);
        assert_eq!(r.suppressed_by_cooldown, 1);
        assert!(
            !r.migrations.iter().any(|m| m.ticket == moved),
            "a cooling ticket must not be re-moved"
        );
        assert!(r.migrations.is_empty());
    }

    // Pass 4: the window expired; the mover is re-scored again — and
    // stays put on merit, it is already in its best home.
    let r4 = engine.rebalance(&policy);
    assert_eq!(r4.pass, 4);
    assert_eq!(r4.suppressed_by_cooldown, 0, "cooldown must expire");
    assert!(r4.migrations.is_empty());
    assert_eq!(engine.stats().rebalance_passes, 4);
}

/// Hysteresis, behavioural half: when real pressure is rebuilt against
/// a just-moved container, the cooldown is what stands between it and a
/// second freeze — inside the window it is suppressed even though it is
/// genuinely over budget again; the pass after expiry it re-moves.
#[test]
fn cooldown_suppresses_a_genuine_re_move_then_allows_it() {
    let engine = two_amd(Some(0.005));
    let (_resident, victim) = degraded_pair(&engine);
    let policy = RebalancePolicy::default().with_cooldown_passes(2);

    let r1 = engine.rebalance(&policy);
    assert_eq!(r1.migrations.len(), 1);
    let mover = r1.migrations[0].ticket;
    let new_home = r1.migrations[0].to;

    // Rebuild the pathology around the mover's new home: retire the
    // original partner, then admit a fresh one. The mover's half-node
    // is now the only broken-open node in the fleet, so the
    // pristine-averse retargeter stacks the newcomer right beside the
    // just-moved container — exactly the pairing pass 1 broke up.
    engine.release(&victim).expect("retire the original partner");
    let neighbour = engine
        .place(&PlacementRequest::new("WTbtree", 4).with_probe_seed(7))
        .placed()
        .expect("room beside the mover")
        .clone();
    assert_eq!(neighbour.machine, new_home);
    assert!(
        neighbour.interference_penalty < 1.0,
        "the neighbour must stack beside the mover"
    );

    // Pass 2: the pressure is real, but the mover is cooling — it must
    // not pay a second freeze. Relief is redirected onto the
    // non-cooling partner instead, which escapes.
    let r2 = engine.rebalance(&policy);
    assert!(r2.suppressed_by_cooldown >= 1, "the mover must be skipped");
    assert!(
        !r2.migrations.iter().any(|m| m.ticket == mover),
        "a cooling ticket must not be re-moved"
    );
    assert!(
        r2.migrations.iter().any(|m| m.ticket == neighbour.ticket),
        "with the mover frozen, the partner takes the move: {r2:?}"
    );

    // Pass 3: both are cooling now; nothing moves.
    let r3 = engine.rebalance(&policy);
    assert_eq!(r3.suppressed_by_cooldown, 2, "mover and partner both cooling");
    assert!(r3.migrations.is_empty());

    // Rebuild the pathology a second time, after the mover's window
    // (passes 2 and 3) has closed.
    engine.release(&neighbour).expect("retire the second partner");
    let neighbour = engine
        .place(&PlacementRequest::new("WTbtree", 4).with_probe_seed(7))
        .placed()
        .expect("room beside the mover")
        .clone();
    assert!(
        neighbour.interference_penalty < 1.0,
        "the rebuilt neighbour must stack beside the mover"
    );

    // Pass 4: the window closed and the pressure is back — this time
    // the mover itself pays the move.
    let r4 = engine.rebalance(&policy);
    assert!(
        r4.migrations.iter().any(|m| m.ticket == mover),
        "after the cooldown the still-degraded mover must re-move: {r4:?}"
    );
}

/// The per-pass moved-GB cap: with two cost-justified movers in one
/// pass and a cap that only pays for one, the second is deferred —
/// counted in `blocked_by_gb_cap`, executed by the next pass — and the
/// executed traffic never exceeds the cap.
#[test]
fn moved_gb_cap_defers_the_second_move_to_the_next_pass() {
    // Two independent copies of the degraded pair, one per node: two
    // streamclusters each stacked against a WTbtree on host 0.
    let build = || {
        let engine = two_amd(Some(0.005));
        for seed in [0u64, 1] {
            let s = engine
                .place(&PlacementRequest::new("streamcluster", 4).with_probe_seed(seed))
                .placed()
                .expect("room")
                .clone();
            assert_eq!(s.machine, MachineId(0));
            let w = engine
                .place(&PlacementRequest::new("WTbtree", 4).with_probe_seed(7 + seed))
                .placed()
                .expect("room")
                .clone();
            assert_eq!(w.machine, MachineId(0));
            assert!(w.interference_penalty < 1.0, "pair {seed} must interfere");
        }
        engine
    };

    // Control: uncapped, both moves execute in one pass — and the
    // hysteresis counters of a default policy stay zero.
    let control = build();
    let r = control.rebalance(&RebalancePolicy::default());
    assert_eq!(r.migrations.len(), 2, "uncapped pass fixes both pairs: {r:?}");
    assert_eq!(r.suppressed_by_cooldown, 0);
    assert_eq!(r.blocked_by_gb_cap, 0);
    let both_gb = r.moved_gb();
    assert!(both_gb > 0.0);

    // Capped at three quarters of the total: the first move fits, the
    // second must wait.
    let capped = build();
    let policy = RebalancePolicy::default().with_moved_gb_cap(both_gb * 0.75);
    let r1 = capped.rebalance(&policy);
    assert_eq!(r1.migrations.len(), 1, "the cap pays for one move: {r1:?}");
    // Two deferrals, not one: the second streamcluster hits the cap,
    // and because it then STAYS, its still-trapped partner is over
    // budget too — its cost-justified escape hits the same cap.
    assert_eq!(r1.blocked_by_gb_cap, 2, "the second pair is deferred, not dropped");
    assert!(r1.moved_gb() <= both_gb * 0.75 + 1e-9, "traffic respects the cap");

    // Deferred means next pass, not never.
    let r2 = capped.rebalance(&policy);
    assert_eq!(r2.migrations.len(), 1, "the deferred move executes: {r2:?}");
    assert_eq!(r2.blocked_by_gb_cap, 0);
    assert!(r2.moved_gb() <= both_gb * 0.75 + 1e-9);
    assert_eq!(
        r1.migrations.len() + r2.migrations.len(),
        2,
        "the cap spreads the same work over passes"
    );
}
