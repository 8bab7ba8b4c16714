//! Arrivals, departures and periodic rebalancing interleaved on one
//! engine — the fleet life cycle a long-running placement service sees:
//!
//! * departures hand their exact threads back, so a full host admits
//!   again after containers leave;
//! * the ticket, not the handle's machine or thread list, is what a
//!   release resolves — handles rebuilt from the registry drain a fleet
//!   a rebalance pass has rearranged;
//! * rebalance ticks on a budget-less engine leave a churning decision
//!   stream bit-for-bit unchanged;
//! * with a budget, periodic passes move and price containers while
//!   others come and go, and [`RebalanceTotals`] is the sum of the
//!   passes' reports;
//! * whatever the interleaving, every host's registry owns exactly its
//!   occupancy's threads (`audit()`), and every container drains by its
//!   admission-time handle;
//! * admission's pruned, memoised scoring commits exactly what an
//!   unmemoised full scan decides, through churn and passes.

use std::sync::OnceLock;

use proptest::prelude::*;
use vc_engine::{
    BatchStrategy, EngineConfig, MachineId, Placed, PlacementDecision, PlacementEngine,
    PlacementRequest, RebalancePolicy, RebalanceReport, RebalanceTotals,
};
use vc_topology::machines;

#[path = "support/config.rs"]
mod config;
#[path = "support/reference.rs"]
mod reference;

use config::fast_config;

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

/// One step of a churn script.
enum Op {
    /// Place this request first-fit.
    Arrive(PlacementRequest),
    /// Release the container admitted by the `n`-th arrival, if it is
    /// still live.
    Depart(usize),
    /// Run one rebalance pass, then audit the engine.
    Tick,
}

/// What a script did: each arrival's placement (`None` when rejected),
/// and every tick's report.
struct Run {
    arrivals: Vec<Option<Placed>>,
    passes: Vec<RebalanceReport>,
}

/// Drives `ops` against `engine`. Ticks are skipped without `policy`.
/// Departures release by the admission-time handle, wherever a pass may
/// have moved the container since.
fn run(engine: &PlacementEngine, ops: &[Op], policy: Option<&RebalancePolicy>) -> Run {
    let mut out = Run {
        arrivals: Vec::new(),
        passes: Vec::new(),
    };
    let mut live: Vec<bool> = Vec::new();
    for op in ops {
        match op {
            Op::Arrive(req) => {
                let decision = engine
                    .place_batch(std::slice::from_ref(req), BatchStrategy::FirstFit)
                    .pop()
                    .expect("one decision per request");
                live.push(decision.placed().is_some());
                out.arrivals.push(decision.placed().cloned());
            }
            Op::Depart(n) => {
                if std::mem::take(&mut live[*n]) {
                    let handle = out.arrivals[*n].as_ref().expect("live means placed");
                    engine.release(handle).expect("a live container releases");
                }
            }
            Op::Tick => {
                if let Some(policy) = policy {
                    out.passes.push(engine.rebalance(policy));
                    engine
                        .audit()
                        .expect("registry matches occupancy after a pass");
                }
            }
        }
    }
    out
}

/// Releases every container the script left live by its admission
/// handle, then checks the fleet is empty and consistent.
fn drain(engine: &PlacementEngine, run: &Run, ops: &[Op]) {
    let mut departed = vec![false; run.arrivals.len()];
    for op in ops {
        if let Op::Depart(n) = op {
            departed[*n] = true;
        }
    }
    for (placed, gone) in run.arrivals.iter().zip(departed) {
        if let (Some(p), false) = (placed, gone) {
            engine
                .release(p)
                .expect("every live container releases by ticket");
        }
    }
    assert_eq!(engine.num_residents(), 0);
    for id in engine.machine_ids() {
        assert_eq!(engine.utilisation(id).0, 0, "machine {id:?} must drain");
    }
    engine.audit().unwrap();
}

/// A full host rejects, naming the exhausted node; two departures later
/// two arrivals fit again, on exactly the threads the departures freed.
#[test]
fn departures_make_room_for_later_arrivals() {
    let engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let req = |seed| PlacementRequest::new("swaptions", 16).with_probe_seed(seed);
    let first: Vec<Placed> = (0..4)
        .map(|s| engine.place(&req(s)).placed().expect("room").clone())
        .collect();
    assert_eq!(engine.utilisation(MachineId(0)).0, 64);

    match engine.place(&req(4)) {
        PlacementDecision::Rejected { reason } => {
            assert!(
                reason.contains("node N"),
                "reason must name a node: {reason}"
            )
        }
        PlacementDecision::Placed(p) => panic!("a full host admitted {:?}", p.spec.nodes),
    }

    engine.release(&first[0]).unwrap();
    engine.release(&first[2]).unwrap();
    assert_eq!(engine.utilisation(MachineId(0)).0, 32);
    let mut freed: Vec<_> = [&first[0], &first[2]]
        .iter()
        .flat_map(|p| p.threads.iter().copied())
        .collect();
    let later: Vec<Placed> = (5..7)
        .map(|s| engine.place(&req(s)).placed().expect("freed room").clone())
        .collect();
    let mut reused: Vec<_> = later
        .iter()
        .flat_map(|p| p.threads.iter().copied())
        .collect();
    freed.sort();
    reused.sort();
    assert_eq!(reused, freed, "newcomers take exactly the departed threads");
    assert_eq!(engine.utilisation(MachineId(0)).0, 64);
    engine.audit().unwrap();
}

/// After a rebalance pass rearranged the fleet, handles rebuilt from the
/// registry — carrying only the right ticket, naming the other host and
/// no threads — still release every resident; the ticket is the
/// authority. Releasing them twice is refused.
#[test]
fn handles_rebuilt_from_the_registry_release_every_resident() {
    let engine = two_amd(Some(0.005));
    for (workload, seed) in [("streamcluster", 0), ("WTbtree", 7)] {
        let p = engine
            .place(&PlacementRequest::new(workload, 4).with_probe_seed(seed))
            .placed()
            .expect("room")
            .clone();
        assert_eq!(p.machine, MachineId(0));
    }
    let report = engine.rebalance(&RebalancePolicy::default());
    assert!(
        !report.migrations.is_empty(),
        "the degraded pair must be split"
    );

    let rebuilt: Vec<Placed> = engine
        .machine_ids()
        .into_iter()
        .flat_map(|id| engine.residents(id).into_iter().map(move |r| (id, r)))
        .map(|(id, r)| Placed {
            ticket: r.ticket,
            machine: MachineId(1 - id.0),
            placement_id: r.placement_id,
            spec: r.spec,
            threads: Vec::new(),
            predicted_perf: r.predicted_perf,
            interference_penalty: r.interference_penalty,
            goal_perf: r.goal_perf,
            goal_met: true,
        })
        .collect();
    assert_eq!(rebuilt.len(), 2);
    for handle in &rebuilt {
        engine
            .release(handle)
            .expect("the ticket resolves the resident");
    }
    assert_eq!(engine.num_residents(), 0);
    assert_eq!(engine.utilisation(MachineId(0)).0, 0);
    assert_eq!(engine.utilisation(MachineId(1)).0, 0);
    for handle in &rebuilt {
        assert!(
            engine.release(handle).is_err(),
            "a double release is refused"
        );
    }
    assert_eq!(engine.stats().release_failures, 2);
    engine.audit().unwrap();
}

/// Interference-scored arrivals and departures with a tick every other
/// arrival: small containers that co-locate, and departures that free
/// threads between passes.
fn mixed_script() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..12 {
        let (workload, vcpus) = [("streamcluster", 4), ("WTbtree", 8)][i % 2];
        ops.push(Op::Arrive(
            PlacementRequest::new(workload, vcpus).with_probe_seed(i as u64),
        ));
        if i % 3 == 2 {
            ops.push(Op::Depart(i - 2));
        }
        if i % 2 == 1 {
            ops.push(Op::Tick);
        }
    }
    ops
}

/// The default stays bit-for-bit: with `degradation_budget` unset, a
/// churning script with rebalance ticks commits exactly what the same
/// script commits without them — the passes run but scan nothing.
#[test]
fn budgetless_rebalance_ticks_under_churn_change_nothing() {
    let ops = mixed_script();
    let plain_engine = two_amd(None);
    let plain = run(&plain_engine, &ops, None);
    let ticked_engine = two_amd(None);
    let ticked = run(&ticked_engine, &ops, Some(&RebalancePolicy::default()));

    let mut totals = RebalanceTotals::default();
    for report in &ticked.passes {
        totals.absorb(report);
    }
    assert_eq!(totals.passes, 6, "every tick runs a pass");
    assert_eq!(totals.scanned, 0, "no budget, nothing scanned");
    assert_eq!(totals.migrations, 0);
    assert_eq!(plain.arrivals.len(), ticked.arrivals.len());
    for (i, (a, b)) in plain.arrivals.iter().zip(&ticked.arrivals).enumerate() {
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.machine, y.machine, "arrival {i}");
                assert_eq!(x.threads, y.threads, "arrival {i}");
                assert_eq!(
                    x.predicted_perf.to_bits(),
                    y.predicted_perf.to_bits(),
                    "arrival {i}"
                );
            }
            (None, None) => {}
            _ => panic!("arrival {i}: decisions diverged"),
        }
    }
    drain(&plain_engine, &plain, &ops);
    drain(&ticked_engine, &ticked, &ops);
}

/// With a tight budget, periodic passes under churn move degraded
/// containers and price every move; departures of moved containers
/// release by their admission handles mid-run; and the totals of the
/// run are the sums of its passes' reports.
#[test]
fn periodic_rebalance_under_churn_moves_and_prices_containers() {
    let engine = two_amd(Some(0.005));
    // Three rounds of the co-location pathology: a streaming container,
    // a WiredTiger stacked beside it, a pass, then the previous round's
    // streaming container departs from wherever the pass put it.
    let mut ops = Vec::new();
    for round in 0..3u64 {
        ops.push(Op::Arrive(
            PlacementRequest::new("streamcluster", 4).with_probe_seed(round),
        ));
        ops.push(Op::Arrive(
            PlacementRequest::new("WTbtree", 4).with_probe_seed(7 + round),
        ));
        ops.push(Op::Tick);
        if round > 0 {
            ops.push(Op::Depart(2 * (round as usize - 1)));
        }
    }
    ops.push(Op::Tick);
    let out = run(&engine, &ops, Some(&RebalancePolicy::default()));
    assert!(
        out.arrivals.iter().all(Option::is_some),
        "the fleet has room"
    );

    let mut totals = RebalanceTotals::default();
    for report in &out.passes {
        totals.absorb(report);
    }
    assert_eq!(totals.passes, 4);
    assert!(totals.scanned > 0);
    assert!(
        !out.passes[0].migrations.is_empty(),
        "the first pass must split the first pair"
    );
    let moves: usize = out.passes.iter().map(|r| r.migrations.len()).sum();
    assert_eq!(totals.migrations, moves);
    let moved_gb: f64 = out.passes.iter().map(RebalanceReport::moved_gb).sum();
    assert!((totals.moved_gb - moved_gb).abs() < 1e-9);
    assert!(totals.moved_gb > 0.0);
    assert!(totals.frozen_s > 0.0, "fast migration freezes the mover");
    assert!(
        totals.mean_degradation_after() < totals.mean_degradation_before(),
        "after {} !< before {}",
        totals.mean_degradation_after(),
        totals.mean_degradation_before()
    );
    drain(&engine, &out, &ops);
    assert_eq!(engine.stats().release_failures, 0);
}

/// Admission skips the penalty lookups of classes that cannot beat the
/// best so far, and reads the rest from the memo; neither may change a
/// decision. Single-threaded churn on three hosts — arrivals of 2, 4, 8
/// and 16 vCPUs under FirstFit and BestScore, departures, rebalance
/// passes — where every admission must equal the reference's full scan,
/// each class's penalty asked straight from the oracle, bit for bit.
#[test]
fn pruned_admissions_equal_the_unmemoised_full_scan() {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        degradation_budget: Some(0.01),
        ..fast_config()
    });
    for _ in 0..3 {
        engine.add_machine(machines::amd_opteron_6272());
    }
    let workloads = ["streamcluster", "WTbtree", "swaptions", "canneal"];
    let strategies = [BatchStrategy::FirstFit, BatchStrategy::BestScore];
    let mut live: Vec<Placed> = Vec::new();
    let (mut penalised, mut rejected) = (0, 0);
    for i in 0..60usize {
        let req = PlacementRequest::new(workloads[i % 4], [2, 4, 8, 16][i / 3 % 4])
            .with_goal([0.0, 0.0, 0.9][i % 3])
            .with_probe_seed(i as u64);
        let strategy = strategies[i / 2 % 2];
        match reference::place_checked(&engine, &req, strategy, &format!("arrival {i}")) {
            Some(placed) => {
                penalised += usize::from(placed.interference_penalty < 1.0);
                live.push(placed);
            }
            None => rejected += 1,
        }
        if i % 3 == 2 && !live.is_empty() {
            let gone = live.remove(i * 7 % live.len());
            engine.release(&gone).unwrap();
        }
        if i % 10 == 9 {
            engine.rebalance(&RebalancePolicy::default());
            engine.audit().unwrap();
        }
    }
    assert!(penalised >= 20, "only {penalised} admissions priced a neighbour");
    assert!(rejected > 0, "the fleet must fill up");
    for placed in &live {
        engine.release(placed).unwrap();
    }
    engine.audit().unwrap();
}

/// One engine shared by every case: models warm up once, and each case
/// drains what it placed.
fn churn_engine() -> &'static PlacementEngine {
    static ENGINE: OnceLock<PlacementEngine> = OnceLock::new();
    ENGINE.get_or_init(|| two_amd(Some(0.01)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Registry↔occupancy equivalence through churn *with* rebalancing:
    /// after every pass each host's registry owns exactly its
    /// occupancy's used threads, pairwise disjoint (`audit()` inside
    /// `run`), and every container drains by its admission handle.
    #[test]
    fn registry_matches_occupancy_through_churn_with_rebalancing(
        steps in proptest::collection::vec((0u8..6, 0u64..1000), 6..20),
    ) {
        let engine = churn_engine();
        let pool = [("streamcluster", 4), ("swaptions", 8), ("WTbtree", 4)];
        let mut ops = Vec::new();
        let mut arrivals = 0;
        for (op, seed) in steps {
            match op {
                0 if arrivals > 0 => ops.push(Op::Depart(seed as usize % arrivals)),
                1 => ops.push(Op::Tick),
                _ => {
                    let (workload, vcpus) = pool[seed as usize % pool.len()];
                    ops.push(Op::Arrive(
                        PlacementRequest::new(workload, vcpus).with_probe_seed(seed),
                    ));
                    arrivals += 1;
                }
            }
        }
        ops.push(Op::Tick);
        let out = run(engine, &ops, Some(&RebalancePolicy::default()));
        prop_assert_eq!(out.arrivals.len(), arrivals);
        drain(engine, &out, &ops);
    }
}
