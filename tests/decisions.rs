//! Decision goldens: small deterministic scripts driven through the
//! engine's public API, each folded into one FNV-1a digest of
//! everything the engine answered — every [`Placed`] field (floats by
//! their bits), every rejection string and every [`RebalanceReport`]
//! count. A refactor that claims "bit-for-bit" keeps every digest; a
//! change that alters behaviour on purpose re-pins the constants below
//! (the failing assertion prints the new value) and says why.
//!
//! The scripts:
//! * FirstFit, then BestScore batches on a mixed AMD/Intel fleet, with
//!   interference scoring off and on;
//! * churn — arrivals, departures by admission handle and rebalance
//!   passes under a two-pass move cooldown;
//! * a first place at each size in {2, 4, 8, 16, 32};
//! * the AMD sizes with a single important placement (1 and 64 vCPUs).
//!
//! The corpus is small (paper suite only, 2 seeds, 20 trees), so the
//! suite trains in seconds.

use vcplace::engine::{
    BatchStrategy, EngineConfig, Placed, PlacementDecision, PlacementEngine, PlacementRequest,
    RebalancePolicy, RebalanceReport,
};
use vcplace::ml::forest::ForestConfig;
use vcplace::topology::machines;

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn placed(&mut self, p: &Placed) {
        self.u64(p.ticket.0);
        self.usize(p.machine.0);
        self.usize(p.placement_id);
        self.usize(p.spec.vcpus);
        self.usize(p.spec.nodes.len());
        for n in &p.spec.nodes {
            self.usize(n.index());
        }
        self.usize(p.spec.l3_groups_used);
        self.usize(p.spec.l2_groups_used);
        self.usize(p.threads.len());
        for t in &p.threads {
            self.usize(t.index());
        }
        self.f64(p.predicted_perf);
        self.f64(p.interference_penalty);
        self.f64(p.goal_perf);
        self.u64(u64::from(p.goal_met));
    }

    fn decision(&mut self, d: &PlacementDecision) {
        match d {
            PlacementDecision::Placed(p) => {
                self.u64(1);
                self.placed(p);
            }
            PlacementDecision::Rejected { reason } => {
                self.u64(0);
                self.str(reason);
            }
        }
    }

    fn report(&mut self, r: &RebalanceReport) {
        for count in [
            r.scanned,
            r.over_budget,
            r.migrations.len(),
            r.blocked_no_target,
            r.blocked_by_cost,
            r.failed_commits,
            r.suppressed_by_cooldown,
            r.blocked_by_gb_cap,
        ] {
            self.usize(count);
        }
        self.u64(r.host_lock_acquisitions);
        self.u64(r.pass);
        for m in &r.migrations {
            self.u64(m.ticket.0);
            self.str(&m.workload);
            self.usize(m.from.0);
            self.usize(m.to.0);
            self.f64(m.degradation_before);
            self.f64(m.degradation_after);
            self.f64(m.estimate.moved_gb);
            self.f64(m.estimate.frozen_s);
            self.f64(m.estimate.duration_s);
            self.placed(&m.placed);
        }
    }
}

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

/// Two AMD Opteron 6272 hosts and one Intel E7-4830 v3 (baseline 1).
fn mixed_fleet(interference: bool) -> PlacementEngine {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference,
        ..fast_config()
    });
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
    engine
}

/// 30 requests over four workloads, three sizes and four goals — more
/// than the fleet holds, so the tail is rejected for capacity, and the
/// 1.1 goals are rejected for prediction.
fn batch() -> Vec<PlacementRequest> {
    (0..30u64)
        .map(|i| {
            let workload = ["WTbtree", "streamcluster", "swaptions", "canneal"][i as usize % 4];
            let vcpus = [4, 8, 16][i as usize % 3];
            let goal = [0.0, 0.9, 1.0, 1.1][(i as usize / 3) % 4];
            PlacementRequest::new(workload, vcpus)
                .with_goal(goal)
                .with_probe_seed(i)
        })
        .collect()
}

/// Digest of a FirstFit batch, then — after every container left — a
/// BestScore batch of the same requests on the same engine.
fn batches(interference: bool) -> (u64, u64) {
    let engine = mixed_fleet(interference);
    let reqs = batch();
    let mut out = Vec::new();
    for strategy in [BatchStrategy::FirstFit, BatchStrategy::BestScore] {
        let mut digest = Digest::new();
        let decisions = engine.place_batch(&reqs, strategy);
        for d in &decisions {
            digest.decision(d);
        }
        assert!(
            decisions.iter().any(|d| d.placed().is_none()),
            "{strategy:?} rejects some"
        );
        let penalised = decisions
            .iter()
            .filter_map(PlacementDecision::placed)
            .any(|p| p.interference_penalty < 1.0);
        assert_eq!(
            penalised, interference,
            "{strategy:?} scores the neighbours"
        );
        engine.audit().unwrap();
        for placed in decisions.iter().filter_map(PlacementDecision::placed) {
            engine.release(placed).unwrap();
        }
        out.push(digest.0);
    }
    (out[0], out[1])
}

const FIRST_FIT_OFF: u64 = 13007787163618240530;
const BEST_SCORE_OFF: u64 = 4503015622538748203;
const FIRST_FIT_ON: u64 = 4548725876154697658;
/// Re-pinned when the interference memo's key became the oracle's whole
/// input: the per-node-count key let a penalty computed for one layout
/// answer a lookup for another with equal per-node counts, and this
/// batch's decisions read such answers.
const BEST_SCORE_ON: u64 = 3419654098555048758;
const CHURN: u64 = 7838634715244767095;
const FIRST_PLACES: u64 = 604166572610000849;
const SINGLE_PLACEMENT_SIZES: u64 = 12942783840878557332;

#[test]
fn batches_with_interference_off() {
    assert_eq!(
        batches(false),
        (FIRST_FIT_OFF, BEST_SCORE_OFF),
        "(FirstFit, BestScore)"
    );
}

#[test]
fn batches_with_interference_on() {
    assert_eq!(
        batches(true),
        (FIRST_FIT_ON, BEST_SCORE_ON),
        "(FirstFit, BestScore)"
    );
}

/// Four rounds of the co-location pathology on two AMD hosts — a
/// streaming container, a WiredTiger stacked beside it, a swaptions
/// filler — each followed by a rebalance pass; from the second round on,
/// the previous round's streaming container departs by its admission
/// handle, wherever a pass moved it. Two trailing passes let the
/// cooldown expire.
#[test]
fn churn_with_rebalance_passes_under_a_cooldown() {
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        degradation_budget: Some(0.005),
        ..fast_config()
    });
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    let policy = RebalancePolicy::default().with_cooldown_passes(2);

    let mut digest = Digest::new();
    let mut live: Vec<Placed> = Vec::new();
    let (mut migrations, mut suppressed) = (0, 0);
    let mut pass = |engine: &PlacementEngine, digest: &mut Digest| {
        let report = engine.rebalance(&policy);
        digest.report(&report);
        engine.audit().unwrap();
        migrations += report.migrations.len();
        suppressed += report.suppressed_by_cooldown;
    };
    for round in 0..4u64 {
        for (workload, vcpus, seed) in [
            ("streamcluster", 4, round),
            ("WTbtree", 4, 7 + round),
            ("swaptions", 8, 20 + round),
        ] {
            let decision =
                engine.place(&PlacementRequest::new(workload, vcpus).with_probe_seed(seed));
            digest.decision(&decision);
            live.extend(decision.placed().cloned());
        }
        pass(&engine, &mut digest);
        if round > 0 {
            let departing = live.remove(0);
            engine.release(&departing).unwrap();
            digest.u64(departing.ticket.0);
        }
    }
    pass(&engine, &mut digest);
    pass(&engine, &mut digest);
    assert!(migrations > 0, "the passes must move something");
    assert!(suppressed > 0, "the cooldown must suppress something");
    for placed in &live {
        engine.release(placed).unwrap();
    }
    assert_eq!(engine.num_residents(), 0);
    engine.audit().unwrap();
    assert_eq!(digest.0, CHURN, "churn with rebalance passes");
}

/// The first placement at each size trains that size's models for both
/// machine classes; the containers stay, so later sizes see an
/// occupied host 0.
#[test]
fn first_place_at_each_size() {
    let mut engine = PlacementEngine::new(fast_config());
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
    let mut digest = Digest::new();
    for vcpus in [2, 4, 8, 16, 32] {
        let req = PlacementRequest::new("WTbtree", vcpus).with_probe_seed(vcpus as u64);
        digest.decision(&engine.place(&req));
    }
    engine.audit().unwrap();
    assert_eq!(digest.0, FIRST_PLACES, "first place at each size");
}

/// 1 and 64 vCPUs have one important placement on the AMD 6272: the one
/// probe is the prediction. A full host then rejects the next container.
#[test]
fn single_placement_amd_sizes() {
    let engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_config());
    let mut digest = Digest::new();
    let one = engine.place(&PlacementRequest::new("swaptions", 1));
    digest.decision(&one);
    engine.release(one.placed().expect("an idle host")).unwrap();
    let all = engine.place(&PlacementRequest::new("WTbtree", 64).with_goal(0.9));
    digest.decision(&all);
    let rejected = engine.place(&PlacementRequest::new("swaptions", 1).with_probe_seed(3));
    assert!(rejected.placed().is_none(), "a full host rejects");
    digest.decision(&rejected);
    engine.audit().unwrap();
    assert_eq!(digest.0, SINGLE_PLACEMENT_SIZES, "single-placement sizes");
}
