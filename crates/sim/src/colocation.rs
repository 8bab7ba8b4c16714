//! Co-location scenarios: a candidate container simulated *together
//! with* a host's resident containers.
//!
//! The single-container entry points of this crate answer "how fast is
//! this placement on an idle machine?" — the question the paper's model
//! is trained on. A serving fleet needs a second question answered:
//! "how fast is it *next to the containers already running here*?" This
//! module simulates the candidate and the residents in one
//! [`simulate`] call (the CPI stack already resolves cross-container
//! contention on caches, memory controllers and links) and reports
//! per-container degradation deltas against each container's solo run.
//!
//! Residents can be supplied explicitly (when the caller knows the real
//! workloads) or derived from an [`OccupancyMap`] via
//! [`residents_from_occupancy`]: one stand-in container per occupied
//! node, running [`resident_stand_in`] — a deliberately middle-of-road
//! memory profile, since a thread-reservation map records *where*
//! neighbours run but not *what* they run.
//!
//! [`simulate_co_location`] reports both directions of the damage and
//! so solves every container alone as well; a caller that only scores
//! the candidate uses [`simulate_candidate_penalty`], which solves two
//! systems however many residents there are.

use vc_topology::{Machine, OccupancyMap, ThreadId};
use vc_workloads::{Metric, Workload};

use crate::engine::{simulate, ContainerPerf, ContainerRun, SimConfig};

/// Joint simulation of one candidate and its co-resident containers,
/// with the solo baselines needed to express degradation.
#[derive(Debug, Clone)]
pub struct CoLocationReport {
    /// The candidate's performance with all residents running.
    pub candidate: ContainerPerf,
    /// The candidate alone on the machine (same assignment, same seed).
    pub candidate_solo: ContainerPerf,
    /// Each resident's performance with the candidate (and the other
    /// residents) running, input order.
    pub residents: Vec<ContainerPerf>,
    /// Each resident alone on the machine, input order.
    pub residents_solo: Vec<ContainerPerf>,
}

impl CoLocationReport {
    /// The candidate's multiplicative co-location penalty in `(0, 1]`:
    /// co-located throughput over solo throughput (clamped — the model
    /// never rewards contention).
    pub fn candidate_penalty(&self) -> f64 {
        penalty(&self.candidate, &self.candidate_solo)
    }

    /// `1 − penalty` for the candidate: the fraction of idle-host
    /// performance the neighbours cost, in `[0, 1)`.
    pub fn candidate_degradation(&self) -> f64 {
        1.0 - self.candidate_penalty()
    }

    /// Per-resident penalties in `(0, 1]`, input order — what admitting
    /// the candidate costs the containers already on the host.
    pub fn resident_penalties(&self) -> Vec<f64> {
        self.residents
            .iter()
            .zip(&self.residents_solo)
            .map(|(co, solo)| penalty(co, solo))
            .collect()
    }

    /// Per-resident degradations (`1 − penalty`), input order.
    pub fn resident_degradations(&self) -> Vec<f64> {
        self.resident_penalties().iter().map(|p| 1.0 - p).collect()
    }
}

fn penalty(co: &ContainerPerf, solo: &ContainerPerf) -> f64 {
    if solo.inst_per_sec <= 0.0 {
        return 1.0;
    }
    (co.inst_per_sec / solo.inst_per_sec).clamp(f64::MIN_POSITIVE, 1.0)
}

/// Simulates `candidate` together with `residents` on `machine` and
/// returns the joint performance plus each container's solo baseline.
///
/// All assignments must be pairwise thread-disjoint (the underlying
/// [`simulate`] panics otherwise — hardware threads host one vCPU).
/// The same `seed` is used for the joint run and every solo run, so
/// with `cfg.perf_noise == 0` the deltas are pure contention, no noise.
pub fn simulate_co_location(
    machine: &Machine,
    candidate: &ContainerRun,
    residents: &[ContainerRun],
    cfg: &SimConfig,
    seed: u64,
) -> CoLocationReport {
    let mut joint = simulate_joint(machine, candidate, residents, cfg, seed);
    let candidate_co = joint.remove(0);
    CoLocationReport {
        candidate: candidate_co,
        candidate_solo: simulate_solo(machine, candidate, cfg, seed),
        residents: joint,
        residents_solo: residents
            .iter()
            .map(|r| simulate_solo(machine, r, cfg, seed))
            .collect(),
    }
}

/// [`CoLocationReport::candidate_penalty`] of
/// [`simulate_co_location`] without the rest of the report: one joint
/// solve and the candidate's solo solve. The residents' solo baselines
/// — one more solve per resident — only feed the resident penalties,
/// which a caller scoring the *candidate* never reads.
pub fn simulate_candidate_penalty(
    machine: &Machine,
    candidate: &ContainerRun,
    residents: &[ContainerRun],
    cfg: &SimConfig,
    seed: u64,
) -> f64 {
    let joint = simulate_joint(machine, candidate, residents, cfg, seed);
    penalty(&joint[0], &simulate_solo(machine, candidate, cfg, seed))
}

/// Candidate first, residents after, one solve.
fn simulate_joint(
    machine: &Machine,
    candidate: &ContainerRun,
    residents: &[ContainerRun],
    cfg: &SimConfig,
    seed: u64,
) -> Vec<ContainerPerf> {
    let mut runs = Vec::with_capacity(1 + residents.len());
    runs.push(*candidate);
    runs.extend_from_slice(residents);
    simulate(machine, &runs, cfg, seed).per_container
}

fn simulate_solo(
    machine: &Machine,
    run: &ContainerRun,
    cfg: &SimConfig,
    seed: u64,
) -> ContainerPerf {
    simulate(machine, std::slice::from_ref(run), cfg, seed)
        .per_container
        .into_iter()
        .next()
        .expect("one container in, one out")
}

/// The stand-in profile for residents whose real workload is unknown: a
/// moderately memory- and cache-hungry container (mid-suite rates), so
/// sharing a node with it costs something without dominating the score
/// the way a pathological streaming neighbour would.
pub fn resident_stand_in() -> Workload {
    Workload {
        name: "resident".to_string(),
        family: "resident".to_string(),
        ipc_base: 1.2,
        mem_per_kinst: 18.0,
        ws_l2_mib: 0.4,
        ws_private_mib: 4.0,
        ws_shared_mib: 24.0,
        comm_per_kinst: 0.3,
        smt_pair_speedup: 1.6,
        cmt_pair_speedup: 1.65,
        mlp: 0.5,
        coop_prefetch: 0.1,
        anon_gb: 4.0,
        page_cache_gb: 1.0,
        thp_fraction: 0.0,
        processes: 1,
        metric: Metric::Ipc,
        inst_per_op: 10_000.0,
    }
}

/// Derives resident containers from an occupancy map: the used
/// threads, grouped into one container's assignment per occupied node
/// (node-id order). Lend each group to a [`ContainerRun`] together with
/// the workload the residents are assumed to run —
/// [`resident_stand_in`] when nothing better is known.
///
/// Per-node grouping keeps the stand-ins honest: a reservation map does
/// not say which threads belong to one container, and merging all used
/// threads into a single machine-spanning container would invent
/// cross-node communication the residents may not have.
pub fn residents_from_occupancy(machine: &Machine, occ: &OccupancyMap) -> Vec<Vec<ThreadId>> {
    let mut groups = vec![Vec::new(); machine.num_nodes()];
    for t in machine.threads().iter().filter(|t| !occ.is_free(t.id)) {
        groups[t.node.index()].push(t.id);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vc_core::assign::assign_vcpus;
    use vc_core::placement::PlacementSpec;
    use vc_topology::{machines, NodeId};
    use vc_workloads::suite::workload_by_name;

    /// `workload` on `threads` next to one stand-in resident per
    /// occupied node of `occ`, noise off.
    fn against_stand_ins(
        machine: &Machine,
        workload: &str,
        threads: &[ThreadId],
        occ: &OccupancyMap,
    ) -> CoLocationReport {
        let workload = workload_by_name(workload).unwrap();
        let stand_in = resident_stand_in();
        let groups = residents_from_occupancy(machine, occ);
        let residents: Vec<ContainerRun> = groups
            .iter()
            .map(|g| ContainerRun {
                workload: &stand_in,
                assignment: g,
            })
            .collect();
        let candidate = ContainerRun {
            workload: &workload,
            assignment: threads,
        };
        let cfg = SimConfig::interference_probe();
        let report = simulate_co_location(machine, &candidate, &residents, &cfg, 0);
        assert_eq!(
            simulate_candidate_penalty(machine, &candidate, &residents, &cfg, 0).to_bits(),
            report.candidate_penalty().to_bits(),
            "the candidate-only path must report the full report's penalty"
        );
        report
    }

    #[test]
    fn stand_in_is_a_valid_workload() {
        resident_stand_in().validate().unwrap();
    }

    #[test]
    fn empty_occupancy_derives_no_residents() {
        let amd = machines::amd_opteron_6272();
        let occ = OccupancyMap::new(&amd);
        assert!(residents_from_occupancy(&amd, &occ).is_empty());
    }

    #[test]
    fn residents_are_grouped_per_occupied_node() {
        let amd = machines::amd_opteron_6272();
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&amd.threads_on_node(NodeId(2))).unwrap();
        occ.reserve(&amd.threads_on_node(NodeId(5))[..4]).unwrap();
        let residents = residents_from_occupancy(&amd, &occ);
        assert_eq!(residents.len(), 2);
        assert_eq!(residents[0].len(), 8);
        assert_eq!(residents[1].len(), 4);
        for r in &residents {
            let node = amd.thread(r[0]).node;
            assert!(r.iter().all(|&t| amd.thread(t).node == node));
            assert!(r.iter().all(|&t| !occ.is_free(t)));
        }
    }

    /// Node 0 of the AMD machine split in two: the back half (modules 2
    /// and 3) for a 4-vCPU candidate, the front half for residents.
    fn half_node_split(amd: &Machine) -> (Vec<ThreadId>, Vec<ThreadId>) {
        let node0 = amd.threads_on_node(NodeId(0));
        (node0[4..].to_vec(), node0[..4].to_vec())
    }

    #[test]
    fn node_sharing_residents_degrade_the_candidate() {
        let amd = machines::amd_opteron_6272();
        let (candidate, other_half) = half_node_split(&amd);
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&other_half).unwrap();
        let report = against_stand_ins(&amd, "streamcluster", &candidate, &occ);
        assert!(
            report.candidate_penalty() < 0.99,
            "bandwidth-bound candidate must feel node-sharing residents: {}",
            report.candidate_penalty()
        );
        assert_eq!(report.resident_degradations().len(), 1);
        for d in report.resident_degradations() {
            assert!((0.0..1.0).contains(&d));
            assert!(
                d > 0.0,
                "the candidate must also cost the residents something"
            );
        }
    }

    #[test]
    fn disjoint_nodes_interfere_less_than_shared_nodes() {
        let amd = machines::amd_opteron_6272();
        let (candidate, other_half) = half_node_split(&amd);
        // Residents far away (node 2) vs on the candidate's own node.
        let mut far = OccupancyMap::new(&amd);
        far.reserve(&amd.threads_on_node(NodeId(2))[..4]).unwrap();
        let mut near = OccupancyMap::new(&amd);
        near.reserve(&other_half).unwrap();
        let far_report = against_stand_ins(&amd, "streamcluster", &candidate, &far);
        let near_report = against_stand_ins(&amd, "streamcluster", &candidate, &near);
        assert!(
            near_report.candidate_penalty() < far_report.candidate_penalty(),
            "near {} vs far {}",
            near_report.candidate_penalty(),
            far_report.candidate_penalty()
        );
        assert!(
            far_report.candidate_penalty() > 0.999,
            "node-disjoint, link-free residents should cost almost nothing: {}",
            far_report.candidate_penalty()
        );
    }

    #[test]
    fn report_is_deterministic_with_noise_off() {
        let amd = machines::amd_opteron_6272();
        let spec = PlacementSpec::on_nodes(8, vec![NodeId(3)], 4);
        let candidate = assign_vcpus(&amd, &spec).unwrap();
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&amd.threads_on_node(NodeId(2))).unwrap();
        let a = against_stand_ins(&amd, "canneal", &candidate, &occ);
        let b = against_stand_ins(&amd, "canneal", &candidate, &occ);
        assert_eq!(a.candidate_penalty(), b.candidate_penalty());
        assert_eq!(a.resident_penalties(), b.resident_penalties());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Interference-adjusted scores are monotone in co-resident
        /// load: reserving *more* neighbour threads on the candidate's
        /// nodes never increases the candidate's penalty.
        #[test]
        fn penalty_is_monotone_in_co_resident_load(
            extra in 1usize..8,
            base in 0usize..7,
        ) {
            let amd = machines::amd_opteron_6272();
            let (candidate, other_half) = half_node_split(&amd);
            // Resident load grows over the candidate's own node first,
            // then spills onto node 1.
            let free: Vec<ThreadId> = other_half
                .into_iter()
                .chain(amd.threads_on_node(NodeId(1)))
                .collect();
            let lighter = base.min(free.len());
            let heavier = (base + extra).min(free.len());
            prop_assume!(heavier > lighter);

            let penalty_for = |n: usize| {
                let mut occ = OccupancyMap::new(&amd);
                occ.reserve(&free[..n]).unwrap();
                against_stand_ins(&amd, "streamcluster", &candidate, &occ).candidate_penalty()
            };
            let light = penalty_for(lighter);
            let heavy = penalty_for(heavier);
            prop_assert!(
                heavy <= light + 1e-9,
                "more co-resident load increased the score: {} threads -> {}, {} threads -> {}",
                lighter, light, heavier, heavy
            );
        }
    }
}
