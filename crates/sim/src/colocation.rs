//! Co-location scenarios: a candidate container simulated *together
//! with* a host's resident containers — the real containers already on
//! the host, each running its own workload on the threads it holds.
//!
//! The paper's model answers "how fast is this placement on an idle
//! machine?"; a serving fleet also asks "how fast is it *next to the
//! containers already running here*?" This module solves the candidate
//! and the residents together in one [`rates`] call under
//! [`Profile::Probe`], which has no noise, and reports each container's
//! degradation against its solo run: pure contention on caches, memory
//! controllers and links, a pure function of the input.
//!
//! [`simulate_co_location`] reports both directions of the damage and
//! so solves every container alone as well; a caller that only scores
//! the candidate uses [`simulate_candidate_penalty`], which solves two
//! systems however many residents there are. Every penalty either
//! reports passes through one clamp into `(0, 1]`, NaN included.
//!
//! These functions solve on every call. The engine's scoring path asks
//! [`SimOracle::penalty`](crate::SimOracle::penalty) instead, which
//! memoises [`simulate_candidate_penalty`] per input.

use vc_topology::Machine;

use crate::engine::{rates, ContainerRun, Profile};

/// Joint instruction rates of one candidate and its co-resident
/// containers, with the solo rates needed to express degradation, all
/// under [`Profile::Probe`].
#[derive(Debug, Clone)]
pub struct CoLocationReport {
    /// The candidate's rate with all residents running.
    pub candidate: f64,
    /// The candidate's rate alone on the machine (same assignment).
    pub candidate_solo: f64,
    /// Each resident's rate with the candidate (and the other
    /// residents) running, input order.
    pub residents: Vec<f64>,
    /// Each resident's rate alone on the machine, input order.
    pub residents_solo: Vec<f64>,
}

impl CoLocationReport {
    /// The candidate's multiplicative co-location penalty in `(0, 1]`:
    /// co-located throughput over solo throughput (clamped — the model
    /// never rewards contention).
    pub fn candidate_penalty(&self) -> f64 {
        penalty(self.candidate, self.candidate_solo)
    }

    /// Per-resident penalties in `(0, 1]`, input order — what admitting
    /// the candidate costs the containers already on the host.
    pub fn resident_penalties(&self) -> Vec<f64> {
        self.residents
            .iter()
            .zip(&self.residents_solo)
            .map(|(&co, &solo)| penalty(co, solo))
            .collect()
    }
}

/// `co`'s throughput over `solo`'s, in `(0, 1]`: the one clamp every
/// penalty of this crate passes through. The model never rewards
/// contention, so a speed-up (`+∞` included) is `1.0`; and a ratio that
/// is not a number at all — NaN from a degenerate run — costs nothing
/// either, where `f64::clamp` would pass it through.
fn penalty(co: f64, solo: f64) -> f64 {
    if solo <= 0.0 {
        return 1.0;
    }
    let ratio = co / solo;
    if ratio.is_nan() {
        1.0
    } else {
        ratio.clamp(f64::MIN_POSITIVE, 1.0)
    }
}

/// Solves `candidate` together with `residents` on `machine` and
/// returns the joint rates plus each container's solo rate.
///
/// All assignments must be pairwise thread-disjoint ([`rates`] panics
/// otherwise — hardware threads host one vCPU).
pub fn simulate_co_location(
    machine: &Machine,
    candidate: &ContainerRun,
    residents: &[ContainerRun],
) -> CoLocationReport {
    let mut co = joint(machine, candidate, residents);
    CoLocationReport {
        candidate: co.remove(0),
        candidate_solo: solo(machine, candidate),
        residents: co,
        residents_solo: residents.iter().map(|r| solo(machine, r)).collect(),
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
) -> f64 {
    penalty(
        joint(machine, candidate, residents)[0],
        solo(machine, candidate),
    )
}

/// Candidate first, residents after, one solve.
fn joint(machine: &Machine, candidate: &ContainerRun, residents: &[ContainerRun]) -> Vec<f64> {
    let mut runs = Vec::with_capacity(1 + residents.len());
    runs.push(*candidate);
    runs.extend_from_slice(residents);
    rates(machine, &runs, Profile::Probe)
}

fn solo(machine: &Machine, run: &ContainerRun) -> f64 {
    rates(machine, std::slice::from_ref(run), Profile::Probe)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vc_core::assign::assign_vcpus;
    use vc_core::placement::PlacementSpec;
    use vc_topology::{machines, NodeId, ThreadId};
    use vc_workloads::suite::workload_by_name;

    /// `workload` on `threads` next to one `neighbour` container per
    /// group of `neighbours`.
    fn against(
        machine: &Machine,
        workload: &str,
        threads: &[ThreadId],
        neighbour: &str,
        neighbours: &[Vec<ThreadId>],
    ) -> CoLocationReport {
        let workload = workload_by_name(workload).unwrap();
        let neighbour = workload_by_name(neighbour).unwrap();
        let residents: Vec<ContainerRun> = neighbours
            .iter()
            .map(|g| ContainerRun {
                workload: &neighbour,
                assignment: g,
            })
            .collect();
        let candidate = ContainerRun {
            workload: &workload,
            assignment: threads,
        };
        let report = simulate_co_location(machine, &candidate, &residents);
        assert_eq!(
            simulate_candidate_penalty(machine, &candidate, &residents).to_bits(),
            report.candidate_penalty().to_bits(),
            "the candidate-only path must report the full report's penalty"
        );
        report
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
        let report = against(&amd, "streamcluster", &candidate, "canneal", &[other_half]);
        assert!(
            report.candidate_penalty() < 0.99,
            "bandwidth-bound candidate must feel node-sharing residents: {}",
            report.candidate_penalty()
        );
        assert_eq!(report.resident_penalties().len(), 1);
        for p in report.resident_penalties() {
            assert!(p > 0.0);
            assert!(
                p < 1.0,
                "the candidate must also cost the residents something"
            );
        }
    }

    #[test]
    fn disjoint_nodes_interfere_less_than_shared_nodes() {
        let amd = machines::amd_opteron_6272();
        let (candidate, other_half) = half_node_split(&amd);
        // Residents far away (node 2) vs on the candidate's own node.
        let far = amd.threads_on_node(NodeId(2))[..4].to_vec();
        let far_report = against(&amd, "streamcluster", &candidate, "canneal", &[far]);
        let near_report = against(&amd, "streamcluster", &candidate, "canneal", &[other_half]);
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
    fn penalties_stay_in_the_unit_interval_whatever_the_throughputs() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let cases = [
            // Finite ratios: the plain clamp, bit for bit.
            (0.5, 2.0, 0.25),
            (3.0, 2.0, 1.0),
            (0.0, 2.0, f64::MIN_POSITIVE),
            (1.0, 0.0, 1.0),
            // Not a number: a degenerate run costs nothing.
            (nan, 2.0, 1.0),
            (2.0, nan, 1.0),
            (nan, nan, 1.0),
            (inf, inf, 1.0),
            // Infinite throughput on one side: the clamp's bounds.
            (inf, 2.0, 1.0),
            (2.0, inf, f64::MIN_POSITIVE),
        ];
        for (co, solo, expected) in cases {
            let p = penalty(co, solo);
            assert_eq!(p.to_bits(), expected.to_bits(), "{co} over {solo}: {p}");
        }
    }

    #[test]
    fn report_is_deterministic_with_noise_off() {
        let amd = machines::amd_opteron_6272();
        let spec = PlacementSpec::on_nodes(8, vec![NodeId(3)], 4);
        let candidate = assign_vcpus(&amd, &spec).unwrap();
        let neighbours = [amd.threads_on_node(NodeId(2))];
        let a = against(&amd, "canneal", &candidate, "streamcluster", &neighbours);
        let b = against(&amd, "canneal", &candidate, "streamcluster", &neighbours);
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

            // One neighbour container per node the load reaches.
            let penalty_for = |n: usize| {
                let (own, spill) = free[..n].split_at(n.min(4));
                let neighbours: Vec<Vec<ThreadId>> =
                    [own, spill].into_iter().filter(|g| !g.is_empty()).map(<[_]>::to_vec).collect();
                against(&amd, "streamcluster", &candidate, "canneal", &neighbours).candidate_penalty()
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
