//! Simulated hardware performance events.
//!
//! The counters are synthesised from the simulator's internal state with
//! the observability limits of real mid-2010s hardware, which is what
//! makes the paper's finding reproducible *mechanistically* rather than by
//! fiat:
//!
//! * capacity misses and cache-to-cache forwards fold into one counter
//!   (`l3_miss_or_forward_pki`) — a single-placement observer cannot
//!   separate communication-latency sensitivity from memory intensity
//!   (§6);
//! * whether the working set would fit into a *different* number of L3
//!   caches is simply not measurable in one placement;
//! * counters carry sampling noise.
//!
//! The list is a superset of the categories the paper says it started
//! from (cache, memory, TLB, interconnect and pipeline behaviour), plus
//! deliberately uninformative counters so Sequential Forward Selection
//! has chaff to reject.
//!
//! Only the paper's HPE baseline (Fig. 4) reads counters, so nothing on
//! the placement path computes them: [`crate::rates`] solves for rates
//! alone, and [`observe`] re-solves a run through the same plan and fixed
//! point, recording the state the counters come from as it goes.

use rand::rngs::StdRng;

use vc_topology::Machine;
use vc_workloads::Workload;

use crate::engine::{queue_multiplier, solve, ContainerRun, Params, Plan, Profile, Utilisation};
use crate::noise::{measurement_rng, noise_factor};

/// Relative sampling noise on every reported counter.
const NOISE: f64 = 0.12;

/// Aggregated internal model state of one container: what the counters
/// are synthesised from.
#[derive(Debug, Clone)]
pub struct ContainerState {
    /// Mean L2 miss ratio over threads.
    pub l2_miss_ratio: f64,
    /// Mean L3 miss ratio (of L2 misses) over threads.
    pub l3_miss_ratio: f64,
    /// Mean fraction of DRAM accesses that were remote.
    pub remote_fraction: f64,
    /// Mean DRAM-node utilisation seen by this container's accesses.
    pub dram_utilisation: f64,
    /// Mean max-link utilisation along this container's remote routes.
    pub link_utilisation: f64,
    /// Mean effective communication latency (cycles).
    pub comm_latency_cycles: f64,
    /// Mean pipeline sharing multiplier (1.0 = exclusive core).
    pub pipeline_mult: f64,
    /// Mean CPI decomposition: base component.
    pub cpi_core: f64,
    /// Mean CPI decomposition: memory stalls.
    pub cpi_mem: f64,
    /// Mean CPI decomposition: communication stalls.
    pub cpi_comm: f64,
}

/// `runs` solved under `params`: each container's mean per-thread IPC
/// and state means (its last iteration's), in run order.
pub(crate) fn solved(
    machine: &Machine,
    runs: &[ContainerRun],
    params: Params,
) -> Vec<(f64, ContainerState)> {
    let plan = Plan::build(machine, runs);
    let (solution, util) = solve(machine, &plan, params);
    let lat = machine.latencies();
    let q_dram: Vec<f64> = util.dram.iter().map(|&u| queue_multiplier(u)).collect();
    let q_link: Vec<f64> = plan
        .pairs
        .iter()
        .map(|p| p.queue_mult(&util.link))
        .collect();
    let cpi = |cl| plan.cpi_parts(cl, &lat, &q_dram, &q_link);
    let cpi_parts: Vec<(f64, f64, f64)> = plan.classes.iter().map(cpi).collect();
    let clock_hz = machine.clock_ghz() * 1e9;
    let rates = plan.container_rates(&solution.rate);
    (rates.iter().zip(runs).enumerate())
        .map(|(ci, (inst_per_sec, run))| {
            let ipc = inst_per_sec / run.assignment.len() as f64 / clock_hz;
            (ipc, means(&plan, &util, &cpi_parts, ci, run.workload))
        })
        .collect()
}

/// Solves `runs` under `profile` — [`crate::rates`]' own plan and fixed
/// point — and returns each container's state means, in run order.
pub fn state_means(
    machine: &Machine,
    runs: &[ContainerRun],
    profile: Profile,
) -> Vec<ContainerState> {
    solved(machine, runs, profile.params())
        .into_iter()
        .map(|(_, s)| s)
        .collect()
}

/// The HPE vector, in [`hpe_names`] order, of `run` measured alone on
/// `machine` under [`Profile::Measure`] with measurement seed `seed`.
///
/// The counters' sampling noise draws on the run's measurement stream 2,
/// apart from the performance noise on stream 1, so observing counters
/// never moves a performance measurement.
pub fn observe(machine: &Machine, run: &ContainerRun, seed: u64) -> Vec<f64> {
    let (ipc, state) = solved(machine, &[*run], Profile::Measure.params()).remove(0);
    let mut rng = measurement_rng(&run.workload.name, run.assignment, seed, 2);
    synthesise(run.workload, ipc, &state, &mut rng, NOISE)
}

/// The state means of container `ci` of a solved plan.
fn means(
    plan: &Plan,
    util: &Utilisation,
    cpi_parts: &[(f64, f64, f64)],
    ci: usize,
    w: &Workload,
) -> ContainerState {
    let c = &plan.containers[ci];
    let classes = plan.thread_classes(c);
    let n = classes.len() as f64;
    let mean = |f: &dyn Fn(usize) -> f64| classes.iter().map(|&k| f(k)).sum::<f64>() / n;
    let dests = &plan.node_idx[c.node_base..c.node_base + c.n];
    let dram_u = dests.iter().map(|&d| util.dram[d]).sum::<f64>() / c.n as f64;
    let link_u = {
        let mut acc = 0.0;
        let mut cnt = 0.0;
        for a in 0..c.n {
            for b in a + 1..c.n {
                acc += plan.pairs[c.pair_base + a * c.n + b].queue_mult(&util.link) - 1.0;
                cnt += 1.0;
            }
        }
        if cnt > 0.0 {
            acc / cnt
        } else {
            0.0
        }
    };
    ContainerState {
        l2_miss_ratio: mean(&|k| plan.classes[k].m2),
        l3_miss_ratio: mean(&|k| plan.classes[k].m3),
        remote_fraction: 1.0 - 1.0 / c.n as f64,
        dram_utilisation: dram_u,
        link_utilisation: link_u,
        comm_latency_cycles: mean(&|k| {
            let (_, _, comm) = cpi_parts[k];
            if w.comm_per_kinst > 0.0 {
                comm / (w.comm_per_kinst / 1000.0).max(1e-12)
            } else {
                0.0
            }
        }),
        pipeline_mult: mean(&|k| plan.classes[k].pipeline_mult),
        cpi_core: mean(&|k| cpi_parts[k].0),
        cpi_mem: mean(&|k| cpi_parts[k].1),
        cpi_comm: mean(&|k| cpi_parts[k].2),
    }
}

/// Names of the simulated HPEs, in the order [`observe`] reports them.
pub fn hpe_names() -> Vec<String> {
    [
        "ipc",
        "l2_miss_pki",
        "l3_miss_or_forward_pki",
        "dram_access_pki",
        "dram_remote_pki",
        "dram_local_pki",
        "dram_bytes_pki",
        "offcore_requests_pki",
        "dtlb_miss_pki",
        "itlb_miss_pki",
        "branch_miss_pki",
        "frontend_stall_ratio",
        "backend_stall_ratio",
        "uops_per_inst",
        "fp_ops_pki",
        "prefetches_pki",
        "l1_miss_pki",
        "llc_occupancy_mib",
        "cpu_migrations",
        "context_switches_pki",
        "page_faults_pki",
        "cycles_ghz",
        "smt_active_ratio",
        "store_buffer_stall_pki",
        "ic_bytes_pki",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Synthesises the HPE vector of one container run from its mean IPC and
/// state means, each counter scaled by a draw from `rng` within
/// `±noise`.
fn synthesise(
    workload: &Workload,
    ipc: f64,
    s: &ContainerState,
    rng: &mut StdRng,
    noise: f64,
) -> Vec<f64> {
    let mem = workload.mem_per_kinst;
    let l2_miss_pki = mem * s.l2_miss_ratio;
    let l3_capacity_miss_pki = l2_miss_pki * s.l3_miss_ratio;
    // The observability limit: forwards (communication) and capacity
    // misses are one event.
    let l3_miss_or_forward_pki = l3_capacity_miss_pki + workload.comm_per_kinst;
    let dram_access_pki = l3_capacity_miss_pki;
    let dram_remote_pki = dram_access_pki * s.remote_fraction;
    let dram_local_pki = dram_access_pki - dram_remote_pki;
    let ws_total = workload.ws_private_mib + workload.ws_shared_mib;
    let dtlb = 0.3 * (1.0 + ws_total / 64.0).ln();
    // Deterministic per-workload quirks stand in for microarchitectural
    // constants the model does not track.
    let quirk = (workload.name.bytes().map(|b| b as f64).sum::<f64>() % 17.0) / 17.0;
    let branch_miss = 1.0 + 6.0 * (1.0 - workload.ipc_base / 2.5).max(0.0) + quirk;

    let raw: Vec<f64> = vec![
        ipc,
        l2_miss_pki,
        l3_miss_or_forward_pki,
        dram_access_pki,
        dram_remote_pki,
        dram_local_pki,
        dram_access_pki * 64.0,
        dram_access_pki * 1.15 + workload.comm_per_kinst * 0.5,
        dtlb,
        0.05 + 0.1 * quirk,
        branch_miss,
        (1.0 - s.pipeline_mult).max(0.0) + 0.05,
        s.cpi_mem / (s.cpi_core + s.cpi_mem + s.cpi_comm),
        1.1 + 0.4 * quirk,
        workload.mem_per_kinst * 0.3 * (1.0 - quirk) + 1.0,
        mem * 0.25 * workload.mlp,
        mem * 1.8,
        ws_total.min(40.0),
        0.0,
        0.01 + 0.02 * quirk,
        0.001 * workload.memory_gb(),
        2.1,
        if s.pipeline_mult < 1.0 { 1.0 } else { 0.0 },
        mem * 0.1 * (1.0 - workload.mlp),
        dram_remote_pki * 64.0 + workload.comm_per_kinst * 64.0 * s.remote_fraction,
    ];
    raw.into_iter()
        .map(|v| v * noise_factor(rng, noise))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_core::assign::{assign_vcpus, assign_vcpus_in};
    use vc_core::placement::PlacementSpec;
    use vc_topology::machines;
    use vc_topology::{NodeId, OccupancyMap};
    use vc_workloads::suite::workload_by_name;

    /// The HPE vector of `w` alone in `nodes` × `l2` on AMD, with
    /// sampling noise `noise` drawn from seed 1's stream.
    fn observed(w: &str, nodes: Vec<NodeId>, l2: usize, noise: f64) -> Vec<f64> {
        let amd = machines::amd_opteron_6272();
        let workload = workload_by_name(w).unwrap();
        let spec = PlacementSpec::on_nodes(16, nodes, l2);
        let assignment = assign_vcpus(&amd, &spec).unwrap();
        let run = ContainerRun {
            workload: &workload,
            assignment: &assignment,
        };
        let (ipc, state) = solved(&amd, &[run], Profile::Measure.params()).remove(0);
        let mut rng = measurement_rng(w, &assignment, 1, 2);
        synthesise(&workload, ipc, &state, &mut rng, noise)
    }

    fn counter(v: &[f64], name: &str) -> f64 {
        v[hpe_names().iter().position(|n| n == name).unwrap()]
    }

    #[test]
    fn hpe_vector_matches_name_list() {
        let v = observed("blast", vec![NodeId(0), NodeId(1)], 8, 0.0);
        assert_eq!(v.len(), hpe_names().len());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn observe_is_the_noisy_synthesis_of_the_default_solve() {
        let amd = machines::amd_opteron_6272();
        let workload = workload_by_name("kmeans").unwrap();
        let spec = PlacementSpec::on_nodes(16, vec![NodeId(2), NodeId(3)], 8);
        let assignment = assign_vcpus(&amd, &spec).unwrap();
        let run = ContainerRun {
            workload: &workload,
            assignment: &assignment,
        };
        let clean = observed("kmeans", vec![NodeId(2), NodeId(3)], 8, 0.0);
        let noisy = observe(&amd, &run, 1);
        assert_eq!(
            noisy,
            observed("kmeans", vec![NodeId(2), NodeId(3)], 8, NOISE)
        );
        assert_ne!(noisy, clean);
        assert_ne!(noisy, observe(&amd, &run, 2), "seeds draw different noise");
    }

    #[test]
    fn state_means_of_a_lone_run_are_the_state_observe_reads() {
        let amd = machines::amd_opteron_6272();
        let workload = workload_by_name("canneal").unwrap();
        let spec = PlacementSpec::on_nodes(8, vec![NodeId(0), NodeId(4)], 4);
        let assignment = assign_vcpus(&amd, &spec).unwrap();
        let run = ContainerRun {
            workload: &workload,
            assignment: &assignment,
        };
        let (_, alone) = solved(&amd, &[run], Profile::Measure.params()).remove(0);
        let listed = state_means(&amd, &[run], Profile::Measure);
        assert_eq!(listed.len(), 1);
        assert_eq!(format!("{:?}", listed[0]), format!("{alone:?}"));
    }

    #[test]
    fn a_co_runner_on_the_same_node_loads_its_dram() {
        let amd = machines::amd_opteron_6272();
        let workload = workload_by_name("blast").unwrap();
        let spec = PlacementSpec::on_nodes(4, vec![NodeId(0)], 2);
        let mut occ = OccupancyMap::new(&amd);
        let first = assign_vcpus_in(&amd, &spec, &occ).unwrap();
        occ.reserve(&first).unwrap();
        let second = assign_vcpus_in(&amd, &spec, &occ).unwrap();
        let run = |assignment| ContainerRun {
            workload: &workload,
            assignment,
        };
        let alone = state_means(&amd, &[run(&first)], Profile::Measure);
        let joint = state_means(&amd, &[run(&first), run(&second)], Profile::Measure);
        assert_eq!(joint.len(), 2);
        assert!(
            joint[0].dram_utilisation > alone[0].dram_utilisation,
            "joint {} vs alone {}",
            joint[0].dram_utilisation,
            alone[0].dram_utilisation
        );
        assert_eq!(joint[0].remote_fraction, alone[0].remote_fraction);
    }

    #[test]
    fn forwards_and_capacity_misses_are_merged() {
        // A communication-heavy workload with a cache-resident working
        // set still shows a large l3_miss_or_forward count.
        let v = observed("WTbtree", vec![NodeId(0), NodeId(1)], 8, 0.0);
        let merged = counter(&v, "l3_miss_or_forward_pki");
        let dram = counter(&v, "dram_access_pki");
        // The merged counter includes ~6 forwards per kinst on top of
        // capacity misses.
        assert!(merged > dram + 5.0, "merged={merged} dram={dram}");
    }

    #[test]
    fn remote_fraction_scales_with_node_count() {
        // 8 nodes put 7/8 of DRAM accesses on remote nodes, 2 nodes 1/2:
        // a bigger remote share even if total misses shrink.
        let remote_share =
            |v: &[f64]| counter(v, "dram_remote_pki") / counter(v, "dram_access_pki");
        let v2 = observed("blast", vec![NodeId(0), NodeId(1)], 8, 0.0);
        let v8 = observed("blast", (0..8).map(NodeId).collect(), 16, 0.0);
        assert!(
            remote_share(&v8) > remote_share(&v2),
            "{} vs {}",
            remote_share(&v8),
            remote_share(&v2)
        );
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let clean = observed("gcc", vec![NodeId(0), NodeId(1)], 8, 0.0);
        let noisy = observed("gcc", vec![NodeId(0), NodeId(1)], 8, 0.05);
        for (c, n) in clean.iter().zip(&noisy) {
            if *c != 0.0 {
                assert!((n / c - 1.0).abs() <= 0.05 + 1e-9);
            }
        }
    }
}
