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

use rand::rngs::StdRng;

use vc_workloads::Workload;

use crate::engine::{ContainerPerf, ContainerState};
use crate::noise::noise_factor;

/// Names of the simulated HPEs, in the order [`synthesise`] reports them.
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

/// Synthesises the HPE vector for one container run.
///
/// `rng` supplies sampling noise; pass a [`crate::noise::measurement_rng`]
/// derived from the run identity for reproducibility.
pub fn synthesise(
    workload: &Workload,
    perf: &ContainerPerf,
    rng: &mut StdRng,
    noise: f64,
) -> Vec<f64> {
    let s: &ContainerState = &perf.state;
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
        perf.ipc,
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
    use crate::engine::{simulate, ContainerRun, SimConfig};
    use crate::noise::measurement_rng;
    use vc_core::assign::assign_vcpus;
    use vc_core::placement::PlacementSpec;
    use vc_topology::machines;
    use vc_topology::NodeId;
    use vc_workloads::suite::workload_by_name;

    fn perf_for(w: &str, nodes: Vec<NodeId>, l2: usize) -> (vc_workloads::Workload, ContainerPerf) {
        let amd = machines::amd_opteron_6272();
        let workload = workload_by_name(w).unwrap();
        let spec = PlacementSpec::on_nodes(16, nodes, l2);
        let assignment = assign_vcpus(&amd, &spec).unwrap();
        let r = simulate(
            &amd,
            &[ContainerRun {
                workload: &workload,
                assignment: &assignment,
            }],
            &SimConfig::default(),
            0,
        );
        (workload, r.per_container.into_iter().next().unwrap())
    }

    #[test]
    fn hpe_vector_matches_name_list() {
        let (w, p) = perf_for("blast", vec![NodeId(0), NodeId(1)], 8);
        let mut rng = measurement_rng("blast", &[], 0, 2);
        let v = synthesise(&w, &p, &mut rng, 0.0);
        assert_eq!(v.len(), hpe_names().len());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn forwards_and_capacity_misses_are_merged() {
        // A communication-heavy workload with a cache-resident working
        // set still shows a large l3_miss_or_forward count.
        let (w, p) = perf_for("WTbtree", vec![NodeId(0), NodeId(1)], 8);
        let mut rng = measurement_rng("WTbtree", &[], 0, 2);
        let v = synthesise(&w, &p, &mut rng, 0.0);
        let names = hpe_names();
        let merged = v[names
            .iter()
            .position(|n| n == "l3_miss_or_forward_pki")
            .unwrap()];
        let dram = v[names.iter().position(|n| n == "dram_access_pki").unwrap()];
        // The merged counter includes ~6 forwards per kinst on top of
        // capacity misses.
        assert!(merged > dram + 5.0, "merged={merged} dram={dram}");
    }

    #[test]
    fn remote_fraction_scales_with_node_count() {
        let (w2, p2) = perf_for("blast", vec![NodeId(0), NodeId(1)], 8);
        let (w8, p8) = perf_for("blast", (0..8).map(NodeId).collect(), 16);
        let mut rng = measurement_rng("blast", &[], 0, 2);
        let names = hpe_names();
        let i = names.iter().position(|n| n == "dram_remote_pki").unwrap();
        let v2 = synthesise(&w2, &p2, &mut rng, 0.0);
        let v8 = synthesise(&w8, &p8, &mut rng, 0.0);
        assert!(v8[i] / v8[i].max(1e-12) >= 0.0); // finite
                                                  // 8-node placement has 7/8 remote vs 1/2 remote: bigger remote
                                                  // share even if total misses shrink.
        assert!(
            p8.state.remote_fraction > p2.state.remote_fraction,
            "{} vs {}",
            p8.state.remote_fraction,
            p2.state.remote_fraction
        );
        let _ = (v2, v8);
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let (w, p) = perf_for("gcc", vec![NodeId(0), NodeId(1)], 8);
        let mut rng = measurement_rng("gcc", &[], 1, 2);
        let clean = synthesise(&w, &p, &mut rng, 0.0);
        let mut rng = measurement_rng("gcc", &[], 1, 2);
        let noisy = synthesise(&w, &p, &mut rng, 0.05);
        for (c, n) in clean.iter().zip(&noisy) {
            if *c != 0.0 {
                assert!((n / c - 1.0).abs() <= 0.05 + 1e-9);
            }
        }
    }
}
