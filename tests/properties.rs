//! Property-based tests over the cross-crate invariants.

use proptest::prelude::*;

use vcplace::core::assign::assign_vcpus;
use vcplace::core::concern::ConcernSet;
use vcplace::core::important::important_placements;
use vcplace::core::packing::generate_packings;
use vcplace::sim::engine::{miss_curve, queue_multiplier, rates, simulate, ContainerRun, Profile};
use vcplace::topology::stream::aggregate_bandwidth;
use vcplace::topology::{machines, CacheConfig, MachineBuilder, NodeId};
use vcplace::workloads::generator::random_workload;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random machine: 2-4 packages, 1-2 nodes each, uniform links.
fn arb_machine() -> impl Strategy<Value = vcplace::topology::Machine> {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn important_placements_always_validate(machine in arb_machine(), vcpus in 1usize..=16) {
        let concerns = ConcernSet::for_machine(&machine);
        if let Ok(ips) = important_placements(&machine, &concerns, vcpus) {
            prop_assert!(!ips.is_empty());
            for ip in &ips {
                prop_assert!(ip.spec.validate(&machine).is_ok());
            }
            // Score vectors are pairwise distinct.
            for i in 0..ips.len() {
                for j in i + 1..ips.len() {
                    let eq = ips[i].scores.iter().zip(&ips[j].scores)
                        .all(|(a, b)| (a - b).abs() < 1e-9);
                    prop_assert!(!eq);
                }
            }
        }
    }

    #[test]
    fn assignments_use_each_thread_once(machine in arb_machine(), vcpus in 1usize..=16) {
        let concerns = ConcernSet::for_machine(&machine);
        if let Ok(ips) = important_placements(&machine, &concerns, vcpus) {
            for ip in &ips {
                let threads = assign_vcpus(&machine, &ip.spec).unwrap();
                prop_assert_eq!(threads.len(), vcpus);
                let mut sorted = threads.clone();
                sorted.sort();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), vcpus);
                for t in threads {
                    prop_assert!(ip.spec.nodes.contains(&machine.thread(t).node));
                }
            }
        }
    }

    #[test]
    fn packings_partition_all_nodes(n in 2usize..=8, score_mask in 1u8..=7) {
        let scores: Vec<usize> = [1usize, 2, 4].iter()
            .enumerate()
            .filter(|(i, _)| score_mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect();
        for packing in generate_packings(n, &scores) {
            let mut seen = vec![false; n];
            for part in &packing.parts {
                for node in part {
                    prop_assert!(!seen[node.index()]);
                    seen[node.index()] = true;
                }
            }
            prop_assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn stream_score_is_bounded_by_link_capacity(machine in arb_machine(), mask in 1u32..255) {
        let ic = machine.interconnect();
        let nodes: Vec<NodeId> = (0..machine.num_nodes())
            .filter(|i| mask & (1 << i) != 0)
            .map(NodeId)
            .collect();
        let agg = aggregate_bandwidth(ic, &nodes);
        let total: f64 = ic.links().iter().map(|l| l.bandwidth_gbs).sum();
        prop_assert!(agg >= 0.0);
        prop_assert!(agg <= total + 1e-9);
    }

    #[test]
    fn miss_curve_is_a_probability(f in 0.0f64..1e4, c in 0.01f64..100.0) {
        let m = miss_curve(f, c);
        prop_assert!((0.0..=1.0).contains(&m));
    }

    #[test]
    fn queue_multiplier_is_monotone(a in 0.0f64..1.5, b in 0.0f64..1.5) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(queue_multiplier(lo) <= queue_multiplier(hi) + 1e-12);
    }

    #[test]
    fn random_workloads_simulate_to_finite_positive_performance(seed in 0u64..500) {
        let machine = machines::tiny_two_node();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload("prop", &mut rng);
        let assignment: Vec<_> = machine.threads().iter().map(|t| t.id).take(4).collect();
        let runs = [ContainerRun { workload: &w, assignment: &assignment }];
        let inst_per_sec = rates(&machine, &runs, Profile::Measure)[0];
        let ipc = inst_per_sec / assignment.len() as f64 / (machine.clock_ghz() * 1e9);
        prop_assert!(inst_per_sec.is_finite() && inst_per_sec > 0.0);
        prop_assert!(ipc > 0.0 && ipc < 10.0);
        let measured = simulate(&machine, &runs, seed)[0];
        prop_assert!(measured.is_finite() && measured > 0.0);
    }

    #[test]
    fn adding_vcpus_never_lowers_container_throughput_on_idle_machine(k in 1usize..=8) {
        // More vCPUs on an otherwise idle machine means at least as much
        // aggregate instruction throughput for a compute-bound workload.
        let machine = machines::amd_opteron_6272();
        let mut rng = StdRng::seed_from_u64(9);
        let mut w = random_workload("prop", &mut rng);
        w.mem_per_kinst = 1.0;
        w.comm_per_kinst = 0.0;
        let small: Vec<_> = machine.threads().iter().map(|t| t.id).take(k).collect();
        let big: Vec<_> = machine.threads().iter().map(|t| t.id).take(k + 1).collect();
        let perf = |assignment: Vec<_>| {
            rates(&machine, &[ContainerRun { workload: &w, assignment: &assignment }], Profile::Measure)[0]
        };
        prop_assert!(perf(big) >= perf(small) * 0.999);
    }
}
