//! Lock-free per-host free-capacity summaries for fleet-scale admission.
//!
//! A fleet of hundreds of hosts cannot afford to take every host's
//! occupancy mutex just to discover that the host is full. A
//! [`CapacitySummary`] is the lock-free companion of an
//! [`OccupancyMap`]: the host's [`SketchProfile`] in atomics — for every
//! free-thread threshold `k`, how many NUMA nodes and how many L2 groups
//! have at least `k` free threads — published by whoever mutates the
//! occupancy (commit/release) and read by anyone without
//! synchronisation. The admission question "are there `n` nodes with
//! `k` free threads each?" is then one load.
//!
//! The summary is **advisory**: readers may observe a slightly stale
//! snapshot while a commit is in flight. Admission logic therefore uses
//! it only as a *prefilter* — "this host cannot possibly have room, skip
//! it without locking" — and every actual reservation is re-validated
//! against the authoritative `OccupancyMap` under the host lock. A
//! summary can cause a wasted lock acquisition (stale *optimism*) but a
//! correctly published summary never hides free capacity forever: after
//! the in-flight mutation publishes, readers see the truth again.
//!
//! The counts come from the occupancy's per-node and per-L2 capacities
//! (the machine's layout), not from a uniform assumption: machines with
//! fused-off cache domains have uneven nodes, and a uniform-capacity
//! summary would mis-admit requests on the small nodes while hiding
//! free threads on the large ones.
//!
//! # Examples
//!
//! ```
//! use vc_topology::{machines, CapacitySummary, NodeId, OccupancyMap};
//!
//! let amd = machines::amd_opteron_6272();
//! let summary = CapacitySummary::new(&amd);
//! assert!(summary.can_host(8, 8)); // 8 nodes × 8 threads/node
//! assert!(summary.can_host_l2(32, 2)); // 32 modules × 2 threads each
//! assert!(!summary.can_host(1, 9)); // no node has 9 threads
//!
//! // Reserve node 0 in the occupancy map, then publish the new state.
//! let mut occ = OccupancyMap::new(&amd);
//! occ.reserve(&amd.threads_on_node(NodeId(0))).unwrap();
//! summary.publish(&occ);
//! assert!(!summary.can_host(8, 8)); // all 8 nodes fully free: no longer
//! assert!(summary.can_host(7, 8));
//! assert_eq!(summary.profile().nodes_with_free(1), 7);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::machine::Machine;
use crate::occupancy::OccupancyMap;
use crate::sketch::SketchProfile;

/// A host's published [`SketchProfile`], in atomics.
///
/// See the [module documentation](self) for the staleness contract.
#[derive(Debug)]
pub struct CapacitySummary {
    /// `nodes_with[k]` = nodes with ≥ `k` free threads, `k` in `0..=`
    /// the largest node's capacity.
    nodes_with: Vec<AtomicUsize>,
    /// `l2s_with[k]` = L2 groups with ≥ `k` free threads, `k` in `0..=`
    /// the largest L2 group's capacity.
    l2s_with: Vec<AtomicUsize>,
}

impl CapacitySummary {
    /// An all-free summary for `machine`.
    pub fn new(machine: &Machine) -> Self {
        let idle = SketchProfile::of(&OccupancyMap::new(machine));
        let atomics = |counts: &[usize]| -> Vec<AtomicUsize> {
            counts.iter().map(|&c| AtomicUsize::new(c)).collect()
        };
        CapacitySummary {
            nodes_with: atomics(&idle.nodes_with),
            l2s_with: atomics(&idle.l2s_with),
        }
    }

    /// Whether a balanced placement needing `n_nodes` nodes with
    /// `per_node` threads each could *possibly* fit. `true` is a hint
    /// (the authoritative check happens under the occupancy lock);
    /// `false` on a freshly published summary is definitive.
    pub fn can_host(&self, n_nodes: usize, per_node: usize) -> bool {
        count(&self.nodes_with, per_node) >= n_nodes
    }

    /// Whether a placement needing `n_l2` L2 groups with `per_l2`
    /// threads each could *possibly* fit — the L2-granular companion of
    /// [`Self::can_host`], for shapes constrained by cache domains
    /// rather than node totals (e.g. one-vCPU-per-module classes on a
    /// host whose nodes have free threads only in busy modules).
    pub fn can_host_l2(&self, n_l2: usize, per_l2: usize) -> bool {
        count(&self.l2s_with, per_l2) >= n_l2
    }

    /// The published profile. Exact when read by the publisher (under
    /// the host lock); a concurrent reader may mix two publications.
    pub fn profile(&self) -> SketchProfile {
        let loads = |counts: &[AtomicUsize]| -> Vec<usize> {
            counts.iter().map(|c| c.load(Ordering::Acquire)).collect()
        };
        SketchProfile {
            nodes_with: loads(&self.nodes_with),
            l2s_with: loads(&self.l2s_with),
        }
    }

    /// Publishes `profile`, computed from an occupancy of this
    /// summary's machine.
    pub fn store(&self, profile: &SketchProfile) {
        debug_assert_eq!(profile.nodes_with.len(), self.nodes_with.len());
        debug_assert_eq!(profile.l2s_with.len(), self.l2s_with.len());
        for (slot, &c) in self.nodes_with.iter().zip(&profile.nodes_with) {
            slot.store(c, Ordering::Release);
        }
        for (slot, &c) in self.l2s_with.iter().zip(&profile.l2s_with) {
            slot.store(c, Ordering::Release);
        }
    }

    /// Publishes the occupancy map's current profile.
    ///
    /// Callers mutate the `OccupancyMap` under its lock and publish
    /// before unlocking, so the summary lags the map by at most one
    /// in-flight critical section.
    pub fn publish(&self, occ: &OccupancyMap) {
        self.store(&SketchProfile::of(occ));
    }
}

/// Entry `k` of a published count table; thresholds past the largest
/// unit's capacity count zero.
fn count(counts: &[AtomicUsize], k: usize) -> usize {
    counts.get(k).map_or(0, |c| c.load(Ordering::Acquire))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{L2GroupId, NodeId, ThreadId};
    use crate::machine::MachineBuilder;
    use crate::machines;

    /// Node 1 has half its L2 domains offline: 4 threads vs node 0's 8.
    fn uneven() -> Machine {
        MachineBuilder::new("uneven")
            .packages(2)
            .nodes_per_package(1)
            .l3_groups_per_node(1)
            .l2_groups_per_l3(4)
            .cores_per_l2(1)
            .threads_per_core(2)
            .l2_groups_per_l3_on_node(1, 2)
            .link(0, 1, 12.8)
            .build()
            .unwrap()
    }

    #[test]
    fn fresh_summary_matches_fresh_occupancy() {
        let m = machines::amd_opteron_6272();
        let s = CapacitySummary::new(&m);
        assert_eq!(s.profile(), SketchProfile::of(&OccupancyMap::new(&m)));
        let p = s.profile();
        assert_eq!(p.nodes_with_free(8), 8);
        assert_eq!(p.nodes_with_free(9), 0);
        assert_eq!(p.l2s_with_free(2), 32);
        assert_eq!(p.l2s_with_free(3), 0);
    }

    #[test]
    fn publish_reflects_reservations_and_releases() {
        let m = machines::amd_opteron_6272();
        let s = CapacitySummary::new(&m);
        let mut occ = OccupancyMap::new(&m);
        let node1 = m.threads_on_node(NodeId(1));
        occ.reserve(&node1).unwrap();
        s.publish(&occ);
        assert_eq!(s.profile().nodes_with_free(1), 7, "node 1 is full");
        assert!(!s.can_host(8, 1));
        assert!(s.can_host(7, 8));
        // Node 1's four modules are full; the other 28 still have room.
        assert_eq!(s.profile().l2s_with_free(1), 28);
        assert!(!s.can_host_l2(32, 1));
        assert!(s.can_host_l2(28, 2));
        occ.release(&node1).unwrap();
        s.publish(&occ);
        assert!(s.can_host(8, 8));
        assert!(s.can_host_l2(32, 2));
    }

    #[test]
    fn l2_counters_catch_fragmentation_node_counts_miss() {
        // Reserve one thread in every module of node 0: the node still
        // has 4 free threads, but no module can host a 2-thread share.
        let m = machines::amd_opteron_6272();
        let s = CapacitySummary::new(&m);
        let mut occ = OccupancyMap::new(&m);
        let one_per_module: Vec<_> = m
            .threads_on_node(NodeId(0))
            .into_iter()
            .step_by(2)
            .collect();
        occ.reserve(&one_per_module).unwrap();
        s.publish(&occ);
        assert!(s.can_host(1, 4), "node-level count admits the host");
        assert!(!s.can_host(8, 5), "node 0 has only 4 free threads");
        // …but an L2-constrained shape (4 modules × 2 threads on one
        // node) is impossible, which only the L2 counters can see.
        assert_eq!(s.profile().l2s_with_free(2), 28);
        assert!(!s.can_host_l2(32, 2));
    }

    #[test]
    fn uneven_machines_summarise_per_node_capacities() {
        let m = uneven();
        let s = CapacitySummary::new(&m);
        // Exact per-node capacities: the uniform mean (6) would both
        // hide node 0's two extra threads (mis-skip) and invent two
        // threads on node 1 (mis-admit).
        assert!(s.can_host(1, 8), "node 0's full 8 threads are visible");
        assert!(!s.can_host(2, 5), "node 1 cannot pretend to hold 5");
        assert!(s.can_host(2, 4));
        // Publishing a real occupancy keeps the counts exact.
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(1))).unwrap();
        s.publish(&occ);
        assert!(s.can_host(1, 8), "node 0 keeps its 8 free threads");
        assert!(!s.can_host(2, 1), "node 1 is full");
    }

    #[test]
    fn concurrent_readers_see_published_states() {
        let m = machines::amd_opteron_6272();
        let s = CapacitySummary::new(&m);
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(0))).unwrap();
        std::thread::scope(|sc| {
            sc.spawn(|| s.publish(&occ));
            sc.spawn(|| {
                // Either the old (8) or the new (7) value: never garbage.
                let f = s.profile().nodes_with_free(8);
                assert!(f == 7 || f == 8, "torn read: {f}");
            });
        });
        assert_eq!(s.profile().nodes_with_free(8), 7);
    }

    /// After every publication of a reserve/release script, each
    /// `can_host(n, k)` and `can_host_l2(g, k)` answer equals a count
    /// taken unit by unit over the occupancy — every `n` and `g` up to
    /// one past the unit count, every `k` up to one past the capacity —
    /// on the paper's two machines, the Zen-like demo and an uneven one.
    #[test]
    fn can_host_matches_brute_force_counts_through_churn() {
        for m in [
            machines::amd_opteron_6272(),
            machines::intel_xeon_e7_4830_v3(),
            machines::zen_like(),
            uneven(),
        ] {
            let s = CapacitySummary::new(&m);
            let mut occ = OccupancyMap::new(&m);
            let check = |s: &CapacitySummary, occ: &OccupancyMap, step: usize| {
                for k in 0..=occ.node_capacity() + 1 {
                    let with = (0..occ.num_nodes())
                        .filter(|&n| occ.free_on_node(NodeId(n)) >= k)
                        .count();
                    for n in 0..=occ.num_nodes() + 1 {
                        let ctx = format!("{} step {step}: ({n}, {k})", m.name());
                        assert_eq!(s.can_host(n, k), with >= n, "{ctx}");
                    }
                }
                for k in 0..=occ.l2_capacity() + 1 {
                    let with = (0..occ.num_l2_groups())
                        .filter(|&g| occ.free_in_l2(L2GroupId(g)) >= k)
                        .count();
                    for g in 0..=occ.num_l2_groups() + 1 {
                        let ctx = format!("{} step {step}: L2 ({g}, {k})", m.name());
                        assert_eq!(s.can_host_l2(g, k), with >= g, "{ctx}");
                    }
                }
            };
            check(&s, &occ, 0);
            // Reserve strided runs of free threads, releasing a held
            // batch every third step.
            let total = m.num_threads();
            let mut held: Vec<Vec<ThreadId>> = Vec::new();
            for step in 1..=24 {
                if step % 3 == 0 && !held.is_empty() {
                    occ.release(&held.remove(step % held.len())).unwrap();
                } else {
                    let (start, stride, len) = ((step * 7) % total, step % 3 + 1, step % 9 + 1);
                    let batch: Vec<ThreadId> = (0..total)
                        .map(|i| ThreadId((start + i * stride) % total))
                        .filter(|&t| occ.is_free(t))
                        .take(len)
                        .collect();
                    let mut unique = batch.clone();
                    unique.sort();
                    unique.dedup();
                    occ.reserve(&unique).unwrap();
                    held.push(unique);
                }
                s.publish(&occ);
                check(&s, &occ, step);
            }
        }
    }
}
