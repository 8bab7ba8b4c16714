//! Lock-free per-host free-capacity summaries for fleet-scale admission.
//!
//! A fleet of hundreds of hosts cannot afford to take every host's
//! occupancy mutex just to discover that the host is full. A
//! [`CapacitySummary`] is the lock-free companion of an
//! [`OccupancyMap`]: per-node and per-L2-domain free-thread counts in
//! atomics, published by whoever mutates the occupancy (commit/release)
//! and read by anyone without synchronisation.
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
//! Capacities are derived **per node** (and per L2 group) from the
//! [`Machine`], not assumed uniform: machines with fused-off cache
//! domains have uneven nodes, and a uniform-capacity summary would
//! mis-admit requests on the small nodes while hiding free threads on
//! the large ones.
//!
//! # Examples
//!
//! ```
//! use vc_topology::{machines, CapacitySummary, NodeId, OccupancyMap};
//!
//! let amd = machines::amd_opteron_6272();
//! let summary = CapacitySummary::new(&amd);
//! assert_eq!(summary.free_threads(), 64);
//! assert!(summary.can_host(4, 8)); // 4 nodes × 8 threads/node
//! assert!(summary.can_host_l2(16, 2)); // 16 modules × 2 threads each
//!
//! // Reserve node 0 in the occupancy map, then publish the new state.
//! let mut occ = OccupancyMap::new(&amd);
//! occ.reserve(&amd.threads_on_node(NodeId(0))).unwrap();
//! summary.publish(&occ);
//! assert_eq!(summary.free_on_node(NodeId(0)), 0);
//! assert!(!summary.can_host(8, 8)); // all 8 nodes fully free: no longer
//! assert!(summary.can_host(7, 8));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::ids::{L2GroupId, NodeId};
use crate::machine::Machine;
use crate::occupancy::OccupancyMap;

/// A read-only view of a host's free capacity, per NUMA node and per L2
/// domain — the query surface admission prefilters run against.
///
/// Two implementations with different consistency contracts share it:
///
/// * [`CapacitySummary`] — lock-free atomics, possibly one in-flight
///   critical section stale. `false` answers are only a *hint* here.
/// * [`OccupancyMap`] — exact at the moment of the call; authoritative
///   when read under the host lock, and exact-as-of-publication when
///   the map is part of an immutable published snapshot (the engine's
///   epoch-published `HostSnapshot`).
///
/// Prefilter logic written against this trait (`can_host` /
/// `can_host_l2` / `nodes_with_free` / `l2s_with_free`) therefore runs
/// unchanged over an advisory summary, a wait-free snapshot, or the
/// locked map — which is what keeps the snapshot-read and lock-read
/// engine paths bit-for-bit comparable in tests.
pub trait CapacityView {
    /// Number of NUMA nodes tracked.
    fn num_nodes(&self) -> usize;
    /// Number of L2 groups tracked.
    fn num_l2_groups(&self) -> usize;
    /// Free threads on `node`.
    fn free_on_node(&self, node: NodeId) -> usize;
    /// Free threads in L2 group `l2`.
    fn free_in_l2(&self, l2: L2GroupId) -> usize;
    /// Total free threads.
    fn free_threads(&self) -> usize;

    /// Number of nodes with at least `per_node` free threads.
    fn nodes_with_free(&self, per_node: usize) -> usize {
        (0..self.num_nodes())
            .filter(|&n| self.free_on_node(NodeId(n)) >= per_node)
            .count()
    }

    /// Number of L2 groups with at least `per_l2` free threads.
    fn l2s_with_free(&self, per_l2: usize) -> usize {
        (0..self.num_l2_groups())
            .filter(|&g| self.free_in_l2(L2GroupId(g)) >= per_l2)
            .count()
    }

    /// Whether a balanced placement needing `n_nodes` nodes with
    /// `per_node` threads each could possibly fit. On an advisory view
    /// `true` is a hint; on an exact view it is a fact (as of the
    /// view's moment).
    fn can_host(&self, n_nodes: usize, per_node: usize) -> bool {
        self.nodes_with_free(per_node) >= n_nodes
    }

    /// The L2-granular companion of [`Self::can_host`]: whether `n_l2`
    /// L2 groups with `per_l2` free threads each are available.
    fn can_host_l2(&self, n_l2: usize, per_l2: usize) -> bool {
        self.l2s_with_free(per_l2) >= n_l2
    }
}

impl CapacityView for CapacitySummary {
    fn num_nodes(&self) -> usize {
        CapacitySummary::num_nodes(self)
    }
    fn num_l2_groups(&self) -> usize {
        CapacitySummary::num_l2_groups(self)
    }
    fn free_on_node(&self, node: NodeId) -> usize {
        CapacitySummary::free_on_node(self, node)
    }
    fn free_in_l2(&self, l2: L2GroupId) -> usize {
        CapacitySummary::free_in_l2(self, l2)
    }
    fn free_threads(&self) -> usize {
        CapacitySummary::free_threads(self)
    }
}

impl CapacityView for OccupancyMap {
    fn num_nodes(&self) -> usize {
        OccupancyMap::num_nodes(self)
    }
    fn num_l2_groups(&self) -> usize {
        OccupancyMap::num_l2_groups(self)
    }
    fn free_on_node(&self, node: NodeId) -> usize {
        OccupancyMap::free_on_node(self, node)
    }
    fn free_in_l2(&self, l2: L2GroupId) -> usize {
        OccupancyMap::free_in_l2(self, l2)
    }
    fn free_threads(&self) -> usize {
        OccupancyMap::free_threads(self)
    }
}

/// Lock-free snapshot of a host's free capacity, per NUMA node and per
/// L2 domain.
///
/// See the [module documentation](self) for the staleness contract.
#[derive(Debug)]
pub struct CapacitySummary {
    /// Free threads per node, indexed by [`NodeId`].
    free_per_node: Vec<AtomicUsize>,
    /// Free threads per L2 group, indexed by [`L2GroupId`].
    free_per_l2: Vec<AtomicUsize>,
    /// Total free threads (kept consistent with `free_per_node` by
    /// publishers; readers may observe the two mid-publish).
    free_total: AtomicUsize,
    /// Threads per node, indexed by [`NodeId`] (derived from the
    /// machine, exact on uneven machines).
    cap_per_node: Vec<usize>,
    /// Threads per L2 group, indexed by [`L2GroupId`].
    cap_per_l2: Vec<usize>,
}

impl CapacitySummary {
    /// An all-free summary for `machine`.
    pub fn new(machine: &Machine) -> Self {
        let mut cap_per_node = vec![0usize; machine.num_nodes()];
        let mut cap_per_l2 = vec![0usize; machine.num_l2_groups()];
        for t in machine.threads() {
            cap_per_node[t.node.index()] += 1;
            cap_per_l2[t.l2_group.index()] += 1;
        }
        CapacitySummary {
            free_per_node: cap_per_node.iter().map(|&c| AtomicUsize::new(c)).collect(),
            free_per_l2: cap_per_l2.iter().map(|&c| AtomicUsize::new(c)).collect(),
            free_total: AtomicUsize::new(machine.num_threads()),
            cap_per_node,
            cap_per_l2,
        }
    }

    /// Number of NUMA nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.free_per_node.len()
    }

    /// Number of L2 groups tracked.
    pub fn num_l2_groups(&self) -> usize {
        self.free_per_l2.len()
    }

    /// Hardware threads on the largest node (on uniform machines, every
    /// node's capacity). Prefer [`Self::capacity_of_node`] — it is
    /// exact on machines with uneven per-node thread counts.
    pub fn node_capacity(&self) -> usize {
        self.cap_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Hardware threads on one specific node.
    pub fn capacity_of_node(&self, node: NodeId) -> usize {
        self.cap_per_node[node.index()]
    }

    /// Hardware threads in one specific L2 group.
    pub fn capacity_of_l2(&self, l2: L2GroupId) -> usize {
        self.cap_per_l2[l2.index()]
    }

    /// Free threads on `node` as of the last publish.
    pub fn free_on_node(&self, node: NodeId) -> usize {
        self.free_per_node[node.index()].load(Ordering::Acquire)
    }

    /// Free threads in L2 group `l2` as of the last publish.
    pub fn free_in_l2(&self, l2: L2GroupId) -> usize {
        self.free_per_l2[l2.index()].load(Ordering::Acquire)
    }

    /// Total free threads as of the last publish.
    pub fn free_threads(&self) -> usize {
        self.free_total.load(Ordering::Acquire)
    }

    /// Number of nodes with at least `per_node` free threads.
    pub fn nodes_with_free(&self, per_node: usize) -> usize {
        self.free_per_node
            .iter()
            .filter(|n| n.load(Ordering::Acquire) >= per_node)
            .count()
    }

    /// Number of L2 groups with at least `per_l2` free threads.
    pub fn l2s_with_free(&self, per_l2: usize) -> usize {
        self.free_per_l2
            .iter()
            .filter(|g| g.load(Ordering::Acquire) >= per_l2)
            .count()
    }

    /// Whether a balanced placement needing `n_nodes` nodes with
    /// `per_node` threads each could *possibly* fit. `true` is a hint
    /// (the authoritative check happens under the occupancy lock);
    /// `false` on a freshly published summary is definitive.
    pub fn can_host(&self, n_nodes: usize, per_node: usize) -> bool {
        self.nodes_with_free(per_node) >= n_nodes
    }

    /// Whether a placement needing `n_l2` L2 groups with `per_l2`
    /// threads each could *possibly* fit — the L2-granular companion of
    /// [`Self::can_host`], for shapes constrained by cache domains
    /// rather than node totals (e.g. one-vCPU-per-module classes on a
    /// host whose nodes have free threads only in busy modules).
    pub fn can_host_l2(&self, n_l2: usize, per_l2: usize) -> bool {
        self.l2s_with_free(per_l2) >= n_l2
    }

    /// Publishes the occupancy map's current per-node and per-L2 free
    /// counts.
    ///
    /// Callers mutate the `OccupancyMap` under its lock and publish
    /// before unlocking, so the summary lags the map by at most one
    /// in-flight critical section.
    pub fn publish(&self, occ: &OccupancyMap) {
        debug_assert_eq!(occ.num_nodes(), self.free_per_node.len());
        debug_assert_eq!(occ.num_l2_groups(), self.free_per_l2.len());
        for (i, slot) in self.free_per_node.iter().enumerate() {
            slot.store(occ.free_on_node(NodeId(i)), Ordering::Release);
        }
        for (i, slot) in self.free_per_l2.iter().enumerate() {
            slot.store(occ.free_in_l2(L2GroupId(i)), Ordering::Release);
        }
        self.free_total.store(occ.free_threads(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineBuilder;
    use crate::machines;

    #[test]
    fn fresh_summary_matches_fresh_occupancy() {
        let m = machines::amd_opteron_6272();
        let s = CapacitySummary::new(&m);
        let occ = OccupancyMap::new(&m);
        assert_eq!(s.free_threads(), occ.free_threads());
        for n in 0..m.num_nodes() {
            assert_eq!(s.free_on_node(NodeId(n)), occ.free_on_node(NodeId(n)));
        }
        for g in 0..m.num_l2_groups() {
            assert_eq!(s.free_in_l2(L2GroupId(g)), occ.free_in_l2(L2GroupId(g)));
        }
        assert_eq!(s.nodes_with_free(8), 8);
        assert_eq!(s.nodes_with_free(9), 0);
        assert_eq!(s.l2s_with_free(2), 32);
        assert_eq!(s.l2s_with_free(3), 0);
    }

    #[test]
    fn publish_reflects_reservations_and_releases() {
        let m = machines::amd_opteron_6272();
        let s = CapacitySummary::new(&m);
        let mut occ = OccupancyMap::new(&m);
        let node1 = m.threads_on_node(NodeId(1));
        occ.reserve(&node1).unwrap();
        s.publish(&occ);
        assert_eq!(s.free_on_node(NodeId(1)), 0);
        assert_eq!(s.free_threads(), 56);
        assert!(!s.can_host(8, 1));
        assert!(s.can_host(7, 8));
        // Node 1's four modules are full; the other 28 still have room.
        assert_eq!(s.l2s_with_free(1), 28);
        assert!(!s.can_host_l2(32, 1));
        assert!(s.can_host_l2(28, 2));
        occ.release(&node1).unwrap();
        s.publish(&occ);
        assert_eq!(s.free_threads(), 64);
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
        assert_eq!(s.free_on_node(NodeId(0)), 4);
        assert!(s.can_host(1, 4), "node-level count admits the host");
        // …but an L2-constrained shape (4 modules × 2 threads on one
        // node) is impossible, which only the L2 counters can see.
        assert_eq!(s.l2s_with_free(2), 28);
        assert!(!s.can_host_l2(32, 2));
    }

    #[test]
    fn uneven_machines_summarise_per_node_capacities() {
        let m = MachineBuilder::new("uneven")
            .packages(2)
            .nodes_per_package(1)
            .l3_groups_per_node(1)
            .l2_groups_per_l3(4)
            .cores_per_l2(1)
            .threads_per_core(2)
            .l2_groups_per_l3_on_node(1, 2)
            .link(0, 1, 12.8)
            .build()
            .unwrap();
        let s = CapacitySummary::new(&m);
        // Exact per-node capacities: the uniform mean (6) would both
        // hide node 0's two extra threads (mis-skip) and invent two
        // threads on node 1 (mis-admit).
        assert_eq!(s.capacity_of_node(NodeId(0)), 8);
        assert_eq!(s.capacity_of_node(NodeId(1)), 4);
        assert_eq!(s.free_on_node(NodeId(0)), 8);
        assert_eq!(s.free_on_node(NodeId(1)), 4);
        assert!(s.can_host(1, 8), "node 0's full 8 threads are visible");
        assert!(!s.can_host(2, 5), "node 1 cannot pretend to hold 5");
        assert_eq!(s.node_capacity(), 8);
        // Publishing a real occupancy keeps the counts exact.
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(1))).unwrap();
        s.publish(&occ);
        assert_eq!(s.free_on_node(NodeId(1)), 0);
        assert_eq!(s.free_on_node(NodeId(0)), 8);
        assert_eq!(s.free_threads(), 8);
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
                // Either the old (8) or the new (0) value: never garbage.
                let f = s.free_on_node(NodeId(0));
                assert!(f == 0 || f == 8, "torn read: {f}");
            });
        });
        assert_eq!(s.free_on_node(NodeId(0)), 0);
    }

    #[test]
    fn capacity_view_answers_agree_across_implementations() {
        // The advisory summary and the exact map must answer every
        // CapacityView query identically once the summary is published
        // from the map — this is what lets prefilter code be generic.
        fn probe(v: &dyn CapacityView) -> Vec<usize> {
            let mut out = vec![v.free_threads()];
            out.extend((0..=8).map(|k| v.nodes_with_free(k)));
            out.extend((0..=2).map(|k| v.l2s_with_free(k)));
            out.push(usize::from(v.can_host(4, 8)));
            out.push(usize::from(v.can_host_l2(16, 2)));
            out
        }
        let m = machines::amd_opteron_6272();
        let s = CapacitySummary::new(&m);
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(3))).unwrap();
        let one_per_module: Vec<_> = m
            .threads_on_node(NodeId(6))
            .into_iter()
            .step_by(2)
            .collect();
        occ.reserve(&one_per_module).unwrap();
        s.publish(&occ);
        assert_eq!(probe(&s), probe(&occ));
    }
}
