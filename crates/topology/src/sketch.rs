//! Shard-level availability sketches for fleet-scale admission.
//!
//! A [`CapacitySummary`](crate::CapacitySummary) answers "could *this
//! host* possibly fit shape S?" without its lock — but a fleet of 10⁵
//! hosts still pays one summary read per host per request, even when
//! 99% of the fleet provably cannot help. An [`AvailabilitySketch`] is
//! the next level of the hierarchy: one lock-free aggregate over a
//! *group* of same-class hosts (an engine shard), maintained
//! incrementally by the same publication path that updates each host's
//! summary, answering "could *any host in this group* possibly fit
//! shape S?" in O(1) — so admission descends sketch → shard → host and
//! never reads the summaries of shards the sketch rules out.
//!
//! Gudkov et al. ("Efficient calculation of available space for
//! multi-NUMA virtual machines") frame the underlying accounting
//! problem: maintain a cheap standing answer to "how many containers
//! of shape S still fit?". The sketch keeps, per shard, two cumulative
//! count tables over the per-host [`SketchProfile`]s the capacity
//! summaries publish:
//!
//! * `N[k][n]` — hosts whose occupancy has at least `n` NUMA nodes
//!   with ≥ `k` free threads each (`nodes_with_free(k) ≥ n`);
//! * `L[k][g]` — hosts with at least `g` L2 groups with ≥ `k` free
//!   threads each (`l2s_with_free(k) ≥ g`).
//!
//! A shape `S = (num_nodes, per_node, num_l2, per_l2)` (the engine's
//! `ShapeRequirement`) is *admitted* iff both marginals are nonzero:
//! `N[per_node][num_nodes] > 0 && L[per_l2][num_l2] > 0`. This is
//! **conservative by construction**: a host passes the per-host
//! summary prefilter only when *its own* `nodes_with_free` and
//! `l2s_with_free` both clear the shape, so each passing host
//! contributes to both tables — a zero in either marginal proves no
//! host in the shard can pass. The converse does not hold (one host
//! may satisfy the node axis and a different host the L2 axis), so an
//! admitted shard can still turn out empty; that staleness is counted,
//! never wrong.
//!
//! # Maintenance
//!
//! A host's [`CapacitySummary`](crate::CapacitySummary) holds its
//! last-published [`SketchProfile`] (the two per-`k` counts), written
//! only under the host's lock. Publication computes the fresh profile,
//! applies the *delta* against the one read back from the summary, then
//! stores the fresh one — per `k`, a ±1 over the index range between
//! the old and new counts, i.e. a handful of atomic adds per mutation
//! (proportional to how many nodes/L2 groups changed occupancy, not to
//! the table size). Deltas commute, so hosts of one shard publish
//! concurrently without coordination.
//!
//! Like the summary, the sketch is **advisory** under concurrency:
//! a reader racing a publication may transiently see a count that
//! skips a shard which just gained room (the request falls back to the
//! rest of the fleet) or admits one that just lost it (the per-host
//! summary, then the occupancy lock, re-validate). At rest — no
//! critical section in flight — the tables equal the counts recomputed
//! from the members' occupancy exactly (proptested in `vc-engine`).
//!
//! # Examples
//!
//! ```
//! use vc_topology::{machines, AvailabilitySketch, NodeId, OccupancyMap};
//!
//! let amd = machines::amd_opteron_6272();
//! let sketch = AvailabilitySketch::new(&amd);
//!
//! // Two idle hosts join the shard.
//! let mut occ_a = OccupancyMap::new(&amd);
//! let occ_b = OccupancyMap::new(&amd);
//! let mut prof_a = sketch.profile(&occ_a);
//! sketch.attach(&prof_a);
//! sketch.attach(&sketch.profile(&occ_b));
//! assert_eq!(sketch.num_hosts(), 2);
//! assert_eq!(sketch.hosts_with_nodes(8, 4), 2); // 4 nodes × 8 free each
//! assert!(sketch.admits((8, 4), (2, 16))); // 4 nodes × 8, 16 L2s × 2
//!
//! // Host A fills one node; its publication applies the delta.
//! occ_a.reserve(&amd.threads_on_node(NodeId(0))).unwrap();
//! let fresh = sketch.profile(&occ_a);
//! sketch.update(&prof_a, &fresh);
//! prof_a = fresh;
//! assert_eq!(sketch.hosts_with_nodes(8, 8), 1); // only B has all 8 free
//! assert_eq!(sketch.hosts_with_nodes(8, 7), 2);
//! let _ = prof_a;
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::ids::{L2GroupId, NodeId};
use crate::machine::Machine;
use crate::occupancy::OccupancyMap;

/// One host's contribution to an [`AvailabilitySketch`]: for every
/// per-unit free-thread threshold `k`, how many NUMA nodes
/// (resp. L2 groups) of the host have at least `k` free threads.
///
/// The profile is a pure function of the host's occupancy. The host's
/// [`CapacitySummary`](crate::CapacitySummary) publishes it, so
/// publication can apply the sketch *delta* against the previous one
/// instead of rebuilding shard totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchProfile {
    /// `nodes_with[k]` = nodes with ≥ `k` free threads, `k` in
    /// `0..=` the largest node's capacity.
    pub(crate) nodes_with: Vec<usize>,
    /// `l2s_with[k]` = L2 groups with ≥ `k` free threads, `k` in
    /// `0..=` the largest L2 group's capacity.
    pub(crate) l2s_with: Vec<usize>,
}

impl SketchProfile {
    /// The profile of `occ`: one pass over its per-unit free counts.
    pub(crate) fn of(occ: &OccupancyMap) -> SketchProfile {
        SketchProfile {
            nodes_with: at_least(
                (0..occ.num_nodes()).map(|n| occ.free_on_node(NodeId(n))),
                occ.node_capacity(),
            ),
            l2s_with: at_least(
                (0..occ.num_l2_groups()).map(|g| occ.free_in_l2(L2GroupId(g))),
                occ.l2_capacity(),
            ),
        }
    }

    /// Nodes with at least `k` free threads as of the profile's
    /// computation.
    pub fn nodes_with_free(&self, k: usize) -> usize {
        self.nodes_with.get(k).copied().unwrap_or(0)
    }

    /// L2 groups with at least `k` free threads as of the profile's
    /// computation.
    pub fn l2s_with_free(&self, k: usize) -> usize {
        self.l2s_with.get(k).copied().unwrap_or(0)
    }
}

/// `out[k]` = how many of `frees` are ≥ `k`, for `k` in `0..=cap`:
/// a histogram, then suffix sums.
fn at_least(frees: impl Iterator<Item = usize>, cap: usize) -> Vec<usize> {
    let mut out = vec![0; cap + 1];
    for free in frees {
        out[free] += 1;
    }
    for k in (0..cap).rev() {
        out[k] += out[k + 1];
    }
    out
}

/// A lock-free aggregate availability sketch over a group of
/// same-topology hosts (one engine shard).
///
/// See the [module documentation](self) for the data structure, the
/// conservativeness argument and the staleness contract.
#[derive(Debug)]
pub struct AvailabilitySketch {
    /// Nodes per member machine (the `n` axis bound).
    num_nodes: usize,
    /// Largest per-node thread capacity (the node `k` axis bound).
    cap_node: usize,
    /// L2 groups per member machine (the `g` axis bound).
    num_l2: usize,
    /// Largest per-L2 thread capacity (the L2 `k` axis bound).
    cap_l2: usize,
    /// `nodes_tbl[k * num_nodes + (n-1)]` = hosts with
    /// `nodes_with_free(k) ≥ n`.
    nodes_tbl: Vec<AtomicUsize>,
    /// `l2_tbl[k * num_l2 + (g-1)]` = hosts with
    /// `l2s_with_free(k) ≥ g`.
    l2_tbl: Vec<AtomicUsize>,
    /// Hosts attached to this sketch.
    hosts: AtomicUsize,
}

impl AvailabilitySketch {
    /// An empty sketch dimensioned for shards of hosts structurally
    /// equal to `machine` (per-node and per-L2 capacities are derived
    /// from the machine, exact on uneven topologies).
    pub fn new(machine: &Machine) -> Self {
        let idle = OccupancyMap::new(machine);
        let (num_nodes, cap_node) = (idle.num_nodes(), idle.node_capacity());
        let (num_l2, cap_l2) = (idle.num_l2_groups(), idle.l2_capacity());
        let zeroed = |len| (0..len).map(|_| AtomicUsize::new(0)).collect();
        AvailabilitySketch {
            num_nodes,
            cap_node,
            num_l2,
            cap_l2,
            nodes_tbl: zeroed((cap_node + 1) * num_nodes),
            l2_tbl: zeroed((cap_l2 + 1) * num_l2),
            hosts: AtomicUsize::new(0),
        }
    }

    /// The sketch profile of a member host's occupancy — the engine
    /// computes it under the host lock, from the authoritative map.
    pub fn profile(&self, occ: &OccupancyMap) -> SketchProfile {
        debug_assert_eq!(
            (occ.num_nodes(), occ.node_capacity(), occ.num_l2_groups(), occ.l2_capacity()),
            (self.num_nodes, self.cap_node, self.num_l2, self.cap_l2),
            "occupancy of another topology"
        );
        SketchProfile::of(occ)
    }

    /// Registers a new member host with profile `p` (one-time, at
    /// fleet registration).
    pub fn attach(&self, p: &SketchProfile) {
        self.hosts.fetch_add(1, Ordering::AcqRel);
        Self::apply(&self.nodes_tbl, self.num_nodes, &[], &p.nodes_with);
        Self::apply(&self.l2_tbl, self.num_l2, &[], &p.l2s_with);
    }

    /// Applies the delta between a member's last-published profile and
    /// its fresh one. Called while the publisher still holds the
    /// member's host lock (so per-host deltas are serialised); deltas
    /// of *different* members commute freely.
    pub fn update(&self, old: &SketchProfile, new: &SketchProfile) {
        Self::apply(&self.nodes_tbl, self.num_nodes, &old.nodes_with, &new.nodes_with);
        Self::apply(&self.l2_tbl, self.num_l2, &old.l2s_with, &new.l2s_with);
    }

    /// ±1 range updates per threshold `k`: the cumulative count tables
    /// only change over the index range between the old and new counts.
    fn apply(tbl: &[AtomicUsize], width: usize, old: &[usize], new: &[usize]) {
        for (k, &b) in new.iter().enumerate() {
            let a = old.get(k).copied().unwrap_or(0);
            let row = k * width;
            if b > a {
                for n in a..b {
                    tbl[row + n].fetch_add(1, Ordering::AcqRel);
                }
            } else {
                for n in b..a {
                    tbl[row + n].fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }

    /// Hosts attached to this sketch.
    pub fn num_hosts(&self) -> usize {
        self.hosts.load(Ordering::Acquire)
    }

    /// Hosts whose last-published occupancy had at least `num_nodes`
    /// NUMA nodes with ≥ `per_node` free threads each. Out-of-range
    /// shapes (impossible on this topology) count zero; a zero count is
    /// trivially satisfied by every host.
    pub fn hosts_with_nodes(&self, per_node: usize, num_nodes: usize) -> usize {
        if num_nodes == 0 {
            return self.num_hosts();
        }
        if per_node > self.cap_node || num_nodes > self.num_nodes {
            return 0;
        }
        self.nodes_tbl[per_node * self.num_nodes + (num_nodes - 1)].load(Ordering::Acquire)
    }

    /// The L2-granular companion of [`Self::hosts_with_nodes`].
    pub fn hosts_with_l2s(&self, per_l2: usize, num_l2: usize) -> usize {
        if num_l2 == 0 {
            return self.num_hosts();
        }
        if per_l2 > self.cap_l2 || num_l2 > self.num_l2 {
            return 0;
        }
        self.l2_tbl[per_l2 * self.num_l2 + (num_l2 - 1)].load(Ordering::Acquire)
    }

    /// Whether *any* member host could possibly pass the per-host
    /// summary prefilter for a shape, given as its node bucket
    /// `(per_node, num_nodes)` and L2 bucket `(per_l2, num_l2)` (the
    /// engine derives both from its `ShapeRequirement`). `false` is a
    /// proof over the whole shard (at-rest semantics); `true` is
    /// advisory and re-checked per host.
    pub fn admits(&self, node_bucket: (usize, usize), l2_bucket: (usize, usize)) -> bool {
        self.hosts_with_nodes(node_bucket.0, node_bucket.1) > 0
            && self.hosts_with_l2s(l2_bucket.0, l2_bucket.1) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    /// Nodes of `occ` with at least `k` free threads, counted one by one.
    fn nodes_with_free(occ: &OccupancyMap, k: usize) -> usize {
        (0..occ.num_nodes())
            .filter(|&n| occ.free_on_node(NodeId(n)) >= k)
            .count()
    }

    /// L2 groups of `occ` with at least `k` free threads, counted one by
    /// one.
    fn l2s_with_free(occ: &OccupancyMap, k: usize) -> usize {
        (0..occ.num_l2_groups())
            .filter(|&g| occ.free_in_l2(L2GroupId(g)) >= k)
            .count()
    }

    /// Recomputes every table entry from the member views directly —
    /// the ground truth incremental maintenance must match.
    fn assert_matches_ground_truth(sketch: &AvailabilitySketch, views: &[&OccupancyMap]) {
        assert_eq!(sketch.num_hosts(), views.len());
        for k in 0..=sketch.cap_node {
            for n in 1..=sketch.num_nodes {
                let truth = views.iter().filter(|v| nodes_with_free(v, k) >= n).count();
                assert_eq!(
                    sketch.hosts_with_nodes(k, n),
                    truth,
                    "N[{k}][{n}] diverged from ground truth"
                );
            }
        }
        for k in 0..=sketch.cap_l2 {
            for g in 1..=sketch.num_l2 {
                let truth = views.iter().filter(|v| l2s_with_free(v, k) >= g).count();
                assert_eq!(
                    sketch.hosts_with_l2s(k, g),
                    truth,
                    "L[{k}][{g}] diverged from ground truth"
                );
            }
        }
    }

    #[test]
    fn attach_and_update_track_ground_truth_through_churn() {
        let amd = machines::amd_opteron_6272();
        let sketch = AvailabilitySketch::new(&amd);
        let mut occs: Vec<OccupancyMap> = (0..3).map(|_| OccupancyMap::new(&amd)).collect();
        let mut profiles: Vec<SketchProfile> =
            occs.iter().map(|o| sketch.profile(o)).collect();
        for p in &profiles {
            sketch.attach(p);
        }
        assert_matches_ground_truth(&sketch, &occs.iter().collect::<Vec<_>>());

        // A deterministic churn: reserve/release whole nodes across the
        // members, publishing the delta after every mutation.
        let steps: &[(usize, usize, bool)] = &[
            (0, 0, true),
            (0, 1, true),
            (1, 3, true),
            (0, 0, false),
            (2, 7, true),
            (1, 3, false),
            (2, 6, true),
        ];
        for &(host, node, reserve) in steps {
            let threads = amd.threads_on_node(NodeId(node));
            if reserve {
                occs[host].reserve(&threads).unwrap();
            } else {
                occs[host].release(&threads).unwrap();
            }
            let fresh = sketch.profile(&occs[host]);
            sketch.update(&profiles[host], &fresh);
            profiles[host] = fresh;
            assert_matches_ground_truth(&sketch, &occs.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn admits_is_conservative_and_out_of_range_shapes_are_rejected() {
        let amd = machines::amd_opteron_6272();
        let sketch = AvailabilitySketch::new(&amd);
        let occ = OccupancyMap::new(&amd);
        sketch.attach(&sketch.profile(&occ));

        // Idle host: every feasible shape is admitted…
        assert!(sketch.admits((8, 8), (2, 32)));
        assert!(sketch.admits((8, 1), (2, 4)));
        // …and shapes this topology cannot ever host are proven out.
        assert_eq!(sketch.hosts_with_nodes(9, 1), 0, "per-node over capacity");
        assert_eq!(sketch.hosts_with_nodes(8, 9), 0, "more nodes than exist");
        assert_eq!(sketch.hosts_with_l2s(3, 1), 0, "per-L2 over capacity");
        assert!(!sketch.admits((9, 1), (1, 1)));
        assert!(!sketch.admits((1, 1), (3, 1)));
        // Degenerate buckets are trivially satisfied (never emitted by
        // real shapes, but must not underflow).
        assert_eq!(sketch.hosts_with_nodes(0, 4), 1);
        assert_eq!(sketch.hosts_with_l2s(2, 0), 1);
    }

    #[test]
    fn admits_is_conservative_when_different_hosts_clear_each_axis() {
        let amd = machines::amd_opteron_6272();
        let sketch = AvailabilitySketch::new(&amd);
        // Host A: one whole node free, the rest fully reserved — clears
        // the node axis of (8, 1) and the L2 axis only weakly.
        let mut occ_a = OccupancyMap::new(&amd);
        for n in 1..amd.num_nodes() {
            occ_a.reserve(&amd.threads_on_node(NodeId(n))).unwrap();
        }
        // Host B: one free thread per module on node 0 — strong on
        // 1-thread L2 counts, no node has 8 free.
        let mut occ_b = OccupancyMap::new(&amd);
        let partial: Vec<_> = amd
            .threads_on_node(NodeId(0))
            .into_iter()
            .step_by(2)
            .collect();
        occ_b.reserve(&partial).unwrap();
        for n in 1..amd.num_nodes() {
            occ_b.reserve(&amd.threads_on_node(NodeId(n))).unwrap();
        }
        sketch.attach(&sketch.profile(&occ_a));
        sketch.attach(&sketch.profile(&occ_b));

        // Shape: 1 node × 8 threads AND 4 L2 groups × 2 threads.
        // Only A satisfies both axes.
        assert_eq!(sketch.hosts_with_nodes(8, 1), 1); // A only
        assert_eq!(sketch.hosts_with_l2s(2, 4), 1); // A only
        // A shape where the axes are satisfied by *different* hosts
        // shows the sketch's conservatism: admitted, though no single
        // host clears both.
        assert_eq!(sketch.hosts_with_nodes(4, 1), 2); // A (8 free) and B (4 free)
        assert_eq!(sketch.hosts_with_l2s(1, 4), 2); // both have 4 single-free modules
        assert!(sketch.admits((4, 1), (1, 4)));
    }

    #[test]
    fn profile_accessors_expose_the_stored_counts() {
        let amd = machines::amd_opteron_6272();
        let sketch = AvailabilitySketch::new(&amd);
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&amd.threads_on_node(NodeId(2))).unwrap();
        let p = sketch.profile(&occ);
        for k in 0..=8 {
            assert_eq!(p.nodes_with_free(k), nodes_with_free(&occ, k));
        }
        for k in 0..=2 {
            assert_eq!(p.l2s_with_free(k), l2s_with_free(&occ, k));
        }
        assert_eq!(p.nodes_with_free(0), 8, "every node has at least nothing free");
        assert_eq!(p.nodes_with_free(64), 0, "beyond the stored range");
    }
}
