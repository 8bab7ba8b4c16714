//! Node-granular occupancy accounting for one machine.
//!
//! A placement is only as good as the hardware threads it actually gets:
//! two containers "placed" on overlapping node sets share caches and
//! memory controllers the model never scored. An [`OccupancyMap`] tracks
//! which hardware threads of a machine are reserved, maintaining derived
//! counters per NUMA node and per L2 domain so admission logic can ask
//! "does node `N2` still have four free threads?" in O(1).
//!
//! The map is self-contained: it takes a reference-counted handle on
//! the machine's thread → node / L2-group layout at construction and
//! never touches the machine again, so it can live behind a lock on a
//! serving path without borrowing the (much larger) topology
//! description. The layout is built once per [`Machine`] and shared by
//! every map of that machine and of its clones — a fleet's published
//! host snapshots each own only the reservation flags and counters.
//!
//! # Examples
//!
//! ```
//! use vc_topology::{machines, NodeId, OccupancyMap, ThreadId};
//!
//! let amd = machines::amd_opteron_6272();
//! let mut occ = OccupancyMap::new(&amd);
//! assert_eq!(occ.free_threads(), 64);
//!
//! // Reserve the whole of node 0 (threads 0..8 on this machine).
//! let node0: Vec<ThreadId> = amd.threads_on_node(NodeId(0));
//! occ.reserve(&node0).unwrap();
//! assert_eq!(occ.free_on_node(NodeId(0)), 0);
//! assert_eq!(occ.free_on_node(NodeId(1)), 8);
//!
//! // Double reservation is refused and changes nothing.
//! assert!(occ.reserve(&node0).is_err());
//!
//! occ.release(&node0).unwrap();
//! assert_eq!(occ.free_threads(), 64);
//! ```

use std::fmt;
use std::sync::Arc;

use crate::ids::{L2GroupId, NodeId, ThreadId};
use crate::machine::{HwThread, Machine};

/// Errors from [`OccupancyMap::reserve`] / [`OccupancyMap::release`].
///
/// All operations are all-or-nothing: when any thread in the request is
/// in the wrong state, the error names it and the map is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OccupancyError {
    /// A thread id is out of range for the machine.
    UnknownThread(ThreadId),
    /// A thread appears twice in one request.
    DuplicateThread(ThreadId),
    /// Reserving a thread that is already reserved.
    AlreadyReserved {
        /// The conflicting thread.
        thread: ThreadId,
        /// The NUMA node it lives on.
        node: NodeId,
    },
    /// Releasing a thread that is not currently reserved.
    NotReserved {
        /// The offending thread.
        thread: ThreadId,
        /// The NUMA node it lives on.
        node: NodeId,
    },
}

impl fmt::Display for OccupancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OccupancyError::UnknownThread(t) => write!(f, "thread {t} does not exist"),
            OccupancyError::DuplicateThread(t) => write!(f, "thread {t} listed twice"),
            OccupancyError::AlreadyReserved { thread, node } => {
                write!(f, "thread {thread} on node {node} is already reserved")
            }
            OccupancyError::NotReserved { thread, node } => {
                write!(f, "thread {thread} on node {node} is not reserved")
            }
        }
    }
}

impl std::error::Error for OccupancyError {}

/// The part of an [`OccupancyMap`] that is a function of the machine
/// alone: where each thread lives and how many threads each node and L2
/// group holds. Built once per [`Machine`] (its builder stores it) and
/// shared by reference count.
#[derive(Debug)]
pub(crate) struct OccupancyLayout {
    /// Owning node of each thread.
    node_of: Vec<NodeId>,
    /// Owning L2 group of each thread.
    l2_of: Vec<L2GroupId>,
    /// Threads per node, indexed by [`NodeId`] — exact even on machines
    /// with uneven per-node thread counts.
    cap_per_node: Vec<usize>,
    /// Threads per L2 group, indexed by [`L2GroupId`].
    cap_per_l2: Vec<usize>,
}

impl OccupancyLayout {
    /// The layout of a machine with these threads.
    pub(crate) fn of(threads: &[HwThread], num_nodes: usize, num_l2_groups: usize) -> Self {
        // Derive per-node / per-L2 capacities from the actual thread
        // metadata rather than assuming uniform machines: machines with
        // offline cache domains have uneven nodes.
        let mut cap_per_node = vec![0; num_nodes];
        let mut cap_per_l2 = vec![0; num_l2_groups];
        for t in threads {
            cap_per_node[t.node.index()] += 1;
            cap_per_l2[t.l2_group.index()] += 1;
        }
        OccupancyLayout {
            node_of: threads.iter().map(|t| t.node).collect(),
            l2_of: threads.iter().map(|t| t.l2_group).collect(),
            cap_per_node,
            cap_per_l2,
        }
    }
}

/// Which hardware threads of one machine are reserved, with per-node and
/// per-L2-domain counters kept in sync.
///
/// See the [module documentation](self) for an example.
#[derive(Debug, Clone)]
pub struct OccupancyMap {
    /// The machine's static layout, shared with every other map of it.
    layout: Arc<OccupancyLayout>,
    /// Per-thread reservation flags, indexed by [`ThreadId`].
    used: Vec<bool>,
    /// Reserved threads per node.
    used_per_node: Vec<usize>,
    /// Reserved threads per L2 group.
    used_per_l2: Vec<usize>,
    /// Total reserved threads.
    used_total: usize,
}

impl OccupancyMap {
    /// An all-free map for `machine`.
    pub fn new(machine: &Machine) -> Self {
        OccupancyMap {
            layout: Arc::clone(machine.occupancy_layout()),
            used: vec![false; machine.num_threads()],
            used_per_node: vec![0; machine.num_nodes()],
            used_per_l2: vec![0; machine.num_l2_groups()],
            used_total: 0,
        }
    }

    /// Total hardware threads on the machine.
    pub fn total_threads(&self) -> usize {
        self.used.len()
    }

    /// Currently reserved threads.
    pub fn used_threads(&self) -> usize {
        self.used_total
    }

    /// Currently free threads.
    pub fn free_threads(&self) -> usize {
        self.used.len() - self.used_total
    }

    /// Number of NUMA nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.used_per_node.len()
    }

    /// Number of L2 groups tracked.
    pub fn num_l2_groups(&self) -> usize {
        self.used_per_l2.len()
    }

    /// Hardware threads on the largest node (on uniform machines, every
    /// node's capacity). Prefer [`Self::capacity_of_node`] — it is exact
    /// on machines with uneven per-node thread counts.
    pub fn node_capacity(&self) -> usize {
        self.layout.cap_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Hardware threads in the largest L2 group (on uniform machines,
    /// every L2 group's capacity).
    pub fn l2_capacity(&self) -> usize {
        self.layout.cap_per_l2.iter().copied().max().unwrap_or(0)
    }

    /// Hardware threads on `node`.
    pub fn capacity_of_node(&self, node: NodeId) -> usize {
        self.layout.cap_per_node[node.index()]
    }

    /// Whether `thread` is currently free.
    pub fn is_free(&self, thread: ThreadId) -> bool {
        !self.used[thread.index()]
    }

    /// The NUMA node `thread` lives on (the map is self-contained, so
    /// callers need not keep the [`Machine`] around to answer this).
    pub fn node_of(&self, thread: ThreadId) -> NodeId {
        self.layout.node_of[thread.index()]
    }

    /// Free threads on `node`.
    pub fn free_on_node(&self, node: NodeId) -> usize {
        self.layout.cap_per_node[node.index()] - self.used_per_node[node.index()]
    }

    /// Free threads in L2 group `l2`.
    pub fn free_in_l2(&self, l2: L2GroupId) -> usize {
        self.layout.cap_per_l2[l2.index()] - self.used_per_l2[l2.index()]
    }

    /// Whether `node` is completely untouched (no reservations).
    pub fn node_is_pristine(&self, node: NodeId) -> bool {
        self.used_per_node[node.index()] == 0
    }

    /// Per-node `(used, capacity)` pairs, node-id order.
    pub fn node_usage(&self) -> Vec<(NodeId, usize, usize)> {
        self.used_per_node
            .iter()
            .enumerate()
            .map(|(i, &u)| (NodeId(i), u, self.layout.cap_per_node[i]))
            .collect()
    }

    /// The node with the fewest free threads (ties towards the smaller
    /// id) — the node to name when explaining why nothing fits.
    pub fn most_exhausted_node(&self) -> NodeId {
        let i = self
            .used_per_node
            .iter()
            .enumerate()
            .min_by_key(|&(i, &u)| (self.layout.cap_per_node[i] - u, i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        NodeId(i)
    }

    fn check(&self, threads: &[ThreadId], reserving: bool) -> Result<(), OccupancyError> {
        for (i, &t) in threads.iter().enumerate() {
            if t.index() >= self.used.len() {
                return Err(OccupancyError::UnknownThread(t));
            }
            if threads[..i].contains(&t) {
                return Err(OccupancyError::DuplicateThread(t));
            }
            if reserving && self.used[t.index()] {
                return Err(OccupancyError::AlreadyReserved {
                    thread: t,
                    node: self.layout.node_of[t.index()],
                });
            }
            if !reserving && !self.used[t.index()] {
                return Err(OccupancyError::NotReserved {
                    thread: t,
                    node: self.layout.node_of[t.index()],
                });
            }
        }
        Ok(())
    }

    /// Whether [`Self::reserve`] would accept `threads`: the same
    /// all-or-nothing check, with nothing changed either way.
    pub fn check_reserve(&self, threads: &[ThreadId]) -> Result<(), OccupancyError> {
        self.check(threads, true)
    }

    /// Reserves a set of threads, all-or-nothing.
    pub fn reserve(&mut self, threads: &[ThreadId]) -> Result<(), OccupancyError> {
        self.check(threads, true)?;
        for &t in threads {
            self.used[t.index()] = true;
            self.used_per_node[self.layout.node_of[t.index()].index()] += 1;
            self.used_per_l2[self.layout.l2_of[t.index()].index()] += 1;
        }
        self.used_total += threads.len();
        Ok(())
    }

    /// Releases a set of threads, all-or-nothing.
    pub fn release(&mut self, threads: &[ThreadId]) -> Result<(), OccupancyError> {
        self.check(threads, false)?;
        for &t in threads {
            self.used[t.index()] = false;
            self.used_per_node[self.layout.node_of[t.index()].index()] -= 1;
            self.used_per_l2[self.layout.l2_of[t.index()].index()] -= 1;
        }
        self.used_total -= threads.len();
        Ok(())
    }
}

impl fmt::Display for OccupancyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per_node: Vec<String> = self
            .used_per_node
            .iter()
            .enumerate()
            .map(|(i, u)| format!("N{i}:{u}/{}", self.layout.cap_per_node[i]))
            .collect();
        write!(
            f,
            "{}/{} threads reserved [{}]",
            self.used_total,
            self.used.len(),
            per_node.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    fn amd() -> Machine {
        machines::amd_opteron_6272()
    }

    #[test]
    fn fresh_map_is_all_free() {
        let m = amd();
        let occ = OccupancyMap::new(&m);
        assert_eq!(occ.total_threads(), 64);
        assert_eq!(occ.used_threads(), 0);
        assert_eq!(occ.free_threads(), 64);
        for n in 0..occ.num_nodes() {
            assert_eq!(occ.free_on_node(NodeId(n)), 8);
            assert!(occ.node_is_pristine(NodeId(n)));
        }
    }

    #[test]
    fn maps_of_one_machine_share_the_layout_allocation() {
        let m = amd();
        let (a, b) = (OccupancyMap::new(&m), OccupancyMap::new(&m));
        assert!(Arc::ptr_eq(&a.layout, &b.layout));
        // A published snapshot is a clone; a fleet's hosts hold clones
        // of one registered machine.
        let mut snapshot = a.clone();
        assert!(Arc::ptr_eq(&a.layout, &snapshot.layout));
        assert!(Arc::ptr_eq(
            &a.layout,
            &OccupancyMap::new(&m.clone()).layout
        ));
        // The reservation state stays private to each map.
        snapshot.reserve(&[ThreadId(0)]).unwrap();
        assert!(a.is_free(ThreadId(0)) && !snapshot.is_free(ThreadId(0)));
        assert_eq!(snapshot.node_of(ThreadId(0)), a.node_of(ThreadId(0)));
        // A separately built machine has its own.
        assert!(!Arc::ptr_eq(&a.layout, &OccupancyMap::new(&amd()).layout));
    }

    #[test]
    fn reserve_updates_all_granularities() {
        let m = amd();
        let mut occ = OccupancyMap::new(&m);
        let node0 = m.threads_on_node(NodeId(0));
        occ.reserve(&node0).unwrap();
        assert_eq!(occ.used_threads(), 8);
        assert_eq!(occ.free_on_node(NodeId(0)), 0);
        assert!(!occ.node_is_pristine(NodeId(0)));
        assert!(occ.node_is_pristine(NodeId(1)));
        // Node 0 covers L2 groups 0..4 on this machine (8 modules/2 nodes
        // per package... verified structurally via the thread metadata).
        for t in &node0 {
            let l2 = m.thread(*t).l2_group;
            assert_eq!(occ.free_in_l2(l2), 0);
        }
    }

    #[test]
    fn double_reserve_fails_atomically() {
        let m = amd();
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&[ThreadId(3)]).unwrap();
        assert_eq!(occ.check_reserve(&[ThreadId(2)]), Ok(()));
        let err = occ.reserve(&[ThreadId(2), ThreadId(3)]).unwrap_err();
        assert_eq!(
            err,
            OccupancyError::AlreadyReserved {
                thread: ThreadId(3),
                node: NodeId(0)
            }
        );
        assert_eq!(occ.check_reserve(&[ThreadId(2), ThreadId(3)]), Err(err));
        // The failed request must not have reserved thread 2.
        assert!(occ.is_free(ThreadId(2)));
        assert_eq!(occ.used_threads(), 1);
    }

    #[test]
    fn release_of_unreserved_fails_atomically() {
        let m = amd();
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&[ThreadId(0), ThreadId(1)]).unwrap();
        let err = occ.release(&[ThreadId(0), ThreadId(5)]).unwrap_err();
        assert!(matches!(err, OccupancyError::NotReserved { .. }));
        // Thread 0 stays reserved despite appearing in the failed batch.
        assert!(!occ.is_free(ThreadId(0)));
        assert_eq!(occ.used_threads(), 2);
    }

    #[test]
    fn duplicate_and_unknown_threads_are_rejected() {
        let m = amd();
        let mut occ = OccupancyMap::new(&m);
        assert_eq!(
            occ.reserve(&[ThreadId(1), ThreadId(1)]),
            Err(OccupancyError::DuplicateThread(ThreadId(1)))
        );
        assert_eq!(
            occ.reserve(&[ThreadId(64)]),
            Err(OccupancyError::UnknownThread(ThreadId(64)))
        );
    }

    #[test]
    fn release_restores_exact_counts() {
        let m = amd();
        let mut occ = OccupancyMap::new(&m);
        let a: Vec<ThreadId> = m.threads_on_node(NodeId(2));
        let b: Vec<ThreadId> = m.threads_on_node(NodeId(3));
        occ.reserve(&a).unwrap();
        occ.reserve(&b).unwrap();
        occ.release(&a).unwrap();
        assert_eq!(occ.free_on_node(NodeId(2)), 8);
        assert_eq!(occ.free_on_node(NodeId(3)), 0);
        assert_eq!(occ.used_threads(), 8);
    }

    #[test]
    fn most_exhausted_node_names_the_fullest() {
        let m = amd();
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(5))).unwrap();
        occ.reserve(&[ThreadId(0)]).unwrap();
        assert_eq!(occ.most_exhausted_node(), NodeId(5));
    }

    #[test]
    fn uneven_machines_account_per_node_capacities_exactly() {
        // Node 1 has half its L2 domains offline: 4 threads vs node 0's 8.
        let m = crate::machine::MachineBuilder::new("uneven")
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
        let mut occ = OccupancyMap::new(&m);
        assert_eq!(occ.capacity_of_node(NodeId(0)), 8);
        assert_eq!(occ.capacity_of_node(NodeId(1)), 4);
        assert_eq!(occ.free_on_node(NodeId(0)), 8);
        assert_eq!(occ.free_on_node(NodeId(1)), 4);
        // Fill node 1 entirely; node 0 keeps its full 8 free (the old
        // uniform-capacity accounting reported 6 for both).
        occ.reserve(&m.threads_on_node(NodeId(1))).unwrap();
        assert_eq!(occ.free_on_node(NodeId(1)), 0);
        assert_eq!(occ.free_on_node(NodeId(0)), 8);
        assert_eq!(occ.most_exhausted_node(), NodeId(1));
        assert!(occ.to_string().contains("N1:4/4"), "{occ}");
    }

    #[test]
    fn display_summarises_per_node_usage() {
        let m = amd();
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(1))).unwrap();
        let s = occ.to_string();
        assert!(s.contains("8/64"), "{s}");
        assert!(s.contains("N1:8/8"), "{s}");
    }
}
