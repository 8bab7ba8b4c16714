//! The machine model: a hierarchy of shared resources plus an interconnect.
//!
//! The hierarchy is `HwThread ⊆ Core ⊆ L2Group ⊆ L3Group ⊆ Node`:
//!
//! * On the paper's **AMD Opteron 6272**, an L2 group is a Bulldozer
//!   *module* — two cores sharing the L2 cache, instruction front-end and
//!   FPU — and each node's single L3 group holds four modules.
//! * On the paper's **Intel Xeon E7-4830 v3**, the L2 is private to a core
//!   (shared only between its two SMT threads), so each L2 group holds one
//!   core with two hardware threads.
//! * On Zen-like machines several L3 groups (core complexes) share one
//!   node's memory controller, which is why the L3 level is distinct from
//!   the node level.

use std::fmt;
use std::sync::Arc;

use crate::ids::{CoreId, L2GroupId, L3GroupId, NodeId, ThreadId};
use crate::interconnect::Interconnect;
use crate::occupancy::OccupancyLayout;

/// A NUMA node: one memory controller with local DRAM.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node identifier.
    pub id: NodeId,
    /// Physical package (socket) the node belongs to.
    pub package: usize,
    /// L3 groups on this node.
    pub l3_groups: Vec<L3GroupId>,
    /// Local DRAM bandwidth in GB/s.
    pub dram_bw_gbs: f64,
}

/// An L3 cache and the cores beneath it.
#[derive(Debug, Clone)]
pub struct L3Group {
    /// L3 group identifier.
    pub id: L3GroupId,
    /// Owning NUMA node.
    pub node: NodeId,
    /// L2 groups sharing this L3.
    pub l2_groups: Vec<L2GroupId>,
}

/// An L2 cache and the cores sharing it.
#[derive(Debug, Clone)]
pub struct L2Group {
    /// L2 group identifier.
    pub id: L2GroupId,
    /// Owning L3 group.
    pub l3_group: L3GroupId,
    /// Owning NUMA node.
    pub node: NodeId,
    /// Cores sharing this L2.
    pub cores: Vec<CoreId>,
}

/// A physical core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Core identifier.
    pub id: CoreId,
    /// Owning L2 group.
    pub l2_group: L2GroupId,
    /// Owning L3 group.
    pub l3_group: L3GroupId,
    /// Owning NUMA node.
    pub node: NodeId,
    /// Hardware threads (SMT contexts) on this core.
    pub threads: Vec<ThreadId>,
}

/// A hardware thread (SMT context).
#[derive(Debug, Clone, Copy)]
pub struct HwThread {
    /// Thread identifier.
    pub id: ThreadId,
    /// Owning core.
    pub core: CoreId,
    /// Owning L2 group.
    pub l2_group: L2GroupId,
    /// Owning L3 group.
    pub l3_group: L3GroupId,
    /// Owning NUMA node.
    pub node: NodeId,
}

/// Cache sizes.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Size of each L2 cache in MiB.
    pub l2_size_mib: f64,
    /// Size of each L3 cache in MiB.
    pub l3_size_mib: f64,
}

/// Access latencies in core cycles, used by the performance simulator.
#[derive(Debug, Clone, Copy)]
pub struct LatencyConfig {
    /// L1 hit latency (cycles). The L1 is private and always hits in the
    /// model's base CPI, so this is informational.
    pub l1_cycles: f64,
    /// L2 hit latency (cycles).
    pub l2_cycles: f64,
    /// L3 hit latency (cycles).
    pub l3_cycles: f64,
    /// Local DRAM access latency (cycles).
    pub dram_cycles: f64,
    /// Extra latency per interconnect hop for remote DRAM (cycles).
    pub remote_hop_cycles: f64,
    /// Cache-to-cache transfer between cores sharing an L3 (cycles).
    pub c2c_l3_cycles: f64,
    /// Cache-to-cache transfer base latency across nodes (cycles); each
    /// hop adds [`Self::remote_hop_cycles`].
    pub c2c_remote_cycles: f64,
}

/// Errors produced when constructing or validating a machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The machine has no nodes.
    Empty,
    /// A structural parameter was zero.
    ZeroComponent(&'static str),
    /// The interconnect references a node that does not exist.
    DanglingLink(usize),
    /// A per-node override references a node that does not exist.
    UnknownNode(usize),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "machine has no nodes"),
            TopologyError::ZeroComponent(what) => {
                write!(f, "machine has zero {what} per parent component")
            }
            TopologyError::DanglingLink(i) => {
                write!(f, "interconnect link {i} references a missing node")
            }
            TopologyError::UnknownNode(n) => {
                write!(f, "per-node override references missing node {n}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A complete machine description.
#[derive(Debug, Clone)]
pub struct Machine {
    name: String,
    clock_ghz: f64,
    nodes: Vec<Node>,
    l3_groups: Vec<L3Group>,
    l2_groups: Vec<L2Group>,
    cores: Vec<Core>,
    threads: Vec<HwThread>,
    interconnect: Interconnect,
    caches: CacheConfig,
    latencies: LatencyConfig,
    /// What every [`crate::OccupancyMap`] of this machine (and of its
    /// clones) shares; a function of `threads` alone.
    occupancy_layout: Arc<OccupancyLayout>,
}

impl Machine {
    /// Human-readable machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Core clock frequency in GHz.
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// All NUMA nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All L3 groups.
    pub fn l3_groups(&self) -> &[L3Group] {
        &self.l3_groups
    }

    /// All L2 groups.
    pub fn l2_groups(&self) -> &[L2Group] {
        &self.l2_groups
    }

    /// All cores.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// All hardware threads.
    pub fn threads(&self) -> &[HwThread] {
        &self.threads
    }

    /// The interconnect graph.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Mutable access to the interconnect, for calibration.
    pub fn interconnect_mut(&mut self) -> &mut Interconnect {
        &mut self.interconnect
    }

    /// Cache sizes.
    pub fn caches(&self) -> CacheConfig {
        self.caches
    }

    /// Access latencies.
    pub fn latencies(&self) -> LatencyConfig {
        self.latencies
    }

    /// Number of NUMA nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of L3 groups (the paper's `L3Count`).
    pub fn num_l3_groups(&self) -> usize {
        self.l3_groups.len()
    }

    /// Number of L2 groups (the paper's `L2Count`).
    pub fn num_l2_groups(&self) -> usize {
        self.l2_groups.len()
    }

    /// Number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of hardware threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Hardware threads per L2 group (the paper's `L2Capacity`).
    pub fn l2_capacity(&self) -> usize {
        self.num_threads() / self.num_l2_groups()
    }

    /// Hardware threads per L3 group (the paper's `L3Capacity`).
    pub fn l3_capacity(&self) -> usize {
        self.num_threads() / self.num_l3_groups()
    }

    /// Hardware threads per NUMA node on *uniform* machines (the
    /// placement-enumeration pipeline's balance assumption). On machines
    /// with uneven nodes (see [`MachineBuilder::l2_groups_per_l3_on_node`])
    /// this is the mean by integer division; occupancy accounting (and
    /// the capacity summaries built on it) uses exact per-node counts,
    /// as [`Self::capacity_of_node`] reports them.
    pub fn node_capacity(&self) -> usize {
        self.num_threads() / self.num_nodes()
    }

    /// Hardware threads on one specific node — exact even on machines
    /// with uneven per-node thread counts.
    pub fn capacity_of_node(&self, node: NodeId) -> usize {
        self.threads.iter().filter(|t| t.node == node).count()
    }

    /// SMT ways: hardware threads per core.
    pub fn smt_ways(&self) -> usize {
        self.num_threads() / self.num_cores()
    }

    /// Cores per L2 group (2 on Bulldozer modules, 1 elsewhere).
    pub fn cores_per_l2(&self) -> usize {
        self.num_cores() / self.num_l2_groups()
    }

    /// Hardware threads located on `node`, in id order.
    pub fn threads_on_node(&self, node: NodeId) -> Vec<ThreadId> {
        self.threads
            .iter()
            .filter(|t| t.node == node)
            .map(|t| t.id)
            .collect()
    }

    /// The thread metadata for `id`.
    pub fn thread(&self, id: ThreadId) -> &HwThread {
        &self.threads[id.index()]
    }

    /// The static half of this machine's occupancy maps.
    pub(crate) fn occupancy_layout(&self) -> &Arc<OccupancyLayout> {
        &self.occupancy_layout
    }

    /// A stable 64-bit fingerprint of the hardware description.
    ///
    /// Two machines with identical topology (structure, clock, cache and
    /// latency configuration, DRAM bandwidths and interconnect links)
    /// produce identical fingerprints regardless of their display names,
    /// so caches keyed by fingerprint are shared across a fleet of
    /// same-model machines. The hash is FNV-1a over the canonical field
    /// order, so it is stable across processes and platforms.
    ///
    /// # Examples
    ///
    /// ```
    /// use vc_topology::machines;
    ///
    /// // Two boxes of the same model share a fingerprint (and therefore
    /// // share catalogs and trained models in a placement engine)…
    /// let a = machines::amd_opteron_6272();
    /// let b = machines::amd_opteron_6272();
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    ///
    /// // …while a different machine model does not.
    /// let intel = machines::intel_xeon_e7_4830_v3();
    /// assert_ne!(a.fingerprint(), intel.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in self.canonical_stream() {
            // FNV-1a over the 8 bytes of v.
            for i in 0..8 {
                h ^= (v >> (i * 8)) & 0xff;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Whether two machines share the exact hardware description the
    /// fingerprint hashes (structure, clock, caches, latencies, DRAM
    /// bandwidths, interconnect) — display names are ignored.
    ///
    /// `a.same_topology(&b)` implies `a.fingerprint() == b.fingerprint()`,
    /// but not vice versa: the fingerprint is a 64-bit hash and can
    /// collide. Code that groups machines by fingerprint (fleet classes,
    /// per-topology caches) must confirm with this predicate before
    /// treating two machines as interchangeable, otherwise a collision
    /// silently serves one topology's artifacts to the other.
    pub fn same_topology(&self, other: &Machine) -> bool {
        self.canonical_stream() == other.canonical_stream()
    }

    /// The canonical field stream both [`Self::fingerprint`] and
    /// [`Self::same_topology`] are defined over.
    fn canonical_stream(&self) -> Vec<u64> {
        let mut s: Vec<u64> = vec![
            self.clock_ghz.to_bits(),
            self.nodes.len() as u64,
            self.l3_groups.len() as u64,
            self.l2_groups.len() as u64,
            self.cores.len() as u64,
            self.threads.len() as u64,
        ];
        for n in &self.nodes {
            s.push(n.package as u64);
            s.push(n.l3_groups.len() as u64);
            s.push(n.dram_bw_gbs.to_bits());
        }
        for g in &self.l3_groups {
            s.push(g.node.index() as u64);
            s.push(g.l2_groups.len() as u64);
        }
        for g in &self.l2_groups {
            s.push(g.l3_group.index() as u64);
            s.push(g.cores.len() as u64);
        }
        for c in &self.cores {
            s.push(c.l2_group.index() as u64);
            s.push(c.threads.len() as u64);
        }
        for l in self.interconnect.links() {
            s.push(l.a.index() as u64);
            s.push(l.b.index() as u64);
            s.push(l.bandwidth_gbs.to_bits());
        }
        s.push(self.caches.l2_size_mib.to_bits());
        s.push(self.caches.l3_size_mib.to_bits());
        for lat in [
            self.latencies.l1_cycles,
            self.latencies.l2_cycles,
            self.latencies.l3_cycles,
            self.latencies.dram_cycles,
            self.latencies.remote_hop_cycles,
            self.latencies.c2c_l3_cycles,
            self.latencies.c2c_remote_cycles,
        ] {
            s.push(lat.to_bits());
        }
        s
    }

    /// Validates internal consistency; machine constructors call this.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        for (what, count) in [
            ("L3 groups", self.l3_groups.len()),
            ("L2 groups", self.l2_groups.len()),
            ("cores", self.cores.len()),
            ("threads", self.threads.len()),
        ] {
            if count == 0 {
                return Err(TopologyError::ZeroComponent(what));
            }
        }
        for (i, l) in self.interconnect.links().iter().enumerate() {
            if l.a.index() >= self.nodes.len() || l.b.index() >= self.nodes.len() {
                return Err(TopologyError::DanglingLink(i));
            }
        }
        Ok(())
    }
}

/// Builder for uniform machines (same shape on every node).
///
/// # Examples
///
/// ```
/// use vc_topology::MachineBuilder;
///
/// let m = MachineBuilder::new("toy")
///     .packages(2)
///     .nodes_per_package(1)
///     .l3_groups_per_node(1)
///     .l2_groups_per_l3(4)
///     .cores_per_l2(1)
///     .threads_per_core(2)
///     .link(0, 1, 12.8)
///     .build()
///     .unwrap();
/// assert_eq!(m.num_threads(), 16);
/// assert_eq!(m.smt_ways(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    name: String,
    clock_ghz: f64,
    packages: usize,
    nodes_per_package: usize,
    l3_per_node: usize,
    l2_per_l3: usize,
    cores_per_l2: usize,
    threads_per_core: usize,
    dram_bw_gbs: f64,
    links: Vec<(usize, usize, f64)>,
    caches: CacheConfig,
    latencies: LatencyConfig,
    /// Per-node overrides of `l2_per_l3` (node index → count), for
    /// machines with fused-off or offline cache domains.
    l2_per_l3_overrides: Vec<(usize, usize)>,
}

impl MachineBuilder {
    /// Starts a builder with conservative defaults (1 of everything,
    /// 2.0 GHz, generic latencies).
    pub fn new(name: impl Into<String>) -> Self {
        MachineBuilder {
            name: name.into(),
            clock_ghz: 2.0,
            packages: 1,
            nodes_per_package: 1,
            l3_per_node: 1,
            l2_per_l3: 1,
            cores_per_l2: 1,
            threads_per_core: 1,
            dram_bw_gbs: 12.8,
            links: Vec::new(),
            l2_per_l3_overrides: Vec::new(),
            caches: CacheConfig {
                l2_size_mib: 0.5,
                l3_size_mib: 16.0,
            },
            latencies: LatencyConfig {
                l1_cycles: 4.0,
                l2_cycles: 12.0,
                l3_cycles: 36.0,
                dram_cycles: 220.0,
                remote_hop_cycles: 110.0,
                c2c_l3_cycles: 55.0,
                c2c_remote_cycles: 220.0,
            },
        }
    }

    /// Replaces the machine name (used by the spec parser, where the
    /// name arrives after construction).
    pub fn rename(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the number of physical packages (sockets).
    pub fn packages(mut self, n: usize) -> Self {
        self.packages = n;
        self
    }

    /// Sets the number of NUMA nodes per package.
    pub fn nodes_per_package(mut self, n: usize) -> Self {
        self.nodes_per_package = n;
        self
    }

    /// Sets the number of L3 groups per node.
    pub fn l3_groups_per_node(mut self, n: usize) -> Self {
        self.l3_per_node = n;
        self
    }

    /// Sets the number of L2 groups per L3 group.
    pub fn l2_groups_per_l3(mut self, n: usize) -> Self {
        self.l2_per_l3 = n;
        self
    }

    /// Overrides the number of L2 groups per L3 group on one node,
    /// modelling hardware with fused-off or firmware-offlined cache
    /// domains (real fleets contain such machines). The resulting
    /// machine has *uneven per-node thread counts*: the
    /// placement-enumeration pipeline assumes uniform machines, but the
    /// occupancy/summary layers ([`crate::OccupancyMap`],
    /// [`crate::CapacitySummary`]) account such nodes exactly.
    pub fn l2_groups_per_l3_on_node(mut self, node: usize, n: usize) -> Self {
        self.l2_per_l3_overrides.push((node, n));
        self
    }

    /// Sets the number of cores per L2 group.
    pub fn cores_per_l2(mut self, n: usize) -> Self {
        self.cores_per_l2 = n;
        self
    }

    /// Sets the number of hardware threads per core.
    pub fn threads_per_core(mut self, n: usize) -> Self {
        self.threads_per_core = n;
        self
    }

    /// Sets the core clock in GHz.
    pub fn clock_ghz(mut self, ghz: f64) -> Self {
        self.clock_ghz = ghz;
        self
    }

    /// Sets the per-node local DRAM bandwidth in GB/s.
    pub fn dram_bw_gbs(mut self, bw: f64) -> Self {
        self.dram_bw_gbs = bw;
        self
    }

    /// Sets cache sizes.
    pub fn caches(mut self, caches: CacheConfig) -> Self {
        self.caches = caches;
        self
    }

    /// Sets latencies.
    pub fn latencies(mut self, lat: LatencyConfig) -> Self {
        self.latencies = lat;
        self
    }

    /// Adds an undirected interconnect link between two nodes.
    pub fn link(mut self, a: usize, b: usize, bandwidth_gbs: f64) -> Self {
        self.links.push((a, b, bandwidth_gbs));
        self
    }

    /// Adds a full mesh of links with uniform bandwidth (symmetric
    /// interconnects such as the paper's Intel machine).
    pub fn full_mesh(mut self, bandwidth_gbs: f64) -> Self {
        let n = self.packages * self.nodes_per_package;
        for a in 0..n {
            for b in a + 1..n {
                self.links.push((a, b, bandwidth_gbs));
            }
        }
        self
    }

    /// Builds and validates the machine.
    pub fn build(self) -> Result<Machine, TopologyError> {
        let num_nodes = self.packages * self.nodes_per_package;
        if num_nodes == 0 {
            return Err(TopologyError::Empty);
        }
        for (what, n) in [
            ("L3 groups", self.l3_per_node),
            ("L2 groups", self.l2_per_l3),
            ("cores", self.cores_per_l2),
            ("threads", self.threads_per_core),
        ] {
            if n == 0 {
                return Err(TopologyError::ZeroComponent(what));
            }
        }
        for &(node, n) in &self.l2_per_l3_overrides {
            if n == 0 {
                return Err(TopologyError::ZeroComponent("L2 groups"));
            }
            if node >= num_nodes {
                return Err(TopologyError::UnknownNode(node));
            }
        }

        let mut nodes = Vec::new();
        let mut l3_groups = Vec::new();
        let mut l2_groups = Vec::new();
        let mut cores = Vec::new();
        let mut threads = Vec::new();

        for ni in 0..num_nodes {
            let node_id = NodeId(ni);
            let l2_per_l3_here = self
                .l2_per_l3_overrides
                .iter()
                .rev()
                .find(|&&(node, _)| node == ni)
                .map(|&(_, n)| n)
                .unwrap_or(self.l2_per_l3);
            let mut node_l3s = Vec::new();
            for _ in 0..self.l3_per_node {
                let l3_id = L3GroupId(l3_groups.len());
                let mut l3_l2s = Vec::new();
                for _ in 0..l2_per_l3_here {
                    let l2_id = L2GroupId(l2_groups.len());
                    let mut l2_cores = Vec::new();
                    for _ in 0..self.cores_per_l2 {
                        let core_id = CoreId(cores.len());
                        let mut core_threads = Vec::new();
                        for _ in 0..self.threads_per_core {
                            let tid = ThreadId(threads.len());
                            threads.push(HwThread {
                                id: tid,
                                core: core_id,
                                l2_group: l2_id,
                                l3_group: l3_id,
                                node: node_id,
                            });
                            core_threads.push(tid);
                        }
                        cores.push(Core {
                            id: core_id,
                            l2_group: l2_id,
                            l3_group: l3_id,
                            node: node_id,
                            threads: core_threads,
                        });
                        l2_cores.push(core_id);
                    }
                    l2_groups.push(L2Group {
                        id: l2_id,
                        l3_group: l3_id,
                        node: node_id,
                        cores: l2_cores,
                    });
                    l3_l2s.push(l2_id);
                }
                l3_groups.push(L3Group {
                    id: l3_id,
                    node: node_id,
                    l2_groups: l3_l2s,
                });
                node_l3s.push(l3_id);
            }
            nodes.push(Node {
                id: node_id,
                package: ni / self.nodes_per_package,
                l3_groups: node_l3s,
                dram_bw_gbs: self.dram_bw_gbs,
            });
        }

        let mut interconnect = Interconnect::new(num_nodes);
        for (a, b, bw) in self.links {
            if a >= num_nodes || b >= num_nodes {
                return Err(TopologyError::DanglingLink(interconnect.links().len()));
            }
            interconnect.add_link(NodeId(a), NodeId(b), bw);
        }

        let occupancy_layout =
            Arc::new(OccupancyLayout::of(&threads, nodes.len(), l2_groups.len()));
        let machine = Machine {
            name: self.name,
            clock_ghz: self.clock_ghz,
            nodes,
            l3_groups,
            l2_groups,
            cores,
            threads,
            interconnect,
            caches: self.caches,
            latencies: self.latencies,
            occupancy_layout,
        };
        machine.validate()?;
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Machine {
        MachineBuilder::new("toy")
            .packages(2)
            .nodes_per_package(2)
            .l3_groups_per_node(1)
            .l2_groups_per_l3(2)
            .cores_per_l2(2)
            .threads_per_core(1)
            .link(0, 1, 4.0)
            .link(2, 3, 4.0)
            .link(0, 2, 2.0)
            .link(1, 3, 2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_counts_are_consistent() {
        let m = toy();
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(m.num_l3_groups(), 4);
        assert_eq!(m.num_l2_groups(), 8);
        assert_eq!(m.num_cores(), 16);
        assert_eq!(m.num_threads(), 16);
        assert_eq!(m.l2_capacity(), 2);
        assert_eq!(m.l3_capacity(), 4);
        assert_eq!(m.smt_ways(), 1);
        assert_eq!(m.cores_per_l2(), 2);
    }

    #[test]
    fn hierarchy_links_are_consistent() {
        let m = toy();
        for t in m.threads() {
            let core = &m.cores()[t.core.index()];
            assert_eq!(core.l2_group, t.l2_group);
            assert_eq!(core.l3_group, t.l3_group);
            assert_eq!(core.node, t.node);
            assert!(core.threads.contains(&t.id));
            let l2 = &m.l2_groups()[t.l2_group.index()];
            assert_eq!(l2.node, t.node);
            assert!(l2.cores.contains(&t.core));
        }
        for l3 in m.l3_groups() {
            let node = &m.nodes()[l3.node.index()];
            assert!(node.l3_groups.contains(&l3.id));
        }
    }

    #[test]
    fn packages_partition_nodes() {
        let m = toy();
        assert_eq!(m.nodes()[0].package, 0);
        assert_eq!(m.nodes()[1].package, 0);
        assert_eq!(m.nodes()[2].package, 1);
        assert_eq!(m.nodes()[3].package, 1);
    }

    #[test]
    fn threads_on_node_are_dense_and_sorted() {
        let m = toy();
        let ts = m.threads_on_node(NodeId(1));
        assert_eq!(ts.len(), 4);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
        assert!(ts.iter().all(|&t| m.thread(t).node == NodeId(1)));
    }

    #[test]
    fn full_mesh_builds_all_pairs() {
        let m = MachineBuilder::new("mesh")
            .packages(4)
            .full_mesh(12.8)
            .build()
            .unwrap();
        assert_eq!(m.interconnect().links().len(), 6);
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert_eq!(
                    m.interconnect().direct_bandwidth(NodeId(a), NodeId(b)),
                    Some(12.8)
                );
            }
        }
    }

    #[test]
    fn fingerprint_ignores_name_but_not_structure() {
        let a = toy();
        let renamed = MachineBuilder::new("other-name")
            .packages(2)
            .nodes_per_package(2)
            .l3_groups_per_node(1)
            .l2_groups_per_l3(2)
            .cores_per_l2(2)
            .threads_per_core(1)
            .link(0, 1, 4.0)
            .link(2, 3, 4.0)
            .link(0, 2, 2.0)
            .link(1, 3, 2.0)
            .build()
            .unwrap();
        assert_eq!(a.fingerprint(), renamed.fingerprint());

        let different_bw = MachineBuilder::new("toy")
            .packages(2)
            .nodes_per_package(2)
            .l3_groups_per_node(1)
            .l2_groups_per_l3(2)
            .cores_per_l2(2)
            .threads_per_core(1)
            .link(0, 1, 4.0)
            .link(2, 3, 4.0)
            .link(0, 2, 2.0)
            .link(1, 3, 9.0)
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), different_bw.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_across_clones() {
        let m = toy();
        assert_eq!(m.fingerprint(), m.clone().fingerprint());
    }

    #[test]
    fn same_topology_ignores_names_but_not_structure() {
        let m = toy();
        assert!(m.same_topology(&m.clone()));
        let renamed = toy(); // builder re-run: same structure
        assert!(m.same_topology(&renamed));
        let different = MachineBuilder::new("toy")
            .packages(2)
            .nodes_per_package(2)
            .l3_groups_per_node(1)
            .l2_groups_per_l3(2)
            .cores_per_l2(2)
            .threads_per_core(1)
            .link(0, 1, 4.0)
            .link(2, 3, 4.0)
            .link(0, 2, 2.0)
            .link(1, 3, 9.0)
            .build()
            .unwrap();
        assert!(!m.same_topology(&different));
    }

    #[test]
    fn uneven_node_override_shrinks_one_node() {
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
        assert_eq!(m.capacity_of_node(NodeId(0)), 8);
        assert_eq!(m.capacity_of_node(NodeId(1)), 4);
        assert_eq!(m.num_threads(), 12);
        // The uniform mean under-reports node 0 — why occupancy uses
        // capacity_of_node.
        assert_eq!(m.node_capacity(), 6);
        // Uneven structure changes the fingerprint.
        let uniform = MachineBuilder::new("uneven")
            .packages(2)
            .nodes_per_package(1)
            .l3_groups_per_node(1)
            .l2_groups_per_l3(4)
            .cores_per_l2(1)
            .threads_per_core(2)
            .link(0, 1, 12.8)
            .build()
            .unwrap();
        assert_ne!(m.fingerprint(), uniform.fingerprint());
        assert!(!m.same_topology(&uniform));
    }

    #[test]
    fn bad_node_override_is_rejected() {
        let err = MachineBuilder::new("bad")
            .packages(2)
            .l2_groups_per_l3_on_node(7, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::UnknownNode(7));
        let err = MachineBuilder::new("bad")
            .packages(2)
            .l2_groups_per_l3_on_node(0, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::ZeroComponent("L2 groups"));
    }

    #[test]
    fn zero_component_is_rejected() {
        let err = MachineBuilder::new("bad")
            .packages(1)
            .l2_groups_per_l3(0)
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::ZeroComponent("L2 groups"));
    }

    #[test]
    fn dangling_link_is_rejected() {
        let err = MachineBuilder::new("bad")
            .packages(2)
            .link(0, 7, 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::DanglingLink(_)));
    }
}
