//! Placement specifications.
//!
//! A [`PlacementSpec`] identifies a *balanced* placement of a container's
//! vCPUs: the NUMA nodes used, and how many L3 and L2 groups the vCPUs are
//! spread over. Together with the machine it determines the score vector
//! (one score per scheduling concern), and two specs with equal score
//! vectors are deemed equivalent by the model (§3: "identically scored
//! placements yield identical performance").

use std::fmt;

use vc_topology::{Machine, NodeId};

/// Errors for infeasible or unbalanced placement specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// vCPU count is zero.
    NoVcpus,
    /// A node id is out of range for the machine.
    UnknownNode(NodeId),
    /// The node list contains duplicates.
    DuplicateNode(NodeId),
    /// vCPUs are not evenly divisible over the given resource count
    /// (violates the balance assumption, §3).
    Unbalanced {
        /// Resource description.
        what: &'static str,
        /// vCPU count.
        vcpus: usize,
        /// Resource instances.
        count: usize,
    },
    /// More vCPUs per resource instance than hardware threads available.
    OverCapacity {
        /// Resource description.
        what: &'static str,
        /// vCPUs that would share one instance.
        per_instance: usize,
        /// Hardware threads per instance.
        capacity: usize,
    },
    /// The L2/L3 group counts do not nest evenly in the node count.
    BadNesting {
        /// Resource description.
        what: &'static str,
        /// Group count requested.
        groups: usize,
        /// Node count.
        nodes: usize,
    },
    /// A node in the spec lacks the free hardware threads — in the
    /// L2/L3 arrangement the placement prescribes — that its share of
    /// the container needs. `free` can exceed `needed` when enough
    /// threads are free but scattered across the wrong cache domains.
    NodeExhausted {
        /// The exhausted node.
        node: NodeId,
        /// Free threads the placement needs on that node.
        needed: usize,
        /// Free threads the node actually has (in any arrangement).
        free: usize,
    },
    /// A perf-pair model was asked for over fewer than two placements:
    /// there is no second placement to probe, and nothing to predict.
    NoProbePair {
        /// Placements in the catalog.
        placements: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoVcpus => write!(f, "placement has zero vCPUs"),
            PlacementError::UnknownNode(n) => write!(f, "node {n} does not exist"),
            PlacementError::DuplicateNode(n) => write!(f, "node {n} listed twice"),
            PlacementError::Unbalanced { what, vcpus, count } => {
                write!(f, "{vcpus} vCPUs do not divide evenly over {count} {what}")
            }
            PlacementError::OverCapacity {
                what,
                per_instance,
                capacity,
            } => write!(
                f,
                "{per_instance} vCPUs per {what} exceeds capacity {capacity}"
            ),
            PlacementError::BadNesting {
                what,
                groups,
                nodes,
            } => {
                write!(
                    f,
                    "{groups} {what} cannot be spread evenly over {nodes} nodes"
                )
            }
            PlacementError::NodeExhausted { node, needed, free } => {
                if free < needed {
                    write!(
                        f,
                        "node {node} exhausted: placement needs {needed} free hardware threads, {free} free"
                    )
                } else {
                    write!(
                        f,
                        "node {node} fragmented: {free} threads free but not in the \
                         {needed}-thread L2/L3 arrangement the placement needs"
                    )
                }
            }
            PlacementError::NoProbePair { placements } => write!(
                f,
                "a perf-pair model needs two placements to probe, the catalog has {placements}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A balanced placement of a container on specific NUMA nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlacementSpec {
    /// Number of virtual CPUs in the container.
    pub vcpus: usize,
    /// NUMA nodes used, sorted ascending.
    pub nodes: Vec<NodeId>,
    /// Total number of L3 groups the vCPUs occupy (across all nodes).
    pub l3_groups_used: usize,
    /// Total number of L2 groups the vCPUs occupy (across all nodes).
    pub l2_groups_used: usize,
}

impl PlacementSpec {
    /// Creates a spec, normalising node order.
    pub fn new(
        vcpus: usize,
        mut nodes: Vec<NodeId>,
        l3_groups_used: usize,
        l2_groups_used: usize,
    ) -> Self {
        nodes.sort();
        PlacementSpec {
            vcpus,
            nodes,
            l3_groups_used,
            l2_groups_used,
        }
    }

    /// Convenience constructor for machines with one L3 group per node:
    /// the L3 score equals the node count.
    pub fn on_nodes(vcpus: usize, nodes: Vec<NodeId>, l2_groups_used: usize) -> Self {
        let n = nodes.len();
        Self::new(vcpus, nodes, n, l2_groups_used)
    }

    /// Number of nodes used.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// vCPUs per node.
    pub fn vcpus_per_node(&self) -> usize {
        self.vcpus / self.nodes.len()
    }

    /// vCPUs sharing each L2 group (1 = no sharing, 2 = paired).
    pub fn vcpus_per_l2(&self) -> usize {
        self.vcpus / self.l2_groups_used
    }

    /// Whether vCPUs share L2 groups / SMT contexts in this placement.
    pub fn shares_l2(&self) -> bool {
        self.vcpus_per_l2() > 1
    }

    /// Validates balance, feasibility and nesting against a machine (§3's
    /// assumptions plus the structural constraints of Algorithm 3).
    pub fn validate(&self, machine: &Machine) -> Result<(), PlacementError> {
        if self.vcpus == 0 {
            return Err(PlacementError::NoVcpus);
        }
        for (i, &n) in self.nodes.iter().enumerate() {
            if n.index() >= machine.num_nodes() {
                return Err(PlacementError::UnknownNode(n));
            }
            if self.nodes[..i].contains(&n) {
                return Err(PlacementError::DuplicateNode(n));
            }
        }
        let nodes = self.nodes.len();
        for (what, count, capacity) in [
            ("nodes", nodes, machine.node_capacity()),
            ("L3 groups", self.l3_groups_used, machine.l3_capacity()),
            ("L2 groups", self.l2_groups_used, machine.l2_capacity()),
        ] {
            if count == 0 || !self.vcpus.is_multiple_of(count) {
                return Err(PlacementError::Unbalanced {
                    what,
                    vcpus: self.vcpus,
                    count,
                });
            }
            let per = self.vcpus / count;
            if per > capacity {
                return Err(PlacementError::OverCapacity {
                    what,
                    per_instance: per,
                    capacity,
                });
            }
        }
        // Groups must spread evenly over nodes and fit within them.
        let l3_per_node = machine.num_l3_groups() / machine.num_nodes();
        let l2_per_node = machine.num_l2_groups() / machine.num_nodes();
        for (what, groups, per_node_avail) in [
            ("L3 groups", self.l3_groups_used, l3_per_node),
            ("L2 groups", self.l2_groups_used, l2_per_node),
        ] {
            if groups % nodes != 0 || groups / nodes > per_node_avail {
                return Err(PlacementError::BadNesting {
                    what,
                    groups,
                    nodes,
                });
            }
        }
        // L2 groups nest inside L3 groups — evenly, and no more of them
        // than one L3 group physically contains (on multi-CCX nodes the
        // per-node bound above is weaker than the per-L3 one).
        let l2_per_l3 = machine.num_l2_groups() / machine.num_l3_groups();
        if !self.l2_groups_used.is_multiple_of(self.l3_groups_used)
            || self.l2_groups_used < self.l3_groups_used
            || self.l2_groups_used / self.l3_groups_used > l2_per_l3
        {
            return Err(PlacementError::BadNesting {
                what: "L2 groups per L3 group",
                groups: self.l2_groups_used,
                nodes: self.l3_groups_used,
            });
        }
        Ok(())
    }
}

impl fmt::Display for PlacementSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nodes: Vec<String> = self.nodes.iter().map(|n| n.index().to_string()).collect();
        write!(
            f,
            "{} vCPUs on nodes {{{}}} ({} L3, {} L2 groups{})",
            self.vcpus,
            nodes.join(","),
            self.l3_groups_used,
            self.l2_groups_used,
            if self.shares_l2() { ", sharing L2" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::machines;

    fn amd_spec(nodes: &[usize], l2: usize) -> PlacementSpec {
        PlacementSpec::on_nodes(16, nodes.iter().copied().map(NodeId).collect(), l2)
    }

    #[test]
    fn paper_amd_placements_validate() {
        let amd = machines::amd_opteron_6272();
        // Two-node, no choice but full modules (L2 score 8).
        amd_spec(&[0, 1], 8).validate(&amd).unwrap();
        // Four-node with and without module sharing.
        amd_spec(&[2, 3, 4, 5], 8).validate(&amd).unwrap();
        amd_spec(&[2, 3, 4, 5], 16).validate(&amd).unwrap();
        // Eight-node variants.
        amd_spec(&[0, 1, 2, 3, 4, 5, 6, 7], 8)
            .validate(&amd)
            .unwrap();
        amd_spec(&[0, 1, 2, 3, 4, 5, 6, 7], 16)
            .validate(&amd)
            .unwrap();
    }

    #[test]
    fn one_node_sixteen_vcpus_is_infeasible_on_amd() {
        // The paper's footnote: 16 vCPUs cannot fit one AMD node (8 cores)
        // with one vCPU per hardware thread.
        let amd = machines::amd_opteron_6272();
        let err = amd_spec(&[0], 8).validate(&amd).unwrap_err();
        assert!(matches!(err, PlacementError::OverCapacity { .. }));
    }

    #[test]
    fn unbalanced_node_count_is_rejected() {
        let amd = machines::amd_opteron_6272();
        let err = amd_spec(&[0, 1, 2], 8).validate(&amd).unwrap_err();
        assert!(matches!(err, PlacementError::Unbalanced { .. }));
    }

    #[test]
    fn too_few_l2_groups_exceed_capacity() {
        let amd = machines::amd_opteron_6272();
        // 16 vCPUs on one L2 group would put 16 vCPUs on a 2-thread
        // module.
        let bad = PlacementSpec::new(16, vec![NodeId(0), NodeId(1)], 2, 1);
        let err = bad.validate(&amd).unwrap_err();
        assert!(matches!(err, PlacementError::OverCapacity { .. }));
    }

    #[test]
    fn l2_groups_must_nest_in_l3_groups() {
        let zen = machines::zen_like();
        // 8 vCPUs on one node: 2 L3 groups but only 3 L2 groups cannot
        // nest evenly (3 % 2 != 0).
        let bad = PlacementSpec::new(8, vec![NodeId(0)], 2, 3);
        let err = bad.validate(&zen).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::BadNesting { .. } | PlacementError::Unbalanced { .. }
        ));
    }

    #[test]
    fn duplicate_and_unknown_nodes_are_rejected() {
        let amd = machines::amd_opteron_6272();
        let dup = PlacementSpec::new(16, vec![NodeId(0), NodeId(0)], 2, 8);
        assert!(matches!(
            dup.validate(&amd),
            Err(PlacementError::DuplicateNode(_))
        ));
        let unk = PlacementSpec::new(16, vec![NodeId(0), NodeId(9)], 2, 8);
        assert!(matches!(
            unk.validate(&amd),
            Err(PlacementError::UnknownNode(_))
        ));
    }

    #[test]
    fn smt_sharing_is_detected() {
        let intel = machines::intel_xeon_e7_4830_v3();
        let smt = PlacementSpec::on_nodes(24, vec![NodeId(0)], 12);
        smt.validate(&intel).unwrap();
        assert!(smt.shares_l2());
        let no_smt = PlacementSpec::on_nodes(24, vec![NodeId(0), NodeId(1)], 24);
        no_smt.validate(&intel).unwrap();
        assert!(!no_smt.shares_l2());
    }

    #[test]
    fn display_is_informative() {
        let s = amd_spec(&[2, 3], 8).to_string();
        assert!(s.contains("nodes {2,3}"));
        assert!(s.contains("sharing L2"));
    }

    #[test]
    fn nodes_are_sorted_on_construction() {
        let s = PlacementSpec::on_nodes(16, vec![NodeId(5), NodeId(2)], 8);
        assert_eq!(s.nodes, vec![NodeId(2), NodeId(5)]);
    }
}
