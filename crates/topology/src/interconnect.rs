//! Interconnect graph: links between NUMA nodes with per-link bandwidth.
//!
//! The graph is undirected and may be *asymmetric* in the sense that
//! different links have different bandwidths (8-bit vs 16-bit HyperTransport
//! on the paper's AMD machine) and some node pairs are connected only
//! through an intermediate node (two-hop pairs).

use crate::ids::NodeId;

/// An undirected interconnect link between two NUMA nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// First endpoint (always the lower node index).
    pub a: NodeId,
    /// Second endpoint (always the higher node index).
    pub b: NodeId,
    /// Link bandwidth in GB/s (both directions combined).
    pub bandwidth_gbs: f64,
}

/// The interconnect topology of a machine.
#[derive(Debug, Clone)]
pub struct Interconnect {
    num_nodes: usize,
    links: Vec<Link>,
    /// Dense adjacency matrix of link indices (`usize::MAX` = no link).
    adj: Vec<usize>,
}

/// A route between two nodes: the ordered list of intermediate nodes
/// (empty for a direct link).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Endpoints of the route.
    pub endpoints: (NodeId, NodeId),
    /// Intermediate node, if the route is two hops.
    pub via: Option<NodeId>,
}

impl Interconnect {
    /// Creates an interconnect over `num_nodes` nodes with no links.
    pub fn new(num_nodes: usize) -> Self {
        Interconnect {
            num_nodes,
            links: Vec::new(),
            adj: vec![usize::MAX; num_nodes * num_nodes],
        }
    }

    /// Number of nodes the interconnect spans.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All links in the interconnect.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if `a == b`, or if the
    /// link already exists; the interconnect is static configuration and a
    /// malformed description is a programming error.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, bandwidth_gbs: f64) {
        assert!(a.index() < self.num_nodes, "link endpoint {a} out of range");
        assert!(b.index() < self.num_nodes, "link endpoint {b} out of range");
        assert_ne!(a, b, "self-link on {a}");
        assert!(self.link_between(a, b).is_none(), "duplicate link {a}-{b}");
        assert!(bandwidth_gbs > 0.0, "non-positive bandwidth on {a}-{b}");
        let (lo, hi) = if a.index() <= b.index() {
            (a, b)
        } else {
            (b, a)
        };
        let idx = self.links.len();
        self.links.push(Link {
            a: lo,
            b: hi,
            bandwidth_gbs,
        });
        self.adj[a.index() * self.num_nodes + b.index()] = idx;
        self.adj[b.index() * self.num_nodes + a.index()] = idx;
    }

    /// Returns the index (into [`Self::links`]) of the direct link between
    /// `a` and `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let idx = self.adj[a.index() * self.num_nodes + b.index()];
        (idx != usize::MAX).then_some(idx)
    }

    /// Returns the bandwidth of the direct link between `a` and `b`.
    pub fn direct_bandwidth(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.link_between(a, b).map(|i| self.links[i].bandwidth_gbs)
    }

    /// Multiplies every link bandwidth by `factor`.
    ///
    /// Used to calibrate the absolute scale of a stylised topology (e.g. so
    /// the whole-machine aggregate matches a measured value) without
    /// affecting any bandwidth *ordering*.
    pub fn scale_bandwidths(&mut self, factor: f64) {
        assert!(factor > 0.0);
        for l in &mut self.links {
            l.bandwidth_gbs *= factor;
        }
    }

    /// Hop distance between two nodes: 0 for a node to itself, 1 for a
    /// direct link, 2 for pairs reachable via one intermediate node, `None`
    /// beyond that (static HyperTransport-era routing tables do not route
    /// further on the machines we model).
    pub fn hops(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        if self.link_between(a, b).is_some() {
            return Some(1);
        }
        let via = (0..self.num_nodes).any(|x| {
            let x = NodeId(x);
            self.link_between(a, x).is_some() && self.link_between(x, b).is_some()
        });
        via.then_some(2)
    }

    /// The route used by traffic between `a` and `b`, restricted to
    /// intermediate nodes in `allowed` (pass all nodes for unrestricted
    /// routing).
    ///
    /// Direct links are always preferred. Among two-hop paths the route
    /// with the highest bottleneck bandwidth wins; ties break towards the
    /// lowest intermediate node index, which keeps routing deterministic.
    pub fn route_within(&self, a: NodeId, b: NodeId, allowed: &[NodeId]) -> Option<Route> {
        if self.link_between(a, b).is_some() {
            return Some(Route {
                endpoints: (a, b),
                via: None,
            });
        }
        let mut best: Option<(f64, NodeId)> = None;
        for &x in allowed {
            if x == a || x == b {
                continue;
            }
            let (Some(l1), Some(l2)) = (self.link_between(a, x), self.link_between(x, b)) else {
                continue;
            };
            let bottleneck = self.links[l1]
                .bandwidth_gbs
                .min(self.links[l2].bandwidth_gbs);
            let better = match best {
                None => true,
                Some((bw, via)) => bottleneck > bw || (bottleneck == bw && x < via),
            };
            if better {
                best = Some((bottleneck, x));
            }
        }
        best.map(|(_, via)| Route {
            endpoints: (a, b),
            via: Some(via),
        })
    }

    /// Sum of the bandwidths of all links with both endpoints in `nodes`.
    ///
    /// This is the naive "add up the total available bandwidth of all links
    /// used by a placement" score from the paper; the measured
    /// [`crate::stream::aggregate_bandwidth`] is preferred (and compared
    /// against this in the ablation bench).
    pub fn internal_link_sum(&self, nodes: &[NodeId]) -> f64 {
        self.links
            .iter()
            .filter(|l| nodes.contains(&l.a) && nodes.contains(&l.b))
            .map(|l| l.bandwidth_gbs)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Interconnect {
        let mut ic = Interconnect::new(4);
        ic.add_link(NodeId(0), NodeId(1), 4.0);
        ic.add_link(NodeId(1), NodeId(2), 2.0);
        ic.add_link(NodeId(0), NodeId(2), 1.0);
        ic
    }

    #[test]
    fn direct_link_lookup_is_symmetric() {
        let ic = triangle();
        assert_eq!(ic.direct_bandwidth(NodeId(0), NodeId(1)), Some(4.0));
        assert_eq!(ic.direct_bandwidth(NodeId(1), NodeId(0)), Some(4.0));
        assert_eq!(ic.direct_bandwidth(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn hops_counts_direct_and_two_hop() {
        let ic = triangle();
        assert_eq!(ic.hops(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(ic.hops(NodeId(0), NodeId(2)), Some(1));
        // Node 3 is isolated.
        assert_eq!(ic.hops(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn hops_through_one_intermediate_are_two_and_symmetric() {
        // A line 0 - 1 - 2 - 3.
        let mut ic = Interconnect::new(4);
        ic.add_link(NodeId(0), NodeId(1), 1.0);
        ic.add_link(NodeId(1), NodeId(2), 1.0);
        ic.add_link(NodeId(2), NodeId(3), 1.0);
        assert_eq!(ic.hops(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(ic.hops(NodeId(2), NodeId(0)), Some(2));
        // Three hops are beyond the routing tables.
        assert_eq!(ic.hops(NodeId(0), NodeId(3)), None);
        assert_eq!(ic.hops(NodeId(3), NodeId(0)), None);
    }

    #[test]
    fn two_hop_route_prefers_max_bottleneck() {
        let mut ic = Interconnect::new(4);
        ic.add_link(NodeId(0), NodeId(1), 4.0);
        ic.add_link(NodeId(1), NodeId(3), 4.0);
        ic.add_link(NodeId(0), NodeId(2), 1.0);
        ic.add_link(NodeId(2), NodeId(3), 1.0);
        let all: Vec<NodeId> = (0..4).map(NodeId).collect();
        let r = ic.route_within(NodeId(0), NodeId(3), &all).unwrap();
        assert_eq!(r.via, Some(NodeId(1)));
    }

    #[test]
    fn two_hop_route_tie_breaks_to_lowest_intermediate() {
        let mut ic = Interconnect::new(4);
        ic.add_link(NodeId(0), NodeId(1), 2.0);
        ic.add_link(NodeId(1), NodeId(3), 2.0);
        ic.add_link(NodeId(0), NodeId(2), 2.0);
        ic.add_link(NodeId(2), NodeId(3), 2.0);
        let all: Vec<NodeId> = (0..4).map(NodeId).collect();
        let r = ic.route_within(NodeId(0), NodeId(3), &all).unwrap();
        assert_eq!(r.via, Some(NodeId(1)));
    }

    #[test]
    fn route_respects_allowed_set() {
        let mut ic = Interconnect::new(4);
        ic.add_link(NodeId(0), NodeId(1), 2.0);
        ic.add_link(NodeId(1), NodeId(3), 2.0);
        let allowed = [NodeId(0), NodeId(3)];
        assert_eq!(ic.route_within(NodeId(0), NodeId(3), &allowed), None);
    }

    #[test]
    fn internal_link_sum_counts_only_internal_links() {
        let ic = triangle();
        let sum = ic.internal_link_sum(&[NodeId(0), NodeId(1)]);
        assert_eq!(sum, 4.0);
        let sum = ic.internal_link_sum(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sum, 7.0);
    }

    #[test]
    fn scale_bandwidths_multiplies_every_link() {
        let mut ic = triangle();
        ic.scale_bandwidths(0.5);
        assert_eq!(ic.direct_bandwidth(NodeId(0), NodeId(1)), Some(2.0));
        assert_eq!(ic.direct_bandwidth(NodeId(1), NodeId(2)), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let mut ic = triangle();
        ic.add_link(NodeId(1), NodeId(0), 1.0);
    }
}
