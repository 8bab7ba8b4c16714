//! Filtering the important-placement catalog by what is actually free.
//!
//! An [`ImportantPlacement`] is an
//! *equivalence class*: its spec names one representative node set, but
//! every node set with the same score vector predicts the same
//! performance (§3). When containers come and go, the representative set
//! may be busy while an equivalent set is free — so admission must
//! *retarget* each class onto a node set that the machine's
//! [`OccupancyMap`] says can really host it.
//!
//! Retargeting prefers node sets that consume the fewest pristine
//! (completely untouched) nodes, so small containers are packed onto
//! already-fragmented hardware and large contiguous room survives for
//! later requests.
//!
//! # Examples
//!
//! ```
//! use vc_core::availability::available_placements;
//! use vc_core::concern::ConcernSet;
//! use vc_core::important::important_placements;
//! use vc_topology::{machines, NodeId, OccupancyMap};
//!
//! let amd = machines::amd_opteron_6272();
//! let concerns = ConcernSet::for_machine(&amd);
//! let catalog = important_placements(&amd, &concerns, 16).unwrap();
//!
//! // Occupy nodes 0 and 1 entirely.
//! let mut occ = OccupancyMap::new(&amd);
//! for node in [NodeId(0), NodeId(1)] {
//!     occ.reserve(&amd.threads_on_node(node)).unwrap();
//! }
//!
//! // Every class that can still be hosted is retargeted onto free nodes.
//! for ap in available_placements(&amd, &concerns, &catalog, &occ) {
//!     assert!(!ap.spec.nodes.contains(&NodeId(0)));
//!     assert!(!ap.spec.nodes.contains(&NodeId(1)));
//! }
//! ```

use std::collections::BTreeMap;

use vc_topology::{Machine, NodeId, OccupancyMap, ThreadId};

use crate::assign::assign_vcpus_in;
use crate::concern::ConcernSet;
use crate::important::ImportantPlacement;
use crate::placement::PlacementSpec;

/// An important-placement class realised on a currently-free node set.
#[derive(Debug, Clone)]
pub struct AvailablePlacement {
    /// Id of the catalog class this availability realises.
    pub id: usize,
    /// Concrete spec on a node set that is free right now.
    pub spec: PlacementSpec,
    /// The free hardware threads that would host the vCPUs.
    pub threads: Vec<ThreadId>,
    /// Pristine (completely untouched) nodes this placement would break
    /// open — the fragmentation cost the admission scorer penalises.
    pub pristine_consumed: usize,
}

/// Score-vector cache keyed by `(node set, L3 groups, L2 groups)`,
/// shared across the classes of one equivalence precompute (the
/// interconnect score is a flow computation).
type ScoreCache = BTreeMap<(Vec<NodeId>, usize, usize), Vec<f64>>;

/// The availability equivalence classes of one catalog class: every node
/// set on this machine whose score vector equals the class's (§3: equal
/// scores ⇒ equal predicted performance). The *orbit* of the class under
/// the machine's symmetries.
#[derive(Debug, Clone)]
pub struct ClassOrbit {
    /// 1-based catalog class id this orbit belongs to.
    pub id: usize,
    /// Nodes the class spans.
    pub num_nodes: usize,
    /// vCPUs each node must host (`vcpus / num_nodes`).
    pub per_node: usize,
    /// Equivalently-scored node sets, lexicographic order. Always
    /// contains the class's representative set.
    pub node_sets: Vec<Vec<NodeId>>,
    /// The class's spec template (vcpus / L3 / L2 shape); `spec.nodes`
    /// is the catalog representative.
    spec: PlacementSpec,
}

/// The free capacity one placement class needs, at node and L2-domain
/// granularity — what a lock-free capacity-summary prefilter checks
/// (`num_nodes` nodes with ≥ `per_node` free threads, *and* `num_l2` L2
/// groups with ≥ `per_l2` free threads). Both conditions are necessary,
/// neither sufficient: `true` from a prefilter is re-validated against
/// the occupancy map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeRequirement {
    /// Nodes the class spans.
    pub num_nodes: usize,
    /// vCPUs each node must host.
    pub per_node: usize,
    /// L2 groups the class uses.
    pub num_l2: usize,
    /// vCPUs each used L2 group must host.
    pub per_l2: usize,
}

impl ShapeRequirement {
    /// The node-granular sketch bucket of this shape, `(per_node,
    /// num_nodes)`: a host can pass the node axis of the prefilter iff
    /// it has at least `num_nodes` nodes with ≥ `per_node` free
    /// threads. This is the index shape an availability sketch's
    /// cumulative node table is queried with
    /// (`AvailabilitySketch::hosts_with_nodes`).
    pub fn node_bucket(&self) -> (usize, usize) {
        (self.per_node, self.num_nodes)
    }

    /// The L2-granular sketch bucket, `(per_l2, num_l2)` — companion
    /// of [`Self::node_bucket`] for the sketch's L2 table
    /// (`AvailabilitySketch::hosts_with_l2s`).
    pub fn l2_bucket(&self) -> (usize, usize) {
        (self.per_l2, self.num_l2)
    }
}

/// Precomputed availability equivalence classes for one catalog.
///
/// Retargeting a class at admission time used to enumerate and *score*
/// every `C(nodes, n)` subset under the host's occupancy lock. The score
/// vector of a node set is occupancy-independent, so an
/// `AvailabilityIndex` computes each class's equivalently-scored node
/// sets once (per catalog, off the lock path); admission then only
/// filters the precomputed sets by free capacity — O(sets) counter reads
/// instead of O(sets) flow computations, with no scoring under any lock.
///
/// # Examples
///
/// ```
/// use vc_core::availability::AvailabilityIndex;
/// use vc_core::concern::ConcernSet;
/// use vc_core::important::important_placements;
/// use vc_topology::{machines, NodeId, OccupancyMap};
///
/// let amd = machines::amd_opteron_6272();
/// let concerns = ConcernSet::for_machine(&amd);
/// let catalog = important_placements(&amd, &concerns, 16).unwrap();
/// let index = AvailabilityIndex::build(&amd, &concerns, &catalog);
///
/// // Every class's orbit contains its own representative node set.
/// for (orbit, ip) in index.orbits().iter().zip(&catalog) {
///     assert!(orbit.node_sets.contains(&ip.spec.nodes));
/// }
///
/// // Querying against live occupancy does no scoring at all.
/// let mut occ = OccupancyMap::new(&amd);
/// occ.reserve(&amd.threads_on_node(NodeId(0))).unwrap();
/// for ap in index.available(&amd, &occ) {
///     assert!(!ap.spec.nodes.contains(&NodeId(0)));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct AvailabilityIndex {
    orbits: Vec<ClassOrbit>,
}

impl AvailabilityIndex {
    /// Computes the equivalence classes for every catalog class: all
    /// `C(nodes, n)` subsets are enumerated and scored exactly once,
    /// sharing score computations across classes with identical shape.
    pub fn build(
        machine: &Machine,
        concerns: &ConcernSet,
        placements: &[ImportantPlacement],
    ) -> Self {
        let all_nodes: Vec<NodeId> = machine.nodes().iter().map(|nd| nd.id).collect();
        let mut cache = ScoreCache::new();
        let orbits = placements
            .iter()
            .map(|ip| {
                let n = ip.spec.num_nodes();
                let mut node_sets = Vec::new();
                let mut buf = Vec::with_capacity(n);
                crate::packing::choose(&all_nodes, n, &mut buf, &mut |set| {
                    if scores_equivalent(score_of(machine, concerns, ip, set, &mut cache), &ip.scores)
                    {
                        node_sets.push(set.to_vec());
                    }
                });
                ClassOrbit {
                    id: ip.id,
                    num_nodes: n,
                    per_node: ip.spec.vcpus / n,
                    node_sets,
                    spec: ip.spec.clone(),
                }
            })
            .collect();
        AvailabilityIndex { orbits }
    }

    /// The per-class orbits, catalog order.
    pub fn orbits(&self) -> &[ClassOrbit] {
        &self.orbits
    }

    /// Capacity requirement of each class, catalog order — the shape a
    /// lock-free capacity summary checks before any lock is taken, at
    /// both node and L2 granularity.
    pub fn requirements(&self) -> Vec<ShapeRequirement> {
        self.orbits
            .iter()
            .map(|o| ShapeRequirement {
                num_nodes: o.num_nodes,
                per_node: o.per_node,
                num_l2: o.spec.l2_groups_used,
                per_l2: o.spec.vcpus / o.spec.l2_groups_used,
            })
            .collect()
    }

    /// Retargets every class onto free hardware using only the
    /// precomputed orbits (no scoring). Classes with no free equivalent
    /// node set are dropped; survivors keep their catalog `id`, so model
    /// predictions (indexed by class id) remain valid.
    pub fn available(&self, machine: &Machine, occ: &OccupancyMap) -> Vec<AvailablePlacement> {
        self.orbits
            .iter()
            .filter_map(|o| Self::walk(o, machine, occ).next())
            .collect()
    }

    /// *Every* currently-hostable realisation of the class at catalog
    /// position `class_index`, cheapest fragmentation first — the head
    /// is what [`Self::available`] offers for the class. Admission only
    /// ever needs that head; a rebalancer hunting the least-interfering
    /// node set on a busy machine needs the whole list, because
    /// fragmentation preference and interference avoidance can disagree
    /// (the fragmentation-first choice is precisely the set next to the
    /// noisy neighbour).
    pub fn realisations(
        &self,
        class_index: usize,
        machine: &Machine,
        occ: &OccupancyMap,
    ) -> Vec<AvailablePlacement> {
        Self::walk(&self.orbits[class_index], machine, occ).collect()
    }

    /// The assignable realisations of one orbit, lazily: node sets with
    /// room on every node, fewest pristine nodes broken open first, ties
    /// towards the lexicographically smallest set.
    fn walk<'a>(
        orbit: &'a ClassOrbit,
        machine: &'a Machine,
        occ: &'a OccupancyMap,
    ) -> impl Iterator<Item = AvailablePlacement> + 'a {
        let mut fitting: Vec<(usize, &Vec<NodeId>)> = orbit
            .node_sets
            .iter()
            .filter(|set| set.iter().all(|&nd| occ.free_on_node(nd) >= orbit.per_node))
            .map(|set| {
                let pristine = set.iter().filter(|&&nd| occ.node_is_pristine(nd)).count();
                (pristine, set)
            })
            .collect();
        fitting.sort();
        fitting.into_iter().filter_map(move |(pristine, set)| {
            let spec = PlacementSpec::new(
                orbit.spec.vcpus,
                set.clone(),
                orbit.spec.l3_groups_used,
                orbit.spec.l2_groups_used,
            );
            assign_vcpus_in(machine, &spec, occ)
                .ok()
                .map(|threads| AvailablePlacement {
                    id: orbit.id,
                    spec,
                    threads,
                    pristine_consumed: pristine,
                })
        })
    }
}

/// Whether two score vectors are equal to the equivalence tolerance.
fn scores_equivalent(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9)
}

/// The (cached) score vector of `ip`'s shape on `set`.
fn score_of<'c>(
    machine: &Machine,
    concerns: &ConcernSet,
    ip: &ImportantPlacement,
    set: &[NodeId],
    cache: &'c mut ScoreCache,
) -> &'c [f64] {
    let key = (set.to_vec(), ip.spec.l3_groups_used, ip.spec.l2_groups_used);
    cache.entry(key).or_insert_with(|| {
        let probe = PlacementSpec::new(
            ip.spec.vcpus,
            set.to_vec(),
            ip.spec.l3_groups_used,
            ip.spec.l2_groups_used,
        );
        concerns.score_vector(machine, &probe)
    })
}

/// Retargets every class in `placements` onto free hardware.
///
/// One-shot variant: enumerates only occupancy-eligible node sets and
/// stops scoring at the first hostable equivalent per class. Serving
/// paths that retarget repeatedly against changing occupancy should
/// build an [`AvailabilityIndex`] once and call
/// [`AvailabilityIndex::available`] instead — same results
/// (cross-checked in this module's tests), no scoring per query.
pub fn available_placements(
    machine: &Machine,
    concerns: &ConcernSet,
    placements: &[ImportantPlacement],
    occ: &OccupancyMap,
) -> Vec<AvailablePlacement> {
    let mut cache = ScoreCache::new();
    placements
        .iter()
        .filter_map(|ip| retarget_lazy(machine, concerns, ip, occ, &mut cache))
        .collect()
}

/// Lazy retargeting for the one-shot entry points: size-n subsets of
/// the *currently eligible* nodes, cheapest fragmentation first, scored
/// one at a time until an equivalent, assignable set is found.
fn retarget_lazy(
    machine: &Machine,
    concerns: &ConcernSet,
    ip: &ImportantPlacement,
    occ: &OccupancyMap,
    cache: &mut ScoreCache,
) -> Option<AvailablePlacement> {
    let n = ip.spec.num_nodes();
    let per_node = ip.spec.vcpus / n;
    let eligible: Vec<NodeId> = machine
        .nodes()
        .iter()
        .map(|nd| nd.id)
        .filter(|&nd| occ.free_on_node(nd) >= per_node)
        .collect();
    if eligible.len() < n {
        return None;
    }
    let mut combos: Vec<(usize, Vec<NodeId>)> = Vec::new();
    let mut buf = Vec::with_capacity(n);
    crate::packing::choose(&eligible, n, &mut buf, &mut |set| {
        let pristine = set.iter().filter(|&&nd| occ.node_is_pristine(nd)).count();
        combos.push((pristine, set.to_vec()));
    });
    combos.sort();

    for (pristine, set) in combos {
        if !scores_equivalent(score_of(machine, concerns, ip, &set, cache), &ip.scores) {
            continue;
        }
        let spec = PlacementSpec::new(
            ip.spec.vcpus,
            set,
            ip.spec.l3_groups_used,
            ip.spec.l2_groups_used,
        );
        if let Ok(threads) = assign_vcpus_in(machine, &spec, occ) {
            return Some(AvailablePlacement {
                id: ip.id,
                spec,
                threads,
                pristine_consumed: pristine,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::important::important_placements;
    use vc_topology::machines;

    fn amd_setup() -> (Machine, ConcernSet, Vec<ImportantPlacement>) {
        let amd = machines::amd_opteron_6272();
        let cs = ConcernSet::for_machine(&amd);
        let ips = important_placements(&amd, &cs, 16).unwrap();
        (amd, cs, ips)
    }

    #[test]
    fn empty_machine_offers_every_class_on_its_representative() {
        let (amd, cs, ips) = amd_setup();
        let occ = OccupancyMap::new(&amd);
        let avail = available_placements(&amd, &cs, &ips, &occ);
        assert_eq!(avail.len(), ips.len());
        for (ap, ip) in avail.iter().zip(&ips) {
            assert_eq!(ap.id, ip.id);
            // All nodes pristine: the lexicographically smallest
            // equivalent set wins; it carries the class's exact scores.
            let scores = cs.score_vector(&amd, &ap.spec);
            for (a, b) in scores.iter().zip(&ip.scores) {
                assert!((a - b).abs() <= 1e-9);
            }
            assert_eq!(ap.pristine_consumed, ap.spec.num_nodes());
        }
    }

    #[test]
    fn busy_representative_is_retargeted_to_an_equivalent_set() {
        let (amd, cs, ips) = amd_setup();
        let mut occ = OccupancyMap::new(&amd);
        // Fill nodes 0 and 1 (the smallest intra-package pair).
        for n in [NodeId(0), NodeId(1)] {
            occ.reserve(&amd.threads_on_node(n)).unwrap();
        }
        let avail = available_placements(&amd, &cs, &ips, &occ);
        // The intra-package 2-node class must reappear on another pair
        // ({2,3}, {4,5} or {6,7} score identically).
        let two_node: Vec<_> = avail.iter().filter(|a| a.spec.num_nodes() == 2).collect();
        assert!(!two_node.is_empty());
        for ap in &avail {
            assert!(!ap.spec.nodes.contains(&NodeId(0)), "{:?}", ap.spec.nodes);
            assert!(!ap.spec.nodes.contains(&NodeId(1)), "{:?}", ap.spec.nodes);
        }
    }

    #[test]
    fn exhausted_machine_offers_nothing() {
        let (amd, cs, ips) = amd_setup();
        let mut occ = OccupancyMap::new(&amd);
        for n in 0..amd.num_nodes() {
            occ.reserve(&amd.threads_on_node(NodeId(n))).unwrap();
        }
        assert!(available_placements(&amd, &cs, &ips, &occ).is_empty());
    }

    #[test]
    fn retargeted_threads_are_free_and_disjoint() {
        let (amd, cs, ips) = amd_setup();
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&amd.threads_on_node(NodeId(2))).unwrap();
        for ap in available_placements(&amd, &cs, &ips, &occ) {
            assert_eq!(ap.threads.len(), 16);
            let mut sorted = ap.threads.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 16, "class {} hands out duplicates", ap.id);
            for &t in &ap.threads {
                assert!(occ.is_free(t), "class {} uses reserved thread {t}", ap.id);
            }
        }
    }

    #[test]
    fn index_orbits_cover_the_representative_and_only_equivalents() {
        let (amd, cs, ips) = amd_setup();
        let index = AvailabilityIndex::build(&amd, &cs, &ips);
        assert_eq!(index.orbits().len(), ips.len());
        for (orbit, ip) in index.orbits().iter().zip(&ips) {
            assert_eq!(orbit.id, ip.id);
            assert!(
                orbit.node_sets.contains(&ip.spec.nodes),
                "orbit of class {} misses its representative",
                ip.id
            );
            for set in &orbit.node_sets {
                let probe = PlacementSpec::new(
                    ip.spec.vcpus,
                    set.clone(),
                    ip.spec.l3_groups_used,
                    ip.spec.l2_groups_used,
                );
                let scores = cs.score_vector(&amd, &probe);
                for (a, b) in scores.iter().zip(&ip.scores) {
                    assert!((a - b).abs() <= 1e-9, "non-equivalent set in orbit {}", ip.id);
                }
            }
        }
    }

    #[test]
    fn index_query_matches_on_the_fly_retargeting() {
        let (amd, cs, ips) = amd_setup();
        let index = AvailabilityIndex::build(&amd, &cs, &ips);
        let mut occ = OccupancyMap::new(&amd);
        for n in [NodeId(0), NodeId(3)] {
            occ.reserve(&amd.threads_on_node(n)).unwrap();
        }
        let via_index = index.available(&amd, &occ);
        let via_wrapper = available_placements(&amd, &cs, &ips, &occ);
        assert_eq!(via_index.len(), via_wrapper.len());
        for (a, b) in via_index.iter().zip(&via_wrapper) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.threads, b.threads);
            assert_eq!(a.pristine_consumed, b.pristine_consumed);
        }
    }

    #[test]
    fn requirements_match_class_shapes() {
        let (amd, cs, ips) = amd_setup();
        let index = AvailabilityIndex::build(&amd, &cs, &ips);
        let reqs = index.requirements();
        assert_eq!(reqs.len(), ips.len());
        for (r, ip) in reqs.iter().zip(&ips) {
            assert_eq!(r.num_nodes, ip.spec.num_nodes());
            assert_eq!(r.per_node, ip.spec.vcpus / ip.spec.num_nodes());
            assert_eq!(r.num_nodes * r.per_node, ip.spec.vcpus);
            assert_eq!(r.num_l2, ip.spec.l2_groups_used);
            assert_eq!(r.per_l2, ip.spec.vcpus / ip.spec.l2_groups_used);
            assert_eq!(r.num_l2 * r.per_l2, ip.spec.vcpus);
        }
    }

    #[test]
    fn sketch_buckets_mirror_the_prefilter_axes() {
        let (amd, cs, ips) = amd_setup();
        let index = AvailabilityIndex::build(&amd, &cs, &ips);
        for r in index.requirements() {
            // The buckets are exactly the argument pairs the summary
            // prefilter checks (`can_host(num_nodes, per_node)` /
            // `can_host_l2(num_l2, per_l2)`), in sketch table order
            // (threshold first, count second).
            assert_eq!(r.node_bucket(), (r.per_node, r.num_nodes));
            assert_eq!(r.l2_bucket(), (r.per_l2, r.num_l2));
            // Both buckets account for every vCPU of the shape.
            let (kn, n) = r.node_bucket();
            let (kl, g) = r.l2_bucket();
            assert_eq!(kn * n, kl * g);
        }
    }

    #[test]
    fn realisations_list_every_hostable_set_head_first() {
        let (amd, cs, ips) = amd_setup();
        let index = AvailabilityIndex::build(&amd, &cs, &ips);
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&amd.threads_on_node(NodeId(0))).unwrap();
        let heads = index.available(&amd, &occ);
        for (i, ip) in ips.iter().enumerate() {
            let all = index.realisations(i, &amd, &occ);
            match heads.iter().find(|head| head.id == ip.id) {
                Some(head) => {
                    assert_eq!(all[0].spec, head.spec, "class {} head diverged", ip.id);
                    assert_eq!(all[0].threads, head.threads);
                    // Every listed set is genuinely free and in-orbit.
                    for ap in &all {
                        assert_eq!(ap.id, ip.id);
                        assert!(ap.threads.iter().all(|&t| occ.is_free(t)));
                        assert!(index.orbits()[i].node_sets.contains(&ap.spec.nodes));
                    }
                    // Fragmentation order is respected.
                    for w in all.windows(2) {
                        assert!(w[0].pristine_consumed <= w[1].pristine_consumed);
                    }
                }
                None => assert!(all.is_empty(), "class {} hostable but not available", ip.id),
            }
        }
    }

    #[test]
    fn partially_used_nodes_are_preferred_over_pristine_ones() {
        // A 12-vCPU single-node container uses half an Intel node, so
        // two instances can stack on one node without sharing threads.
        let intel = machines::intel_xeon_e7_4830_v3();
        let cs = ConcernSet::for_machine(&intel);
        let ips = important_placements(&intel, &cs, 12).unwrap();
        let single = ips
            .iter()
            .find(|ip| ip.spec.num_nodes() == 1)
            .expect("12 vCPUs fit one 24-thread node");
        let retarget = |occ: &OccupancyMap| {
            let mut avail = available_placements(&intel, &cs, std::slice::from_ref(single), occ);
            assert_eq!(avail.len(), 1, "the class is hostable");
            avail.pop().unwrap()
        };
        let mut occ = OccupancyMap::new(&intel);
        let first = retarget(&occ);
        occ.reserve(&first.threads).unwrap();
        // The second instance of the same class must pack onto the
        // half-used node rather than break open a pristine one.
        let second = retarget(&occ);
        assert_eq!(second.pristine_consumed, 0);
        assert_eq!(second.spec.nodes, first.spec.nodes);
        for &t in &second.threads {
            assert!(!first.threads.contains(&t), "thread {t} double-booked");
        }
    }
}
