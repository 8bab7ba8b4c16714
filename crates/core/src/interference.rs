//! Occupancy-conditional interference scoring for co-located containers.
//!
//! The paper's model predicts a container's performance on an *idle*
//! machine; the scheduler, however, commits containers onto hosts that
//! already run neighbours. Sharing a node means sharing its L3 slices,
//! memory controller and interconnect ports — effects the empty-host
//! prediction never saw (Phoenix, arXiv:2502.10923; Mao,
//! arXiv:2411.01460 both show placement quality collapses under
//! co-location when the scorer is neighbour-blind).
//!
//! An [`InterferenceModel`] closes that gap: it asks an
//! [`InterferenceOracle`] (implemented by `vc-sim`'s co-location
//! simulator; on real hardware, a paired measurement) for the
//! *penalty* — the candidate's predicted performance with the host's
//! residents running, relative to the same placement on an idle host —
//! and multiplies it into the class score. The residents are passed as
//! [`ResidentWorkload`]s (the *real* workloads a serving engine tracks
//! in its resident registry; an empty slice falls back to occupancy-
//! derived stand-ins). Penalties are memoized per `(workload, node set,
//! vcpus, occupancy signature, resident-workload signature)` so a warm
//! serving path never calls the oracle, let alone under a host lock.
//!
//! The occupancy part of the memo key is deliberately coarse —
//! per-node used-thread counts — trading exactness (two occupancies
//! with equal per-node counts but different intra-node patterns share
//! an entry; the first one computed fills it) for cache hits across the
//! churning occupancies of a live fleet. The resident part coarsens the
//! same way (per-resident workload name plus per-node thread counts,
//! as a multiset), and is part of the key precisely so that memoisation
//! stays *sound* when penalties depend on what the neighbours run: a
//! host whose resident swapped from a compute-bound to a streaming
//! workload gets a fresh penalty even though the occupancy counts are
//! unchanged.
//!
//! Because the key is coarse, *which* occupancy filled an entry is
//! visible in later answers, so eviction must not depend on anything
//! but the lookup history: the memo is the workspace's LRU
//! [`KeyedCache`], whose victim is chosen by a logical clock, never by
//! a hash seed.

use vc_sync::{Counter, KeyedCache};
use vc_topology::{NodeId, OccupancyMap, ThreadId};

/// One resident container as the interference path sees it: which
/// workload it runs and which hardware threads it holds.
///
/// A serving engine derives these from its live resident registry;
/// callers without one (or probing hypothetical occupancies) pass an
/// empty slice and let the oracle fall back to stand-in profiles
/// derived from the occupancy map alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentWorkload {
    /// Workload name, resolvable against the oracle's suite.
    pub workload: String,
    /// The hardware threads the resident has reserved.
    pub threads: Vec<ThreadId>,
}

/// Source of co-location penalties.
///
/// Implemented by `vc-sim`'s `SimOracle` (which simulates the candidate
/// together with the named resident workloads — or stand-ins derived
/// from the occupancy map when `residents` is empty); a hardware-backed
/// implementation would measure the candidate against the live
/// neighbours.
pub trait InterferenceOracle {
    /// Multiplicative penalty in `(0, 1]`: predicted performance of
    /// `workload` pinned to `threads` while the host's resident
    /// containers run, relative to the same assignment on an idle
    /// machine. `1.0` means the neighbours cost nothing.
    ///
    /// `residents` names the real co-resident workloads and their
    /// threads; when empty, implementations derive stand-in residents
    /// from `occ` (a reservation map records *where* neighbours run but
    /// not *what* they run).
    ///
    /// `threads` must be free in `occ` (the candidate has not been
    /// committed yet); implementations may panic otherwise.
    fn co_location_penalty(
        &self,
        workload: &str,
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64;
}

/// A thread-safe, reference-counted interference oracle.
pub type SharedInterferenceOracle = std::sync::Arc<dyn InterferenceOracle + Send + Sync>;

/// Counter snapshot of one [`InterferenceModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterferenceCounters {
    /// Total penalty queries.
    pub lookups: u64,
    /// Queries answered without consulting the oracle (cache hits plus
    /// idle-host short circuits).
    pub hits: u64,
    /// Oracle consultations (cold misses — on the simulator backend,
    /// co-location simulations).
    pub computes: u64,
}

impl InterferenceCounters {
    /// Sums two snapshots (for aggregating across machine classes).
    pub fn merged(self, other: InterferenceCounters) -> InterferenceCounters {
        InterferenceCounters {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            computes: self.computes + other.computes,
        }
    }
}

/// Appends `text` as its byte length followed by its bytes, four to a
/// word, zero-padded — the length tells padding from content.
fn push_str(key: &mut Vec<u32>, text: &str) {
    key.push(text.len() as u32);
    key.extend(text.as_bytes().chunks(4).map(|chunk| {
        let mut word = [0u8; 4];
        word[..chunk.len()].copy_from_slice(chunk);
        u32::from_le_bytes(word)
    }));
}

/// The memo key of one penalty query, as one flat word string:
///
/// ```text
/// workload | nodes (sorted) | vCPUs | used threads per node | residents
/// ```
///
/// the candidate's identity at class granularity plus the occupancy
/// *and resident-workload* digests it would land in. Every
/// variable-length part carries its length, so distinct field tuples
/// never encode alike. A resident is its workload name and its
/// non-zero `(node, threads)` counts in node order; the residents are
/// written in the order of their encodings, so the registry's iteration
/// order cannot split entries (the key is of the *multiset*). Thread
/// positions are coarsened to per-node counts through `occ`'s thread →
/// node mapping — see the [module documentation](self).
///
/// `None` when the occupancy holds no resident thread at all (the
/// penalty is trivially `1.0`).
fn encode_key(
    workload: &str,
    nodes: &[NodeId],
    vcpus: usize,
    occ: &OccupancyMap,
    residents: &[ResidentWorkload],
) -> Option<Vec<u32>> {
    if occ.used_threads() == 0 {
        return None;
    }
    let num_nodes = occ.num_nodes();
    let mut key = Vec::with_capacity(8 + nodes.len() + num_nodes + 8 * residents.len());
    push_str(&mut key, workload);

    key.push(nodes.len() as u32);
    let first = key.len();
    key.extend(nodes.iter().map(|n| n.index() as u32));
    key[first..].sort_unstable();

    key.push(vcpus as u32);

    key.push(num_nodes as u32);
    key.extend((0..num_nodes).map(|n| occ.used_on_node(NodeId(n)) as u32));

    key.push(residents.len() as u32);
    // Each resident encoded where it stands, then the encodings put in
    // order: `spans` remembers where each one lies in `unsorted`.
    let mut unsorted: Vec<u32> = Vec::new();
    let mut spans = Vec::with_capacity(residents.len());
    for r in residents {
        let start = unsorted.len();
        push_str(&mut unsorted, &r.workload);
        let shape_len = unsorted.len();
        unsorted.push(0);
        // Count into `num_nodes` scratch words, then squeeze the
        // occupied ones down into `(node, count)` pairs.
        let counts = unsorted.len();
        unsorted.resize(counts + num_nodes, 0);
        for &t in &r.threads {
            unsorted[counts + occ.node_of(t).index()] += 1;
        }
        let mut end = counts;
        for n in 0..num_nodes {
            let count = unsorted[counts + n];
            if count > 0 {
                unsorted[end] = (n as u32) << 16 | count;
                end += 1;
            }
        }
        unsorted.truncate(end);
        unsorted[shape_len] = (end - counts) as u32;
        spans.push(start..end);
    }
    spans.sort_unstable_by(|a, b| unsorted[a.clone()].cmp(&unsorted[b.clone()]));
    for span in spans {
        key.extend_from_slice(&unsorted[span]);
    }
    Some(key)
}

/// Memoizing front-end over an [`InterferenceOracle`].
///
/// One model serves one machine topology (share it across
/// same-fingerprint hosts the way catalogs and trained models are
/// shared). All methods take `&self` and are thread-safe; the oracle is
/// only consulted on cold misses, so callers that must not block on a
/// simulation under a lock should query against an occupancy *snapshot*
/// outside the lock — the `vc-engine` serving path does exactly that.
pub struct InterferenceModel {
    oracle: SharedInterferenceOracle,
    /// Clamped penalty per [`encode_key`] key, least-recently-used
    /// entries dropped beyond the bound (the key space is naturally
    /// bounded by workloads × classes × signatures, but churny fleets
    /// can still grow it unboundedly).
    cache: KeyedCache<Vec<u32>, f64>,
    lookups: Counter,
    hits: Counter,
}

impl InterferenceModel {
    /// Default bound on resident cache entries.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A model over `oracle` with the default cache bound.
    pub fn new(oracle: SharedInterferenceOracle) -> Self {
        Self::with_capacity(oracle, Self::DEFAULT_CAPACITY)
    }

    /// A model with an explicit cache bound (`0` = unbounded).
    pub fn with_capacity(oracle: SharedInterferenceOracle, capacity: usize) -> Self {
        InterferenceModel {
            oracle,
            cache: KeyedCache::bounded(capacity),
            lookups: Counter::new(),
            hits: Counter::new(),
        }
    }

    /// The cached occupancy-conditional penalty for placing `workload`
    /// on `threads` (spanning `nodes`) into `occ` next to `residents`,
    /// in `(0, 1]`.
    ///
    /// `residents` names the real co-resident workloads (pass the
    /// host's registry snapshot, taken together with `occ` under one
    /// lock); an empty slice falls back to the oracle's stand-in
    /// profiles. Idle occupancies short-circuit to `1.0`. Cold misses
    /// consult the oracle once per
    /// `(workload, nodes, |threads|, occupancy sig, residents sig)`
    /// key; the oracle runs outside the cache lock, so concurrent cold
    /// misses on *different* keys do not serialise (identical racing
    /// keys compute once: the losers wait for the winner's value and
    /// count as hits).
    pub fn penalty(
        &self,
        workload: &str,
        nodes: &[NodeId],
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64 {
        self.lookups.incr();
        let Some(key) = encode_key(workload, nodes, threads.len(), occ, residents) else {
            self.hits.incr();
            return 1.0;
        };
        let mut computed = false;
        let p = self.cache.get_or_compute(&key[..], || {
            computed = true;
            let raw = self.oracle.co_location_penalty(workload, threads, occ, residents);
            // Guard the contract: a penalty is a degradation factor.
            // Oracles reporting speed-ups (or NaN from a degenerate
            // measurement) are clamped so adjusted scores never exceed
            // the idle-host score.
            if raw.is_finite() {
                raw.clamp(f64::MIN_POSITIVE, 1.0)
            } else {
                1.0
            }
        });
        if !computed {
            self.hits.incr();
        }
        p
    }

    /// `predicted × penalty`: the interference-adjusted score.
    pub fn adjust(
        &self,
        predicted: f64,
        workload: &str,
        nodes: &[NodeId],
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64 {
        predicted * self.penalty(workload, nodes, threads, occ, residents)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> InterferenceCounters {
        InterferenceCounters {
            lookups: self.lookups.get(),
            hits: self.hits.get(),
            computes: self.cache.counters().computes,
        }
    }
}

impl std::fmt::Debug for InterferenceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("InterferenceModel")
            .field("capacity", &self.cache.capacity())
            .field("counters", &c)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use vc_topology::machines;

    /// An oracle whose penalty depends only on how many resident
    /// threads share the candidate's nodes, and which counts its calls.
    struct CountingOracle {
        calls: AtomicU64,
    }

    impl InterferenceOracle for CountingOracle {
        fn co_location_penalty(
            &self,
            _workload: &str,
            threads: &[ThreadId],
            occ: &OccupancyMap,
            _residents: &[ResidentWorkload],
        ) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let load = threads.len() * occ.used_threads();
            1.0 / (1.0 + load as f64 / 100.0)
        }
    }

    fn setup() -> (InterferenceModel, Arc<CountingOracle>) {
        let oracle = Arc::new(CountingOracle {
            calls: AtomicU64::new(0),
        });
        (
            InterferenceModel::new(Arc::clone(&oracle) as SharedInterferenceOracle),
            oracle,
        )
    }

    #[test]
    fn idle_hosts_short_circuit_without_the_oracle() {
        let m = machines::amd_opteron_6272();
        let (model, oracle) = setup();
        let occ = OccupancyMap::new(&m);
        let threads = m.threads_on_node(NodeId(0));
        let p = model.penalty("w", &[NodeId(0)], &threads, &occ, &[]);
        assert_eq!(p, 1.0);
        assert_eq!(oracle.calls.load(Ordering::Relaxed), 0);
        let c = model.counters();
        assert_eq!((c.lookups, c.hits, c.computes), (1, 1, 0));
    }

    #[test]
    fn warm_lookups_hit_the_cache_not_the_oracle() {
        let m = machines::amd_opteron_6272();
        let (model, oracle) = setup();
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(7))).unwrap();
        let threads = m.threads_on_node(NodeId(0));
        let cold = model.penalty("w", &[NodeId(0)], &threads, &occ, &[]);
        assert!(cold < 1.0);
        for _ in 0..5 {
            assert_eq!(model.penalty("w", &[NodeId(0)], &threads, &occ, &[]), cold);
        }
        assert_eq!(oracle.calls.load(Ordering::Relaxed), 1, "one cold miss only");
        let c = model.counters();
        assert_eq!((c.lookups, c.hits, c.computes), (6, 5, 1));
    }

    #[test]
    fn distinct_signatures_and_workloads_are_distinct_entries() {
        let m = machines::amd_opteron_6272();
        let (model, oracle) = setup();
        let threads = m.threads_on_node(NodeId(0));
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(7))).unwrap();
        model.penalty("w", &[NodeId(0)], &threads, &occ, &[]);
        model.penalty("v", &[NodeId(0)], &threads, &occ, &[]); // new workload
        occ.reserve(&m.threads_on_node(NodeId(6))).unwrap();
        model.penalty("w", &[NodeId(0)], &threads, &occ, &[]); // new signature
        assert_eq!(oracle.calls.load(Ordering::Relaxed), 3);
        // Node-set order does not split entries.
        model.penalty("w", &[NodeId(0)], &threads, &occ, &[]);
        assert_eq!(oracle.calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn resident_workload_multisets_split_cache_entries() {
        // An oracle that actually reads the resident workloads: a
        // streaming neighbour costs more than a compute-bound one.
        struct ByResident;
        impl InterferenceOracle for ByResident {
            fn co_location_penalty(
                &self,
                _: &str,
                _: &[ThreadId],
                _: &OccupancyMap,
                residents: &[ResidentWorkload],
            ) -> f64 {
                if residents.iter().any(|r| r.workload == "stream") {
                    0.5
                } else {
                    0.95
                }
            }
        }
        let m = machines::amd_opteron_6272();
        let model = InterferenceModel::new(Arc::new(ByResident));
        let mut occ = OccupancyMap::new(&m);
        let neighbour = m.threads_on_node(NodeId(7));
        occ.reserve(&neighbour).unwrap();
        let threads = m.threads_on_node(NodeId(0));
        let compute = [ResidentWorkload {
            workload: "compute".to_string(),
            threads: neighbour.clone(),
        }];
        let stream = [ResidentWorkload {
            workload: "stream".to_string(),
            threads: neighbour.clone(),
        }];
        // Identical occupancy signature, different resident multiset:
        // the model must not serve the compute-bound penalty to the
        // streaming population.
        assert_eq!(model.penalty("w", &[NodeId(0)], &threads, &occ, &compute), 0.95);
        assert_eq!(model.penalty("w", &[NodeId(0)], &threads, &occ, &stream), 0.5);
        let c = model.counters();
        assert_eq!(c.computes, 2, "two multisets, two cold misses");
        // Registry iteration order must not split entries: the same
        // multiset in any order is a hit.
        let two = [compute[0].clone(), stream[0].clone()];
        let two_rev = [stream[0].clone(), compute[0].clone()];
        let a = model.penalty("w", &[NodeId(0)], &threads, &occ, &two);
        let b = model.penalty("w", &[NodeId(0)], &threads, &occ, &two_rev);
        assert_eq!(a, b);
        assert_eq!(model.counters().computes, 3, "reordered multiset must hit");
    }

    #[test]
    fn adjust_multiplies_the_penalty_in() {
        let m = machines::amd_opteron_6272();
        let (model, _) = setup();
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(1))).unwrap();
        let threads = m.threads_on_node(NodeId(0));
        let p = model.penalty("w", &[NodeId(0)], &threads, &occ, &[]);
        let adjusted = model.adjust(200.0, "w", &[NodeId(0)], &threads, &occ, &[]);
        assert!((adjusted - 200.0 * p).abs() < 1e-12);
        assert!(adjusted < 200.0);
    }

    #[test]
    fn out_of_contract_oracles_are_clamped() {
        struct Wild;
        impl InterferenceOracle for Wild {
            fn co_location_penalty(
                &self,
                w: &str,
                _: &[ThreadId],
                _: &OccupancyMap,
                _: &[ResidentWorkload],
            ) -> f64 {
                match w {
                    "speedup" => 1.7,
                    "nan" => f64::NAN,
                    _ => -2.0,
                }
            }
        }
        let m = machines::amd_opteron_6272();
        let model = InterferenceModel::new(Arc::new(Wild));
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(1))).unwrap();
        let threads = m.threads_on_node(NodeId(0));
        assert_eq!(model.penalty("speedup", &[NodeId(0)], &threads, &occ, &[]), 1.0);
        assert_eq!(model.penalty("nan", &[NodeId(0)], &threads, &occ, &[]), 1.0);
        let p = model.penalty("neg", &[NodeId(0)], &threads, &occ, &[]);
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn bounded_cache_stays_bounded() {
        let m = machines::amd_opteron_6272();
        let oracle = Arc::new(CountingOracle {
            calls: AtomicU64::new(0),
        });
        let model =
            InterferenceModel::with_capacity(Arc::clone(&oracle) as SharedInterferenceOracle, 2);
        let mut occ = OccupancyMap::new(&m);
        occ.reserve(&m.threads_on_node(NodeId(7))).unwrap();
        let threads = m.threads_on_node(NodeId(0));
        for w in ["a", "b", "c", "d"] {
            model.penalty(w, &[NodeId(0)], &threads, &occ, &[]);
        }
        assert_eq!(model.cache.len(), 2, "cache exceeded its bound");
    }

    /// Resident `workload` on `count` threads of `node`, starting at the
    /// node's `offset`-th thread.
    fn resident_on(
        m: &vc_topology::Machine,
        workload: &str,
        node: usize,
        offset: usize,
        count: usize,
    ) -> ResidentWorkload {
        ResidentWorkload {
            workload: workload.to_string(),
            threads: m.threads_on_node(NodeId(node))[offset..offset + count].to_vec(),
        }
    }

    /// The occupancy holding exactly `residents`.
    fn occupancy_of(m: &vc_topology::Machine, residents: &[ResidentWorkload]) -> OccupancyMap {
        let mut occ = OccupancyMap::new(m);
        for r in residents {
            occ.reserve(&r.threads).unwrap();
        }
        occ
    }

    #[test]
    fn encoded_keys_tell_near_collisions_apart() {
        let m = machines::amd_opteron_6272();
        let one = vec![resident_on(&m, "a", 4, 0, 2)];
        let split = vec![resident_on(&m, "a", 4, 0, 1), resident_on(&m, "a", 4, 1, 1)];
        let ab_c = vec![resident_on(&m, "ab", 4, 0, 1), resident_on(&m, "c", 4, 1, 1)];
        let a_bc = vec![resident_on(&m, "a", 4, 0, 1), resident_on(&m, "bc", 4, 1, 1)];
        let a_on_5 = vec![resident_on(&m, "a", 5, 0, 2)];
        let two_nodes = vec![ResidentWorkload {
            workload: "a".to_string(),
            threads: [m.threads_on_node(NodeId(4))[0], m.threads_on_node(NodeId(5))[0]].to_vec(),
        }];
        // The key of `workload` on `nodes` next to `residents`, either
        // named to the model or left to the stand-in fallback.
        let key = |workload: &str,
                   nodes: &[usize],
                   vcpus: usize,
                   residents: &[ResidentWorkload],
                   named: bool| {
            let nodes: Vec<NodeId> = nodes.iter().map(|&i| NodeId(i)).collect();
            let occ = occupancy_of(&m, residents);
            let named: &[ResidentWorkload] = if named { residents } else { &[] };
            encode_key(workload, &nodes, vcpus, &occ, named).expect("busy host")
        };
        let keys = [
            key("w", &[0], 4, &one, true),
            // Names that are prefixes of each other, within one word and
            // across a word boundary, with and without trailing NULs.
            key("w1", &[0], 4, &one, true),
            key("abcd", &[0], 4, &one, true),
            key("abcde", &[0], 4, &one, true),
            key("abcd\0", &[0], 4, &one, true),
            key("", &[0], 4, &one, true),
            // Node lists against counts: [1, 2] then 4 vCPUs must not
            // read like [1] then 2 vCPUs then a count of 4, and so on.
            key("w", &[1, 2], 4, &one, true),
            key("w", &[1], 2, &one, true),
            key("w", &[1], 4, &one, true),
            key("w", &[4], 1, &one, true),
            key("w", &[], 4, &one, true),
            key("w", &[0, 0], 4, &one, true),
            // Same occupancy counts, different resident multisets.
            key("w", &[0], 4, &split, true),
            key("w", &[0], 4, &ab_c, true),
            key("w", &[0], 4, &a_bc, true),
            // Stand-in fallback (no named residents) over the same map.
            key("w", &[0], 4, &one, false),
            // The same resident elsewhere, and spread over two nodes.
            key("w", &[0], 4, &a_on_5, true),
            key("w", &[0], 4, &two_nodes, true),
            // A resident named like the candidate.
            key("a", &[0], 4, &one, true),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "rows {i} and {j} of the table share a key");
            }
        }
    }

    #[test]
    fn encoded_keys_ignore_what_the_memo_coarsens_away() {
        let m = machines::amd_opteron_6272();
        let residents = vec![
            resident_on(&m, "stream", 4, 0, 2),
            resident_on(&m, "compute", 4, 2, 3),
            resident_on(&m, "compute", 6, 0, 1),
            resident_on(&m, "a", 7, 0, 4),
        ];
        let occ = occupancy_of(&m, &residents);
        let nodes = [NodeId(2), NodeId(0), NodeId(1)];
        let key = encode_key("w", &nodes, 6, &occ, &residents).unwrap();
        // Every order of the residents and of the candidate's nodes.
        let mut order = residents.clone();
        for rotation in 0..order.len() {
            order.rotate_left(1);
            order.swap(0, rotation % 3 + 1);
            let nodes = [nodes[rotation % 3], nodes[(rotation + 1) % 3], nodes[(rotation + 2) % 3]];
            assert_eq!(encode_key("w", &nodes, 6, &occ, &order).unwrap(), key);
        }
        // Which threads of a node a resident holds, and in what order.
        let mut moved = residents.clone();
        moved[0] = resident_on(&m, "stream", 4, 6, 2);
        moved[1] = resident_on(&m, "compute", 4, 1, 3);
        moved[1].threads.reverse();
        assert_eq!(
            encode_key("w", &nodes, 6, &occupancy_of(&m, &moved), &moved).unwrap(),
            key
        );
        assert!(encode_key("w", &nodes, 6, &OccupancyMap::new(&m), &[]).is_none());
    }

    /// An oracle that tells apart occupancies the memo key does not:
    /// the penalty depends on *which* threads are reserved.
    struct PatternOracle;

    impl InterferenceOracle for PatternOracle {
        fn co_location_penalty(
            &self,
            workload: &str,
            _: &[ThreadId],
            occ: &OccupancyMap,
            _: &[ResidentWorkload],
        ) -> f64 {
            let pattern: usize = (0..occ.total_threads())
                .filter(|&t| !occ.is_free(ThreadId(t)))
                .map(|t| t * t + 1)
                .sum();
            1.0 / (1.0 + ((pattern + workload.len()) % 97) as f64 / 100.0)
        }
    }

    /// `steps` lookups from a fixed pseudo-random script over 5
    /// workloads × 4 candidate nodes × 4 resident nodes × 3 resident
    /// sizes (240 keys), each key reachable through 4 occupancies the
    /// oracle scores differently. Returns every penalty, in order.
    fn scripted_history(model: &InterferenceModel, steps: usize) -> Vec<f64> {
        let m = machines::amd_opteron_6272();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        (0..steps)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mut draw = (x >> 33) as usize;
                let mut take = |n: usize| {
                    let v = draw % n;
                    draw /= n;
                    v
                };
                let workload = ["a", "bb", "ccc", "dddd", "eeeee"][take(5)];
                let node = NodeId(take(4));
                let (resident_node, count, offset) = (4 + take(4), 1 + take(3), take(4));
                let residents = [resident_on(&m, "r", resident_node, offset, count)];
                let occ = occupancy_of(&m, &residents);
                // One lookup in sixteen is against an idle host.
                let occ = if take(16) == 0 { OccupancyMap::new(&m) } else { occ };
                model.penalty(workload, &[node], &m.threads_on_node(node), &occ, &[])
            })
            .collect()
    }

    #[test]
    fn eviction_depends_on_the_lookup_history_alone() {
        // Two models are two hash seeds (`RandomState` draws a fresh one
        // per map): past the bound, an evicted key is refilled by
        // whichever occupancy asks next, so a seed-dependent victim
        // shows up as diverging penalties.
        let run = || {
            let model = InterferenceModel::with_capacity(Arc::new(PatternOracle), 64);
            let penalties: Vec<u64> =
                scripted_history(&model, 6000).into_iter().map(f64::to_bits).collect();
            assert_eq!(model.cache.len(), 64);
            (penalties, model.counters())
        };
        let (first, second) = (run(), run());
        assert_eq!(first.1, second.1);
        assert!(first.0 == second.0, "the same history produced different penalties");
        let c = first.1;
        assert!(
            c.computes > 1000 && c.hits > 1000,
            "the script must both thrash and hit: {c:?}"
        );
    }

    #[test]
    fn counters_after_a_scripted_history_equal_the_parents() {
        // Below the bound nothing is evicted, so the counts are a
        // function of the script: 2,000 lookups, 240 distinct busy
        // keys all reached, the rest hits (idle short circuits
        // included). Recorded from the `Mutex<HashMap>` memo this one
        // replaced, on the same script.
        let model = InterferenceModel::new(Arc::new(PatternOracle));
        scripted_history(&model, 2000);
        let c = model.counters();
        assert_eq!((c.lookups, c.hits, c.computes), (2000, 1760, 240));
        assert_eq!(model.cache.counters().evictions, 0);
    }
}
