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
//! [`ResidentWorkload`]s: the containers holding the occupancy's used
//! threads, which a serving engine reads from the same published host
//! snapshot as the occupancy. Penalties are memoized per oracle input
//! — the candidate's workload and threads, the occupancy's used threads
//! and each resident's workload and threads — so a warm serving path
//! never calls the oracle, let alone under a host lock.
//!
//! The key is the oracle's whole input, so every memoised penalty is
//! the one a direct oracle call on the same inputs returns: which
//! lookup filled an entry, and whether an entry was evicted and filled
//! again, is invisible in the answers. A caller may therefore skip a
//! lookup it can prove cannot change its decision without changing any
//! later one. The memo is the workspace's LRU [`KeyedCache`], whose
//! victim is chosen by a logical clock, never by a hash seed, so the
//! counters too depend on the lookup history alone.

use vc_sync::{Counter, KeyedCache};
use vc_topology::{OccupancyMap, ThreadId};

/// One resident container as the interference path sees it: which
/// workload it runs and which hardware threads it holds.
///
/// A serving engine derives these from the host snapshot whose
/// occupancy it scores against, so the two always agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentWorkload {
    /// Workload name, resolvable against the oracle's suite.
    pub workload: String,
    /// The hardware threads the resident has reserved.
    pub threads: Vec<ThreadId>,
}

/// Source of co-location penalties.
///
/// Implemented by `vc-sim`'s `SimOracle`, which simulates the candidate
/// together with the named resident workloads; a hardware-backed
/// implementation would measure the candidate against the live
/// neighbours.
pub trait InterferenceOracle {
    /// Multiplicative penalty in `(0, 1]`: predicted performance of
    /// `workload` pinned to `threads` while the host's resident
    /// containers run, relative to the same assignment on an idle
    /// machine. `1.0` means the neighbours cost nothing.
    ///
    /// `residents` are the containers holding `occ`'s used threads:
    /// together they hold every used thread and no free one. `threads`
    /// must be free in `occ` (the candidate has not been committed
    /// yet). Implementations may panic when either contract is broken.
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

/// Appends `threads` as their count followed by their indices in the
/// order given, packed `32 / bits` to a word.
fn push_threads(key: &mut Vec<u32>, threads: &[ThreadId], bits: usize) {
    key.push(threads.len() as u32);
    key.extend(threads.chunks(32 / bits).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0, |word, (i, t)| word | (t.index() as u32) << (i * bits))
    }));
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
    /// Clamped penalty per [`Self::key`], least-recently-used
    /// entries dropped beyond the bound (churny fleets reach ever new
    /// occupancies, so the key space is unbounded).
    cache: KeyedCache<Vec<u32>, f64>,
    /// Every workload name a key has named, numbered in order of first
    /// appearance: a key writes a name as its number. As many entries
    /// as the workloads the oracle is asked about.
    names: KeyedCache<String, u32>,
    next_name: Counter,
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
            names: KeyedCache::default(),
            next_name: Counter::new(),
            lookups: Counter::new(),
            hits: Counter::new(),
        }
    }

    /// The number of workload `name` in this model's keys.
    fn name(&self, name: &str) -> u32 {
        self.names.get_or_compute(name, || self.next_name.incr() as u32)
    }

    /// The memo key of one penalty query, as one flat word string: the
    /// oracle's whole input,
    ///
    /// ```text
    /// workload | candidate threads | used threads | residents
    /// ```
    ///
    /// Workloads are written as their [`Self::name`] numbers and the
    /// used threads as a bitset of `occ.total_threads()` bits. Every
    /// thread list keeps its order, and the residents theirs: the
    /// simulator accumulates its loads thread by thread, so the same
    /// threads in another order can score differently, and a key that
    /// forgot the order would answer one query with another's penalty.
    /// Indices take a byte each on machines of up to 256 threads and
    /// two bytes beyond. Lists carry their lengths and the bitset has a
    /// fixed width, so distinct inputs never encode alike.
    ///
    /// `None` when the occupancy holds no resident thread at all (the
    /// penalty is trivially `1.0`).
    fn key(
        &self,
        workload: &str,
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> Option<Vec<u32>> {
        if occ.used_threads() == 0 {
            return None;
        }
        let total = occ.total_threads();
        let bits = if total <= 1 << 8 { 8 } else { 16 };
        assert!(total <= 1 << 16, "thread indices are keyed in at most 16 bits");
        let mut key = Vec::with_capacity(
            4 + total / 32 + residents.len() * 3 + (threads.len() + occ.used_threads()) / 4,
        );
        key.push(self.name(workload));
        push_threads(&mut key, threads, bits);
        let used = key.len();
        key.resize(used + total.div_ceil(32), 0);
        for t in (0..total).filter(|&t| !occ.is_free(ThreadId(t))) {
            key[used + t / 32] |= 1 << (t % 32);
        }
        key.push(residents.len() as u32);
        for r in residents {
            key.push(self.name(&r.workload));
            push_threads(&mut key, &r.threads, bits);
        }
        Some(key)
    }

    /// The cached occupancy-conditional penalty for placing `workload`
    /// on `threads` into `occ` next to `residents`, in `(0, 1]`: the
    /// arguments of [`InterferenceOracle::co_location_penalty`], whose
    /// clamped answer this is.
    ///
    /// `residents` are the containers holding `occ`'s used threads (the
    /// [`InterferenceOracle`] contract; pass the residents of the host
    /// snapshot `occ` came from). Idle occupancies short-circuit to
    /// `1.0`. A cold miss consults the oracle once per distinct input;
    /// the oracle runs outside the cache lock, so concurrent cold
    /// misses on *different* keys do not serialise (identical racing
    /// keys compute once: the losers wait for the winner's value and
    /// count as hits).
    pub fn penalty(
        &self,
        workload: &str,
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64 {
        self.lookups.incr();
        let Some(key) = self.key(workload, threads, occ, residents) else {
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
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use vc_topology::{machines, NodeId};

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
        let p = model.penalty("w", &threads, &occ, &[]);
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
        let cold = model.penalty("w", &threads, &occ, &[]);
        assert!(cold < 1.0);
        for _ in 0..5 {
            assert_eq!(model.penalty("w", &threads, &occ, &[]), cold);
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
        model.penalty("w", &threads, &occ, &[]);
        model.penalty("v", &threads, &occ, &[]); // new workload
        occ.reserve(&m.threads_on_node(NodeId(6))).unwrap();
        model.penalty("w", &threads, &occ, &[]); // new signature
        assert_eq!(oracle.calls.load(Ordering::Relaxed), 3);
        // The same input again is a hit.
        model.penalty("w", &threads, &occ, &[]);
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
        // Identical occupancy, different resident workloads:
        // the model must not serve the compute-bound penalty to the
        // streaming population.
        assert_eq!(model.penalty("w", &threads, &occ, &compute), 0.95);
        assert_eq!(model.penalty("w", &threads, &occ, &stream), 0.5);
        let c = model.counters();
        assert_eq!(c.computes, 2, "two multisets, two cold misses");
        // Residents in another order are another oracle input (the
        // engine passes a record's residents in its own ticket order).
        let two = [compute[0].clone(), stream[0].clone()];
        let two_rev = [stream[0].clone(), compute[0].clone()];
        model.penalty("w", &threads, &occ, &two);
        model.penalty("w", &threads, &occ, &two_rev);
        model.penalty("w", &threads, &occ, &two);
        assert_eq!(model.counters().computes, 4, "each order computes once");
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
        assert_eq!(model.penalty("speedup", &threads, &occ, &[]), 1.0);
        assert_eq!(model.penalty("nan", &threads, &occ, &[]), 1.0);
        let p = model.penalty("neg", &threads, &occ, &[]);
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
            model.penalty(w, &threads, &occ, &[]);
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
        let shifted = vec![resident_on(&m, "a", 4, 2, 2)];
        let a_on_5 = vec![resident_on(&m, "a", 5, 0, 2)];
        let two_nodes = vec![ResidentWorkload {
            workload: "a".to_string(),
            threads: [m.threads_on_node(NodeId(4))[0], m.threads_on_node(NodeId(5))[0]].to_vec(),
        }];
        // The key of `workload` on `threads` next to `residents`.
        let model = InterferenceModel::new(Arc::new(PatternOracle));
        let key = |workload: &str, threads: &[usize], residents: &[ResidentWorkload]| {
            let threads: Vec<ThreadId> = threads.iter().map(|&t| ThreadId(t)).collect();
            let occ = occupancy_of(&m, residents);
            model.key(workload, &threads, &occ, residents).expect("busy host")
        };
        let keys = [
            key("w", &[0, 1, 2, 3], &one),
            // Names that are prefixes of each other, with and without
            // trailing NULs: each is numbered apart.
            key("w1", &[0, 1, 2, 3], &one),
            key("abcd", &[0, 1, 2, 3], &one),
            key("abcde", &[0, 1, 2, 3], &one),
            key("abcd\0", &[0, 1, 2, 3], &one),
            key("", &[0, 1, 2, 3], &one),
            // Other threads of one node, other lengths (an odd one pads
            // its last word with a zero index), another order.
            key("w", &[4, 5, 6, 7], &one),
            key("w", &[0, 1, 2], &one),
            key("w", &[1], &one),
            key("w", &[1, 0], &one),
            key("w", &[], &one),
            // Occupied threads either side of a bitset word boundary.
            key("w", &[0], &[resident_on(&m, "a", 3, 7, 1)]),
            key("w", &[0], &[resident_on(&m, "a", 4, 0, 1)]),
            // Same occupancy, different resident multisets.
            key("w", &[0, 1, 2, 3], &split),
            key("w", &[0, 1, 2, 3], &ab_c),
            key("w", &[0, 1, 2, 3], &a_bc),
            // Equal per-node counts, other threads of the same node.
            key("w", &[0, 1, 2, 3], &shifted),
            // The same resident elsewhere, and spread over two nodes.
            key("w", &[0, 1, 2, 3], &a_on_5),
            key("w", &[0, 1, 2, 3], &two_nodes),
            // A resident named like the candidate.
            key("a", &[0, 1, 2, 3], &one),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "rows {i} and {j} of the table share a key");
            }
        }
    }

    #[test]
    fn encoded_keys_follow_layout_and_order_not_history() {
        let m = machines::amd_opteron_6272();
        let residents = vec![
            resident_on(&m, "stream", 4, 0, 2),
            resident_on(&m, "compute", 4, 2, 3),
            resident_on(&m, "compute", 6, 0, 1),
            resident_on(&m, "a", 7, 0, 4),
        ];
        let occ = occupancy_of(&m, &residents);
        let on = |node: usize| m.threads_on_node(NodeId(node))[..2].to_vec();
        let threads = [on(2), on(0), on(1)].concat();
        let model = InterferenceModel::new(Arc::new(PatternOracle));
        let encode_key = |w: &str, t: &[ThreadId], occ: &OccupancyMap, r: &[ResidentWorkload]| {
            model.key(w, t, occ, r)
        };
        let key = encode_key("w", &threads, &occ, &residents).unwrap();
        // The occupancy is its used threads, however it got there.
        let mut detour = OccupancyMap::new(&m);
        for r in residents.iter().rev() {
            detour.reserve(&r.threads).unwrap();
        }
        detour.reserve(&on(3)).unwrap();
        detour.release(&on(3)).unwrap();
        assert_eq!(encode_key("w", &threads, &detour, &residents).unwrap(), key);
        // Which threads of a node a resident or the candidate holds
        // splits the key: the simulation tells those layouts apart.
        let mut moved = residents.clone();
        moved[0] = resident_on(&m, "stream", 4, 6, 2);
        let moved_occ = occupancy_of(&m, &moved);
        assert_ne!(encode_key("w", &threads, &moved_occ, &moved).unwrap(), key);
        let mut shifted = threads.clone();
        shifted[0] = m.threads_on_node(NodeId(2))[5];
        assert_ne!(encode_key("w", &shifted, &occ, &residents).unwrap(), key);
        // So does order: the simulator sums its loads thread by thread.
        let mut reordered = threads.clone();
        reordered.swap(0, 2);
        assert_ne!(encode_key("w", &reordered, &occ, &residents).unwrap(), key);
        let mut swapped = residents.clone();
        swapped.swap(1, 2);
        assert_ne!(encode_key("w", &threads, &occ, &swapped).unwrap(), key);
        swapped = residents.clone();
        swapped[1].threads.reverse();
        assert_ne!(encode_key("w", &threads, &occ, &swapped).unwrap(), key);
        assert!(encode_key("w", &threads, &OccupancyMap::new(&m), &[]).is_none());
    }

    /// An oracle that reads every input the old per-node-count key threw
    /// away: which threads the candidate, the occupancy and each named
    /// resident hold, and in what order. An idle host costs nothing.
    struct PatternOracle;

    impl InterferenceOracle for PatternOracle {
        fn co_location_penalty(
            &self,
            workload: &str,
            threads: &[ThreadId],
            occ: &OccupancyMap,
            residents: &[ResidentWorkload],
        ) -> f64 {
            if occ.used_threads() == 0 {
                return 1.0;
            }
            let used: usize = (0..occ.total_threads())
                .filter(|&t| !occ.is_free(ThreadId(t)))
                .map(|t| t * t + 1)
                .sum();
            let placed = |i: usize, t: &ThreadId| (i + 1) * (3 * t.index() + 1);
            let candidate: usize = threads.iter().enumerate().map(|(i, t)| placed(i, t)).sum();
            let named: usize = residents
                .iter()
                .enumerate()
                .flat_map(|(j, r)| {
                    let weight = (j + 1) * r.workload.len();
                    r.threads.iter().enumerate().map(move |(i, t)| weight * placed(i, t))
                })
                .sum();
            let pattern = used + candidate + named + workload.len();
            1.0 / (1.0 + (pattern % 97) as f64 / 100.0)
        }
    }

    /// One penalty query: `(workload, threads, occupancy, residents)`.
    type Query = (&'static str, Vec<ThreadId>, OccupancyMap, Vec<ResidentWorkload>);

    /// `steps` queries from a fixed pseudo-random script over 5
    /// workloads × 4 candidate nodes × 4 resident nodes × 3 resident
    /// sizes × 2 offsets within the resident's node (480 busy keys); one
    /// in sixteen is against an idle host.
    fn scripted_queries(steps: usize) -> Vec<Query> {
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
                let (resident_node, count, offset) = (4 + take(4), 1 + take(3), 4 * take(2));
                let residents = vec![resident_on(&m, "r", resident_node, offset, count)];
                let (occ, residents) = if take(16) == 0 {
                    (OccupancyMap::new(&m), Vec::new())
                } else {
                    (occupancy_of(&m, &residents), residents)
                };
                (workload, m.threads_on_node(node), occ, residents)
            })
            .collect()
    }

    #[test]
    fn memoised_penalties_equal_direct_oracle_calls_past_the_bound() {
        // Far past the bound, entries are evicted and filled again by
        // whatever query asks next; every answer must still be the
        // oracle's on that query's own inputs, and two models (two hash
        // seeds: `RandomState` draws one per map) must count alike.
        let queries = scripted_queries(6000);
        let run = || {
            let model = InterferenceModel::with_capacity(Arc::new(PatternOracle), 64);
            for (i, (w, threads, occ, residents)) in queries.iter().enumerate() {
                let memoised = model.penalty(w, threads, occ, residents);
                let direct = PatternOracle.co_location_penalty(w, threads, occ, residents);
                assert_eq!(memoised.to_bits(), direct.to_bits(), "query {i}");
            }
            assert_eq!(model.cache.len(), 64);
            model.counters()
        };
        let c = run();
        assert_eq!(c, run());
        assert!(
            c.computes > 1000 && c.hits > 1000,
            "the script must both thrash and hit: {c:?}"
        );
    }

    #[test]
    fn counters_after_a_scripted_history_count_its_distinct_keys() {
        // Below the bound nothing is evicted, so the counts are a
        // function of the script: one compute per distinct busy key,
        // every other lookup a hit (idle short circuits included).
        let queries = scripted_queries(2000);
        let model = InterferenceModel::new(Arc::new(PatternOracle));
        let keys: HashSet<Vec<u32>> = queries
            .iter()
            .filter_map(|(w, threads, occ, residents)| model.key(w, threads, occ, residents))
            .collect();
        for (w, threads, occ, residents) in &queries {
            model.penalty(w, threads, occ, residents);
        }
        let c = model.counters();
        let distinct = keys.len() as u64;
        assert_eq!((c.lookups, c.hits, c.computes), (2000, 2000 - distinct, distinct));
        assert!(distinct > 400, "the script must reach most of its keys: {distinct}");
        assert_eq!(model.cache.counters().evictions, 0);
    }
}
