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
//! The [`OccupancySignature`] is deliberately coarse — per-node
//! used-thread counts — trading exactness (two occupancies with equal
//! per-node counts but different intra-node patterns share an entry)
//! for cache hits across the churning occupancies of a live fleet. The
//! [`ResidentsSignature`] coarsens the same way (per-resident workload
//! name plus per-node thread counts), and is part of the key precisely
//! so that memoisation stays *sound* when penalties depend on what the
//! neighbours run: a host whose resident swapped from a compute-bound
//! to a streaming workload gets a fresh penalty even though the
//! occupancy counts are unchanged.

use std::collections::HashMap;
use std::sync::Mutex;

use vc_sync::Counter;
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

/// Coarse, hashable digest of an occupancy map for penalty caching:
/// used-thread counts per NUMA node.
///
/// Two occupancies with the same signature are treated as equally
/// interfering (the first one computed fills the cache entry). This is
/// the deliberate approximation that keeps the cache warm across fleet
/// churn — see the [module documentation](self).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OccupancySignature(Vec<u32>);

impl OccupancySignature {
    /// The signature of `occ`.
    pub fn of(occ: &OccupancyMap) -> Self {
        OccupancySignature(
            (0..occ.num_nodes())
                .map(|n| occ.used_on_node(NodeId(n)) as u32)
                .collect(),
        )
    }

    /// Whether the occupancy held no resident threads at all (penalty
    /// trivially 1.0, no oracle consultation needed).
    pub fn is_idle(&self) -> bool {
        self.0.iter().all(|&u| u == 0)
    }

    /// Used threads per node, node-id order.
    pub fn used_per_node(&self) -> &[u32] {
        &self.0
    }
}

/// Hashable digest of a host's resident workload population: the
/// multiset of `(workload, threads-per-node)` profiles, sorted so the
/// registry's iteration order cannot split cache entries.
///
/// Two resident populations with the same signature run the same
/// workloads in the same per-node shapes, so they interfere identically
/// at the granularity the penalty probe models — this is what keeps
/// memoisation *sound* now that penalties depend on what the residents
/// actually run, not just on where threads are reserved.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ResidentsSignature(Vec<(String, Vec<(u16, u16)>)>);

impl ResidentsSignature {
    /// The signature of `residents`, with thread positions coarsened to
    /// per-node counts via `occ`'s thread → node mapping.
    pub fn of(residents: &[ResidentWorkload], occ: &OccupancyMap) -> Self {
        let mut entries: Vec<(String, Vec<(u16, u16)>)> = residents
            .iter()
            .map(|r| {
                let mut per_node = vec![0u16; occ.num_nodes()];
                for &t in &r.threads {
                    per_node[occ.node_of(t).index()] += 1;
                }
                let shape: Vec<(u16, u16)> = per_node
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, c)| c > 0)
                    .map(|(n, c)| (n as u16, c))
                    .collect();
                (r.workload.clone(), shape)
            })
            .collect();
        entries.sort();
        ResidentsSignature(entries)
    }

    /// Number of residents in the signature.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the signature covers no residents (the oracle will fall
    /// back to occupancy-derived stand-ins).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

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

/// Penalty-cache key: the candidate's identity at class granularity
/// plus the occupancy *and resident-workload* signatures it would land
/// in — the resident multiset is part of the key, so a host whose
/// neighbours changed workload (same thread pattern) cannot be served a
/// stale penalty.
type Key = (
    String,
    Vec<NodeId>,
    usize,
    OccupancySignature,
    ResidentsSignature,
);

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
    cache: Mutex<HashMap<Key, f64>>,
    /// Resident-entry bound; beyond it an arbitrary entry is dropped
    /// (the key space is naturally bounded by workloads × classes ×
    /// signatures, but churny fleets can still grow it unboundedly).
    capacity: usize,
    lookups: Counter,
    hits: Counter,
    computes: Counter,
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
            cache: Mutex::new(HashMap::new()),
            capacity,
            lookups: Counter::new(),
            hits: Counter::new(),
            computes: Counter::new(),
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
    /// keys may both compute; last write wins, both count).
    pub fn penalty(
        &self,
        workload: &str,
        nodes: &[NodeId],
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64 {
        self.lookups.incr();
        let sig = OccupancySignature::of(occ);
        if sig.is_idle() {
            self.hits.incr();
            return 1.0;
        }
        let mut nodes_key = nodes.to_vec();
        nodes_key.sort();
        let key: Key = (
            workload.to_string(),
            nodes_key,
            threads.len(),
            sig,
            ResidentsSignature::of(residents, occ),
        );
        if let Some(&p) = self.cache.lock().expect("interference cache poisoned").get(&key) {
            self.hits.incr();
            return p;
        }
        self.computes.incr();
        let raw = self.oracle.co_location_penalty(workload, threads, occ, residents);
        // Guard the contract: a penalty is a degradation factor. Oracles
        // reporting speed-ups (or NaN from a degenerate measurement) are
        // clamped so adjusted scores never exceed the idle-host score.
        let p = if raw.is_finite() { raw.clamp(f64::MIN_POSITIVE, 1.0) } else { 1.0 };
        let mut cache = self.cache.lock().expect("interference cache poisoned");
        if self.capacity > 0 && cache.len() >= self.capacity {
            if let Some(victim) = cache.keys().next().cloned() {
                cache.remove(&victim);
            }
        }
        cache.insert(key, p);
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
            computes: self.computes.get(),
        }
    }
}

impl std::fmt::Debug for InterferenceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("InterferenceModel")
            .field("capacity", &self.capacity)
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
        assert_eq!(
            model.cache.lock().unwrap().len(),
            2,
            "cache exceeded its bound"
        );
    }
}
