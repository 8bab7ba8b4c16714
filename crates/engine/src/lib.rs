//! # vc-engine — the cluster-scale placement service
//!
//! The crates below this one reproduce Funston et al.'s single-machine
//! pipeline (concerns → important placements → probe selection → forest
//! training). Every consumer used to re-wire that pipeline by hand and
//! recompute everything per call. This crate turns the pipeline into a
//! **long-lived, thread-safe service**: a [`PlacementEngine`] owns a
//! fleet of machines and answers placement queries out of LRU-bounded
//! compute-once caches, so repeated queries cost two probe measurements
//! instead of a full enumeration-plus-training run.
//!
//! What is memoized, and under which key:
//!
//! | cache | key | contents |
//! |---|---|---|
//! | catalogs | `(machine fingerprint, vcpus)` | concern set, important placements, surviving packings, availability equivalence classes |
//! | training sets | `(fingerprint, vcpus, baseline, excluded family)` | the oracle measurement sweep |
//! | models | `(fingerprint, vcpus, baseline, excluded family)` | selected probe pair + fitted forest |
//!
//! Keys use [`vc_topology::Machine::fingerprint`], so identical machine
//! models across a fleet share one catalog and one trained model — the
//! ML stage is amortised across the fleet rather than retrained per
//! machine, in the spirit of warehouse-scale systems like MAO.
//!
//! # Fleet scale
//!
//! The fleet is grouped into *machine classes* ([`FleetIndex`]): hosts
//! with identical topology fingerprint and baseline. Phase 1 of
//! [`PlacementEngine::place_batch`] scores each request **once per
//! class** — a 1000-host fleet built from 4 hardware models costs 4
//! evaluations per request, not 1000 (observable via
//! [`EngineStats::evaluations`]). Per-host work is reduced to a
//! lock-free read of the host's [`vc_topology::CapacitySummary`] — its
//! published sketch profile, two atomic loads per goal shape; only
//! hosts whose summary leaves a goal-clearing placement class possible
//! ever have their occupancy mutex taken, and the commit re-validates
//! under that lock (a stale-optimistic summary costs one wasted lock,
//! never a bad placement).
//!
//! # Occupancy
//!
//! Capacity is accounted at **node granularity**: every committed
//! placement reserves the concrete hardware threads of its spec (see
//! [`Placed::threads`]) in the host's
//! [`vc_topology::OccupancyMap`], so two co-located containers never
//! share a thread, an L2 domain is only shared when the placement class
//! says so, and [`PlacementEngine::release`] returns exactly what a
//! departing container held. When a machine cannot host a request the
//! rejection names the exhausted node.
//!
//! # Wait-free reads
//!
//! Each host keeps one record of what runs where: an immutable
//! [`HostSnapshot`] — occupancy plus resident registry, one consistent
//! pair — whose `Arc` its mutex guards and its single-slot wait-free
//! cell (`vc_sync::Slot`, QSBR-reclaimed) publishes. It is only
//! mutable through a lock guard that copies it on the first change
//! (`Arc::make_mut`) and, on drop, publishes that copy *before* the
//! host lock is released, together with one fresh sketch profile:
//! stored as the capacity summary and applied to the shard sketch as a
//! delta.
//! Scoring, BestScore dry runs, interference probes, the
//! utilisation/occupancy accessors and the whole rebalance planning
//! phase read these snapshots with **zero lock acquisitions** — only
//! the final all-or-nothing reserve takes the host mutex
//! (counter-verified via [`EngineStats::host_lock_acquisitions`]). A
//! snapshot lags the authoritative map by at most one in-flight
//! critical section — the same staleness contract as the capacity
//! summary — and a commit that scored against a view a concurrent
//! writer invalidated simply re-scores against a fresh one
//! ([`SnapshotCounters::stale_retries`]).
//! [`PlacementEngine::audit`] checks that every published snapshot is
//! the record under its lock and that the summaries, registries and
//! location map agree with it.
//!
//! Each public entry point opens one [`vc_sync::lock::LockScope`]. Host
//! guards borrow it mutably and everything that may simulate borrows it
//! shared, so simulating under a host lock — or taking a second host
//! lock outside the id-ordered pair — is a compile error, not a
//! convention.
//!
//! # Interference
//!
//! Co-located containers still share caches, memory controllers and
//! links the idle-host model never saw. With
//! [`EngineConfig::interference`] enabled, commit-time scoring and
//! BestScore ranking multiply each class's prediction by the
//! occupancy-conditional co-location penalty — the candidate simulated
//! together with the host's **real resident workloads**, read from the
//! same snapshot as the occupancy (so the penalty the engine acts on is
//! the penalty the fleet actually experiences), memoized per
//! `(workload, class, occupancy signature,
//! resident-workload signature)` by
//! [`vc_core::interference::InterferenceModel`]. The applied penalty
//! is reported in [`Placed::interference_penalty`] and the cache
//! counters in [`EngineStats`]. Off (the default), decisions are
//! bit-for-bit the neighbour-blind engine's.
//!
//! # Resident registry and rebalancing
//!
//! Every commit records a [`Resident`] (the admission request plus the
//! concrete placement) in its host's record, in the same critical
//! section as the thread reservation — registry and occupancy never
//! disagree (see [`PlacementEngine::residents`]). Each container
//! carries a [`PlacementTicket`]; [`PlacementEngine::release_ticket`]
//! (and [`PlacementEngine::release`], given a handle) resolves the
//! ticket wherever the container lives *now*, returns [`ReleaseError`]
//! on misuse (double release no longer silently corrupts accounting),
//! and counts both outcomes in [`EngineStats`]. A resident also records
//! the rebalance pass that last moved it, which is what the move
//! cooldown reads.
//!
//! On top of the registry, [`PlacementEngine::rebalance`] closes the
//! loop that admission-time scoring leaves open: residents whose
//! predicted degradation exceeds
//! [`EngineConfig::degradation_budget`] are re-placed fleet-wide,
//! priced with the §7 Table 2 migration cost model
//! ([`MigrationModel`]: fast / throttled / default-Linux), and moved
//! only when the predicted benefit beats the migration's own cost —
//! see the [`rebalance`] module.
//!
//! # Quickstart
//!
//! ```
//! use vc_engine::{BatchStrategy, EngineConfig, PlacementEngine, PlacementRequest};
//! use vc_topology::machines;
//!
//! // A small fleet: two AMD boxes (they share caches!) and one Intel box.
//! let mut engine = PlacementEngine::new(EngineConfig {
//!     extra_synthetic: 0, // paper suite only, for a fast doc test
//!     ..EngineConfig::default()
//! });
//! engine.add_machine(machines::amd_opteron_6272());
//! engine.add_machine(machines::amd_opteron_6272());
//! engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
//!
//! // Place a stream of containers, first-fit.
//! let reqs: Vec<PlacementRequest> = (0..4)
//!     .map(|i| PlacementRequest::new("WTbtree", 16).with_probe_seed(i))
//!     .collect();
//! let decisions = engine.place_batch(&reqs, BatchStrategy::FirstFit);
//! assert!(decisions.iter().all(|d| d.placed().is_some()));
//!
//! // The second identical batch is answered from warm caches: no new
//! // enumeration, no new forest training.
//! let before = engine.stats();
//! let more = engine.place_batch(&reqs, BatchStrategy::FirstFit);
//! let after = engine.stats();
//! assert_eq!(before.catalogs.computes, after.catalogs.computes);
//! assert_eq!(before.models.computes, after.models.computes);
//!
//! // Departures hand their exact hardware threads back.
//! let departing = more[0].placed().expect("fleet still has room").clone();
//! let (used_before, _) = engine.utilisation(departing.machine);
//! engine.release(&departing).unwrap();
//! let (used_after, _) = engine.utilisation(departing.machine);
//! assert_eq!(used_before - used_after, departing.threads.len());
//! ```

#![warn(missing_docs)]

mod descent;
mod engine;
mod host;
pub mod rebalance;
mod stats;

pub use engine::{
    BatchStrategy, EngineConfig, FitProbe, FleetClass, FleetIndex, MachineId, ModelArtifact,
    Placed, PlacementCatalog, PlacementDecision, PlacementEngine, PlacementRequest,
    PlacementTicket, ReleaseError, Resident,
};
pub use host::HostSnapshot;
/// The memo behind catalogs, training sets and models; it lives in
/// `vc-sync` so `vc-core`'s penalty memo is the same type.
pub use vc_sync::cache::{self, CacheCounters, KeyedCache};
pub use stats::{EngineStats, SketchCounters, SnapshotCounters, SummaryCounters};
pub use rebalance::{Migration, RebalancePolicy, RebalanceReport, RebalanceTotals};
pub use vc_core::interference::{InterferenceCounters, ResidentWorkload};
// The migration cost types appear in the rebalance API; re-exported so
// engine clients need not depend on `vc-migration` directly.
pub use vc_migration::{MigrationEstimate, MigrationMode, MigrationModel};

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::machines;

    fn small_engine() -> PlacementEngine {
        // Tiny corpus so unit tests stay fast; integration tests use the
        // full default.
        PlacementEngine::single(
            machines::amd_opteron_6272(),
            EngineConfig {
                extra_synthetic: 0,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn catalog_matches_direct_enumeration() {
        let engine = small_engine();
        let catalog = engine.catalog(MachineId(0), 16).unwrap();
        assert_eq!(catalog.placements.len(), 13); // the paper's count
        let direct = vc_core::important::important_placements(
            engine.machine(MachineId(0)),
            &catalog.concerns,
            16,
        )
        .unwrap();
        for (a, b) in catalog.placements.iter().zip(&direct) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.scores, b.scores);
        }
    }

    #[test]
    fn infeasible_vcpus_error_is_cached_not_panicking() {
        let engine = small_engine();
        assert!(engine.catalog(MachineId(0), 0).is_err());
        assert!(engine.catalog(MachineId(0), 1024).is_err());
        // Second lookup hits the cached error.
        let before = engine.stats().catalogs.computes;
        assert!(engine.catalog(MachineId(0), 1024).is_err());
        assert_eq!(engine.stats().catalogs.computes, before);
    }

    #[test]
    fn warm_queries_do_no_enumeration_or_training() {
        let engine = small_engine();
        let req = PlacementRequest::new("WTbtree", 16).with_goal(0.9);
        let cold = engine.place(&req);
        assert!(cold.placed().is_some());
        let after_cold = engine.stats();
        assert!(after_cold.catalogs.computes >= 1);
        assert!(after_cold.models.computes >= 1);

        for seed in 1..5 {
            let warm = engine.place(&PlacementRequest::new("WTbtree", 16).with_probe_seed(seed));
            let placed = warm.placed().expect("capacity was released").clone();
            engine.release(&placed).unwrap(); // keep capacity free for the next query
        }
        let after_warm = engine.stats();
        assert_eq!(after_cold.catalogs.computes, after_warm.catalogs.computes);
        assert_eq!(
            after_cold.training_sets.computes,
            after_warm.training_sets.computes
        );
        assert_eq!(after_cold.models.computes, after_warm.models.computes);
        assert!(after_warm.models.hits() > after_cold.models.hits());
    }

    #[test]
    fn identical_machines_share_cache_entries() {
        let mut engine = PlacementEngine::new(EngineConfig {
            extra_synthetic: 0,
            ..EngineConfig::default()
        });
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine(machines::amd_opteron_6272());
        engine.catalog(MachineId(0), 16).unwrap();
        let computes = engine.stats().catalogs.computes;
        engine.catalog(MachineId(1), 16).unwrap();
        assert_eq!(
            engine.stats().catalogs.computes,
            computes,
            "same-fingerprint machine recomputed its catalog"
        );
    }

    #[test]
    fn capacity_is_reserved_and_released() {
        let engine = small_engine();
        let req = PlacementRequest::new("swaptions", 16);
        let d1 = engine.place(&req);
        let p1 = d1.placed().expect("fits").clone();
        assert_eq!(engine.utilisation(MachineId(0)), (16, 64));
        // Three more fill the 64-thread machine.
        for _ in 0..3 {
            assert!(engine.place(&req).placed().is_some());
        }
        let full = engine.place(&req);
        assert!(full.placed().is_none(), "65th--80th vCPUs must not fit");
        engine.release(&p1).unwrap();
        assert_eq!(engine.utilisation(MachineId(0)), (48, 64));
        assert!(engine.place(&req).placed().is_some());
    }

    #[test]
    fn zero_vcpu_and_unknown_workload_requests_are_rejected() {
        let engine = small_engine();
        assert!(engine
            .place(&PlacementRequest::new("WTbtree", 0))
            .placed()
            .is_none());
        assert!(engine
            .place(&PlacementRequest::new("no-such-workload", 16))
            .placed()
            .is_none());
    }

    #[test]
    fn best_score_meets_goals_it_predicts() {
        let mut engine = PlacementEngine::new(EngineConfig {
            extra_synthetic: 0,
            ..EngineConfig::default()
        });
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        let req = PlacementRequest::new("WTbtree", 16).with_goal(1.0);
        let decisions = engine.place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore);
        let placed = decisions[0].placed().expect("some machine meets the goal");
        assert!(placed.goal_met);
        assert!(placed.predicted_perf >= placed.goal_perf);
    }

    #[test]
    fn batch_decisions_preserve_request_order() {
        let engine = small_engine();
        let reqs: Vec<PlacementRequest> = (0..6)
            .map(|i| PlacementRequest::new("swaptions", 16).with_probe_seed(i))
            .collect();
        let decisions = engine.place_batch(&reqs, BatchStrategy::FirstFit);
        assert_eq!(decisions.len(), 6);
        // 64 threads / 16 vCPUs: exactly the first four fit.
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(d.placed().is_some(), i < 4, "request {i}");
        }
    }
}
