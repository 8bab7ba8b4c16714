//! Engine telemetry: the public counter structs, the atomics behind
//! them, and [`PlacementEngine::stats`].

use vc_core::interference::InterferenceCounters;
use vc_sync::Counter;

use crate::engine::PlacementEngine;
use crate::host::Host;
use vc_sync::CacheCounters;

/// Counters for the lock-free capacity-summary prefilter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryCounters {
    /// Hosts skipped by the prefilter — no host lock was taken for
    /// these.
    pub skips: u64,
    /// Hosts the prefilter admitted (each admission leads to one plan
    /// on the host's published record, re-planned only when its commit
    /// loses a race).
    pub admits: u64,
    /// Admitted hosts whose record then held no goal-clearing plan (or
    /// whose plans kept losing races at commit); the walk went on to
    /// the remaining hosts. Under concurrency this is usually a
    /// stale-optimistic summary, but it also counts constraints the
    /// node-granular summary cannot express (score-equivalent node sets
    /// all busy, intra-node L2 fragmentation), so it can be nonzero
    /// single-threaded.
    pub stale: u64,
}

/// Counters for the shard-level availability-sketch descent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchCounters {
    /// Hosts skipped *shard-wide*: their shard's sketch proved no
    /// member could pass the summary prefilter, so not even their
    /// individual summaries were read. Disjoint from
    /// [`SummaryCounters::skips`], which counts per-host summary
    /// rejections inside descended shards.
    pub skips: u64,
    /// Shards descended into (sketch left at least one goal shape
    /// possible), counted per walk.
    pub admits: u64,
    /// Fully-walked admitted shards in which no member's summary
    /// admitted the request (members the same request already tried on
    /// an earlier walk count as admitting — they did). The sketch's
    /// two marginals are per-axis (node shapes and L2 shapes), so
    /// different hosts can satisfy different axes with no host
    /// satisfying both — stale optimism that costs one shard of summary
    /// reads, never a wrong decision. Also counts racing publications
    /// under concurrency.
    pub stale: u64,
}

/// Counters for the wait-free snapshot publication path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotCounters {
    /// Host snapshots published (one per commit, release and executed
    /// rebalance move, plus one per host at registration).
    pub published: u64,
    /// Snapshot loads served to read paths with zero lock
    /// acquisitions.
    pub reads: u64,
    /// Admission plans refused at commit because a concurrent writer
    /// published on the host after the plan was scored, each followed
    /// by a re-plan on the fresh record. Zero single-threaded.
    pub stale_retries: u64,
}

/// Counter snapshot across all engine caches and the fleet serving path.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Catalog cache (important placements + packings + availability).
    pub catalogs: CacheCounters,
    /// Training-set cache (oracle measurement sweeps).
    pub training_sets: CacheCounters,
    /// Model cache (probe selection + forest training).
    pub models: CacheCounters,
    /// Phase-1 candidate evaluations (probing + prediction). Counted
    /// per `(request, machine class)`, *not* per host: a fleet of 1000
    /// same-model hosts costs one evaluation per request.
    pub evaluations: u64,
    /// Capacity-summary prefilter activity.
    pub summary: SummaryCounters,
    /// Shard-sketch descent activity (the level above the summaries).
    pub sketch: SketchCounters,
    /// Interference-penalty activity, summed over the co-location memos
    /// of the fleet's topologies (one per `SimOracle`, see
    /// [`vc_sim::SimOracle::interference_counters`]): `computes` counts
    /// co-location simulations (cold misses), `hits` the queries served
    /// from cache or idle-host short circuits. All zero when
    /// [`EngineConfig::interference`](crate::EngineConfig::interference)
    /// is off.
    pub interference: InterferenceCounters,
    /// Admission plans abandoned because the host had free capacity
    /// for goal-clearing classes, but co-location interference pushed
    /// every adjusted prediction below the goal. Counted
    /// separately from [`SummaryCounters::stale`] — these hosts are
    /// neither stale nor re-validatable.
    pub interference_blocked: u64,
    /// BestScore plans (one per admitted host it walks, each an
    /// availability realisation on the host's published record; the
    /// winner commits as planned). Class-ranked commitment plans only
    /// the members of the best-scoring machine class (lower-ranked
    /// classes are realised lazily, only when the leader cannot host),
    /// so on multi-class fleets this stays well below the admitted-host
    /// count.
    pub offers: u64,
    /// Successful releases (departures whose ticket resolved).
    pub releases: u64,
    /// Rejected releases: tickets the registry does not hold (double
    /// release, or a handle that was never committed). The occupancy
    /// map and published summaries are untouched by these — an earlier
    /// revision silently ignored them in release builds, leaving
    /// callers' accounting and the engine's quietly diverged.
    pub release_failures: u64,
    /// Wait-free snapshot publication activity.
    pub snapshot: SnapshotCounters,
    /// Host mutex acquisitions, engine-wide: every commit reserve,
    /// release and rebalance-move bookkeeping — never a read path. The
    /// zero-lock claim for scoring/planning is asserted against this
    /// counter in tests.
    pub host_lock_acquisitions: u64,
    /// Poisoned mutex acquisitions recovered (host records and the
    /// location map — each mutex counts its own): a panic unwound
    /// through a critical section and the next acquirer carried on with
    /// the guard. A host record is all-or-nothing by construction, so
    /// recovery is sound — but each recovery means some commit died
    /// mid-flight and is worth investigating.
    pub lock_poison_recoveries: u64,
    /// [`PlacementEngine::rebalance`] invocations, including no-op
    /// passes on engines without a degradation budget. A daemon's
    /// pause/resume control is observable through this counter: while
    /// the loop is paused the value stops advancing.
    pub rebalance_passes: u64,
}

impl EngineStats {
    /// Total compute-side work performed (cold misses across caches).
    pub fn total_computes(&self) -> u64 {
        self.catalogs.computes + self.training_sets.computes + self.models.computes
    }

    /// Total LRU evictions across caches.
    pub fn total_evictions(&self) -> u64 {
        self.catalogs.evictions + self.training_sets.evictions + self.models.evictions
    }
}

/// The serving path's monotone counters.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) evaluations: Counter,
    pub(crate) summary_skips: Counter,
    pub(crate) summary_admits: Counter,
    pub(crate) summary_stale: Counter,
    pub(crate) sketch_skips: Counter,
    pub(crate) sketch_admits: Counter,
    pub(crate) sketch_stale: Counter,
    pub(crate) interference_blocked: Counter,
    pub(crate) offers: Counter,
    pub(crate) releases: Counter,
    pub(crate) release_failures: Counter,
    pub(crate) snapshot_published: Counter,
    pub(crate) snapshot_loads: Counter,
    pub(crate) snapshot_stale_retries: Counter,
    pub(crate) host_lock_acquisitions: Counter,
    /// Also the clock the rebalancer's move-cooldown hysteresis counts
    /// in.
    pub(crate) rebalance_passes: Counter,
}

impl PlacementEngine {
    /// Counter snapshot across all caches and the serving path.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        EngineStats {
            catalogs: self.catalogs.counters(),
            training_sets: self.training_sets.counters(),
            models: self.models.counters(),
            evaluations: c.evaluations.get(),
            summary: SummaryCounters {
                skips: c.summary_skips.get(),
                admits: c.summary_admits.get(),
                stale: c.summary_stale.get(),
            },
            sketch: SketchCounters {
                skips: c.sketch_skips.get(),
                admits: c.sketch_admits.get(),
                stale: c.sketch_stale.get(),
            },
            interference: self
                .topologies
                .iter()
                .fold(InterferenceCounters::default(), |acc, (_, oracle)| {
                    acc.merged(oracle.interference_counters())
                }),
            interference_blocked: c.interference_blocked.get(),
            offers: c.offers.get(),
            releases: c.releases.get(),
            release_failures: c.release_failures.get(),
            snapshot: SnapshotCounters {
                published: c.snapshot_published.get(),
                reads: c.snapshot_loads.get(),
                stale_retries: c.snapshot_stale_retries.get(),
            },
            host_lock_acquisitions: c.host_lock_acquisitions.get(),
            lock_poison_recoveries: self.hosts.iter().map(Host::poison_recoveries).sum::<u64>()
                + self.locations.recoveries(),
            rebalance_passes: c.rebalance_passes.get(),
        }
    }
}
