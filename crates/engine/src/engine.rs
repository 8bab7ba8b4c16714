//! The [`PlacementEngine`]: a long-lived, thread-safe placement service.

use std::collections::HashMap;
use std::sync::Arc;

use vc_core::availability::{AvailabilityIndex, ShapeRequirement};
use vc_core::concern::ConcernSet;
use vc_core::important::{
    important_placements_from_packings, surviving_packings, ImportantPlacement,
};
use vc_core::interference::ResidentWorkload;
use vc_core::model::{
    select_probe_pair, PerfOracle, PerfPairModel, SharedOracle, TrainingSet, TrainingWorkload,
};
use vc_core::packing::Packing;
use vc_core::placement::{PlacementError, PlacementSpec};
use vc_ml::forest::ForestConfig;
use vc_sim::SimOracle;
use vc_sync::lock::{LeafMutex, LockScope};
use vc_sync::{Counter, Domain, KeyedCache};
use vc_topology::{AvailabilitySketch, Machine, NodeId, OccupancyMap, ThreadId};

use crate::host::{Host, HostSnapshot};
use crate::stats::Counters;
#[cfg(doc)]
use crate::stats::EngineStats;

/// Engine-wide configuration: the training corpus and forest settings
/// shared by every machine in the fleet. These parameters are part of
/// every cache identity, so changing them requires a new engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Measurement repetitions per (workload, placement) when building
    /// training sets.
    pub n_seeds: u64,
    /// Synthetic workloads added to the paper suite per oracle.
    pub extra_synthetic: usize,
    /// Random-forest hyper-parameters for trained models.
    pub forest: ForestConfig,
    /// Seed for probe selection and forest training.
    pub train_seed: u64,
    /// Score placements against the host's *current residents* instead
    /// of an idle host: commit and BestScore ranking multiply each
    /// class's predicted performance by the occupancy-conditional
    /// co-location penalty (measured by the simulator, memoized per
    /// solve input — see [`SimOracle::penalty`]).
    ///
    /// `false` (the default) reproduces the neighbour-blind scoring
    /// exactly — decisions are bit-for-bit identical to engines built
    /// before this knob existed (equivalence-tested) and the
    /// interference machinery is never consulted
    /// ([`EngineStats::interference`] stays zero).
    pub interference: bool,
    /// Per-resident predicted-degradation budget for
    /// [`PlacementEngine::rebalance`], in `[0, 1)`: a resident whose
    /// predicted co-location degradation (`1 − penalty`, measured
    /// against the *real* resident workloads) exceeds the budget is a
    /// migration candidate. `None` (the default) disables rebalancing
    /// entirely — `rebalance` is a no-op and admission-time behaviour
    /// is bit-for-bit that of a budget-less engine
    /// (equivalence-tested).
    pub degradation_budget: Option<f64>,
    /// Hosts per availability-sketch shard (class-local; the last
    /// shard of a class may be smaller). Every shard maintains a
    /// lock-free [`AvailabilitySketch`], published by the same critical
    /// section that publishes the member's capacity summary; admission,
    /// BestScore's class walks and [`PlacementEngine::can_fit`] skip —
    /// in O(1), without touching a single member summary — every shard
    /// whose sketch proves no host can pass the prefilter for any goal
    /// shape ([`EngineStats::sketch`] counts the activity). Values
    /// `< 1` are treated as `1`. The default of 64 keeps the descent
    /// two orders of magnitude narrower than the fleet while leaving
    /// each shard coarse enough that one busy host cannot flip its
    /// sketch.
    pub sketch_shard: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_seeds: 3,
            extra_synthetic: 12,
            forest: ForestConfig {
                n_trees: 60,
                ..ForestConfig::default()
            },
            train_seed: 7,
            interference: false,
            degradation_budget: None,
            sketch_shard: 64,
        }
    }
}

/// Index of a machine in the engine's fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub usize);

/// One *machine class* of a fleet: the hosts sharing a topology
/// fingerprint (and reporting baseline), which therefore share one
/// catalog, one training sweep and one trained model.
#[derive(Debug, Clone)]
pub struct FleetClass {
    fingerprint: u64,
    /// Engine-local topology id: hosts share it only when their
    /// machines are structurally equal ([`Machine::same_topology`]),
    /// not merely fingerprint-equal — a 64-bit hash can collide, and a
    /// collision must not alias two topologies into one class.
    topo: usize,
    baseline: usize,
    members: Vec<MachineId>,
}

impl FleetClass {
    /// The shared [`Machine::fingerprint`] of the member hosts.
    ///
    /// Classes are keyed by *structural* topology equality, so in the
    /// (astronomically unlikely, but handled) event of a fingerprint
    /// collision two distinct classes may report the same value.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The reporting-baseline placement index shared by the members.
    pub fn baseline(&self) -> usize {
        self.baseline
    }

    /// Member hosts, fleet order.
    pub fn members(&self) -> &[MachineId] {
        &self.members
    }
}

/// The fleet grouped into machine classes, keyed by
/// `(fingerprint, baseline)`.
///
/// Fleets ≫ 10² hosts are typically built from a handful of hardware
/// models. The index lets `place_batch` score each request once per
/// *class* instead of once per *host*: phase 1 work is
/// `O(requests × classes)`, and per-host work is reduced to a lock-free
/// capacity-summary read plus (for hosts that pass it) one
/// occupancy-locked commit attempt.
///
/// # Examples
///
/// ```
/// use vc_engine::{EngineConfig, PlacementEngine};
/// use vc_topology::machines;
///
/// let mut engine = PlacementEngine::new(EngineConfig {
///     extra_synthetic: 0,
///     ..EngineConfig::default()
/// });
/// for _ in 0..3 {
///     engine.add_machine(machines::amd_opteron_6272());
/// }
/// engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
///
/// let index = engine.fleet_index();
/// assert_eq!(index.num_classes(), 2); // 4 hosts, 2 hardware models
/// assert_eq!(index.classes()[0].members().len(), 3);
/// assert_eq!(index.classes()[1].baseline(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FleetIndex {
    classes: Vec<FleetClass>,
}

impl FleetIndex {
    /// Number of machine classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The classes, first-seen order.
    pub fn classes(&self) -> &[FleetClass] {
        &self.classes
    }

    /// Registers a host, returning its class index (creating the class
    /// on first sight of the `(topology, baseline)` pair). `topo` is an
    /// engine-assigned id under which structural equality has already
    /// been verified, so joining an existing class can never alias two
    /// different topologies — even when their fingerprints collide.
    fn insert(&mut self, fingerprint: u64, topo: usize, baseline: usize, id: MachineId) -> usize {
        match self
            .classes
            .iter()
            .position(|c| c.topo == topo && c.baseline == baseline)
        {
            Some(i) => {
                self.classes[i].members.push(id);
                i
            }
            None => {
                self.classes.push(FleetClass {
                    fingerprint,
                    topo,
                    baseline,
                    members: vec![id],
                });
                self.classes.len() - 1
            }
        }
    }
}

/// Everything Algorithms 1–3 derive for one `(machine, vcpus)` pair:
/// the concern set, the important placements, the surviving packings and
/// the precomputed availability equivalence classes.
#[derive(Debug, Clone)]
pub struct PlacementCatalog {
    /// The machine's scheduling concerns.
    pub concerns: ConcernSet,
    /// Important placements, id order.
    pub placements: Vec<ImportantPlacement>,
    /// Packings surviving duplicate removal and the Pareto filter.
    pub packings: Vec<Packing>,
    /// Per-class equivalently-scored node sets, precomputed once so
    /// admission never scores node sets under a host lock.
    pub availability: AvailabilityIndex,
}

/// A trained perf-pair model plus the probe pair it selected.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Index of the anchor (baseline) placement.
    pub baseline: usize,
    /// Index of the second probe placement.
    pub probe: usize,
    /// Cross-validated error (%) of the selected probe pair.
    pub cv_error_pct: f64,
    /// The fitted model.
    pub model: PerfPairModel,
}

/// One container placement request.
///
/// # Examples
///
/// ```
/// use vc_engine::PlacementRequest;
///
/// // Best effort: place 16 vCPUs of WiredTiger wherever they fit.
/// let best_effort = PlacementRequest::new("WTbtree", 16);
/// assert_eq!(best_effort.goal_frac, 0.0);
///
/// // Demand at least 90% of baseline performance, with a fixed probe
/// // seed so repeated placements observe the same measurements.
/// let strict = PlacementRequest::new("WTbtree", 16)
///     .with_goal(0.9)
///     .with_probe_seed(7);
/// assert_eq!(strict.goal_frac, 0.9);
/// assert_eq!(strict.probe_seed, 7);
/// ```
#[derive(Debug, Clone)]
pub struct PlacementRequest {
    /// Workload name (must resolve against the target oracle's suite).
    pub workload: String,
    /// vCPUs requested.
    pub vcpus: usize,
    /// Performance goal as a fraction of the measured baseline
    /// performance (the paper's 0.9 / 1.0 / 1.1 goals); `0.0` means best
    /// effort.
    pub goal_frac: f64,
    /// Seed for the two probe measurements.
    pub probe_seed: u64,
}

impl PlacementRequest {
    /// A best-effort request (no performance goal).
    pub fn new(workload: impl Into<String>, vcpus: usize) -> Self {
        PlacementRequest {
            workload: workload.into(),
            vcpus,
            goal_frac: 0.0,
            probe_seed: 0,
        }
    }

    /// Sets the performance goal.
    pub fn with_goal(mut self, goal_frac: f64) -> Self {
        self.goal_frac = goal_frac;
        self
    }

    /// Sets the probe seed.
    pub fn with_probe_seed(mut self, seed: u64) -> Self {
        self.probe_seed = seed;
        self
    }
}

/// How [`PlacementEngine::place_batch`] chooses among feasible machines.
///
/// Both strategies only consider machines whose class is predicted to
/// meet the request's goal; they differ in which of those machines is
/// tried first. A machine whose occupancy can no longer host any
/// goal-clearing placement class is skipped and the request re-planned
/// on the rest.
///
/// # Examples
///
/// ```
/// use vc_engine::{BatchStrategy, EngineConfig, PlacementEngine, PlacementRequest};
/// use vc_topology::machines;
///
/// let mut engine = PlacementEngine::new(EngineConfig {
///     extra_synthetic: 0, // paper suite only, for a fast doc test
///     ..EngineConfig::default()
/// });
/// engine.add_machine(machines::amd_opteron_6272());
/// engine.add_machine(machines::amd_opteron_6272());
///
/// // First-fit walks the fleet in id order: the first container lands
/// // on machine 0.
/// let req = PlacementRequest::new("WTbtree", 16);
/// let placed = engine.place(&req).placed().expect("fleet has room").clone();
/// assert_eq!(placed.machine.0, 0);
///
/// // Best-score would instead pick the machine with the highest
/// // predicted performance — identical here, since the machines are
/// // identical and empty.
/// let best = engine.place_batch(std::slice::from_ref(&req), BatchStrategy::BestScore);
/// assert!(best[0].placed().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStrategy {
    /// First machine (in fleet order) with enough free capacity.
    FirstFit,
    /// The best-scoring home for the request, found class-first:
    /// machine classes are ranked by their best goal-clearing
    /// prediction and realised lazily, branch-and-bound style —
    /// each member is planned once on its published record
    /// (interference-adjusted when enabled) and the best plan is
    /// committed; a class whose ceiling cannot beat the best plan
    /// already found is never planned at all (a plan never exceeds its
    /// class's ceiling, so nothing better is lost). A class walk stops
    /// at its first idle member (other idle members would plan the
    /// identical placement and lose the lowest-id tie-break), which
    /// keeps the plan count near constant even on thousand-host fleets
    /// ([`EngineStats::offers`]).
    BestScore,
}

/// Identity of one live container across its whole stay in the engine,
/// including any rebalancing moves: assigned at commit, retired at
/// release. [`PlacementEngine::release`] resolves the container through
/// its ticket, so a handle taken at admission stays releasable even
/// after [`PlacementEngine::rebalance`] moved the container to another
/// host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlacementTicket(pub u64);

impl std::fmt::Display for PlacementTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket #{}", self.0)
    }
}

/// A committed placement: a placement class retargeted onto concrete,
/// previously-free hardware threads that are now reserved.
///
/// Hand the value back to [`PlacementEngine::release`] when the
/// container departs; the engine frees exactly what the container holds
/// *now* (its [`Placed::ticket`] tracks it through rebalancing moves).
#[derive(Debug, Clone)]
pub struct Placed {
    /// The container's engine-wide identity (stable across rebalancing
    /// moves; what [`PlacementEngine::release`] resolves).
    pub ticket: PlacementTicket,
    /// Machine the container was placed on.
    pub machine: MachineId,
    /// 1-based important-placement id used.
    pub placement_id: usize,
    /// Concrete placement spec; `spec.nodes` is the node set actually
    /// reserved (an equivalently-scored set, not necessarily the
    /// catalog representative).
    pub spec: PlacementSpec,
    /// The hardware threads this placement reserved. Disjoint from
    /// every other committed placement on the machine.
    pub threads: Vec<ThreadId>,
    /// Predicted performance in that placement. With interference
    /// scoring enabled ([`EngineConfig::interference`]) this is the
    /// occupancy-conditional prediction — the idle-host model output
    /// multiplied by [`Placed::interference_penalty`].
    pub predicted_perf: f64,
    /// The co-location penalty applied to the prediction, in `(0, 1]`:
    /// `1.0` on an idle host or with interference scoring off.
    /// `1.0 - interference_penalty` is the predicted degradation the
    /// resident neighbours cost this container.
    pub interference_penalty: f64,
    /// Absolute performance the goal translated to (0 if best-effort).
    pub goal_perf: f64,
    /// Whether the prediction clears the goal.
    pub goal_met: bool,
}

/// Outcome of one request in a batch.
#[derive(Debug, Clone)]
pub enum PlacementDecision {
    /// The request was placed and its capacity reserved.
    Placed(Placed),
    /// No machine could host the request.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

impl PlacementDecision {
    /// The placement, if any.
    pub fn placed(&self) -> Option<&Placed> {
        match self {
            PlacementDecision::Placed(p) => Some(p),
            PlacementDecision::Rejected { .. } => None,
        }
    }
}

/// Answer to a [`PlacementEngine::can_fit`] capacity probe: how much of
/// the fleet could host a request *right now*, without reserving
/// anything. Advisory by construction — a concurrent commit can consume
/// the capacity between the probe and a later placement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FitProbe {
    /// Hosts whose lock-free capacity summary still admits at least one
    /// goal-clearing placement shape.
    pub hosts: usize,
    /// Machine classes predicted to clear the request's goal (0 when the
    /// workload is unknown or no class can meet the goal).
    pub goal_clearing_classes: usize,
    /// Best idle-host predicted performance over all classes (0.0 when
    /// no class clears the goal).
    pub best_predicted: f64,
    /// Absolute performance the goal translated to on the best class
    /// (0.0 when best-effort).
    pub goal_perf: f64,
    /// Hosts the probe never read a summary of: their whole shard's
    /// availability sketch proved no member could pass the prefilter.
    /// Skipping is conservative, so `hosts` equals what a full summary
    /// scan would count (regression-tested); this field reports how
    /// much of the fleet the answer was derived *without touching*.
    pub sketch_skipped: usize,
}

impl FitProbe {
    /// Whether at least one host can take the request right now.
    pub fn fits(&self) -> bool {
        self.hosts > 0
    }
}

/// One live container as the engine's resident registry tracks it: the
/// placement it currently holds plus the request that admitted it (kept
/// so [`PlacementEngine::rebalance`] can re-score and re-place it).
///
/// A host's residents live in its published [`HostSnapshot`] — the one
/// record of the host, occupancy and registry together — so registry
/// and occupancy always agree ([`PlacementEngine::residents`] copies
/// them out).
#[derive(Debug, Clone)]
pub struct Resident {
    /// The container's engine-wide identity.
    pub ticket: PlacementTicket,
    /// The admission request (workload, vcpus, goal, probe seed) —
    /// what rebalancing re-evaluates.
    pub request: PlacementRequest,
    /// 1-based important-placement id currently held.
    pub placement_id: usize,
    /// Concrete placement spec currently held.
    pub spec: PlacementSpec,
    /// The hardware threads currently reserved for this container.
    pub threads: Vec<ThreadId>,
    /// Prediction at the last commit or move (interference-adjusted
    /// when scoring was).
    pub predicted_perf: f64,
    /// Penalty applied at the last commit or move.
    pub interference_penalty: f64,
    /// Absolute performance the goal translated to (0 if best-effort).
    pub goal_perf: f64,
    /// The [`PlacementEngine::rebalance`] pass that last moved the
    /// container (`None` until one does) — what
    /// [`RebalancePolicy::cooldown_passes`](crate::RebalancePolicy::cooldown_passes)
    /// counts from.
    pub moved_in_pass: Option<u64>,
}

impl Resident {
    /// The resident as the interference path consumes it.
    pub(crate) fn as_workload(&self) -> ResidentWorkload {
        ResidentWorkload {
            workload: self.request.workload.clone(),
            threads: self.threads.clone(),
        }
    }
}

/// One request evaluated against one machine *class*: per-placement
/// performance predictions, no capacity touched. Committing picks a
/// member host and the best placement class its occupancy can still
/// host.
pub(crate) struct Candidate {
    /// Index into the fleet index's classes.
    pub(crate) class: usize,
    /// The request being evaluated (its workload keys the
    /// interference-penalty cache; the whole request is kept in the
    /// resident registry at commit so rebalancing can re-evaluate it).
    pub(crate) request: PlacementRequest,
    pub(crate) catalog: Arc<PlacementCatalog>,
    /// Predicted absolute performance per catalog class, indexed by
    /// `id - 1`. Idle-host predictions: interference, which depends on
    /// the committing host's live occupancy, is applied at commit time.
    pub(crate) predicted: Vec<f64>,
    pub(crate) goal_perf: f64,
    /// Best prediction over all classes.
    pub(crate) best_perf: f64,
    /// Node- and L2-granular shapes of the goal-clearing catalog
    /// classes, deduped — what the capacity-summary prefilter checks.
    pub(crate) goal_shapes: Vec<ShapeRequirement>,
}

impl Candidate {
    /// Whether any placement class is predicted to clear the goal.
    pub(crate) fn goal_met(&self) -> bool {
        self.best_perf >= self.goal_perf
    }
}

/// Cache key for training sets and models. `forest`/`seed`/corpus knobs
/// are engine-wide (see [`EngineConfig`]), so the key is the engine's
/// topology id plus the request-visible parameters. Machines with
/// identical topologies share entries: the fleet amortises training the
/// way MAO amortises models across a warehouse. The id — not the raw
/// fingerprint — is the key so a fingerprint collision cannot serve one
/// topology's artifacts to another (structural equality is verified
/// when ids are assigned).
type TrainKey = (usize, usize, usize, Option<String>);

/// A long-lived, thread-safe placement service over a fleet of machines.
///
/// The engine groups the fleet into machine classes (see [`FleetIndex`])
/// and memoizes the three expensive stages of the paper's pipeline
/// behind LRU-bounded compute-once caches:
///
/// 1. **catalogs** — Algorithms 1–3 plus the availability equivalence
///    classes, per `(machine fingerprint, vcpus)`;
/// 2. **training sets** — the oracle measurement sweep per
///    `(fingerprint, vcpus, baseline, excluded family)`;
/// 3. **models** — probe-pair selection plus forest training, same key.
///
/// A warm query therefore performs *no* enumeration and *no* training —
/// only the two probe measurements that the paper's §7 policy needs at
/// decision time, *once per machine class* rather than once per host.
/// All methods take `&self`; the engine can be shared behind an [`Arc`]
/// and queried from many threads.
///
/// Capacity is accounted **per NUMA node and L2 domain**, not per
/// machine: every commit reserves the concrete hardware threads of its
/// placement (see [`Placed::threads`]), so co-located containers never
/// overlap, and [`Self::release`] returns exactly those threads when a
/// container departs. Each host additionally publishes a lock-free
/// [`CapacitySummary`](vc_topology::CapacitySummary); hosts whose
/// summary rules out every goal-clearing placement class are skipped
/// without ever taking their occupancy lock. Rejections for lack of
/// capacity name the exhausted node.
///
/// # Examples
///
/// Inspecting a machine's catalog and occupancy without placing
/// anything (no model training, so this runs fast):
///
/// ```
/// use vc_engine::{EngineConfig, MachineId, PlacementEngine};
/// use vc_topology::machines;
///
/// let engine = PlacementEngine::single(
///     machines::amd_opteron_6272(),
///     EngineConfig::default(),
/// );
/// let catalog = engine.catalog(MachineId(0), 16).unwrap();
/// assert_eq!(catalog.placements.len(), 13); // the paper's count
///
/// let (used, total) = engine.utilisation(MachineId(0));
/// assert_eq!((used, total), (0, 64));
/// for (node, used, capacity) in engine.node_utilisation(MachineId(0)) {
///     assert_eq!(used, 0);
///     assert_eq!(capacity, 8);
///     let _ = node;
/// }
/// ```
///
/// See the [crate-level quickstart](crate) for the full serving loop
/// (placements, departures, warm-cache behaviour).
pub struct PlacementEngine {
    cfg: EngineConfig,
    pub(crate) hosts: Vec<Host>,
    pub(crate) fleet: FleetIndex,
    /// Registered distinct machine structures: `(fingerprint, oracle)`,
    /// index = topology id. Fingerprint narrows the scan; the oracle's
    /// machine is the structural-equality representative that makes ids
    /// collision-free. The oracle is the one `Arc` every same-topology
    /// host shares — machine, synthetic corpus (a pure function of
    /// topology and engine config) and co-location memo.
    pub(crate) topologies: Vec<(u64, Arc<SimOracle>)>,
    /// Per class, per shard (class members in [`EngineConfig::sketch_shard`]
    /// groups, slot order): the lock-free availability sketch the
    /// descent consults before any member summary. Grown only under
    /// `&mut self` (fleet mutation precedes serving); the sketches
    /// themselves are updated lock-free by every publication.
    pub(crate) class_sketches: Vec<Vec<AvailabilitySketch>>,
    pub(crate) catalogs: KeyedCache<(usize, usize), Result<Arc<PlacementCatalog>, PlacementError>>,
    pub(crate) training_sets: KeyedCache<TrainKey, Result<Arc<TrainingSet>, PlacementError>>,
    pub(crate) models: KeyedCache<TrainKey, Result<Arc<ModelArtifact>, PlacementError>>,
    pub(crate) counters: Counters,
    /// QSBR domain the host snapshot slots publish through: one grace
    /// period protects every host's slot.
    pub(crate) domain: Domain,
    /// Ticket source: every commit takes the next value, so tickets are
    /// unique across the engine's lifetime (and across hosts).
    pub(crate) next_ticket: Counter,
    /// Ticket → current host index. Commit inserts and release removes
    /// the entry; rebalance moves update it — all while holding the
    /// affected host lock(s), so membership is authoritative: a ticket
    /// absent here is definitely not live. The *location* a reader
    /// copies out can go stale the instant the map unlocks, which is
    /// why `release_ticket` re-validates against the host registry and
    /// retries. A leaf: entered on the scope or under a host guard,
    /// never around another lock.
    pub(crate) locations: LeafMutex<HashMap<u64, usize>>,
}

impl PlacementEngine {
    /// Upper bound on resident entries per artifact cache (catalogs,
    /// training sets, models). Beyond it the least-recently-used entry
    /// is evicted, visibly in [`EngineStats`]. Machine-class keying
    /// means one entry serves every same-fingerprint host, so a small
    /// bound suffices even for large fleets.
    pub const CACHE_CAPACITY: usize = 64;

    /// An engine with an empty fleet.
    pub fn new(cfg: EngineConfig) -> Self {
        let cap = Self::CACHE_CAPACITY;
        PlacementEngine {
            cfg,
            hosts: Vec::new(),
            fleet: FleetIndex::default(),
            topologies: Vec::new(),
            class_sketches: Vec::new(),
            catalogs: KeyedCache::bounded(cap),
            training_sets: KeyedCache::bounded(cap),
            models: KeyedCache::bounded(cap),
            counters: Counters::default(),
            domain: Domain::new(),
            next_ticket: Counter::new(),
            locations: LeafMutex::default(),
        }
    }

    /// An engine serving a single machine (baseline placement 0).
    pub fn single(machine: Machine, cfg: EngineConfig) -> Self {
        let mut engine = Self::new(cfg);
        engine.add_machine(machine);
        engine
    }

    /// Adds a machine with baseline placement index 0.
    pub fn add_machine(&mut self, machine: Machine) -> MachineId {
        self.add_machine_with_baseline(machine, 0)
    }

    /// Adds a machine whose reporting baseline is the important placement
    /// at `baseline` (the paper uses #1 on AMD, #2 on Intel). Fleet
    /// mutation requires `&mut self`, i.e. happens before serving starts.
    ///
    /// Hosts sharing a topology (structural equality, fingerprint-
    /// narrowed) and baseline join one machine class (see
    /// [`FleetIndex`]) and share a simulator oracle — adding the
    /// thousandth copy of a machine model costs an occupancy map, not a
    /// synthetic-corpus generation.
    pub fn add_machine_with_baseline(&mut self, machine: Machine, baseline: usize) -> MachineId {
        let fingerprint = machine.fingerprint();
        self.add_machine_keyed(machine, baseline, fingerprint)
    }

    /// [`Self::add_machine_with_baseline`] with the fingerprint supplied
    /// by the caller — the real path always passes
    /// [`Machine::fingerprint`]; tests pass a doctored value to force
    /// collisions and prove the structural split.
    fn add_machine_keyed(
        &mut self,
        machine: Machine,
        baseline: usize,
        fingerprint: u64,
    ) -> MachineId {
        // Every structurally-equal host shares the registered oracle:
        // a known topology drops the caller's copy, so a 100k-host
        // fleet holds one machine description per hardware model, not
        // per host.
        let topo = self.register_topology(fingerprint, machine);
        let oracle = Arc::clone(&self.topologies[topo].1);
        let id = MachineId(self.hosts.len());
        let class = self.fleet.insert(fingerprint, topo, baseline, id);
        let slot = self.fleet.classes[class].members.len() - 1;
        // Grow the class's shard-sketch storage and attach the new
        // (idle) host to its shard. Slots are contiguous per class, so
        // at most one new shard appears per registration.
        if self.class_sketches.len() <= class {
            self.class_sketches.push(Vec::new());
        }
        let shard = slot / self.sketch_shard_size();
        if self.class_sketches[class].len() <= shard {
            self.class_sketches[class].push(AvailabilitySketch::new(oracle.machine()));
        }
        let sketch = &self.class_sketches[class][shard];
        self.hosts.push(Host::new(oracle, class, shard, sketch));
        self.counters.snapshot_published.incr();
        id
    }

    /// The engine-local topology id for `machine`: joins an existing
    /// entry only when the fingerprint *and* the structure match
    /// ([`Machine::same_topology`]), so a hash collision splits into two
    /// ids instead of silently aliasing two topologies onto one set of
    /// catalogs, oracles and models. A new topology gets its oracle.
    fn register_topology(&mut self, fingerprint: u64, machine: Machine) -> usize {
        /// Seed of the synthetic corpus generator.
        const CORPUS_SEED: u64 = 42;
        match self
            .topologies
            .iter()
            .position(|(fp, rep)| *fp == fingerprint && rep.machine().same_topology(&machine))
        {
            Some(i) => i,
            None => {
                let oracle =
                    SimOracle::with_synthetic(machine, self.cfg.extra_synthetic, CORPUS_SEED);
                self.topologies.push((fingerprint, Arc::new(oracle)));
                self.topologies.len() - 1
            }
        }
    }

    /// The per-shard availability sketches of one machine class, slot
    /// order (members `[k·shard, (k+1)·shard)` feed sketch `k`). What
    /// the equivalence suite recomputes ground truth against; sized by
    /// [`Self::sketch_shard_size`].
    pub fn class_sketches(&self, class: usize) -> &[AvailabilitySketch] {
        &self.class_sketches[class]
    }

    /// The configured shard width (hosts per sketch), clamped ≥ 1.
    pub fn sketch_shard_size(&self) -> usize {
        self.cfg.sketch_shard.max(1)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Number of machines in the fleet.
    pub fn num_machines(&self) -> usize {
        self.hosts.len()
    }

    /// All machine ids, in fleet order.
    pub fn machine_ids(&self) -> Vec<MachineId> {
        (0..self.hosts.len()).map(MachineId).collect()
    }

    /// The fleet grouped into machine classes.
    pub fn fleet_index(&self) -> &FleetIndex {
        &self.fleet
    }

    /// The machine behind `id`.
    pub fn machine(&self, id: MachineId) -> &Machine {
        self.hosts[id.0].machine()
    }

    /// The machine's reporting-baseline placement index.
    pub fn baseline(&self, id: MachineId) -> usize {
        self.class_of(id).baseline
    }

    /// The machine's class: the `(topology, baseline)` its artifacts
    /// are keyed and shared by.
    fn class_of(&self, id: MachineId) -> &FleetClass {
        &self.fleet.classes[self.hosts[id.0].class]
    }

    /// The machine's oracle as a shareable trait object. For external
    /// callers: the engine itself reaches oracles through its scope.
    pub fn oracle(&self, id: MachineId) -> SharedOracle {
        Arc::clone(self.hosts[id.0].sim(&LockScope::new())) as SharedOracle
    }

    /// The machine's concrete simulator oracle (for experiment harnesses
    /// that need the workload list).
    pub fn sim_oracle(&self, id: MachineId) -> Arc<SimOracle> {
        Arc::clone(self.hosts[id.0].sim(&LockScope::new()))
    }

    /// (used, total) hardware threads on a machine. Wait-free.
    pub fn utilisation(&self, id: MachineId) -> (usize, usize) {
        let view = self.host_snapshot(id);
        let occ = view.occupancy();
        (occ.used_threads(), occ.total_threads())
    }

    /// Per-node `(node, used, capacity)` hardware-thread usage on a
    /// machine, node-id order. Wait-free.
    pub fn node_utilisation(&self, id: MachineId) -> Vec<(NodeId, usize, usize)> {
        self.host_snapshot(id).occupancy().node_usage()
    }

    /// A point-in-time copy of a machine's occupancy map. Wait-free; at
    /// most one in-flight critical section stale.
    pub fn occupancy(&self, id: MachineId) -> OccupancyMap {
        self.host_snapshot(id).occupancy().clone()
    }

    /// A copy of a machine's resident registry, ticket order, from its
    /// published snapshot. The registry and occupancy of one snapshot
    /// always agree — the union of the residents' threads is exactly
    /// the occupancy's used set (equivalence-tested through stochastic
    /// churn). Wait-free.
    pub fn residents(&self, id: MachineId) -> Vec<Resident> {
        self.host_snapshot(id).residents().to_vec()
    }

    /// The full published snapshot of a machine — occupancy and
    /// residents as one consistent immutable view. Wait-free; callers
    /// may hold it as long as they like.
    pub fn host_snapshot(&self, id: MachineId) -> Arc<HostSnapshot> {
        self.view(&self.hosts[id.0])
    }

    /// Total live containers across the fleet. Wait-free.
    pub fn num_residents(&self) -> usize {
        self.hosts.iter().map(|h| self.view(h).residents().len()).sum()
    }

    /// The placement catalog for `vcpus` on a machine (cached per
    /// machine fingerprint).
    pub fn catalog(
        &self,
        id: MachineId,
        vcpus: usize,
    ) -> Result<Arc<PlacementCatalog>, PlacementError> {
        self.catalog_in(&LockScope::new(), id, vcpus)
    }

    /// [`Self::catalog`] inside a caller's scope: a cold miss
    /// enumerates, so it never runs under a host lock.
    fn catalog_in(
        &self,
        _scope: &LockScope,
        id: MachineId,
        vcpus: usize,
    ) -> Result<Arc<PlacementCatalog>, PlacementError> {
        let host = &self.hosts[id.0];
        self.catalogs
            .get_or_compute(&(self.class_of(id).topo, vcpus), || {
                let concerns = ConcernSet::for_machine(host.machine());
                // Generate (and Pareto-filter) the packings once, then
                // expand them into important placements — a cold miss
                // pays Algorithm 2 a single time.
                let packings = surviving_packings(host.machine(), &concerns, vcpus)?;
                let placements = important_placements_from_packings(
                    host.machine(),
                    &concerns,
                    vcpus,
                    &packings,
                )?;
                // Precompute the availability equivalence classes here,
                // off the serving path: admission then never scores a
                // node set under a host lock.
                let availability =
                    AvailabilityIndex::build(host.machine(), &concerns, &placements);
                Ok(Arc::new(PlacementCatalog {
                    concerns,
                    placements,
                    packings,
                    availability,
                }))
            })
    }

    /// The measured training set for `(machine, vcpus, baseline)`,
    /// optionally excluding one workload family (the leave-family-out
    /// setting the paper's experiments use).
    pub fn training_set(
        &self,
        id: MachineId,
        vcpus: usize,
        baseline: usize,
        exclude_family: Option<&str>,
    ) -> Result<Arc<TrainingSet>, PlacementError> {
        self.training_set_in(&LockScope::new(), id, vcpus, baseline, exclude_family)
    }

    fn training_set_in(
        &self,
        scope: &LockScope,
        id: MachineId,
        vcpus: usize,
        baseline: usize,
        exclude_family: Option<&str>,
    ) -> Result<Arc<TrainingSet>, PlacementError> {
        let oracle = self.hosts[id.0].sim(scope);
        let key = (
            self.class_of(id).topo,
            vcpus,
            baseline,
            exclude_family.map(str::to_string),
        );
        self.training_sets.get_or_compute(&key, || {
            let catalog = self.catalog_in(scope, id, vcpus)?;
            let workloads: Vec<TrainingWorkload> = oracle
                .workloads()
                .iter()
                .filter(|w| exclude_family != Some(w.family.as_str()))
                .map(|w| TrainingWorkload {
                    name: w.name.clone(),
                    family: w.family.clone(),
                })
                .collect();
            Ok(Arc::new(TrainingSet::build(
                oracle.as_ref(),
                &workloads,
                &catalog.placements,
                baseline,
                self.cfg.n_seeds,
            )))
        })
    }

    /// The trained perf-pair model for `(machine, vcpus, baseline)`,
    /// optionally excluding one workload family from training. Probe
    /// selection and forest training run once per key; subsequent calls
    /// are O(1) lookups.
    pub fn model(
        &self,
        id: MachineId,
        vcpus: usize,
        baseline: usize,
        exclude_family: Option<&str>,
    ) -> Result<Arc<ModelArtifact>, PlacementError> {
        self.model_in(&LockScope::new(), id, vcpus, baseline, exclude_family)
    }

    fn model_in(
        &self,
        scope: &LockScope,
        id: MachineId,
        vcpus: usize,
        baseline: usize,
        exclude_family: Option<&str>,
    ) -> Result<Arc<ModelArtifact>, PlacementError> {
        let key = (
            self.class_of(id).topo,
            vcpus,
            baseline,
            exclude_family.map(str::to_string),
        );
        self.models.get_or_compute(&key, || {
            let ts = self.training_set_in(scope, id, vcpus, baseline, exclude_family)?;
            if ts.n_placements() < 2 {
                return Err(PlacementError::NoProbePair {
                    placements: ts.n_placements(),
                });
            }
            let (probe, cv_error_pct) = select_probe_pair(&ts, &self.cfg.forest, self.cfg.train_seed);
            let rows: Vec<usize> = (0..ts.workloads.len()).collect();
            let model = PerfPairModel::fit(
                &ts,
                &rows,
                baseline,
                probe,
                &self.cfg.forest,
                self.cfg.train_seed,
            );
            Ok(Arc::new(ModelArtifact {
                baseline,
                probe,
                cv_error_pct,
                model,
            }))
        })
    }

    /// Evaluates one request against one machine *class* without
    /// committing capacity: probes the two model placements and predicts
    /// the full per-class performance vector. Pure model work — which
    /// member host, which placement class and which concrete node set
    /// actually host the container are decided at commit time against
    /// live occupancy.
    pub(crate) fn evaluate(
        &self,
        scope: &LockScope,
        class: usize,
        req: &PlacementRequest,
    ) -> Result<Candidate, String> {
        if req.vcpus == 0 {
            return Err("request has zero vCPUs".to_string());
        }
        let fc = &self.fleet.classes[class];
        let rep = fc.members[0];
        let host = &self.hosts[rep.0];
        let oracle = host.sim(scope);
        if !oracle.workloads().iter().any(|w| w.name == req.workload) {
            return Err(format!(
                "workload {} unknown on machine {}",
                req.workload,
                host.machine().name()
            ));
        }
        // Count only evaluations that reach the model path; malformed
        // requests do no probing or prediction.
        self.counters.evaluations.incr();
        let catalog = self
            .catalog_in(scope, rep, req.vcpus)
            .map_err(|e| format!("{}: {e}", host.machine().name()))?;
        let probe = |placement: usize, seed: u64| {
            let spec = &catalog.placements[placement].spec;
            oracle.perf(&req.workload, spec, seed)
        };
        // With a single important placement there is nothing to
        // predict — the one probe *is* the answer — and no second
        // placement to build a perf-pair model from.
        let (anchor_perf, predicted) = if catalog.placements.len() == 1 {
            let anchor_perf = probe(0, req.probe_seed);
            (anchor_perf, vec![anchor_perf])
        } else {
            let baseline = fc.baseline.min(catalog.placements.len() - 1);
            let artifact = self
                .model_in(scope, rep, req.vcpus, baseline, None)
                .map_err(|e| format!("{}: {e}", host.machine().name()))?;
            let anchor_perf = probe(artifact.baseline, req.probe_seed);
            let other_perf = probe(artifact.probe, req.probe_seed.wrapping_add(1));
            (
                anchor_perf,
                artifact.model.predict_absolute(anchor_perf, other_perf),
            )
        };

        let goal_perf = req.goal_frac * anchor_perf;
        let best_perf = catalog
            .placements
            .iter()
            .map(|ip| predicted[ip.id - 1])
            .fold(f64::NEG_INFINITY, f64::max);
        // The placement-class shapes that could satisfy this request:
        // what the lock-free summary prefilter checks per host. The
        // goal filter uses idle-host predictions — interference can
        // only lower a score, so this prefilter stays optimistic and
        // the adjusted check happens at commit time.
        let mut goal_shapes: Vec<ShapeRequirement> = Vec::new();
        for (shape, ip) in catalog
            .availability
            .requirements()
            .into_iter()
            .zip(&catalog.placements)
        {
            if predicted[ip.id - 1] >= goal_perf && !goal_shapes.contains(&shape) {
                goal_shapes.push(shape);
            }
        }
        Ok(Candidate {
            class,
            request: req.clone(),
            catalog,
            predicted,
            goal_perf,
            best_perf,
            goal_shapes,
        })
    }

    /// Phase 1 of [`Self::place_batch`]: per request, the candidate
    /// outcome on every machine class, computed on scoped worker
    /// threads. The `(request × class)` grid is sharded row-wise:
    /// each worker evaluates a chunk of requests against all classes,
    /// borrowing the caller's scope.
    pub(crate) fn evaluate_candidates(
        &self,
        scope: &LockScope,
        reqs: &[PlacementRequest],
    ) -> Vec<Vec<Result<Candidate, String>>> {
        let n_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(reqs.len().max(1));
        if n_workers <= 1 || reqs.len() <= 1 {
            return reqs.iter().map(|r| self.candidates_for(scope, r)).collect();
        }
        let chunk = reqs.len().div_ceil(n_workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = reqs
                .chunks(chunk)
                .map(|slice| {
                    s.spawn(move || {
                        slice.iter().map(|r| self.candidates_for(scope, r)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("candidate worker panicked"))
                .collect()
        })
    }

    fn candidates_for(
        &self,
        scope: &LockScope,
        req: &PlacementRequest,
    ) -> Vec<Result<Candidate, String>> {
        (0..self.fleet.num_classes())
            .map(|class| self.evaluate(scope, class, req))
            .collect()
    }
}

/// A small corpus and forest, so this crate's unit tests train fast.
#[cfg(test)]
pub(crate) fn fast_test_config() -> EngineConfig {
    EngineConfig {
        n_seeds: 2,
        extra_synthetic: 0,
        forest: ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        },
        ..EngineConfig::default()
    }
}

#[cfg(test)]
mod collision_tests {
    use super::*;
    use vc_topology::machines;

    /// Forced fingerprint collision (both machines registered under the
    /// doctored value 42): the structural check must split them into
    /// two topologies, two fleet classes, two oracles — and therefore
    /// two catalogs, instead of serving the AMD catalog to the Intel
    /// host (or vice versa).
    #[test]
    fn colliding_fingerprints_split_into_distinct_classes() {
        let mut engine = PlacementEngine::new(fast_test_config());
        let amd_id = engine.add_machine_keyed(machines::amd_opteron_6272(), 0, 42);
        let intel_id = engine.add_machine_keyed(machines::intel_xeon_e7_4830_v3(), 0, 42);
        // A third AMD box under the same doctored value joins the AMD
        // class (structure matches).
        let amd2_id = engine.add_machine_keyed(machines::amd_opteron_6272(), 0, 42);

        let index = engine.fleet_index();
        assert_eq!(index.num_classes(), 2, "collision aliased two topologies");
        assert_eq!(index.classes()[0].members(), &[amd_id, amd2_id]);
        assert_eq!(index.classes()[1].members(), &[intel_id]);
        assert_eq!(index.classes()[0].fingerprint(), 42);
        assert_eq!(index.classes()[1].fingerprint(), 42);

        // Catalogs are keyed per topology id, not per raw fingerprint:
        // each machine sees its own machine's catalog.
        let amd_catalog = engine.catalog(amd_id, 16).unwrap();
        let intel_catalog = engine.catalog(intel_id, 16).unwrap();
        assert_eq!(amd_catalog.placements.len(), 13); // the paper's AMD count
        assert_ne!(
            amd_catalog.placements.len(),
            intel_catalog.placements.len(),
            "collision served one topology's catalog to the other"
        );
        assert_eq!(engine.stats().catalogs.computes, 2);
        // The same-structure AMD host shares the entry.
        engine.catalog(amd2_id, 16).unwrap();
        assert_eq!(engine.stats().catalogs.computes, 2);

        // Oracles are split too: each simulates its own machine.
        assert_eq!(engine.sim_oracle(amd_id).machine().num_threads(), 64);
        assert_eq!(engine.sim_oracle(intel_id).machine().num_threads(), 96);

        // End to end: a 16-vCPU placement on each host lands on its own
        // hardware with a valid thread set.
        for id in [amd_id, intel_id] {
            let req = PlacementRequest::new("WTbtree", 16);
            let cand = self::machine_candidate(&engine, id, &req);
            assert!(cand.is_ok(), "{:?}", cand.err());
        }
    }

    /// Evaluates a request against the class of one machine (helper so
    /// the collision test exercises the full evaluate path per class).
    fn machine_candidate(
        engine: &PlacementEngine,
        id: MachineId,
        req: &PlacementRequest,
    ) -> Result<(), String> {
        engine
            .evaluate(&LockScope::new(), engine.hosts[id.0].class, req)
            .map(|_| ())
    }

    /// The undoctored path keeps grouping by real fingerprints: one
    /// topology id per machine model.
    #[test]
    fn real_fingerprints_share_topology_ids() {
        let mut engine = PlacementEngine::new(fast_test_config());
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1);
        assert_eq!(engine.topologies.len(), 2);
        assert_eq!(engine.fleet_index().num_classes(), 2);
    }

    /// A topology is one oracle: same-topology hosts share it, and a
    /// host's machine is that oracle's, not a copy of it.
    #[test]
    fn same_topology_hosts_share_one_oracle_and_its_machine() {
        let mut engine = PlacementEngine::new(fast_test_config());
        let a = engine.add_machine(machines::amd_opteron_6272());
        let b = engine.add_machine_with_baseline(machines::amd_opteron_6272(), 1);
        let intel = engine.add_machine(machines::intel_xeon_e7_4830_v3());
        assert!(Arc::ptr_eq(&engine.sim_oracle(a), &engine.sim_oracle(b)));
        assert!(!Arc::ptr_eq(&engine.sim_oracle(a), &engine.sim_oracle(intel)));
        for id in [a, b, intel] {
            assert!(std::ptr::eq(engine.machine(id), engine.sim_oracle(id).machine()));
        }
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;
    use vc_topology::machines;

    /// A panic while the fleet-wide location map's mutex is held must
    /// not wedge releases (the host-mutex twin lives in `host.rs`).
    #[test]
    fn poisoned_locations_lock_is_recovered() {
        let engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_test_config());
        let placed = engine
            .place(&PlacementRequest::new("WTbtree", 16))
            .placed()
            .expect("idle host")
            .clone();

        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                engine.locations.with(&mut LockScope::new(), |_| {
                    panic!("oracle panicked holding the location map")
                })
            })
            .join()
        });
        assert!(engine.locations.is_poisoned(), "must be poisoned");

        engine.release(&placed).unwrap();
        assert_eq!(engine.num_residents(), 0);
        assert!(engine.stats().lock_poison_recoveries >= 1);
    }
}
