//! One fleet host: its record of what runs where, the lock-free views
//! readers consume, and the only handle that can change them.
//!
//! The record is a [`HostSnapshot`] — occupancy map plus resident
//! registry — and the host keeps exactly one current copy of it: the
//! `Arc` its mutex guards is the `Arc` its slot last published.
//! [`HostGuard`] is the one way to change it. The first mutator of a
//! critical section clones the snapshot (copy-on-write, `Arc::make_mut`)
//! and marks the guard dirty; `Drop` then computes one fresh sketch
//! profile, publishes it — as the capacity summary and as the shard's
//! availability-sketch delta — and publishes that same `Arc` as the
//! host's snapshot, exactly once, while the mutex is still held. A
//! published view therefore never lags a completed critical section,
//! summary and sketch never change apart (the pairing is model-checked
//! in `tests/interleavings.rs`), and a read-only critical section — a
//! failed reserve included — neither clones nor publishes.
//!
//! The mutex is a [`ScopedMutex`]: [`PlacementEngine::lock_host`]
//! and [`PlacementEngine::lock_pair`] (the one double lock, ordered by
//! machine id) take it through the caller's [`LockScope`], and the
//! host's simulator and interference model are reachable only through
//! accessors that borrow the same scope. Simulating under a host lock,
//! or taking a second one beside it, therefore does not compile.

use std::sync::Arc;

use vc_core::interference::{InterferenceModel, ResidentWorkload};
use vc_sim::SimOracle;
use vc_sync::lock::{LockScope, ScopedGuard, ScopedMutex, Witness};
use vc_sync::Slot;
use vc_topology::{
    AvailabilitySketch, CapacitySummary, Machine, OccupancyError, OccupancyMap, ThreadId,
};

use crate::engine::{MachineId, Placed, PlacementEngine, PlacementTicket, Resident};

/// What runs where on one host: the occupancy map and the resident
/// registry as some commit, release or rebalance move left them. It is
/// the engine's only record of the host's containers.
///
/// Snapshots are published through a single-slot wait-free cell
/// (`vc_sync::Slot`) *before* the publishing writer drops the host
/// lock, so a snapshot never shows a half-applied mutation: the union
/// of the residents' threads is exactly the occupancy's used set in
/// every published snapshot (proptested under concurrent churn).
/// Readers keep a snapshot alive through their own `Arc`; a newer
/// publication never invalidates it.
#[derive(Debug, Clone)]
pub struct HostSnapshot {
    occ: OccupancyMap,
    /// Ticket-sorted.
    residents: Vec<Resident>,
}

impl HostSnapshot {
    /// The occupancy map as of publication.
    pub fn occupancy(&self) -> &OccupancyMap {
        &self.occ
    }

    /// The resident registry as of publication, ticket order.
    pub fn residents(&self) -> &[Resident] {
        &self.residents
    }

    /// One resident by ticket (the list is ticket-sorted).
    pub fn resident(&self, ticket: PlacementTicket) -> Option<&Resident> {
        self.position(ticket).ok().map(|i| &self.residents[i])
    }

    /// Where `ticket` is in the registry, or where it would go.
    fn position(&self, ticket: PlacementTicket) -> Result<usize, usize> {
        self.residents.binary_search_by_key(&ticket, |r| r.ticket)
    }

    /// The registry as the interference path consumes it, deterministic
    /// (ticket) order.
    pub(crate) fn resident_workloads(&self) -> Vec<ResidentWorkload> {
        self.residents.iter().map(Resident::as_workload).collect()
    }

    /// The workloads of every resident but `ticket`, ticket order.
    pub(crate) fn resident_workloads_without(
        &self,
        ticket: PlacementTicket,
    ) -> Vec<ResidentWorkload> {
        self.residents
            .iter()
            .filter(|r| r.ticket != ticket)
            .map(Resident::as_workload)
            .collect()
    }
}

pub(crate) struct Host {
    /// The host's topology, shared with every structurally-equal host
    /// (one `Arc` per registered topology): at 10⁵ hosts the machine
    /// description would otherwise dominate per-host memory.
    pub(crate) machine: Arc<Machine>,
    /// Index into the fleet index's classes.
    pub(crate) class: usize,
    /// Index of the class shard whose availability sketch counts this
    /// host (member slot / [`EngineConfig::sketch_shard`](crate::EngineConfig::sketch_shard)).
    shard: usize,
    oracle: Arc<SimOracle>,
    /// Shared (per topology) memoizing interference model over `oracle`.
    interference: Arc<InterferenceModel>,
    /// The host's record, the same `Arc` as `snapshot` holds between
    /// critical sections. Commits, releases and moves lock it;
    /// candidate evaluation and every read path never do.
    record: ScopedMutex<Arc<HostSnapshot>>,
    /// Lock-free free-capacity summary: the host's last-published
    /// sketch profile, which is also what its shard's availability
    /// sketch counts it as. Admission reads it to skip hopeless hosts
    /// without locking them.
    pub(crate) summary: CapacitySummary,
    /// The published record every read path loads wait-free.
    snapshot: Slot<HostSnapshot>,
}

impl Host {
    /// An idle host, attached to `sketch` — the availability sketch of
    /// shard `shard` of its class.
    pub(crate) fn new(
        machine: Arc<Machine>,
        class: usize,
        shard: usize,
        sketch: &AvailabilitySketch,
        oracle: Arc<SimOracle>,
        interference: Arc<InterferenceModel>,
    ) -> Host {
        let summary = CapacitySummary::new(&machine);
        sketch.attach(&summary.profile());
        let idle = Arc::new(HostSnapshot {
            occ: OccupancyMap::new(&machine),
            residents: Vec::new(),
        });
        Host {
            summary,
            snapshot: Slot::new(Arc::clone(&idle)),
            record: ScopedMutex::new(idle),
            machine,
            class,
            shard,
            oracle,
            interference,
        }
    }

    /// The host's simulator oracle. The shared scope borrow proves no
    /// host lock is held on this thread.
    pub(crate) fn sim(&self, _scope: &LockScope) -> &Arc<SimOracle> {
        &self.oracle
    }

    /// The host's memoizing interference model (a cold miss simulates);
    /// borrowed under the same proof as [`Self::sim`].
    pub(crate) fn interference(&self, _scope: &LockScope) -> &InterferenceModel {
        &self.interference
    }

    /// Poisoned acquisitions of this host's mutex recovered so far.
    pub(crate) fn poison_recoveries(&self) -> u64 {
        self.record.recoveries()
    }
}

/// A locked host. Reads go through the accessors; the mutators are the
/// only code that can change the record, and the first one to change
/// it clones it and marks the guard dirty, so `Drop` publishes the
/// clone before the mutex unlocks. It keeps the caller's [`LockScope`]
/// mutably borrowed.
pub(crate) struct HostGuard<'s> {
    engine: &'s PlacementEngine,
    host: &'s Host,
    record: ScopedGuard<'s, Arc<HostSnapshot>>,
    dirty: bool,
}

impl<'s> HostGuard<'s> {
    /// The witness that enters a leaf lock (the location map) under
    /// this host lock.
    pub(crate) fn witness(&mut self) -> &mut (impl Witness + use<'s>) {
        &mut self.record
    }

    /// The record, writable: cloned on the critical section's first
    /// write (the slot still holds the published copy), in place after.
    fn edit(&mut self) -> &mut HostSnapshot {
        self.dirty = true;
        Arc::make_mut(&mut self.record)
    }

    /// One registry entry by ticket.
    pub(crate) fn resident(&self, ticket: PlacementTicket) -> Option<&Resident> {
        self.record.resident(ticket)
    }

    /// All-or-nothing thread reservation. The check runs first, so a
    /// failed reserve copies and publishes nothing.
    pub(crate) fn reserve(&mut self, threads: &[ThreadId]) -> Result<(), OccupancyError> {
        self.record.occ.check_reserve(threads)?;
        self.edit().occ.reserve(threads)
    }

    /// Frees threads a registry entry holds (or held until a moment
    /// ago, under this same guard).
    pub(crate) fn release(&mut self, threads: &[ThreadId]) {
        self.edit()
            .occ
            .release(threads)
            .expect("registry threads are reserved by invariant");
    }

    /// Adds a registry entry under its ticket.
    pub(crate) fn insert_resident(&mut self, resident: Resident) {
        let record = self.edit();
        let at = record.position(resident.ticket);
        debug_assert!(at.is_err(), "ticket reused");
        record.residents.insert(at.unwrap_or_else(|at| at), resident);
    }

    /// Removes and returns a registry entry.
    pub(crate) fn remove_resident(&mut self, ticket: PlacementTicket) -> Option<Resident> {
        let at = self.record.position(ticket).ok()?;
        Some(self.edit().residents.remove(at))
    }

    /// Points the registry entry of `placed.ticket` at the placement
    /// rebalance pass `pass` moved it to. The ticket and original
    /// request are preserved — only where the container runs, and when
    /// it last moved, change.
    pub(crate) fn rehome(&mut self, placed: &Placed, pass: u64) {
        let at = self
            .record
            .position(placed.ticket)
            .expect("entry was just inserted/verified");
        let entry = &mut self.edit().residents[at];
        entry.placement_id = placed.placement_id;
        entry.spec = placed.spec.clone();
        entry.threads = placed.threads.clone();
        entry.predicted_perf = placed.predicted_perf;
        entry.interference_penalty = placed.interference_penalty;
        entry.moved_in_pass = Some(pass);
    }
}

impl Drop for HostGuard<'_> {
    /// Publishes a changed record to every lock-free view while the
    /// mutex is still held: one fresh sketch profile goes to the shard
    /// sketch as a delta against the profile the summary still holds,
    /// then into the summary; the record itself goes into the snapshot
    /// slot. A panicking critical section publishes nothing: the mutex
    /// is poisoned instead, and the recovering acquirer's own
    /// publication catches the views up.
    fn drop(&mut self) {
        if !self.dirty || std::thread::panicking() {
            return;
        }
        let (engine, host) = (self.engine, self.host);
        let sketch = &engine.class_sketches[host.class][host.shard];
        let fresh = sketch.profile(&self.record.occ);
        sketch.update(&host.summary.profile(), &fresh);
        host.summary.store(&fresh);
        host.snapshot.store(Arc::clone(&self.record), &engine.domain);
        engine.counters.snapshot_published.incr();
    }
}

impl PlacementEngine {
    /// Acquires a host's mutex through the caller's scope, counting the
    /// acquisition and recovering a poisoned guard. Recovery is sound
    /// because every critical section leaves the record consistent at
    /// each step: `reserve`/`release` are all-or-nothing, and
    /// registry/location updates are ordered so a panic between them
    /// strands nothing unreleasable (see `register`/`release`). Each
    /// recovery is counted in
    /// [`EngineStats::lock_poison_recoveries`](crate::EngineStats::lock_poison_recoveries)
    /// — the panic that caused it still means a writer died mid-flight.
    pub(crate) fn lock_host<'s>(&'s self, scope: &'s mut LockScope, host: &'s Host) -> HostGuard<'s> {
        self.counters.host_lock_acquisitions.incr();
        self.guard(host, host.record.lock(scope))
    }

    /// Locks two distinct hosts, lower machine id first — the one
    /// place two host locks are ever held together, so concurrent
    /// movers (and commits, which take one lock at a time) cannot
    /// deadlock. Guards come back in argument order.
    pub(crate) fn lock_pair<'s>(
        &'s self,
        scope: &'s mut LockScope,
        a: MachineId,
        b: MachineId,
    ) -> (HostGuard<'s>, HostGuard<'s>) {
        let (lo, hi) = (&self.hosts[a.0.min(b.0)], &self.hosts[a.0.max(b.0)]);
        let (lo_record, hi_record) = ScopedMutex::lock_two(&lo.record, &hi.record, scope);
        self.counters.host_lock_acquisitions.add(2);
        let (lo_guard, hi_guard) = (self.guard(lo, lo_record), self.guard(hi, hi_record));
        if a < b {
            (lo_guard, hi_guard)
        } else {
            (hi_guard, lo_guard)
        }
    }

    fn guard<'s>(
        &'s self,
        host: &'s Host,
        record: ScopedGuard<'s, Arc<HostSnapshot>>,
    ) -> HostGuard<'s> {
        HostGuard {
            engine: self,
            host,
            record,
            dirty: false,
        }
    }

    /// The host view every read path scores against: a wait-free load
    /// of the published record — zero lock acquisitions. Residents and
    /// occupancy of one view always agree.
    pub(crate) fn view(&self, host: &Host) -> Arc<HostSnapshot> {
        self.counters.snapshot_loads.incr();
        host.snapshot.load(&self.domain)
    }

    /// Checks, host by host under its lock, that the published snapshot
    /// *is* the record (one `Arc`, so no critical section copied the
    /// record without publishing it), that the registry's thread sets
    /// are pairwise disjoint and cover exactly the occupancy's used
    /// threads, that the summary's profile (which its shard sketch
    /// counts) is the occupancy's, and that every registry ticket
    /// resolves to this host in the location map. Exact at quiescence
    /// (no critical section in flight); `Err` names the first
    /// divergence.
    pub fn audit(&self) -> Result<(), String> {
        let mut scope = LockScope::new();
        for (i, host) in self.hosts.iter().enumerate() {
            let mut guard = self.lock_host(&mut scope, host);
            let record = Arc::clone(&guard.record);
            if !Arc::ptr_eq(&record, &host.snapshot.load(&self.domain)) {
                return Err(format!("host {i}: the published snapshot is not the record"));
            }
            let occ = &record.occ;
            let mut owner = vec![None; occ.total_threads()];
            for r in &record.residents {
                for &t in &r.threads {
                    if let Some(other) = owner[t.index()].replace(r.ticket) {
                        return Err(format!("host {i}: {t} held by both {other} and {}", r.ticket));
                    }
                    if occ.is_free(t) {
                        return Err(format!("host {i}: {} holds {t}, which is free", r.ticket));
                    }
                }
            }
            let owned = owner.iter().flatten().count();
            if owned != occ.used_threads() {
                return Err(format!(
                    "host {i}: registry holds {owned} threads, occupancy reserves {}",
                    occ.used_threads()
                ));
            }
            let sketch = &self.class_sketches[host.class][host.shard];
            if host.summary.profile() != sketch.profile(occ) {
                return Err(format!("host {i}: capacity summary diverges from occupancy"));
            }
            let stray = self.locations.with(guard.witness(), |locations| {
                record
                    .residents
                    .iter()
                    .map(|r| (r.ticket, locations.get(&r.ticket.0).copied()))
                    .find(|&(_, at)| at != Some(i))
            });
            if let Some((ticket, at)) = stray {
                return Err(format!(
                    "host {i}: {ticket} resolves to {at:?} in the location map"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{fast_test_config, PlacementRequest};
    use vc_core::placement::PlacementSpec;
    use vc_topology::{machines, NodeId};

    fn fleet(hosts: usize) -> PlacementEngine {
        let mut engine = PlacementEngine::new(fast_test_config());
        for _ in 0..hosts {
            engine.add_machine(machines::amd_opteron_6272());
        }
        engine
    }

    /// A dirty guard publishes summary, sketch and snapshot exactly
    /// once, on drop; a guard that only reads — or whose reserve fails
    /// — neither copies the record nor publishes anything.
    /// `try_commit`'s lost-reserve path relies on the latter.
    #[test]
    fn dirty_guards_publish_once_and_clean_guards_never() {
        let engine = fleet(1);
        let host = &engine.hosts[0];
        let threads = engine.machine(MachineId(0)).threads_on_node(NodeId(0));
        let published = |e: &PlacementEngine| e.stats().snapshot.published;
        let base = published(&engine);

        {
            let mut scope = LockScope::new();
            let mut guard = engine.lock_host(&mut scope, host);
            guard.reserve(&threads).unwrap();
            assert_eq!(published(&engine), base, "nothing publishes before drop");
            assert!(host.summary.can_host(8, 8));
        }
        assert_eq!(published(&engine), base + 1);
        assert!(!host.summary.can_host(8, 1), "node 0 is full");
        assert_eq!(engine.utilisation(MachineId(0)).0, threads.len());
        assert!(engine.audit().is_err(), "no resident owns the reserved threads");

        let view = engine.host_snapshot(MachineId(0));
        {
            let mut scope = LockScope::new();
            let mut guard = engine.lock_host(&mut scope, host);
            assert!(guard.resident(PlacementTicket(0)).is_none());
            assert!(guard.reserve(&threads).is_err(), "already reserved");
            assert!(guard.remove_resident(PlacementTicket(0)).is_none());
            assert!(Arc::ptr_eq(&guard.record, &view), "a clean guard copied the record");
        }
        assert_eq!(published(&engine), base + 1, "read-only guard published");
        assert!(Arc::ptr_eq(&engine.host_snapshot(MachineId(0)), &view));

        engine.lock_host(&mut LockScope::new(), host).release(&threads);
        assert_eq!(published(&engine), base + 2);
        assert!(!Arc::ptr_eq(&engine.host_snapshot(MachineId(0)), &view));
        assert!(view.occupancy().used_threads() > 0, "a held view never changes");
        engine.audit().unwrap();
    }

    /// `audit` holds the registry to the occupancy: threads reserved
    /// for no resident, and a thread two residents claim, are both
    /// divergences even when every published view is fresh.
    #[test]
    fn audit_checks_registry_threads_against_occupancy() {
        let engine = fleet(1);
        let host = &engine.hosts[0];
        let threads = engine.machine(MachineId(0)).threads_on_node(NodeId(0));
        let resident = |ticket| Resident {
            ticket: PlacementTicket(ticket),
            request: PlacementRequest::new("swaptions", threads.len()),
            placement_id: 1,
            spec: PlacementSpec::on_nodes(threads.len(), vec![NodeId(0)], threads.len() / 2),
            threads: threads.clone(),
            predicted_perf: 1.0,
            interference_penalty: 1.0,
            goal_perf: 0.0,
            moved_in_pass: None,
        };
        let register = |ticket| {
            let mut scope = LockScope::new();
            let mut guard = engine.lock_host(&mut scope, host);
            guard.insert_resident(resident(ticket));
            engine.locations.with(guard.witness(), |m| m.insert(ticket, 0));
        };

        engine.lock_host(&mut LockScope::new(), host).reserve(&threads).unwrap();
        let err = engine.audit().unwrap_err();
        assert!(err.contains("registry holds 0 threads, occupancy reserves 8"), "{err}");

        register(1);
        engine.audit().unwrap();

        register(2);
        let err = engine.audit().unwrap_err();
        assert!(err.contains("held by both"), "{err}");

        {
            let mut scope = LockScope::new();
            let mut guard = engine.lock_host(&mut scope, host);
            for ticket in [1, 2] {
                guard.remove_resident(PlacementTicket(ticket)).unwrap();
                engine.locations.with(guard.witness(), |m| m.remove(&ticket));
            }
            guard.release(&threads);
        }
        engine.audit().unwrap();
    }

    /// Two movers bouncing residents between the same two hosts in
    /// opposite directions: `lock_pair(a, b)` and `lock_pair(b, a)`
    /// take the locks in one order, so neither thread can deadlock,
    /// and every view converges.
    #[test]
    fn opposed_lock_pairs_complete_and_stay_consistent() {
        let engine = fleet(2);
        let (a, b) = (MachineId(0), MachineId(1));
        // Two containers admitted side by side on host A hold disjoint
        // threads, so each one's set is always free on the host the
        // other mover is not carrying it to.
        let place = |seed| {
            let req = PlacementRequest::new("swaptions", 8).with_probe_seed(seed);
            engine.place(&req).placed().expect("A has room").clone()
        };
        let (first, second) = (place(0), place(1));
        assert_eq!((first.machine, second.machine), (a, a));

        let carry = |ticket: PlacementTicket, from: MachineId, to: MachineId| {
            let mut scope = LockScope::new();
            let (mut src, mut dst) = engine.lock_pair(&mut scope, from, to);
            let entry = src.remove_resident(ticket).expect("mover owns its ticket");
            src.release(&entry.threads);
            dst.reserve(&entry.threads).expect("mirror threads are free");
            dst.insert_resident(entry);
            engine.locations.with(dst.witness(), |m| m.insert(ticket.0, to.0));
        };
        carry(second.ticket, a, b);
        let bounce = |ticket, mut from, mut to| {
            for _ in 0..300 {
                carry(ticket, from, to);
                std::mem::swap(&mut from, &mut to);
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| bounce(first.ticket, a, b));
            s.spawn(|| bounce(second.ticket, b, a));
        });

        engine.audit().unwrap();
        assert_eq!(engine.num_residents(), 2);
        engine.release(&first).unwrap();
        engine.release(&second).unwrap();
        engine.audit().unwrap();
        assert_eq!(engine.utilisation(a).0 + engine.utilisation(b).0, 0);
    }

    /// A deliberately panicking thread dies while holding host 0's
    /// mutex, poisoning it. Every critical section in the engine
    /// is all-or-nothing at the point a panic could unwind, so
    /// recovery is sound: subsequent commits, releases and accessors
    /// must recover the guard (counted in
    /// `EngineStats::lock_poison_recoveries`) instead of propagating
    /// the poison forever.
    #[test]
    fn poisoned_host_lock_is_recovered_and_counted() {
        let engine = fleet(1);
        let placed = engine
            .place(&PlacementRequest::new("WTbtree", 16))
            .placed()
            .expect("idle host")
            .clone();

        let published = engine.stats().snapshot.published;
        let oracle = std::thread::scope(|s| {
            s.spawn(|| {
                let mut scope = LockScope::new();
                let mut guard = engine.lock_host(&mut scope, &engine.hosts[0]);
                guard.release(&placed.threads);
                guard.reserve(&placed.threads).unwrap();
                panic!("oracle panicked mid-critical-section");
            })
            .join()
        });
        assert!(oracle.is_err(), "the oracle must have panicked");
        assert!(
            engine.hosts[0].record.is_poisoned(),
            "the host mutex must actually be poisoned"
        );
        assert_eq!(
            engine.stats().snapshot.published,
            published,
            "a panicking guard must not publish"
        );
        let err = engine.audit().unwrap_err();
        assert!(err.contains("published snapshot is not the record"), "{err}");

        let before = engine.stats().lock_poison_recoveries;
        let second = engine
            .place(&PlacementRequest::new("swaptions", 16))
            .placed()
            .expect("a poisoned lock must not reject admission")
            .clone();
        engine.release(&placed).unwrap();
        engine.release(&second).unwrap();
        assert_eq!(engine.utilisation(MachineId(0)).0, 0);
        engine.audit().unwrap();

        let stats = engine.stats();
        assert!(
            stats.lock_poison_recoveries > before,
            "recoveries must be counted: {} !> {before}",
            stats.lock_poison_recoveries
        );
        assert_eq!(stats.release_failures, 0);
    }
}
