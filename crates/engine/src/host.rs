//! One fleet host: its record of what runs where, the one pointer
//! every reader loads it through, and the only handle that can change
//! it.
//!
//! The record is a [`HostSnapshot`] — occupancy map plus resident
//! registry — and the host keeps exactly one pointer to it: its
//! wait-free slot. The host's mutex guards no data; it serialises
//! writers, so what a [`HostGuard`] loads from the slot once it holds
//! the mutex *is* the record until that guard stores. The guard is the
//! one way to change it. The first mutator of a critical section
//! clones the snapshot (copy-on-write, `Arc::make_mut`: the slot still
//! holds the published reference) and marks the guard dirty; `Drop`
//! then computes one fresh sketch profile, publishes it — as the
//! capacity summary and as the shard's availability-sketch delta — and
//! stores the copy in the slot, exactly once, while the mutex is still
//! held. A published view therefore never lags a completed critical
//! section, summary and sketch never change apart (the pairing is
//! model-checked in `tests/interleavings.rs`), and a read-only critical
//! section — a refused commit included — neither clones nor publishes.
//!
//! The mutex is a [`ScopedMutex`]: [`PlacementEngine::lock_host`]
//! and [`PlacementEngine::lock_pair`] (the one double lock, ordered by
//! machine id) take it through the caller's [`LockScope`], and the
//! host's simulator — with the co-location memo it owns — is reachable
//! only through an accessor that borrows the same scope. Simulating
//! under a host lock, or taking a second one beside it, therefore does
//! not compile.

use std::sync::Arc;

use vc_core::interference::ResidentWorkload;
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
    /// The simulator of the host's topology, shared with every
    /// structurally-equal host (one per registered topology): its
    /// machine description, its workloads and its co-location memo
    /// would otherwise dominate per-host memory at 10⁵ hosts.
    oracle: Arc<SimOracle>,
    /// Index into the fleet index's classes.
    pub(crate) class: usize,
    /// Index of the class shard whose availability sketch counts this
    /// host (member slot / [`EngineConfig::sketch_shard`](crate::EngineConfig::sketch_shard)).
    shard: usize,
    /// Serialises the host's writers — commits, releases and moves.
    /// It guards no data (see `snapshot`); candidate evaluation and
    /// every read path never take it.
    lock: ScopedMutex<()>,
    /// Lock-free free-capacity summary: the host's last-published
    /// sketch profile, which is also what its shard's availability
    /// sketch counts it as. Admission reads it to skip hopeless hosts
    /// without locking them.
    pub(crate) summary: CapacitySummary,
    /// The host's record, and the one pointer to it: every read path
    /// loads it wait-free, and only a [`HostGuard`] stores to it.
    snapshot: Slot<HostSnapshot>,
}

impl Host {
    /// An idle host, attached to `sketch` — the availability sketch of
    /// shard `shard` of its class.
    pub(crate) fn new(
        oracle: Arc<SimOracle>,
        class: usize,
        shard: usize,
        sketch: &AvailabilitySketch,
    ) -> Host {
        let summary = CapacitySummary::new(oracle.machine());
        sketch.attach(&summary.profile());
        let idle = HostSnapshot {
            occ: OccupancyMap::new(oracle.machine()),
            residents: Vec::new(),
        };
        Host {
            summary,
            snapshot: Slot::new(Arc::new(idle)),
            lock: ScopedMutex::new(()),
            oracle,
            class,
            shard,
        }
    }

    /// The host's topology.
    pub(crate) fn machine(&self) -> &Machine {
        self.oracle.machine()
    }

    /// The host's simulator oracle, co-location memo included (a cold
    /// [`SimOracle::penalty`] simulates). The shared scope borrow
    /// proves no host lock is held on this thread.
    pub(crate) fn sim(&self, _scope: &LockScope) -> &Arc<SimOracle> {
        &self.oracle
    }

    /// Poisoned acquisitions of this host's mutex recovered so far.
    pub(crate) fn poison_recoveries(&self) -> u64 {
        self.lock.recoveries()
    }
}

/// A locked host. Reads go through the accessors; the mutators are the
/// only code that can change the record, and the first one to change
/// it clones it and marks the guard dirty, so `Drop` stores the clone
/// before the mutex unlocks. It keeps the caller's [`LockScope`]
/// mutably borrowed.
pub(crate) struct HostGuard<'s> {
    engine: &'s PlacementEngine,
    host: &'s Host,
    lock: ScopedGuard<'s, ()>,
    /// The record as the slot held it when the lock was taken, and
    /// this critical section's copy once a mutator has run.
    record: Arc<HostSnapshot>,
    dirty: bool,
}

impl<'s> HostGuard<'s> {
    /// The witness that enters a leaf lock (the location map) under
    /// this host lock.
    pub(crate) fn witness(&mut self) -> &mut (impl Witness + use<'s>) {
        &mut self.lock
    }

    /// The record, writable: cloned on the critical section's first
    /// write (the slot holds the published reference), in place after.
    fn edit(&mut self) -> &mut HostSnapshot {
        self.dirty = true;
        Arc::make_mut(&mut self.record)
    }

    /// Whether the record is still `snapshot` itself. A record changes
    /// identity exactly once per publication, so `true` means no
    /// critical section has changed the host since `snapshot` was read.
    pub(crate) fn unchanged_since(&self, snapshot: &Arc<HostSnapshot>) -> bool {
        Arc::ptr_eq(&self.record, snapshot)
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
    /// then into the summary; the record itself goes into the slot. A
    /// panicking critical section publishes nothing: its copy dies with
    /// the guard, so the slot keeps the record exactly as it was, and
    /// the next acquirer recovers the poisoned mutex onto it.
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
    /// because a panicking critical section stores nothing: the record
    /// is still the one the last completed section published, and the
    /// location-map updates are ordered so that a panic strands nothing
    /// unreleasable (see `register` and `release_ticket`). Each
    /// recovery is counted in
    /// [`EngineStats::lock_poison_recoveries`](crate::EngineStats::lock_poison_recoveries)
    /// — the panic that caused it still means a writer died mid-flight.
    pub(crate) fn lock_host<'s>(&'s self, scope: &'s mut LockScope, host: &'s Host) -> HostGuard<'s> {
        self.counters.host_lock_acquisitions.incr();
        self.guard(host, host.lock.lock(scope))
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
        let (lo_lock, hi_lock) = ScopedMutex::lock_two(&lo.lock, &hi.lock, scope);
        self.counters.host_lock_acquisitions.add(2);
        let (lo_guard, hi_guard) = (self.guard(lo, lo_lock), self.guard(hi, hi_lock));
        if a < b {
            (lo_guard, hi_guard)
        } else {
            (hi_guard, lo_guard)
        }
    }

    /// A guard over `host`, whose other writers `lock` excludes: the
    /// slot's current value is the record until this guard stores.
    fn guard<'s>(&'s self, host: &'s Host, lock: ScopedGuard<'s, ()>) -> HostGuard<'s> {
        HostGuard {
            engine: self,
            host,
            lock,
            record: host.snapshot.load(&self.domain),
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

    /// Checks, host by host under its lock, that the record's registry
    /// thread sets are pairwise disjoint and cover exactly the
    /// occupancy's used threads, that the summary's profile (which its
    /// shard sketch counts) is the occupancy's, and that every registry
    /// ticket resolves to this host in the location map. Exact at
    /// quiescence (no critical section in flight); `Err` names the
    /// first divergence.
    pub fn audit(&self) -> Result<(), String> {
        let mut scope = LockScope::new();
        for (i, host) in self.hosts.iter().enumerate() {
            let mut guard = self.lock_host(&mut scope, host);
            let record = Arc::clone(&guard.record);
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
    /// A refused commit relies on the latter.
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
            assert!(guard.reserve(&threads).is_err(), "already reserved");
            assert!(guard.remove_resident(PlacementTicket(0)).is_none());
            assert!(guard.unchanged_since(&view), "a clean guard copied the record");
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
    /// mutex, poisoning it. Its edits die with its guard — the record
    /// stays the one it found — so recovery is sound: subsequent
    /// commits, releases and accessors must recover the guard (counted
    /// in `EngineStats::lock_poison_recoveries`) instead of
    /// propagating the poison forever.
    #[test]
    fn poisoned_host_lock_is_recovered_and_counted() {
        let engine = fleet(1);
        let placed = engine
            .place(&PlacementRequest::new("WTbtree", 16))
            .placed()
            .expect("idle host")
            .clone();

        let published = engine.stats().snapshot.published;
        let record = engine.host_snapshot(MachineId(0));
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
            engine.hosts[0].lock.is_poisoned(),
            "the host mutex must actually be poisoned"
        );
        assert_eq!(
            engine.stats().snapshot.published,
            published,
            "a panicking guard must not publish"
        );
        assert!(Arc::ptr_eq(&engine.host_snapshot(MachineId(0)), &record));
        engine.audit().unwrap();

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
