//! Quiescent-state-based reclamation (QSBR).
//!
//! The classic read-copy-update problem: a writer replaces a shared
//! pointer and must not free the superseded object while some reader,
//! having loaded the old pointer, is still dereferencing it. Locks
//! solve this by making readers visible to writers — and make readers
//! pay for writer contention they never caused. QSBR inverts the
//! bargain: each reader *announces* an epoch before its access (one
//! store to a cache line only it writes) and announces quiescence
//! after; writers tag retired objects with the epoch they were
//! superseded in and reclaim a tagged object only once every reader is
//! either quiescent or pinned in a strictly later epoch — at which
//! point no live reference to the object can exist.
//!
//! The read side is wait-free: a [`Domain::pin`] is two atomic stores
//! and one atomic load, no shared read-modify-write, no lock, no loop.
//! Writers pay for everything — the epoch advance, the garbage list
//! and the registry scan — which is the right trade for a read-mostly
//! snapshot: commits already serialise on their host lock, while
//! scoring reads fan out across every client thread.
//!
//! Reclamation here means *dropping* the retired value (for
//! [`crate::Slot`], dropping the publisher's `Arc` reference). Readers
//! that cloned their own reference out of the slot keep the underlying
//! allocation alive through plain reference counting; the grace period
//! only protects the instant between loading the raw pointer and
//! taking that reference.
//!
//! The registry and garbage mutexes are plain `std` leaves rather than
//! [`crate::lock::LeafMutex`]es: both are private to this file, neither
//! is held while the other is taken, and nothing is called under them —
//! reclaimed values are dropped after the garbage lock is released.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Epoch value meaning "this reader is not in a critical section".
const QUIESCENT: u64 = 0;

/// Per-reader-thread record: the epoch the thread pinned under (or
/// [`QUIESCENT`]), on a line only the owning thread stores to.
#[derive(Debug)]
struct ReaderSlot {
    /// The pinned epoch; [`QUIESCENT`] outside critical sections.
    epoch: AtomicU64,
    /// Pin nesting depth (only the owning thread mutates it; atomic for
    /// the `Sync` bound, not for cross-thread protocol).
    depth: AtomicU64,
    /// Set by the owning thread's exit destructor so collectors can
    /// prune the registry entry.
    dead: AtomicBool,
}

impl ReaderSlot {
    fn new() -> Self {
        ReaderSlot {
            epoch: AtomicU64::new(QUIESCENT),
            depth: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }
}

/// One unit of deferred reclamation: the retired value, tagged with the
/// global epoch at retirement. Dropping the box reclaims.
struct Retired {
    epoch: u64,
    _item: Box<dyn Send>,
}

/// A reclamation domain: one epoch counter, one reader registry, one
/// garbage list. Every [`crate::Slot`] publishing through the same
/// domain shares its grace periods.
///
/// See the [module documentation](self) for the protocol. Thread
/// registration happens on a thread's first [`Domain::pin`] (one
/// registry-lock acquisition per thread per domain, ever); after that
/// the read side never takes a lock.
pub struct Domain {
    /// Distinguishes domains in the per-thread registration cache
    /// (registration outlives a dropped domain harmlessly: ids are
    /// never reused).
    id: u64,
    /// The global epoch. Starts above [`QUIESCENT`] and is advanced by
    /// every retirement.
    global_epoch: AtomicU64,
    readers: Mutex<Vec<Arc<ReaderSlot>>>,
    garbage: Mutex<Vec<Retired>>,
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("id", &self.id)
            // Diagnostic read; epoch publication itself is SeqCst.
            .field("epoch", &self.global_epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Source of unique [`Domain::id`]s across the process lifetime.
static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's reader slots, one per domain it has pinned in.
    /// The wrapper's destructor marks them dead so domains prune them.
    static REGISTRATIONS: RefCell<Registrations> = const { RefCell::new(Registrations(Vec::new())) };
}

struct Registrations(Vec<(u64, Arc<ReaderSlot>)>);

impl Drop for Registrations {
    fn drop(&mut self) {
        for (_, slot) in &self.0 {
            // No guard of this thread can outlive the thread, so the
            // slot is quiescent; flag it for pruning.
            slot.epoch.store(QUIESCENT, Ordering::SeqCst);
            slot.dead.store(true, Ordering::SeqCst);
        }
    }
}

/// An active read-side critical section; dropping it announces
/// quiescence. Obtained from [`Domain::pin`].
///
/// Guards are cheap and short-lived by design: [`crate::Slot::load`]
/// holds one only for the instant between loading the published
/// pointer and taking its own reference count on the value.
#[must_use = "dropping the guard is what announces quiescence"]
pub struct Guard<'a> {
    domain: &'a Domain,
    slot: Arc<ReaderSlot>,
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard")
            .field("domain", &self.domain.id)
            // Diagnostic read; slot epochs publish with SeqCst.
            .field("epoch", &self.slot.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let depth = self.slot.depth.load(Ordering::Relaxed);
        debug_assert!(depth > 0, "guard dropped twice");
        self.slot.depth.store(depth - 1, Ordering::Relaxed);
        if depth == 1 {
            self.slot.epoch.store(QUIESCENT, Ordering::SeqCst);
        }
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

/// Recover a possibly-poisoned guard: the registry and garbage list
/// are structurally valid after any panic (pushes and drains are
/// all-or-nothing), so a poisoned mutex only records that *some other*
/// state may be inconsistent — not this one.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Domain {
    /// A fresh domain with no registered readers and no garbage.
    pub fn new() -> Self {
        Domain {
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            // Epoch 0 is the QUIESCENT sentinel; start above it.
            global_epoch: AtomicU64::new(1),
            readers: Mutex::new(Vec::new()),
            garbage: Mutex::new(Vec::new()),
        }
    }

    /// Enters a read-side critical section: announces the current
    /// epoch in this thread's reader slot and returns the guard whose
    /// drop announces quiescence. Wait-free after the thread's first
    /// pin in this domain (which registers the slot once). Nested pins
    /// are permitted; the outermost guard owns the announcement.
    pub fn pin(&self) -> Guard<'_> {
        let slot = self.reader_slot();
        let depth = slot.depth.load(Ordering::Relaxed);
        slot.depth.store(depth + 1, Ordering::Relaxed);
        if depth == 0 {
            // SeqCst on both: the epoch announcement must be ordered
            // before any pointer load inside the critical section, and
            // a collector that already retired must either see this
            // announcement or be ordered entirely before it (in which
            // case the section reads the *new* pointer).
            let epoch = self.global_epoch.load(Ordering::SeqCst);
            slot.epoch.store(epoch, Ordering::SeqCst);
        }
        Guard { domain: self, slot }
    }

    /// This thread's reader slot for this domain, registering it on
    /// first use.
    fn reader_slot(&self) -> Arc<ReaderSlot> {
        REGISTRATIONS.with(|cell| {
            let mut regs = cell.borrow_mut();
            if let Some((_, slot)) = regs.0.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(slot);
            }
            let slot = Arc::new(ReaderSlot::new());
            recover(self.readers.lock()).push(Arc::clone(&slot));
            regs.0.push((self.id, Arc::clone(&slot)));
            slot
        })
    }

    /// Retires a value: it will be dropped once every reader pinned at
    /// or before the current epoch has announced quiescence. Advances
    /// the epoch and opportunistically [`collect`](Self::collect)s.
    pub fn retire<T: Send + 'static>(&self, item: T) {
        // The tag is the epoch the item was still reachable in: any
        // reader pinned in a *later* epoch loaded the replacement.
        let epoch = self.global_epoch.fetch_add(1, Ordering::SeqCst);
        recover(self.garbage.lock()).push(Retired {
            epoch,
            _item: Box::new(item),
        });
        self.collect();
    }

    /// Drops every retired value whose grace period has elapsed,
    /// returning how many were reclaimed. Writers call this via
    /// [`Self::retire`]; long-idle callers may call it directly to
    /// bound the garbage list.
    pub fn collect(&self) -> usize {
        let min_active = {
            let mut readers = recover(self.readers.lock());
            readers.retain(|r| !r.dead.load(Ordering::SeqCst));
            readers
                .iter()
                .map(|r| r.epoch.load(Ordering::SeqCst))
                .filter(|&e| e != QUIESCENT)
                .min()
                .unwrap_or(u64::MAX)
        };
        let reclaimable: Vec<Retired> = {
            let mut garbage = recover(self.garbage.lock());
            let (done, pending) = std::mem::take(&mut *garbage)
                .into_iter()
                .partition(|r| r.epoch < min_active);
            *garbage = pending;
            done
        };
        let n = reclaimable.len();
        // Drop outside the garbage lock: reclamation may run arbitrary
        // destructors (the whole point), and they must not be able to
        // re-enter the domain under its own lock.
        drop(reclaimable);
        n
    }

    /// Retired values still awaiting their grace period.
    pub fn pending(&self) -> usize {
        recover(self.garbage.lock()).len()
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // Exclusive access: no guard can borrow the domain any more,
        // so every remaining retired value is unreachable. Drop them.
        recover(self.garbage.lock()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payload that records its drop.
    struct Tracked(Arc<AtomicU64>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retired_values_reclaim_at_quiescence() {
        let drops = Arc::new(AtomicU64::new(0));
        let domain = Domain::new();
        domain.retire(Tracked(Arc::clone(&drops)));
        // No readers: the retire's own collect already reclaimed.
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(domain.pending(), 0);
    }

    #[test]
    fn active_reader_defers_reclamation() {
        let drops = Arc::new(AtomicU64::new(0));
        let domain = Domain::new();
        let guard = domain.pin();
        domain.retire(Tracked(Arc::clone(&drops)));
        assert_eq!(drops.load(Ordering::SeqCst), 0, "reader still pinned");
        assert_eq!(domain.pending(), 1);
        drop(guard);
        domain.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(domain.pending(), 0);
    }

    #[test]
    fn reader_pinned_after_retire_does_not_block_it() {
        // A pin taken in a strictly newer epoch (necessarily on another
        // thread: same-thread re-pins nest under the outer epoch)
        // cannot hold the retired value and must not extend its grace
        // period.
        let drops = Arc::new(AtomicU64::new(0));
        let domain = Arc::new(Domain::new());
        let early = domain.pin();
        domain.retire(Tracked(Arc::clone(&drops)));
        let pinned = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let d = Arc::clone(&domain);
            let (pinned2, release2) = (Arc::clone(&pinned), Arc::clone(&release));
            s.spawn(move || {
                let late = d.pin();
                pinned2.wait();
                release2.wait(); // hold the late pin across the collect
                drop(late);
            });
            pinned.wait();
            drop(early);
            domain.collect();
            assert_eq!(drops.load(Ordering::SeqCst), 1, "late pin blocked reclaim");
            release.wait();
        });
    }

    #[test]
    fn nested_pins_stay_pinned_until_outermost_drop() {
        let drops = Arc::new(AtomicU64::new(0));
        let domain = Domain::new();
        let outer = domain.pin();
        let inner = domain.pin();
        domain.retire(Tracked(Arc::clone(&drops)));
        drop(inner);
        domain.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "outer pin still active");
        drop(outer);
        domain.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cross_thread_readers_participate() {
        let drops = Arc::new(AtomicU64::new(0));
        let domain = Arc::new(Domain::new());
        let hold = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let d = Arc::clone(&domain);
            let (hold2, release2) = (Arc::clone(&hold), Arc::clone(&release));
            s.spawn(move || {
                let guard = d.pin();
                hold2.wait(); // pinned, let the main thread retire
                release2.wait(); // stay pinned across its collect
                drop(guard);
            });
            hold.wait();
            domain.retire(Tracked(Arc::clone(&drops)));
            domain.collect();
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "remote reader pinned before the retire must defer it"
            );
            release.wait();
        });
        domain.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dead_threads_are_pruned_from_the_registry() {
        let drops = Arc::new(AtomicU64::new(0));
        let domain = Arc::new(Domain::new());
        {
            let d = Arc::clone(&domain);
            std::thread::spawn(move || {
                let _guard = d.pin();
                // Guard dropped, then the thread's registration
                // destructor marks the slot dead.
            })
            .join()
            .unwrap();
        }
        domain.retire(Tracked(Arc::clone(&drops)));
        domain.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dead reader held the epoch");
    }

    #[test]
    fn domain_drop_reclaims_stragglers() {
        let drops = Arc::new(AtomicU64::new(0));
        {
            let domain = Domain::new();
            let guard = domain.pin();
            domain.retire(Tracked(Arc::clone(&drops)));
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            drop(guard);
            // No explicit collect: the domain's own drop must not leak.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
