//! Single-slot atomically-published `Arc<T>`.
//!
//! The slot holds exactly one published value. Writers swap in a fresh
//! `Arc<T>` and retire the superseded publisher reference to a QSBR
//! [`Domain`]; readers load the current value wait-free and keep it
//! alive through their own reference count.
//!
//! This is the only module in the workspace that contains `unsafe`
//! code, and all of it serves one narrow hazard: between a reader
//! loading the raw pointer and incrementing the strong count, a writer
//! may swap the slot and drop the publisher's reference — if that were
//! the *last* reference, the reader would increment a freed count.
//! The QSBR pin closes exactly that window: the publisher's reference
//! is retired, not dropped, and reclamation waits for the reader's
//! quiescence.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use crate::qsbr::Domain;

/// A single-slot wait-free publication cell for `Arc<T>`.
///
/// All loads and stores are total-order (SeqCst) operations: a store
/// that completes before a load begins is always observed, so a writer
/// that publishes *before* releasing its commit lock guarantees every
/// subsequent reader sees state at least that fresh.
pub struct Slot<T: Send + Sync + 'static> {
    /// Always a valid pointer obtained from `Arc::into_raw`; the slot
    /// owns one strong count on whatever it currently points to.
    ptr: AtomicPtr<T>,
}

impl<T: Send + Sync + 'static> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").finish_non_exhaustive()
    }
}

impl<T: Send + Sync + 'static> Slot<T> {
    /// A slot initially publishing `value`.
    pub fn new(value: Arc<T>) -> Self {
        Slot {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
        }
    }

    /// Loads the currently published value, wait-free. The returned
    /// `Arc` carries its own strong count, so it stays valid for as
    /// long as the caller keeps it — independent of later stores.
    pub fn load(&self, domain: &Domain) -> Arc<T> {
        // The pin must cover the load→increment window: a concurrent
        // `store` retires (not drops) the slot's old reference, and the
        // domain defers its reclamation past our quiescence.
        let _guard = domain.pin();
        let ptr = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` (invariant of `new`
        // and `store`) and the slot's strong count on it cannot be
        // released while we are pinned: `store` hands that count to
        // `Domain::retire`, whose grace period outlasts this guard.
        unsafe { Arc::increment_strong_count(ptr) };
        // SAFETY: we just minted a strong count for this reconstruction,
        // so the returned Arc owns exactly one count.
        unsafe { Arc::from_raw(ptr) }
    }

    /// Publishes `value`, retiring the previously published reference
    /// to `domain` for deferred reclamation. Callers serialise stores
    /// externally (the engine publishes under its per-host commit
    /// lock); concurrent stores are safe but may reclaim in either
    /// order.
    pub fn store(&self, value: Arc<T>, domain: &Domain) {
        let fresh = Arc::into_raw(value).cast_mut();
        let old = self.ptr.swap(fresh, Ordering::SeqCst);
        // SAFETY: `old` came from `Arc::into_raw` and the slot held one
        // strong count on it; the swap transferred that count to us and
        // no other path will release it. Reconstructing the Arc and
        // retiring it defers the drop past all current readers.
        let superseded = unsafe { Arc::from_raw(old) };
        domain.retire(superseded);
    }
}

impl<T: Send + Sync + 'static> Drop for Slot<T> {
    fn drop(&mut self) {
        // Exclusive access: no reader can be mid-load (they borrow the
        // slot), so the slot's own strong count can be released
        // directly.
        let ptr = *self.ptr.get_mut();
        // SAFETY: the slot owns one strong count on `ptr` (invariant of
        // `new`/`store`); this reconstruction releases exactly that
        // count.
        drop(unsafe { Arc::from_raw(ptr) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    struct Tracked(u64, Arc<Counter>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_returns_latest_store() {
        let domain = Domain::new();
        let slot = Slot::new(Arc::new(10u64));
        assert_eq!(*slot.load(&domain), 10);
        slot.store(Arc::new(11), &domain);
        slot.store(Arc::new(12), &domain);
        assert_eq!(*slot.load(&domain), 12);
    }

    #[test]
    fn superseded_values_drop_once_readers_quiesce() {
        let drops = Arc::new(Counter::new(0));
        let domain = Domain::new();
        let slot = Slot::new(Arc::new(Tracked(1, Arc::clone(&drops))));
        let held = slot.load(&domain);
        slot.store(Arc::new(Tracked(2, Arc::clone(&drops))), &domain);
        // The publisher's reference was retired and reclaimed at the
        // next quiescent point; `held`'s own count keeps the value.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(held.0, 1);
        drop(held);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn slot_drop_releases_current_value() {
        let drops = Arc::new(Counter::new(0));
        let domain = Domain::new();
        {
            let slot = Slot::new(Arc::new(Tracked(1, Arc::clone(&drops))));
            slot.store(Arc::new(Tracked(2, Arc::clone(&drops))), &domain);
            assert_eq!(drops.load(Ordering::SeqCst), 1, "old value reclaimed");
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2, "slot drop leaked");
    }

    #[test]
    fn concurrent_readers_never_observe_a_freed_value() {
        // Stress (not proof — the stress shim holds the proof): many
        // readers hammer loads while a writer republishes; every load
        // must observe a fully-alive value with a coherent payload.
        let domain = Arc::new(Domain::new());
        let slot = Arc::new(Slot::new(Arc::new((0u64, !0u64))));
        let stop = Arc::new(Counter::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (slot, domain, stop) =
                    (Arc::clone(&slot), Arc::clone(&domain), Arc::clone(&stop));
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        let v = slot.load(&domain);
                        assert_eq!(v.0, !v.1, "torn or freed payload");
                    }
                });
            }
            for i in 1..=2000u64 {
                slot.store(Arc::new((i, !i)), &domain);
            }
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(*slot.load(&domain), (2000, !2000), "the last store wins");
        domain.collect();
        assert_eq!(domain.pending(), 0);
    }
}
