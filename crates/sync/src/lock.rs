//! Lock discipline carried by the borrow checker.
//!
//! The engine's freedom from deadlock and from O(model) critical
//! sections rests on three rules: no lock is taken while another of its
//! class is held (one caller-ordered pair excepted), the lock order has
//! no cycle, and nothing that simulates or blocks runs under a host
//! lock. This module turns each of them into a compile error:
//!
//! * A [`LockScope`] is the one capability that takes a
//!   [`ScopedMutex`]. [`ScopedMutex::lock`] borrows it *mutably* for as
//!   long as the returned guard lives, so a second lock under a live
//!   guard — directly, or through any helper that asks for
//!   `&mut LockScope` — is a second mutable borrow (E0499). Two guards
//!   live together only when [`ScopedMutex::lock_two`] handed them out.
//! * Work that must never run under a scoped lock takes `&LockScope`. A
//!   shared borrow cannot coexist with a guard's mutable one (E0502),
//!   however deep the helper chain that reaches it.
//! * A [`LeafMutex`] is entered through a [`Witness`] — the scope, or a
//!   live guard — mutably borrowed for the call, so the closure can
//!   capture neither: nothing is locked inside a leaf.
//!
//! The only order a thread can take locks in is therefore scope → at
//! most two scoped locks → one leaf, which is acyclic by construction.
//! In release builds a scope is one `u64` ([`LockScope::granted`]) and
//! a guard is the `std` guard it wraps. Debug builds also assert that a
//! thread holds one live scope at a time, so a public entry point
//! reached from under a guard panics in every debug test run.
//!
//! Poisoned locks are recovered — every critical section this crate's
//! users write is all-or-nothing — and each recovery is counted on the
//! mutex ([`ScopedMutex::recoveries`], [`LeafMutex::recoveries`]).
//!
//! # Example
//!
//! ```
//! use vc_sync::lock::{LeafMutex, LockScope, ScopedMutex};
//!
//! let (a, b) = (ScopedMutex::new(vec![1, 2]), ScopedMutex::new(Vec::new()));
//! let moved_to = LeafMutex::new(Vec::new());
//! let mut scope = LockScope::new();
//!
//! // Scope → two host locks (caller-ordered) → a leaf, witnessed by a guard.
//! let (mut src, mut dst) = ScopedMutex::lock_two(&a, &b, &mut scope);
//! let item = src.pop().unwrap();
//! dst.push(item);
//! moved_to.with(&mut dst, |log| log.push(item));
//! drop((src, dst));
//!
//! // With no guard live, the leaf is entered on the scope itself.
//! assert_eq!(moved_to.with(&mut scope, |log| log.clone()), [2]);
//! assert_eq!(scope.granted(), 2);
//! ```

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

use crate::Counter;

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a live [`LockScope`].
    static SCOPE_LIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The capability to take [`ScopedMutex`]es, and the shared borrow that
/// proves none is held.
///
/// `!Send` (the debug live-scope flag is per thread) but `Sync`, so
/// scoped worker threads can share a `&LockScope`.
///
/// Anything that may simulate takes `&LockScope`, so it cannot run
/// under a live guard (successor of `vc-lint`'s `sim_under_lock`):
///
/// ```compile_fail,E0502
/// # use vc_sync::lock::{LockScope, ScopedMutex};
/// fn co_location_penalty(_: &LockScope, residents: &[u32]) -> u32 { residents.len() as u32 }
/// let host = ScopedMutex::new(vec![1u32, 2]);
/// let view = vec![1u32, 2];
/// let mut scope = LockScope::new();
/// let mut st = host.lock(&mut scope);
/// let penalty = co_location_penalty(&scope, &view);
/// st.push(penalty);
/// ```
///
/// Its twin scores first, on a view, and locks only to commit:
///
/// ```
/// # use vc_sync::lock::{LockScope, ScopedMutex};
/// # fn co_location_penalty(_: &LockScope, residents: &[u32]) -> u32 { residents.len() as u32 }
/// # let host = ScopedMutex::new(vec![1u32, 2]);
/// # let view = vec![1u32, 2];
/// # let mut scope = LockScope::new();
/// let penalty = co_location_penalty(&scope, &view);
/// let mut st = host.lock(&mut scope);
/// st.push(penalty);
/// ```
///
/// No helper chain hides it (`transitive_sim_under_lock`):
///
/// ```compile_fail,E0502
/// # use vc_sync::lock::{LockScope, ScopedMutex};
/// fn co_location_penalty(_: &LockScope, residents: &[u32]) -> u32 { residents.len() as u32 }
/// fn estimate_interference(scope: &LockScope, r: &[u32]) -> u32 { co_location_penalty(scope, r) }
/// fn refresh_score(scope: &LockScope, r: &[u32]) -> u32 { estimate_interference(scope, r) }
/// let host = ScopedMutex::new(vec![1u32, 2]);
/// let view = vec![1u32, 2];
/// let mut scope = LockScope::new();
/// let mut st = host.lock(&mut scope);
/// let penalty = refresh_score(&scope, &view);
/// st.push(penalty);
/// ```
///
/// ```
/// # use vc_sync::lock::{LockScope, ScopedMutex};
/// # fn co_location_penalty(_: &LockScope, residents: &[u32]) -> u32 { residents.len() as u32 }
/// # fn estimate_interference(scope: &LockScope, r: &[u32]) -> u32 { co_location_penalty(scope, r) }
/// # fn refresh_score(scope: &LockScope, r: &[u32]) -> u32 { estimate_interference(scope, r) }
/// # let host = ScopedMutex::new(vec![1u32, 2]);
/// # let view = vec![1u32, 2];
/// # let mut scope = LockScope::new();
/// let penalty = refresh_score(&scope, &view);
/// let mut st = host.lock(&mut scope);
/// st.push(penalty);
/// ```
pub struct LockScope {
    granted: u64,
    _per_thread: PhantomData<MutexGuard<'static, ()>>,
}

impl LockScope {
    /// Opens the calling thread's scope. Create one per public entry
    /// point and pass it down; debug builds panic if the thread already
    /// holds a live one.
    #[allow(clippy::new_without_default)] // a `Default` would be a second, unaudited way in
    pub fn new() -> Self {
        #[cfg(debug_assertions)]
        SCOPE_LIVE.with(|live| {
            assert!(
                !live.replace(true),
                "a LockScope is already live on this thread: an entry point was reached from inside another"
            );
        });
        LockScope {
            granted: 0,
            _per_thread: PhantomData,
        }
    }

    /// Scoped-mutex acquisitions this scope granted so far (a
    /// [`ScopedMutex::lock_two`] counts two). Leaf entries are not
    /// counted.
    pub fn granted(&self) -> u64 {
        self.granted
    }
}

impl Drop for LockScope {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        let _ = SCOPE_LIVE.try_with(|live| live.set(false));
    }
}

/// Locks `m`, recovering (and counting) a poisoned guard.
fn acquire<'a, T>(m: &'a Mutex<T>, recoveries: &Counter) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| {
        recoveries.incr();
        poisoned.into_inner()
    })
}

/// A mutex only a [`LockScope`] can take — the engine's host locks.
#[derive(Debug)]
pub struct ScopedMutex<T> {
    inner: Mutex<T>,
    recoveries: Counter,
}

impl<T> ScopedMutex<T> {
    /// An unlocked mutex around `value`.
    pub const fn new(value: T) -> Self {
        ScopedMutex {
            inner: Mutex::new(value),
            recoveries: Counter::new(),
        }
    }

    /// Locks the mutex for as long as the guard borrows `scope`.
    ///
    /// A second lock under a live guard is a second mutable borrow of
    /// the scope (successor of `vc-lint`'s `unordered_double_lock`):
    ///
    /// ```compile_fail,E0499
    /// # use vc_sync::lock::{LockScope, ScopedMutex};
    /// let (a, b) = (ScopedMutex::new(vec![1]), ScopedMutex::new(Vec::new()));
    /// let mut scope = LockScope::new();
    /// let (mut src, mut dst) = (a.lock(&mut scope), b.lock(&mut scope));
    /// dst.append(&mut src);
    /// ```
    ///
    /// Its twin takes the pair through [`Self::lock_two`]:
    ///
    /// ```
    /// # use vc_sync::lock::{LockScope, ScopedMutex};
    /// # let (a, b) = (ScopedMutex::new(vec![1]), ScopedMutex::new(Vec::new()));
    /// # let mut scope = LockScope::new();
    /// let (mut src, mut dst) = ScopedMutex::lock_two(&a, &b, &mut scope);
    /// dst.append(&mut src);
    /// ```
    ///
    /// A helper that locks for itself asks for `&mut LockScope`, so it
    /// cannot be called under a guard either (`interproc_double_lock`):
    ///
    /// ```compile_fail,E0499
    /// # use vc_sync::lock::{LockScope, ScopedMutex};
    /// fn evict_cold(cold: &ScopedMutex<Vec<u32>>, scope: &mut LockScope) {
    ///     cold.lock(scope).clear();
    /// }
    /// let (hot, cold) = (ScopedMutex::new(vec![1]), ScopedMutex::new(vec![2]));
    /// let mut scope = LockScope::new();
    /// {
    ///     let mut st = hot.lock(&mut scope);
    ///     st.push(3);
    ///     evict_cold(&cold, &mut scope);
    /// }
    /// ```
    ///
    /// Its twin calls the helper once the guard is gone:
    ///
    /// ```
    /// # use vc_sync::lock::{LockScope, ScopedMutex};
    /// # fn evict_cold(cold: &ScopedMutex<Vec<u32>>, scope: &mut LockScope) {
    /// #     cold.lock(scope).clear();
    /// # }
    /// # let (hot, cold) = (ScopedMutex::new(vec![1]), ScopedMutex::new(vec![2]));
    /// # let mut scope = LockScope::new();
    /// {
    ///     let mut st = hot.lock(&mut scope);
    ///     st.push(3);
    /// }
    /// evict_cold(&cold, &mut scope);
    /// ```
    pub fn lock<'s>(&'s self, scope: &'s mut LockScope) -> ScopedGuard<'s, T> {
        scope.granted += 1;
        ScopedGuard::new(acquire(&self.inner, &self.recoveries))
    }

    /// Locks two distinct mutexes, `first` then `second` — the one way
    /// to hold two guards at once. The caller owns the order (the
    /// engine sorts by machine id), which makes it the one place a lock
    /// order is decided. Panics if both are the same mutex.
    ///
    /// Both guards hold the scope, so nothing that needs `&LockScope`
    /// runs under either (`transitive_sim_under_lock`, pair edition):
    ///
    /// ```compile_fail,E0502
    /// # use vc_sync::lock::{LockScope, ScopedMutex};
    /// fn co_location_penalty(_: &LockScope, residents: &[u32]) -> u32 { residents.len() as u32 }
    /// fn refresh_score(scope: &LockScope, r: &[u32]) -> u32 { co_location_penalty(scope, &r[1..]) }
    /// let (a, b) = (ScopedMutex::new(vec![1u32]), ScopedMutex::new(vec![2u32]));
    /// let view = vec![1u32, 2];
    /// let mut scope = LockScope::new();
    /// let (mut src, mut dst) = ScopedMutex::lock_two(&a, &b, &mut scope);
    /// let penalty = refresh_score(&scope, &view);
    /// dst.push(src.pop().unwrap() + penalty);
    /// ```
    ///
    /// ```
    /// # use vc_sync::lock::{LockScope, ScopedMutex};
    /// # fn co_location_penalty(_: &LockScope, residents: &[u32]) -> u32 { residents.len() as u32 }
    /// # fn refresh_score(scope: &LockScope, r: &[u32]) -> u32 { co_location_penalty(scope, &r[1..]) }
    /// # let (a, b) = (ScopedMutex::new(vec![1u32]), ScopedMutex::new(vec![2u32]));
    /// # let view = vec![1u32, 2];
    /// # let mut scope = LockScope::new();
    /// let penalty = refresh_score(&scope, &view);
    /// let (mut src, mut dst) = ScopedMutex::lock_two(&a, &b, &mut scope);
    /// dst.push(src.pop().unwrap() + penalty);
    /// ```
    pub fn lock_two<'s>(
        first: &'s Self,
        second: &'s Self,
        scope: &'s mut LockScope,
    ) -> (ScopedGuard<'s, T>, ScopedGuard<'s, T>) {
        assert!(!std::ptr::eq(first, second), "lock_two needs two distinct mutexes");
        scope.granted += 2;
        let held = ScopedGuard::new(acquire(&first.inner, &first.recoveries));
        (held, ScopedGuard::new(acquire(&second.inner, &second.recoveries)))
    }

    /// Poisoned acquisitions recovered so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// Whether a guard holder panicked (poison is sticky: every later
    /// acquisition recovers it and counts in [`Self::recoveries`]).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// A held [`ScopedMutex`]; keeps its [`LockScope`] mutably borrowed.
pub struct ScopedGuard<'s, T> {
    guard: MutexGuard<'s, T>,
    _scope: PhantomData<&'s mut LockScope>,
}

impl<'s, T> ScopedGuard<'s, T> {
    fn new(guard: MutexGuard<'s, T>) -> Self {
        ScopedGuard {
            guard,
            _scope: PhantomData,
        }
    }
}

impl<T> Deref for ScopedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for ScopedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Proof that the caller may enter a [`LeafMutex`]: the [`LockScope`]
/// itself, or a live [`ScopedGuard`]. Sealed — nothing else can vouch.
pub trait Witness: sealed::Sealed {}

impl Witness for LockScope {}
impl<T> Witness for ScopedGuard<'_, T> {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::LockScope {}
    impl<T> Sealed for super::ScopedGuard<'_, T> {}
}

/// A mutex at the bottom of the lock order: short bookkeeping (a map
/// insert, a lookup) entered under a [`Witness`], with nothing locked
/// inside.
#[derive(Debug, Default)]
pub struct LeafMutex<T> {
    inner: Mutex<T>,
    recoveries: Counter,
}

impl<T> LeafMutex<T> {
    /// An unlocked leaf around `value`.
    pub const fn new(value: T) -> Self {
        LeafMutex {
            inner: Mutex::new(value),
            recoveries: Counter::new(),
        }
    }

    /// Runs `f` on the locked value. The witness stays mutably borrowed
    /// for the call, so `f` cannot capture it — and so cannot enter
    /// another leaf (successor of `vc-lint`'s `cyclic_lock_order`):
    ///
    /// ```compile_fail,E0499
    /// # use vc_sync::lock::{LeafMutex, LockScope};
    /// let (admission, journal) = (LeafMutex::new(5usize), LeafMutex::new(vec![1u64]));
    /// let mut scope = LockScope::new();
    /// let n = admission.with(&mut scope, |adm| journal.with(&mut scope, |jrn| jrn.len() + *adm));
    /// assert_eq!(n, 6);
    /// ```
    ///
    /// ```
    /// # use vc_sync::lock::{LeafMutex, LockScope};
    /// # let (admission, journal) = (LeafMutex::new(5usize), LeafMutex::new(vec![1u64]));
    /// # let mut scope = LockScope::new();
    /// let n = admission.with(&mut scope, |adm| *adm) + journal.with(&mut scope, |jrn| jrn.len());
    /// assert_eq!(n, 6);
    /// ```
    ///
    /// — nor take a scoped lock, which would invert the order:
    ///
    /// ```compile_fail,E0499
    /// # use vc_sync::lock::{LeafMutex, LockScope, ScopedMutex};
    /// let (host, journal) = (ScopedMutex::new(vec![1u64]), LeafMutex::new(vec![2u64]));
    /// let mut scope = LockScope::new();
    /// let n = journal.with(&mut scope, |jrn| jrn.len() + host.lock(&mut scope).len());
    /// assert_eq!(n, 2);
    /// ```
    ///
    /// Its twin takes the host first and enters the leaf on its guard:
    ///
    /// ```
    /// # use vc_sync::lock::{LeafMutex, LockScope, ScopedMutex};
    /// # let (host, journal) = (ScopedMutex::new(vec![1u64]), LeafMutex::new(vec![2u64]));
    /// # let mut scope = LockScope::new();
    /// let n = { let mut st = host.lock(&mut scope); st.len() + journal.with(&mut st, |jrn| jrn.len()) };
    /// assert_eq!(n, 2);
    /// ```
    pub fn with<R>(&self, _witness: &mut impl Witness, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut acquire(&self.inner, &self.recoveries))
    }

    /// Poisoned acquisitions recovered so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// Whether a closure panicked while holding the leaf.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_are_recovered_and_counted() {
        let (host, leaf) = (ScopedMutex::new(1u32), LeafMutex::new(2u32));
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let mut scope = LockScope::new();
                    let mut guard = host.lock(&mut scope);
                    leaf.with(&mut guard, |_| panic!("died holding both"));
                })
                .join();
        });
        assert!(host.is_poisoned() && leaf.is_poisoned());
        let mut scope = LockScope::new();
        *host.lock(&mut scope) += 1;
        assert_eq!(leaf.with(&mut scope, |v| *v), 2);
        assert_eq!((host.recoveries(), leaf.recoveries()), (1, 1));
        assert_eq!(scope.granted(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already live on this thread")]
    fn a_second_live_scope_on_one_thread_panics_in_debug() {
        let _outer = LockScope::new();
        let _inner = LockScope::new();
    }
}
