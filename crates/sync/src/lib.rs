//! # vc-sync — wait-free snapshot publication primitives
//!
//! The placement engine's read side (scoring, capacity prefiltering,
//! interference probes, rebalance planning) wants a *consistent* view
//! of mutable per-host state without ever contending with the writers
//! that commit and release capacity. This crate provides the two
//! building blocks that make those reads wait-free, plus the test
//! harness that lets their interleavings be checked exhaustively:
//!
//! * [`qsbr::Domain`] — quiescent-state-based reclamation: readers
//!   announce an epoch around each access (two uncontended atomic
//!   stores, no shared read-modify-write, no locks), writers retire
//!   superseded values and reclaim them only once every reader that
//!   could still hold a reference has passed through a quiescent state.
//! * [`slot::Slot`] — a single-slot atomically-published `Arc<T>`.
//!   Writers [`store`](slot::Slot::store) a fresh immutable value;
//!   readers [`load`](slot::Slot::load) the current one wait-free and
//!   keep it alive through their own reference count. The unsafe
//!   window between loading the raw pointer and taking that reference
//!   is protected by the QSBR grace period.
//! * [`counter::Counter`] — a `Relaxed` statistic nothing synchronizes
//!   on; the one home of that ordering outside this crate's internals.
//! * [`cache::KeyedCache`] — the workspace's one memo: compute-once per
//!   key, LRU-bounded, counted with [`Counter`]s. It lives here because
//!   both `vc-sim` (co-location penalties) and `vc-engine` (catalogs,
//!   training sets, models) need it and it needs nothing but `std`.
//! * [`lock`] — lock discipline as borrows: a [`LockScope`] grants
//!   [`ScopedMutex`] guards and is shared-borrowed by whatever must not
//!   run under one, and [`LeafMutex`]es are entered under a witness, so
//!   double-locking, lock cycles and simulation under a host lock do
//!   not compile (the `compile_fail` doctests there pin each case).
//! * [`stress`] — a loom-style interleaving explorer with pluggable
//!   backends ([`stress::Explorer::Exhaustive`] enumerates *every*
//!   feasible schedule of the modelled steps;
//!   [`stress::Explorer::Sampled`] random-walks larger models), so
//!   publication protocols are model-checked, not just stress-tested.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vc_sync::{Domain, Slot};
//!
//! let domain = Domain::new();
//! let slot = Slot::new(Arc::new(1u64));
//!
//! // Readers are wait-free and keep what they loaded alive.
//! let before = slot.load(&domain);
//! slot.store(Arc::new(2), &domain); // publish; retire the old value
//! let after = slot.load(&domain);
//! assert_eq!((*before, *after), (1, 2));
//!
//! // The publisher's reference to the superseded value was retired to
//! // the domain and reclaimed at the next quiescent point; `before`'s
//! // own reference keeps the allocation alive until it drops.
//! assert_eq!(domain.pending(), 0);
//! ```

#![warn(missing_docs)]
// The rest of the workspace forbids `unsafe` outright
// (`[workspace.lints.rust]`); this crate cannot, so it denies it at the
// root and `slot.rs` alone re-allows it.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod counter;
pub mod lock;
pub mod qsbr;
pub mod slot;
pub mod stress;

pub use cache::{CacheCounters, KeyedCache};
pub use counter::Counter;
pub use lock::{LeafMutex, LockScope, ScopedGuard, ScopedMutex, Witness};
pub use qsbr::{Domain, Guard};
pub use slot::Slot;
pub use stress::{Explorer, Report, Step, Violation};
