//! A monotone statistic nothing synchronizes on.
//!
//! Outside this crate's own QSBR/slot internals, [`Counter`] is the one
//! place in the workspace that says `Ordering::Relaxed`, and the
//! argument for it is written here once: a counter publishes no other
//! data. Nobody reads a `Counter` to decide whether some *other* memory
//! is safe to touch, so no happens-before edge has to hang off it —
//! the only requirements are that increments are never lost (every
//! update is an atomic read-modify-write) and that each reader sees
//! some value the counter actually held (per-location coherence, which
//! `Relaxed` guarantees). Anything a thread does synchronize on — a
//! stop flag, a published pointer, an epoch — is not a counter and
//! must use Acquire/Release or stronger; `tests/workspace_lints.rs`
//! rejects `Ordering::Relaxed` in non-test code outside this crate.
//!
//! Every method is `#[inline]`: the release profile has no LTO and
//! these sit on the engine's per-host descent path.

use std::sync::atomic::{AtomicU64, Ordering};

/// A `u64` tally: tickets, cache clocks, telemetry.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[inline]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one and returns the value *before* the increment, so
    /// concurrent callers each get a distinct number (tickets, ids).
    #[inline]
    pub fn incr(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_returns_the_previous_value() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        assert_eq!(c.incr(), 0);
        assert_eq!(c.incr(), 1);
        c.add(40);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_adds_sum() {
        static C: Counter = Counter::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    for _ in 0..1000 {
                        C.add(t);
                        C.incr();
                    }
                });
            }
        });
        assert_eq!(C.get(), 1000 * (0..8).sum::<u64>() + 8000);
    }
}
