//! Keyed, thread-safe, compute-once caches with LRU bounding and
//! hit/compute/eviction statistics.
//!
//! The engine's expensive intermediates (placement catalogs, training
//! sets, trained models) and `vc-sim`'s co-location penalties are
//! memoized behind [`KeyedCache`]s. Each key owns a [`OnceLock`] cell:
//! when several threads request the same missing key concurrently,
//! exactly one runs the compute closure and the rest block on the cell
//! — repeated work is structurally impossible, not just unlikely.
//!
//! A cache built with [`KeyedCache::bounded`] additionally evicts the
//! least-recently-used *completed* entry once the resident key count
//! exceeds the bound, so long-lived engines serving many
//! `(vcpus, family)` combinations stay bounded in memory. In-flight
//! cells (a compute still running) are never evicted; an evicted key is
//! simply recomputed on its next request. Recency is a logical clock
//! stamped per lookup, so which entry goes is a function of the lookup
//! history alone — never of the map's hash seed.
//!
//! The victim is the completed entry with the lowest stamp other than
//! the key being served, exactly what a scan of the whole map for it
//! would pick; finding it does not scan. A refill takes the cut-off
//! stamp of the 64 (at most `capacity`) oldest evictable entries and
//! queues every `(stamp, key)` pair at or below it, oldest first. Every
//! stamp handed out later is newer than all of them, so a queued pair
//! whose key still carries that stamp is older than every key outside
//! the queue, and the first such pair that is completed and not the
//! caller's is the victim; a pair whose key was stamped again or
//! removed is dropped as it is met. An eviction therefore costs one
//! hash probe per queued pair it inspects. A queue that holds no victim
//! is refilled by two passes over the map (one finds the cut-off, one
//! copies the keys out), allocating nothing beyond the queue; a fresh
//! queue holds a victim whenever the map does. A cache missing on every
//! lookup refills once per 64 evictions, or once per `capacity` below
//! 64 entries. At worst, when every other queued key is used again
//! before it is needed, each eviction refills: two passes where a scan
//! was one.
//!
//! The map's mutex is a plain `std` leaf rather than a
//! [`crate::lock::LeafMutex`]: it is private to this file, and nothing
//! is called while it is held — `f` runs after the map lock drops. The
//! lock is held for one map probe (and insert) per lookup, and, when
//! the map is over its bound, for the evictions that bring it back:
//! the queue probes above, plus a refill when the queue holds no victim.

use std::borrow::Borrow;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::Counter;

/// Most `(stamp, key)` pairs a refill of the eviction queue keeps
/// evictable (see the module docs).
const QUEUE_LEN: usize = 64;

/// Snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Total `get_or_compute` calls.
    pub lookups: u64,
    /// Times the compute closure actually ran (cold misses).
    pub computes: u64,
    /// Entries dropped by the LRU bound (0 on unbounded caches).
    pub evictions: u64,
}

impl CacheCounters {
    /// Lookups that were served without running the compute closure.
    pub fn hits(&self) -> u64 {
        self.lookups - self.computes
    }
}

/// One resident cache slot: the compute-once cell plus its recency
/// stamp.
struct Slot<V> {
    cell: Arc<OnceLock<V>>,
    last_used: u64,
}

/// Everything the map mutex guards.
struct Entries<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Logical clock: the stamp of the latest lookup. It advances under
    /// the lock, so stamps are ordered as the lookups took the map.
    tick: u64,
    /// Eviction candidates, oldest first: the oldest `(stamp, key)`
    /// pairs of the last refill pass (see the module docs).
    oldest: VecDeque<(u64, K)>,
}

impl<K: Eq + Hash + Clone, V> Entries<K, V> {
    /// Whether `key` may be evicted while `just_used` is being served.
    fn evictable<Q>(key: &K, slot: &Slot<V>, just_used: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        key.borrow() != just_used && slot.cell.get().is_some()
    }

    /// Takes the first queued pair that is still current and evictable,
    /// dropping the stale pairs met before it.
    fn queued_victim<Q>(&mut self, just_used: &Q) -> Option<K>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut i = 0;
        while let Some((stamp, key)) = self.oldest.get(i) {
            match self.map.get::<K>(key) {
                Some(slot) if slot.last_used == *stamp => {
                    if Self::evictable(key, slot, just_used) {
                        return self.oldest.remove(i).map(|(_, key)| key);
                    }
                    i += 1;
                }
                _ => {
                    self.oldest.remove(i);
                }
            }
        }
        None
    }

    /// Refills the queue: one pass finds the newest stamp among the
    /// `keep` oldest evictable entries, a second copies out every key at
    /// or below it, in flight or not, so that each key left out is newer
    /// than each queued pair. The queue then holds the oldest evictable
    /// entry, or is empty when there is none.
    fn refill<Q>(&mut self, keep: usize, just_used: &Q)
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut kept = BinaryHeap::with_capacity(keep);
        for (key, slot) in &self.map {
            if !Self::evictable(key, slot, just_used) {
                continue;
            }
            if kept.len() < keep {
                kept.push(slot.last_used);
            } else if let Some(mut newest) = kept.peek_mut() {
                if slot.last_used < *newest {
                    *newest = slot.last_used;
                }
            }
        }
        self.oldest.clear();
        let Some(&cutoff) = kept.peek() else {
            return;
        };
        let mut oldest: Vec<(u64, K)> = self
            .map
            .iter()
            .filter(|(_, slot)| slot.last_used <= cutoff)
            .map(|(key, slot)| (slot.last_used, key.clone()))
            .collect();
        oldest.sort_unstable_by_key(|&(stamp, _)| stamp);
        self.oldest = oldest.into();
    }
}

/// A compute-once cache from `K` to `V`, optionally LRU-bounded.
///
/// `V` is cloned out on every lookup, so values should be cheap to clone
/// (the engine stores `Result<Arc<T>, E>`).
pub struct KeyedCache<K, V> {
    entries: Mutex<Entries<K, V>>,
    /// Maximum resident keys; 0 means unbounded.
    capacity: usize,
    lookups: Counter,
    computes: Counter,
    evictions: Counter,
}

impl<K, V> Default for KeyedCache<K, V> {
    fn default() -> Self {
        Self::bounded(0)
    }
}

impl<K, V> KeyedCache<K, V> {
    /// A cache evicting least-recently-used entries beyond `capacity`
    /// resident keys (`0` = unbounded).
    pub fn bounded(capacity: usize) -> Self {
        KeyedCache {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                tick: 0,
                oldest: VecDeque::new(),
            }),
            capacity,
            lookups: Counter::new(),
            computes: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The configured bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, Entries<K, V>> {
        self.entries.lock().expect("cache lock poisoned")
    }
}

impl<K: Eq + Hash + Clone, V: Clone> KeyedCache<K, V> {
    /// Returns the cached value for `key`, computing it with `f` on the
    /// first request. The key is borrowed: a hit copies nothing, a miss
    /// makes the owned key with [`ToOwned`]. Concurrent requests for
    /// the same missing key run `f` exactly once; the map lock is *not*
    /// held while `f` runs, so unrelated keys never contend. On bounded
    /// caches the insert may evict the least-recently-used completed
    /// entry.
    pub fn get_or_compute<Q, F>(&self, key: &Q, f: F) -> V
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
        F: FnOnce() -> V,
    {
        self.lookups.incr();
        let (cell, oversized) = {
            let mut entries = self.lock();
            let entries = &mut *entries;
            entries.tick += 1;
            let stamp = entries.tick;
            let cell = match entries.map.get_mut(key) {
                Some(slot) => {
                    slot.last_used = stamp;
                    Arc::clone(&slot.cell)
                }
                None => {
                    let cell = Arc::new(OnceLock::new());
                    let slot = Slot {
                        cell: Arc::clone(&cell),
                        last_used: stamp,
                    };
                    entries.map.insert(key.to_owned(), slot);
                    cell
                }
            };
            (cell, self.capacity > 0 && entries.map.len() > self.capacity)
        };
        let value = cell
            .get_or_init(|| {
                self.computes.incr();
                f()
            })
            .clone();
        // The map only grows on insert, so the common hit path never
        // retakes the lock; an oversized map (a fresh insert, or an
        // earlier eviction blocked by in-flight computes) is drained
        // after the value is ready.
        if oversized {
            self.evict_beyond_capacity(key);
        }
        value
    }

    /// Evicts least-recently-used *completed* entries until the cache
    /// fits its bound. `just_used` (the key serving the current caller)
    /// and in-flight cells are never evicted; if only those remain, the
    /// cache is temporarily allowed to exceed the bound.
    fn evict_beyond_capacity<Q>(&self, just_used: &Q)
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        let mut entries = self.lock();
        while entries.map.len() > self.capacity {
            let victim = entries.queued_victim(just_used).or_else(|| {
                entries.refill(self.capacity.min(QUEUE_LEN), just_used);
                entries.queued_victim(just_used)
            });
            match victim {
                Some(key) => {
                    entries.map.remove::<K>(&key);
                    self.evictions.incr();
                }
                None => break,
            }
        }
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            lookups: self.lookups.get(),
            computes: self.computes.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of distinct keys resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn computes_once_per_key() {
        let cache: KeyedCache<u32, u32> = KeyedCache::default();
        let runs = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = cache.get_or_compute(&7, || {
                runs.fetch_add(1, Ordering::Relaxed);
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let c = cache.counters();
        assert_eq!(c.lookups, 5);
        assert_eq!(c.computes, 1);
        assert_eq!(c.hits(), 4);
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let cache: KeyedCache<u32, u32> = KeyedCache::default();
        assert_eq!(cache.get_or_compute(&1, || 10), 10);
        assert_eq!(cache.get_or_compute(&2, || 20), 20);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().computes, 2);
    }

    #[test]
    fn concurrent_requests_never_double_compute() {
        let cache: KeyedCache<u32, u64> = KeyedCache::default();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..16u32 {
                        let v = cache.get_or_compute(&key, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window.
                            std::thread::yield_now();
                            key as u64 * 3
                        });
                        assert_eq!(v, key as u64 * 3);
                    }
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 16);
        assert_eq!(cache.counters().computes, 16);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache: KeyedCache<u32, u32> = KeyedCache::bounded(2);
        cache.get_or_compute(&1, || 10);
        cache.get_or_compute(&2, || 20);
        // Touch 1 so 2 becomes the LRU, then insert 3.
        cache.get_or_compute(&1, || unreachable!("cached"));
        cache.get_or_compute(&3, || 30);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 1);
        // Key 1 survived; key 2 was evicted and recomputes.
        let runs = AtomicUsize::new(0);
        cache.get_or_compute(&1, || unreachable!("still cached"));
        cache.get_or_compute(&2, || {
            runs.fetch_add(1, Ordering::Relaxed);
            20
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache: KeyedCache<u32, u32> = KeyedCache::bounded(0);
        for k in 0..100 {
            cache.get_or_compute(&k, || k);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn eviction_under_concurrency_keeps_the_bound_and_the_values() {
        let cache: KeyedCache<u32, u64> = KeyedCache::bounded(4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..64u32 {
                        let key = (t * 7 + i) % 32;
                        let v = cache.get_or_compute(&key, || key as u64 + 1000);
                        assert_eq!(v, key as u64 + 1000);
                    }
                });
            }
        });
        assert!(cache.len() <= 4, "bound violated: {}", cache.len());
        assert!(cache.counters().evictions > 0);
    }
}
