//! A bounded [`KeyedCache`] against the full-scan LRU it must agree
//! with: on every eviction, the completed entry with the lowest stamp
//! that is not the key being served. Both replay the same scripts —
//! skewed random key streams at every capacity from 1 to 256, some
//! lookups running nested lookups from inside their compute closure —
//! and must agree on every lookup's compute-or-hit outcome, on the
//! resident count after every top-level lookup, and on the evictions.

use std::cell::RefCell;
use std::collections::HashMap;

use vc_sync::KeyedCache;

/// The scan the cache's eviction queue replaces: every eviction looks
/// at every entry.
struct Reference {
    capacity: usize,
    tick: u64,
    /// Key → (last stamp, compute finished).
    entries: HashMap<u32, (u64, bool)>,
    evictions: u64,
}

impl Reference {
    fn lookup(this: &RefCell<Self>, key: u32, compute: impl FnOnce()) -> bool {
        let (computed, oversized) = {
            let mut r = this.borrow_mut();
            r.tick += 1;
            let tick = r.tick;
            let computed = match r.entries.get_mut(&key) {
                Some(entry) => {
                    entry.0 = tick;
                    false
                }
                None => {
                    r.entries.insert(key, (tick, false));
                    true
                }
            };
            (computed, r.entries.len() > r.capacity)
        };
        if computed {
            compute();
            this.borrow_mut()
                .entries
                .get_mut(&key)
                .expect("in flight")
                .1 = true;
        }
        let mut r = this.borrow_mut();
        while oversized && r.entries.len() > r.capacity {
            let victim = r
                .entries
                .iter()
                .filter(|&(&k, &(_, done))| k != key && done)
                .min_by_key(|&(_, &(stamp, _))| stamp)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            r.entries.remove(&victim);
            r.evictions += 1;
        }
        computed
    }
}

/// One lookup; `nested` run from inside its compute closure, if it
/// computes.
struct Op {
    key: u32,
    nested: Vec<Op>,
}

fn op(key: u32, nested: Vec<Op>) -> Op {
    Op { key, nested }
}

fn value(key: u32) -> u64 {
    u64::from(key) * 7 + 1
}

fn replay_cache(cache: &KeyedCache<u32, u64>, op: &Op, log: &mut Vec<(u32, bool)>) {
    let mut computed = false;
    let v = cache.get_or_compute(&op.key, || {
        computed = true;
        for inner in &op.nested {
            replay_cache(cache, inner, log);
        }
        value(op.key)
    });
    assert_eq!(v, value(op.key), "key {}", op.key);
    log.push((op.key, computed));
}

fn replay_reference(reference: &RefCell<Reference>, op: &Op, log: &mut Vec<(u32, bool)>) {
    let computed = Reference::lookup(reference, op.key, || {
        for inner in &op.nested {
            replay_reference(reference, inner, log);
        }
    });
    log.push((op.key, computed));
}

/// Replays `script` on both at `capacity`, checks they agree, and
/// returns the cache.
fn check(capacity: usize, script: &[Op]) -> KeyedCache<u32, u64> {
    let cache = KeyedCache::bounded(capacity);
    let reference = RefCell::new(Reference {
        capacity,
        tick: 0,
        entries: HashMap::new(),
        evictions: 0,
    });
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (i, op) in script.iter().enumerate() {
        replay_cache(&cache, op, &mut got);
        replay_reference(&reference, op, &mut want);
        assert_eq!(got, want, "capacity {capacity}: outcomes differ by op {i}");
        assert_eq!(
            cache.len(),
            reference.borrow().entries.len(),
            "capacity {capacity}: resident count after op {i}"
        );
    }
    let counters = cache.counters();
    assert_eq!(
        counters.evictions,
        reference.borrow().evictions,
        "capacity {capacity}"
    );
    assert_eq!(counters.lookups, got.len() as u64);
    assert_eq!(
        counters.computes,
        got.iter().filter(|&&(_, c)| c).count() as u64
    );
    cache
}

/// splitmix64: enough randomness for key streams, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A key below `range`, small keys far more likely than large ones.
    fn skewed(&mut self, range: u32) -> u32 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (f64::from(range) * u * u) as u32
    }
}

/// A lookup of a key not among `stack` (lookups still computing: a
/// nested lookup of one of them would wait on itself), running up to
/// three nested lookups when it computes, two levels deep at most.
fn random_op(rng: &mut Rng, range: u32, stack: &mut Vec<u32>) -> Op {
    let key = loop {
        let key = rng.skewed(range);
        if !stack.contains(&key) {
            break key;
        }
    };
    let nested = if stack.len() < 2 && rng.next().is_multiple_of(8) {
        1 + rng.next() % 3
    } else {
        0
    };
    stack.push(key);
    let nested = (0..nested).map(|_| random_op(rng, range, stack)).collect();
    stack.pop();
    op(key, nested)
}

#[test]
fn skewed_streams_match_the_full_scan_at_every_capacity() {
    let mut rng = Rng(0x1ce_cafe);
    let mut evictions = 0;
    for capacity in 1..=256usize {
        // Key spaces from just past the bound to four times it.
        let range = (capacity as u32 + 3) * (1 + capacity as u32 % 4);
        let script: Vec<Op> = (0..6 * capacity + 200)
            .map(|_| random_op(&mut rng, range, &mut Vec::new()))
            .collect();
        evictions += check(capacity, &script).counters().evictions;
    }
    assert!(evictions > 50_000, "the streams barely evict: {evictions}");
}

#[test]
fn an_evicted_key_is_computed_again_on_reinsert() {
    let cache = check(
        2,
        &[op(1, vec![]), op(2, vec![]), op(3, vec![]), op(1, vec![])],
    );
    // 1 went for 3, then 2 for the returning 1.
    assert_eq!(cache.counters().computes, 4);
    assert_eq!(cache.counters().evictions, 2);
    cache.get_or_compute(&1, || unreachable!("1 is resident"));
    cache.get_or_compute(&3, || unreachable!("3 is resident"));
}

#[test]
fn a_just_used_key_that_is_the_oldest_entry_stays() {
    // 7 is inserted over the bound, and its compute inserts 8, whose
    // eviction takes 6 and must leave 7 (in flight). When 7 completes
    // it is the oldest entry, but it serves the caller: 8 goes instead.
    let cache = check(1, &[op(6, vec![]), op(7, vec![op(8, vec![])])]);
    assert_eq!(cache.counters().evictions, 2);
    assert_eq!(cache.len(), 1);
    cache.get_or_compute(&7, || unreachable!("7 is resident"));
}

#[test]
fn an_in_flight_cell_survives_the_evictions_its_own_compute_runs() {
    // The cache is full before 100 arrives; its compute inserts six
    // more keys, each over the bound, and every eviction they run must
    // pass over 100's cell.
    let inner: Vec<Op> = (1..=6).map(|k| op(k, vec![])).collect();
    let cache = check(2, &[op(50, vec![]), op(51, vec![]), op(100, inner)]);
    cache.get_or_compute(&100, || unreachable!("100 survived"));
    assert_eq!(cache.len(), 2);
}
