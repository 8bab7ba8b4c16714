// vc-lint: path(crates/sync/src/tally.rs)
// `crates/sync/src/` is the one home of `Ordering::Relaxed`: the
// argument that nothing synchronizes on a statistic is written there
// once, and every other crate counts through `vc_sync::Counter`.

pub fn bump(tally: &AtomicU64) -> u64 {
    tally.fetch_add(1, Ordering::Relaxed)
}
