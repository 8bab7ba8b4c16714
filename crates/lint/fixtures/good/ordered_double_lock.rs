// Good twin of bad/unordered_double_lock.rs: both guards come from
// `lock_pair`, the one entry point that orders the two acquisitions by
// machine id, so concurrent movers with swapped arguments take the
// locks in the same order.

pub fn transfer(engine: &Engine, src: MachineId, dst: MachineId) {
    let (mut src_st, mut dst_st) = engine.lock_pair(src, dst);
    if let Some(entry) = src_st.remove_resident(1) {
        dst_st.insert_resident(entry);
    }
}
