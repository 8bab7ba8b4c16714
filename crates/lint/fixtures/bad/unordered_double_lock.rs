// Broken move variant: two host locks taken by hand, in argument order,
// instead of through `lock_pair`. Two concurrent movers with swapped
// src/dst deadlock.

pub fn transfer(engine: &Engine, src: &Host, dst: &Host) {
    let mut src_st = engine.lock_host(src);
    let mut dst_st = engine.lock_host(dst); //~ R8
    if let Some(entry) = src_st.remove_resident(1) {
        dst_st.insert_resident(entry);
    }
}
