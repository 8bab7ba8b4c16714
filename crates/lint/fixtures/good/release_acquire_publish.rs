// Good twin of bad/relaxed_publish.rs: the pointer publication edge
// uses Release/Acquire, and the statistic next to it is a
// `vc_sync::Counter`, so no `Relaxed` is written here at all.

pub fn publish(slot: &Slot, fresh: *mut Snapshot) -> *mut Snapshot {
    let old = slot.ptr.swap(fresh, Ordering::Release);
    slot.requests.incr();
    old
}

pub fn load(slot: &Slot) -> *mut Snapshot {
    slot.ptr.load(Ordering::Acquire)
}
