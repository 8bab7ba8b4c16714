// Broken publication variant: the snapshot pointer swap uses Relaxed,
// so a reader can observe the new pointer before the snapshot's fields.
// Publication atomics must be Release/Acquire or stronger; Relaxed
// lives only behind `vc_sync::Counter`.

pub fn publish_snapshot(slot: &RawSlot, fresh: *mut Snapshot) -> *mut Snapshot {
    slot.ptr.swap(fresh, Ordering::Relaxed) //~ R7
}
