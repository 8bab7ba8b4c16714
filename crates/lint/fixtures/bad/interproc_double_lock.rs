// Broken compaction variant: `compact` holds host A's guard while the
// cold-eviction helper takes a host lock of its own. Neither function
// double-locks by itself — only the call-graph pass sees the
// self-deadlock.

pub fn compact(engine: &Engine, host: &Host) {
    let mut st = engine.lock_host(host);
    evict_cold(engine, &mut st); //~ R8
    engine.publish(host, &mut st);
}

fn evict_cold(engine: &Engine, st: &mut HostState) {
    let neighbor = engine.coldest();
    let mut cold = engine.lock_host(&neighbor);
    cold.residents.clear();
    engine.publish(&neighbor, &mut cold);
}
