// Broken scoring variant: the co-location simulation runs while the
// host lock is held, putting an O(model) critical section on the
// serving path. Simulation must happen against the wait-free snapshot
// before the lock is taken.

pub fn score_then_commit(engine: &Engine, host: &Host, req: &PlacementRequest) -> f64 {
    let mut st = engine.lock_host(host);
    let penalty = co_location_penalty(&st.residents, req); //~ R9
    st.occ.reserve(&req.threads).ok();
    engine.publish(host, &mut st);
    penalty
}
