// Broken scoring variant: `commit` holds the host lock while a helper
// chain (refresh_score -> estimate_interference) bottoms out in the
// co-location simulator — an O(model) critical section no single
// function shows. Only the transitive effect summaries reach it.

pub fn commit(engine: &Engine, host: &Host, req: &PlacementRequest) {
    let mut st = engine.lock_host(host);
    let penalty = refresh_score(&st, req); //~ R9
    st.occ.reserve(&req.threads).ok();
    engine.publish(host, &mut st);
    let _ = penalty;
}

fn refresh_score(st: &HostState, req: &PlacementRequest) -> f64 {
    estimate_interference(&st.residents, req)
}

fn estimate_interference(residents: &ResidentMap, req: &PlacementRequest) -> f64 {
    co_location_penalty(residents, req)
}
