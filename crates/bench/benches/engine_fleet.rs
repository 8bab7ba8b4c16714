//! What one pinned CPU cannot show: N concurrent clients churning a
//! fleet while a background rebalancer runs underneath — in process
//! against 10 and 1000 hosts, and through the `vc-serve` daemon over
//! TCP. Everything single-threaded the repo times lives in `benchmark/`.
//!
//! Every variant drives the same seeded [`Load`] script, starts with an
//! untimed warm-up over every size its pool draws (the timed phase is
//! asserted to train nothing), takes ≥ 1000 place samples, and prints
//! one JSON line with the p50 and the highest percentile that has ≥ 10
//! samples beyond it. `BENCH_engine_fleet.json` at the repo root records
//! those lines.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_bench::load::{Load, LoadReport};
use vc_engine::{EngineConfig, PlacementEngine, PlacementRequest, RebalancePolicy};
use vc_serve::{Client, LoopConfig, PlacementServer, ServerConfig};
use vc_topology::machines;

/// A fleet of `hosts` machines drawn from 3 machine classes (AMD,
/// Zen-like, Intel — AMD twice as common), interference-aware with a
/// tight degradation budget so the rebalancer has work; trimmed corpus
/// so the warm-up stays short.
fn build_fleet(hosts: usize) -> PlacementEngine {
    let mut engine = PlacementEngine::new(EngineConfig {
        n_seeds: 2,
        extra_synthetic: 0,
        interference: true,
        degradation_budget: Some(0.01),
        ..EngineConfig::default()
    });
    for i in 0..hosts {
        match i % 4 {
            0 | 1 => engine.add_machine(machines::amd_opteron_6272()),
            2 => engine.add_machine(machines::zen_like()),
            _ => engine.add_machine_with_baseline(machines::intel_xeon_e7_4830_v3(), 1),
        };
    }
    engine
}

/// Mixed sizes, drawn uniformly; ≥ 1000 place samples over all clients.
/// Releasing after 95 % of placements keeps each client's live set to a
/// handful, so even the 10-host fleet never saturates and every sample
/// is a committed placement rather than a fast rejection.
fn load(clients: usize) -> Load {
    Load {
        requests_per_client: 1024 / clients,
        pool: vec![
            PlacementRequest::new("streamcluster", 4),
            PlacementRequest::new("WTbtree", 8),
            PlacementRequest::new("swaptions", 16).with_goal(0.9),
        ],
        release_pct: 95,
        ..Load::default()
    }
}

const WARM_UP: &str = "untimed place+release of every pool entry (4, 8 and 16 vCPUs); \
                       timed phase asserted to compute no catalog and no model";

/// Runs `run` on a warmed engine, asserts the timed phase trained
/// nothing and drained, and prints the variant's JSON line.
fn record(
    variant: &str,
    hosts: usize,
    clients: usize,
    engine: &PlacementEngine,
    run: impl FnOnce(&Load) -> LoadReport,
) {
    let load = load(clients);
    load.warm_up(&mut &*engine);
    let before = engine.stats();
    let t0 = Instant::now();
    let report = run(&load);
    let rebalance = report.rebalance;
    let wall_s = t0.elapsed().as_secs_f64();
    let after = engine.stats();

    assert_eq!(
        (after.catalogs.computes, after.models.computes),
        (before.catalogs.computes, before.models.computes),
        "timed phase must be warm"
    );
    assert_eq!(report.placed + report.rejected, report.place.count());
    assert_eq!(engine.num_residents(), 0, "a load run must drain");
    engine.audit().expect("views converge at quiescence");
    let (tail_q, beyond) = report.place.tail().expect("≥ 1000 samples support a tail");

    println!(
        "{{\"bench\":\"engine_fleet\",\"variant\":\"{variant}\",\"hosts\":{hosts},\
         \"clients\":{clients},\"warm_up\":\"{WARM_UP}\",\
         \"place_samples\":{},\"placed\":{},\"rejected\":{},\"wall_s\":{wall_s:.3},\
         \"place_p50_us\":{:.1},\"place_tail_percentile\":{},\"place_tail_us\":{:.1},\
         \"place_tail_samples_beyond\":{beyond},\
         \"release_samples\":{},\"release_p50_us\":{:.1},\
         \"rebalance_passes\":{},\"migrations\":{},\"failed_commits\":{},\
         \"suppressed_by_cooldown\":{},\"blocked_by_gb_cap\":{},\"moved_gb\":{:.2},\
         \"snapshot_reads\":{},\"stale_retries\":{}}}",
        report.place.count(),
        report.placed,
        report.rejected,
        report.place.quantile_us(0.5),
        tail_q * 100.0,
        report.place.quantile_us(tail_q),
        report.release.count(),
        report.release.quantile_us(0.5),
        rebalance.passes,
        rebalance.migrations,
        rebalance.failed_commits,
        rebalance.suppressed_by_cooldown,
        rebalance.blocked_by_gb_cap,
        rebalance.moved_gb,
        after.snapshot.reads - before.snapshot.reads,
        after.snapshot.stale_retries - before.snapshot.stale_retries,
    );
}

/// 8 in-process clients against a rebalancer running passes back to back.
fn contended(hosts: usize) {
    let engine = build_fleet(hosts);
    let policy = RebalancePolicy::default();
    record("contended", hosts, 8, &engine, |load| {
        load.run(vec![&engine; 8], Some((&engine, &policy)))
    });
}

/// 4 clients over real TCP; the daemon's own loop rebalances every 5 ms
/// with its default hysteresis (cooldown 8 passes, 1 GB per pass).
fn served(hosts: usize) {
    let engine = Arc::new(build_fleet(hosts));
    let config = ServerConfig::default().with_rebalance(LoopConfig {
        interval: Duration::from_millis(5),
        start_paused: true,
        ..LoopConfig::default()
    });
    let server = PlacementServer::spawn(Arc::clone(&engine), config).expect("bind loopback");
    let mut connections: Vec<Client> = (0..4)
        .map(|_| Client::connect(server.local_addr()).expect("connect"))
        .collect();
    record("served", hosts, 4, &engine, |load| {
        connections[0].resume_rebalance().expect("resume");
        let mut report = load.run(connections, None);
        report.rebalance = server.loop_totals();
        report
    });
    server.shutdown();
}

fn main() {
    contended(10);
    contended(1000);
    served(10);
}
