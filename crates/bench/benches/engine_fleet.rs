//! Fleet-scale serving: `place_batch` throughput as the host count
//! grows from 10 to 1000 while the machine-*class* count stays at 3.
//!
//! The fingerprint-sharded fleet index should make phase-1 work (the
//! expensive probing + prediction) a function of the class count, not
//! the host count, and the lock-free capacity summaries should keep the
//! per-host commit cost to a few atomic reads for hosts without room —
//! so warm-path throughput must scale *sublinearly* in host count: the
//! 100× bigger fleet is allowed to be somewhat slower per batch (it
//! walks 100× more summaries) but nowhere near 100×.
//!
//! Two follow-on measurements ride along:
//!
//! * **BestScore offers** — class-ranked commitment realises dry-run
//!   offers lazily, so `EngineStats::offers` must stay near the batch
//!   size even on the 1000-host fleet (the pre-ranking engine offered
//!   every admitted host);
//! * **rebalance-on variants** — a resident population is left in
//!   place, then one `rebalance()` pass is timed and its
//!   migration/moved-GB counters recorded;
//! * **contended variants** — 8 client threads hammer
//!   `place_batch`/`release` while a background thread runs
//!   `rebalance()` passes the whole time, recording client-observed
//!   p50/p99 place latency — plus a counter-verified proof that
//!   scoring and planning acquire zero host locks;
//! * **served variant** — the same stochastic churn driven through the
//!   `vc-serve` daemon over real TCP (4 client threads against a held
//!   over-budget population) while the daemon's pausable background
//!   loop rebalances with hysteresis — client-observed p50/p99 RPC
//!   latency plus the loop's cooldown-suppression counters;
//! * **sketch-scaling variants** — a single-class fleet is filled to
//!   `n − 1` hosts with half-host containers, then a place/release
//!   cycle on the last free host is timed: the descent jumps every
//!   saturated shard without reading a single member summary, so the
//!   cycle p99 grows with the *shard* count, not the host count. A
//!   100k-host point rides behind `VC_BENCH_LARGE=1`.
//!
//! Prints one JSON line per configuration (recorded in
//! `BENCH_engine_fleet.json` at the repo root) before the timed
//! criterion sections.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_engine::{
    BatchStrategy, EngineConfig, PlacementEngine, PlacementRequest, RebalancePolicy,
};
use vc_policy::ContendedLoad;
use vc_serve::rpc::WireRequest;
use vc_serve::{DemoLoad, LoopConfig, PlacementServer, ServerConfig};
use vc_topology::machines;

/// A fleet of `hosts` machines drawn from 3 machine classes (AMD,
/// Zen-like, Intel — AMD twice as common), trimmed corpus so the cold
/// path stays benchable.
fn build_fleet(hosts: usize, interference: bool) -> PlacementEngine {
    build_fleet_with(hosts, interference, None)
}

fn build_fleet_with(
    hosts: usize,
    interference: bool,
    degradation_budget: Option<f64>,
) -> PlacementEngine {
    let mut engine = PlacementEngine::new(EngineConfig {
        n_seeds: 2,
        extra_synthetic: 0,
        interference,
        degradation_budget,
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

fn request_stream() -> Vec<PlacementRequest> {
    let workloads = ["WTbtree", "swaptions", "blast", "kmeans"];
    (0..16)
        .map(|i| {
            PlacementRequest::new(workloads[i % workloads.len()], 16)
                .with_goal(0.9)
                .with_probe_seed(i as u64)
        })
        .collect()
}

fn run_batch(engine: &PlacementEngine, reqs: &[PlacementRequest]) -> usize {
    let decisions = engine.place_batch(reqs, BatchStrategy::FirstFit);
    let placed: Vec<_> = decisions.iter().filter_map(|d| d.placed().cloned()).collect();
    // Release so the fleet is empty again for the next batch.
    for p in &placed {
        engine.release(p).unwrap();
    }
    placed.len()
}

/// One-shot cold/warm measurement for a fleet size, printed as JSON.
fn record(hosts: usize, reqs: &[PlacementRequest], interference: bool) -> PlacementEngine {
    let t0 = Instant::now();
    let engine = build_fleet(hosts, interference);
    let placed = run_batch(&engine, reqs);
    let cold = t0.elapsed().as_secs_f64();

    let warm_runs = 20;
    let t1 = Instant::now();
    for _ in 0..warm_runs {
        black_box(run_batch(&engine, reqs));
    }
    let warm = t1.elapsed().as_secs_f64() / warm_runs as f64;

    let stats = engine.stats();
    println!(
        "{{\"bench\":\"engine_fleet\",\"hosts\":{hosts},\"classes\":{},\"requests\":{},\
         \"interference\":{interference},\
         \"placed\":{placed},\"cold_s\":{cold:.4},\"warm_s\":{warm:.6},\
         \"cold_req_per_s\":{:.1},\"warm_req_per_s\":{:.0},\
         \"evaluations\":{},\"catalog_computes\":{},\"model_computes\":{},\
         \"summary_skips\":{},\"summary_admits\":{},\
         \"interference_lookups\":{},\"interference_hits\":{},\"interference_computes\":{}}}",
        engine.fleet_index().num_classes(),
        reqs.len(),
        reqs.len() as f64 / cold,
        reqs.len() as f64 / warm,
        stats.evaluations,
        stats.catalogs.computes,
        stats.models.computes,
        stats.summary.skips,
        stats.summary.admits,
        stats.interference.lookups,
        stats.interference.hits,
        stats.interference.computes,
    );
    assert_eq!(
        stats.models.computes as usize,
        engine.fleet_index().num_classes(),
        "model training must be per class, not per host"
    );
    if !interference {
        assert_eq!(
            stats.interference.lookups, 0,
            "interference machinery must stay untouched when disabled"
        );
    }
    engine
}

/// BestScore offer accounting: class-ranked commitment must realise a
/// near-constant number of dry-run offers per request, independent of
/// host count (the pre-ranking engine dry-ran every admitted host).
fn record_offers(hosts: usize, reqs: &[PlacementRequest]) {
    let engine = build_fleet(hosts, false);
    let decisions = engine.place_batch(reqs, BatchStrategy::BestScore);
    let placed: Vec<_> = decisions.iter().filter_map(|d| d.placed().cloned()).collect();
    let stats = engine.stats();
    println!(
        "{{\"bench\":\"engine_fleet\",\"variant\":\"best_score_offers\",\
         \"hosts\":{hosts},\"requests\":{},\"placed\":{},\
         \"offers\":{},\"summary_admits\":{},\"summary_skips\":{}}}",
        reqs.len(),
        placed.len(),
        stats.offers,
        stats.summary.admits,
        stats.summary.skips,
    );
    assert!(
        stats.offers < stats.summary.admits + stats.summary.skips + 1 + hosts as u64,
        "offers must not revert to one per host"
    );
    for p in &placed {
        engine.release(p).unwrap();
    }
}

/// Half-node containers that first-fit stacks two per node onto the
/// first host — the co-location pathology the rebalance pass unwinds.
fn resident_stream() -> Vec<PlacementRequest> {
    let workloads = ["streamcluster", "WTbtree"];
    (0..16)
        .map(|i| {
            PlacementRequest::new(workloads[i % workloads.len()], 4).with_probe_seed(i as u64)
        })
        .collect()
}

/// Rebalance-on variant: a resident population is committed and left
/// in place, then one pass is measured — scan cost, migrations, moved
/// GB (the scan simulates only on cold penalty misses, so a second
/// pass is almost pure cache reads).
fn record_rebalance(hosts: usize, reqs: &[PlacementRequest]) -> (PlacementEngine, RebalancePolicy) {
    let engine = build_fleet_with(hosts, true, Some(0.01));
    let decisions = engine.place_batch(reqs, BatchStrategy::FirstFit);
    let placed = decisions.iter().filter(|d| d.placed().is_some()).count();
    let policy = RebalancePolicy::default();
    let t0 = Instant::now();
    let report = engine.rebalance(&policy);
    let pass_s = t0.elapsed().as_secs_f64();
    println!(
        "{{\"bench\":\"engine_fleet\",\"variant\":\"rebalance\",\
         \"hosts\":{hosts},\"residents\":{placed},\"pass_s\":{pass_s:.4},\
         \"scanned\":{},\"over_budget\":{},\"migrations\":{},\
         \"blocked_by_cost\":{},\"blocked_no_target\":{},\
         \"moved_gb\":{:.2},\"frozen_s\":{:.2},\
         \"degradation_before\":{:.4},\"degradation_after\":{:.4}}}",
        report.scanned,
        report.over_budget,
        report.migrations.len(),
        report.blocked_by_cost,
        report.blocked_no_target,
        report.moved_gb(),
        report.frozen_s(),
        report.mean_degradation_before(),
        report.mean_degradation_after(),
    );
    // Every resident is examined at least once; residents migrated to a
    // later host in the same pass are re-examined in their new home.
    assert!(report.scanned >= placed, "{} < {placed}", report.scanned);
    // Lock accounting: the pass reports exactly the executed moves'
    // commit bookkeeping, and a settled follow-up pass — scanning the
    // same population, migrating nothing — plans entirely on published
    // snapshots: zero host locks, counter-verified.
    let settled = engine.rebalance(&policy);
    assert!(settled.migrations.is_empty(), "the first pass must settle the fleet");
    assert_eq!(
        settled.host_lock_acquisitions, 0,
        "plan-only rebalance must not acquire host locks"
    );
    println!(
        "{{\"bench\":\"engine_fleet\",\"variant\":\"rebalance_locks\",\
         \"hosts\":{hosts},\"executing_pass_locks\":{},\
         \"settled_pass_locks\":{},\"settled_scanned\":{}}}",
        report.host_lock_acquisitions, settled.host_lock_acquisitions, settled.scanned,
    );
    (engine, policy)
}

/// Contended variant: 8 clients hammer `place_batch`/`release` while a
/// background rebalancer runs. Before the contended phase, a quiescent
/// BestScore sweep counter-verifies that scoring takes zero host locks
/// (every acquisition is a commit or release).
fn record_contended(hosts: usize) {
    let engine = build_fleet_with(hosts, true, Some(0.01));
    // Warm every catalog/model/penalty cache off the clock.
    let warm: Vec<_> = resident_stream()
        .iter()
        .filter_map(|r| engine.place(r).placed().cloned())
        .collect();
    for p in &warm {
        engine.release(p).unwrap();
    }

    // Counter-verified scoring locks: a BestScore batch dry-runs offers
    // across the fleet; the only acquisitions are the commits and the
    // releases that follow.
    let before = engine.stats().host_lock_acquisitions;
    let reqs: Vec<PlacementRequest> = (0..8)
        .map(|i| PlacementRequest::new("swaptions", 16).with_probe_seed(100 + i))
        .collect();
    let placed: Vec<_> = engine
        .place_batch(&reqs, BatchStrategy::BestScore)
        .iter()
        .filter_map(|d| d.placed().cloned())
        .collect();
    for p in &placed {
        engine.release(p).unwrap();
    }
    let scoring_locks =
        engine.stats().host_lock_acquisitions - before - 2 * placed.len() as u64;
    assert_eq!(scoring_locks, 0, "scoring must acquire zero host locks");

    let clients = 8;
    let per_client = 16;
    let t0 = Instant::now();
    let report = ContendedLoad::new(clients, per_client)
        .with_request_pool(vec![
            PlacementRequest::new("streamcluster", 4),
            PlacementRequest::new("WTbtree", 8),
            PlacementRequest::new("swaptions", 16),
        ])
        .with_rebalance(RebalancePolicy::default())
        .run(&engine);
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    println!(
        "{{\"bench\":\"engine_fleet\",\"variant\":\"contended\",\
         \"hosts\":{hosts},\
         \"clients\":{clients},\"requests_per_client\":{per_client},\
         \"placed\":{},\"rejected\":{},\"wall_s\":{wall_s:.3},\
         \"place_p50_us\":{:.1},\"place_p99_us\":{:.1},\"place_max_us\":{:.1},\
         \"place_mean_us\":{:.1},\"release_p50_us\":{:.1},\"release_p99_us\":{:.1},\
         \"rebalance_passes\":{},\"migrations\":{},\
         \"scoring_lock_acquisitions\":{scoring_locks},\
         \"snapshot_published\":{},\"snapshot_reads_count\":{},\"stale_retries\":{}}}",
        report.placed,
        report.rejected,
        report.place.p50() as f64 / 1e3,
        report.place.p99() as f64 / 1e3,
        report.place.max() as f64 / 1e3,
        report.place.mean() as f64 / 1e3,
        report.release.p50() as f64 / 1e3,
        report.release.p99() as f64 / 1e3,
        report.rebalance_passes,
        report.migrations,
        stats.snapshot.published,
        stats.snapshot.reads,
        stats.snapshot.stale_retries,
    );
}

/// Served variant: the same engine behind the `vc-serve` daemon — 4
/// client threads of stochastic churn over real TCP while the pausable
/// background loop rebalances underneath with hysteresis. The stacked
/// resident population from `resident_stream` is committed and *held*
/// through the whole run, so the loop has genuine movers: its first
/// pass migrates them, and its immediately-following passes re-scan the
/// just-moved tickets inside their cooldown window — the suppression
/// the JSON line (and the assert) records.
fn record_served(hosts: usize) {
    let engine = Arc::new(build_fleet_with(hosts, true, Some(0.01)));
    // Warm every catalog/model/penalty cache off the clock.
    let warm: Vec<_> = resident_stream()
        .iter()
        .filter_map(|r| engine.place(r).placed().cloned())
        .collect();
    for p in &warm {
        engine.release(p).unwrap();
    }
    // The held pathology population the loop will unwind.
    let held: Vec<_> = resident_stream()
        .iter()
        .filter_map(|r| engine.place(r).placed().cloned())
        .collect();

    let config = ServerConfig::default().with_rebalance(LoopConfig {
        interval: Duration::from_millis(5),
        policy: RebalancePolicy::default()
            .with_cooldown_passes(8)
            .with_moved_gb_cap(1.0),
        start_paused: false,
    });
    let server = PlacementServer::spawn(Arc::clone(&engine), config).expect("bind loopback");

    let clients = 4;
    let per_client = 32;
    let load = DemoLoad {
        clients,
        requests_per_client: per_client,
        pool: vec![
            WireRequest {
                workload: "streamcluster".to_string(),
                vcpus: 4,
                goal_frac: 0.0,
                probe_seed: 0,
            },
            WireRequest {
                workload: "WTbtree".to_string(),
                vcpus: 8,
                goal_frac: 0.0,
                probe_seed: 0,
            },
            WireRequest {
                workload: "swaptions".to_string(),
                vcpus: 16,
                goal_frac: 0.9,
                probe_seed: 0,
            },
        ],
        strategy: BatchStrategy::FirstFit,
        seed: 42,
        release_pct: 50,
    };
    let t0 = Instant::now();
    let report = load.run(server.local_addr()).expect("demo run");
    let wall_s = t0.elapsed().as_secs_f64();

    // Give the loop time to re-scan its own movers at least once.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.loop_totals().suppressed_by_cooldown == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let totals = server.loop_totals();
    server.shutdown();

    println!(
        "{{\"bench\":\"engine_fleet\",\"variant\":\"served\",\
         \"hosts\":{hosts},\"clients\":{clients},\"requests_per_client\":{per_client},\
         \"placed\":{},\"rejected\":{},\"released\":{},\"wall_s\":{wall_s:.3},\
         \"place_p50_us\":{:.1},\"place_p99_us\":{:.1},\"place_max_us\":{:.1},\
         \"release_p50_us\":{:.1},\"release_p99_us\":{:.1},\
         \"loop_passes\":{},\"loop_migrations\":{},\
         \"suppressed_by_cooldown\":{},\"blocked_by_gb_cap\":{},\"moved_gb\":{:.2}}}",
        report.placed,
        report.rejected,
        report.released,
        report.place.quantile_us(0.5),
        report.place.quantile_us(0.99),
        report.place.quantile_us(1.0),
        report.release.quantile_us(0.5),
        report.release.quantile_us(0.99),
        totals.passes,
        totals.migrations,
        totals.suppressed_by_cooldown,
        totals.blocked_by_gb_cap,
        totals.moved_gb,
    );
    assert!(totals.passes >= 2, "the loop must actually run");
    assert!(totals.migrations >= 1, "the held pathology must be unwound");
    assert!(
        totals.suppressed_by_cooldown >= 1,
        "the cooldown must suppress at least one re-scan of a just-moved ticket"
    );
    for p in &held {
        engine.release(p).unwrap();
    }
    assert_eq!(engine.num_residents(), 0, "demo clients must drain their tickets");
}

/// A single-class fleet for the sketch-scaling measurement: every host
/// the same AMD box, so the descent is one class → many shards.
fn build_sketch_fleet(hosts: usize) -> PlacementEngine {
    let mut engine = PlacementEngine::new(EngineConfig {
        n_seeds: 2,
        extra_synthetic: 0,
        ..EngineConfig::default()
    });
    for _ in 0..hosts {
        engine.add_machine(machines::amd_opteron_6272());
    }
    engine
}

/// Sketch-scaling variant: fill `hosts − 1` hosts with half-host
/// containers, then time place/release cycles on the one free host at
/// the far end of the fleet. Every saturated shard is jumped at the
/// sketch level (zero member summaries read). Reports cycle p50/p99 and
/// the sketch counters that prove the descent did the skipping.
fn record_sketch_scaling(hosts: usize) {
    let t0 = Instant::now();
    let engine = build_sketch_fleet(hosts);
    // Half-host containers, two per host (a full-host container would
    // leave the model a single placement to probe): first-fit commits
    // them ascending, so the first `hosts − 1` hosts saturate and only
    // the last stays free.
    let fill: Vec<PlacementRequest> = (0..2 * (hosts - 1))
        .map(|i| PlacementRequest::new("WTbtree", 32).with_probe_seed(i as u64))
        .collect();
    let decisions = engine.place_batch(&fill, BatchStrategy::FirstFit);
    let filled = decisions.iter().filter(|d| d.placed().is_some()).count();
    assert_eq!(filled, fill.len(), "the fill must saturate all but one host");
    let fill_s = t0.elapsed().as_secs_f64();

    let cycles = 50;
    let req = PlacementRequest::new("WTbtree", 32).with_probe_seed(hosts as u64);
    let mut lat_ns: Vec<u64> = (0..cycles)
        .map(|_| {
            let t = Instant::now();
            let placed = engine
                .place(&req)
                .placed()
                .cloned()
                .expect("one host is free");
            engine.release(&placed).unwrap();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    lat_ns.sort_unstable();
    let q = |f: f64| lat_ns[((lat_ns.len() - 1) as f64 * f) as usize] as f64 / 1e3;

    let stats = engine.stats();
    println!(
        "{{\"bench\":\"engine_fleet\",\"variant\":\"sketch_scaling\",\
         \"hosts\":{hosts},\"fill_s\":{fill_s:.3},\
         \"cycles\":{cycles},\"cycle_p50_us\":{:.1},\"cycle_p99_us\":{:.1},\
         \"sketch_skips\":{},\"sketch_admits\":{},\"sketch_stale\":{},\
         \"summary_skips\":{},\"summary_admits\":{}}}",
        q(0.5),
        q(0.99),
        stats.sketch.skips,
        stats.sketch.admits,
        stats.sketch.stale,
        stats.summary.skips,
        stats.summary.admits,
    );
    assert!(
        stats.sketch.skips > 0,
        "a nearly-full fleet must rule out whole shards at the sketch"
    );
}

fn bench(c: &mut Criterion) {
    let reqs = request_stream();

    let small = record(10, &reqs, false);
    let large = record(1000, &reqs, false);
    // Interference-aware variants: commits consult the memoized
    // co-location penalty; after the first batch every lookup is a
    // cache hit, so the warm path stays off the simulator.
    let small_intf = record(10, &reqs, true);
    let large_intf = record(1000, &reqs, true);
    // Class-ranked BestScore offer accounting at both fleet sizes.
    record_offers(10, &reqs);
    record_offers(1000, &reqs);
    // Rebalance-on variants: a stacked half-node population is
    // committed, then one pass is measured.
    let residents = resident_stream();
    let (small_reb, policy) = record_rebalance(10, &residents);
    let (large_reb, _) = record_rebalance(1000, &residents);
    // Contended variants at both fleet sizes.
    record_contended(10);
    record_contended(1000);
    // Served variant: the same churn through the vc-serve daemon over
    // TCP, with the background loop rebalancing under hysteresis.
    record_served(10);
    // Sketch-scaling variants on a near-full single-class fleet; the
    // 100k-host point sits behind an opt-in env var so the default
    // bench run stays quick.
    record_sketch_scaling(1_000);
    record_sketch_scaling(10_000);
    if std::env::var_os("VC_BENCH_LARGE").is_some() {
        record_sketch_scaling(100_000);
    }

    let mut group = c.benchmark_group("place_batch_fleet");
    group.sample_size(5);
    group.bench_function("warm_16req_10hosts_3classes", |b| {
        b.iter(|| black_box(run_batch(&small, &reqs)))
    });
    group.bench_function("warm_16req_1000hosts_3classes", |b| {
        b.iter(|| black_box(run_batch(&large, &reqs)))
    });
    group.bench_function("warm_16req_10hosts_interference", |b| {
        b.iter(|| black_box(run_batch(&small_intf, &reqs)))
    });
    group.bench_function("warm_16req_1000hosts_interference", |b| {
        b.iter(|| black_box(run_batch(&large_intf, &reqs)))
    });
    // Warm rebalance passes: penalties are memoized, so these measure
    // the scan itself (snapshots + cache reads), not the simulator.
    group.bench_function("rebalance_pass_10hosts", |b| {
        b.iter(|| black_box(small_reb.rebalance(&policy).scanned))
    });
    group.bench_function("rebalance_pass_1000hosts", |b| {
        b.iter(|| black_box(large_reb.rebalance(&policy).scanned))
    });
    group.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
