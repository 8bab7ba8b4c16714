//! `colocated_churn` — the same engine layers used differently:
//! interference-scored writes beside snapshot reads and rebalance
//! planning, on exactly `vcplace serve`'s `EngineConfig`
//! (`interference: true`, 2 % degradation budget). 40 hosts,
//! in-process, single thread. Each iteration places one request
//! (workload uniform; vCPUs uniform over `[2,2,4,4,4,8,8,16]`; goal
//! 0.9; unique probe seed), releases a random live container once more
//! than 80 are live, probes `can_fit` once per size every 32nd
//! iteration (one probe per 8 on average) and runs one synchronous
//! `rebalance()` pass every 100th.
//!
//! The population script — which requests arrive, with which probe
//! seeds, and which container departs — comes from a **constant**
//! stream, not from `--seed`: the dense fleet is chaotic. Sizing showed
//! the place median of a 10 s run moving 2.4–3.1 ms (and throughput
//! 67–78 place/s) when *only the probe seeds* changed, five times the
//! 2 % the same script repeats within, so no bound could tell a
//! regression from a reseed. `--seed` drives what cannot feed back into
//! the fleet: the requests of the read-only `can_fit` probes.
//!
//! Why: dense hosts (≈ 6 residents each) put `vc-core::interference`
//! memo misses, `vc-sim::colocation`, `vc-engine::rebalance`,
//! `vc-migration` and O(host-state) snapshot publication on the clock —
//! none of which run in the other three workloads.

use std::hint::black_box;
use std::time::{Duration, Instant};

use vc_core::interference::{InterferenceOracle, ResidentWorkload};
use vc_engine::{
    MigrationMode, MigrationModel, Placed, PlacementEngine, PlacementRequest, RebalancePolicy,
};

use crate::checks::occupied_hosts;
use crate::fleet::{
    class_reps, mixed_fleet, model_cv_err_pct, peak_rss_mb, prewarm, repeat_setup,
    residents_meeting_goal, serve_config_colocated,
};
use crate::gen::{Deck, SplitMix, CHURN_SIZES, WORKLOADS};
use crate::layers::{
    common_layer_metrics, micro_probes, set_trace_overhead, traced_place, Derived,
};
use crate::metrics::Outcome;
use crate::stats::{Samples, Segment};
use crate::trace::{Layers, Recorder};
use crate::{Opts, DIGEST_ITEMS, SETUP_REPEATS};

const HOSTS: usize = 40;
/// Seed of the population script (see the module documentation).
const POPULATION_SEED: u64 = 0x5EED_C0DE;
const LIVE_TARGET: usize = 80;
const SIZES: [usize; 4] = [2, 4, 8, 16];
/// Iterations between rebalance passes; the timed phase runs whole
/// cycles of this many, so every run times the same mix of work.
const CYCLE: u64 = 100;
/// Quoted tail, per cycle of 100 placements.
const TAIL_Q: f64 = 0.9;

struct Churn {
    engine: PlacementEngine,
    reps: Vec<vc_engine::MachineId>,
    policy: RebalancePolicy,
    /// Population script: constant stream, same for every `--seed`.
    rng: SplitMix,
    deck: Deck,
    /// `can_fit` probe requests: the `--seed` stream.
    probe_rng: SplitMix,
    rec: Recorder,
    iter: u64,
    live: Vec<(Placed, PlacementRequest)>,
    live_vcpus: usize,
    out: Outcome,
    place: Samples,
    release: Samples,
    can_fit: Samples,
    passes: Samples,
    /// Occupied hosts, sampled after every rebalance pass.
    hosts_used: Vec<f64>,
    /// One segment per finished cycle.
    segments: Vec<Segment>,
    cycle_start: Instant,
    /// `(place, release, can_fit)` sample counts when the cycle began.
    cycle_counts: [usize; 3],
    scanned: usize,
    migrations: usize,
    degradation_after: f64,
    derived: Derived,
}

impl Churn {
    /// A warm 40-host fleet ramped to the live target — the state the
    /// timed phase starts from. All of it is set-up.
    fn build(seed: u64) -> Churn {
        let engine = mixed_fleet(serve_config_colocated(), HOSTS);
        prewarm(&engine, &SIZES);
        let mut churn = Churn {
            reps: class_reps(&engine),
            engine,
            policy: RebalancePolicy::default()
                .with_cooldown_passes(8)
                .with_moved_gb_cap(1.0),
            rng: SplitMix::new(POPULATION_SEED),
            deck: Deck::new(&CHURN_SIZES),
            probe_rng: SplitMix::new(seed),
            rec: Recorder::new(Instant::now(), 0),
            iter: 0,
            live: Vec::new(),
            live_vcpus: 0,
            out: Outcome::default(),
            place: Samples::default(),
            release: Samples::default(),
            can_fit: Samples::default(),
            passes: Samples::default(),
            hosts_used: Vec::new(),
            segments: Vec::new(),
            cycle_start: Instant::now(),
            cycle_counts: [0; 3],
            scanned: 0,
            migrations: 0,
            degradation_after: 0.0,
            derived: Derived::default(),
        };
        while churn.live.len() < LIVE_TARGET {
            churn.step();
        }
        churn.forget_samples();
        churn
    }

    /// Drops what the ramp or an untimed segment measured; the script
    /// position, the fleet state and the digests carry on.
    fn forget_samples(&mut self) {
        self.place = Samples::default();
        self.release = Samples::default();
        self.can_fit = Samples::default();
        self.passes = Samples::default();
        self.hosts_used.clear();
        self.segments.clear();
        self.cycle_start = Instant::now();
        self.cycle_counts = [0; 3];
        self.out.attempted = 0;
        self.out.failed = 0;
        (self.scanned, self.migrations, self.degradation_after) = (0, 0, 0.0);
    }

    fn step(&mut self) {
        self.iter += 1;
        let req = self.deck.request(&mut self.rng, 0.9);
        let release_draw = self.rng.next_u64();
        // The digests cover the first timed iterations only, so runs of
        // different length compare.
        let digesting = self.live.len() >= LIVE_TARGET && self.out.script.items < DIGEST_ITEMS;
        if digesting {
            self.out.script.request(&req);
        }
        self.rec.request(self.iter);
        let root = self.rec.enter("request");

        let (decision, place_ns) = if self.rec.enabled() {
            traced_place(
                &mut self.rec,
                &self.engine,
                &self.reps,
                &req,
                &mut self.derived,
            )
        } else {
            self.rec.leaf("engine.place", || self.engine.place(&req))
        };
        self.place.push(place_ns);
        self.out.attempted += 1;
        if digesting {
            self.out.decisions.decision(decision.placed());
        }
        match decision.placed() {
            Some(placed) => {
                if self.rec.enabled() {
                    let probe_ns = self.colocation_probe(&req, placed);
                    self.derived.explained_ns += probe_ns;
                }
                self.live_vcpus += req.vcpus;
                self.live.push((placed.clone(), req.clone()));
            }
            None => self.out.failed += 1,
        }

        if self.live.len() > LIVE_TARGET {
            let index = (release_draw % self.live.len() as u64) as usize;
            let (placed, request) = self.live.swap_remove(index);
            let (released, ns) = self
                .rec
                .leaf("engine.release", || self.engine.release(&placed));
            self.release.push(ns);
            self.live_vcpus -= request.vcpus;
            self.out.attempted += 1;
            self.out.failed += u64::from(released.is_err());
        }

        // One probe per size, so every sample covers the same mix (a
        // probe's cost follows its size: 40 µs at 2 vCPUs, 360 at 16).
        if self.iter.is_multiple_of(8 * SIZES.len() as u64) {
            let mut total_ns = 0;
            for vcpus in SIZES {
                let workload = WORKLOADS[self.probe_rng.below(WORKLOADS.len())];
                let probe = PlacementRequest::new(workload, vcpus)
                    .with_goal(0.9)
                    .with_probe_seed(self.probe_rng.next_u64());
                if digesting {
                    self.out.script.request(&probe);
                }
                let (fit, ns) = self
                    .rec
                    .leaf("engine.can_fit", || self.engine.can_fit(&probe));
                black_box(fit);
                total_ns += ns;
            }
            self.can_fit.push(total_ns / SIZES.len() as u64);
            self.out.attempted += SIZES.len() as u64;
        }

        if self.iter.is_multiple_of(CYCLE) {
            let (report, ns) = self
                .rec
                .leaf("engine.rebalance", || self.engine.rebalance(&self.policy));
            self.passes.push(ns);
            self.scanned += report.scanned;
            self.migrations += report.migrations.len();
            self.degradation_after += report
                .migrations
                .iter()
                .map(|m| m.degradation_after)
                .sum::<f64>();
            self.out.attempted += 1;
            self.out.failed += report.failed_commits as u64;
            let at = format!("iteration {}", self.iter);
            self.out
                .checks
                .live_vcpus(&self.engine, self.live_vcpus, &at);
            self.hosts_used.push(occupied_hosts(&self.engine) as f64);
            let [p, r, c] = self.cycle_counts;
            let place = self.place.range(p..self.place.len());
            self.segments.push(Segment::of(
                place.len() as u64,
                self.cycle_start.elapsed().as_secs_f64(),
                &place,
                TAIL_Q,
                &self.release.range(r..self.release.len()),
                &self.can_fit.range(c..self.can_fit.len()),
            ));
            self.cycle_start = Instant::now();
            self.cycle_counts = [self.place.len(), self.release.len(), self.can_fit.len()];
        }
        self.rec.exit(root);
    }

    /// `SimOracle::co_location_penalty` for the committed placement
    /// against the neighbours it actually got — the simulation a
    /// penalty-memo miss pays.
    fn colocation_probe(&mut self, req: &PlacementRequest, placed: &Placed) -> u64 {
        let snapshot = self.engine.host_snapshot(placed.machine);
        let mut occ = snapshot.occupancy().clone();
        if occ.release(&placed.threads).is_err() {
            return 0; // a rebalance pass moved it already; nothing to probe
        }
        let neighbours: Vec<ResidentWorkload> = snapshot
            .residents()
            .iter()
            .filter(|r| r.ticket != placed.ticket)
            .map(|r| ResidentWorkload {
                workload: r.request.workload.clone(),
                threads: r.threads.clone(),
            })
            .collect();
        let oracle = self.engine.sim_oracle(placed.machine);
        let (penalty, ns) = self.rec.leaf("sim.colocation", || {
            oracle.co_location_penalty(&req.workload, &placed.threads, &occ, &neighbours)
        });
        black_box(penalty);
        ns
    }

    /// Whole cycles (each ends with its rebalance pass) until
    /// `duration` has passed; returns the time taken.
    fn run_for(&mut self, duration: Duration) -> f64 {
        let start = Instant::now();
        while start.elapsed() < duration || !self.iter.is_multiple_of(CYCLE) {
            self.step();
        }
        start.elapsed().as_secs_f64()
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let repeats = if opts.trace || opts.small {
        1
    } else {
        SETUP_REPEATS
    };
    let (mut churn, setup_s) = repeat_setup(repeats, || Churn::build(opts.seed), drop);
    let total = Duration::from_secs_f64(opts.seconds);

    // A traced run spends its first quarter untraced: the same script,
    // the baseline `trace.overhead_pct` compares against.
    let mut plain_place = Samples::default();
    if opts.trace {
        churn.run_for(total / 4);
        plain_place = std::mem::take(&mut churn.place);
        churn.forget_samples();
        churn.rec.set_enabled(true);
    }
    let before = churn.engine.stats();
    let timed = if opts.trace { total * 3 / 4 } else { total };
    let wall_s = churn.run_for(timed);
    let after = churn.engine.stats();
    churn.rec.set_enabled(false);

    let Churn {
        engine,
        rec,
        live,
        live_vcpus,
        mut out,
        place,
        release,
        can_fit,
        passes,
        scanned,
        migrations,
        degradation_after,
        derived,
        policy,
        hosts_used,
        segments,
        ..
    } = churn;
    out.checks
        .live_vcpus(&engine, live_vcpus, "end of timed phase");
    let (met, total_live) = residents_meeting_goal(&engine);
    let hosts_used = hosts_used.iter().sum::<f64>() / hosts_used.len().max(1) as f64;
    out.notes.push(format!(
        "samples: place {} release {} can_fit {} rebalance {} | live {} on {hosts_used:.1} hosts (mean after each pass) | wall {wall_s:.2}s",
        place.len(),
        release.len(),
        can_fit.len(),
        passes.len(),
        live.len(),
    ));

    if opts.trace {
        let layers = Layers::fold(std::slice::from_ref(&rec));
        let m = &mut out.metrics;
        common_layer_metrics(m, &layers, &derived, &before, &after, place.len() as u64);
        m.set("sim.colocation_us", layers.get("sim.colocation").p50_us());
        m.set("engine.rebalance_pass_ms", passes.p50_ms());
        m.set(
            "engine.rebalance_scanned",
            scanned as f64 / passes.len().max(1) as f64,
        );
        m.set("engine.rebalance_migrations", migrations as f64);
        if migrations > 0 {
            m.set(
                "engine.degradation_after_pct",
                100.0 * degradation_after / migrations as f64,
            );
        }
        set_trace_overhead(m, &place, &plain_place);
        // A settled pass: rebalance until nothing moves, then time one.
        for _ in 0..4 {
            if engine.rebalance(&policy).migrations.is_empty() {
                break;
            }
        }
        let t = Instant::now();
        black_box(engine.rebalance(&policy));
        m.set(
            "engine.rebalance_settled_us",
            t.elapsed().as_nanos() as f64 / 1e3,
        );
        let model = MigrationModel::default();
        let workload = vc_workloads::workload_by_name("WTbtree").expect("paper suite");
        let mut estimates = Samples::default();
        for _ in 0..200 {
            let t = Instant::now();
            for _ in 0..64 {
                black_box(model.estimate(black_box(&workload), MigrationMode::Fast));
            }
            estimates.push(t.elapsed().as_nanos() as u64 / 64);
        }
        m.set("migration.estimate_ns", estimates.p50_ns());
        micro_probes(m, &engine);
        if let Err(e) = crate::write_trace("colocated_churn", &[rec]) {
            out.checks.fail(format!("trace file: {e}"));
        }
    } else {
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set_timings(&segments);
        m.set("goal_met_share", met as f64 / total_live.max(1) as f64);
        m.set("model_cv_err_pct", model_cv_err_pct(&engine, &SIZES));
        m.set("hosts_used", hosts_used);
    }

    for (placed, _) in &live {
        out.attempted += 1;
        out.failed += u64::from(engine.release(placed).is_err());
    }
    out.checks.drained(&engine);
    // Training happens in set-up only; the timed phase must be warm.
    out.checks.warm_phase(&before, &after, true);
    if !opts.trace {
        out.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    out
}
