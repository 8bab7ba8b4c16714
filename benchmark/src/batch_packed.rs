//! `batch_packed` — in-process `place_batch`, no socket: a 2048-host
//! fleet prefilled with 16-vCPU `swaptions` (goal 0, FirstFit) until
//! ≥ 90 % of hosts are full, then 64-request batches drawn from a
//! **recurring pool of 40** `(workload, vcpus ∈ {4,8,16,16},
//! probe_seed)` triples (100 % probe repeat, goal 0.9), all released
//! after each batch; first half FirstFit, second half BestScore.
//!
//! Why: it bypasses `vc-serve` entirely, is the only workload where the
//! sketch/summary descent has ~29 saturated shards to jump, exercises
//! BestScore offers (and, where a run is given more than one CPU,
//! phase-1 scoped-thread parallelism), and is where a probe memo would
//! show while `served_steady` (0 % repeat) predicts no change.

use std::hint::black_box;
use std::time::{Duration, Instant};

use vc_engine::{BatchStrategy, MachineId, Placed, PlacementEngine, PlacementRequest};

use crate::checks::occupied_hosts;
use crate::fleet::{
    class_reps, meets_goal, mixed_fleet, model_cv_err_pct, peak_rss_mb, prewarm, repeat_setup,
    serve_config,
};
use crate::gen::{Deck, SplitMix, BATCH_SIZES};
use crate::layers::{
    chosen_host_layers, common_layer_metrics, micro_probes, replay_evaluate, set_trace_overhead,
    Derived,
};
use crate::metrics::Outcome;
use crate::stats::{median_of, Samples, Segment};
use crate::trace::{Layers, Recorder};
use crate::{Opts, DIGEST_ITEMS, SETUP_REPEATS};

const HOSTS: usize = 2048;
const HOSTS_SMALL: usize = 256;
/// Two passes over the workload × size deck: the pool's composition is
/// the same for every seed.
const POOL: usize = 40;
const BATCH: usize = 64;
const FILL_VCPUS: usize = 16;
const SIZES: [usize; 3] = [4, 8, 16];
/// Quoted tail: a 10 s run times a few hundred FirstFit batches.
/// Each strategy's half of the timed phase is cut into this many equal
/// segments; each gated number is the median of its per-segment
/// values, so one disturbed second does not move it.
const SEGMENTS: u32 = 5;
/// Quoted tail, per segment (≈ 60 FirstFit batches each).
const TAIL_Q: f64 = 0.8;
/// Decisions kept for the goal check, evaluated after the timed phase.
const GOAL_SAMPLE: usize = 4 * BATCH;

struct Packed {
    engine: PlacementEngine,
    held: Vec<Placed>,
}

impl Packed {
    /// Warm fleet, prefilled in fleet order until 90 % of hosts are
    /// full. FirstFit fills hosts ascending, so the highest machine id
    /// reached is the number of occupied hosts.
    fn build(hosts: usize) -> Packed {
        let engine = mixed_fleet(serve_config(), hosts);
        prewarm(&engine, &SIZES);
        let mut held = Vec::new();
        let mut next_seed = 0u64;
        let mut reached = 0;
        // Small enough a step that the last one cannot overfill the
        // remaining tenth of the fleet.
        let step = (hosts / 16).clamp(16, 256);
        while reached < hosts * 9 / 10 {
            let fill: Vec<PlacementRequest> = (0..step)
                .map(|_| {
                    next_seed += 1;
                    PlacementRequest::new("swaptions", FILL_VCPUS).with_probe_seed(next_seed)
                })
                .collect();
            for decision in engine.place_batch(&fill, BatchStrategy::FirstFit) {
                let placed = decision
                    .placed()
                    .expect("a tenth of the fleet is still free");
                reached = reached.max(placed.machine.0 + 1);
                held.push(placed.clone());
            }
        }
        Packed { engine, held }
    }
}

struct Phase<'a> {
    engine: &'a PlacementEngine,
    reps: Vec<MachineId>,
    pool: Vec<PlacementRequest>,
    /// One pool request per size: `can_fit` is timed over all of them,
    /// so every sample covers the same mix.
    fit_probes: Vec<PlacementRequest>,
    rng: SplitMix,
    rec: Recorder,
    workers: u64,
    batches: u64,
    out: Outcome,
    /// FirstFit batch latencies (the default strategy; BestScore shows
    /// in throughput and in its own layer metric).
    first_fit: Samples,
    best_score: Samples,
    release: Samples,
    can_fit: Samples,
    placed: u64,
    derived: Derived,
    goal_sample: Vec<(PlacementRequest, Placed)>,
}

impl Phase<'_> {
    fn batch(&mut self, strategy: BatchStrategy) {
        self.batches += 1;
        let reqs: Vec<PlacementRequest> = (0..BATCH)
            .map(|_| self.pool[self.rng.below(POOL)].clone())
            .collect();
        self.rec.request(self.batches);
        let root = self.rec.enter("request");

        let (decisions, batch_ns) = self.rec.leaf("engine.place_batch", || {
            self.engine.place_batch(&reqs, strategy)
        });
        match strategy {
            BatchStrategy::FirstFit => self.first_fit.push(batch_ns),
            BatchStrategy::BestScore => self.best_score.push(batch_ns),
        }
        self.out.attempted += BATCH as u64;
        let digesting = self.out.script.items < DIGEST_ITEMS;
        let mut placed = Vec::with_capacity(BATCH);
        for (req, decision) in reqs.iter().zip(&decisions) {
            if digesting {
                self.out.script.request(req);
                self.out.decisions.decision(decision.placed());
            }
            match decision.placed() {
                Some(p) => placed.push((req, p)),
                None => self.out.failed += 1,
            }
        }
        self.placed += placed.len() as u64;

        if self.goal_sample.len() + placed.len() > GOAL_SAMPLE {
            self.goal_sample.clear();
        }
        for (req, p) in &placed {
            self.goal_sample.push(((*req).clone(), (*p).clone()));
            let (released, ns) = self.rec.leaf("engine.release", || self.engine.release(p));
            self.release.push(ns);
            self.out.attempted += 1;
            self.out.failed += u64::from(released.is_err());
        }

        let mut fit_ns = 0;
        for probe in &self.fit_probes {
            let (fit, ns) = self
                .rec
                .leaf("engine.can_fit", || self.engine.can_fit(probe));
            black_box(fit);
            fit_ns += ns;
        }
        self.can_fit.push(fit_ns / self.fit_probes.len() as u64);
        self.out.attempted += self.fit_probes.len() as u64;

        // The layer replay comes after the batch and its releases: the
        // fleet is back in the state the batch saw, and the batch itself
        // ran undisturbed (replaying first slows the following
        // `place_batch` by a quarter). Phase 1 of the real call gives
        // each of `workers` threads one contiguous chunk of the batch
        // and waits for the slowest, so the slowest chunk's sequential
        // replay is what explains it.
        if self.rec.enabled() {
            let chunk = BATCH.div_ceil(self.workers as usize);
            let mut chunk_ns = vec![0u64; self.workers as usize];
            for (i, req) in reqs.iter().enumerate() {
                let mut replay = replay_evaluate(&mut self.rec, self.engine, &self.reps, req);
                let (fit, _) = self.rec.leaf("engine.can_fit", || self.engine.can_fit(req));
                black_box(fit);
                chunk_ns[i / chunk] += replay.eval_ns;
                replay.perf_ns /= self.workers;
                self.derived.replayed(&replay);
            }
            let mut explained = chunk_ns.into_iter().max().unwrap_or(0);
            for (req, p) in &placed {
                explained += chosen_host_layers(&mut self.rec, self.engine, p.machine, req.vcpus);
            }
            self.derived.explained_ns += explained;
            self.derived.place_ns += batch_ns;
        }
        self.rec.exit(root);
    }

    /// Batches of `strategy` for `duration`, in [`SEGMENTS`] segments;
    /// returns each segment's statistics.
    fn run_for(&mut self, strategy: BatchStrategy, duration: Duration) -> Vec<Segment> {
        (0..SEGMENTS)
            .map(|_| {
                let start = Instant::now();
                let placed_before = self.placed;
                let counts = [self.first_fit.len(), self.release.len(), self.can_fit.len()];
                while start.elapsed() < duration / SEGMENTS {
                    self.batch(strategy);
                }
                let batches = match strategy {
                    BatchStrategy::FirstFit => {
                        self.first_fit.range(counts[0]..self.first_fit.len())
                    }
                    BatchStrategy::BestScore => Samples::default(),
                };
                Segment::of(
                    self.placed - placed_before,
                    start.elapsed().as_secs_f64(),
                    &batches,
                    TAIL_Q,
                    &self.release.range(counts[1]..self.release.len()),
                    &self.can_fit.range(counts[2]..self.can_fit.len()),
                )
            })
            .collect()
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let hosts = if opts.small { HOSTS_SMALL } else { HOSTS };
    let repeats = if opts.trace || opts.small {
        1
    } else {
        SETUP_REPEATS
    };
    let (packed, setup_s) = repeat_setup(repeats, || Packed::build(hosts), drop);
    let Packed { engine, held } = packed;

    let mut rng = SplitMix::new(opts.seed);
    let mut deck = Deck::new(&BATCH_SIZES);
    let pool: Vec<PlacementRequest> = (0..POOL).map(|_| deck.request(&mut rng, 0.9)).collect();
    let fit_probes: Vec<PlacementRequest> = SIZES
        .iter()
        .filter_map(|&v| pool.iter().find(|r| r.vcpus == v).cloned())
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(BATCH)) as u64;
    let mut phase = Phase {
        engine: &engine,
        reps: class_reps(&engine),
        pool,
        fit_probes,
        rng,
        rec: Recorder::new(Instant::now(), 0),
        workers,
        batches: 0,
        out: Outcome::default(),
        first_fit: Samples::default(),
        best_score: Samples::default(),
        release: Samples::default(),
        can_fit: Samples::default(),
        placed: 0,
        derived: Derived::default(),
        goal_sample: Vec::new(),
    };
    let total = Duration::from_secs_f64(opts.seconds);

    // A traced run spends its first quarter untraced: the same script,
    // the baseline `trace.overhead_pct` compares against.
    let mut plain_batch = Samples::default();
    if opts.trace {
        phase.run_for(BatchStrategy::FirstFit, total / 4);
        plain_batch = std::mem::take(&mut phase.first_fit);
        phase.release = Samples::default();
        phase.can_fit = Samples::default();
        (phase.out.attempted, phase.out.failed, phase.placed) = (0, 0, 0);
        phase.rec.set_enabled(true);
    }
    let timed = if opts.trace { total * 3 / 4 } else { total };
    let before = engine.stats();
    let start = Instant::now();
    let first_fit_segments = phase.run_for(BatchStrategy::FirstFit, timed / 2);
    let best_score_segments = phase.run_for(BatchStrategy::BestScore, timed / 2);
    let first_fit_per_s = median_of(&first_fit_segments, |s| s.per_s);
    let best_score_per_s = median_of(&best_score_segments, |s| s.per_s);
    let wall_s = start.elapsed().as_secs_f64();
    let after = engine.stats();

    let Phase {
        rec,
        mut out,
        first_fit,
        best_score,
        release,
        can_fit,
        placed,
        derived,
        goal_sample,
        ..
    } = phase;
    let held_vcpus = held.len() * FILL_VCPUS;
    out.checks
        .live_vcpus(&engine, held_vcpus, "end of timed phase");
    let hosts_used = occupied_hosts(&engine);
    out.checks.expect(hosts_used * 10 >= hosts * 9, || {
        format!("prefill left only {hosts_used} of {hosts} hosts occupied")
    });
    out.notes.push(format!(
        "samples: first_fit batches {} best_score batches {} release {} can_fit {} | held {} on {hosts_used} hosts | {workers} phase-1 workers | wall {wall_s:.2}s",
        first_fit.len(),
        best_score.len(),
        release.len(),
        can_fit.len(),
        held.len(),
    ));

    if opts.trace {
        let layers = Layers::fold(std::slice::from_ref(&rec));
        let m = &mut out.metrics;
        common_layer_metrics(m, &layers, &derived, &before, &after, placed);
        // One placement's share of a batch call; phase 1 of the call
        // runs on `workers` threads, so its sequential replay counts
        // 1/workers towards what the commit phase is the rest of.
        let mut batches = first_fit.clone();
        batches.extend(&best_score);
        let place_us = batches.p50_us() / BATCH as f64;
        m.set("engine.place_us", place_us);
        m.set(
            "engine.commit_us",
            place_us - layers.get("engine.can_fit").p50_us() / workers as f64,
        );
        m.set("engine.batch_firstfit_per_s", first_fit_per_s);
        m.set("engine.batch_bestscore_per_s", best_score_per_s);
        set_trace_overhead(m, &first_fit, &plain_batch);
        micro_probes(m, &engine);
        if let Err(e) = crate::write_trace("batch_packed", &[rec]) {
            out.checks.fail(format!("trace file: {e}"));
        }
    } else {
        let met = goal_sample
            .iter()
            .filter(|(req, p)| meets_goal(&engine, req, p))
            .count();
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        // Latency is the FirstFit call's (BestScore segments carry no
        // batch samples); releases and probes come from both halves.
        let every: Vec<Segment> = first_fit_segments
            .into_iter()
            .chain(best_score_segments)
            .collect();
        m.set_timings(&every);
        // The two strategies' rates differ, so their common median would
        // sit on the gap between them: take each's median, then the mean.
        m.set("place_per_s", (first_fit_per_s + best_score_per_s) / 2.0);
        m.set(
            "goal_met_share",
            met as f64 / goal_sample.len().max(1) as f64,
        );
        m.set("model_cv_err_pct", model_cv_err_pct(&engine, &SIZES));
        m.set("hosts_used", hosts_used as f64);
    }

    for placed in &held {
        out.attempted += 1;
        out.failed += u64::from(engine.release(placed).is_err());
    }
    out.checks.drained(&engine);
    out.checks.warm_phase(&before, &after, false);
    if !opts.trace {
        out.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    out
}
