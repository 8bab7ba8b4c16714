//! `served_steady` — the headline user path: a warm 1000-host fleet
//! behind `vc-serve` over loopback TCP, `vcplace serve`'s engine
//! configuration but neighbour-blind (`interference` off, no rebalance
//! loop). One connection, **closed loop** (an orchestrator worker that
//! waits for each reply): each iteration places one request (workload
//! uniform; vCPUs 2/4/8/16/32 with weights 25/30/25/15/5; goal 0.9;
//! unique probe seed, 0 % probe repeat; FirstFit), releases a random
//! live ticket once the client holds more than 200, and every 80th
//! iteration issues five `can_fit` probes (one per size) and five
//! `occupancy` reads. The first tenth of
//! the run is an unrecorded warm-up. A traced run ends with an
//! **open-loop** phase at 1000 place/s, timed from each request's due
//! time, for the `serve.open1000_*` layer metrics (a sleep-paced open
//! loop did not repeat in sizing, so it does not gate).
//!
//! Why: it is what a client of the daemon sees. `vc-serve`
//! (wire/rpc/server) does most of the work for `release` and the reads,
//! `vc-sim` probes for `place`; the fleet is mostly empty, so descent
//! and interference do nothing.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_engine::{BatchStrategy, EngineStats, MachineId, PlacementEngine};
use vc_serve::rpc::WireRequest;
use vc_serve::wire::{read_frame, write_frame};
use vc_serve::{Client, PlaceOutcome, PlacementServer, Request, Response, ServerConfig};

use crate::checks::occupied_hosts;
use crate::fleet::{
    class_reps, mixed_fleet, model_cv_err_pct, peak_rss_mb, prewarm, repeat_setup,
    residents_meeting_goal, serve_config,
};
use crate::gen::{Deck, Digest, SplitMix, ALL_SIZES, SERVED_SIZES};
use crate::layers::{
    common_layer_metrics, micro_probes, set_trace_overhead, traced_place, Derived,
};
use crate::metrics::Outcome;
use crate::stats::{median, Samples, Segment};
use crate::trace::{Layers, Recorder};
use crate::{Opts, DIGEST_ITEMS, SETUP_REPEATS};

const HOSTS: usize = 1000;
const HOSTS_SMALL: usize = 128;
/// One connection: the run is pinned to one CPU (see `main.rs`), where a
/// second closed-loop client would only queue behind the first and put
/// its time slices inside the first one's spans.
const CLIENTS: usize = 1;
/// Tickets a client holds before it starts releasing.
const HOLD: usize = 200;
const TAIL_Q: f64 = 0.99;
/// The timed phase is cut into this many equal segments; each gated
/// number is the median of its per-segment values, so one disturbed
/// second does not move it.
const SEGMENTS: usize = 9;
/// Open-loop rate over all clients, requests per second.
const OPEN_RATE: f64 = 1000.0;

struct Daemon {
    engine: Arc<PlacementEngine>,
    server: PlacementServer,
}

impl Daemon {
    /// Fleet, trained models, listening daemon answering a ping.
    fn build(hosts: usize) -> Daemon {
        let engine = Arc::new(mixed_fleet(serve_config(), hosts));
        prewarm(&engine, &ALL_SIZES);
        let server = PlacementServer::spawn(Arc::clone(&engine), ServerConfig::default())
            .expect("bind a loopback port");
        Client::connect(server.local_addr())
            .expect("connect to the daemon")
            .ping()
            .expect("daemon answers");
        Daemon { engine, server }
    }
}

/// When each phase of a run ends.
struct Schedule {
    warm_until: Instant,
    /// Traced runs only: end of the untraced baseline segment.
    plain_until: Option<Instant>,
    timed_until: Instant,
    open_for: Option<Duration>,
}

/// One client connection and everything it measured.
struct Lane {
    client: Client,
    rng: SplitMix,
    deck: Deck,
    rec: Recorder,
    hosts: usize,
    iter: u64,
    live: Vec<(u64, usize)>,
    attempted: u64,
    failed: u64,
    script: Digest,
    place: Samples,
    /// Served place latency of the untraced baseline segment.
    plain_place: Samples,
    release: Samples,
    can_fit: Samples,
    derived: Derived,
    open_place: Samples,
    open_max_late: Duration,
    timed_s: f64,
    /// `(place, release, can_fit)` sample counts at each segment
    /// boundary of the timed phase, its start included.
    marks: Vec<[usize; 3]>,
    /// Occupied hosts at each segment boundary (lane 0 samples them).
    hosts_used: Vec<f64>,
    stats: Option<(EngineStats, EngineStats)>,
}

impl Lane {
    fn wire(req: &vc_engine::PlacementRequest) -> WireRequest {
        WireRequest {
            workload: req.workload.clone(),
            vcpus: req.vcpus as u32,
            goal_frac: req.goal_frac,
            probe_seed: req.probe_seed,
        }
    }

    fn forget_samples(&mut self) {
        self.place = Samples::default();
        self.release = Samples::default();
        self.can_fit = Samples::default();
        (self.attempted, self.failed) = (0, 0);
    }

    fn hold(&mut self, outcome: Result<PlaceOutcome, vc_serve::ClientError>, vcpus: usize) {
        match outcome {
            Ok(PlaceOutcome::Placed(info)) => self.live.push((info.ticket, vcpus)),
            Ok(PlaceOutcome::Rejected { .. }) | Err(_) => self.failed += 1,
        }
    }

    fn release_one(&mut self, draw: u64, timed: bool) {
        if self.live.len() <= HOLD {
            return;
        }
        let (ticket, _) = self
            .live
            .swap_remove((draw % self.live.len() as u64) as usize);
        let (released, ns) = self
            .rec
            .leaf("serve.release", || self.client.release(ticket));
        if timed {
            self.release.push(ns);
        }
        self.attempted += 1;
        self.failed += u64::from(released.is_err());
    }

    /// One closed-loop iteration.
    fn step(&mut self, engine: &PlacementEngine, reps: &[MachineId]) {
        self.iter += 1;
        let req = self.deck.request(&mut self.rng, 0.9);
        let release_draw = self.rng.next_u64();
        if self.script.items < DIGEST_ITEMS {
            self.script.request(&req);
        }
        let wire = Lane::wire(&req);
        self.rec.request(self.iter);
        let root = self.rec.enter("request");

        if self.rec.enabled() {
            // The same request straight into the engine, undone at
            // once, so the served round trip below decomposes into
            // engine time and transport.
            let (decision, _) = traced_place(&mut self.rec, engine, reps, &req, &mut self.derived);
            if let Some(placed) = decision.placed() {
                let (released, _) = self.rec.leaf("engine.release", || engine.release(placed));
                self.failed += u64::from(released.is_err());
            }
            self.codec_probes(&wire);
        }

        let (outcome, ns) = self.rec.leaf("serve.place", || {
            self.client.place(wire.clone(), BatchStrategy::FirstFit)
        });
        self.place.push(ns);
        self.attempted += 1;
        if self.rec.enabled() {
            if let Ok(outcome) = &outcome {
                let response = Response::Place(outcome.clone());
                let (bytes, _) = self.rec.leaf("serve.rpc_encode_resp", || response.encode());
                let (decoded, _) = self
                    .rec
                    .leaf("serve.rpc_decode_resp", || Response::decode(&bytes));
                black_box(decoded.is_ok());
            }
        }
        self.hold(outcome, req.vcpus);
        self.release_one(release_draw, true);

        // Reads, one `can_fit` + one `occupancy` per 16 iterations on
        // average: one probe per size at a time, so every sample covers
        // the same mix (a probe's cost follows its size).
        if self.iter.is_multiple_of(16 * ALL_SIZES.len() as u64) {
            let mut total_ns = 0;
            for vcpus in ALL_SIZES {
                let probe = WireRequest {
                    vcpus: vcpus as u32,
                    probe_seed: self.rng.next_u64(),
                    ..wire.clone()
                };
                let (fit, ns) = self
                    .rec
                    .leaf("serve.can_fit", || self.client.can_fit(probe));
                total_ns += ns;
                let machine = self.rng.below(self.hosts) as u32;
                let (occupancy, _) = self
                    .rec
                    .leaf("serve.occupancy", || self.client.occupancy(machine));
                self.attempted += 2;
                self.failed += u64::from(fit.is_err()) + u64::from(occupancy.is_err());
            }
            self.can_fit.push(total_ns / ALL_SIZES.len() as u64);
        }
        self.rec.exit(root);
    }

    /// The rpc and wire codecs on in-memory buffers, and one ping.
    fn codec_probes(&mut self, wire: &WireRequest) {
        let request = Request::Place {
            req: wire.clone(),
            strategy: BatchStrategy::FirstFit,
        };
        let (bytes, _) = self.rec.leaf("serve.rpc_encode_req", || request.encode());
        let (decoded, _) = self
            .rec
            .leaf("serve.rpc_decode_req", || Request::decode(&bytes));
        let (framed, _) = self.rec.leaf("serve.wire_frame", || {
            let mut buffer = Vec::with_capacity(bytes.len() + 4);
            write_frame(&mut buffer, &bytes).and_then(|()| read_frame(&mut Cursor::new(&buffer)))
        });
        let (pong, _) = self.rec.leaf("serve.ping", || self.client.ping());
        self.failed += u64::from(decoded.is_err() || framed.is_err() || pong.is_err());
    }

    /// Places on a fixed schedule whatever the daemon's pace; latency
    /// counts from the due time, so a stall charges every request it
    /// delays.
    fn open_loop(&mut self, rate_per_s: f64, duration: Duration) {
        let gap = Duration::from_secs_f64(1.0 / rate_per_s);
        let start = Instant::now();
        for k in 0.. {
            let due = start + gap * k;
            if due - start >= duration {
                break;
            }
            // Sleep to within 200 µs of the due time, then spin.
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                if wait > Duration::from_micros(300) {
                    std::thread::sleep(wait - Duration::from_micros(200));
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            }
            self.open_max_late = self.open_max_late.max(Instant::now() - due);
            let req = self.deck.request(&mut self.rng, 0.9);
            let release_draw = self.rng.next_u64();
            let outcome = self.client.place(Lane::wire(&req), BatchStrategy::FirstFit);
            self.open_place
                .push((Instant::now() - due).as_nanos() as u64);
            self.attempted += 1;
            self.hold(outcome, req.vcpus);
            self.release_one(release_draw, false);
        }
    }

    fn run(mut self, engine: &PlacementEngine, schedule: &Schedule) -> Lane {
        let reps = class_reps(engine);
        while Instant::now() < schedule.warm_until {
            self.step(engine, &reps);
        }
        self.forget_samples();
        if let Some(plain_until) = schedule.plain_until {
            while Instant::now() < plain_until {
                self.step(engine, &reps);
            }
            self.plain_place = std::mem::take(&mut self.place);
            self.forget_samples();
            self.rec.set_enabled(true);
        }
        let before = engine.stats();
        let start = Instant::now();
        let segment = schedule.timed_until.saturating_duration_since(start) / SEGMENTS as u32;
        let mut next_mark = start;
        loop {
            let now = Instant::now();
            if now >= next_mark && self.marks.len() <= SEGMENTS {
                self.marks
                    .push([self.place.len(), self.release.len(), self.can_fit.len()]);
                if self.rec.lane() == 0 {
                    self.hosts_used.push(occupied_hosts(engine) as f64);
                }
                next_mark += segment;
            }
            if now >= schedule.timed_until {
                break;
            }
            self.step(engine, &reps);
        }
        self.timed_s = start.elapsed().as_secs_f64();
        self.stats = Some((before, engine.stats()));
        self.rec.set_enabled(false);
        if let Some(open_for) = schedule.open_for {
            self.open_loop(OPEN_RATE / CLIENTS as f64, open_for);
        }
        self
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let hosts = if opts.small { HOSTS_SMALL } else { HOSTS };
    let repeats = if opts.trace || opts.small {
        1
    } else {
        SETUP_REPEATS
    };
    let (daemon, setup_s) = repeat_setup(
        repeats,
        || Daemon::build(hosts),
        |d: Daemon| d.server.shutdown(),
    );
    let Daemon { engine, server } = daemon;
    let addr = server.local_addr();

    // Untraced: a tenth warm-up, the rest timed. Traced: a tenth
    // warm-up, two tenths untraced baseline, four tenths traced, three
    // tenths open loop.
    let tenth = Duration::from_secs_f64(opts.seconds / 10.0);
    let now = Instant::now();
    let schedule = if opts.trace {
        Schedule {
            warm_until: now + tenth,
            plain_until: Some(now + tenth * 3),
            timed_until: now + tenth * 7,
            open_for: Some(tenth * 3),
        }
    } else {
        Schedule {
            warm_until: now + tenth,
            plain_until: None,
            timed_until: now + tenth * 10,
            open_for: None,
        }
    };

    let mut rng = SplitMix::new(opts.seed);
    let lanes: Vec<Lane> = (0..CLIENTS)
        .map(|lane| Lane {
            client: Client::connect(addr).expect("connect to the daemon"),
            rng: rng.fork(lane as u64),
            deck: Deck::new(&SERVED_SIZES),
            rec: Recorder::new(now, lane as u32),
            hosts,
            iter: 0,
            live: Vec::new(),
            attempted: 0,
            failed: 0,
            script: Digest::default(),
            place: Samples::default(),
            plain_place: Samples::default(),
            release: Samples::default(),
            can_fit: Samples::default(),
            derived: Derived::default(),
            open_place: Samples::default(),
            open_max_late: Duration::ZERO,
            timed_s: 0.0,
            marks: Vec::new(),
            hosts_used: Vec::new(),
            stats: None,
        })
        .collect();
    let mut lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| scope.spawn(|| lane.run(&engine, &schedule)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut out = Outcome::default();
    let (mut place, mut plain_place, mut release, mut can_fit, mut open_place) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut derived = Derived::default();
    let (mut live_vcpus, mut live_tickets) = (0, 0);
    let mut open_max_late = Duration::ZERO;
    for lane in &lanes {
        place.extend(&lane.place);
        plain_place.extend(&lane.plain_place);
        release.extend(&lane.release);
        can_fit.extend(&lane.can_fit);
        open_place.extend(&lane.open_place);
        derived.merge(&lane.derived);
        live_vcpus += lane.live.iter().map(|(_, v)| v).sum::<usize>();
        live_tickets += lane.live.len();
        open_max_late = open_max_late.max(lane.open_max_late);
        out.attempted += lane.attempted;
        out.failed += lane.failed;
        out.script.merge(&lane.script);
    }
    out.checks
        .live_vcpus(&engine, live_vcpus, "end of timed phase");
    let (met, total_live) = residents_meeting_goal(&engine);
    out.checks.expect(total_live == live_tickets, || {
        format!("clients hold {live_tickets} tickets, the fleet has {total_live} residents")
    });
    let hosts_used = median(&lanes[0].hosts_used);
    out.notes.push(format!(
        "samples: place {} release {} can_fit {} open-loop place {} | {CLIENTS} connections, closed loop, {SEGMENTS} segments | live {live_tickets} on {hosts_used} hosts (median over segment ends)",
        place.len(),
        release.len(),
        can_fit.len(),
        open_place.len(),
    ));
    if !place.supports(TAIL_Q) {
        out.notes.push(format!(
            "place tail p{TAIL_Q} has fewer than 10 samples beyond it"
        ));
    }
    let (before, after) = lanes[0].stats.expect("lane 0 ran its timed phase");

    if opts.trace {
        let recorders: Vec<Recorder> = lanes.iter_mut().map(|l| l.rec.take()).collect();
        let layers = Layers::fold(&recorders);
        let m = &mut out.metrics;
        // A traced iteration places twice: straight and served.
        common_layer_metrics(
            m,
            &layers,
            &derived,
            &before,
            &after,
            2 * place.len() as u64,
        );
        m.set("serve.ping_rtt_us", layers.get("serve.ping").p50_us());
        m.set(
            "serve.rpc_encode_req_ns",
            layers.get("serve.rpc_encode_req").p50_ns(),
        );
        m.set(
            "serve.rpc_decode_req_ns",
            layers.get("serve.rpc_decode_req").p50_ns(),
        );
        m.set(
            "serve.rpc_encode_resp_ns",
            layers.get("serve.rpc_encode_resp").p50_ns(),
        );
        m.set(
            "serve.rpc_decode_resp_ns",
            layers.get("serve.rpc_decode_resp").p50_ns(),
        );
        m.set(
            "serve.wire_frame_ns",
            layers.get("serve.wire_frame").p50_ns(),
        );
        m.set(
            "serve.overhead_us",
            plain_place.p50_us() - layers.get("engine.place").p50_us(),
        );
        set_trace_overhead(m, &place, &plain_place);
        m.set("serve.open1000_place_p50_us", open_place.p50_us());
        m.set(
            "serve.open1000_place_p99_us",
            open_place.quantile(0.99) / 1e3,
        );
        m.set(
            "serve.open1000_max_late_ms",
            open_max_late.as_secs_f64() * 1e3,
        );
        // A fresh connection's first answer: connect + ping + close
        // (the accept loop polls every 2 ms).
        let mut connects = Samples::default();
        for _ in 0..50 {
            let t = Instant::now();
            let pong = Client::connect(addr).map(|mut c| c.ping());
            connects.push(t.elapsed().as_nanos() as u64);
            out.failed += u64::from(!matches!(pong, Ok(Ok(()))));
        }
        m.set("serve.connect_ping_us", connects.p50_us());
        micro_probes(m, &engine);
        if let Err(e) = crate::write_trace("served_steady", &recorders) {
            out.checks.fail(format!("trace file: {e}"));
        }
    } else {
        // Per segment over both lanes; reported: the median over segments.
        let segment_s = lanes[0].timed_s / SEGMENTS as f64;
        let segments: Vec<Segment> = (0..SEGMENTS)
            .map(|seg| {
                let mut merged = [Samples::default(), Samples::default(), Samples::default()];
                for lane in &lanes {
                    if let Some(&[from, to]) = lane.marks.windows(2).nth(seg) {
                        let kinds = [&lane.place, &lane.release, &lane.can_fit];
                        for (kind, all) in kinds.into_iter().enumerate() {
                            merged[kind].extend(&all.range(from[kind]..to[kind]));
                        }
                    }
                }
                let [place, release, can_fit] = merged;
                Segment::of(
                    place.len() as u64,
                    segment_s,
                    &place,
                    TAIL_Q,
                    &release,
                    &can_fit,
                )
            })
            .collect();
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set_timings(&segments);
        m.set("goal_met_share", met as f64 / total_live.max(1) as f64);
        m.set("model_cv_err_pct", model_cv_err_pct(&engine, &ALL_SIZES));
        m.set("hosts_used", hosts_used);
    }

    // Drain over the wire, then stop the daemon and join its threads.
    for mut lane in lanes {
        for (ticket, _) in std::mem::take(&mut lane.live) {
            out.attempted += 1;
            out.failed += u64::from(lane.client.release(ticket).is_err());
        }
    }
    let leaked = server.registry_tickets().len();
    out.checks.expect(leaked == 0, || {
        format!("daemon registry still holds {leaked} tickets")
    });
    server.shutdown();
    out.checks.drained(&engine);
    out.checks.warm_phase(&before, &after, false);
    if !opts.trace {
        out.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    out
}
