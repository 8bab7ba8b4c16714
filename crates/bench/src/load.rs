//! The one concurrent load driver: N clients of seeded place/release
//! churn against anything that can place and release, optionally with a
//! background thread running [`PlacementEngine::rebalance`] passes the
//! whole time.
//!
//! Each client owns one [`Target`] — a `&PlacementEngine` in process, a
//! connected [`vc_serve::Client`] through the daemon — and runs the same
//! script: place a request drawn from the pool, sometimes release one of
//! its live containers, repeat; whatever survives is released before the
//! client returns, so a run always drains. The script is a pure function
//! of [`Load::seed`] and the client index, so both targets see the same
//! request sequence. Client-observed latencies land in a
//! [`LatencySummary`], which holds the one quantile rule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vc_engine::{
    BatchStrategy, Placed, PlacementEngine, PlacementRequest, RebalancePolicy, RebalanceTotals,
};
use vc_serve::rpc::WireRequest;
use vc_serve::{Client, PlaceOutcome};

/// Latency samples of one operation class, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Sorted samples, nanoseconds.
    samples: Vec<u64>,
}

/// The percentiles [`LatencySummary::tail`] chooses from, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.95, 0.9];

impl LatencySummary {
    /// Summarises raw nanosecond samples (any order).
    pub fn from_nanos(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencySummary { samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Index of the `q`-quantile in the sorted samples: nearest rank,
    /// `round((n − 1)·q)`.
    fn rank(&self, q: f64) -> usize {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        (self.samples.len().saturating_sub(1) as f64 * q).round() as usize
    }

    /// The `q`-quantile (nearest rank on the sorted samples), ns. `0.0`
    /// gives the minimum, `1.0` the maximum; 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.samples.get(self.rank(q)).copied().unwrap_or(0)
    }

    /// The `q`-quantile in microseconds.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e3
    }

    /// The quotable tail: the highest of p99.9 / p99 / p95 / p90 with at
    /// least ten samples beyond it, as `(q, samples beyond)`. `None` when
    /// even p90 has fewer (under about a hundred samples) — a tail read
    /// off fewer is one outlier's value.
    pub fn tail(&self) -> Option<(f64, usize)> {
        TAIL_LADDER.iter().find_map(|&q| {
            let beyond = self.samples.len().checked_sub(self.rank(q) + 1)?;
            (beyond >= 10).then_some((q, beyond))
        })
    }
}

/// What one load client drives: place one request, release one handle.
/// Both methods panic when the target fails for any reason other than a
/// placement rejection — a load run has no use for a broken target.
pub trait Target {
    /// What a committed placement is released by.
    type Handle;
    /// Places one request; `None` when the fleet rejected it.
    fn place(&mut self, req: PlacementRequest, strategy: BatchStrategy) -> Option<Self::Handle>;
    /// Releases a live placement.
    fn release(&mut self, handle: Self::Handle);
}

impl Target for &PlacementEngine {
    type Handle = Placed;

    fn place(&mut self, req: PlacementRequest, strategy: BatchStrategy) -> Option<Placed> {
        let decision = self.place_batch(&[req], strategy).pop();
        decision
            .expect("one decision per request")
            .placed()
            .cloned()
    }

    fn release(&mut self, placed: Placed) {
        PlacementEngine::release(self, &placed).expect("live container releases exactly once");
    }
}

impl Target for Client {
    type Handle = u64;

    fn place(&mut self, req: PlacementRequest, strategy: BatchStrategy) -> Option<u64> {
        let wire = WireRequest {
            workload: req.workload,
            vcpus: req.vcpus as u32,
            goal_frac: req.goal_frac,
            probe_seed: req.probe_seed,
        };
        match Client::place(self, wire, strategy).expect("daemon answers place") {
            PlaceOutcome::Placed(info) => Some(info.ticket),
            PlaceOutcome::Rejected { .. } => None,
        }
    }

    fn release(&mut self, ticket: u64) {
        Client::release(self, ticket).expect("daemon releases a live ticket");
    }
}

/// The churn script every client runs.
///
/// # Examples
///
/// ```
/// use vc_bench::load::Load;
/// use vc_engine::{EngineConfig, PlacementEngine, PlacementRequest};
/// use vc_topology::machines;
///
/// let mut engine = PlacementEngine::new(
///     EngineConfig { extra_synthetic: 0, ..EngineConfig::default() },
/// );
/// engine.add_machine(machines::amd_opteron_6272());
/// engine.add_machine(machines::amd_opteron_6272());
///
/// let load = Load {
///     requests_per_client: 4,
///     pool: vec![PlacementRequest::new("swaptions", 16)],
///     ..Load::default()
/// };
/// // Two in-process clients, no background rebalancer.
/// let report = load.run(vec![&engine, &engine], None);
/// assert_eq!(report.placed + report.rejected, 2 * 4);
/// assert_eq!(report.place.count(), 2 * 4);
/// assert_eq!(report.release.count(), report.placed);
/// assert_eq!(engine.num_residents(), 0); // the run drains
/// ```
#[derive(Debug, Clone)]
pub struct Load {
    /// Placement attempts per client.
    pub requests_per_client: usize,
    /// Request pool, drawn per iteration by each client's RNG.
    pub pool: Vec<PlacementRequest>,
    /// Machine-selection strategy.
    pub strategy: BatchStrategy,
    /// Base seed; client `i` runs stream `seed + i`.
    pub seed: u64,
    /// Per-iteration probability (in percent) that a client releases
    /// one of its live containers after placing.
    pub release_pct: u32,
}

impl Default for Load {
    fn default() -> Self {
        Load {
            requests_per_client: 16,
            pool: vec![PlacementRequest::new("swaptions", 16).with_goal(0.9)],
            strategy: BatchStrategy::FirstFit,
            seed: 42,
            release_pct: 50,
        }
    }
}

/// What a load run observed, aggregated over all clients.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Client-observed latency of each place call.
    pub place: LatencySummary,
    /// Client-observed latency of each release call.
    pub release: LatencySummary,
    /// Placements that committed.
    pub placed: usize,
    /// Placements the fleet rejected (momentarily full under churn).
    pub rejected: usize,
    /// What the background rebalancer did while clients ran (all zero
    /// when the run had none).
    pub rebalance: RebalanceTotals,
}

/// One client's share of a [`LoadReport`].
#[derive(Default)]
struct ClientOutcome {
    place_ns: Vec<u64>,
    release_ns: Vec<u64>,
    placed: usize,
    rejected: usize,
}

impl Load {
    /// Untimed warm-up: places and releases every pool entry once, so
    /// catalogs and models for every size the script draws are trained
    /// before the first timed sample.
    pub fn warm_up<T: Target>(&self, target: &mut T) {
        for req in &self.pool {
            if let Some(handle) = target.place(req.clone(), self.strategy) {
                target.release(handle);
            }
        }
    }

    /// Runs one client per target, blocking until all have drained.
    /// With `rebalance`, a background thread runs passes of that policy
    /// on that engine back to back until the last client finishes.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool, and when a target fails or a thread
    /// dies — either means the system under load broke.
    pub fn run<T: Target + Send>(
        &self,
        targets: Vec<T>,
        rebalance: Option<(&PlacementEngine, &RebalancePolicy)>,
    ) -> LoadReport {
        assert!(!self.pool.is_empty(), "load needs a request pool");
        let stop = AtomicBool::new(false);
        let (outcomes, totals) = std::thread::scope(|s| {
            let rebalancer = rebalance.map(|(engine, policy)| {
                let stop = &stop;
                s.spawn(move || {
                    let mut totals = RebalanceTotals::default();
                    while !stop.load(Ordering::Acquire) {
                        totals.absorb(&engine.rebalance(policy));
                        std::thread::yield_now();
                    }
                    totals
                })
            });
            let clients: Vec<_> = targets
                .into_iter()
                .enumerate()
                .map(|(idx, target)| s.spawn(move || self.run_client(target, idx)))
                .collect();
            let outcomes: Vec<ClientOutcome> = clients
                .into_iter()
                .map(|h| h.join().expect("client thread died under load"))
                .collect();
            stop.store(true, Ordering::Release);
            let totals = rebalancer.map(|r| r.join().expect("rebalancer thread died"));
            (outcomes, totals.unwrap_or_default())
        });

        let (mut place, mut release) = (Vec::new(), Vec::new());
        let (mut placed, mut rejected) = (0, 0);
        for o in outcomes {
            place.extend(o.place_ns);
            release.extend(o.release_ns);
            placed += o.placed;
            rejected += o.rejected;
        }
        LoadReport {
            place: LatencySummary::from_nanos(place),
            release: LatencySummary::from_nanos(release),
            placed,
            rejected,
            rebalance: totals,
        }
    }

    fn run_client<T: Target>(&self, mut target: T, client_idx: usize) -> ClientOutcome {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(client_idx as u64));
        let mut live: Vec<T::Handle> = Vec::new();
        let mut out = ClientOutcome::default();
        let mut timed_release = |target: &mut T, handle: T::Handle| {
            let start = Instant::now();
            target.release(handle);
            out.release_ns.push(start.elapsed().as_nanos() as u64);
        };
        for iteration in 0..self.requests_per_client {
            // A client- and iteration-unique probe seed: no two requests
            // of a run share their probe measurements.
            let req = self.pool[rng.random_range(0..self.pool.len())]
                .clone()
                .with_probe_seed((client_idx * self.requests_per_client + iteration) as u64);
            let start = Instant::now();
            let handle = target.place(req, self.strategy);
            out.place_ns.push(start.elapsed().as_nanos() as u64);
            match handle {
                Some(handle) => {
                    out.placed += 1;
                    live.push(handle);
                }
                None => out.rejected += 1,
            }
            if !live.is_empty() && rng.random_range(0..100u32) < self.release_pct {
                let victim = live.swap_remove(rng.random_range(0..live.len()));
                timed_release(&mut target, victim);
            }
        }
        // Drain: nothing this client placed may outlive it.
        for handle in live {
            timed_release(&mut target, handle);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vc_engine::EngineConfig;
    use vc_ml::forest::ForestConfig;
    use vc_serve::{PlacementServer, ServerConfig};
    use vc_topology::machines;

    /// `hosts` AMD boxes on a small corpus and forest, interference and
    /// a tight degradation budget on so rebalance passes do real work.
    fn fleet(hosts: usize) -> PlacementEngine {
        let mut e = PlacementEngine::new(EngineConfig {
            n_seeds: 2,
            extra_synthetic: 0,
            forest: ForestConfig {
                n_trees: 20,
                ..ForestConfig::default()
            },
            interference: true,
            degradation_budget: Some(0.01),
            ..EngineConfig::default()
        });
        for _ in 0..hosts {
            e.add_machine(machines::amd_opteron_6272());
        }
        e
    }

    fn mixed_load(requests_per_client: usize) -> Load {
        Load {
            requests_per_client,
            pool: vec![
                PlacementRequest::new("streamcluster", 4),
                PlacementRequest::new("WTbtree", 8),
                PlacementRequest::new("swaptions", 16),
            ],
            ..Load::default()
        }
    }

    /// One call a client made, as a [`Recorder`] saw it.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Place {
            workload: String,
            probe_seed: u64,
            handle: Option<u64>,
        },
        Release(u64),
    }

    /// A fake target that logs every call and rejects every
    /// `reject_every`-th placement (never when 0), so the script can be
    /// checked without a fleet.
    #[derive(Default)]
    struct Recorder {
        reject_every: usize,
        attempts: usize,
        calls: Vec<Call>,
    }

    impl Target for &mut Recorder {
        type Handle = u64;

        fn place(&mut self, req: PlacementRequest, _: BatchStrategy) -> Option<u64> {
            self.attempts += 1;
            let rejected = self.reject_every > 0 && self.attempts.is_multiple_of(self.reject_every);
            let handle = (!rejected).then_some(self.calls.len() as u64);
            self.calls.push(Call::Place {
                workload: req.workload,
                probe_seed: req.probe_seed,
                handle,
            });
            handle
        }

        fn release(&mut self, handle: u64) {
            self.calls.push(Call::Release(handle));
        }
    }

    /// Runs `load` against `clients` fresh recorders, returning their logs.
    fn record(load: &Load, clients: usize, reject_every: usize) -> (LoadReport, Vec<Vec<Call>>) {
        let mut recorders: Vec<Recorder> = (0..clients)
            .map(|_| Recorder {
                reject_every,
                ..Recorder::default()
            })
            .collect();
        let report = load.run(recorders.iter_mut().collect(), None);
        (report, recorders.into_iter().map(|r| r.calls).collect())
    }

    /// The script is a pure function of the seed and the client index:
    /// a rerun replays every call, clients of one run differ, and a new
    /// seed draws a new script.
    #[test]
    fn the_script_is_a_pure_function_of_seed_and_client() {
        let load = mixed_load(24);
        let (_, a) = record(&load, 2, 0);
        let (_, b) = record(&load, 2, 0);
        assert_eq!(a, b, "same seed, same calls");
        assert_ne!(a[0], a[1], "clients run distinct streams");
        let reseeded = Load {
            seed: load.seed + 100,
            ..load.clone()
        };
        let (_, c) = record(&reseeded, 2, 0);
        assert_ne!(a[0], c[0], "a new seed draws a new script");
    }

    /// No two requests of a run share a probe seed, across clients and
    /// iterations alike.
    #[test]
    fn probe_seeds_are_unique_across_a_run() {
        let (clients, per_client) = (3, 10);
        let (_, logs) = record(&mixed_load(per_client), clients, 0);
        let mut seeds: Vec<u64> = logs
            .iter()
            .flatten()
            .filter_map(|c| match c {
                Call::Place { probe_seed, .. } => Some(*probe_seed),
                Call::Release(_) => None,
            })
            .collect();
        seeds.sort_unstable();
        assert_eq!(
            seeds,
            (0..(clients * per_client) as u64).collect::<Vec<_>>()
        );
    }

    /// Every placed handle is released exactly once, after its placement,
    /// and a rejected attempt never is; the report counts match the log.
    #[test]
    fn each_placed_handle_is_released_exactly_once() {
        let (report, logs) = record(&mixed_load(20), 2, 3);
        assert!(report.rejected > 0, "every third attempt is rejected");
        let mut placed = 0;
        for log in &logs {
            let mut live: Vec<u64> = Vec::new();
            for call in log {
                match call {
                    Call::Place {
                        handle: Some(h), ..
                    } => live.push(*h),
                    Call::Place { handle: None, .. } => {}
                    Call::Release(h) => {
                        let at = live.iter().position(|l| l == h);
                        live.swap_remove(at.expect("released a handle not live"));
                        placed += 1;
                    }
                }
            }
            assert!(live.is_empty(), "the client drained: {live:?} left live");
        }
        assert_eq!(placed, report.placed);
        assert_eq!(report.placed + report.rejected, 2 * 20);
        assert_eq!(report.release.count(), report.placed);
    }

    /// `release_pct` bounds the churn: at 0 every release waits for the
    /// drain; at 100 each placement is followed by a release, so a
    /// client never holds two containers.
    #[test]
    fn release_pct_sets_when_containers_depart() {
        let hold = Load {
            release_pct: 0,
            ..mixed_load(8)
        };
        let (_, logs) = record(&hold, 1, 0);
        let (places, releases) = logs[0].split_at(8);
        assert!(places.iter().all(|c| matches!(c, Call::Place { .. })));
        assert_eq!(releases.len(), 8, "all eight drain at the end");
        assert!(releases.iter().all(|c| matches!(c, Call::Release(_))));

        let churn = Load {
            release_pct: 100,
            ..mixed_load(8)
        };
        let (_, logs) = record(&churn, 1, 0);
        assert_eq!(logs[0].len(), 16);
        for pair in logs[0].chunks(2) {
            match pair {
                [Call::Place {
                    handle: Some(h), ..
                }, Call::Release(r)] => assert_eq!(h, r),
                other => panic!("expected place then release: {other:?}"),
            }
        }
    }

    /// Warm-up places every pool entry once, in pool order, and releases
    /// what was placed.
    #[test]
    fn warm_up_places_and_releases_each_pool_entry_once() {
        let load = mixed_load(4);
        let mut recorder = Recorder::default();
        load.warm_up(&mut &mut recorder);
        let workloads: Vec<&str> = recorder
            .calls
            .iter()
            .filter_map(|c| match c {
                Call::Place { workload, .. } => Some(workload.as_str()),
                Call::Release(_) => None,
            })
            .collect();
        assert_eq!(workloads, ["streamcluster", "WTbtree", "swaptions"]);
        assert_eq!(recorder.calls.len(), 2 * load.pool.len());
    }

    #[test]
    #[should_panic(expected = "load needs a request pool")]
    fn an_empty_pool_is_refused() {
        let load = Load {
            pool: Vec::new(),
            ..Load::default()
        };
        record(&load, 1, 0);
    }

    #[test]
    fn latency_summary_quantiles_are_nearest_rank() {
        let s = LatencySummary::from_nanos(vec![50, 10, 40, 20, 30]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.0), 10);
        assert_eq!(s.quantile(0.5), 30);
        assert_eq!(s.quantile(0.99), 50);
        assert_eq!(s.quantile(1.0), 50);
        assert_eq!(s.quantile_us(0.5), 0.03);
        let empty = LatencySummary::from_nanos(Vec::new());
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.tail(), None);
    }

    /// The rule, pinned: index `round((n − 1)·q)` of the sorted samples,
    /// and the tail is the highest ladder percentile with at least ten
    /// samples strictly beyond that index.
    #[test]
    fn quantile_rule_on_1_2_and_1000_samples() {
        let one = LatencySummary::from_nanos(vec![7]);
        assert_eq!(
            (one.quantile(0.0), one.quantile(0.5), one.quantile(1.0)),
            (7, 7, 7)
        );
        assert_eq!(one.tail(), None);

        let two = LatencySummary::from_nanos(vec![9, 3]);
        assert_eq!(two.quantile(0.49), 3);
        assert_eq!(two.quantile(0.5), 9, "0.5 rounds away from zero");
        assert_eq!(two.tail(), None);

        // Samples 1..=1000: index i holds i + 1.
        let k = LatencySummary::from_nanos((1..=1000).rev().collect());
        assert_eq!(k.quantile(0.5), 501, "round(499.5) = 500");
        assert_eq!(k.quantile(0.99), 990, "round(989.01) = 989");
        assert_eq!(k.quantile(0.999), 999);
        // p99.9 has one sample beyond it, p99 has exactly ten.
        assert_eq!(k.tail(), Some((0.99, 10)));
        let short = LatencySummary::from_nanos((1..=950).collect());
        assert_eq!(
            short.tail(),
            Some((0.95, 47)),
            "950 samples: p99 has only 9 beyond"
        );
        let tiny = LatencySummary::from_nanos((1..=95).collect());
        assert_eq!(tiny.tail(), None, "p90 of 95 samples has 9 beyond");
    }

    /// Eight clients against a shared fleet while a rebalancer runs:
    /// every attempt is accounted for, nothing over-commits, the fleet
    /// drains, and the latency summaries are well-formed.
    #[test]
    fn eight_clients_with_background_rebalance_stay_consistent() {
        let engine = fleet(4);
        let load = mixed_load(6);
        load.warm_up(&mut &engine);

        let policy = RebalancePolicy::default();
        let report = load.run(vec![&engine; 8], Some((&engine, &policy)));

        assert_eq!(report.placed + report.rejected, 8 * 6);
        assert_eq!(report.place.count(), 8 * 6);
        assert_eq!(report.release.count(), report.placed);
        assert!(report.rebalance.passes > 0, "the rebalancer must have run");
        assert!(report.place.quantile(0.5) <= report.place.quantile(0.99));
        assert!(report.place.quantile(0.99) <= report.place.quantile(1.0));
        for id in engine.machine_ids() {
            assert_eq!(engine.utilisation(id).0, 0, "fleet must drain");
        }
        engine
            .audit()
            .expect("published views must converge to the locked truth");
        assert_eq!(engine.stats().release_failures, 0);
    }

    /// The same seeded script through both targets — in process and over
    /// the daemon's TCP protocol — accounts for every attempt, drains the
    /// fleet and leaves the published views equal to the locked truth.
    #[test]
    fn one_script_drains_both_targets() {
        let (clients, per_client) = (3, 8);
        let load = mixed_load(per_client);
        let check = |report: &LoadReport, engine: &PlacementEngine| {
            assert_eq!(report.placed + report.rejected, clients * per_client);
            assert_eq!(report.place.count(), clients * per_client);
            assert_eq!(report.release.count(), report.placed);
            assert_eq!(engine.num_residents(), 0, "fleet must drain");
            engine.audit().expect("views converge at quiescence");
        };

        let engine = fleet(2);
        let in_process = load.run(vec![&engine; clients], None);
        check(&in_process, &engine);

        let server = PlacementServer::spawn(Arc::new(fleet(2)), ServerConfig::default())
            .expect("bind loopback");
        let connections = (0..clients)
            .map(|_| Client::connect(server.local_addr()).expect("connect"))
            .collect();
        let served = load.run(connections, None);
        check(&served, server.engine());
        assert!(
            server.registry_tickets().is_empty(),
            "every ticket released"
        );
        server.shutdown();
    }
}
