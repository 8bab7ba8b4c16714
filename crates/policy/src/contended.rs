//! Churn under concurrent clients: the contention acceptance harness.
//!
//! [`ChurnScenario`](crate::churn::ChurnScenario) drives one event at
//! a time; real fleets serve many placement clients at once, racing
//! each other and the periodic rebalancer. This module hammers a
//! shared [`PlacementEngine`] from N client threads — each placing
//! and releasing containers in a tight loop — optionally with a
//! background thread running [`PlacementEngine::rebalance`] passes
//! the whole time, and reports client-observed placement/release
//! latency percentiles. Scoring reads epoch-published snapshots and
//! never takes a host lock, so what the tail measures is the commit
//! critical sections alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use vc_engine::{BatchStrategy, Placed, PlacementEngine, PlacementRequest, RebalancePolicy};

/// Latency percentiles over one operation class, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Sorted samples, nanoseconds.
    samples: Vec<u64>,
}

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

    /// The `q`-quantile (nearest-rank on the sorted samples), ns.
    /// `0.0` gives the minimum, `1.0` the maximum; 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        match self.samples.len() {
            0 => 0,
            n => self.samples[((n - 1) as f64 * q).round() as usize],
        }
    }

    /// Median latency, ns.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th-percentile latency, ns — the contended tail.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Worst observed latency, ns.
    pub fn max(&self) -> u64 {
        self.quantile(1.0)
    }

    /// Mean latency, ns (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.samples.is_empty() {
            0
        } else {
            (self.samples.iter().map(|&s| s as u128).sum::<u128>()
                / self.samples.len() as u128) as u64
        }
    }

    /// The `q`-quantile in microseconds — the unit the bench JSON lines
    /// record, so in-process and served latencies read on one scale.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e3
    }

    /// Pools the samples of two summaries — the demo/bench aggregation
    /// over per-client-thread observations.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        let mut samples = self.samples.clone();
        samples.extend_from_slice(&other.samples);
        samples.sort_unstable();
        LatencySummary { samples }
    }
}

/// What a contended run observed.
#[derive(Debug, Clone)]
pub struct ContendedReport {
    /// Client-observed latency of each `place_batch` call (one request
    /// per call, so one sample per placement attempt).
    pub place: LatencySummary,
    /// Client-observed latency of each `release` call.
    pub release: LatencySummary,
    /// Requests that committed across all clients.
    pub placed: usize,
    /// Requests rejected (fleet momentarily full under the race).
    pub rejected: usize,
    /// Background rebalance passes completed while clients ran
    /// (0 when the run had no rebalancer).
    pub rebalance_passes: usize,
    /// Migrations those passes executed.
    pub migrations: usize,
}

/// N placement clients hammering a shared engine, optionally against
/// a background rebalancer.
///
/// Each client runs `requests_per_client` iterations: place one
/// request (drawn round-robin from the pool, with a client- and
/// iteration-unique probe seed), and release all its live containers
/// every other iteration — so the fleet churns rather than saturates.
/// Whatever survives the loop is released before the run returns, and
/// the run asserts the fleet drains to empty (the concurrent-safety
/// check riding along with every latency measurement).
///
/// # Examples
///
/// ```
/// use vc_engine::{EngineConfig, PlacementEngine, PlacementRequest};
/// use vc_policy::contended::ContendedLoad;
/// use vc_topology::machines;
///
/// let mut engine = PlacementEngine::new(
///     EngineConfig { extra_synthetic: 0, ..EngineConfig::default() },
/// );
/// engine.add_machine(machines::amd_opteron_6272());
/// engine.add_machine(machines::amd_opteron_6272());
///
/// let report = ContendedLoad::new(2, 4)
///     .with_request_pool(vec![PlacementRequest::new("swaptions", 16)])
///     .run(&engine);
/// assert_eq!(report.placed + report.rejected, 2 * 4);
/// assert_eq!(report.place.count(), 2 * 4);
/// assert!(report.place.p50() <= report.place.p99());
/// // The run drains: nothing stays resident.
/// assert_eq!(engine.num_residents(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ContendedLoad {
    clients: usize,
    requests_per_client: usize,
    pool: Vec<PlacementRequest>,
    strategy: BatchStrategy,
    rebalance: Option<RebalancePolicy>,
}

impl ContendedLoad {
    /// A load of `clients` threads, `requests_per_client` placement
    /// attempts each, placing 16-vCPU WiredTiger containers first-fit.
    ///
    /// # Panics
    ///
    /// Panics when `clients` or `requests_per_client` is zero.
    pub fn new(clients: usize, requests_per_client: usize) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(requests_per_client > 0, "need at least one request");
        ContendedLoad {
            clients,
            requests_per_client,
            pool: vec![PlacementRequest::new("WTbtree", 16)],
            strategy: BatchStrategy::FirstFit,
            rebalance: None,
        }
    }

    /// Overrides the request pool clients cycle through round-robin.
    ///
    /// # Panics
    ///
    /// Panics when `pool` is empty.
    pub fn with_request_pool(mut self, pool: Vec<PlacementRequest>) -> Self {
        assert!(!pool.is_empty(), "request pool must not be empty");
        self.pool = pool;
        self
    }

    /// Overrides the batch strategy used for placements.
    pub fn with_strategy(mut self, strategy: BatchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Runs a background thread calling
    /// [`PlacementEngine::rebalance`] with `policy` in a loop for the
    /// whole run — the planner's fleet-wide snapshot scans race every
    /// client placement.
    pub fn with_rebalance(mut self, policy: RebalancePolicy) -> Self {
        self.rebalance = Some(policy);
        self
    }

    /// Runs the load against `engine`, blocking until every client
    /// finishes and the fleet is drained.
    ///
    /// # Panics
    ///
    /// Panics when a release of a live container fails or a client
    /// thread dies — both mean the engine broke under contention.
    pub fn run(&self, engine: &PlacementEngine) -> ContendedReport {
        let stop = AtomicBool::new(false);
        let (mut rebalance_passes, mut migrations) = (0, 0);

        let mut per_client: Vec<(Vec<u64>, Vec<u64>, usize, usize)> =
            std::thread::scope(|s| {
                // The rebalancer owns its tallies and hands them back
                // through `join`; `stop` is the only shared state.
                let rebalancer = self.rebalance.as_ref().map(|policy| {
                    s.spawn(|| {
                        let (mut passes, mut moved) = (0usize, 0usize);
                        while !stop.load(Ordering::Acquire) {
                            moved += engine.rebalance(policy).migrations.len();
                            passes += 1;
                            std::thread::yield_now();
                        }
                        (passes, moved)
                    })
                });

                let clients: Vec<_> = (0..self.clients)
                    .map(|c| {
                        s.spawn(move || {
                            let mut place_ns = Vec::with_capacity(self.requests_per_client);
                            let mut release_ns = Vec::new();
                            let mut placed = 0usize;
                            let mut rejected = 0usize;
                            let mut live: Vec<Placed> = Vec::new();
                            for i in 0..self.requests_per_client {
                                let seed = (c * self.requests_per_client + i) as u64;
                                let req = self.pool[i % self.pool.len()]
                                    .clone()
                                    .with_probe_seed(seed);
                                let t0 = Instant::now();
                                let decision = engine
                                    .place_batch(std::slice::from_ref(&req), self.strategy)
                                    .pop()
                                    .expect("one decision per request");
                                place_ns.push(t0.elapsed().as_nanos() as u64);
                                match decision.placed() {
                                    Some(p) => {
                                        placed += 1;
                                        live.push(p.clone());
                                    }
                                    None => rejected += 1,
                                }
                                if i % 2 == 1 {
                                    for p in live.drain(..) {
                                        let t0 = Instant::now();
                                        engine
                                            .release(&p)
                                            .expect("live container releases exactly once");
                                        release_ns.push(t0.elapsed().as_nanos() as u64);
                                    }
                                }
                            }
                            for p in live {
                                let t0 = Instant::now();
                                engine.release(&p).expect("drain releases exactly once");
                                release_ns.push(t0.elapsed().as_nanos() as u64);
                            }
                            (place_ns, release_ns, placed, rejected)
                        })
                    })
                    .collect();

                let results: Vec<_> = clients
                    .into_iter()
                    .map(|h| h.join().expect("client thread died under contention"))
                    .collect();
                stop.store(true, Ordering::Release);
                if let Some(r) = rebalancer {
                    (rebalance_passes, migrations) = r.join().expect("rebalancer thread died");
                }
                results
            });

        let mut place = Vec::new();
        let mut release = Vec::new();
        let mut placed = 0;
        let mut rejected = 0;
        for (p, r, pl, rj) in per_client.drain(..) {
            place.extend(p);
            release.extend(r);
            placed += pl;
            rejected += rj;
        }
        assert_eq!(engine.num_residents(), 0, "a contended run must drain");
        ContendedReport {
            place: LatencySummary::from_nanos(place),
            release: LatencySummary::from_nanos(release),
            placed,
            rejected,
            rebalance_passes,
            migrations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_engine::{EngineConfig, PlacementEngine};
    use vc_ml::forest::ForestConfig;
    use vc_topology::machines;

    fn fast_config() -> EngineConfig {
        EngineConfig {
            n_seeds: 2,
            extra_synthetic: 0,
            forest: ForestConfig {
                n_trees: 20,
                ..ForestConfig::default()
            },
            ..EngineConfig::default()
        }
    }

    fn fleet(budget: Option<f64>) -> PlacementEngine {
        let mut e = PlacementEngine::new(EngineConfig {
            interference: budget.is_some(),
            degradation_budget: budget,
            ..fast_config()
        });
        for _ in 0..4 {
            e.add_machine(machines::amd_opteron_6272());
        }
        e
    }

    #[test]
    fn latency_summary_quantiles_are_nearest_rank() {
        let s = LatencySummary::from_nanos(vec![50, 10, 40, 20, 30]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.0), 10);
        assert_eq!(s.p50(), 30);
        assert_eq!(s.p99(), 50);
        assert_eq!(s.max(), 50);
        assert_eq!(s.mean(), 30);
        let empty = LatencySummary::from_nanos(Vec::new());
        assert_eq!(empty.p99(), 0);
        assert_eq!(empty.mean(), 0);
    }

    /// Eight clients against a shared fleet while a rebalancer runs:
    /// every attempt is accounted for, nothing over-commits, the
    /// fleet drains, and the latency summaries are well-formed — the
    /// satellite's "churn under concurrent clients" regression.
    #[test]
    fn eight_clients_with_background_rebalance_stay_consistent() {
        let engine = fleet(Some(0.01));
        // Warm the caches so the contention is over commitment.
        let warm = engine.place(&PlacementRequest::new("streamcluster", 4));
        engine.release(warm.placed().expect("idle fleet")).unwrap();

        let report = ContendedLoad::new(8, 6)
            .with_request_pool(vec![
                PlacementRequest::new("streamcluster", 4),
                PlacementRequest::new("WTbtree", 8),
                PlacementRequest::new("swaptions", 16),
            ])
            .with_rebalance(RebalancePolicy::default())
            .run(&engine);

        assert_eq!(report.placed + report.rejected, 8 * 6);
        assert_eq!(report.place.count(), 8 * 6);
        assert_eq!(report.release.count(), report.placed);
        assert!(report.rebalance_passes > 0, "the rebalancer must have run");
        assert!(report.place.p50() <= report.place.p99());
        assert!(report.place.p99() <= report.place.max());
        for id in engine.machine_ids() {
            assert_eq!(engine.utilisation(id).0, 0, "fleet must drain");
        }
        engine
            .audit()
            .expect("published views must converge to the locked truth");
        assert_eq!(engine.stats().release_failures, 0);
    }
}
