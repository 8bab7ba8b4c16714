//! Fleet churn: arrivals *and* departures against a shared engine.
//!
//! The Figure 5 scenario packs one machine once; real fleets see
//! containers come and go, and the point of node-granular occupancy is
//! that departures hand their exact hardware threads back. This module
//! drives a [`PlacementEngine`] through a deterministic arrival/departure
//! schedule and reports what happened — placements, rejections (with the
//! engine's exhausted-node reasons), and how much capacity each departure
//! restored.
//!
//! # Examples
//!
//! ```
//! use vc_engine::{EngineConfig, PlacementEngine, PlacementRequest};
//! use vc_policy::churn::{ChurnEvent, ChurnScenario};
//! use vc_topology::machines;
//!
//! let engine = PlacementEngine::single(
//!     machines::amd_opteron_6272(),
//!     EngineConfig { extra_synthetic: 0, ..EngineConfig::default() },
//! );
//! // Five arrivals against a 4-container machine, with one departure
//! // in between: the departure makes room for the final arrival.
//! let events = vec![
//!     ChurnEvent::arrive("c0", PlacementRequest::new("WTbtree", 16)),
//!     ChurnEvent::arrive("c1", PlacementRequest::new("WTbtree", 16)),
//!     ChurnEvent::arrive("c2", PlacementRequest::new("WTbtree", 16)),
//!     ChurnEvent::arrive("c3", PlacementRequest::new("WTbtree", 16)),
//!     ChurnEvent::depart("c1"),
//!     ChurnEvent::arrive("c4", PlacementRequest::new("WTbtree", 16)),
//! ];
//! let report = ChurnScenario::new(events).run(&engine);
//! assert_eq!(report.placed, 5);
//! assert_eq!(report.departed, 1);
//! assert_eq!(report.rejected, 0);
//! assert_eq!(report.peak_threads_used, 64);
//! ```

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vc_engine::{
    BatchStrategy, Placed, PlacementEngine, PlacementRequest, RebalancePolicy, RebalanceTotals,
};

/// One event in a churn schedule.
#[derive(Debug, Clone)]
pub enum ChurnEvent {
    /// A container arrives and asks to be placed.
    Arrive {
        /// Caller-chosen container name (used by later departures).
        name: String,
        /// The placement request.
        request: PlacementRequest,
    },
    /// A previously placed container departs, releasing its threads.
    Depart {
        /// Name given at arrival.
        name: String,
    },
}

impl ChurnEvent {
    /// An arrival event.
    pub fn arrive(name: impl Into<String>, request: PlacementRequest) -> Self {
        ChurnEvent::Arrive {
            name: name.into(),
            request,
        }
    }

    /// A departure event.
    pub fn depart(name: impl Into<String>) -> Self {
        ChurnEvent::Depart { name: name.into() }
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone)]
pub struct ArrivalOutcome {
    /// Container name.
    pub name: String,
    /// The committed placement, or `None` when rejected.
    pub placed: Option<Placed>,
    /// The engine's rejection reason (names the exhausted node when the
    /// fleet was out of capacity).
    pub rejection: Option<String>,
    /// Predicted degradation from co-located neighbours at commit time
    /// (`1 − interference penalty`, in `[0, 1)`): `Some(0.0)` for a
    /// placement on an idle host or with interference scoring off,
    /// `None` when the arrival was rejected.
    pub predicted_degradation: Option<f64>,
}

/// Fleet-wide utilisation observed right after one churn event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilisationSample {
    /// Event timestamp: simulated time for stochastic schedules, the
    /// event index for declarative ones.
    pub time: f64,
    /// Reserved hardware threads across the fleet at that instant.
    pub used_threads: usize,
    /// Total hardware threads across the fleet.
    pub total_threads: usize,
}

impl UtilisationSample {
    /// Utilised fraction of the fleet, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total_threads == 0 {
            0.0
        } else {
            self.used_threads as f64 / self.total_threads as f64
        }
    }
}

/// Aggregate report of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Per-arrival outcomes, schedule order.
    pub arrivals: Vec<ArrivalOutcome>,
    /// Arrivals that were placed.
    pub placed: usize,
    /// Arrivals that were rejected.
    pub rejected: usize,
    /// Departures processed (departures of unknown or already-departed
    /// names are ignored and not counted).
    pub departed: usize,
    /// Highest total thread reservation observed across the fleet.
    pub peak_threads_used: usize,
    /// Fleet utilisation over time, one sample per event — the
    /// capacity-planning signal (how full does the fleet run at this
    /// arrival rate and lifetime?).
    pub utilisation: Vec<UtilisationSample>,
    /// Fleet utilisation at `time == 0.0`, before the first event — the
    /// engine may already hold containers when the schedule starts.
    pub initial_utilisation: UtilisationSample,
    /// End of the observation window: the stochastic horizon for
    /// generated schedules, the event count for declarative ones (each
    /// event occupies one unit interval). The final utilisation sample
    /// holds from its event time to this instant.
    pub horizon: f64,
    /// Aggregate rebalancing activity. All zero unless the scenario
    /// was given [`ChurnScenario::with_rebalance`]; on an engine
    /// without a degradation budget the passes still run (and are
    /// counted in [`RebalanceTotals::passes`]) but scan and move
    /// nothing.
    pub rebalance: RebalanceTotals,
}

impl ChurnReport {
    /// Time-weighted mean utilised fraction over the whole observation
    /// window `[0, horizon]`: [`Self::initial_utilisation`] holds from
    /// `t = 0` to the first event, each sample holds until the next,
    /// and the *last* sample holds until [`Self::horizon`] — so a quiet
    /// head, a long idle tail and the state the schedule drains into
    /// all count for their full duration. (An earlier revision dropped
    /// the final interval entirely — and the head — biasing the mean
    /// for schedules that fill late or drain at the end.) Declarative
    /// schedules have uniform unit intervals, where this is the plain
    /// mean over the samples.
    pub fn mean_utilisation(&self) -> f64 {
        let span = self.horizon - self.initial_utilisation.time;
        if span <= 0.0 {
            return if self.utilisation.is_empty() {
                self.initial_utilisation.fraction()
            } else {
                self.utilisation.iter().map(|s| s.fraction()).sum::<f64>()
                    / self.utilisation.len() as f64
            };
        }
        let mut weighted = 0.0;
        let mut prev = &self.initial_utilisation;
        for s in &self.utilisation {
            weighted += prev.fraction() * (s.time - prev.time).max(0.0);
            prev = s;
        }
        weighted += prev.fraction() * (self.horizon - prev.time).max(0.0);
        weighted / span
    }

    /// Mean predicted co-location degradation over the *placed*
    /// arrivals, in `[0, 1)` (`0.0` when nothing was placed, when every
    /// placement landed on idle hosts, or with interference scoring
    /// off). Read together with [`Self::mean_utilisation`]: pushing a
    /// fleet fuller buys utilisation at the price of exactly this
    /// number.
    pub fn mean_predicted_degradation(&self) -> f64 {
        let placed: Vec<f64> = self
            .arrivals
            .iter()
            .filter_map(|a| a.predicted_degradation)
            .collect();
        if placed.is_empty() {
            0.0
        } else {
            placed.iter().sum::<f64>() / placed.len() as f64
        }
    }

    /// The largest predicted co-location degradation any placed arrival
    /// took (`0.0` when nothing was placed).
    pub fn worst_predicted_degradation(&self) -> f64 {
        self.arrivals
            .iter()
            .filter_map(|a| a.predicted_degradation)
            .fold(0.0, f64::max)
    }
}

/// An arrival/departure schedule: declarative ([`ChurnScenario::new`])
/// or generated from a stochastic arrival process
/// ([`ChurnScenario::stochastic`]).
#[derive(Debug, Clone)]
pub struct ChurnScenario {
    events: Vec<ChurnEvent>,
    /// Event timestamps, parallel to `events`; empty for declarative
    /// schedules (the event index serves as time).
    times: Vec<f64>,
    strategy: BatchStrategy,
    /// Generation parameters, kept so builder methods can regenerate
    /// the schedule.
    stochastic: Option<StochasticParams>,
    /// Periodic rebalancing: `(interval, policy)`. Every `interval`
    /// time units the engine re-scores its residents and migrates what
    /// the budget condemns and the cost model approves.
    rebalance: Option<(f64, RebalancePolicy)>,
}

#[derive(Debug, Clone)]
struct StochasticParams {
    seed: u64,
    rate: f64,
    mean_lifetime: f64,
    horizon: f64,
    pool: Vec<PlacementRequest>,
}

impl ChurnScenario {
    /// A scenario placing arrivals first-fit.
    pub fn new(events: Vec<ChurnEvent>) -> Self {
        ChurnScenario {
            events,
            times: Vec::new(),
            strategy: BatchStrategy::FirstFit,
            stochastic: None,
            rebalance: None,
        }
    }

    /// A seeded stochastic schedule: container arrivals follow a
    /// Poisson process with `rate` arrivals per time unit, and each
    /// placed container lives for an exponentially distributed duration
    /// with mean `mean_lifetime` before departing. In steady state the
    /// offered load is `rate × mean_lifetime` concurrent containers
    /// (Little's law), which makes the scenario a capacity-planning
    /// probe: [`ChurnReport::utilisation`] shows how full the fleet
    /// runs at that load.
    ///
    /// Identical `(seed, rate, mean_lifetime)` (plus horizon and
    /// request pool) produce the identical schedule on every platform.
    /// The default horizon is 32 time units and the default request
    /// pool a single 16-vCPU WiredTiger container; override with
    /// [`Self::with_horizon`] and [`Self::with_request_pool`].
    ///
    /// # Examples
    ///
    /// ```
    /// use vc_engine::{EngineConfig, PlacementEngine};
    /// use vc_policy::churn::ChurnScenario;
    /// use vc_topology::machines;
    ///
    /// let engine = PlacementEngine::single(
    ///     machines::amd_opteron_6272(),
    ///     EngineConfig { extra_synthetic: 0, ..EngineConfig::default() },
    /// );
    /// // ~0.5 arrivals per time unit, mean lifetime 4: ≈2 concurrent
    /// // 16-vCPU containers on a 64-thread machine.
    /// let report = ChurnScenario::stochastic(11, 0.5, 4.0)
    ///     .with_horizon(16.0)
    ///     .run(&engine);
    /// assert_eq!(report.placed + report.rejected, report.arrivals.len());
    /// // Samples are time-ordered and never exceed the fleet capacity.
    /// for w in report.utilisation.windows(2) {
    ///     assert!(w[0].time <= w[1].time);
    /// }
    /// assert!(report.peak_threads_used <= 64);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `rate` or `mean_lifetime` is not strictly positive.
    pub fn stochastic(seed: u64, rate: f64, mean_lifetime: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        assert!(mean_lifetime > 0.0, "mean lifetime must be positive");
        let mut scenario = ChurnScenario {
            events: Vec::new(),
            times: Vec::new(),
            strategy: BatchStrategy::FirstFit,
            rebalance: None,
            stochastic: Some(StochasticParams {
                seed,
                rate,
                mean_lifetime,
                horizon: 32.0,
                pool: vec![PlacementRequest::new("WTbtree", 16)],
            }),
        };
        scenario.regenerate();
        scenario
    }

    /// Overrides the simulated-time horizon of a stochastic schedule
    /// (no effect on declarative schedules).
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        if let Some(p) = self.stochastic.as_mut() {
            p.horizon = horizon;
        }
        self.regenerate();
        self
    }

    /// Overrides the request pool a stochastic schedule cycles through;
    /// each arrival takes the next request round-robin, with a distinct
    /// probe seed (no effect on declarative schedules).
    pub fn with_request_pool(mut self, pool: Vec<PlacementRequest>) -> Self {
        if let Some(p) = self.stochastic.as_mut() {
            assert!(!pool.is_empty(), "request pool must not be empty");
            p.pool = pool;
        }
        self.regenerate();
        self
    }

    /// Overrides the batch strategy used for arrivals.
    pub fn with_strategy(mut self, strategy: BatchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables periodic rebalancing: every `interval` time units (event
    /// units on declarative schedules) the run calls
    /// [`PlacementEngine::rebalance`] with `policy`, migrating
    /// residents whose predicted degradation exceeds the *engine's*
    /// `degradation_budget` when the move's benefit beats its Table 2
    /// migration cost. With the engine budget unset the passes are
    /// no-ops (counted in [`RebalanceTotals::passes`] only).
    ///
    /// Containers moved by a pass keep their tickets, so the scenario's
    /// departure bookkeeping — and yours — keeps working on the
    /// admission-time [`Placed`] handles.
    ///
    /// # Panics
    ///
    /// Panics when `interval` is not strictly positive.
    pub fn with_rebalance(mut self, interval: f64, policy: RebalancePolicy) -> Self {
        assert!(interval > 0.0, "rebalance interval must be positive");
        self.rebalance = Some((interval, policy));
        self
    }

    /// The schedule's events (arrivals and departures, time order).
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Rebuilds `events`/`times` from the stochastic parameters.
    fn regenerate(&mut self) {
        let Some(p) = &self.stochastic else { return };
        let mut rng = StdRng::seed_from_u64(p.seed);
        // Exponential variate via inversion; 1 - u avoids ln(0).
        let exp = |rng: &mut StdRng, mean: f64| -> f64 {
            let u: f64 = rng.random();
            -(1.0 - u).ln() * mean
        };
        // (time, sequence, event): departures sort after arrivals at
        // identical times via the sequence number.
        let mut schedule: Vec<(f64, usize, ChurnEvent)> = Vec::new();
        let mut seq = 0usize;
        let mut t = 0.0;
        let mut i = 0usize;
        loop {
            t += exp(&mut rng, 1.0 / p.rate);
            if t >= p.horizon {
                break;
            }
            let name = format!("c{i}");
            let request = p.pool[i % p.pool.len()].clone().with_probe_seed(i as u64);
            schedule.push((t, seq, ChurnEvent::arrive(&name, request)));
            seq += 1;
            let departs = t + exp(&mut rng, p.mean_lifetime);
            if departs < p.horizon {
                schedule.push((departs, seq, ChurnEvent::depart(&name)));
                seq += 1;
            }
            i += 1;
        }
        schedule.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.times = schedule.iter().map(|(t, _, _)| *t).collect();
        self.events = schedule.into_iter().map(|(_, _, e)| e).collect();
    }

    /// Runs the schedule against `engine`, mutating its occupancy the
    /// way a live fleet would (placements reserve threads, departures
    /// release them).
    pub fn run(&self, engine: &PlacementEngine) -> ChurnReport {
        let mut live: HashMap<String, Placed> = HashMap::new();
        let mut arrivals = Vec::new();
        let mut departed = 0usize;
        let mut peak = 0usize;
        let mut total_threads = 0usize;
        let mut used_at_start = 0usize;
        for id in engine.machine_ids() {
            let (used, total) = engine.utilisation(id);
            used_at_start += used;
            total_threads += total;
        }
        let initial_utilisation = UtilisationSample {
            time: 0.0,
            used_threads: used_at_start,
            total_threads,
        };
        let mut utilisation = Vec::with_capacity(self.events.len());
        let horizon = match &self.stochastic {
            Some(p) => p.horizon,
            // Declarative schedules: event i occupies [i, i + 1).
            None => self.events.len() as f64,
        };
        let mut rebalance_totals = RebalanceTotals::default();
        // Next pending rebalance tick, advanced as simulated time
        // passes events (f64::INFINITY = rebalancing off).
        let mut next_tick = self
            .rebalance
            .as_ref()
            .map_or(f64::INFINITY, |(interval, _)| *interval);
        let mut tick = |now: f64, totals: &mut RebalanceTotals| {
            let Some((interval, policy)) = &self.rebalance else {
                return;
            };
            while next_tick <= now.min(horizon) {
                totals.absorb(&engine.rebalance(policy));
                next_tick += interval;
            }
        };
        for (i, event) in self.events.iter().enumerate() {
            tick(
                self.times.get(i).copied().unwrap_or(i as f64),
                &mut rebalance_totals,
            );
            match event {
                ChurnEvent::Arrive { name, request } => {
                    let decision = engine
                        .place_batch(std::slice::from_ref(request), self.strategy)
                        .pop()
                        .expect("one decision per request");
                    let outcome = match decision {
                        vc_engine::PlacementDecision::Placed(p) => {
                            live.insert(name.clone(), p.clone());
                            ArrivalOutcome {
                                name: name.clone(),
                                predicted_degradation: Some(1.0 - p.interference_penalty),
                                placed: Some(p),
                                rejection: None,
                            }
                        }
                        vc_engine::PlacementDecision::Rejected { reason } => ArrivalOutcome {
                            name: name.clone(),
                            placed: None,
                            rejection: Some(reason),
                            predicted_degradation: None,
                        },
                    };
                    arrivals.push(outcome);
                }
                ChurnEvent::Depart { name } => {
                    if let Some(p) = live.remove(name) {
                        // The ticket resolves the container wherever a
                        // rebalance pass may have moved it; each live
                        // name releases exactly once.
                        engine
                            .release(&p)
                            .expect("live container releases exactly once");
                        departed += 1;
                    }
                }
            }
            let used: usize = engine
                .machine_ids()
                .into_iter()
                .map(|id| engine.utilisation(id).0)
                .sum();
            peak = peak.max(used);
            utilisation.push(UtilisationSample {
                time: self.times.get(i).copied().unwrap_or(i as f64),
                used_threads: used,
                total_threads,
            });
        }
        // Ticks between the final event and the horizon still fire: a
        // quiet tail is when accumulated co-location pain gets fixed.
        tick(horizon, &mut rebalance_totals);
        let placed = arrivals.iter().filter(|a| a.placed.is_some()).count();
        let rejected = arrivals.len() - placed;
        ChurnReport {
            arrivals,
            placed,
            rejected,
            departed,
            peak_threads_used: peak,
            utilisation,
            initial_utilisation,
            horizon,
            rebalance: rebalance_totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vc_engine::{EngineConfig, PlacementEngine};
    use vc_ml::forest::ForestConfig;
    use vc_topology::machines;

    fn engine() -> PlacementEngine {
        PlacementEngine::single(
            machines::amd_opteron_6272(),
            EngineConfig {
                extra_synthetic: 0,
                ..EngineConfig::default()
            },
        )
    }

    /// Trimmed training so rebalance-heavy tests stay fast.
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

    /// Per machine: the union of registry threads is exactly the
    /// occupancy's used set — the registry↔occupancy equivalence the
    /// engine promises through arbitrary churn and rebalancing.
    fn assert_registry_matches_occupancy(engine: &PlacementEngine) {
        for id in engine.machine_ids() {
            let occ = engine.occupancy(id);
            let residents = engine.residents(id);
            let mut union: Vec<vc_topology::ThreadId> = Vec::new();
            for r in &residents {
                for &t in &r.threads {
                    assert!(
                        !occ.is_free(t),
                        "machine {id:?}: registry thread {t} is free in occupancy"
                    );
                    assert!(
                        !union.contains(&t),
                        "machine {id:?}: thread {t} owned by two residents"
                    );
                    union.push(t);
                }
            }
            assert_eq!(
                union.len(),
                occ.used_threads(),
                "machine {id:?}: registry covers {} threads, occupancy holds {}",
                union.len(),
                occ.used_threads()
            );
        }
    }

    /// Releases every live container via handles rebuilt from the
    /// registry (exercising ticket-resolved release on the way out).
    fn drain(engine: &PlacementEngine) {
        for id in engine.machine_ids() {
            for r in engine.residents(id) {
                let handle = Placed {
                    ticket: r.ticket,
                    machine: id,
                    placement_id: r.placement_id,
                    spec: r.spec.clone(),
                    threads: r.threads.clone(),
                    predicted_perf: r.predicted_perf,
                    interference_penalty: r.interference_penalty,
                    goal_perf: r.goal_perf,
                    goal_met: true,
                };
                engine.release(&handle).unwrap();
            }
        }
        assert_eq!(engine.num_residents(), 0);
    }

    #[test]
    fn departures_make_room_for_later_arrivals() {
        let engine = engine();
        let req = || PlacementRequest::new("swaptions", 16);
        let mut events: Vec<ChurnEvent> = (0..4)
            .map(|i| ChurnEvent::arrive(format!("c{i}"), req()))
            .collect();
        // Machine full: a fifth arrival is rejected...
        events.push(ChurnEvent::arrive("overflow", req()));
        // ...but after two departures, two more arrivals fit.
        events.push(ChurnEvent::depart("c0"));
        events.push(ChurnEvent::depart("c2"));
        events.push(ChurnEvent::arrive("c5", req()));
        events.push(ChurnEvent::arrive("c6", req()));
        let report = ChurnScenario::new(events).run(&engine);
        assert_eq!(report.placed, 6);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.departed, 2);
        assert_eq!(report.peak_threads_used, 64);
        let overflow = &report.arrivals[4];
        assert_eq!(overflow.name, "overflow");
        let reason = overflow.rejection.as_ref().expect("rejected");
        assert!(reason.contains("node N"), "reason must name a node: {reason}");
        // After the churn, the machine holds exactly four containers.
        assert_eq!(engine.utilisation(vc_engine::MachineId(0)).0, 64);
    }

    #[test]
    fn no_live_containers_share_threads_at_any_point() {
        let engine = engine();
        let req = |i: u64| PlacementRequest::new("WTbtree", 16).with_probe_seed(i);
        let events = vec![
            ChurnEvent::arrive("a", req(0)),
            ChurnEvent::arrive("b", req(1)),
            ChurnEvent::depart("a"),
            ChurnEvent::arrive("c", req(2)),
            ChurnEvent::arrive("d", req(3)),
            ChurnEvent::depart("c"),
            ChurnEvent::arrive("e", req(4)),
        ];
        let report = ChurnScenario::new(events).run(&engine);
        assert_eq!(report.rejected, 0);
        // b, d, e live at the end: pairwise thread-disjoint.
        let live: Vec<&ArrivalOutcome> = report
            .arrivals
            .iter()
            .filter(|a| ["b", "d", "e"].contains(&a.name.as_str()))
            .collect();
        for (i, x) in live.iter().enumerate() {
            for y in &live[i + 1..] {
                let tx = &x.placed.as_ref().unwrap().threads;
                let ty = &y.placed.as_ref().unwrap().threads;
                assert!(
                    tx.iter().all(|t| !ty.contains(t)),
                    "{} and {} share threads",
                    x.name,
                    y.name
                );
            }
        }
    }

    #[test]
    fn stochastic_schedules_are_deterministic() {
        let a = ChurnScenario::stochastic(9, 0.8, 3.0).with_horizon(12.0);
        let b = ChurnScenario::stochastic(9, 0.8, 3.0).with_horizon(12.0);
        assert!(!a.events().is_empty(), "horizon 12 at rate 0.8 should see arrivals");
        assert_eq!(a.events().len(), b.events().len());
        for (x, y) in a.events().iter().zip(b.events()) {
            match (x, y) {
                (
                    ChurnEvent::Arrive { name: nx, request: rx },
                    ChurnEvent::Arrive { name: ny, request: ry },
                ) => {
                    assert_eq!(nx, ny);
                    assert_eq!(rx.probe_seed, ry.probe_seed);
                }
                (ChurnEvent::Depart { name: nx }, ChurnEvent::Depart { name: ny }) => {
                    assert_eq!(nx, ny)
                }
                _ => panic!("schedules diverge"),
            }
        }
        let seeded_differently = ChurnScenario::stochastic(10, 0.8, 3.0).with_horizon(12.0);
        assert_ne!(a.events().len(), 0);
        // Different seeds virtually never produce the same arrival count
        // *and* identical inter-arrival gaps; compare times.
        assert!(
            a.events().len() != seeded_differently.events().len()
                || a.times != seeded_differently.times,
            "different seeds produced an identical schedule"
        );
    }

    #[test]
    fn stochastic_departures_only_follow_their_arrival() {
        let s = ChurnScenario::stochastic(3, 1.0, 2.0).with_horizon(10.0);
        let mut seen: Vec<&str> = Vec::new();
        for (i, e) in s.events().iter().enumerate() {
            match e {
                ChurnEvent::Arrive { name, .. } => seen.push(name),
                ChurnEvent::Depart { name } => {
                    assert!(seen.contains(&name.as_str()), "departure before arrival");
                }
            }
            // Times are sorted.
            if i > 0 {
                assert!(s.times[i - 1] <= s.times[i]);
            }
        }
    }

    #[test]
    fn stochastic_run_reports_utilisation_over_time() {
        let engine = engine();
        let scenario = ChurnScenario::stochastic(7, 0.6, 4.0)
            .with_horizon(16.0)
            .with_request_pool(vec![PlacementRequest::new("swaptions", 16)]);
        let report = scenario.run(&engine);
        assert_eq!(report.utilisation.len(), scenario.events().len());
        let max_sample = report
            .utilisation
            .iter()
            .map(|s| s.used_threads)
            .max()
            .unwrap_or(0);
        assert_eq!(max_sample, report.peak_threads_used);
        for s in &report.utilisation {
            assert_eq!(s.total_threads, 64);
            assert!(s.used_threads <= s.total_threads);
            assert!((0.0..=1.0).contains(&s.fraction()));
        }
        for w in report.utilisation.windows(2) {
            assert!(w[0].time <= w[1].time, "samples out of order");
        }
        assert!(report.mean_utilisation() <= 1.0);
    }

    #[test]
    fn mean_utilisation_weights_samples_by_their_duration() {
        // 16/64 threads held for 9 time units, then empty for 1: the
        // time-weighted mean is 0.25 * 0.9 = 0.225, far from the
        // per-event mean (0.25 + 0.0) / 2.
        let report = ChurnReport {
            arrivals: Vec::new(),
            placed: 1,
            rejected: 0,
            departed: 1,
            peak_threads_used: 16,
            utilisation: vec![
                UtilisationSample { time: 0.0, used_threads: 16, total_threads: 64 },
                UtilisationSample { time: 9.0, used_threads: 0, total_threads: 64 },
                UtilisationSample { time: 10.0, used_threads: 0, total_threads: 64 },
            ],
            initial_utilisation: UtilisationSample {
                time: 0.0,
                used_threads: 0,
                total_threads: 64,
            },
            horizon: 10.0,
            rebalance: RebalanceTotals::default(),
        };
        assert!((report.mean_utilisation() - 0.225).abs() < 1e-12);
    }

    #[test]
    fn mean_utilisation_counts_the_quiet_head_before_the_first_event() {
        // A run whose only arrival lands at t = 9 of a 10-unit window:
        // the fleet was empty for 90% of the time, so the mean is
        // 0.5 * 1/10 = 0.05 — not the 0.5 a window clipped to the
        // first event would report.
        let report = ChurnReport {
            arrivals: Vec::new(),
            placed: 1,
            rejected: 0,
            departed: 0,
            peak_threads_used: 32,
            utilisation: vec![UtilisationSample {
                time: 9.0,
                used_threads: 32,
                total_threads: 64,
            }],
            initial_utilisation: UtilisationSample {
                time: 0.0,
                used_threads: 0,
                total_threads: 64,
            },
            horizon: 10.0,
            rebalance: RebalanceTotals::default(),
        };
        assert!((report.mean_utilisation() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn mean_utilisation_weights_the_final_sample_out_to_the_horizon() {
        // Regression: `windows(2)` alone gives the final sample zero
        // weight, so a schedule whose last event *fills* the fleet used
        // to under-report (and one that drains used to over-report).
        // Here the fleet sits empty for 2 units, then holds 32/64 until
        // the horizon at t = 10: the honest mean is 0.5 * 8/10 = 0.4.
        let report = ChurnReport {
            arrivals: Vec::new(),
            placed: 1,
            rejected: 0,
            departed: 0,
            peak_threads_used: 32,
            utilisation: vec![
                UtilisationSample { time: 0.0, used_threads: 0, total_threads: 64 },
                UtilisationSample { time: 2.0, used_threads: 32, total_threads: 64 },
            ],
            initial_utilisation: UtilisationSample {
                time: 0.0,
                used_threads: 0,
                total_threads: 64,
            },
            horizon: 10.0,
            rebalance: RebalanceTotals::default(),
        };
        assert!(
            (report.mean_utilisation() - 0.4).abs() < 1e-12,
            "tail interval dropped: {}",
            report.mean_utilisation()
        );
    }

    #[test]
    fn stochastic_report_carries_the_schedule_horizon() {
        let engine = engine();
        let scenario = ChurnScenario::stochastic(5, 0.5, 2.0).with_horizon(20.0);
        let report = scenario.run(&engine);
        assert_eq!(report.horizon, 20.0);
        if let Some(last) = report.utilisation.last() {
            assert!(last.time <= report.horizon);
        }
        assert!(report.mean_utilisation() <= 1.0);
    }

    #[test]
    fn declarative_schedules_keep_index_time_semantics() {
        // Two events ⇒ horizon 2.0, unit intervals: the mean equals the
        // plain average of the two samples (16/64 then 0/64).
        let engine = engine();
        let events = vec![
            ChurnEvent::arrive("a", PlacementRequest::new("swaptions", 16)),
            ChurnEvent::depart("a"),
        ];
        let report = ChurnScenario::new(events).run(&engine);
        assert_eq!(report.horizon, 2.0);
        assert!((report.mean_utilisation() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn degradation_tracking_is_zero_with_interference_off() {
        let engine = engine();
        let events = vec![
            ChurnEvent::arrive("a", PlacementRequest::new("swaptions", 16)),
            ChurnEvent::arrive("b", PlacementRequest::new("swaptions", 16)),
        ];
        let report = ChurnScenario::new(events).run(&engine);
        assert_eq!(report.placed, 2);
        for a in &report.arrivals {
            assert_eq!(a.predicted_degradation, Some(0.0));
        }
        assert_eq!(report.mean_predicted_degradation(), 0.0);
        assert_eq!(report.worst_predicted_degradation(), 0.0);
    }

    #[test]
    fn stochastic_churn_reports_the_utilisation_interference_trade_off() {
        // Interference-aware engine under stochastic churn: every
        // placement carries its predicted degradation, co-located
        // placements a positive one.
        let engine = PlacementEngine::single(
            machines::amd_opteron_6272(),
            EngineConfig {
                extra_synthetic: 0,
                interference: true,
                ..EngineConfig::default()
            },
        );
        // Half-node containers (4 vCPUs on an 8-thread node) at an
        // offered load of ≈ 6 concurrent: the pristine-averse
        // retargeter stacks pairs onto shared nodes, so placements
        // commit next to residents.
        let report = ChurnScenario::stochastic(3, 1.0, 6.0)
            .with_horizon(16.0)
            .with_request_pool(vec![PlacementRequest::new("streamcluster", 4)])
            .run(&engine);
        assert!(report.placed > 0);
        for a in &report.arrivals {
            match (&a.placed, a.predicted_degradation) {
                (Some(_), Some(d)) => assert!((0.0..1.0).contains(&d)),
                (None, None) => {}
                _ => panic!("degradation tracking out of sync for {}", a.name),
            }
        }
        assert!(
            report.worst_predicted_degradation() > 0.0,
            "offered load ≈ fleet capacity must co-locate at least once"
        );
        assert!(report.mean_predicted_degradation() < 1.0);
        assert!(report.mean_utilisation() > 0.0);
    }

    #[test]
    fn declarative_schedules_sample_by_event_index() {
        let engine = engine();
        let events = vec![
            ChurnEvent::arrive("a", PlacementRequest::new("swaptions", 16)),
            ChurnEvent::depart("a"),
        ];
        let report = ChurnScenario::new(events).run(&engine);
        assert_eq!(report.utilisation.len(), 2);
        assert_eq!(report.utilisation[0].time, 0.0);
        assert_eq!(report.utilisation[0].used_threads, 16);
        assert_eq!(report.utilisation[1].time, 1.0);
        assert_eq!(report.utilisation[1].used_threads, 0);
    }

    #[test]
    fn rebalance_ticks_on_a_budgetless_engine_change_nothing() {
        // The bit-for-bit guard for the default: with
        // `degradation_budget` unset, a schedule with rebalance ticks
        // commits exactly what the same schedule commits without them
        // (the passes run but scan nothing).
        let scenario = ChurnScenario::stochastic(11, 0.8, 4.0)
            .with_horizon(12.0)
            .with_request_pool(vec![
                PlacementRequest::new("streamcluster", 4),
                PlacementRequest::new("WTbtree", 8),
            ]);
        let build = || {
            let mut e = PlacementEngine::new(EngineConfig {
                interference: true,
                ..fast_config()
            });
            e.add_machine(machines::amd_opteron_6272());
            e.add_machine(machines::amd_opteron_6272());
            e
        };
        let plain_engine = build();
        let plain = scenario.run(&plain_engine);
        let ticked_engine = build();
        let ticked = scenario
            .clone()
            .with_rebalance(2.0, RebalancePolicy::default())
            .run(&ticked_engine);

        assert!(ticked.rebalance.passes > 0, "ticks must fire");
        assert_eq!(ticked.rebalance.scanned, 0, "no budget, nothing scanned");
        assert_eq!(ticked.rebalance.migrations, 0);
        assert_eq!(plain.arrivals.len(), ticked.arrivals.len());
        for (a, b) in plain.arrivals.iter().zip(&ticked.arrivals) {
            match (&a.placed, &b.placed) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.machine, y.machine, "{}", a.name);
                    assert_eq!(x.threads, y.threads, "{}", a.name);
                    assert_eq!(x.predicted_perf, y.predicted_perf, "{}", a.name);
                }
                (None, None) => {}
                _ => panic!("{}: decisions diverged", a.name),
            }
        }
    }

    #[test]
    fn stochastic_churn_with_rebalance_reports_migration_economics() {
        // Two hosts, streaming + comm-bound half-node containers at an
        // offered load that forces co-location, a tight budget: the
        // periodic passes must actually move containers, and the report
        // must carry the Table 2 economics.
        let mut engine = PlacementEngine::new(EngineConfig {
            interference: true,
            degradation_budget: Some(0.01),
            ..fast_config()
        });
        engine.add_machine(machines::amd_opteron_6272());
        engine.add_machine(machines::amd_opteron_6272());
        let report = ChurnScenario::stochastic(3, 1.0, 6.0)
            .with_horizon(16.0)
            .with_request_pool(vec![
                PlacementRequest::new("streamcluster", 4),
                PlacementRequest::new("WTbtree", 4),
            ])
            .with_rebalance(2.0, RebalancePolicy::default())
            .run(&engine);

        assert!(report.placed > 0);
        let totals = report.rebalance;
        assert!(totals.passes >= 7, "a tick every 2 units of 16: {}", totals.passes);
        assert!(totals.scanned > 0);
        assert!(totals.migrations > 0, "the tight budget must trigger moves");
        assert!(totals.moved_gb > 0.0);
        assert!(
            totals.mean_degradation_after() < totals.mean_degradation_before(),
            "after {} !< before {}",
            totals.mean_degradation_after(),
            totals.mean_degradation_before()
        );
        // Departures of moved containers resolved by ticket (the run
        // would have panicked otherwise); what's left is consistent.
        assert_registry_matches_occupancy(&engine);
        drain(&engine);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Registry↔occupancy equivalence through stochastic churn
        /// *with rebalancing*: whatever the schedule and the passes
        /// did, every host's registry covers exactly the occupancy's
        /// used threads, resident thread sets stay pairwise disjoint,
        /// and every container drains by ticket.
        #[test]
        fn registry_matches_occupancy_through_stochastic_churn(
            seed in 0u64..1000,
            rate_x10 in 5u64..15,
            interval_x10 in 10u64..40,
        ) {
            static ENGINE: std::sync::OnceLock<PlacementEngine> = std::sync::OnceLock::new();
            let engine = ENGINE.get_or_init(|| {
                let mut e = PlacementEngine::new(EngineConfig {
                    interference: true,
                    degradation_budget: Some(0.01),
                    ..fast_config()
                });
                e.add_machine(machines::amd_opteron_6272());
                e.add_machine(machines::amd_opteron_6272());
                e
            });
            let report = ChurnScenario::stochastic(seed, rate_x10 as f64 / 10.0, 5.0)
                .with_horizon(10.0)
                .with_request_pool(vec![
                    PlacementRequest::new("streamcluster", 4),
                    PlacementRequest::new("swaptions", 8),
                    PlacementRequest::new("WTbtree", 4),
                ])
                .with_rebalance(interval_x10 as f64 / 10.0, RebalancePolicy::default())
                .run(engine);
            prop_assert_eq!(report.placed + report.rejected, report.arrivals.len());
            assert_registry_matches_occupancy(engine);
            // Shared engine across cases: drain so the next case starts
            // empty (and the drain itself re-proves ticket release).
            drain(engine);
            assert_registry_matches_occupancy(engine);
            prop_assert_eq!(engine.machine_ids().iter().map(|&id| engine.utilisation(id).0).sum::<usize>(), 0);
        }
    }

    #[test]
    fn unknown_departures_are_ignored() {
        let engine = engine();
        let events = vec![
            ChurnEvent::depart("ghost"),
            ChurnEvent::arrive("a", PlacementRequest::new("swaptions", 16)),
            ChurnEvent::depart("a"),
            ChurnEvent::depart("a"), // double departure: ignored
        ];
        let report = ChurnScenario::new(events).run(&engine);
        assert_eq!(report.departed, 1);
        assert_eq!(engine.utilisation(vc_engine::MachineId(0)).0, 0);
    }
}
