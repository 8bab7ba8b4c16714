//! End-to-end churn demo: N client threads hammering a running daemon
//! over TCP while its background loop rebalances underneath.
//!
//! Each client owns one connection and runs a seeded stochastic script:
//! place a request drawn from the pool, sometimes release one of its
//! live containers, repeat — so the fleet churns instead of saturating.
//! Whatever survives is released before the client disconnects, and
//! every operation's client-observed latency (full round trip: encode,
//! TCP, daemon dispatch, engine, response) lands in a
//! [`LatencySummary`] — the same quantile machinery the in-process
//! `ContendedLoad` bench uses, so served and in-process numbers are
//! directly comparable in `BENCH_engine_fleet.json`.

use std::io;
use std::net::SocketAddr;
use std::time::Instant;

use vc_engine::BatchStrategy;
use vc_policy::contended::LatencySummary;

use crate::client::{Client, ClientError};
use crate::rpc::{PlaceOutcome, WireRequest};
use crate::wire::WireError;

/// The churn workload the demo clients run.
#[derive(Debug, Clone)]
pub struct DemoLoad {
    /// Concurrent client connections.
    pub clients: usize,
    /// Placement attempts per client.
    pub requests_per_client: usize,
    /// Request pool, drawn per-iteration by each client's RNG.
    pub pool: Vec<WireRequest>,
    /// Machine-selection strategy.
    pub strategy: BatchStrategy,
    /// Base seed; client `i` runs stream `seed + i`.
    pub seed: u64,
    /// Per-iteration probability (in percent) that a client releases
    /// one of its live containers after placing.
    pub release_pct: u32,
}

impl Default for DemoLoad {
    fn default() -> Self {
        DemoLoad {
            clients: 4,
            requests_per_client: 16,
            pool: vec![WireRequest {
                workload: "swaptions".to_string(),
                vcpus: 16,
                goal_frac: 0.9,
                probe_seed: 0,
            }],
            strategy: BatchStrategy::FirstFit,
            seed: 42,
            release_pct: 50,
        }
    }
}

/// What the demo observed, aggregated over all clients.
#[derive(Debug, Clone)]
pub struct DemoReport {
    /// Client-observed latency of each place round trip.
    pub place: LatencySummary,
    /// Client-observed latency of each release round trip.
    pub release: LatencySummary,
    /// Placements that committed.
    pub placed: usize,
    /// Placements the fleet rejected (momentarily full under churn).
    pub rejected: usize,
    /// Releases that completed.
    pub released: usize,
}

/// A tiny deterministic xorshift stream — enough randomness to
/// interleave placements and departures differently per client, with
/// no dependency on the `rand` shim from a non-test crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }
}

impl DemoLoad {
    /// Runs the churn against a daemon at `addr`.
    ///
    /// # Errors
    ///
    /// The first client-side failure (connect refused, daemon gone
    /// mid-run). Domain rejections are not errors — they are counted in
    /// [`DemoReport::rejected`].
    ///
    /// # Panics
    ///
    /// Panics when called with an empty request pool. A client thread
    /// that panics mid-run is reported as a [`ClientError`], not
    /// re-raised.
    pub fn run(&self, addr: SocketAddr) -> Result<DemoReport, ClientError> {
        assert!(!self.pool.is_empty(), "demo needs a request pool");
        let mut handles = Vec::new();
        for client_idx in 0..self.clients {
            let load = self.clone();
            handles.push(std::thread::spawn(move || load.run_client(addr, client_idx)));
        }
        let mut report = DemoReport {
            place: LatencySummary::from_nanos(Vec::new()),
            release: LatencySummary::from_nanos(Vec::new()),
            placed: 0,
            rejected: 0,
            released: 0,
        };
        let mut first_err = None;
        for handle in handles {
            // A panicked client thread becomes the run's error rather
            // than propagating the panic through the daemon demo.
            let joined = handle.join().unwrap_or_else(|_| {
                Err(ClientError::Wire(WireError::Io(io::Error::other(
                    "demo client thread panicked",
                ))))
            });
            match joined {
                Ok(outcome) => {
                    report.place = report.place.merged(&LatencySummary::from_nanos(outcome.place_ns));
                    report.release =
                        report.release.merged(&LatencySummary::from_nanos(outcome.release_ns));
                    report.placed += outcome.placed;
                    report.rejected += outcome.rejected;
                    report.released += outcome.released;
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(report)
    }

    fn run_client(&self, addr: SocketAddr, client_idx: usize) -> Result<ClientOutcome, ClientError> {
        let mut client = Client::connect(addr).map_err(|e| ClientError::Wire(e.into()))?;
        let mut rng = Lcg(self.seed.wrapping_add(client_idx as u64));
        let mut live: Vec<u64> = Vec::new();
        let mut outcome = ClientOutcome::default();
        for iteration in 0..self.requests_per_client {
            // `run` asserted the pool is non-empty, so the modulo is
            // defined and the lookup always hits.
            let pick = rng.next() as usize % self.pool.len();
            let Some(mut req) = self.pool.get(pick).cloned() else {
                break;
            };
            // A client- and iteration-unique probe seed, like the
            // in-process contended load uses.
            req.probe_seed = (client_idx * self.requests_per_client + iteration) as u64;
            let start = Instant::now();
            let placed = client.place(req, self.strategy)?;
            outcome.place_ns.push(start.elapsed().as_nanos() as u64);
            match placed {
                PlaceOutcome::Placed(info) => {
                    outcome.placed += 1;
                    live.push(info.ticket);
                }
                PlaceOutcome::Rejected { .. } => outcome.rejected += 1,
            }
            if !live.is_empty() && rng.next() % 100 < self.release_pct as u64 {
                let victim = live.swap_remove(rng.next() as usize % live.len());
                let start = Instant::now();
                client.release(victim)?;
                outcome.release_ns.push(start.elapsed().as_nanos() as u64);
                outcome.released += 1;
            }
        }
        // Drain: nothing this client placed may outlive it.
        for ticket in live.drain(..) {
            let start = Instant::now();
            client.release(ticket)?;
            outcome.release_ns.push(start.elapsed().as_nanos() as u64);
            outcome.released += 1;
        }
        Ok(outcome)
    }
}

#[derive(Default)]
struct ClientOutcome {
    place_ns: Vec<u64>,
    release_ns: Vec<u64>,
    placed: usize,
    rejected: usize,
    released: usize,
}
