//! A long-lived placement daemon over [`vc_engine::PlacementEngine`],
//! speaking a hand-rolled length-prefixed framed protocol on plain
//! `std::net` TCP.
//!
//! Three layers, deliberately separated so a future gRPC (or UDS, or
//! in-process) front-end is a codec swap rather than a daemon rewrite:
//!
//! * [`wire`] — length-prefixed framing with a hard size cap enforced
//!   before allocation;
//! * [`rpc`] — typed request/response messages and their byte codec
//!   (place / place-batch / release / stats / occupancy / can-fit
//!   probes, plus pause/resume/drain/shutdown control verbs);
//! * [`client`] / [`server`] — a blocking typed [`Client`] and the
//!   [`PlacementServer`] daemon, which owns the periodic rebalance pass
//!   as a pausable background thread with hysteresis (move cooldown +
//!   per-pass moved-GB cap via [`vc_engine::RebalancePolicy`]).
//!
//! The daemon keeps no per-placement state: a `Release` hands its wire
//! ticket to [`vc_engine::PlacementEngine::release_ticket`], so the
//! engine's record of each host is the only record of what runs where.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use vc_engine::{BatchStrategy, EngineConfig, PlacementEngine};
//! use vc_serve::rpc::WireRequest;
//! use vc_serve::{Client, PlacementServer, ServerConfig};
//! use vc_topology::machines;
//!
//! let mut engine = PlacementEngine::new(EngineConfig {
//!     extra_synthetic: 0, // paper suite only, for a fast doc test
//!     ..EngineConfig::default()
//! });
//! engine.add_machine(machines::amd_opteron_6272());
//!
//! // Ephemeral loopback port; no rebalance loop for this example.
//! let server = PlacementServer::spawn(Arc::new(engine), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! client.ping().unwrap();
//! let probe = client
//!     .can_fit(WireRequest {
//!         workload: "swaptions".to_string(),
//!         vcpus: 16,
//!         goal_frac: 0.0,
//!         probe_seed: 0,
//!     })
//!     .unwrap();
//! assert_eq!(probe.hosts, 1); // the whole (one-host) fleet can take it
//!
//! client.shutdown().unwrap();
//! server.join(); // the client's verb stopped the daemon
//! # let _ = BatchStrategy::FirstFit;
//! ```

#![warn(missing_docs)]
// The serving path must not panic: a handler that dies takes its
// connection with it. CI's `clippy -D warnings` turns these into
// errors; `clippy.toml` exempts test code.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod client;
pub mod rpc;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use rpc::{ErrorCode, PlaceOutcome, Request, Response, ServiceStats, WireRequest};
pub use server::{LoopConfig, PlacementServer, ServerConfig};
pub use wire::{WireError, MAX_FRAME};
