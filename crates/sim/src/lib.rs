//! Analytic NUMA performance simulator.
//!
//! This crate is the repository's stand-in for the paper's two physical
//! test machines. [`rates`] is its one solve: the noise-free steady-state
//! instruction rates of one or more containers (workload + concrete
//! vCPU-to-hardware-thread assignment) under a [`Profile`] that fixes
//! every solver parameter; [`simulate`] and [`SimOracle`] measure them
//! with noise. The simulated hardware performance events of the paper's
//! comparison baseline come from the same solve, on request only ([`hpe`]).
//!
//! The model is a CPI stack solved to a fixed point:
//!
//! * **pipeline sharing** — SMT siblings (Intel) or module pairs (AMD
//!   Bulldozer) scale core throughput by the workload's pair speedup;
//! * **cache occupancy** — L2/L3 miss ratios follow a smooth curve of
//!   footprint over capacity, where private working sets add per thread
//!   and shared working sets replicate per cache;
//! * **memory-controller contention** — DRAM queueing delay grows with
//!   per-node bandwidth utilisation;
//! * **interconnect** — remote accesses pay per-hop latency plus queueing
//!   on the loaded links of the routed path, and consume link bandwidth;
//! * **communication** — cross-thread cache-line transfers pay L2-, L3- or
//!   interconnect-level latency depending on where the partner sits.
//!
//! These are exactly the effects the paper names as the reason placements
//! differ (§1): contentious vs cooperative sharing, communication latency,
//! and interconnect asymmetry.
//!
//! The same solve prices co-location ([`colocation`]): a candidate run
//! together with a host's real residents, each on the threads it holds.
//! [`SimOracle`]'s `InterferenceOracle` implementation takes the
//! residents as exactly the containers holding the occupancy's used
//! threads, and asserts it; [`SimOracle::penalty`] answers the same
//! question from a bounded memo keyed by the solve's input.

#![warn(missing_docs)]

pub mod colocation;
pub mod engine;
pub mod hpe;
mod noise;
pub mod oracle;

pub use colocation::{simulate_candidate_penalty, simulate_co_location, CoLocationReport};
pub use engine::{rates, simulate, ContainerRun, Profile};
pub use oracle::SimOracle;

#[cfg(test)]
extern crate self as vc_sim;
// The per-thread reference of `tests/solver_equivalence.rs`, which the
// unit tests run on parameters neither profile has.
#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;
