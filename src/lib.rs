//! # vcplace — NUMA-aware virtual container placement
//!
//! A reproduction of *“Placement of Virtual Containers on NUMA systems: A
//! Practical and Comprehensive Model”* (Funston et al., USENIX ATC 2018)
//! as a Rust library, including the simulated NUMA substrate the
//! experiments run on.
//!
//! The crates are re-exported here under short module names:
//!
//! * [`topology`] — machine descriptions, interconnect graphs and the
//!   stream-style bandwidth measurement;
//! * [`workloads`] — the paper's benchmark suite as behavioural
//!   descriptors, plus a synthetic generator;
//! * [`ml`] — from-scratch random forests, k-means and feature selection;
//! * [`core`] — scheduling concerns, important placements (Algorithms
//!   1–3) and the two-probe prediction pipeline;
//! * [`sim`] — the analytic NUMA performance simulator and HPE
//!   synthesiser;
//! * [`migration`] — the Table 2 memory migration cost model;
//! * [`policy`] — the §7 packing policies and scenario harness;
//! * [`engine`] — the cluster-scale placement service: a cache-backed
//!   [`engine::PlacementEngine`] serving placement and packing queries
//!   over a fleet of machines;
//! * [`serve`] — the long-lived placement daemon: a framed TCP protocol
//!   over the engine ([`serve::PlacementServer`] / [`serve::Client`])
//!   with a pausable background rebalance loop.
//!
//! # Quickstart
//!
//! ```
//! use vcplace::core::concern::ConcernSet;
//! use vcplace::core::important::important_placements;
//! use vcplace::topology::machines;
//!
//! let amd = machines::amd_opteron_6272();
//! let concerns = ConcernSet::for_machine(&amd);
//! let placements = important_placements(&amd, &concerns, 16).unwrap();
//! assert_eq!(placements.len(), 13);
//! ```

#![warn(missing_docs)]

pub use vc_core as core;
pub use vc_engine as engine;
pub use vc_migration as migration;
pub use vc_ml as ml;
pub use vc_policy as policy;
pub use vc_serve as serve;
pub use vc_sim as sim;
pub use vc_topology as topology;
pub use vc_workloads as workloads;

/// The README's code blocks compile and run as doctests, so the
/// quickstart can never rot silently.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
