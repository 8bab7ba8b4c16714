//! Core placement model of Funston et al. (USENIX ATC'18).
//!
//! This crate implements the paper's primary contribution:
//!
//! * **Scheduling concerns** (§4): abstract descriptions of a machine's
//!   shared resources that map a vCPU placement to a numeric score.
//! * **Important placements** (§4, Algorithms 1–3): the automatically
//!   derived short list of placement classes that can matter for a given
//!   container size — balanced, feasible, not superseded, and closed under
//!   packing.
//! * **The prediction pipeline** (§5): training a multi-output Random
//!   Forest that maps performance observed in two probe placements to the
//!   full relative-performance vector, including automatic probe-pair
//!   selection.
//!
//! The crate is deliberately independent of the performance *source*: the
//! pipeline consumes a [`model::PerfOracle`], implemented by the `vc-sim`
//! simulator in this repository and implementable against real hardware.
//!
//! # Examples
//!
//! ```
//! use vc_core::concern::ConcernSet;
//! use vc_core::important::important_placements;
//! use vc_topology::machines;
//!
//! let amd = machines::amd_opteron_6272();
//! let concerns = ConcernSet::for_machine(&amd);
//! let placements = important_placements(&amd, &concerns, 16).unwrap();
//! assert_eq!(placements.len(), 13); // the paper's count for 16 vCPUs
//! ```

#![warn(missing_docs)]

pub mod assign;
pub mod availability;
pub mod concern;
pub mod enumerate;
pub mod important;
pub mod interference;
pub mod model;
pub mod packing;
pub mod placement;

pub use availability::{
    available_placements, AvailabilityIndex, AvailablePlacement, ClassOrbit, ShapeRequirement,
};
pub use concern::{Concern, ConcernKind, ConcernSet};
pub use important::{important_placements, ImportantPlacement};
pub use interference::{InterferenceCounters, InterferenceOracle};
pub use model::{PerfOracle, SharedOracle};
pub use placement::{PlacementError, PlacementSpec};
