//! Experiment harnesses regenerating every table and figure of the paper,
//! and the one concurrent load driver.
//!
//! Each submodule of [`experiments`] computes one artefact and renders it
//! as the rows/series the paper reports; `vc-bench <figure>` prints
//! one. [`load`] drives N seeded place/release clients against an
//! engine or a running daemon — what `benches/engine_fleet.rs` and
//! `vcplace serve --demo` run. Everything else the repo times lives in
//! `benchmark/` at the repository root.

#![warn(missing_docs)]

pub mod experiments;
pub mod load;
