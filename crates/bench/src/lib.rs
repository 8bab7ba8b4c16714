//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each submodule of [`experiments`] computes one artefact and renders it
//! as the rows/series the paper reports. The `src/bin` binaries print
//! them; the Criterion benches print them once and then time the
//! underlying computation. See `EXPERIMENTS.md` at the repository root
//! for paper-vs-measured notes.

#![warn(missing_docs)]

pub mod experiments;
