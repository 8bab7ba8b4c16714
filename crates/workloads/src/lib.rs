//! Workload descriptors for the ATC'18 container-placement suite.
//!
//! The paper evaluates on real benchmarks (NAS, Parsec, Metis map-reduce,
//! BLAST, a kernel compile, Spark graph jobs, TPC-C/TPC-H on Postgres, and
//! a WiredTiger B-tree workload). This crate describes each of those as a
//! vector of *behavioural parameters* — working sets, memory intensity,
//! communication intensity, pipeline-sharing friendliness, and the memory
//! footprints of Table 2 — which the `vc-sim` simulator turns into
//! placement-dependent performance.
//!
//! A [`generator`] produces randomized synthetic workloads from the same
//! parameter space, used to enlarge training corpora and for property
//! tests.

#![warn(missing_docs)]

pub mod descriptor;
pub mod generator;
pub mod suite;

pub use descriptor::{Metric, Workload};
pub use suite::{paper_suite, workload_by_name};
