//! NUMA machine topology model for container placement.
//!
//! This crate provides the *abstract machine description* consumed by the
//! placement algorithms of Funston et al. (USENIX ATC'18): a hierarchy of
//! shared resources (hardware threads sharing cores, cores sharing L2
//! groups, L2 groups sharing L3 groups, L3 groups sharing NUMA nodes) and an
//! interconnect graph with per-link bandwidths.
//!
//! The paper obtains interconnect scores by running the `stream` benchmark
//! on every node combination. Since this reproduction targets simulated
//! hardware, [`stream::aggregate_bandwidth`] provides the equivalent
//! measurement: a max-min-fair flow allocation over the link graph.
//!
//! Beyond the paper, the crate accounts a fleet's capacity: an
//! [`OccupancyMap`] records which threads of one machine are reserved; a
//! [`CapacitySummary`] publishes that host's [`SketchProfile`] lock-free
//! (per free-thread threshold `k`, how many nodes and how many L2 groups
//! have at least `k` free), so "could this host fit the shape?" is one
//! load per axis; and an [`AvailabilitySketch`] sums the profiles of a
//! shard of hosts.
//!
//! # Examples
//!
//! ```
//! use vc_topology::machines;
//!
//! let amd = machines::amd_opteron_6272();
//! assert_eq!(amd.num_nodes(), 8);
//! assert_eq!(amd.num_threads(), 64);
//! // Nodes 0 and 5 are two hops apart on this machine (paper, section 4).
//! assert_eq!(amd.interconnect().hops(0.into(), 5.into()), Some(2));
//! ```

#![warn(missing_docs)]

pub mod ids;
pub mod interconnect;
pub mod machine;
pub mod machines;
pub mod occupancy;
pub mod render;
pub mod sketch;
pub mod spec;
pub mod stream;
pub mod summary;

pub use ids::{CoreId, L2GroupId, L3GroupId, NodeId, ThreadId};
pub use interconnect::{Interconnect, Link};
pub use machine::{
    CacheConfig, Core, HwThread, L2Group, L3Group, LatencyConfig, Machine, MachineBuilder, Node,
    TopologyError,
};
pub use occupancy::{OccupancyError, OccupancyMap};
pub use sketch::{AvailabilitySketch, SketchProfile};
pub use summary::CapacitySummary;
