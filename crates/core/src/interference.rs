//! Occupancy-conditional interference scoring for co-located containers.
//!
//! The paper's model predicts a container's performance on an *idle*
//! machine; the scheduler, however, commits containers onto hosts that
//! already run neighbours. Sharing a node means sharing its L3 slices,
//! memory controller and interconnect ports — effects the empty-host
//! prediction never saw (Phoenix, arXiv:2502.10923; Mao,
//! arXiv:2411.01460 both show placement quality collapses under
//! co-location when the scorer is neighbour-blind).
//!
//! An [`InterferenceOracle`] (implemented by `vc-sim`'s co-location
//! simulator; on real hardware, a paired measurement) closes that gap:
//! it prices the *penalty* — the candidate's predicted performance with
//! the host's residents running, relative to the same placement on an
//! idle host — which the engine multiplies into the class score. The
//! residents are passed as [`ResidentWorkload`]s: the containers
//! holding the occupancy's used threads, which a serving engine reads
//! from the same published host snapshot as the occupancy.
//!
//! This module holds only the contract. The penalty is a pure function
//! of the oracle's input, so the memo that keeps a warm serving path
//! from ever solving lives with the solver: `vc_sim::SimOracle::penalty`,
//! whose counters are [`InterferenceCounters`].

use vc_topology::{OccupancyMap, ThreadId};

/// One resident container as the interference path sees it: which
/// workload it runs and which hardware threads it holds.
///
/// A serving engine derives these from the host snapshot whose
/// occupancy it scores against, so the two always agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentWorkload {
    /// Workload name, resolvable against the oracle's suite.
    pub workload: String,
    /// The hardware threads the resident has reserved.
    pub threads: Vec<ThreadId>,
}

/// Source of co-location penalties.
///
/// Implemented by `vc-sim`'s `SimOracle`, which simulates the candidate
/// together with the named resident workloads; a hardware-backed
/// implementation would measure the candidate against the live
/// neighbours.
pub trait InterferenceOracle {
    /// Multiplicative penalty in `(0, 1]`: predicted performance of
    /// `workload` pinned to `threads` while the host's resident
    /// containers run, relative to the same assignment on an idle
    /// machine. `1.0` means the neighbours cost nothing.
    ///
    /// `residents` are the containers holding `occ`'s used threads:
    /// together they hold every used thread and no free one. `threads`
    /// must be free in `occ` (the candidate has not been committed
    /// yet). Implementations may panic when either contract is broken.
    fn co_location_penalty(
        &self,
        workload: &str,
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64;
}

/// Counter snapshot of one penalty memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterferenceCounters {
    /// Total penalty queries.
    pub lookups: u64,
    /// Queries answered without consulting the oracle (cache hits plus
    /// idle-host short circuits).
    pub hits: u64,
    /// Oracle consultations (cold misses — on the simulator backend,
    /// co-location simulations).
    pub computes: u64,
}

impl InterferenceCounters {
    /// Sums two snapshots (for aggregating across machine classes).
    pub fn merged(self, other: InterferenceCounters) -> InterferenceCounters {
        InterferenceCounters {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            computes: self.computes + other.computes,
        }
    }
}
