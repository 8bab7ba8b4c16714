//! Container packing policies and the §7 datacenter scenario.
//!
//! The paper packs as many instances of one container type into a machine
//! as possible while respecting a performance goal (90 / 100 / 110 % of
//! the performance observed in a baseline placement), comparing four
//! policies:
//!
//! * **ML** — probe two placements, predict the full performance vector
//!   with the trained model, then pack instances onto placement classes
//!   predicted to meet the goal;
//! * **Conservative** — one instance per machine, unpinned;
//! * **Aggressive** — the maximum number of instances, unpinned, sharing
//!   NUMA nodes at the OS scheduler's whim;
//! * **Smart-Aggressive** — the maximum number of instances, each pinned
//!   to the best minimum node set (highest interconnect bandwidth).

#![warn(missing_docs)]

pub mod churn;
pub mod scenario;

pub use churn::{ChurnEvent, ChurnReport, ChurnScenario};
pub use scenario::{PackingScenario, Policy, PolicyOutcome};
