//! [`vc_core::model::PerfOracle`] implementation backed by the simulator.
//!
//! The assignment table's `RwLock` is a plain `std` leaf: it is private
//! to this file and held only for one map lookup or insert — the
//! assignment is computed, and every simulation runs, with it released.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use vc_core::assign::assign_vcpus;
use vc_core::interference::{InterferenceOracle, ResidentWorkload};
use vc_core::model::PerfOracle;
use vc_core::placement::PlacementSpec;
use vc_topology::{Machine, OccupancyMap, ThreadId};
use vc_workloads::{generator, suite, Workload};

use crate::colocation::simulate_candidate_penalty;
use crate::engine::{simulate, ContainerRun, SimConfig};
use crate::hpe;
use crate::noise::measurement_rng;

/// A performance oracle for one machine: resolves workload names against
/// the paper suite (plus optional extra workloads) and simulates each
/// requested (workload, placement) measurement.
pub struct SimOracle {
    machine: Machine,
    workloads: Vec<Workload>,
    config: SimConfig,
    /// The canonical assignment of every spec measured so far. An
    /// assignment is a pure function of (machine, spec), so it is kept
    /// beside its spec instead of being rebuilt through a fresh
    /// occupancy map on every probe; the table holds at most one entry
    /// per valid spec of this machine, and callers probe catalog specs —
    /// a few dozen per container size.
    assignments: RwLock<HashMap<PlacementSpec, Arc<[ThreadId]>>>,
}

impl SimOracle {
    /// Oracle over the paper suite on `machine`.
    pub fn new(machine: Machine) -> Self {
        Self::with_synthetic(machine, 0, 0)
    }

    /// Oracle over the paper suite plus `extra_synthetic` generated
    /// workloads (a larger training corpus).
    pub fn with_synthetic(machine: Machine, extra_synthetic: usize, seed: u64) -> Self {
        let mut workloads = suite::paper_suite();
        workloads.extend(generator::training_corpus(extra_synthetic, seed));
        SimOracle {
            machine,
            workloads,
            config: SimConfig::default(),
            assignments: RwLock::default(),
        }
    }

    /// Overrides the simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// The machine this oracle simulates.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// All workloads the oracle can resolve.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    fn workload(&self, name: &str) -> &Workload {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// The canonical assignment of `spec` on this machine, computed on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics when `spec` is not a valid placement of this machine;
    /// `name` only labels the message.
    fn assignment(&self, name: &str, spec: &PlacementSpec) -> Arc<[ThreadId]> {
        let known = self.assignments.read().expect("assignment table poisoned");
        if let Some(assignment) = known.get(spec) {
            return Arc::clone(assignment);
        }
        drop(known);
        let assignment: Arc<[ThreadId]> = assign_vcpus(&self.machine, spec)
            .unwrap_or_else(|e| panic!("invalid placement for {name}: {e}"))
            .into();
        self.assignments
            .write()
            .expect("assignment table poisoned")
            .insert(spec.clone(), Arc::clone(&assignment));
        assignment
    }

    /// Runs one container alone on the machine and returns its full
    /// simulated performance.
    pub fn run(&self, name: &str, spec: &PlacementSpec, seed: u64) -> crate::engine::ContainerPerf {
        let run = ContainerRun {
            workload: self.workload(name),
            assignment: &self.assignment(name, spec),
        };
        let result = simulate(&self.machine, &[run], &self.config, seed);
        result
            .per_container
            .into_iter()
            .next()
            .expect("one container")
    }
}

impl InterferenceOracle for SimOracle {
    /// Simulates `workload` pinned to `threads` together with the
    /// host's residents and returns co-located over solo throughput.
    ///
    /// Each resident is simulated as *itself* on its reserved threads —
    /// the penalty the engine acts on is the penalty the fleet actually
    /// experiences.
    ///
    /// The probe runs under [`SimConfig::interference_probe`]:
    /// noise-free, fixed-seed, with a tail-averaged fixed point — the
    /// penalty is a pure contention measurement, deterministic per
    /// `(workload, threads, occupancy, residents)`, which keeps
    /// memoized penalties coherent across repeated queries. It costs
    /// two solves — the joint one and the candidate alone
    /// ([`simulate_candidate_penalty`]) — whatever the resident count.
    ///
    /// # Panics
    ///
    /// Panics when `residents` are not the containers holding `occ`'s
    /// used threads (the [`InterferenceOracle`] contract: their threads
    /// must number `occ.used_threads()`, all reserved), when `threads`
    /// overlaps them (callers score candidates *before* committing
    /// them), or when a workload — candidate or resident — is unknown.
    fn co_location_penalty(
        &self,
        workload: &str,
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64 {
        let held: usize = residents.iter().map(|r| r.threads.len()).sum();
        assert!(
            held == occ.used_threads()
                && residents.iter().flat_map(|r| &r.threads).all(|&t| !occ.is_free(t)),
            "residents hold {held} threads, the occupancy reserves {}: \
             they must be exactly the containers holding its used threads",
            occ.used_threads()
        );
        if held == 0 {
            return 1.0;
        }
        let candidate = ContainerRun {
            workload: self.workload(workload),
            assignment: threads,
        };
        let resident_runs: Vec<ContainerRun> = residents
            .iter()
            .map(|r| ContainerRun {
                workload: self.workload(&r.workload),
                assignment: &r.threads,
            })
            .collect();
        let probe_config = SimConfig::interference_probe();
        simulate_candidate_penalty(&self.machine, &candidate, &resident_runs, &probe_config, 0)
    }
}

impl PerfOracle for SimOracle {
    fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64 {
        self.run(workload, spec, seed).metric_value
    }

    fn hpes(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> Vec<f64> {
        let perf = self.run(workload, spec, seed);
        let w = self.workload(workload);
        let assignment = self.assignment(workload, spec);
        let mut rng = measurement_rng(workload, &assignment, seed, 2);
        hpe::synthesise(w, &perf, &mut rng, self.config.hpe_noise)
    }

    fn hpe_names(&self) -> Vec<String> {
        hpe::hpe_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::{machines, NodeId};

    #[test]
    fn oracle_resolves_suite_workloads() {
        let o = SimOracle::new(machines::amd_opteron_6272());
        let spec = PlacementSpec::on_nodes(16, vec![NodeId(0), NodeId(1)], 8);
        let p = o.perf("blast", &spec, 0);
        assert!(p > 0.0);
    }

    #[test]
    fn oracle_is_deterministic_per_seed() {
        let o = SimOracle::new(machines::amd_opteron_6272());
        let spec = PlacementSpec::on_nodes(16, vec![NodeId(2), NodeId(4)], 8);
        assert_eq!(o.perf("wc", &spec, 5), o.perf("wc", &spec, 5));
        assert_ne!(o.perf("wc", &spec, 5), o.perf("wc", &spec, 6));
    }

    #[test]
    fn hpes_have_consistent_arity() {
        let o = SimOracle::new(machines::intel_xeon_e7_4830_v3());
        let spec = PlacementSpec::on_nodes(24, vec![NodeId(0)], 12);
        let h = o.hpes("kmeans", &spec, 0);
        assert_eq!(h.len(), o.hpe_names().len());
    }

    #[test]
    fn synthetic_workloads_are_available() {
        let o = SimOracle::with_synthetic(machines::amd_opteron_6272(), 4, 9);
        let spec = PlacementSpec::on_nodes(16, vec![NodeId(0), NodeId(1)], 8);
        assert!(o.perf("synth-0", &spec, 0) > 0.0);
        assert_eq!(o.workloads().len(), 18 + 4);
    }

    /// `name` on the first `n` threads of node 1.
    fn neighbour(amd: &Machine, name: &str, n: usize) -> ResidentWorkload {
        ResidentWorkload {
            workload: name.to_string(),
            threads: amd.threads_on_node(NodeId(1))[..n].to_vec(),
        }
    }

    #[test]
    fn co_location_penalty_is_idle_neutral_and_deterministic() {
        let amd = machines::amd_opteron_6272();
        let o = SimOracle::new(amd.clone());
        let threads = amd.threads_on_node(NodeId(0));
        let occ = OccupancyMap::new(&amd);
        assert_eq!(o.co_location_penalty("streamcluster", &threads, &occ, &[]), 1.0);

        let mut busy = OccupancyMap::new(&amd);
        let residents = [neighbour(&amd, "canneal", 8)];
        busy.reserve(&residents[0].threads).unwrap();
        let p = o.co_location_penalty("streamcluster", &threads, &busy, &residents);
        assert!(p > 0.0 && p <= 1.0, "penalty out of range: {p}");
        assert_eq!(
            p,
            o.co_location_penalty("streamcluster", &threads, &busy, &residents),
            "noise-free probe must be deterministic"
        );
    }

    #[test]
    fn real_residents_set_the_penalty() {
        // Same occupancy pattern, two different truths about what runs
        // there: a streaming neighbour costs a half-node candidate more
        // than a pure-compute one.
        let amd = machines::amd_opteron_6272();
        let o = SimOracle::new(amd.clone());
        let node0 = amd.threads_on_node(NodeId(0));
        let (candidate, neighbour) = (node0[4..].to_vec(), node0[..4].to_vec());
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&neighbour).unwrap();

        let with = |name: &str| {
            o.co_location_penalty(
                "streamcluster",
                &candidate,
                &occ,
                &[ResidentWorkload {
                    workload: name.to_string(),
                    threads: neighbour.clone(),
                }],
            )
        };
        let next_to_compute = with("swaptions");
        let next_to_stream = with("streamcluster");
        assert!(
            next_to_stream < next_to_compute && next_to_compute <= 1.0,
            "stream {next_to_stream} must cost more than compute {next_to_compute}"
        );
    }

    /// Residents that do not hold exactly the occupancy's used threads
    /// break the contract: none at all on a busy host, too few threads,
    /// or a thread the occupancy has free.
    #[test]
    fn residents_must_hold_exactly_the_used_threads() {
        let amd = machines::amd_opteron_6272();
        let o = SimOracle::new(amd.clone());
        let candidate = amd.threads_on_node(NodeId(0));
        let mut occ = OccupancyMap::new(&amd);
        occ.reserve(&amd.threads_on_node(NodeId(1))[..4]).unwrap();
        let off_by_one = ResidentWorkload {
            workload: "canneal".to_string(),
            threads: amd.threads_on_node(NodeId(1))[1..5].to_vec(),
        };
        for residents in [vec![], vec![neighbour(&amd, "canneal", 3)], vec![off_by_one]] {
            let probe = std::panic::catch_unwind(|| {
                o.co_location_penalty("streamcluster", &candidate, &occ, &residents)
            });
            let message = *probe.expect_err("contract broken").downcast::<String>().unwrap();
            assert!(message.contains("the occupancy reserves 4"), "{message}");
        }
        let held = [neighbour(&amd, "canneal", 4)];
        assert!(o.co_location_penalty("streamcluster", &candidate, &occ, &held) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let o = SimOracle::new(machines::amd_opteron_6272());
        let spec = PlacementSpec::on_nodes(16, vec![NodeId(0), NodeId(1)], 8);
        o.perf("nope", &spec, 0);
    }
}
