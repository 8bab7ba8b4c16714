//! [`vc_core::model::PerfOracle`] and [`InterferenceOracle`]
//! implementations backed by the simulator, and the co-location memo.
//!
//! A [`SimOracle`] serves one machine. Besides the idle-machine
//! measurements the paper's model trains on, it prices co-location:
//! [`InterferenceOracle::co_location_penalty`] solves the candidate
//! together with the host's residents, and [`SimOracle::penalty`]
//! answers the same question from a bounded memo keyed by that solve's
//! input. The solve is a pure function of its input — the machine is
//! fixed per oracle, and the probe is noise-free — so a
//! memoised penalty is, to the last bit, the one a direct call returns:
//! which lookup filled an entry, and whether it was evicted and filled
//! again, is invisible in the answers. A caller may therefore skip a
//! lookup it can prove cannot change its decision without changing any
//! later one. The memo is the workspace's LRU [`KeyedCache`], whose
//! victim is chosen by a logical clock, never by a hash seed, so the
//! counters too depend on the lookup history alone.
//!
//! The assignment table's `RwLock` is a plain `std` leaf: it is private
//! to this file and held only for one map lookup or insert — the
//! assignment is computed, and every simulation runs, with it released.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use vc_core::assign::assign_vcpus;
use vc_core::interference::{InterferenceCounters, InterferenceOracle, ResidentWorkload};
use vc_core::model::PerfOracle;
use vc_core::placement::PlacementSpec;
use vc_sync::{Counter, KeyedCache};
use vc_topology::{Machine, OccupancyMap, ThreadId};
use vc_workloads::{generator, suite, Workload};

use crate::colocation::simulate_candidate_penalty;
use crate::engine::{rates, simulate, ContainerRun, Profile};
use crate::noise::measure;

/// A performance oracle for one machine: resolves workload names against
/// the paper suite (plus optional extra workloads) and simulates each
/// requested (workload, placement) measurement under
/// [`Profile::Measure`].
pub struct SimOracle {
    machine: Machine,
    workloads: Vec<Workload>,
    /// The canonical assignment of every spec measured so far. An
    /// assignment is a pure function of (machine, spec), so it is kept
    /// beside its spec instead of being rebuilt through a fresh
    /// occupancy map on every probe; the table holds at most one entry
    /// per valid spec of this machine, and callers probe catalog specs —
    /// a few dozen per container size.
    assignments: RwLock<HashMap<PlacementSpec, Arc<[ThreadId]>>>,
    /// Co-location penalty per [`Self::penalty_key`], least-recently-used
    /// entries dropped beyond [`Self::PENALTY_CAPACITY`] (churny fleets
    /// reach ever new occupancies, so the key space is unbounded).
    penalties: KeyedCache<Vec<u16>, f64>,
    lookups: Counter,
    hits: Counter,
}

impl SimOracle {
    /// Bound on the co-location penalties [`Self::penalty`] keeps.
    pub const PENALTY_CAPACITY: usize = 4096;

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
            assignments: RwLock::default(),
            penalties: KeyedCache::bounded(Self::PENALTY_CAPACITY),
            lookups: Counter::new(),
            hits: Counter::new(),
        }
    }

    /// The machine this oracle simulates.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// All workloads the oracle can resolve.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The position of workload `name` in [`Self::workloads`].
    fn workload_index(&self, name: &str) -> usize {
        self.workloads
            .iter()
            .position(|w| w.name == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// The workload named `name`.
    ///
    /// # Panics
    ///
    /// Panics when the oracle has no workload of that name.
    pub fn workload(&self, name: &str) -> &Workload {
        &self.workloads[self.workload_index(name)]
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

    /// [`InterferenceOracle::co_location_penalty`], memoised: the same
    /// arguments, contract and answer, to the last bit.
    ///
    /// Every lookup checks the contract (one pass over the residents'
    /// threads), so a warm key is refused an occupancy its residents do
    /// not exactly hold, as a direct call is. An idle occupancy then
    /// short-circuits to `1.0` without a key; anything else is looked
    /// up under the solve's input — the candidate's workload and
    /// threads, then each resident's, orders kept — and solved once
    /// per distinct input while it stays among the
    /// [`Self::PENALTY_CAPACITY`] most recently used. The solve runs
    /// outside the memo's lock, so concurrent cold misses on
    /// *different* keys do not serialise (identical racing keys solve
    /// once: the losers wait for the winner's value and count as
    /// hits). [`Self::interference_counters`] counts the work.
    ///
    /// # Panics
    ///
    /// As [`InterferenceOracle::co_location_penalty`].
    pub fn penalty(
        &self,
        workload: &str,
        threads: &[ThreadId],
        occ: &OccupancyMap,
        residents: &[ResidentWorkload],
    ) -> f64 {
        self.lookups.incr();
        assert_residents_hold(occ, residents);
        if occ.used_threads() == 0 {
            self.hits.incr();
            return 1.0;
        }
        let key = self.penalty_key(workload, threads, residents);
        let mut computed = false;
        let p = self.penalties.get_or_compute(&key[..], || {
            computed = true;
            self.co_location_penalty(workload, threads, occ, residents)
        });
        if !computed {
            self.hits.incr();
        }
        p
    }

    /// What [`Self::penalty`] has done so far.
    pub fn interference_counters(&self) -> InterferenceCounters {
        InterferenceCounters {
            lookups: self.lookups.get(),
            hits: self.hits.get(),
            computes: self.penalties.counters().computes,
        }
    }

    /// The memo key of one penalty query: the co-location solve's
    /// input, in order and with lengths,
    ///
    /// ```text
    /// candidate workload | candidate threads | (resident workload | resident threads)*
    /// ```
    ///
    /// with each workload written as its index in [`Self::workloads`]
    /// and each thread list as its length followed by its indices, one
    /// 16-bit word each. Every thread list keeps its order, and the
    /// residents theirs: the simulator accumulates its loads thread by
    /// thread, so the same threads in another order can score
    /// differently. Lists carry their lengths, so distinct inputs never
    /// encode alike. The machine and the profile are fixed per oracle,
    /// and the occupancy's used threads are the
    /// residents' (the contract [`Self::penalty`] checks), so none of
    /// them is keyed.
    fn penalty_key(
        &self,
        workload: &str,
        threads: &[ThreadId],
        residents: &[ResidentWorkload],
    ) -> Vec<u16> {
        let word = |n: usize| u16::try_from(n).expect("penalty keys index below 2^16");
        let len = residents.iter().map(|r| 2 + r.threads.len()).sum::<usize>();
        let mut key = Vec::with_capacity(2 + threads.len() + len);
        let mut push = |name: &str, threads: &[ThreadId]| {
            key.push(word(self.workload_index(name)));
            key.push(word(threads.len()));
            key.extend(threads.iter().map(|t| word(t.index())));
        };
        push(workload, threads);
        for r in residents {
            push(&r.workload, &r.threads);
        }
        key
    }
}

/// Panics unless `residents` hold exactly `occ`'s used threads: as many
/// threads as the occupancy reserves, every one of them reserved.
fn assert_residents_hold(occ: &OccupancyMap, residents: &[ResidentWorkload]) {
    let held: usize = residents.iter().map(|r| r.threads.len()).sum();
    assert!(
        held == occ.used_threads()
            && residents.iter().flat_map(|r| &r.threads).all(|&t| !occ.is_free(t)),
        "residents hold {held} threads, the occupancy reserves {}: \
         they must be exactly the containers holding its used threads",
        occ.used_threads()
    );
}

impl InterferenceOracle for SimOracle {
    /// Simulates `workload` pinned to `threads` together with the
    /// host's residents and returns co-located over solo throughput.
    ///
    /// Each resident is simulated as *itself* on its reserved threads —
    /// the penalty the engine acts on is the penalty the fleet actually
    /// experiences.
    ///
    /// It runs [`simulate_candidate_penalty`] under the noise-free
    /// [`Profile::Probe`]: two solves, the joint one and the candidate
    /// alone, whatever the resident count. An idle occupancy costs none.
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
        assert_residents_hold(occ, residents);
        if occ.used_threads() == 0 {
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
        simulate_candidate_penalty(&self.machine, &candidate, &resident_runs)
    }
}

impl PerfOracle for SimOracle {
    fn perf(&self, workload: &str, spec: &PlacementSpec, seed: u64) -> f64 {
        let run = ContainerRun {
            workload: self.workload(workload),
            assignment: &self.assignment(workload, spec),
        };
        simulate(&self.machine, &[run], seed)[0]
    }

    /// One solve shared by every seed: the rate is noise-free, and each
    /// seed's measurement is taken of it as [`simulate`] takes it — the
    /// same values as [`Self::perf`] per seed, to the last bit.
    fn perf_seeds(&self, workload: &str, spec: &PlacementSpec, seeds: u64) -> Vec<f64> {
        let run = ContainerRun {
            workload: self.workload(workload),
            assignment: &self.assignment(workload, spec),
        };
        let rate = rates(&self.machine, &[run], Profile::Measure)[0];
        (0..seeds)
            .map(|seed| measure(&self.machine, &run, rate, seed))
            .collect()
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
        let run = ContainerRun {
            workload: o.workload("kmeans"),
            assignment: &assign_vcpus(o.machine(), &spec).unwrap(),
        };
        let h = crate::hpe::observe(o.machine(), &run, 0);
        assert_eq!(h.len(), crate::hpe::hpe_names().len());
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
