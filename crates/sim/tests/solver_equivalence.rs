//! `vc_sim::rates` against the per-thread solver it replaced
//! (`support/reference.rs`): every container's rate, IPC and measured
//! metric, and every state mean `vc_sim::hpe::state_means` reads off the
//! same solve, equal to the last bit. There is no tolerance anywhere in
//! this file — the plan/solve split, the once-per-class latency update
//! and the reused load buffers are reorganisations, not approximations.
//!
//! The solo sweep covers machines × sizes × important placements × both
//! `Profile`s in full and strides the 18 suite workloads by three,
//! starting one further along for each successive placement, so every
//! workload meets every machine, size and profile (about a third of the
//! full cross product; the whole suite fits the 20 s debug budget on a
//! 2-core VM that way). Parameters neither profile has — other tails,
//! longer runs — are compared by the crate's unit tests
//! (`engine::tests::off_profile_exits_match_the_reference`).

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use reference::{bits, Perf};
use vc_core::assign::{assign_vcpus, assign_vcpus_in};
use vc_core::availability::AvailabilityIndex;
use vc_core::concern::ConcernSet;
use vc_core::important::important_placements;
use vc_core::placement::PlacementSpec;
use vc_sim::hpe::{state_means, ContainerState};
use vc_sim::{rates, simulate, simulate_candidate_penalty, ContainerRun, Profile};
use vc_topology::machine::MachineBuilder;
use vc_topology::{machines, Machine, NodeId, OccupancyMap, ThreadId};
use vc_workloads::{paper_suite, Metric, Workload};

const SIZES: [usize; 5] = [2, 4, 8, 16, 32];

fn fleet() -> Vec<Machine> {
    vec![
        machines::amd_opteron_6272(),
        machines::intel_xeon_e7_4830_v3(),
        machines::zen_like(),
        machines::tiny_two_node(),
    ]
}

const PROFILES: [Profile; 2] = [Profile::Measure, Profile::Probe];

/// What the reference runs with for `profile`: the profile's solver
/// parameters, and the measurement noise where [`simulate`] measures.
fn reference_config(profile: Profile) -> reference::Config {
    match profile {
        Profile::Measure => reference::Config {
            iterations: 30,
            damping: 0.5,
            perf_noise: 0.01,
            tail_average: 0,
        },
        Profile::Probe => reference::Config {
            iterations: 120,
            damping: 0.3,
            perf_noise: 0.0,
            tail_average: 60,
        },
    }
}

/// Every rate and state mean of `runs`, per container, from the
/// production solver and from the reference.
type Solved = Vec<(Perf, ContainerState)>;

/// `runs` under `profile`, as the crate reports them: each rate from
/// [`rates`], its mean per-thread IPC, and its metric measured with
/// seed `seed` by [`simulate`]. Nothing measures under
/// [`Profile::Probe`], which has no noise: its metric is the rate's own.
fn solved_new(machine: &Machine, runs: &[ContainerRun], profile: Profile, seed: u64) -> Solved {
    let clock_hz = machine.clock_ghz() * 1e9;
    let rates = rates(machine, runs, profile);
    let metrics = match profile {
        Profile::Measure => simulate(machine, runs, seed),
        Profile::Probe => rates
            .iter()
            .zip(runs)
            .map(|(&rate, run)| match run.workload.metric {
                Metric::OpsPerSecond => rate / run.workload.inst_per_op,
                Metric::Ipc => rate / clock_hz / run.assignment.len() as f64,
            })
            .collect(),
    };
    rates
        .iter()
        .zip(metrics)
        .zip(runs)
        .map(|((&rate, metric_value), run)| Perf {
            inst_per_sec: rate,
            ipc: rate / run.assignment.len() as f64 / clock_hz,
            metric_value,
        })
        .zip(state_means(machine, runs, profile))
        .collect()
}

fn solved_old(machine: &Machine, runs: &[ContainerRun], profile: Profile, seed: u64) -> Solved {
    reference::simulate(machine, runs, &reference_config(profile), seed)
}

fn same_bits(new: &Solved, old: &Solved) -> bool {
    new.len() == old.len()
        && new
            .iter()
            .zip(old)
            .all(|((np, ns), (op, os))| bits(np, ns) == bits(op, os))
}

/// Solves `runs` with both solvers and returns the (checked-equal)
/// rates.
fn both(machine: &Machine, runs: &[ContainerRun], profile: Profile, seed: u64) -> Vec<f64> {
    let new = solved_new(machine, runs, profile, seed);
    let old = solved_old(machine, runs, profile, seed);
    assert!(
        same_bits(&new, &old),
        "solver diverged on {} (seed {seed}, {profile:?})\n runs: {runs:?}\n new: {new:?}\n old: {old:?}",
        machine.name(),
    );
    new.into_iter().map(|(perf, _)| perf.inst_per_sec).collect()
}

/// The important placements of `vcpus` on `machine`; empty when the
/// machine cannot host the size in a balanced way.
fn catalog(machine: &Machine, vcpus: usize) -> Vec<PlacementSpec> {
    let concerns = ConcernSet::for_machine(machine);
    important_placements(machine, &concerns, vcpus)
        .map(|ps| ps.into_iter().map(|p| p.spec).collect())
        .unwrap_or_default()
}

#[test]
fn solo_probes_match_on_every_machine_size_and_important_placement() {
    let suite = paper_suite();
    let mut cases = 0usize;
    for machine in fleet() {
        for vcpus in SIZES {
            for (pi, spec) in catalog(&machine, vcpus).iter().enumerate() {
                let assignment = assign_vcpus(&machine, spec).unwrap();
                for workload in suite.iter().skip(pi % 3).step_by(3) {
                    let run = ContainerRun {
                        workload,
                        assignment: &assignment,
                    };
                    for profile in PROFILES {
                        both(&machine, &[run], profile, cases as u64);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 1000, "the sweep shrank to {cases} cases");
}

/// The solver stops once an iteration leaves every rate's bits
/// unchanged; the reference always runs every iteration. Two 4-vCPU
/// containers on AMD node 0: `streamcluster` next to `canneal` reaches
/// its fixed point before the probe's 120 iterations, `blast` next to
/// `streamcluster` never does (the solver's unit tests pin which is
/// which). The probe's tail sums finished past the exit are compared
/// too; other tails, and longer measurements, are the unit tests'
/// (`engine::tests::off_profile_exits_match_the_reference`).
#[test]
fn fixed_point_exits_match_the_full_run() {
    let amd = machines::amd_opteron_6272();
    let spec = PlacementSpec::on_nodes(4, vec![NodeId(0)], 2);
    let mut occ = OccupancyMap::new(&amd);
    let first = assign_vcpus_in(&amd, &spec, &occ).unwrap();
    occ.reserve(&first).unwrap();
    let second = assign_vcpus_in(&amd, &spec, &occ).unwrap();
    let suite = paper_suite();
    let named = |name: &str| suite.iter().find(|w| w.name == name).unwrap();
    for (candidate, resident) in [("streamcluster", "canneal"), ("blast", "streamcluster")] {
        let runs = [
            ContainerRun {
                workload: named(candidate),
                assignment: &first,
            },
            ContainerRun {
                workload: named(resident),
                assignment: &second,
            },
        ];
        for profile in PROFILES {
            both(&amd, &runs, profile, 1);
            both(&amd, &runs[..1], profile, 1);
        }
    }
}

/// A host filled with 1–6 residents in catalog shapes plus a candidate
/// that still fits, drawn from `rng`.
struct Host {
    occ: OccupancyMap,
    /// Candidate first.
    containers: Vec<(Workload, Vec<ThreadId>)>,
}

fn fill_host(machine: &Machine, residents: usize, rng: &mut StdRng) -> Host {
    let suite = paper_suite();
    let mut occ = OccupancyMap::new(machine);
    let mut containers = Vec::new();
    // Residents first, the candidate into what is left; it leads the
    // container list the way the penalty probe orders its runs.
    let mut attempts = 0;
    while containers.len() < residents + 1 {
        attempts += 1;
        assert!(
            attempts < 500,
            "{} cannot host the scenario",
            machine.name()
        );
        // A catalog shape on a random node set of its size (the
        // representatives alone would pile onto the same few nodes).
        let specs = catalog(machine, [2, 4, 8][rng.random_range(0..3usize)]);
        let shape = &specs[rng.random_range(0..specs.len())];
        let mut nodes: Vec<NodeId> = (0..machine.num_nodes()).map(NodeId).collect();
        nodes.shuffle(rng);
        nodes.truncate(shape.num_nodes());
        let spec = PlacementSpec::new(
            shape.vcpus,
            nodes,
            shape.l3_groups_used,
            shape.l2_groups_used,
        );
        let Ok(threads) = assign_vcpus_in(machine, &spec, &occ) else {
            continue;
        };
        occ.reserve(&threads).unwrap();
        let workload = suite[rng.random_range(0..suite.len())].clone();
        containers.push((workload, threads));
    }
    let candidate = containers.pop().unwrap();
    occ.release(&candidate.1).unwrap();
    containers.insert(0, candidate);
    Host { occ, containers }
}

#[test]
fn joint_runs_match_with_real_residents() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for machine in fleet().iter().take(3) {
        for residents in 1..=6 {
            let host = fill_host(machine, residents, &mut rng);
            let runs: Vec<ContainerRun> = host
                .containers
                .iter()
                .map(|(workload, threads)| ContainerRun {
                    workload,
                    assignment: threads,
                })
                .collect();
            let held: usize = runs[1..].iter().map(|r| r.assignment.len()).sum();
            assert_eq!(held, host.occ.used_threads(), "the residents hold the occupancy");
            for profile in PROFILES {
                let joint = both(machine, &runs, profile, residents as u64);
                let solo = both(machine, &runs[..1], profile, residents as u64);
                // The probe's candidate-only path: the clamped ratio of
                // the same two solves. A penalty is defined under the
                // probe alone.
                if profile == Profile::Probe {
                    let ratio = joint[0] / solo[0];
                    assert_eq!(
                        simulate_candidate_penalty(machine, &runs[0], &runs[1..]).to_bits(),
                        ratio.clamp(f64::MIN_POSITIVE, 1.0).to_bits(),
                    );
                }
            }
        }
    }
}

/// A machine whose node 3 has no link at all: pairs involving it have
/// no route even machine-wide.
fn machine_with_an_island() -> Machine {
    MachineBuilder::new("island")
        .packages(4)
        .nodes_per_package(1)
        .l3_groups_per_node(1)
        .l2_groups_per_l3(2)
        .cores_per_l2(1)
        .threads_per_core(2)
        .link(0, 1, 6.4)
        .link(1, 2, 3.2)
        .build()
        .unwrap()
}

#[test]
fn corner_assignments_match() {
    let amd = machines::amd_opteron_6272();
    let suite = paper_suite();
    let ic = amd.interconnect();
    // A two-hop pair whose own node set holds no intermediate: the
    // all-nodes routing fallback is taken.
    let (a, b) = (0..amd.num_nodes())
        .flat_map(|a| (0..amd.num_nodes()).map(move |b| (NodeId(a), NodeId(b))))
        .find(|&(a, b)| ic.hops(a, b) == Some(2))
        .expect("the AMD machine has two-hop pairs");
    assert!(ic.route_within(a, b, &[a, b]).is_none());
    let (on_a, on_b) = (amd.threads_on_node(a), amd.threads_on_node(b));

    let island = machine_with_an_island();
    let ic = island.interconnect();
    assert_eq!(ic.hops(NodeId(0), NodeId(3)), None);
    let islanders = island.threads_on_node(NodeId(3));
    let mainland = island.threads_on_node(NodeId(0));

    let corners: Vec<(&Machine, Vec<Vec<ThreadId>>)> = vec![
        // One thread: no partners, `tc - 1 == 0` must stay unused.
        (&amd, vec![vec![on_a[0]]]),
        // One thread next to a two-thread container on the same L2.
        (&amd, vec![vec![on_a[0]], vec![on_a[1], on_b[0]]]),
        // Two-hop pair, uneven: three threads here, one there, listed
        // out of order.
        (&amd, vec![vec![on_b[2], on_a[0], on_a[3], on_a[1]]]),
        // The same node pair from two containers at once.
        (
            &amd,
            vec![vec![on_a[0], on_b[0]], vec![on_b[1], on_a[1], on_a[2]]],
        ),
        // An unreachable pair inside one container, and beside another.
        (&island, vec![vec![mainland[0], islanders[0], islanders[1]]]),
        (
            &island,
            vec![
                vec![islanders[2], mainland[1]],
                vec![mainland[0]],
                island.threads_on_node(NodeId(2)),
            ],
        ),
    ];
    for (machine, assignments) in &corners {
        for (wi, workload) in suite.iter().enumerate() {
            let runs: Vec<ContainerRun> = assignments
                .iter()
                .enumerate()
                .map(|(ci, assignment)| ContainerRun {
                    workload: if ci == 0 {
                        workload
                    } else {
                        &suite[(wi + ci) % suite.len()]
                    },
                    assignment,
                })
                .collect();
            for profile in PROFILES {
                both(machine, &runs, profile, wi as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pairwise-disjoint assignments nobody's catalog would
    /// produce: threads drawn without regard to nodes, caches or SMT
    /// siblings, container sizes from 1 up.
    #[test]
    fn random_non_canonical_assignments_match(
        seed in 0u64..1 << 48,
        which in 0usize..5,
        containers in 1usize..6,
    ) {
        let mut machines = fleet();
        machines.push(machine_with_an_island());
        let machine = &machines[which];
        let suite = paper_suite();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut free: Vec<ThreadId> = machine.threads().iter().map(|t| t.id).collect();
        free.shuffle(&mut rng);
        let mut picked: Vec<(usize, Vec<ThreadId>)> = Vec::new();
        for _ in 0..containers {
            let size = rng.random_range(1..10usize).min(free.len());
            if size == 0 {
                break;
            }
            picked.push((rng.random_range(0..suite.len()), free.split_off(free.len() - size)));
        }
        let runs: Vec<ContainerRun> = picked
            .iter()
            .map(|(w, assignment)| ContainerRun { workload: &suite[*w], assignment })
            .collect();
        let profile = PROFILES[(seed % 2) as usize];
        let new = solved_new(machine, &runs, profile, seed);
        let old = solved_old(machine, &runs, profile, seed);
        prop_assert!(
            same_bits(&new, &old),
            "solver diverged on {} for {:?}: {:?} vs {:?}", machine.name(), runs, new, old
        );
    }
}

/// What retargeting relies on: a class's orbit is the set of node sets
/// scoring like its representative, the engine commits any of them at
/// the representative's prediction, and the measurement-noise stream is
/// keyed by the concrete assignment — so before the noise, every member
/// must simulate exactly alike.
#[test]
fn placements_in_one_orbit_simulate_alike_with_noise_off() {
    let suite = paper_suite();
    for machine in [
        machines::amd_opteron_6272(),
        machines::intel_xeon_e7_4830_v3(),
    ] {
        let concerns = ConcernSet::for_machine(&machine);
        for vcpus in [8, 16] {
            let placements = important_placements(&machine, &concerns, vcpus).unwrap();
            let index = AvailabilityIndex::build(&machine, &concerns, &placements);
            for (ip, orbit) in placements.iter().zip(index.orbits()) {
                for workload in suite.iter().skip(ip.id % 6).step_by(6) {
                    let throughput = |nodes: &[NodeId]| {
                        let spec = PlacementSpec::new(
                            vcpus,
                            nodes.to_vec(),
                            ip.spec.l3_groups_used,
                            ip.spec.l2_groups_used,
                        );
                        let assignment = assign_vcpus(&machine, &spec).unwrap();
                        let run = ContainerRun {
                            workload,
                            assignment: &assignment,
                        };
                        both(&machine, &[run], Profile::Measure, 0)[0]
                    };
                    let representative = throughput(&ip.spec.nodes);
                    for nodes in &orbit.node_sets {
                        assert_eq!(
                            throughput(nodes).to_bits(),
                            representative.to_bits(),
                            "{} on {}: {nodes:?} vs representative {:?} of class {}",
                            workload.name,
                            machine.name(),
                            ip.spec.nodes,
                            ip.id,
                        );
                    }
                }
            }
        }
    }
}
