//! The CPI-stack fixed-point solver, [`rates`]: noise-free instruction
//! rates, a pure function of the machine, the runs and a [`Profile`].
//! Measurement noise is applied after it ([`simulate`]).

use vc_topology::{LatencyConfig, Machine, NodeId, ThreadId};
use vc_workloads::Workload;

use crate::noise::measure;

/// One container to simulate: a workload plus its concrete vCPU
/// assignment, both on loan from whoever keeps them (an oracle's
/// workload table, a catalog's assignments, a host's registry) — a
/// probe copies neither.
#[derive(Debug, Clone, Copy)]
pub struct ContainerRun<'a> {
    /// The workload descriptor.
    pub workload: &'a Workload,
    /// vCPU index → hardware thread.
    pub assignment: &'a [ThreadId],
}

/// How a solve is run. Each profile fixes every solver parameter, and
/// no caller sets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// An idle-machine measurement, a short fixed point reporting its
    /// final iteration: training, [`simulate`], the oracle's `perf` and
    /// [`crate::hpe::observe`].
    Measure,
    /// A contention probe ([`crate::colocation`]): a longer, more
    /// strongly damped fixed point whose rates are averaged over its
    /// last half. Heavily contended runs can ring (rate → utilisation →
    /// latency → rate), and a mid-oscillation sample would read as a
    /// speed-up; the Cesàro tail average is stable.
    Probe,
}

impl Profile {
    pub(crate) const fn params(self) -> Params {
        let (iterations, damping, tail) = match self {
            Profile::Measure => (30, 0.5, 0),
            Profile::Probe => (120, 0.3, 60),
        };
        Params {
            iterations,
            damping,
            tail,
        }
    }
}

/// The solver parameters a [`Profile`] fixes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    /// Fixed-point iterations, an upper bound ([`solve`]).
    pub(crate) iterations: usize,
    /// Damping factor for rate updates (0 = frozen, 1 = undamped).
    pub(crate) damping: f64,
    /// Rates averaged over the last `tail` iterations (`0`: the last).
    pub(crate) tail: usize,
}

/// Smooth miss-ratio curve: footprint `f` (MiB) over capacity `c` (MiB).
///
/// Near-zero misses while the footprint fits, ~34 % when it reaches
/// 1.35x the capacity, saturating towards 1 beyond that; plus a small
/// compulsory-miss floor.
pub fn miss_curve(footprint_mib: f64, capacity_mib: f64) -> f64 {
    miss_curve_at(MISS_ALPHA.powf(MISS_P), footprint_mib, capacity_mib)
}

const MISS_ALPHA: f64 = 1.35;
const MISS_P: f64 = 2.2;

/// [`miss_curve`] with `knee = MISS_ALPHA.powf(MISS_P)` supplied by
/// the caller, so a solve raises the constant once.
fn miss_curve_at(knee: f64, footprint_mib: f64, capacity_mib: f64) -> f64 {
    const FLOOR: f64 = 0.02;
    if capacity_mib <= 0.0 {
        return 1.0;
    }
    let x = (footprint_mib / capacity_mib).max(0.0);
    let xp = x.powf(MISS_P);
    FLOOR + (1.0 - FLOOR) * (xp / (xp + knee))
}

/// Queueing multiplier for a resource at utilisation `u` (fraction of
/// capacity). M/M/1-flavoured: negligible below ~60 %, steep past 90 %.
pub fn queue_multiplier(u: f64) -> f64 {
    let u = u.clamp(0.0, 0.97);
    1.0 + 1.5 * u * u / (1.0 - u)
}

/// Where one container's traffic between an ordered pair of its nodes
/// flows, and what the distance costs — everything about the pair that
/// depends on the assignment and not on the rates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodePair {
    /// Links crossed, a→x then x→b (`links[..len]`); `None` when the
    /// pair is unreachable even machine-wide, which loads nothing and
    /// queues like a saturated link.
    route: Option<([usize; 2], usize)>,
    /// Extra cycles of a remote DRAM access before link queueing: the
    /// first hop plus `remote_hop_cycles` per additional hop.
    remote_cost: f64,
    /// Extra cycles of a cross-node cache-line transfer for the hops
    /// beyond the first.
    extra_hop_cost: f64,
}

impl NodePair {
    /// The diagonal filler: never loaded, never read.
    const LOCAL: NodePair = NodePair {
        route: Some(([0; 2], 0)),
        remote_cost: 0.0,
        extra_hop_cost: 0.0,
    };

    /// Resolves the route a→b. Routing prefers links within
    /// `preferred` (cpuset-bound traffic stays inside the container's
    /// node set, consistent with the stream score) and falls back to
    /// machine-wide routing when no internal route exists.
    fn resolve(machine: &Machine, preferred: &[NodeId], a: NodeId, b: NodeId) -> NodePair {
        let ic = machine.interconnect();
        let lat = machine.latencies();
        let route = ic
            .route_within(a, b, preferred)
            .or_else(|| {
                let all: Vec<NodeId> = (0..machine.num_nodes()).map(NodeId).collect();
                ic.route_within(a, b, &all)
            })
            .map(|route| {
                let crossed = match route.via {
                    None => [ic.link_between(a, b), None],
                    Some(x) => [ic.link_between(a, x), ic.link_between(x, b)],
                };
                let mut links = [0; 2];
                let mut len = 0;
                for l in crossed.into_iter().flatten() {
                    links[len] = l;
                    len += 1;
                }
                (links, len)
            });
        let hops = ic.hops(a, b).unwrap_or(3) as f64;
        NodePair {
            route,
            remote_cost: lat.remote_hop_cycles + (hops - 1.0) * lat.remote_hop_cycles,
            extra_hop_cost: (hops - 1.0) * lat.remote_hop_cycles,
        }
    }

    /// Adds `bytes_per_sec` of traffic to every link on the route.
    #[inline]
    fn add_load(&self, bytes_per_sec: f64, link_load: &mut [f64]) {
        if let Some((links, len)) = self.route {
            for &l in &links[..len] {
                link_load[l] += bytes_per_sec;
            }
        }
    }

    /// Queueing multiplier of the most loaded link on the route.
    #[inline]
    pub(crate) fn queue_mult(&self, link_util: &[f64]) -> f64 {
        let Some((links, len)) = self.route else {
            return queue_multiplier(0.97);
        };
        let max_u = links[..len]
            .iter()
            .map(|&l| link_util[l])
            .fold(0.0f64, f64::max);
        queue_multiplier(max_u)
    }
}

/// The per-container constants of the fixed point.
pub(crate) struct ContainerPlan {
    /// First thread of the container in [`Plan::class_of`] (threads are
    /// laid out container by container, assignment order).
    thread_base: usize,
    /// Threads in the container.
    threads: usize,
    /// First of the container's `n` sorted, distinct nodes in
    /// [`Plan::node_idx`] / [`Plan::partner_frac`].
    pub(crate) node_base: usize,
    /// Number of distinct nodes the container spans.
    pub(crate) n: usize,
    /// Row-major `n × n` block of the container in [`Plan::pairs`].
    pub(crate) pair_base: usize,
    /// Share of memory traffic each of the `n` nodes serves.
    frac: f64,
    /// Communication events per instruction.
    comm_per_inst: f64,
    /// Whether threads have partners to exchange cache lines with.
    has_partners: bool,
    /// Whether communication stalls contribute to the CPI at all.
    has_comm: bool,
    /// Exposed fraction of memory stall latency.
    one_minus_mlp: f64,
    /// Exposed fraction of communication stall latency.
    comm_exposed: f64,
    /// Every thread's starting instruction rate.
    initial_rate: f64,
}

/// Threads of one container that the fixed point cannot tell apart:
/// same node, same cache footprints and sharing counts, same pipeline
/// sharing. They start at one rate and see one CPI every iteration, so
/// the latency update runs once per class.
pub(crate) struct ThreadClass {
    container: usize,
    /// Position of the class's node among the container's nodes.
    si: usize,
    /// Identity beyond (container, node): L2/L3 footprints, own-thread
    /// counts on the L2/L3, pipeline multiplier — everything the miss
    /// ratios and stall components are computed from.
    key: (u64, u64, usize, usize, u64),
    pub(crate) m2: f64,
    pub(crate) m3: f64,
    pub(crate) pipeline_mult: f64,
    /// L3 misses per instruction.
    miss_per_inst: f64,
    /// L2 misses per instruction.
    l2_miss_per_inst: f64,
    cpi_core: f64,
    /// Communication latency towards partners on the same L2 and L3.
    comm_lat_local: f64,
}

/// Everything [`rates`] derives from the assignment before the
/// first iteration. Nothing in here depends on a rate.
pub(crate) struct Plan {
    pub(crate) containers: Vec<ContainerPlan>,
    pub(crate) classes: Vec<ThreadClass>,
    /// Thread → class, container by container in assignment order: the
    /// order every load accumulates in.
    class_of: Vec<usize>,
    /// Node index of each (container, node position).
    pub(crate) node_idx: Vec<usize>,
    /// Fraction of a thread's partners on each (container, node
    /// position); unused for single-thread containers.
    partner_frac: Vec<f64>,
    pub(crate) pairs: Vec<NodePair>,
}

impl Plan {
    /// # Panics
    ///
    /// Panics if a thread is assigned twice or an assignment is empty.
    pub(crate) fn build(machine: &Machine, runs: &[ContainerRun]) -> Plan {
        let (n_l2, n_l3) = (machine.num_l2_groups(), machine.num_l3_groups());
        let total_threads: usize = runs.iter().map(|r| r.assignment.len()).sum();

        // Exclusivity, and the static occupancy counts: all threads per
        // L2 / core, and each container's threads per L2 / L3.
        let mut used = vec![false; machine.num_threads()];
        let mut threads_per_l2 = vec![0usize; n_l2];
        let mut per_core = vec![0usize; machine.num_cores()];
        let mut c_on_l2 = vec![0usize; runs.len() * n_l2];
        let mut c_on_l3 = vec![0usize; runs.len() * n_l3];
        for (ci, run) in runs.iter().enumerate() {
            assert!(!run.assignment.is_empty(), "empty assignment");
            for &t in run.assignment {
                assert!(
                    !used[t.index()],
                    "hardware thread {t} assigned to two vCPUs"
                );
                used[t.index()] = true;
                let info = machine.thread(t);
                threads_per_l2[info.l2_group.index()] += 1;
                per_core[info.core.index()] += 1;
                c_on_l2[ci * n_l2 + info.l2_group.index()] += 1;
                c_on_l3[ci * n_l3 + info.l3_group.index()] += 1;
            }
        }

        // Cache footprints.
        let mut f2 = vec![0.0f64; n_l2];
        let mut f3 = vec![0.0f64; n_l3];
        for (ci, run) in runs.iter().enumerate() {
            let w = run.workload;
            for g in 0..n_l2 {
                f2[g] += c_on_l2[ci * n_l2 + g] as f64 * w.ws_l2_mib;
            }
            for h in 0..n_l3 {
                let on = c_on_l3[ci * n_l3 + h];
                if on > 0 {
                    // Private sets add per thread; the shared set replicates
                    // per cache (uniform sharing touches all of it from every
                    // node).
                    f3[h] += on as f64 * w.ws_private_mib + w.ws_shared_mib;
                }
            }
        }

        let lat = machine.latencies();
        let caches = machine.caches();
        let clock_hz = machine.clock_ghz() * 1e9;
        let curve_knee = MISS_ALPHA.powf(MISS_P);
        let mut plan = Plan {
            containers: Vec::with_capacity(runs.len()),
            classes: Vec::new(),
            class_of: Vec::with_capacity(total_threads),
            node_idx: Vec::new(),
            partner_frac: Vec::new(),
            pairs: Vec::new(),
        };
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut on_node = vec![0usize; machine.num_nodes()];
        for (ci, run) in runs.iter().enumerate() {
            let w = run.workload;
            nodes.clear();
            nodes.extend(run.assignment.iter().map(|&t| machine.thread(t).node));
            for &node in &nodes {
                on_node[node.index()] += 1;
            }
            nodes.sort();
            nodes.dedup();
            let n = nodes.len();
            let tc = run.assignment.len() as f64;
            let has_partners = tc > 1.0;

            let node_base = plan.node_idx.len();
            for &node in &nodes {
                plan.node_idx.push(node.index());
                // Partner threads distributed over container nodes.
                let on = std::mem::take(&mut on_node[node.index()]);
                plan.partner_frac.push(if has_partners {
                    on as f64 / run.assignment.len() as f64 * tc / (tc - 1.0)
                } else {
                    0.0
                });
            }
            let pair_base = plan.pairs.len();
            for (si, &a) in nodes.iter().enumerate() {
                for (di, &b) in nodes.iter().enumerate() {
                    plan.pairs.push(if si == di {
                        NodePair::LOCAL
                    } else {
                        NodePair::resolve(machine, &nodes, a, b)
                    });
                }
            }

            let has_comm = has_partners && w.comm_per_kinst > 0.0;
            let first_class = plan.classes.len();
            for &t in run.assignment {
                let info = machine.thread(t);
                let (l2, l3) = (info.l2_group.index(), info.l3_group.index());
                let (k2, k3) = (c_on_l2[ci * n_l2 + l2], c_on_l3[ci * n_l3 + l3]);
                let smt_busy = per_core[info.core.index()] > 1;
                let module_busy = machine.cores_per_l2() > 1 && threads_per_l2[l2] > 1;
                let pipeline_mult = if smt_busy {
                    w.smt_pair_speedup / 2.0
                } else if module_busy {
                    w.cmt_pair_speedup / 2.0
                } else {
                    1.0
                };
                let si = nodes
                    .binary_search(&info.node)
                    .expect("the node list holds every thread's node");
                let key = (
                    f2[l2].to_bits(),
                    f3[l3].to_bits(),
                    k2,
                    k3,
                    pipeline_mult.to_bits(),
                );
                let known = plan.classes[first_class..]
                    .iter()
                    .position(|c| c.si == si && c.key == key);
                let class = first_class
                    + known.unwrap_or_else(|| {
                        // Cooperative sharing: co-located same-container
                        // threads prefetch the shared stream for each
                        // other, at both cache levels.
                        let raw2 = miss_curve_at(curve_knee, f2[l2], caches.l2_size_mib);
                        let m2 = raw2 * (1.0 - w.coop_prefetch * (1.0 - 1.0 / k2 as f64));
                        let raw3 = miss_curve_at(curve_knee, f3[l3], caches.l3_size_mib);
                        let m3 = raw3 * (1.0 - w.coop_prefetch * (1.0 - 1.0 / k3 as f64));
                        let l2_miss_per_inst = (w.mem_per_kinst / 1000.0) * m2;
                        // Communication latency by partner location.
                        let comm_lat_local = if has_comm {
                            let same_l2 = (k2 as f64 - 1.0).max(0.0) / (tc - 1.0);
                            let same_l3 = ((k3 - k2) as f64).max(0.0) / (tc - 1.0);
                            same_l2 * (lat.l2_cycles + 8.0) + same_l3 * lat.c2c_l3_cycles
                        } else {
                            0.0
                        };
                        plan.classes.push(ThreadClass {
                            container: ci,
                            si,
                            key,
                            m2,
                            m3,
                            pipeline_mult,
                            miss_per_inst: l2_miss_per_inst * m3,
                            l2_miss_per_inst,
                            cpi_core: 1.0 / (w.ipc_base * pipeline_mult),
                            comm_lat_local,
                        });
                        plan.classes.len() - 1 - first_class
                    });
                plan.class_of.push(class);
            }

            plan.containers.push(ContainerPlan {
                thread_base: plan.class_of.len() - run.assignment.len(),
                threads: run.assignment.len(),
                node_base,
                n,
                pair_base,
                frac: 1.0 / n as f64,
                comm_per_inst: w.comm_per_kinst / 1000.0,
                has_partners,
                has_comm,
                one_minus_mlp: 1.0 - w.mlp,
                comm_exposed: 1.0 - 0.3 * w.mlp,
                initial_rate: clock_hz * w.ipc_base * 0.5,
            });
        }
        plan
    }

    /// The class of each thread of container `c`, in assignment order.
    pub(crate) fn thread_classes(&self, c: &ContainerPlan) -> &[usize] {
        &self.class_of[c.thread_base..c.thread_base + c.threads]
    }

    /// Each container's rate, the sum of its threads' class `rate`s.
    pub(crate) fn container_rates(&self, rate: &[f64]) -> Vec<f64> {
        let sum = |c| self.thread_classes(c).iter().map(|&k| rate[k]).sum();
        self.containers.iter().map(sum).collect()
    }

    /// `cl`'s `(core, memory, communication)` CPI components at the
    /// queueing multipliers `q_dram` (per node) and `q_link` (per pair).
    #[inline]
    pub(crate) fn cpi_parts(
        &self,
        cl: &ThreadClass,
        lat: &LatencyConfig,
        q_dram: &[f64],
        q_link: &[f64],
    ) -> (f64, f64, f64) {
        let c = &self.containers[cl.container];
        let dests = &self.node_idx[c.node_base..c.node_base + c.n];
        let row = c.pair_base + cl.si * c.n;
        let mut dram_lat = 0.0;
        for (di, &dest) in dests.iter().enumerate() {
            let mut access = lat.dram_cycles * q_dram[dest];
            if di != cl.si {
                access += self.pairs[row + di].remote_cost * q_link[row + di];
            }
            dram_lat += c.frac * access;
        }
        let mem_stall_per_l2_miss = lat.l3_cycles + cl.m3 * dram_lat;
        let cpi_mem = cl.l2_miss_per_inst * mem_stall_per_l2_miss * c.one_minus_mlp;

        let cpi_comm = if c.has_comm {
            let partner_frac = &self.partner_frac[c.node_base..c.node_base + c.n];
            let mut comm_lat = cl.comm_lat_local;
            for di in (0..c.n).filter(|&di| di != cl.si) {
                let q = q_link[row + di];
                // The base cross-node transfer cost covers the first
                // hop; extra hops and loaded links add on top.
                comm_lat += partner_frac[di]
                    * (lat.c2c_remote_cycles * q + self.pairs[row + di].extra_hop_cost * q);
            }
            c.comm_per_inst * comm_lat * c.comm_exposed
        } else {
            0.0
        };
        (cl.cpi_core, cpi_mem, cpi_comm)
    }
}

/// What the fixed point settles on.
pub(crate) struct Solution {
    /// Instruction rate per thread class.
    pub(crate) rate: Vec<f64>,
    /// Iterations run: fewer than [`Params::iterations`] when the rates
    /// reached a bitwise fixed point. Only the unit tests read it.
    #[cfg_attr(not(test), allow(dead_code))]
    iterations: usize,
}

/// Per-node DRAM and per-link utilisations: the solve's own load
/// buffers, holding its last iteration's when it returns.
pub(crate) struct Utilisation {
    pub(crate) dram: Vec<f64>,
    pub(crate) link: Vec<f64>,
}

/// Runs the damped fixed point on instruction rates over `plan`.
///
/// Each iteration turns rates into DRAM and link loads, loads into
/// queueing delays, and delays into new rates. Loads accumulate thread
/// by thread, destination by destination, memory before communication —
/// the float sums depend on that order — while the latency update runs
/// once per [`ThreadClass`].
///
/// [`Params::iterations`] is an upper bound, and stopping short of it
/// is exact. The loads, utilisations, CPI parts and new rates of an
/// iteration are pure functions of the rates it starts from, so once an
/// iteration leaves every rate's bits unchanged, each later one would
/// repeat it bit for bit. The solve stops there and finishes the
/// Cesàro tail with one `acc += r` per tail iteration left — the very
/// additions those iterations would make, in their order; a product
/// would round differently.
pub(crate) fn solve(machine: &Machine, plan: &Plan, params: Params) -> (Solution, Utilisation) {
    let lat = machine.latencies();
    let clock_hz = machine.clock_ghz() * 1e9;
    let dram_cap: Vec<f64> = machine
        .nodes()
        .iter()
        .map(|n| n.dram_bw_gbs * 1e9)
        .collect();
    let link_cap: Vec<f64> = machine
        .interconnect()
        .links()
        .iter()
        .map(|l| l.bandwidth_gbs * 1e9)
        .collect();
    let classes = &plan.classes;

    let mut rate: Vec<f64> = classes
        .iter()
        .map(|cl| plan.containers[cl.container].initial_rate)
        .collect();
    // Loads, divided into utilisations in place once summed.
    let mut util = Utilisation {
        dram: vec![0.0f64; dram_cap.len()],
        link: vec![0.0f64; link_cap.len()],
    };
    let mut q_dram = vec![0.0f64; dram_cap.len()];
    let mut q_link = vec![0.0f64; plan.pairs.len()];
    // Per class: memory bytes/s towards each of its container's nodes,
    // and communication bytes/s in total.
    let mut mem_share = vec![0.0f64; classes.len()];
    let mut comm_bytes = vec![0.0f64; classes.len()];
    // Cesàro tail: mean rate over the last `params.tail` iterations;
    // empty when disabled.
    let tail = params.tail.min(params.iterations);
    let mut rate_tail = vec![0.0f64; if tail > 0 { classes.len() } else { 0 }];

    let mut iterations = params.iterations;
    for it in 0..params.iterations {
        // Demands.
        for (k, cl) in classes.iter().enumerate() {
            let c = &plan.containers[cl.container];
            mem_share[k] = rate[k] * cl.miss_per_inst * 64.0 * c.frac;
            // Communication traffic also crosses the interconnect.
            comm_bytes[k] = rate[k] * c.comm_per_inst * 64.0;
        }
        util.dram.fill(0.0);
        util.link.fill(0.0);
        for &k in &plan.class_of {
            let cl = &classes[k];
            let c = &plan.containers[cl.container];
            let dests = &plan.node_idx[c.node_base..c.node_base + c.n];
            let row = &plan.pairs[c.pair_base + cl.si * c.n..][..c.n];
            for (di, &dest) in dests.iter().enumerate() {
                util.dram[dest] += mem_share[k];
                if di != cl.si {
                    row[di].add_load(mem_share[k], &mut util.link);
                }
            }
            if c.has_partners {
                let partner_frac = &plan.partner_frac[c.node_base..c.node_base + c.n];
                for di in (0..c.n).filter(|&di| di != cl.si) {
                    row[di].add_load(comm_bytes[k] * partner_frac[di], &mut util.link);
                }
            }
        }
        for ((u, cap), q) in util.dram.iter_mut().zip(&dram_cap).zip(&mut q_dram) {
            *u /= cap;
            *q = queue_multiplier(*u);
        }
        for (u, cap) in util.link.iter_mut().zip(&link_cap) {
            *u /= cap;
        }
        for (q, pair) in q_link.iter_mut().zip(&plan.pairs) {
            *q = pair.queue_mult(&util.link);
        }

        // Latencies and new rates.
        let mut moved = false;
        for (k, cl) in classes.iter().enumerate() {
            let (cpi_core, cpi_mem, cpi_comm) = plan.cpi_parts(cl, &lat, &q_dram, &q_link);
            let cpi = cpi_core + cpi_mem + cpi_comm;
            let new_rate = clock_hz / cpi;
            let next = (1.0 - params.damping) * rate[k] + params.damping * new_rate;
            moved |= next.to_bits() != rate[k].to_bits();
            rate[k] = next;
        }
        // At a fixed point this iteration stands for every one left.
        let stands_for = if moved {
            it..it + 1
        } else {
            it..params.iterations
        };
        for _ in stands_for.filter(|&i| params.iterations - i <= tail) {
            for (acc, &r) in rate_tail.iter_mut().zip(&rate) {
                *acc += r;
            }
        }
        if !moved {
            iterations = it + 1;
            break;
        }
    }
    if tail > 0 {
        for (r, acc) in rate.iter_mut().zip(&rate_tail) {
            *r = acc / tail as f64;
        }
    }
    (Solution { rate, iterations }, util)
}

/// Simulates one or more containers sharing a machine under `profile`
/// and returns each container's steady-state instruction rate
/// (instructions per second), in input order: noise-free, a pure
/// function of its arguments.
///
/// The work splits into what depends on the assignment — thread
/// fractions, routes, hop costs, miss ratios, thread classes — built
/// once up front, and what depends on the rates — the fixed point
/// itself, which then allocates nothing. The result is equal to the
/// last bit to the per-thread solver kept as the oracle under
/// `tests/support/reference.rs` (`tests/solver_equivalence.rs`).
///
/// # Panics
///
/// Panics if an assignment references a thread twice across all
/// containers (hardware threads host at most one vCPU, §1) or is empty.
pub fn rates(machine: &Machine, runs: &[ContainerRun], profile: Profile) -> Vec<f64> {
    let plan = Plan::build(machine, runs);
    let rate = solve(machine, &plan, profile.params()).0.rate;
    plan.container_rates(&rate)
}

/// Runs `runs` together under [`Profile::Measure`] and measures each,
/// in input order, with seed `seed`'s noise in its workload's online
/// metric (ops/s, or mean per-thread IPC).
///
/// # Panics
///
/// As [`rates`].
pub fn simulate(machine: &Machine, runs: &[ContainerRun], seed: u64) -> Vec<f64> {
    let mut measured = rates(machine, runs, Profile::Measure);
    for (value, run) in measured.iter_mut().zip(runs) {
        *value = measure(machine, run, *value, seed);
    }
    measured
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpe::ContainerState;
    use crate::noise::PERF_NOISE;
    use crate::reference::{self, Perf};
    use vc_core::assign::{assign_vcpus, assign_vcpus_in};
    use vc_core::placement::PlacementSpec;
    use vc_topology::{machines, OccupancyMap};
    use vc_workloads::suite::workload_by_name;

    const MEASURE: Params = Profile::Measure.params();
    const PROBE: Params = Profile::Probe.params();

    /// The noise-free rate of `w` alone in `spec` on `machine`.
    fn run_on(machine: &Machine, w: &str, spec: &PlacementSpec) -> f64 {
        let workload = workload_by_name(w).unwrap();
        let assignment = assign_vcpus(machine, spec).unwrap();
        let run = ContainerRun {
            workload: &workload,
            assignment: &assignment,
        };
        rates(machine, &[run], Profile::Measure)[0]
    }

    #[test]
    fn miss_curve_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for i in 0..100 {
            let m = miss_curve(i as f64, 10.0);
            assert!((0.0..=1.0).contains(&m));
            assert!(m >= prev);
            prev = m;
        }
        assert!(miss_curve(1.0, 10.0) < 0.1);
        assert!(miss_curve(100.0, 10.0) > 0.9);
    }

    #[test]
    fn queue_multiplier_grows_superlinearly() {
        assert!(queue_multiplier(0.1) < 1.05);
        assert!(queue_multiplier(0.9) > 2.0);
        assert!(queue_multiplier(0.99) > queue_multiplier(0.9));
    }

    #[test]
    fn cpu_bound_workload_is_placement_insensitive() {
        let amd = machines::amd_opteron_6272();
        let a = run_on(
            &amd,
            "swaptions",
            &PlacementSpec::on_nodes(16, vec![NodeId(0), NodeId(1)], 8),
        );
        let b = run_on(
            &amd,
            "swaptions",
            &PlacementSpec::on_nodes(16, (0..8).map(NodeId).collect(), 16),
        );
        // Module sharing costs a little; beyond that, nearly flat.
        let ratio = b / a;
        assert!((0.9..=1.35).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn bandwidth_bound_workload_wants_more_nodes() {
        let amd = machines::amd_opteron_6272();
        let two = run_on(
            &amd,
            "streamcluster",
            &PlacementSpec::on_nodes(16, vec![NodeId(0), NodeId(1)], 8),
        );
        let eight = run_on(
            &amd,
            "streamcluster",
            &PlacementSpec::on_nodes(16, (0..8).map(NodeId).collect(), 16),
        );
        assert!(eight > 1.5 * two, "8-node {eight} vs 2-node {two}");
    }

    #[test]
    fn communication_bound_workload_prefers_one_node_on_intel() {
        let intel = machines::intel_xeon_e7_4830_v3();
        let one = run_on(
            &intel,
            "WTbtree",
            &PlacementSpec::on_nodes(24, vec![NodeId(0)], 12),
        );
        let four = run_on(
            &intel,
            "WTbtree",
            &PlacementSpec::on_nodes(24, (0..4).map(NodeId).collect(), 24),
        );
        assert!(one > four, "1-node {one} vs 4-node {four}");
    }

    #[test]
    fn two_containers_on_same_nodes_interfere() {
        // Two 8-vCPU streamcluster instances squeezed onto the same two
        // nodes must each run much slower than one instance alone.
        let amd = machines::amd_opteron_6272();
        let w = workload_by_name("streamcluster").unwrap();
        let spec = PlacementSpec::on_nodes(8, vec![NodeId(0), NodeId(1)], 4);
        let solo_assign = assign_vcpus(&amd, &spec).unwrap();
        let solo = rates(
            &amd,
            &[ContainerRun {
                workload: &w,
                assignment: &solo_assign,
            }],
            Profile::Measure,
        );
        // Second instance on the remaining threads of the same two nodes.
        let mut taken: Vec<bool> = vec![false; amd.num_threads()];
        for &t in &solo_assign {
            taken[t.index()] = true;
        }
        let free: Vec<ThreadId> = amd
            .threads()
            .iter()
            .filter(|t| !taken[t.id.index()] && t.node.index() <= 1)
            .map(|t| t.id)
            .take(8)
            .collect();
        assert_eq!(free.len(), 8);
        let both = rates(
            &amd,
            &[
                ContainerRun {
                    workload: &w,
                    assignment: &solo_assign,
                },
                ContainerRun {
                    workload: &w,
                    assignment: &free,
                },
            ],
            Profile::Measure,
        );
        assert!(
            both[0] < 0.8 * solo[0],
            "no interference: {} vs {}",
            both[0],
            solo[0]
        );
    }

    #[test]
    fn kmeans_gains_from_module_sharing_on_amd() {
        let amd = machines::amd_opteron_6272();
        // Same 4 nodes; 8 modules shared vs 16 modules exclusive. For the
        // SMT-loving kmeans, sharing should not be the disaster it is for
        // others — compare against ft.C which hates module sharing.
        let nodes: Vec<NodeId> = vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
        let k_share = run_on(
            &amd,
            "kmeans",
            &PlacementSpec::on_nodes(16, nodes.clone(), 8),
        );
        let k_excl = run_on(
            &amd,
            "kmeans",
            &PlacementSpec::on_nodes(16, nodes.clone(), 16),
        );
        let f_share = run_on(&amd, "ft.C", &PlacementSpec::on_nodes(16, nodes.clone(), 8));
        let f_excl = run_on(&amd, "ft.C", &PlacementSpec::on_nodes(16, nodes, 16));
        let k_ratio = k_share / k_excl;
        let f_ratio = f_share / f_excl;
        assert!(k_ratio > f_ratio, "kmeans {k_ratio} vs ft.C {f_ratio}");
    }

    #[test]
    fn results_are_deterministic() {
        let amd = machines::amd_opteron_6272();
        let spec = PlacementSpec::on_nodes(16, vec![NodeId(0), NodeId(1)], 8);
        let a = run_on(&amd, "blast", &spec);
        let b = run_on(&amd, "blast", &spec);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    #[should_panic(expected = "assigned to two vCPUs")]
    fn double_assignment_panics() {
        let amd = machines::amd_opteron_6272();
        let w = workload_by_name("gcc").unwrap();
        rates(
            &amd,
            &[ContainerRun {
                workload: &w,
                assignment: &[ThreadId(0), ThreadId(0)],
            }],
            Profile::Measure,
        );
    }

    /// Two 4-vCPU containers' threads on AMD node 0, the second placed
    /// after the first.
    fn node0_pair(amd: &Machine) -> (Vec<ThreadId>, Vec<ThreadId>) {
        let spec = PlacementSpec::on_nodes(4, vec![NodeId(0)], 2);
        let mut occ = OccupancyMap::new(amd);
        let first = assign_vcpus_in(amd, &spec, &occ).unwrap();
        occ.reserve(&first).unwrap();
        let second = assign_vcpus_in(amd, &spec, &occ).unwrap();
        (first, second)
    }

    /// Iterations the solve of `runs` under `params` runs.
    fn iterations_of(machine: &Machine, runs: &[ContainerRun], params: Params) -> usize {
        solve(machine, &Plan::build(machine, runs), params)
            .0
            .iterations
    }

    /// Iterations the solve of `candidate` next to `resident` runs, the
    /// two on 4 vCPUs each of AMD node 0.
    fn iterations_next_to(candidate: &str, resident: &str, params: Params) -> usize {
        let amd = machines::amd_opteron_6272();
        let (first, second) = node0_pair(&amd);
        let (candidate, resident) = (
            workload_by_name(candidate).unwrap(),
            workload_by_name(resident).unwrap(),
        );
        let runs = [
            ContainerRun {
                workload: &candidate,
                assignment: &first,
            },
            ContainerRun {
                workload: &resident,
                assignment: &second,
            },
        ];
        iterations_of(&amd, &runs, params)
    }

    #[test]
    fn a_probe_that_settles_stops_at_its_fixed_point() {
        let run = iterations_next_to("streamcluster", "canneal", PROBE);
        assert!(run < PROBE.iterations, "ran all {run} iterations");
    }

    /// A solo measurement that `solver_equivalence`'s solo sweep runs
    /// (`blast` in an important placement of 8 vCPUs on AMD) settles
    /// early: so the sweep compares the exit, and not only full runs, on
    /// the profile training solves under.
    #[test]
    fn a_measurement_that_settles_stops_at_its_fixed_point() {
        let amd = machines::amd_opteron_6272();
        let spec = PlacementSpec::new(8, vec![NodeId(0), NodeId(1)], 2, 4);
        let assignment = assign_vcpus(&amd, &spec).unwrap();
        let workload = workload_by_name("blast").unwrap();
        let run = ContainerRun {
            workload: &workload,
            assignment: &assignment,
        };
        let ran = iterations_of(&amd, &[run], MEASURE);
        assert!(ran < MEASURE.iterations, "ran all {ran} iterations");
    }

    #[test]
    fn a_probe_that_never_repeats_runs_every_iteration() {
        for params in [
            MEASURE,
            PROBE,
            Params {
                iterations: 3000,
                ..PROBE
            },
        ] {
            assert_eq!(
                iterations_next_to("blast", "streamcluster", params),
                params.iterations
            );
        }
    }

    /// Every rate, IPC, measured metric and state mean of `runs` solved
    /// under `params` and measured with seed `seed`, as the crate
    /// computes them.
    fn solved(
        machine: &Machine,
        runs: &[ContainerRun],
        params: Params,
        seed: u64,
    ) -> Vec<(Perf, ContainerState)> {
        let clock_hz = machine.clock_ghz() * 1e9;
        let plan = Plan::build(machine, runs);
        plan.container_rates(&solve(machine, &plan, params).0.rate)
            .into_iter()
            .zip(runs)
            .map(|(rate, run)| Perf {
                inst_per_sec: rate,
                ipc: rate / run.assignment.len() as f64 / clock_hz,
                metric_value: measure(machine, run, rate, seed),
            })
            .zip(
                crate::hpe::solved(machine, runs, params)
                    .into_iter()
                    .map(|(_, s)| s),
            )
            .collect()
    }

    /// The cases of `tests/solver_equivalence.rs`'s
    /// `fixed_point_exits_match_the_full_run` that neither profile
    /// reaches: tails from one iteration to the whole run, and a
    /// measurement four hundred iterations long, each against the
    /// reference on the same parameters, every field to the last bit.
    /// `streamcluster` next to `canneal` settles early, `blast` next to
    /// `streamcluster` never does, and each candidate runs alone too.
    #[test]
    fn off_profile_exits_match_the_reference() {
        let amd = machines::amd_opteron_6272();
        let (first, second) = node0_pair(&amd);
        let mut cases: Vec<Params> = [1, 7, 120].map(|tail| Params { tail, ..PROBE }).to_vec();
        cases.push(Params {
            iterations: 400,
            ..MEASURE
        });
        for (candidate, resident) in [("streamcluster", "canneal"), ("blast", "streamcluster")] {
            let (candidate, resident) = (
                workload_by_name(candidate).unwrap(),
                workload_by_name(resident).unwrap(),
            );
            let runs = [
                ContainerRun {
                    workload: &candidate,
                    assignment: &first,
                },
                ContainerRun {
                    workload: &resident,
                    assignment: &second,
                },
            ];
            for &params in &cases {
                let config = reference::Config {
                    iterations: params.iterations,
                    damping: params.damping,
                    perf_noise: PERF_NOISE,
                    tail_average: params.tail,
                };
                for runs in [&runs[..], &runs[..1]] {
                    let new = solved(&amd, runs, params, 1);
                    let old = reference::simulate(&amd, runs, &config, 1);
                    assert_eq!(new.len(), old.len());
                    for ((np, ns), (op, os)) in new.iter().zip(&old) {
                        assert_eq!(
                            reference::bits(np, ns),
                            reference::bits(op, os),
                            "{params:?}\n new: {np:?} {ns:?}\n old: {op:?} {os:?}"
                        );
                    }
                }
            }
        }
    }
}
