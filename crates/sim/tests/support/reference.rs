//! The solver oracle: the per-thread CPI-stack fixed point exactly as
//! `vc_sim::engine::simulate` computed it before the plan/solve split —
//! every thread × destination re-derives its thread fractions, routes
//! and hop counts inside the loop, and every iteration allocates its
//! load vectors. Nothing here is shared with the production solver
//! (the miss curve and the queueing multiplier are copied too), so the
//! equivalence suite compares two independent computations; the
//! measurement noise is copied as well. `tests/solver_equivalence.rs`
//! includes it with `#[path = "support/reference.rs"] mod reference;`,
//! and the crate's unit tests include it from `src/lib.rs`, to run it on
//! parameters no [`vc_sim::Profile`] has.
//!
//! The body is the old one verbatim; the only edits are that
//! [`ContainerRun`] now lends its workload and assignment instead of
//! owning them, that each container's state means come back beside its
//! rates instead of inside them, that the parameters come in a
//! [`Config`] of its own, and that the rate it reports is the one before
//! the measurement noise (the noise shows in the metric).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vc_sim::engine::ContainerRun;
use vc_sim::hpe::ContainerState;
use vc_topology::{Machine, NodeId, ThreadId};
use vc_workloads::Metric;

/// The solver parameters and the measurement noise the reference runs
/// with.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Fixed-point iterations, all of them run.
    pub iterations: usize,
    /// Damping factor for rate updates (0 = frozen, 1 = undamped).
    pub damping: f64,
    /// Relative measurement noise on reported performance.
    pub perf_noise: f64,
    /// Report rates averaged over the last `tail_average` iterations
    /// instead of the final iteration alone (`0` = final iteration).
    pub tail_average: usize,
}

/// One container's performance.
#[derive(Debug, Clone, Copy)]
pub struct Perf {
    /// Aggregate instruction throughput (instructions per second),
    /// before the measurement noise.
    pub inst_per_sec: f64,
    /// Mean per-thread IPC.
    pub ipc: f64,
    /// The workload's online metric, measured with noise: ops/s for
    /// [`Metric::OpsPerSecond`], aggregate IPC otherwise.
    pub metric_value: f64,
}

/// Every value an equivalence test compares, as bits: a container's
/// three performance figures and its ten state means.
pub fn bits(p: &Perf, s: &ContainerState) -> [u64; 13] {
    [
        p.inst_per_sec,
        p.ipc,
        p.metric_value,
        s.l2_miss_ratio,
        s.l3_miss_ratio,
        s.remote_fraction,
        s.dram_utilisation,
        s.link_utilisation,
        s.comm_latency_cycles,
        s.pipeline_mult,
        s.cpi_core,
        s.cpi_mem,
        s.cpi_comm,
    ]
    .map(f64::to_bits)
}

/// Builds a seeded RNG from a workload name, an assignment and a run
/// seed. Identical inputs always produce the identical RNG.
fn measurement_rng(workload: &str, assignment: &[ThreadId], seed: u64, stream: u64) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in workload.bytes() {
        mix(b as u64);
    }
    for t in assignment {
        mix(t.index() as u64 + 0x9e37);
    }
    mix(seed);
    mix(stream);
    StdRng::seed_from_u64(h)
}

/// A multiplicative noise factor around 1.0 with relative spread `sigma`
/// (uniform in `[1-sigma, 1+sigma]`).
fn noise_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    1.0 + rng.random_range(-sigma..sigma)
}

/// Smooth miss-ratio curve: footprint `f` (MiB) over capacity `c` (MiB).
///
/// Near-zero misses while the footprint fits, ~34 % when it reaches
/// 1.35x the capacity, saturating towards 1 beyond that; plus a small
/// compulsory-miss floor.
pub fn miss_curve(footprint_mib: f64, capacity_mib: f64) -> f64 {
    const ALPHA: f64 = 1.35;
    const P: f64 = 2.2;
    const FLOOR: f64 = 0.02;
    if capacity_mib <= 0.0 {
        return 1.0;
    }
    let x = (footprint_mib / capacity_mib).max(0.0);
    let xp = x.powf(P);
    let ap = ALPHA.powf(P);
    FLOOR + (1.0 - FLOOR) * (xp / (xp + ap))
}

/// Queueing multiplier for a resource at utilisation `u` (fraction of
/// capacity). M/M/1-flavoured: negligible below ~60 %, steep past 90 %.
pub fn queue_multiplier(u: f64) -> f64 {
    let u = u.clamp(0.0, 0.97);
    1.0 + 1.5 * u * u / (1.0 - u)
}

struct ThreadCtx {
    container: usize,
    node: NodeId,
    l2: usize,
    l3: usize,
    core: usize,
}

/// Simulates one or more containers sharing a machine and returns each
/// one's steady-state performance and state means, in input order.
///
/// # Panics
///
/// Panics if an assignment references a thread twice across all
/// containers (hardware threads host at most one vCPU, §1) or is empty.
pub fn simulate(
    machine: &Machine,
    runs: &[ContainerRun],
    cfg: &Config,
    seed: u64,
) -> Vec<(Perf, ContainerState)> {
    // Build thread contexts and check exclusivity.
    let mut used = vec![false; machine.num_threads()];
    let mut threads: Vec<ThreadCtx> = Vec::new();
    for (ci, run) in runs.iter().enumerate() {
        assert!(!run.assignment.is_empty(), "empty assignment");
        for &t in run.assignment {
            assert!(
                !used[t.index()],
                "hardware thread {t} assigned to two vCPUs"
            );
            used[t.index()] = true;
            let info = machine.thread(t);
            threads.push(ThreadCtx {
                container: ci,
                node: info.node,
                l2: info.l2_group.index(),
                l3: info.l3_group.index(),
                core: info.core.index(),
            });
        }
    }

    // Container-level info.
    let nodes_of: Vec<Vec<NodeId>> = runs
        .iter()
        .map(|r| {
            let mut v: Vec<NodeId> = r
                .assignment
                .iter()
                .map(|&t| machine.thread(t).node)
                .collect();
            v.sort();
            v.dedup();
            v
        })
        .collect();

    // Static occupancy counts.
    let mut threads_per_l2 = vec![0usize; machine.num_l2_groups()];
    let mut per_core = vec![0usize; machine.num_cores()];
    // (container, l2/l3/node) counts.
    let mut c_on_l2 = vec![vec![0usize; machine.num_l2_groups()]; runs.len()];
    let mut c_on_l3 = vec![vec![0usize; machine.num_l3_groups()]; runs.len()];
    for t in &threads {
        threads_per_l2[t.l2] += 1;
        per_core[t.core] += 1;
        c_on_l2[t.container][t.l2] += 1;
        c_on_l3[t.container][t.l3] += 1;
    }

    // Cache footprints (static given assignments).
    let mut f2 = vec![0.0f64; machine.num_l2_groups()];
    let mut f3 = vec![0.0f64; machine.num_l3_groups()];
    for (ci, run) in runs.iter().enumerate() {
        let w = &run.workload;
        for g in 0..machine.num_l2_groups() {
            f2[g] += c_on_l2[ci][g] as f64 * w.ws_l2_mib;
        }
        for h in 0..machine.num_l3_groups() {
            if c_on_l3[ci][h] > 0 {
                // Private sets add per thread; the shared set replicates
                // per cache (uniform sharing touches all of it from every
                // node).
                f3[h] += c_on_l3[ci][h] as f64 * w.ws_private_mib + w.ws_shared_mib;
            }
        }
    }

    // Pipeline sharing multipliers (static).
    let pipeline_mult: Vec<f64> = threads
        .iter()
        .map(|t| {
            let w = &runs[t.container].workload;
            let smt_busy = per_core[t.core] > 1;
            let module_busy = machine.cores_per_l2() > 1 && threads_per_l2[t.l2] > 1;
            if smt_busy {
                w.smt_pair_speedup / 2.0
            } else if module_busy {
                w.cmt_pair_speedup / 2.0
            } else {
                1.0
            }
        })
        .collect();

    // Per-thread miss ratios (static).
    let lat = machine.latencies();
    let caches = machine.caches();
    let mut m2 = vec![0.0f64; threads.len()];
    let mut m3 = vec![0.0f64; threads.len()];
    for (i, t) in threads.iter().enumerate() {
        let w = &runs[t.container].workload;
        let raw2 = miss_curve(f2[t.l2], caches.l2_size_mib);
        // Cooperative sharing: co-located same-container threads prefetch
        // the shared stream for each other, at both cache levels.
        let k2 = c_on_l2[t.container][t.l2] as f64;
        m2[i] = raw2 * (1.0 - w.coop_prefetch * (1.0 - 1.0 / k2));
        let raw = miss_curve(f3[t.l3], caches.l3_size_mib);
        let k = c_on_l3[t.container][t.l3] as f64;
        m3[i] = raw * (1.0 - w.coop_prefetch * (1.0 - 1.0 / k));
    }

    // Fixed-point on instruction rates.
    let clock_hz = machine.clock_ghz() * 1e9;
    let mut rate: Vec<f64> = threads
        .iter()
        .map(|t| clock_hz * runs[t.container].workload.ipc_base * 0.5)
        .collect();
    let mut cpi_parts = vec![(0.0f64, 0.0f64, 0.0f64); threads.len()];
    let mut dram_util = vec![0.0f64; machine.num_nodes()];
    let mut link_util = vec![0.0f64; machine.interconnect().links().len()];
    // Cesàro tail: mean rate over the last `tail_average` iterations
    // (see [`Config::tail_average`]); empty when disabled.
    let tail = cfg.tail_average.min(cfg.iterations);
    let mut rate_tail = vec![0.0f64; if tail > 0 { threads.len() } else { 0 }];

    for it in 0..cfg.iterations {
        // Demands.
        let mut dram_load = vec![0.0f64; machine.num_nodes()];
        let mut link_load = vec![0.0f64; machine.interconnect().links().len()];
        for (i, t) in threads.iter().enumerate() {
            let w = &runs[t.container].workload;
            let miss_per_inst = (w.mem_per_kinst / 1000.0) * m2[i] * m3[i];
            let bytes_per_sec = rate[i] * miss_per_inst * 64.0;
            let targets = &nodes_of[t.container];
            let frac = 1.0 / targets.len() as f64;
            for &dest in targets {
                dram_load[dest.index()] += bytes_per_sec * frac;
                if dest != t.node {
                    add_route_load(
                        machine,
                        &nodes_of[t.container],
                        t.node,
                        dest,
                        bytes_per_sec * frac,
                        &mut link_load,
                    );
                }
            }
            // Communication traffic also crosses the interconnect.
            let comm_bytes = rate[i] * (w.comm_per_kinst / 1000.0) * 64.0;
            let tc = runs[t.container].assignment.len() as f64;
            if tc > 1.0 {
                for &dest in targets {
                    if dest != t.node {
                        // Partner threads distributed over container nodes.
                        let partner_frac =
                            node_thread_frac(&threads, t.container, dest) * tc / (tc - 1.0);
                        add_route_load(
                            machine,
                            &nodes_of[t.container],
                            t.node,
                            dest,
                            comm_bytes * partner_frac,
                            &mut link_load,
                        );
                    }
                }
            }
        }
        for n in 0..machine.num_nodes() {
            dram_util[n] = dram_load[n] / (machine.nodes()[n].dram_bw_gbs * 1e9);
        }
        for (l, link) in machine.interconnect().links().iter().enumerate() {
            link_util[l] = link_load[l] / (link.bandwidth_gbs * 1e9);
        }

        // Latencies and new rates.
        for (i, t) in threads.iter().enumerate() {
            let w = &runs[t.container].workload;
            let targets = &nodes_of[t.container];
            let frac = 1.0 / targets.len() as f64;
            let mut dram_lat = 0.0;
            for &dest in targets {
                let q_dram = queue_multiplier(dram_util[dest.index()]);
                let mut access = lat.dram_cycles * q_dram;
                if dest != t.node {
                    // The first hop is part of the base remote cost; each
                    // additional hop adds `remote_hop_cycles`.
                    let hops = machine.interconnect().hops(t.node, dest).unwrap_or(3) as f64;
                    let q_link =
                        route_queue_mult(machine, &nodes_of[t.container], t.node, dest, &link_util);
                    access +=
                        (lat.remote_hop_cycles + (hops - 1.0) * lat.remote_hop_cycles) * q_link;
                }
                dram_lat += frac * access;
            }
            let mem_stall_per_l2_miss = lat.l3_cycles + m3[i] * dram_lat;
            let cpi_mem =
                (w.mem_per_kinst / 1000.0) * m2[i] * mem_stall_per_l2_miss * (1.0 - w.mlp);

            // Communication latency by partner location.
            let tc = runs[t.container].assignment.len() as f64;
            let cpi_comm = if tc > 1.0 && w.comm_per_kinst > 0.0 {
                let same_l2 = (c_on_l2[t.container][t.l2] as f64 - 1.0).max(0.0) / (tc - 1.0);
                let same_l3 = ((c_on_l3[t.container][t.l3] - c_on_l2[t.container][t.l2]) as f64)
                    .max(0.0)
                    / (tc - 1.0);
                let mut comm_lat = same_l2 * (lat.l2_cycles + 8.0) + same_l3 * lat.c2c_l3_cycles;
                for &dest in targets {
                    if dest == t.node {
                        continue;
                    }
                    let p = node_thread_frac(&threads, t.container, dest) * tc / (tc - 1.0);
                    let hops = machine.interconnect().hops(t.node, dest).unwrap_or(3) as f64;
                    let q_link =
                        route_queue_mult(machine, &nodes_of[t.container], t.node, dest, &link_util);
                    // The base cross-node transfer cost covers the first
                    // hop; extra hops and loaded links add on top.
                    comm_lat += p
                        * (lat.c2c_remote_cycles * q_link
                            + (hops - 1.0) * lat.remote_hop_cycles * q_link);
                }
                (w.comm_per_kinst / 1000.0) * comm_lat * (1.0 - 0.3 * w.mlp)
            } else {
                0.0
            };

            let cpi_core = 1.0 / (w.ipc_base * pipeline_mult[i]);
            let cpi = cpi_core + cpi_mem + cpi_comm;
            let new_rate = clock_hz / cpi;
            rate[i] = (1.0 - cfg.damping) * rate[i] + cfg.damping * new_rate;
            cpi_parts[i] = (cpi_core, cpi_mem, cpi_comm);
        }
        if tail > 0 && cfg.iterations - it <= tail {
            for (acc, &r) in rate_tail.iter_mut().zip(&rate) {
                *acc += r;
            }
        }
    }
    if tail > 0 {
        for (r, acc) in rate.iter_mut().zip(&rate_tail) {
            *r = acc / tail as f64;
        }
    }

    // Aggregate per container.
    let mut per_container = Vec::with_capacity(runs.len());
    for (ci, run) in runs.iter().enumerate() {
        let idx: Vec<usize> = threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.container == ci)
            .map(|(i, _)| i)
            .collect();
        let n = idx.len() as f64;
        let inst_per_sec: f64 = idx.iter().map(|&i| rate[i]).sum();
        let ipc = inst_per_sec / n / clock_hz;

        // State means for the HPE layer.
        let mean = |f: &dyn Fn(usize) -> f64| idx.iter().map(|&i| f(i)).sum::<f64>() / n;
        let remote_fraction = 1.0 - 1.0 / nodes_of[ci].len() as f64;
        let dram_u = nodes_of[ci]
            .iter()
            .map(|&d| dram_util[d.index()])
            .sum::<f64>()
            / nodes_of[ci].len() as f64;
        let link_u = {
            let mut acc = 0.0;
            let mut cnt = 0.0;
            for &a in &nodes_of[ci] {
                for &b in &nodes_of[ci] {
                    if a < b {
                        acc += route_queue_mult(machine, &nodes_of[ci], a, b, &link_util) - 1.0;
                        cnt += 1.0;
                    }
                }
            }
            if cnt > 0.0 {
                acc / cnt
            } else {
                0.0
            }
        };
        let state = ContainerState {
            l2_miss_ratio: mean(&|i| m2[i]),
            l3_miss_ratio: mean(&|i| m3[i]),
            remote_fraction,
            dram_utilisation: dram_u,
            link_utilisation: link_u,
            comm_latency_cycles: mean(&|i| {
                let (_, _, comm) = cpi_parts[i];
                if run.workload.comm_per_kinst > 0.0 {
                    comm / (run.workload.comm_per_kinst / 1000.0).max(1e-12)
                } else {
                    0.0
                }
            }),
            pipeline_mult: mean(&|i| pipeline_mult[i]),
            cpi_core: mean(&|i| cpi_parts[i].0),
            cpi_mem: mean(&|i| cpi_parts[i].1),
            cpi_comm: mean(&|i| cpi_parts[i].2),
        };

        // Measurement noise.
        let mut rng = measurement_rng(&run.workload.name, run.assignment, seed, 1);
        let noisy_inst = inst_per_sec * noise_factor(&mut rng, cfg.perf_noise);
        let metric_value = match run.workload.metric {
            Metric::OpsPerSecond => noisy_inst / run.workload.inst_per_op,
            Metric::Ipc => noisy_inst / clock_hz / n,
        };
        per_container.push((
            Perf {
                inst_per_sec,
                ipc,
                metric_value,
            },
            state,
        ));
    }
    per_container
}

/// Fraction of a container's threads residing on `node`.
fn node_thread_frac(threads: &[ThreadCtx], container: usize, node: NodeId) -> f64 {
    let total = threads.iter().filter(|t| t.container == container).count();
    let on = threads
        .iter()
        .filter(|t| t.container == container && t.node == node)
        .count();
    on as f64 / total as f64
}

/// Adds `bytes_per_sec` of traffic to every link on the route a→b.
///
/// Routing prefers links within `preferred_nodes` (cpuset-bound traffic
/// stays inside the container's node set, consistent with the stream
/// score) and falls back to machine-wide routing when no internal route
/// exists.
fn add_route_load(
    machine: &Machine,
    preferred_nodes: &[NodeId],
    a: NodeId,
    b: NodeId,
    bytes_per_sec: f64,
    link_load: &mut [f64],
) {
    let ic = machine.interconnect();
    let route = ic.route_within(a, b, preferred_nodes).or_else(|| {
        let all: Vec<NodeId> = (0..machine.num_nodes()).map(NodeId).collect();
        ic.route_within(a, b, &all)
    });
    let Some(route) = route else {
        return;
    };
    match route.via {
        None => {
            if let Some(l) = ic.link_between(a, b) {
                link_load[l] += bytes_per_sec;
            }
        }
        Some(x) => {
            if let Some(l) = ic.link_between(a, x) {
                link_load[l] += bytes_per_sec;
            }
            if let Some(l) = ic.link_between(x, b) {
                link_load[l] += bytes_per_sec;
            }
        }
    }
}

/// Queueing multiplier of the most loaded link on the route a→b.
fn route_queue_mult(
    machine: &Machine,
    preferred_nodes: &[NodeId],
    a: NodeId,
    b: NodeId,
    link_util: &[f64],
) -> f64 {
    let ic = machine.interconnect();
    let route = ic.route_within(a, b, preferred_nodes).or_else(|| {
        let all: Vec<NodeId> = (0..machine.num_nodes()).map(NodeId).collect();
        ic.route_within(a, b, &all)
    });
    let Some(route) = route else {
        return queue_multiplier(0.97);
    };
    let links: Vec<usize> = match route.via {
        None => ic.link_between(a, b).into_iter().collect(),
        Some(x) => ic
            .link_between(a, x)
            .into_iter()
            .chain(ic.link_between(x, b))
            .collect(),
    };
    let max_u = links.iter().map(|&l| link_util[l]).fold(0.0f64, f64::max);
    queue_multiplier(max_u)
}
