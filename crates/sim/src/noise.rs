//! Deterministic measurement noise.
//!
//! Real measurements vary run to run; the paper's training data are
//! repeated executions. Noise here is a pure function of (workload,
//! placement, seed, stream) so every experiment is reproducible. The
//! solve is noise-free; [`measure`] draws on stream 1, [`crate::hpe`]'s
//! counters on stream 2.

use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;

use vc_topology::{Machine, ThreadId};
use vc_workloads::Metric;

use crate::engine::ContainerRun;

/// Relative measurement noise on reported performance.
pub const PERF_NOISE: f64 = 0.01;

/// `run` at `inst_per_sec` instructions per second, measured with seed
/// `seed`: scaled by its stream-1 noise draw, in its workload's metric
/// (ops/s for [`Metric::OpsPerSecond`], per-thread IPC for [`Metric::Ipc`]).
pub fn measure(machine: &Machine, run: &ContainerRun, inst_per_sec: f64, seed: u64) -> f64 {
    let w = run.workload;
    let mut rng = measurement_rng(&w.name, run.assignment, seed, 1);
    let noisy_inst = inst_per_sec * noise_factor(&mut rng, PERF_NOISE);
    match w.metric {
        Metric::OpsPerSecond => noisy_inst / w.inst_per_op,
        Metric::Ipc => noisy_inst / (machine.clock_ghz() * 1e9) / run.assignment.len() as f64,
    }
}

/// Builds a seeded RNG from a workload name, an assignment and a run
/// seed. Identical inputs always produce the identical RNG.
pub fn measurement_rng(workload: &str, assignment: &[ThreadId], seed: u64, stream: u64) -> StdRng {
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
/// (uniform in `[1-sigma, 1+sigma]`; measurement jitter, not heavy
/// tails).
pub fn noise_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    1.0 + rng.random_range(-sigma..sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_noise() {
        let a: Vec<ThreadId> = (0..4).map(ThreadId).collect();
        let mut r1 = measurement_rng("wt", &a, 3, 0);
        let mut r2 = measurement_rng("wt", &a, 3, 0);
        assert_eq!(noise_factor(&mut r1, 0.05), noise_factor(&mut r2, 0.05));
    }

    #[test]
    fn different_seed_changes_noise() {
        let a: Vec<ThreadId> = (0..4).map(ThreadId).collect();
        let mut r1 = measurement_rng("wt", &a, 3, 0);
        let mut r2 = measurement_rng("wt", &a, 4, 0);
        assert_ne!(noise_factor(&mut r1, 0.05), noise_factor(&mut r2, 0.05));
    }

    #[test]
    fn zero_sigma_is_exactly_one() {
        let a: Vec<ThreadId> = (0..2).map(ThreadId).collect();
        let mut r = measurement_rng("x", &a, 0, 0);
        assert_eq!(noise_factor(&mut r, 0.0), 1.0);
    }

    #[test]
    fn measure_scales_by_the_stream_one_draw_in_the_workload_metric() {
        use vc_topology::machines;
        use vc_workloads::suite::workload_by_name;

        let machine = machines::amd_opteron_6272();
        let assignment: Vec<ThreadId> = (0..4).map(ThreadId).collect();
        let rate = 3.0e9;
        for (name, metric) in [("blast", Metric::Ipc), ("WTbtree", Metric::OpsPerSecond)] {
            let w = workload_by_name(name).unwrap();
            assert_eq!(w.metric, metric, "{name}");
            let run = ContainerRun {
                workload: &w,
                assignment: &assignment,
            };
            let mut rng = measurement_rng(name, &assignment, 7, 1);
            let noisy = rate * noise_factor(&mut rng, PERF_NOISE);
            let expected = match metric {
                Metric::OpsPerSecond => noisy / w.inst_per_op,
                Metric::Ipc => noisy / (machine.clock_ghz() * 1e9) / 4.0,
            };
            let measured = measure(&machine, &run, rate, 7);
            assert_eq!(measured.to_bits(), expected.to_bits(), "{name}");
            assert_ne!(measured, measure(&machine, &run, rate, 8), "{name}");
        }
    }

    #[test]
    fn noise_is_bounded_by_sigma() {
        let a: Vec<ThreadId> = (0..2).map(ThreadId).collect();
        let mut r = measurement_rng("y", &a, 1, 2);
        for _ in 0..100 {
            let f = noise_factor(&mut r, 0.02);
            assert!((0.98..=1.02).contains(&f));
        }
    }
}
