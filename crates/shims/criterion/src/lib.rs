//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion API the workspace benches use
//! ([`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`criterion_group!`], [`criterion_main!`]) with a
//! simple wall-clock measurement loop: per sample the closure runs in a
//! timed batch, and the reported figures are the min / mean / max of the
//! per-iteration times across samples.
//!
//! Statistical machinery (outlier analysis, HTML reports) is out of
//! scope; numbers print to stdout so `cargo bench` output stays useful
//! for eyeballing regressions.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Runs one benchmark's measurement loop.
pub struct Bencher {
    samples: usize,
    /// Per-iteration durations (seconds), one per sample.
    results: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            results: Vec::new(),
        }
    }

    /// Times `f`, batching iterations so each sample lasts long enough to
    /// measure reliably.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and size the batch so one sample takes ~10 ms.
        let t0 = Instant::now();
        std_black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let batch = (Duration::from_millis(10).as_nanos() / once.as_nanos()).clamp(1, 1_000_000);

        self.results.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                std_black_box(f());
            }
            let elapsed = start.elapsed().as_secs_f64() / batch as f64;
            self.results.push(elapsed);
        }
    }
}

fn fmt_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn run_and_report(id: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher::new(samples);
    f(&mut b);
    if b.results.is_empty() {
        println!("{id:<50} (no measurement)");
        return;
    }
    let min = b.results.iter().copied().fold(f64::INFINITY, f64::min);
    let max = b.results.iter().copied().fold(0.0f64, f64::max);
    let mean = b.results.iter().sum::<f64>() / b.results.len() as f64;
    println!(
        "{:<50} time: [{} {} {}]",
        id,
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max)
    );
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_and_report(id, self.sample_size, &mut f);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples for benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_and_report(&full, self.sample_size, &mut f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
