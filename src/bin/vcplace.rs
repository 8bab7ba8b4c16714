//! `vcplace` — command-line front end to the placement model.
//!
//! ```text
//! vcplace machines
//! vcplace placements <machine> <vcpus>
//! vcplace predict  <machine> <vcpus> <workload>
//! vcplace pack     <machine> <vcpus> <workload> <goal-pct>
//! vcplace migrate  <workload>
//! vcplace serve    [--addr A] [--machines m1,m2,..] [--budget F]
//!                  [--interval-ms N] [--paused] [--demo]
//!                  [--control-token TOK]
//! ```
//!
//! Machines: `amd` (quad Opteron 6272), `intel` (quad Xeon E7-4830 v3),
//! `zen` (Zen-like demo). Workloads: any paper-suite name (see
//! `vcplace migrate --list`).

use vc_bench::experiments::fig5::{PackingScenario, POLICIES};
use vcplace::core::concern::ConcernSet;
use vcplace::core::important::{important_placements, surviving_packings};
use vcplace::core::model::PerfOracle;
use vcplace::migration::MigrationModel;
use vcplace::topology::{machines, render, Machine};
use vcplace::workloads::suite::{paper_suite, workload_by_name};

fn usage() -> ! {
    eprintln!(
        "usage:\n  vcplace machines\n  vcplace placements <machine> <vcpus>\n  \
         vcplace predict <machine> <vcpus> <workload>\n  \
         vcplace pack <machine> <vcpus> <workload> <goal-pct>\n  \
         vcplace migrate <workload>|--list\n  \
         vcplace serve [--addr A] [--machines m1,m2,..] [--budget F] \
         [--interval-ms N] [--paused] [--demo] [--control-token TOK]\n\n\
         machines: amd | intel | zen | @path/to/file.spec"
    );
    std::process::exit(2);
}

fn machine_arg(name: &str) -> Machine {
    if let Some(path) = name.strip_prefix('@') {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read spec {path}: {e}");
            std::process::exit(1);
        });
        return vcplace::topology::spec::parse_machine(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse spec {path}: {e}");
            std::process::exit(1);
        });
    }
    match name {
        "amd" => machines::amd_opteron_6272(),
        "intel" => machines::intel_xeon_e7_4830_v3(),
        "zen" => machines::zen_like(),
        _ => usage(),
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("machines") => cmd_machines(),
        Some("placements") if args.len() >= 4 => {
            cmd_placements(&machine_arg(&args[2]), parse(&args[3]))
        }
        Some("predict") if args.len() >= 5 => {
            cmd_predict(&machine_arg(&args[2]), parse(&args[3]), &args[4])
        }
        Some("pack") if args.len() >= 6 => cmd_pack(
            machine_arg(&args[2]),
            parse(&args[3]),
            &args[4],
            parse::<f64>(&args[5]) / 100.0,
        ),
        Some("migrate") if args.len() >= 3 => cmd_migrate(&args[2]),
        Some("serve") => cmd_serve(&args[2..]),
        _ => usage(),
    }
}

/// `vcplace serve`: run the framed placement daemon over a fleet, with
/// the pausable background rebalance loop. `--demo` drives 4 client
/// threads of stochastic churn against it (`vc_bench::load`), prints
/// the client-observed latency quantiles and the loop's hysteresis
/// counters, and exits; without it the daemon runs until a client sends
/// the shutdown verb.
fn cmd_serve(args: &[String]) {
    use std::time::Duration;
    use vcplace::engine::{EngineConfig, PlacementEngine};
    use vcplace::ml::forest::ForestConfig;
    use vc_bench::load::Load;
    use vcplace::serve::{Client, LoopConfig, PlacementServer, ServerConfig};

    let mut addr = "127.0.0.1:0".to_string();
    let mut machine_list = "amd,amd".to_string();
    let mut budget = 0.02_f64;
    let mut interval_ms = 100_u64;
    let mut start_paused = false;
    let mut demo = false;
    let mut control_token: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--machines" => machine_list = it.next().cloned().unwrap_or_else(|| usage()),
            "--budget" => budget = parse(it.next().unwrap_or_else(|| usage())),
            "--interval-ms" => interval_ms = parse(it.next().unwrap_or_else(|| usage())),
            "--paused" => start_paused = true,
            "--demo" => demo = true,
            "--control-token" => control_token = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    // `EngineConfig::degradation_budget` is a fraction in [0, 1): NaN or
    // a negative budget condemns every resident, and ≥ 1 condemns none.
    if !(0.0..1.0).contains(&budget) {
        eprintln!("--budget {budget} is outside [0, 1)");
        std::process::exit(2);
    }

    eprintln!("training the fleet model...");
    let mut engine = PlacementEngine::new(EngineConfig {
        interference: true,
        degradation_budget: Some(budget),
        n_seeds: 2,
        extra_synthetic: 0,
        forest: ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        },
        ..EngineConfig::default()
    });
    for name in machine_list.split(',') {
        engine.add_machine(machine_arg(name.trim()));
    }

    let mut config = ServerConfig::default()
        .with_addr(addr.as_str())
        .with_rebalance(LoopConfig {
            interval: Duration::from_millis(interval_ms),
            start_paused,
            ..LoopConfig::default()
        });
    if let Some(token) = control_token {
        config = config.with_control_token(token);
    }
    let server = PlacementServer::spawn(std::sync::Arc::new(engine), config)
        .unwrap_or_else(|e| {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        });
    println!("placement daemon listening on {}", server.local_addr());

    if demo {
        let connections = (0..4)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|e| {
                eprintln!("demo failed: {e}");
                std::process::exit(1);
            });
        let report = Load::default().run(connections, None);
        let totals = server.loop_totals();
        println!(
            "demo: {} placed, {} rejected, {} released over 4 clients",
            report.placed,
            report.rejected,
            report.release.count()
        );
        // 64 cold samples support no tail percentile: median and worst.
        for (op, lat) in [("place  ", &report.place), ("release", &report.release)] {
            println!(
                "{op} p50 {:>8.1} us   max {:>8.1} us",
                lat.quantile_us(0.5),
                lat.quantile_us(1.0),
            );
        }
        println!(
            "loop: {} passes, {} migrations, {} suppressed by cooldown, {} blocked by GB cap",
            totals.passes,
            totals.migrations,
            totals.suppressed_by_cooldown,
            totals.blocked_by_gb_cap,
        );
        server.shutdown();
    } else {
        // Runs until a client sends the shutdown verb.
        server.join();
    }
}

fn cmd_machines() {
    for m in [
        machines::amd_opteron_6272(),
        machines::intel_xeon_e7_4830_v3(),
        machines::zen_like(),
    ] {
        print!("{}", render::render_machine(&m));
        println!("measured pairwise bandwidth (GB/s):");
        print!("{}", render::render_bandwidth_matrix(&m));
        let cs = ConcernSet::for_machine(&m);
        let names: Vec<&str> = cs.concerns().iter().map(|c| c.name.as_str()).collect();
        println!("  concerns: {}\n", names.join(", "));
    }
}

fn cmd_placements(machine: &Machine, vcpus: usize) {
    let cs = ConcernSet::for_machine(machine);
    match important_placements(machine, &cs, vcpus) {
        Ok(ips) => {
            println!(
                "{} important placements for {vcpus} vCPUs on {}:",
                ips.len(),
                machine.name()
            );
            for p in &ips {
                println!("  {}  nodes {:?}", p.describe(), p.spec.nodes);
            }
        }
        Err(e) => {
            eprintln!("no balanced feasible placement: {e}");
            std::process::exit(1);
        }
    }
    let packings = surviving_packings(machine, &cs, vcpus).unwrap_or_else(|e| {
        eprintln!("no balanced feasible packing: {e}");
        std::process::exit(1);
    });
    println!("\n{} surviving packings (co-location options):", packings.len());
    for p in packings.iter().take(12) {
        let parts: Vec<String> = p
            .parts
            .iter()
            .map(|part| {
                let ids: Vec<String> = part.iter().map(|n| n.index().to_string()).collect();
                format!("{{{}}}", ids.join(","))
            })
            .collect();
        println!("  {}", parts.join(" + "));
    }
    if packings.len() > 12 {
        println!("  ... and {} more", packings.len() - 12);
    }
}

fn cmd_predict(machine: &Machine, vcpus: usize, workload: &str) {
    use vcplace::engine::{EngineConfig, PlacementEngine};

    let Some(target) = workload_by_name(workload) else {
        eprintln!("unknown workload {workload}; try `vcplace migrate --list`");
        std::process::exit(1);
    };
    // The default corpus: 12 synthetic workloads beside the paper suite,
    // 3 seeds per measurement, a 60-tree forest trained with seed 7.
    let mut engine = PlacementEngine::new(EngineConfig::default());
    let id = engine.add_machine(machine.clone());
    let catalog = engine.catalog(id, vcpus).unwrap_or_else(|e| {
        eprintln!("no balanced feasible placement: {e}");
        std::process::exit(1);
    });
    let placements = &catalog.placements;
    if placements.len() < 2 {
        eprintln!("{vcpus} vCPUs have one important placement on this machine: nothing to predict");
        std::process::exit(1);
    }
    // Leave the target's family out of training, as the paper does.
    let artifact = engine
        .model(id, vcpus, 0, Some(&target.family))
        .unwrap_or_else(|e| {
            eprintln!("cannot train a model: {e}");
            std::process::exit(1);
        });
    let probe = artifact.probe;
    eprintln!(
        "probing placements #{} and #{} (cv error {:.1} %)...",
        placements[0].id, placements[probe].id, artifact.cv_error_pct
    );
    let oracle = engine.sim_oracle(id);
    let pa = oracle.perf(workload, &placements[0].spec, 0);
    let pb = oracle.perf(workload, &placements[probe].spec, 0);
    let pred = artifact.model.predict_absolute(pa, pb);
    println!("{:<46} {:>14}", "placement", "predicted perf");
    for p in placements {
        println!("{:<46} {:>14.1}", p.describe(), pred[p.id - 1]);
    }
    let best = placements
        .iter()
        .max_by(|a, b| pred[a.id - 1].partial_cmp(&pred[b.id - 1]).unwrap())
        .unwrap();
    println!(
        "\nbest predicted placement: #{} ({})",
        best.id,
        best.describe()
    );
}

fn cmd_pack(machine: Machine, vcpus: usize, workload: &str, goal: f64) {
    if workload_by_name(workload).is_none() {
        eprintln!("unknown workload {workload}; try `vcplace migrate --list`");
        std::process::exit(1);
    }
    let scenario = PackingScenario::new(machine, vcpus, workload, 0, 7).unwrap_or_else(|e| {
        eprintln!("cannot pack {vcpus}-vCPU {workload}: {e}");
        std::process::exit(1);
    });
    println!(
        "baseline performance: {:.1}; goal {:.0} %",
        scenario.baseline_perf(),
        goal * 100.0
    );
    println!("{:<20} {:>12} {:>14}", "policy", "instances", "violation %");
    for policy in POLICIES {
        let o = scenario.evaluate(policy, goal, 5);
        println!(
            "{:<20} {:>12} {:>14.1}",
            o.policy.to_string(),
            o.instances,
            o.violation_pct
        );
    }
}

fn cmd_migrate(workload: &str) {
    if workload == "--list" {
        for w in paper_suite() {
            println!("{}", w.name);
        }
        return;
    }
    let Some(w) = workload_by_name(workload) else {
        eprintln!("unknown workload {workload}");
        std::process::exit(1);
    };
    let model = MigrationModel::default();
    let fast = model.fast(&w);
    let linux = model.linux_default(&w);
    println!(
        "{} ({:.1} GB total, {:.1} GB page cache)",
        w.name,
        w.memory_gb(),
        w.page_cache_gb
    );
    println!(
        "  fast:      {:>6.1} s (frozen {:>5.1} s, page cache migrated)",
        fast.duration_s, fast.frozen_s
    );
    println!(
        "  linux:     {:>6.1} s (frozen {:>5.1} s, ~{:.0} % overhead, page cache left)",
        linux.duration_s, linux.frozen_s, linux.runtime_overhead_pct
    );
    for target in [30.0, 60.0] {
        let t = model.throttled(&w, w.memory_gb() / target);
        println!(
            "  throttled: {:>6.1} s ({:.1} % overhead, container keeps running)",
            t.duration_s, t.runtime_overhead_pct
        );
    }
}
