//! `vc-bench <figure>` prints one table or figure of the paper:
//!
//! ```text
//! vc-bench fig1 | fig3 | fig4 | fig5 | table1 | table2 | machines
//!        | important_placements | ablations
//! ```
//!
//! `machines`, `table1`, `table2` and `important_placements` take
//! seconds in release; the others train forests per machine/workload.

use vc_bench::experiments::{
    ablations, fig1, fig3, fig4, fig5, placements, reference_engine, reference_engine_with,
    reference_setups, table2,
};
use vc_engine::{EngineConfig, MachineId};
use vc_topology::{machines, render};

const FIGURES: &str = "fig1 fig3 fig4 fig5 table1 table2 machines important_placements ablations";

fn main() {
    let figure = std::env::args().nth(1).unwrap_or_default();
    match figure.as_str() {
        "fig1" => {
            // WiredTiger throughput vs node count and SMT.
            let intel = machines::intel_xeon_e7_4830_v3();
            print!(
                "{}",
                fig1::render(&intel, &fig1::run(&intel, &[1, 2, 4], 16))
            );
            println!();
            let amd = machines::amd_opteron_6272();
            print!("{}", fig1::render(&amd, &fig1::run(&amd, &[2, 4, 8], 16)));
        }
        "fig3" => {
            // Performance-vector clusters.
            for (m, v, b) in [
                (machines::intel_xeon_e7_4830_v3(), 24, 1),
                (machines::amd_opteron_6272(), 16, 0),
            ] {
                print!("{}", fig3::render(&m, &fig3::run(&m, v, b, 12)));
                println!();
            }
        }
        "fig4" => {
            // Per-workload prediction accuracy, perf-measurement model vs
            // HPE model, leave-family-out cross-validated.
            let engine = reference_engine_with(EngineConfig {
                n_seeds: 3,
                extra_synthetic: 12,
                train_seed: 3,
                ..EngineConfig::default()
            });
            for (i, (_, vcpus, baseline)) in reference_setups().into_iter().enumerate() {
                let id = MachineId(i);
                let fig = fig4::run(&engine, id, vcpus, baseline);
                print!("{}", fig4::render(engine.machine(id), &fig, true));
                println!();
            }
        }
        "fig5" => {
            // Four policies, three container types, both machines. The six
            // panels share one engine: each machine's catalog and training
            // sweep, and each workload's leave-family-out model, once.
            let engine = reference_engine_with(EngineConfig {
                train_seed: 5,
                ..EngineConfig::default()
            });
            for workload in ["WTbtree", "postgres-tpch", "spark-pr-lj"] {
                for (i, (_, vcpus, baseline)) in reference_setups().into_iter().enumerate() {
                    let panel =
                        fig5::run_panel(&engine, MachineId(i), vcpus, baseline, workload, 5)
                            .expect("the reference setups have a probe pair");
                    print!("{}", fig5::render(&panel));
                    println!();
                }
            }
        }
        "table1" => {
            // The scheduling concerns of both reference machines.
            print!(
                "{}",
                placements::render_concern_table(&machines::amd_opteron_6272())
            );
            println!();
            print!(
                "{}",
                placements::render_concern_table(&machines::intel_xeon_e7_4830_v3())
            );
        }
        // Migration cost per suite workload, fast vs Linux.
        "table2" => print!("{}", table2::render(&table2::run())),
        "machines" => {
            // Figure 2: the reference topologies and their measured
            // node-pair bandwidth matrices.
            for m in [
                machines::amd_opteron_6272(),
                machines::intel_xeon_e7_4830_v3(),
                machines::zen_like(),
            ] {
                print!("{}", render::render_machine(&m));
                println!("measured pairwise bandwidth (GB/s):");
                print!("{}", render::render_bandwidth_matrix(&m));
                println!();
            }
        }
        "important_placements" => {
            // The §4 lists: 13 on AMD, 7 on Intel.
            let engine = reference_engine();
            print!(
                "{}",
                placements::render_placements(&engine, MachineId(0), 16)
            );
            println!();
            print!(
                "{}",
                placements::render_placements(&engine, MachineId(1), 24)
            );
        }
        "ablations" => {
            let amd = machines::amd_opteron_6272();
            print!(
                "{}",
                ablations::render(&amd, &ablations::run(&amd, 16, 0, 11))
            );
        }
        _ => {
            eprintln!("usage: vc-bench <figure>\n  figures: {FIGURES}");
            std::process::exit(2);
        }
    }
}
