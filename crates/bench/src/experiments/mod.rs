//! One module per paper artefact, and what only the figures use: k-means
//! (Fig. 3), the HPE baseline with its feature selection (Fig. 4) and
//! the Linux-like vCPU mapper of Fig. 5's unpinned policies.

pub mod ablations;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod hpe_model;
pub mod kmeans;
pub mod os_sched;
pub mod placements;
pub mod sfs;
pub mod table2;

/// The two reference machines with the vCPU counts and baseline
/// placements the paper uses.
pub fn reference_setups() -> Vec<(vc_topology::Machine, usize, usize)> {
    vec![
        (vc_topology::machines::amd_opteron_6272(), 16, 0),
        (vc_topology::machines::intel_xeon_e7_4830_v3(), 24, 1),
    ]
}

/// A placement engine over the two reference machines (AMD at id 0,
/// Intel at id 1) with the paper's baselines, using the engine's default
/// configuration. Experiments sharing one of these share every cached
/// catalog, training sweep and model.
pub fn reference_engine() -> vc_engine::PlacementEngine {
    reference_engine_with(vc_engine::EngineConfig::default())
}

/// [`reference_engine`] with an explicit configuration.
pub fn reference_engine_with(cfg: vc_engine::EngineConfig) -> vc_engine::PlacementEngine {
    let mut engine = vc_engine::PlacementEngine::new(cfg);
    for (machine, _vcpus, baseline) in reference_setups() {
        engine.add_machine_with_baseline(machine, baseline);
    }
    engine
}
