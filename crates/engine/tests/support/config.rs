//! The engine configuration the integration tests share: two probe
//! seeds, no synthetic training workloads and a 20-tree forest, so
//! models train fast. Test files include it with
//! `#[path = "support/config.rs"] mod config;`.

use vc_engine::EngineConfig;
use vc_ml::forest::ForestConfig;

pub fn fast_config() -> EngineConfig {
    EngineConfig {
        n_seeds: 2,
        extra_synthetic: 0,
        forest: ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        },
        ..EngineConfig::default()
    }
}
