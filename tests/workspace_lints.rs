//! `unsafe` confinement is a compiler lint, not a convention: the root
//! manifest forbids `unsafe_code` workspace-wide and every member must
//! inherit that table. The one exception is `vc-sync`, whose crate root
//! denies `unsafe_code` itself and whose `slot.rs` alone re-allows it.
//!
//! The measurement surface is checked the same way, from the manifests:
//! the daemon and the engine depend on neither the policy crate nor the
//! harness crate, the workspace has one bench target, and nothing names
//! `criterion` (everything else the repo times lives in `benchmark/`).

use std::fs;
use std::path::Path;

const INHERITS: &str = "[lints]\nworkspace = true";

/// The root manifest and the workspace member directories it lists.
fn manifest_and_members(root: &Path) -> (String, Vec<String>) {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = manifest
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("workspace members list");
    let members = members.split('"').skip(1).step_by(2).map(String::from).collect();
    (manifest, members)
}

#[test]
fn every_member_but_vc_sync_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (manifest, members) = manifest_and_members(root);
    assert!(manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    assert!(manifest.contains(INHERITS), "the root package inherits too");
    assert!(members.iter().any(|m| m == "crates/sync") && members.len() > 10, "{members:?}");
    for member in members {
        let toml = fs::read_to_string(root.join(&member).join("Cargo.toml")).expect(&member);
        assert_eq!(
            toml.contains(INHERITS),
            member != "crates/sync",
            "{member}/Cargo.toml"
        );
    }

    let sync = root.join("crates/sync/src");
    let sync_root = fs::read_to_string(sync.join("lib.rs")).expect("vc-sync root");
    assert!(sync_root.contains("#![deny(unsafe_code)]"));
    for entry in fs::read_dir(&sync).expect("vc-sync sources") {
        let path = entry.expect("dir entry").path();
        let allows = fs::read_to_string(&path)
            .expect("source file")
            .contains("allow(unsafe_code)");
        assert_eq!(allows, path.ends_with("slot.rs"), "{}", path.display());
    }
}

#[test]
fn one_bench_target_no_criterion_and_no_harness_edge_into_the_daemon() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (manifest, members) = manifest_and_members(root);
    let mut manifests = vec![("Cargo.toml".to_string(), manifest)];
    for member in members {
        let path = format!("{member}/Cargo.toml");
        let toml = fs::read_to_string(root.join(&path)).expect(&path);
        manifests.push((path, toml));
    }

    let mut bench_targets = 0;
    for (path, toml) in &manifests {
        assert!(!toml.contains("criterion"), "{path} names criterion");
        bench_targets += toml.matches("[[bench]]").count();
        if path.starts_with("crates/serve/") || path.starts_with("crates/engine/") {
            for harness in ["vc-policy", "vc-bench"] {
                assert!(!toml.contains(harness), "{path} depends on {harness}");
            }
        }
    }
    assert_eq!(bench_targets, 1, "engine_fleet is the workspace's only bench target");
}
