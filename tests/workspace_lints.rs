//! `unsafe` confinement is a compiler lint, not a convention: the root
//! manifest forbids `unsafe_code` workspace-wide and every member must
//! inherit that table. The one exception is `vc-sync`, whose crate root
//! denies `unsafe_code` itself and whose `slot.rs` alone re-allows it.

use std::fs;
use std::path::Path;

const INHERITS: &str = "[lints]\nworkspace = true";

#[test]
fn every_member_but_vc_sync_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    assert!(manifest.contains(INHERITS), "the root package inherits too");

    let members = manifest
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("workspace members list");
    let members: Vec<&str> = members.split('"').skip(1).step_by(2).collect();
    assert!(members.contains(&"crates/sync") && members.len() > 10, "{members:?}");
    for member in members {
        let toml = fs::read_to_string(root.join(member).join("Cargo.toml")).expect(member);
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
