//! `unsafe` confinement is a compiler lint, not a convention: the root
//! manifest forbids `unsafe_code` workspace-wide and every member must
//! inherit that table. The one exception is `vc-sync`, whose crate root
//! denies `unsafe_code` itself and whose `slot.rs` alone re-allows it.
//!
//! The measurement surface is checked the same way, from the manifests:
//! the daemon and the engine do not depend on the harness crate, the
//! workspace has one bench target, and nothing names
//! `criterion` (everything else the repo times lives in `benchmark/`).
//!
//! Lock discipline is `vc_sync::lock`'s borrows; the three source checks
//! that need no call graph follow, each also run on its old bad fixture.

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
            assert!(!toml.contains("vc-bench"), "{path} depends on the harness");
        }
    }
    assert_eq!(bench_targets, 1, "engine_fleet is the workspace's only bench target");
}

/// `(path relative to root, source)` of every `.rs` file under `root`.
fn sources(root: &Path) -> Vec<(String, String)> {
    let (mut out, mut stack) = (Vec::new(), vec![root.to_path_buf()]);
    while let Some(dir) = stack.pop() {
        for path in fs::read_dir(&dir).expect("dir").map(|e| e.expect("entry").path()) {
            let name = path.file_name().expect("name").to_string_lossy().into_owned();
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under root").to_string_lossy().replace('\\', "/");
                out.push((rel, fs::read_to_string(&path).expect("source")));
            }
        }
    }
    out
}

/// The identifiers (and keywords) of a code fragment.
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !c.is_alphanumeric() && c != '_').filter(|w| !w.is_empty())
}

/// `(line, enclosing fn, code)` for the non-test part of a file (before
/// its first `#[cfg(test)]`), `//` comments cut.
fn code_lines(src: &str) -> Vec<(usize, String, &str)> {
    let (mut current, mut out) = (String::new(), Vec::new());
    for (line, n) in src.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]")).zip(1..) {
        let code = line.split("//").next().unwrap_or("");
        let mut tokens = code.split_whitespace();
        if let Some(name) = tokens.by_ref().find(|t| *t == "fn").and(tokens.next()) {
            current = words(name).next().unwrap_or_default().to_string();
        }
        out.push((n, current.clone(), code));
    }
    out
}

/// R7's successor: lines naming `Relaxed` outside `crates/sync/src/`.
fn relaxed_outside_sync(path: &str, src: &str) -> Vec<usize> {
    if path.starts_with("crates/sync/src/") || path.split('/').any(|dir| dir == "tests") {
        return Vec::new();
    }
    let lines = code_lines(src).into_iter();
    lines.filter(|(_, _, code)| words(code).any(|w| w == "Relaxed")).map(|(n, ..)| n).collect()
}

/// Blocking-under-lock's successor: `server.rs` functions naming a guard
/// (`.lock()`) other than `Shared::with` and `loop_wait`.
fn server_guards_outside_with(src: &str) -> Vec<String> {
    let named = |(_, f, code): &(usize, String, &str)| code.contains(".lock()") && f != "with" && f != "loop_wait";
    code_lines(src).into_iter().filter(named).map(|(_, f, _)| f).collect()
}

/// Scope discipline in `crates/engine/src`, non-test code: `(line, fn)`
/// of each `LockScope::new(` outside a public entry point (the one scope
/// of its call) and of each call of the external-only oracle accessors.
fn scope_violations(src: &str) -> Vec<(usize, String)> {
    const ENTRY: [&str; 10] = ["place_batch", "release", "rebalance", "can_fit", "audit",
        "catalog", "training_set", "model", "oracle", "sim_oracle"];
    let accessor = [".oracle(", "::oracle(", ".sim_oracle(", "::sim_oracle("];
    let stray = |(_, f, code): &(usize, String, &str)| {
        (code.contains("LockScope::new(") && !ENTRY.contains(&f.as_str()))
            || accessor.iter().any(|call| code.contains(call))
    };
    code_lines(src).into_iter().filter(stray).map(|(n, f, _)| (n, f)).collect()
}

#[test]
fn relaxed_is_written_only_in_vc_sync() {
    const RELAXED_PUBLISH: &str = "\
pub fn publish_snapshot(slot: &RawSlot, fresh: *mut Snapshot) -> *mut Snapshot {
    slot.ptr.swap(fresh, Ordering::Relaxed)
}
";
    assert_eq!(relaxed_outside_sync("crates/engine/src/publish.rs", RELAXED_PUBLISH), [2]);
    assert!(relaxed_outside_sync("crates/sync/src/publish.rs", RELAXED_PUBLISH).is_empty());
    let files = sources(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(files.len() > 100, "walked {} files", files.len());
    for (path, src) in files {
        assert_eq!(relaxed_outside_sync(&path, &src), [0usize; 0], "{path}: use vc_sync::Counter");
    }
}

#[test]
fn server_guards_live_only_in_shared_with_and_the_loop_wait() {
    const BLOCKING_UNDER_LOCK: &str = "\
fn stop(shared: &Shared) {
    let mut reg = shared.registry.lock().unwrap_or_else(PoisonError::into_inner);
    std::thread::sleep(SETTLE);
}
";
    assert_eq!(server_guards_outside_with(BLOCKING_UNDER_LOCK), ["stop"]);
    let src = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/serve/src/server.rs"));
    let src = src.expect("server.rs");
    assert_eq!(server_guards_outside_with(&src), Vec::<String>::new());
    assert_eq!(src.matches(".lock()").count(), 2, "test code names no guard either");
}

#[test]
fn lock_scopes_open_only_at_engine_entry_points() {
    const INTERPROC_DOUBLE_LOCK: &str = "\
pub fn compact(engine: &PlacementEngine, host: &Host) {
    let mut scope = LockScope::new();
    let st = engine.lock_host(&mut scope, host);
    let oracle = engine.sim_oracle(MachineId(0));
}
";
    let compact = String::from("compact");
    assert_eq!(scope_violations(INTERPROC_DOUBLE_LOCK), [(2, compact.clone()), (4, compact)]);
    for (path, src) in sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/src")) {
        assert_eq!(scope_violations(&src), [], "{path}");
    }
}
