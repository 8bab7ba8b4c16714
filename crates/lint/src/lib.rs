//! # vc-lint — source-level invariant checker for the vcplace workspace
//!
//! The engine's concurrency story rests on three source conventions
//! neither the type system nor a compiler lint can express:
//! the `Relaxed` ordering is written only inside `vc-sync`, where
//! `Counter` wraps it for statistics nothing synchronizes on (R7); no
//! lock class is re-acquired under itself and the lock order is acyclic
//! (R8); and nothing simulates under a host lock or blocks under any
//! lock — directly or through any call chain (R9). The runtime counters
//! and the interleavings model checker catch violations *after* a
//! schedule exposes them; this crate rejects the code at CI time
//! instead.
//!
//! Everything one definition or one compiler lint can carry is
//! enforced there, not here: publication before unlock and id-ordered
//! double locking by the engine's `HostGuard`/`lock_pair`, `unsafe`
//! confinement by the workspace `unsafe_code` lint, the panic-free
//! serving path by clippy's panic family on `vc-serve`, and
//! encode/decode/docs agreement by the single-declaration wire codec
//! and its protocol tests.
//!
//! Dependency-free by necessity (the build environment has no network):
//! a small hand-rolled lexer ([`lexer`]) feeds a workspace call graph
//! ([`graph`]) whose per-function lock/simulator/blocking effects are
//! closed bottom-up ([`summaries`]); R7 is a single token pass
//! ([`rules`]). The only escape hatch is an allow marker — a line
//! comment of the form `vc-lint: allow(Rn, reason)` (written with the
//! usual `//` prefix) directly above or trailing the offending line.
//! Unused or malformed markers are themselves errors.
//!
//! ```
//! use vc_lint::lint_source;
//!
//! let bad = "\
//! pub fn score(engine: &Engine, host: &Host) -> f64 {
//!     let st = engine.lock_host(host);
//!     co_location_penalty(&st.residents)
//! }
//! ";
//! let findings = lint_source("crates/engine/src/example.rs", bad);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule.id(), "R9");
//! assert_eq!(findings[0].line, 3);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod findings;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod summaries;
pub mod walk;

pub use findings::{Finding, Rule};
pub use walk::{lint_path, lint_workspace, workspace_files};

/// Lints one source string as if it lived at `rel_path` (workspace-
/// relative; a `path` pragma inside the source overrides it). Returns
/// the final, sorted findings with allow markers applied.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_files(&[(rel_path.to_string(), src.to_string())])
}

/// Lints a set of `(rel_path, source)` inputs as one unit: R7 runs on
/// each file, the R8/R9 call-graph analysis runs across the whole set,
/// and allow markers are applied per file. Inputs should already be in
/// deterministic (sorted) order.
pub fn lint_files(inputs: &[(String, String)]) -> Vec<Finding> {
    let files: Vec<analysis::SourceFile> = inputs
        .iter()
        .map(|(rel, src)| analysis::SourceFile::new(rel, src))
        .collect();
    let mut raw: Vec<Finding> = files.iter().flat_map(rules::check_file).collect();
    summaries::check_workspace(&files, &mut raw);
    let mut out = Vec::new();
    for file in &files {
        let (mine, rest): (Vec<Finding>, Vec<Finding>) =
            raw.into_iter().partition(|f| f.file == file.path);
        raw = rest;
        out.extend(analysis::finalize(file, mine));
    }
    out.extend(raw); // findings for paths no input claims (defensive)
    out.sort();
    out
}
