//! # vc-lint — source-level invariant checker for the vcplace workspace
//!
//! The engine's concurrency story rests on a handful of source
//! conventions types cannot express: the simulator never runs under a
//! host lock (R2), `unsafe` lives only in `vc-sync`'s slot module (R4),
//! the serving path never panics (R5), the wire tag table cannot
//! silently drift (R6), `Ordering::Relaxed` is reserved for counters
//! nothing synchronizes on (R7), no lock class is re-acquired under
//! itself and the lock order is acyclic (R8), nothing blocks or
//! simulates under a lock through any call chain (R9), and the
//! documented wire table matches the code (R10). Publication before
//! unlock and id-ordered double locking — once R1 and R3 — are enforced
//! by the engine's `HostGuard`/`lock_pair` instead. The runtime counters and the interleavings model checker catch
//! violations *after* a schedule exposes them; this crate rejects the
//! code at CI time instead.
//!
//! Dependency-free by necessity (the build environment has no network):
//! a small hand-rolled lexer ([`lexer`]) feeds linear token-order rule
//! passes ([`rules`]). The only escape hatch is an allow marker — a line
//! comment of the form `vc-lint: allow(Rn, reason)` (written with the
//! usual `//` prefix) directly above or trailing the offending line.
//! Unused or malformed markers are themselves errors.
//!
//! ```
//! use vc_lint::{lint_source, Ctx};
//!
//! let bad = "pub fn first(xs: &[u32]) -> u32 { xs[0] }\n";
//! let findings = lint_source("crates/serve/src/example.rs", bad, &Ctx::default());
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule.id(), "R5");
//! assert_eq!(findings[0].line, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod findings;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod summaries;
pub mod walk;
pub mod wiredocs;

pub use findings::{Finding, Rule};
pub use rules::Ctx;
pub use walk::{lint_path, lint_workspace, workspace_files};

/// Lints one source string as if it lived at `rel_path` (workspace-
/// relative; a `path` pragma inside the source overrides it). Returns
/// the final, sorted findings with allow markers applied.
pub fn lint_source(rel_path: &str, src: &str, ctx: &Ctx) -> Vec<Finding> {
    lint_files(&[(rel_path.to_string(), src.to_string())], ctx)
}

/// Lints a set of `(rel_path, source)` inputs as one unit: the per-file
/// rules run on each file, the interprocedural passes (R8/R9 call-graph
/// analysis, R10 wire↔docs drift) run across the whole set, and allow
/// markers are applied per file. Inputs should already be in
/// deterministic (sorted) order.
pub fn lint_files(inputs: &[(String, String)], ctx: &Ctx) -> Vec<Finding> {
    let files: Vec<analysis::SourceFile> = inputs
        .iter()
        .map(|(rel, src)| analysis::SourceFile::new(rel, src))
        .collect();
    let mut raw: Vec<Finding> = Vec::new();
    for file in &files {
        raw.extend(rules::check_file(file, ctx));
    }
    summaries::check_workspace(&files, &mut raw);
    wiredocs::check_wire_docs(&files, ctx, &mut raw);
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
