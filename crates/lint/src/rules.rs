//! Rule R7, the one per-file token pass left: the `Relaxed` ordering has
//! a single home.
//!
//! `Relaxed` is sound exactly when nothing synchronizes on the value,
//! and that argument is written once, on `vc_sync::Counter`. Everything
//! else in the workspace counts through a `Counter` and publishes with
//! Release/Acquire or stronger, so the check needs no receiver
//! allowlist: the ordering appearing in non-test code outside
//! `crates/sync/src/` is the finding.

use crate::analysis::SourceFile;
use crate::findings::{Finding, Rule};

/// Where the `Relaxed` ordering may be written.
const RELAXED_HOME: &str = "crates/sync/src/";

/// R7 over one file. Returned findings are raw — allow markers are
/// applied by [`crate::analysis::finalize`].
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    if file.path.starts_with(RELAXED_HOME) {
        return Vec::new();
    }
    file.lexed
        .tokens
        .iter()
        .zip(&file.test)
        .filter(|(t, in_test)| t.is_ident("Relaxed") && !**in_test)
        .map(|(t, _)| Finding {
            file: file.path.clone(),
            line: t.line,
            rule: Rule::R7,
            message: format!(
                "`Relaxed` ordering outside `{RELAXED_HOME}` — count with \
                 `vc_sync::Counter`; publication atomics need Release/Acquire"
            ),
            trace: Vec::new(),
        })
        .collect()
}
