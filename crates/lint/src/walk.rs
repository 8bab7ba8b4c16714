//! Workspace traversal: find the `.rs` sources to lint.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::findings::Finding;

/// Directories never descended into: build output, version control,
/// and the linter's own deliberately-broken fixture corpus.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Collects every workspace `.rs` file under `root`, sorted for
/// deterministic output.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Reads `file` as a `(workspace-relative path, source)` lint input.
fn load(root: &Path, file: &Path) -> io::Result<(String, String)> {
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    Ok((rel, fs::read_to_string(file)?))
}

/// Lints one on-disk file. `root` anchors the workspace-relative path
/// (and thus the path-scoped R7); a fixture `path` pragma inside the
/// file overrides it.
///
/// # Errors
///
/// Propagates the file read failure.
pub fn lint_path(root: &Path, file: &Path) -> io::Result<Vec<Finding>> {
    Ok(crate::lint_files(&[load(root, file)?]))
}

/// Lints the whole workspace rooted at `root` as one unit: R7 on every
/// source file, the interprocedural R8/R9 passes across all of them.
///
/// # Errors
///
/// Propagates traversal/read failures.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let inputs = workspace_files(root)?
        .iter()
        .map(|file| load(root, file))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(crate::lint_files(&inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_fixture_and_target_dirs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = workspace_files(root).expect("walk lint crate");
        assert!(files.iter().any(|f| f.ends_with("src/walk.rs")));
        // The fixture *directory* is skipped; files like
        // tests/fixtures.rs (the corpus harness) still get walked.
        assert!(!files
            .iter()
            .any(|f| f.components().any(|c| c.as_os_str() == "fixtures")));
        assert!(files.iter().any(|f| f.ends_with("tests/fixtures.rs")));
    }

    #[test]
    fn sorted_and_deterministic() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let a = workspace_files(root).expect("walk");
        let b = workspace_files(root).expect("walk");
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort();
        assert_eq!(a, c);
    }

    /// The real workspace must lint clean — the same self-test the CI
    /// step runs via the binary.
    #[test]
    fn workspace_lints_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("lint crate sits at <ws>/crates/lint");
        let findings = lint_workspace(root).expect("lint workspace");
        let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            rendered.join("\n")
        );
    }
}
