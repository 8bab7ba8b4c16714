//! The `vc-lint` binary.
//!
//! ```text
//! vc-lint [--root DIR] [--json] [--rule Rn]... [FILE...]
//! ```
//!
//! With no file arguments, lints the whole workspace under `--root`
//! (default: the current directory) and exits non-zero on any finding —
//! the CI mode. With file arguments, lints exactly those files (the
//! fixture mode: path-scoped rules honor each file's `path` pragma, and
//! a sibling `FILE.md` supplies the R10 docs table when present).
//!
//! `--json` swaps the text log for the machine-readable document in
//! [`vc_lint::json`]; `--rule Rn` (repeatable) keeps only the named
//! rules' findings for focused runs. Either way the exit code reflects
//! the findings that remain after filtering.

use std::path::PathBuf;
use std::process::ExitCode;

use vc_lint::findings::Rule;
use vc_lint::rules::Ctx;
use vc_lint::{lint_path, lint_workspace, Finding};

const USAGE: &str = "usage: vc-lint [--root DIR] [--json] [--rule Rn]... [FILE...]
  no FILEs: lint the whole workspace under DIR (default: .)
  --json     emit the version-1 JSON findings document instead of text
  --rule Rn  keep only findings of rule Rn (R2, R4..R10 or marker; repeatable)";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut rule_filter: Vec<Rule> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("vc-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--rule" => match args.next().as_deref().and_then(Rule::from_id) {
                Some(rule) => rule_filter.push(rule),
                None => {
                    eprintln!("vc-lint: --rule needs a known rule id (R2, R4..R10 or marker)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }

    let result = if files.is_empty() {
        lint_workspace(&root)
    } else {
        let mut findings = Vec::new();
        let mut err = None;
        for f in &files {
            // Fixture mode: a sibling `.md` with the same stem is the
            // file's documented wire table (R10).
            let ctx = Ctx {
                generator_src: None,
                docs: std::fs::read_to_string(f.with_extension("md"))
                    .ok()
                    .map(|src| (f.with_extension("md").display().to_string(), src)),
            };
            match lint_path(&root, f, &ctx) {
                Ok(fs) => findings.extend(fs),
                Err(e) => {
                    err = Some(std::io::Error::new(
                        e.kind(),
                        format!("{}: {e}", f.display()),
                    ));
                    break;
                }
            }
        }
        match err {
            Some(e) => Err(e),
            None => {
                findings.sort();
                Ok(findings)
            }
        }
    };

    let mut findings = match result {
        Ok(f) => f,
        Err(e) => {
            eprintln!("vc-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if !rule_filter.is_empty() {
        findings.retain(|f| rule_filter.contains(&f.rule));
    }

    if json {
        print!("{}", vc_lint::json::render(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if !findings.is_empty() {
            println!();
        }
        print_summary(&findings);
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_summary(findings: &[Finding]) {
    println!("vc-lint summary:");
    for rule in Rule::ALL {
        let n = findings.iter().filter(|f| f.rule == rule).count();
        println!("  {:<6} {:<24} {n}", rule.id(), rule.name());
    }
    println!("  total: {}", findings.len());
}
