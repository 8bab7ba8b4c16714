//! The `vc-lint` binary.
//!
//! ```text
//! vc-lint [--root DIR] [--json] [--rule Rn]... [FILE...]
//! ```
//!
//! With no file arguments, lints the whole workspace under `--root`
//! (default: the current directory) and exits non-zero on any finding —
//! the CI mode. With file arguments, lints exactly those files (the
//! fixture mode: the path-scoped R7 honors each file's `path` pragma).
//!
//! `--json` swaps the text log for the machine-readable document in
//! [`vc_lint::json`]; `--rule Rn` (repeatable) keeps only the named
//! rules' findings for focused runs. Either way the exit code reflects
//! the findings that remain after filtering.

use std::path::PathBuf;
use std::process::ExitCode;

use vc_lint::findings::Rule;
use vc_lint::{lint_path, lint_workspace, Finding};

const USAGE: &str = "usage: vc-lint [--root DIR] [--json] [--rule Rn]... [FILE...]
  no FILEs: lint the whole workspace under DIR (default: .)
  --json     emit the version-1 JSON findings document instead of text
  --rule Rn  keep only findings of rule Rn (R7, R8, R9 or marker; repeatable)";

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
                    eprintln!("vc-lint: --rule needs a known rule id (R7, R8, R9 or marker)");
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
        files
            .iter()
            .map(|f| {
                lint_path(&root, f)
                    .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", f.display())))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(|per_file| {
                let mut findings = per_file.concat();
                findings.sort();
                findings
            })
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
