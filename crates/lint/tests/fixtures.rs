//! Fixture-corpus tests.
//!
//! Every file under `fixtures/bad/` declares the findings it must
//! produce with trailing `//~ RULE [@LINE]` comments (`RULE` is a rule
//! id like `R8`, or `marker` for directive-hygiene findings; `@LINE`
//! pins the expected line when the finding lands on a different line
//! than the comment).
//! Every file under `fixtures/good/` is a known-good twin and must lint
//! completely clean. A proptest feeds the corpus to the linter in
//! random orders to prove the output is deterministic and sorted.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vc_lint::{lint_source, Finding};

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
}

/// Loads `(workspace-relative path, source)` for every `.rs` fixture of
/// the given kind, sorted by name so the canonical order is stable.
fn fixtures(kind: &str) -> Vec<(String, String)> {
    let dir = fixture_dir(kind);
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.expect("fixture dir entry").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let name = path
            .file_name()
            .expect("fixture file name")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        out.push((format!("crates/lint/fixtures/{kind}/{name}"), src));
    }
    out.sort();
    assert!(!out.is_empty(), "no .rs fixtures under {}", dir.display());
    out
}

/// Parses the `//~ RULE [@LINE]` expectations out of a fixture source.
/// Returns sorted `(line, rule id)` pairs.
fn expectations(rel: &str, src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else { continue };
        let own_line = u32::try_from(idx + 1).expect("fixture line fits in u32");
        let body = line[pos + 3..].trim();
        let mut parts = body.split_whitespace();
        let rule = parts
            .next()
            .unwrap_or_else(|| panic!("{rel}:{own_line}: `//~` without a rule id"))
            .to_string();
        let at = parts.next().map(|tok| {
            tok.strip_prefix('@')
                .and_then(|n| n.parse::<u32>().ok())
                .unwrap_or_else(|| panic!("{rel}:{own_line}: bad `//~ {rule} {tok}`"))
        });
        assert!(
            parts.next().is_none(),
            "{rel}:{own_line}: trailing junk after `//~ {rule}`"
        );
        out.push((at.unwrap_or(own_line), rule));
    }
    out.sort();
    out
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("  {f}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every bad fixture produces exactly the `(line, rule)` multiset its
/// `//~` comments declare — no more, no less, nothing misplaced.
#[test]
fn bad_fixtures_flag_exact_rule_and_line() {
    for (rel, src) in fixtures("bad") {
        let expected = expectations(&rel, &src);
        assert!(!expected.is_empty(), "{rel} carries no //~ expectations");
        let findings = lint_source(&rel, &src);
        let mut got: Vec<(u32, String)> = findings
            .iter()
            .map(|f| (f.line, f.rule.id().to_string()))
            .collect();
        got.sort();
        assert_eq!(
            got,
            expected,
            "{rel}: findings diverge from //~ expectations; got:\n{}",
            render(&findings)
        );
    }
}

/// Every good twin lints completely clean.
#[test]
fn good_twins_lint_clean() {
    for (rel, src) in fixtures("good") {
        let findings = lint_source(&rel, &src);
        assert!(
            findings.is_empty(),
            "{rel} should lint clean but produced:\n{}",
            render(&findings)
        );
    }
}

/// Each bad fixture has `bad/` in its name only; make sure the corpus
/// covers every rule at least once (R7–R9 plus marker hygiene).
#[test]
fn corpus_covers_every_rule() {
    let mut seen: Vec<String> = fixtures("bad")
        .iter()
        .flat_map(|(rel, src)| expectations(rel, src))
        .map(|(_, rule)| rule)
        .collect();
    seen.sort();
    seen.dedup();
    for rule in ["R7", "R8", "R9", "marker"] {
        assert!(
            seen.iter().any(|r| r == rule),
            "no bad fixture exercises {rule}; corpus covers {seen:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Linting the corpus in a random order yields exactly the same
    /// findings as the canonical order, each file's findings arrive
    /// already sorted, and re-linting a file is idempotent — i.e. the
    /// linter has no hidden cross-file or ordering state.
    #[test]
    fn findings_deterministic_under_fixture_order(
        keys in proptest::collection::vec(0u64..u64::MAX, 64..65),
    ) {
        let mut corpus = fixtures("bad");
        corpus.extend(fixtures("good"));
        prop_assert!(keys.len() >= corpus.len(), "need one sort key per fixture");

        let canonical: Vec<Vec<Finding>> = corpus
            .iter()
            .map(|(rel, src)| lint_source(rel, src))
            .collect();
        for (findings, (rel, _)) in canonical.iter().zip(&corpus) {
            prop_assert!(
                findings.windows(2).all(|w| w[0] <= w[1]),
                "{} findings are not sorted", rel
            );
        }

        // Shuffle via argsort of the random keys.
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));

        let mut shuffled: Vec<Finding> = order
            .iter()
            .flat_map(|&i| lint_source(&corpus[i].0, &corpus[i].1))
            .collect();
        shuffled.sort();
        let mut flat: Vec<Finding> = canonical.iter().flatten().cloned().collect();
        flat.sort();
        prop_assert_eq!(shuffled, flat);

        for (i, (rel, src)) in corpus.iter().enumerate() {
            prop_assert_eq!(
                &lint_source(rel, src),
                &canonical[i],
                "re-linting {} changed its findings", rel
            );
        }
    }
}
