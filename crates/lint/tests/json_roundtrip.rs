//! `--json` schema stability: everything the linter can emit must
//! survive a render -> parse round trip bit-for-bit (the CI annotation
//! step consumes this document), and documents that violate the schema
//! must be rejected rather than half-read.

use vc_lint::findings::{Finding, Rule};
use vc_lint::{json, lint_source};

#[test]
fn hand_built_findings_round_trip() {
    let findings = vec![
        Finding {
            file: "crates/serve/src/rpc.rs".to_string(),
            line: 42,
            rule: Rule::R9,
            message: "tag 9 (`Ghost`) is \"documented\"\n\tnowhere".to_string(),
            trace: vec![
                "edge `admission` -> `journal` established at a.rs:7:".to_string(),
                "acquires `host` lock at b.rs:9".to_string(),
            ],
        },
        Finding {
            file: "weird\\path.rs".to_string(),
            line: 1,
            rule: Rule::R7,
            message: "control char \u{1} and unicode \u{2013} survive".to_string(),
            trace: Vec::new(),
        },
    ];
    let doc = json::render(&findings);
    let back = json::parse(&doc).expect("well-formed document");
    assert_eq!(back, findings);
}

#[test]
fn real_findings_round_trip() {
    // Real output, not hand-built: an R7 violation.
    let bad = "pub fn bump(n: &AtomicU64) { n.fetch_add(1, Ordering::Relaxed); }\n";
    let findings = lint_source("crates/engine/src/example.rs", bad);
    assert!(!findings.is_empty(), "expected the R7 example to fire");
    let back = json::parse(&json::render(&findings)).expect("round-trip");
    assert_eq!(back, findings);
}

#[test]
fn empty_document_round_trips() {
    let doc = json::render(&[]);
    assert_eq!(json::parse(&doc).expect("empty doc"), Vec::new());
    assert!(doc.contains("\"version\": 1"));
    assert!(doc.contains("\"total\": 0"));
}

#[test]
fn schema_violations_rejected() {
    let doc = json::render(&[]);
    // A lying total, a wrong version, and a junk rule id must all fail.
    assert!(json::parse(&doc.replace("\"total\": 0", "\"total\": 3")).is_err());
    assert!(json::parse(&doc.replace("\"version\": 1", "\"version\": 2")).is_err());
    let one = json::render(&[Finding {
        file: "a.rs".to_string(),
        line: 1,
        rule: Rule::R8,
        message: "m".to_string(),
        trace: Vec::new(),
    }]);
    assert!(json::parse(&one.replace("\"R8\"", "\"R99\"")).is_err());
}
