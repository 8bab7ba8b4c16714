//! Per-file analysis context: effective path, test regions, and the
//! allow-marker bookkeeping applied after all rules have run.

use crate::findings::{Finding, Rule};
use crate::lexer::{lex, Directive, Lexed};

/// One lexed source file plus everything the rules need to know about
/// where it (claims to) live and which tokens are test-only.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators. A fixture `path`
    /// pragma overrides the on-disk location, so fixtures under
    /// `crates/lint/fixtures/` can exercise the path-scoped R7.
    pub path: String,
    /// Token stream and directives.
    pub lexed: Lexed,
    /// Per-token flag: true when the token sits in test-only code
    /// (`tests/`/`benches/` files, `#[cfg(test)]` / `#[test]` regions).
    pub test: Vec<bool>,
}

impl SourceFile {
    /// Lexes `src` and computes test regions. `rel_path` is the
    /// workspace-relative path of the file on disk.
    pub fn new(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let mut path = rel_path.replace('\\', "/");
        for d in &lexed.directives {
            if let Directive::Path { path: p } = d {
                path = p.replace('\\', "/");
                break;
            }
        }
        let whole_file_test = path.contains("/tests/")
            || path.starts_with("tests/")
            || path.contains("/benches/")
            || path.starts_with("benches/");
        let test = if whole_file_test {
            vec![true; lexed.tokens.len()]
        } else {
            test_regions(&lexed)
        };
        SourceFile { path, lexed, test }
    }
}

/// Marks tokens covered by `#[test]` / `#[cfg(test)]`-attributed items
/// (the attribute, the item signature, and its brace block or trailing
/// semicolon). `#[cfg(not(test))]` does not count.
fn test_regions(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Find the matching `]` and look for a bare `test` inside.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut is_test_attr = false;
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[j].is_ident("test") {
                let negated = j >= 2
                    && toks[j - 1].is_punct('(')
                    && toks[j - 2].is_ident("not");
                if !negated {
                    is_test_attr = true;
                }
            }
            j += 1;
        }
        if !is_test_attr || j >= toks.len() {
            i = j.max(i + 1);
            continue;
        }
        // Cover up to the end of the annotated item: the first `;`
        // before any block, or the matching `}` of the first block.
        let mut k = j + 1;
        let mut end = toks.len().saturating_sub(1);
        while k < toks.len() {
            if toks[k].is_punct(';') {
                end = k;
                break;
            }
            if toks[k].is_punct('{') {
                let mut bd = 0usize;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        bd += 1;
                    } else if toks[k].is_punct('}') {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                end = k.min(toks.len() - 1);
                break;
            }
            k += 1;
        }
        for flag in test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    test
}

/// Applies the allow markers to `raw` findings and adds marker-hygiene
/// findings (malformed markers, unused allows). Returns the final
/// sorted finding list for this file.
///
/// An allow marker suppresses findings of its rule on the first
/// token-bearing line at or below the marker — i.e. trailing markers
/// cover their own line, markers on their own line cover the next line
/// of code.
pub fn finalize(file: &SourceFile, raw: Vec<Finding>) -> Vec<Finding> {
    let mut token_lines: Vec<u32> = file.lexed.tokens.iter().map(|t| t.line).collect();
    token_lines.sort_unstable();
    token_lines.dedup();

    struct Allow {
        line: u32,
        rule: String,
        target: Option<u32>,
        used: bool,
    }
    let mut allows: Vec<Allow> = Vec::new();
    let mut out: Vec<Finding> = Vec::new();
    for d in &file.lexed.directives {
        match d {
            Directive::Allow { line, rule, .. } => {
                let idx = token_lines.partition_point(|l| *l < *line);
                allows.push(Allow {
                    line: *line,
                    rule: rule.clone(),
                    target: token_lines.get(idx).copied(),
                    used: false,
                });
            }
            Directive::Malformed { line, message } => out.push(Finding {
                file: file.path.clone(),
                line: *line,
                rule: Rule::Marker,
                message: format!("malformed marker: {message}"),
                trace: Vec::new(),
            }),
            Directive::Path { .. } => {}
        }
    }

    for f in raw {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if f.rule != Rule::Marker && a.target == Some(f.line) && a.rule == f.rule.id() {
                a.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for a in &allows {
        if !a.used {
            out.push(Finding {
                file: file.path.clone(),
                line: a.line,
                rule: Rule::Marker,
                message: format!(
                    "unused allow marker for {} (nothing to suppress on line {})",
                    a.rule,
                    a.target.map_or_else(|| "<eof>".to_string(), |t| t.to_string()),
                ),
                trace: Vec::new(),
            });
        }
    }
    out.sort();
    out
}
