//! A minimal Rust lexer: just enough to walk this workspace's sources.
//!
//! The build environment has no network, so there is no `syn`/`proc-macro2`
//! to lean on. This lexer handles the constructs that would otherwise
//! confuse a token scan — line and nested block comments, string and raw
//! string literals, byte strings, char literals vs lifetimes — and throws
//! their contents away, so the rules in [`crate::rules`] only ever see
//! real code tokens. Comments are stripped, but line comments whose body
//! starts with the `vc-lint:` prefix are parsed into [`Directive`]s (the
//! allow-marker escape hatch and the fixture `path(...)` pragma).

/// What kind of token a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `publish`, ...).
    Ident,
    /// A numeric literal (`0`, `1.5`, `0x1F`, `1_000u64`).
    Num,
    /// A string, raw string, byte string or char literal (text dropped).
    Lit,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character (`{`, `.`, `!`, ...).
    Punct(char),
}

/// One lexed token with the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind; punctuation carries its character.
    pub kind: TokKind,
    /// Identifier/number text; empty for literals and punctuation.
    pub text: String,
    /// 1-based line number.
    pub line: u32,
}

impl Tok {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Identifier text with any raw-identifier prefix stripped: `r#match`
    /// names the same function as `match` would if it were not a
    /// keyword. Keyword checks must keep using [`Tok::is_ident`] (which
    /// compares the spelled text), so `r#fn` — a *variable* named `fn` —
    /// never reads as the `fn` keyword.
    pub fn name(&self) -> &str {
        self.text.strip_prefix("r#").unwrap_or(&self.text)
    }
}

/// A parsed `vc-lint:` line-comment directive.
#[derive(Debug, Clone)]
pub enum Directive {
    /// Suppresses findings of `rule` on the next code-bearing line.
    Allow {
        /// 1-based line the marker comment sits on.
        line: u32,
        /// Rule id, e.g. `R8`.
        rule: String,
        /// Free-text justification; must be non-empty.
        reason: String,
    },
    /// Fixture pragma: lint this file as if it lived at `path` (rule R7
    /// is path-scoped, and fixtures live under `crates/lint/fixtures/`).
    Path {
        /// Workspace-relative effective path.
        path: String,
    },
    /// A comment that named the linter but did not parse.
    Malformed {
        /// 1-based line of the broken marker.
        line: u32,
        /// What went wrong.
        message: String,
    },
}

/// Lexer output: the token stream plus any directives found in comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Directives in source order.
    pub directives: Vec<Directive>,
}

const KNOWN_RULES: &[&str] = &["R7", "R8", "R9"];

fn parse_directive(body: &str, line: u32, out: &mut Vec<Directive>) {
    // Only comments whose (doc-sigil-stripped) body *starts* with the
    // prefix are directives; prose that mentions the marker inline, or
    // shows it inside backticks, stays inert.
    let body = body.trim_start_matches(['/', '!']).trim_start();
    let Some(rest) = body.strip_prefix("vc-lint:") else {
        return;
    };
    let rest = rest.trim();
    let malformed = |message: &str| Directive::Malformed {
        line,
        message: message.to_string(),
    };
    let inner = |rest: &str, verb: &str| -> Option<String> {
        let args = rest.strip_prefix(verb)?.trim_start();
        let args = args.strip_prefix('(')?;
        let close = args.rfind(')')?;
        Some(args[..close].to_string())
    };
    if rest.starts_with("allow") {
        let Some(args) = inner(rest, "allow") else {
            out.push(malformed("allow marker missing (Rn, reason)"));
            return;
        };
        let Some((rule, reason)) = args.split_once(',') else {
            out.push(malformed("allow marker needs a reason: allow(Rn, why)"));
            return;
        };
        let (rule, reason) = (rule.trim().to_string(), reason.trim().to_string());
        if !KNOWN_RULES.contains(&rule.as_str()) {
            out.push(malformed(&format!("unknown rule id `{rule}`")));
            return;
        }
        if reason.is_empty() {
            out.push(malformed("allow marker has an empty reason"));
            return;
        }
        out.push(Directive::Allow { line, rule, reason });
    } else if rest.starts_with("path") {
        match inner(rest, "path") {
            Some(path) if !path.trim().is_empty() => out.push(Directive::Path {
                path: path.trim().to_string(),
            }),
            _ => out.push(malformed("path pragma missing (relative/path.rs)")),
        }
    } else {
        out.push(malformed("unknown directive (expected allow(..) or path(..))"));
    }
}

/// Lexes `src` into tokens and directives. Never fails: unterminated
/// literals simply consume to end of file.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    let ident_start = |c: char| c.is_alphabetic() || c == '_';
    let ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                let body: String = chars[start..j].iter().collect();
                parse_directive(&body, line, &mut out.directives);
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let tok_line = line;
                i = skip_string(&chars, i + 1, &mut line);
                out.tokens.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line: tok_line,
                });
            }
            '\'' => {
                let tok_line = line;
                // Lifetime (`'a`, `'static`, `'_`) vs char literal
                // (`'x'`, `'\n'`): an ident run after the quote that is
                // *not* closed by another quote is a lifetime.
                let mut j = i + 1;
                if j < n && chars[j] == '\\' {
                    // Escaped char literal.
                    j += 2; // skip backslash + escaped char
                    while j < n && chars[j] != '\'' {
                        j += 1; // \u{...} etc.
                    }
                    i = (j + 1).min(n);
                    out.tokens.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line: tok_line,
                    });
                } else if j < n && ident_start(chars[j]) {
                    let mut k = j;
                    while k < n && ident_cont(chars[k]) {
                        k += 1;
                    }
                    if k < n && chars[k] == '\'' {
                        // 'x' — a one-ident-char char literal.
                        i = k + 1;
                        out.tokens.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line: tok_line,
                        });
                    } else {
                        let text: String = chars[j..k].iter().collect();
                        i = k;
                        out.tokens.push(Tok {
                            kind: TokKind::Lifetime,
                            text,
                            line: tok_line,
                        });
                    }
                } else {
                    // Punctuation char literal like '(' or '\'' handled
                    // above; here: '(' style.
                    let mut k = j;
                    while k < n && chars[k] != '\'' {
                        if chars[k] == '\n' {
                            line += 1;
                        }
                        k += 1;
                    }
                    i = (k + 1).min(n);
                    out.tokens.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line: tok_line,
                    });
                }
            }
            c if ident_start(c) => {
                let tok_line = line;
                let start = i;
                let mut j = i;
                while j < n && ident_cont(chars[j]) {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                // Raw / byte string prefixes: r"..", r#".."#, b"..",
                // br#".."#, and byte chars b'x'.
                let is_raw_prefix = matches!(text.as_str(), "r" | "br" | "rb");
                let is_byte_prefix = text == "b";
                if (is_raw_prefix || is_byte_prefix) && j < n {
                    if chars[j] == '"' {
                        i = if is_raw_prefix {
                            skip_raw_string(&chars, j, 0, &mut line)
                        } else {
                            skip_string(&chars, j + 1, &mut line)
                        };
                        out.tokens.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line: tok_line,
                        });
                        continue;
                    }
                    if is_raw_prefix && chars[j] == '#' {
                        let mut hashes = 0;
                        let mut k = j;
                        while k < n && chars[k] == '#' {
                            hashes += 1;
                            k += 1;
                        }
                        if k < n && chars[k] == '"' {
                            i = skip_raw_string(&chars, k, hashes, &mut line);
                            out.tokens.push(Tok {
                                kind: TokKind::Lit,
                                text: String::new(),
                                line: tok_line,
                            });
                            continue;
                        }
                        // `r#ident` — a raw identifier: one token, not
                        // Ident("r") + '#' + Ident("ident").
                        if text == "r" && hashes == 1 && k < n && ident_start(chars[k]) {
                            let mut m = k;
                            while m < n && ident_cont(chars[m]) {
                                m += 1;
                            }
                            let name: String = chars[k..m].iter().collect();
                            i = m;
                            out.tokens.push(Tok {
                                kind: TokKind::Ident,
                                text: format!("r#{name}"),
                                line: tok_line,
                            });
                            continue;
                        }
                    }
                    if is_byte_prefix && chars[j] == '\'' {
                        let mut k = j + 1;
                        if k < n && chars[k] == '\\' {
                            // Skip the backslash *and* the escaped char,
                            // so `b'\''` does not stop at the escaped
                            // quote and leak the real closing quote.
                            k += 2;
                        }
                        while k < n && chars[k] != '\'' {
                            k += 1;
                        }
                        i = (k + 1).min(n);
                        out.tokens.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line: tok_line,
                        });
                        continue;
                    }
                }
                i = j;
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line: tok_line,
                });
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                let start = i;
                let mut j = i;
                while j < n {
                    let d = chars[j];
                    if d == '.' {
                        // `1..n` is a range, not a float continuation.
                        if j + 1 < n && chars[j + 1] == '.' {
                            break;
                        }
                        // `1.max(2)` — method call on an integer.
                        if j + 1 < n && ident_start(chars[j + 1]) {
                            break;
                        }
                        j += 1;
                    } else if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Num,
                    text: chars[start..j].iter().collect(),
                    line: tok_line,
                });
                i = j;
            }
            c => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct(c),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Skips a normal (escapable) string body starting just after the
/// opening quote; returns the index just past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    while i < n {
        match chars[i] {
            // A line-continuation escape (`\` before a newline) still
            // advances the line counter.
            '\\' => {
                if i + 1 < n && chars[i + 1] == '\n' {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    n
}

/// Skips a raw string whose opening quote is at `i`, closed by a quote
/// followed by `hashes` `#`s; returns the index just past the close.
fn skip_raw_string(chars: &[char], i: usize, hashes: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut j = i + 1;
    while j < n {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0;
            while k < n && seen < hashes && chars[k] == '#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    n
}
