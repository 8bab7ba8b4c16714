//! The per-file rule passes: R2's guard-scope scanner and the
//! independent token passes R4–R7. All of them are linear text-order
//! heuristics — no control-flow graph — which is exactly the level the
//! workspace's conventions are written to.

use crate::analysis::SourceFile;
use crate::findings::{Finding, Rule};
use crate::lexer::TokKind;

/// Workspace-level inputs some rules need beyond the file itself.
#[derive(Default)]
pub struct Ctx {
    /// Contents of `crates/serve/tests/protocol.rs` when linting the
    /// whole workspace: R6 additionally requires a proptest generator
    /// reference for every wire variant. `None` in single-file mode.
    pub generator_src: Option<String>,
    /// `(path label, contents)` of the documented wire-tag table
    /// (ARCHITECTURE.md in workspace mode; a sibling `.md` for R10
    /// fixtures). `None` disables R10.
    pub docs: Option<(String, String)>,
}

/// Counter fields where `Ordering::Relaxed` is sound: monotonic
/// diagnostics nothing synchronizes on. Publication atomics (summary
/// bits, sketch tables, slot pointers, QSBR epochs) are deliberately
/// absent — those must be Release/Acquire or stronger, and a `Relaxed`
/// on any other receiver is an R7 finding.
const RELAXED_COUNTERS: &[&str] = &[
    // vc-engine: serving-path and cache telemetry.
    "snapshot_published",
    "snapshot_loads",
    "snapshot_stale_retries",
    "host_lock_acquisitions",
    "lock_poison_recoveries",
    "rebalance_passes",
    "releases",
    "release_failures",
    "evaluations",
    "offers",
    "interference_blocked",
    "summary_skips",
    "summary_admits",
    "summary_stale",
    "sketch_skips",
    "sketch_admits",
    "sketch_stale",
    "next_ticket",
    "lookups",
    "computes",
    "evictions",
    "tick",
    "hits",
    "calls",
    "GENERATIONS",
    // vc-serve: connection/request telemetry.
    "requests",
    "connections",
    "protocol_errors",
    // vc-policy contended scenario counters.
    "stop",
    "passes",
    "migrations",
    // vc-sync: reclamation diagnostics and owner-thread-only state.
    "retired",
    "reclaimed",
    "depth",
    "NEXT_DOMAIN_ID",
    "seq",
];

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Identifiers that mean "the simulator/oracle is running" (rule R2).
const SIM_IDENTS: &[&str] = &["SimOracle", "InterferenceModel", "co_location_penalty"];

/// The one module allowed to contain `unsafe` (rule R4).
const UNSAFE_HOME: &str = "crates/sync/src/slot.rs";

/// Runs every rule over one file. Returned findings are raw — allow
/// markers are applied by [`crate::analysis::finalize`].
pub fn check_file(file: &SourceFile, ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    scan_guards(file, &mut out);
    check_unsafe(file, &mut out);
    check_serve_panics(file, &mut out);
    check_wire_variants(file, ctx, &mut out);
    check_atomics(file, &mut out);
    out
}

fn finding(file: &SourceFile, line: u32, rule: Rule, message: String) -> Finding {
    Finding {
        file: file.path.clone(),
        line,
        rule,
        message,
        trace: Vec::new(),
    }
}

/// One live host-lock guard on the scanner stack.
struct Root {
    name: String,
    /// Brace depth the binding was created at; dies when that block
    /// closes.
    depth: usize,
    /// Statement-scoped temporary (guard never bound to a name): dies
    /// at the next `;` at its depth.
    stmt: bool,
    /// Line of the acquisition.
    born: u32,
}

/// Collection state for a `let` statement, used to name guards.
struct LetState {
    depth: usize,
    lhs: Vec<String>,
    seen_eq: bool,
    /// `if let` / `while let` / `let ... else` never bind guards we
    /// track past their own expression, but plain `let` does.
    conditional: bool,
}

/// R2: tracks live host guards in text order and flags simulator
/// idents used under one.
fn scan_guards(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let mut roots: Vec<Root> = Vec::new();
    let mut depth = 0usize;
    let mut let_state: Option<LetState> = None;

    let ident_at = |i: usize| -> Option<&str> {
        toks.get(i).and_then(|t| {
            if t.kind == TokKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let in_test = file.test.get(i).copied().unwrap_or(false);
        match t.kind {
            TokKind::Punct('{') => {
                depth += 1;
            }
            TokKind::Punct('}') => {
                roots.retain(|r| r.depth < depth);
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct(';') => {
                roots.retain(|r| !(r.stmt && r.depth == depth));
                if let_state.as_ref().is_some_and(|ls| ls.depth == depth) {
                    let_state = None;
                }
            }
            TokKind::Ident => {
                let text = t.text.as_str();
                if text == "let" {
                    let conditional =
                        i >= 1 && matches!(ident_at(i - 1), Some("if") | Some("while"));
                    let_state = Some(LetState {
                        depth,
                        lhs: Vec::new(),
                        seen_eq: false,
                        conditional,
                    });
                    i += 1;
                    continue;
                }

                // LHS collection for an open let.
                if let Some(ls) = &mut let_state {
                    if !ls.seen_eq && !matches!(text, "mut" | "ref" | "let") {
                        ls.lhs.push(text.to_string());
                    }
                }

                // Host-guard acquisition: `lock_host(`, `lock_pair(` or
                // `state.lock(`.
                let calls_next = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                let acquires = !in_test
                    && calls_next
                    && (matches!(text, "lock_host" | "lock_pair")
                        || (text == "lock"
                            && i >= 2
                            && toks[i - 1].is_punct('.')
                            && ident_at(i - 2) == Some("state")));
                if acquires {
                    let (name, stmt) = match &let_state {
                        Some(ls) if ls.seen_eq && !ls.conditional => (
                            ls.lhs
                                .first()
                                .cloned()
                                .unwrap_or_else(|| "<pattern>".to_string()),
                            false,
                        ),
                        _ => ("<temp>".to_string(), true),
                    };
                    roots.push(Root {
                        name,
                        depth,
                        stmt,
                        born: t.line,
                    });
                }

                if !roots.is_empty() && !in_test {
                    if SIM_IDENTS.contains(&text) || text.starts_with("simulate_") {
                        let held: Vec<String> = roots
                            .iter()
                            .map(|r| format!("`{}` held since line {}", r.name, r.born))
                            .collect();
                        out.push(Finding {
                            file: file.path.clone(),
                            line: t.line,
                            rule: Rule::R2,
                            message: format!("`{text}` used while a host lock is held"),
                            trace: held,
                        });
                    }
                    if text == "drop"
                        && calls_next
                        && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
                    {
                        if let Some(victim) = ident_at(i + 2) {
                            roots.retain(|r| r.name != victim);
                        }
                    }
                }
            }
            TokKind::Punct('=') => {
                if let Some(ls) = &mut let_state {
                    // `=` but not `==` / `=>` / `<=` etc.
                    let next_eq = toks.get(i + 1).is_some_and(|n| n.is_punct('='));
                    let next_gt = toks.get(i + 1).is_some_and(|n| n.is_punct('>'));
                    let prev_cmp = i >= 1
                        && matches!(
                            toks[i - 1].kind,
                            TokKind::Punct('=')
                                | TokKind::Punct('!')
                                | TokKind::Punct('<')
                                | TokKind::Punct('>')
                        );
                    if !next_eq && !next_gt && !prev_cmp {
                        ls.seen_eq = true;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// R4: `unsafe` confinement plus the crate-root hygiene attribute.
fn check_unsafe(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path != UNSAFE_HOME {
        for t in &file.lexed.tokens {
            if t.is_ident("unsafe") {
                out.push(finding(
                    file,
                    t.line,
                    Rule::R4,
                    format!("`unsafe` outside `{UNSAFE_HOME}`"),
                ));
            }
        }
    }
    let is_crate_root = file.path == "src/lib.rs" || file.path.ends_with("/src/lib.rs");
    if !is_crate_root {
        return;
    }
    if file.path.starts_with("crates/sync/") {
        // vc-sync cannot forbid unsafe (slot.rs is the point); it must
        // deny unsafe_op_in_unsafe_fn instead.
        if !file
            .lexed
            .tokens
            .iter()
            .any(|t| t.is_ident("unsafe_op_in_unsafe_fn"))
        {
            out.push(finding(
                file,
                1,
                Rule::R4,
                "vc-sync crate root must `#![deny(unsafe_op_in_unsafe_fn)]`".to_string(),
            ));
        }
        return;
    }
    let toks = &file.lexed.tokens;
    let mut has_forbid = false;
    for i in 0..toks.len() {
        if toks[i].is_ident("forbid") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(')') {
                if toks[j].is_ident("unsafe_code") {
                    has_forbid = true;
                }
                j += 1;
            }
        }
    }
    if !has_forbid {
        out.push(finding(
            file,
            1,
            Rule::R4,
            "crate root missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

/// R5: panic-free serving path in `crates/serve/src`.
fn check_serve_panics(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.in_serve_src() {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                let text = t.text.as_str();
                if (text == "unwrap" || text == "expect")
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                {
                    out.push(finding(
                        file,
                        t.line,
                        Rule::R5,
                        format!("`.{text}()` on the serving path can panic"),
                    ));
                } else if matches!(text, "panic" | "unreachable" | "todo" | "unimplemented")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    out.push(finding(
                        file,
                        t.line,
                        Rule::R5,
                        format!("`{text}!` on the serving path"),
                    ));
                }
            }
            TokKind::Punct('[') => {
                // Slice/array indexing: `expr[..]` where expr ends in an
                // identifier, `)`, `]` or `?`. Attribute brackets (`#[`),
                // macro brackets (`vec![`), array literals, and slice
                // types (`&mut [u8]`, `dyn [..]`, `impl [..]`) all have
                // a different preceding token.
                let prev_is_type_keyword = i >= 1
                    && toks[i - 1].kind == TokKind::Ident
                    && matches!(toks[i - 1].text.as_str(), "mut" | "dyn" | "impl" | "as");
                if i >= 1
                    && !prev_is_type_keyword
                    && (toks[i - 1].kind == TokKind::Ident
                        || matches!(
                            toks[i - 1].kind,
                            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('?')
                        ))
                {
                    out.push(finding(
                        file,
                        t.line,
                        Rule::R5,
                        "slice/array index on the serving path can panic (use `.get()`)"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// R6: every wire `Request`/`Response` variant has an encode arm, a
/// decode arm, and (workspace mode) a proptest generator.
fn check_wire_variants(file: &SourceFile, ctx: &Ctx, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let mut i = 0usize;
    // (enum name, variant name, line, enum token range)
    let mut variants: Vec<(String, String, u32)> = Vec::new();
    let mut enum_ranges: Vec<(usize, usize)> = Vec::new();
    while i < toks.len() {
        if !toks[i].is_ident("enum") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let ename = name.text.clone();
        if ename != "Request" && ename != "Response" {
            i += 2;
            continue;
        }
        // Find the enum body and collect depth-1 variant names.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let open = j;
        let mut bd = 0usize;
        let mut pd = 0usize;
        let mut prev_sig: Option<char> = None;
        while j < toks.len() {
            let t = &toks[j];
            match t.kind {
                TokKind::Punct('{') => {
                    bd += 1;
                    prev_sig = Some('{');
                }
                TokKind::Punct('}') => {
                    bd -= 1;
                    if bd == 0 {
                        break;
                    }
                    prev_sig = Some('}');
                }
                TokKind::Punct('(') => {
                    pd += 1;
                    prev_sig = Some('(');
                }
                TokKind::Punct(')') => {
                    pd -= 1;
                    prev_sig = Some(')');
                }
                TokKind::Punct(',') => prev_sig = Some(','),
                // Attributes between variants don't interrupt the
                // `{`/`,` → variant expectation.
                TokKind::Punct('#') | TokKind::Punct('[') | TokKind::Punct(']') => {}
                TokKind::Ident if bd == 1 && pd == 0 => {
                    if matches!(prev_sig, Some('{') | Some(','))
                        && t.text.chars().next().is_some_and(char::is_uppercase)
                    {
                        variants.push((ename.clone(), t.text.clone(), t.line));
                    }
                    prev_sig = None;
                }
                _ => prev_sig = None,
            }
            j += 1;
        }
        enum_ranges.push((open, j));
        i = j + 1;
    }
    if variants.is_empty() {
        return;
    }
    // Count `Enum::Variant` references outside the enum bodies.
    for (ename, vname, line) in &variants {
        let mut refs = 0usize;
        for k in 0..toks.len() {
            if enum_ranges.iter().any(|(a, b)| k >= *a && k <= *b) {
                continue;
            }
            if toks[k].is_ident(ename)
                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 3).is_some_and(|t| t.is_ident(vname))
            {
                refs += 1;
            }
        }
        if refs < 2 {
            out.push(finding(
                file,
                *line,
                Rule::R6,
                format!(
                    "wire variant `{ename}::{vname}` referenced {refs}x outside its enum — \
                     needs both an encode arm and a decode arm"
                ),
            ));
        }
        if let Some(generators) = &ctx.generator_src {
            if !contains_variant_ref(generators, ename, vname) {
                out.push(finding(
                    file,
                    *line,
                    Rule::R6,
                    format!(
                        "wire variant `{ename}::{vname}` has no proptest generator in \
                         crates/serve/tests/protocol.rs"
                    ),
                ));
            }
        }
    }
}

/// Word-boundary search for `Enum::Variant` (so `Request::Place` does
/// not match `Request::PlaceBatch`).
fn contains_variant_ref(hay: &str, ename: &str, vname: &str) -> bool {
    let needle = format!("{ename}::{vname}");
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(&needle) {
        let end = from + pos + needle.len();
        let boundary = hay[end..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// R7: `Ordering::Relaxed` only on allowlisted counters.
fn check_atomics(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    // Innermost-pending atomic calls: (receiver, paren depth at entry).
    let mut pending: Vec<(String, usize, u32)> = Vec::new();
    let mut pd = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('(') => pd += 1,
            TokKind::Punct(')') => {
                pd = pd.saturating_sub(1);
                pending.retain(|(_, d, _)| *d <= pd);
            }
            TokKind::Ident => {
                if ATOMIC_METHODS.contains(&t.text.as_str())
                    && i >= 2
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    let recv = match toks[i - 2].kind {
                        TokKind::Ident => toks[i - 2].text.clone(),
                        _ => "<expr>".to_string(),
                    };
                    // Entry depth = depth *inside* the call's parens.
                    pending.push((recv, pd + 1, t.line));
                }
                if t.is_ident("Ordering")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("Relaxed"))
                    && !file.test.get(i).copied().unwrap_or(false)
                {
                    match pending.last() {
                        Some((recv, _, _)) if RELAXED_COUNTERS.contains(&recv.as_str()) => {}
                        Some((recv, _, call_line)) => {
                            let line = toks[i + 3].line;
                            out.push(Finding {
                                file: file.path.clone(),
                                line,
                                rule: Rule::R7,
                                message: format!(
                                    "`Ordering::Relaxed` on `{recv}` — not an allowlisted \
                                     counter; publication atomics need Release/Acquire"
                                ),
                                trace: vec![format!(
                                    "atomic call on `{recv}` starts on line {call_line}"
                                )],
                            });
                        }
                        None => {
                            out.push(finding(
                                file,
                                toks[i + 3].line,
                                Rule::R7,
                                "`Ordering::Relaxed` outside a recognized atomic call"
                                    .to_string(),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }
}
