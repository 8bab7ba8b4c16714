//! Workspace call graph and per-function *direct* effect summaries.
//!
//! This is the first half of the interprocedural analysis (rules
//! R8/R9): walk every non-test `fn` body and record, from the token
//! stream alone,
//!
//! * which **lock classes** it acquires and what is already held at
//!   each acquisition (`host` for `lock_host(`/`lock_pair(`/
//!   `state.lock(`, the stripped helper name for `NAME_lock()` helpers, the last argument
//!   field for vc-serve's `shared.lock(&shared.FIELD)` pattern, and the
//!   receiver field for std `m.lock()`),
//! * which **simulator/oracle idents** it touches directly,
//! * which **blocking calls** it makes (`thread::sleep`, `.accept(`,
//!   channel `.recv(`, `.read_exact(`/`.read_to_end(`, and argument-less
//!   `.join()` — `Path::join`/`[T]::join` always take an argument), and
//! * every **call site** together with a snapshot of the guards live at
//!   that point.
//!
//! [`crate::summaries`] then propagates these bottom-up through the
//! call graph. Guards are scoped in text order: a `let`-bound guard
//! lives until its block closes or `drop(name)`, a statement temporary
//! until its statement ends. Two details matter. A method call *on* a
//! live named guard (`guard.release(..)`) is an access to the guarded
//! data, not a workspace call worth resolving by bare name. And an
//! acquisition whose result
//! chains into anything but a guard-preserving adapter
//! (`.unwrap`/`.expect`/`.unwrap_or_else`, or an enclosing wrapper call
//! like vc-sync's `recover(...)`) is a *statement temporary* even when a
//! `let` is open — `let Some(p) = m.lock(&m.registry).remove(&t)` binds
//! the removed value, not the guard. Condvar `wait`/`wait_timeout` are
//! neither acquisitions nor blocking: they atomically release the mutex
//! by design and hand the guard back.

use crate::analysis::SourceFile;
use crate::lexer::TokKind;

/// Identifiers that mean "the simulator/oracle is running".
const SIM_IDENTS: &[&str] = &["SimOracle", "InterferenceModel", "co_location_penalty"];

/// Guard-preserving call adapters: chaining through these keeps the
/// lock guard alive in the result.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Ubiquitous std method names that are never workspace calls worth
/// following — resolving them by bare name would wire `map.insert(..)`
/// to any workspace `fn insert` and drown the graph in false edges.
const IGNORED_CALLEES: &[&str] = &[
    "get", "get_mut", "insert", "remove", "push", "pop", "drain", "clear", "retain", "entry",
    "or_insert_with", "or_insert", "or_default", "clone", "collect", "iter", "iter_mut",
    "into_iter", "len", "is_empty", "contains", "contains_key", "expect", "unwrap", "unwrap_or",
    "unwrap_or_else", "unwrap_or_default", "map", "map_err", "and_then", "ok", "ok_or", "err",
    "min", "max", "abs", "floor", "ceil", "round", "powi", "powf", "sqrt", "saturating_sub",
    "saturating_add", "checked_sub", "checked_add", "wrapping_add", "to_string", "to_owned",
    "to_vec", "as_ref", "as_mut", "as_str", "as_slice", "as_bytes", "into", "from", "try_from",
    "try_into", "new", "default", "with_capacity", "extend", "append", "sort", "sort_by",
    "sort_by_key", "sort_unstable", "sort_unstable_by", "dedup", "first", "last", "next", "nth",
    "take", "skip", "zip", "rev", "chain", "filter", "filter_map", "flat_map", "flatten", "fold",
    "sum", "count", "any", "all", "find", "position", "enumerate", "windows", "chunks", "split",
    "split_at", "splitn", "join_paths", "starts_with", "ends_with", "trim", "parse", "fmt",
    "write", "write_str", "write_fmt", "read", "flush", "cmp", "partial_cmp", "eq", "ne", "hash",
    "copied", "cloned", "keys", "values", "values_mut", "is_some", "is_none", "is_ok", "is_err",
    "is_some_and", "is_none_or", "is_ok_and", "take_while", "skip_while", "min_by", "min_by_key",
    "max_by", "max_by_key", "get_or_init", "get_or_insert_with", "swap", "replace", "truncate",
    "resize", "binary_search", "binary_search_by", "partition_point", "to_le_bytes",
    "to_be_bytes", "from_le_bytes", "from_be_bytes", "set_nonblocking", "set_nodelay",
    "set_read_timeout", "set_write_timeout", "local_addr", "peer_addr", "try_clone", "args",
    "exit", "var", "spawn", "available_parallelism", "yield_now", "current", "id", "name",
    "field", "finish", "debug_struct", "entry_or", "min_positive", "mul_add", "clamp", "signum",
    "rem_euclid", "div_euclid", "leading_zeros", "trailing_zeros", "count_ones", "rotate_left",
    "rotate_right", "wrapping_mul", "checked_mul", "saturating_mul", "pow", "ilog2", "isqrt",
];

/// Rust keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "ref", "mut",
    "let", "fn", "pub", "use", "impl", "struct", "enum", "trait", "type", "where", "unsafe",
    "const", "static", "crate", "super", "dyn", "box", "break", "continue", "mod", "extern",
];

/// A lock guard live at some point in a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Held {
    /// Lock class (`host`, `locations`, `conns`, ...).
    pub class: String,
    /// Line of the acquisition inside this function.
    pub line: u32,
}

/// One lock acquisition with the context the rules need.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Lock class acquired.
    pub class: String,
    /// 1-based acquisition line.
    pub line: u32,
    /// Guards already held at the acquisition.
    pub under: Vec<Held>,
}

/// One direct simulator or blocking site.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// What ran (`SimOracle`, `thread::sleep`, ...).
    pub what: String,
    /// 1-based line of the site.
    pub line: u32,
    /// Guards live at the site.
    pub held: Vec<Held>,
}

/// One call site that may resolve to workspace functions.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (raw-identifier prefix stripped).
    pub callee: String,
    /// `Type` in a `Type::callee(` path call; `Self` already resolved
    /// to the surrounding impl type. `None` for method/free calls.
    pub qual: Option<String>,
    /// 1-based line of the call.
    pub line: u32,
    /// Guards live at the call.
    pub held: Vec<Held>,
}

/// One non-test function with its direct effects.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name (raw-identifier prefix stripped).
    pub name: String,
    /// Innermost `impl` type the definition sits in, when any.
    pub impl_type: Option<String>,
    /// Index into the linted file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Lock acquisitions in body order.
    pub acquires: Vec<Acquire>,
    /// Direct simulator sites in body order.
    pub sims: Vec<EffectSite>,
    /// Direct blocking sites in body order.
    pub blocks: Vec<EffectSite>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
}

/// A function definition's token extent.
#[derive(Debug, Clone)]
struct FnSpan {
    /// Function name (raw-identifier prefix stripped).
    pub name: String,
    /// Innermost `impl` type, when any.
    pub impl_type: Option<String>,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range `[open, close]` of the `{ ... }` body braces.
    pub body: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// True when `name` is a lock-acquisition primitive whose body must not
/// be traversed as a graph node (its callers model the acquisition).
pub fn is_lock_primitive(name: &str) -> bool {
    name == "lock" || name == "lock_host" || name.ends_with("_lock")
}

fn ident_name(toks: &[crate::lexer::Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.name())
        } else {
            None
        }
    })
}

/// Collects every `fn` definition span in `file`, with its innermost
/// `impl` type. Trait declarations without a body are skipped.
fn fn_spans(file: &SourceFile) -> Vec<FnSpan> {
    let toks = &file.lexed.tokens;
    // (type name, body token range) for every impl block, innermost
    // resolved by taking the latest containing range.
    let mut impls: Vec<(String, (usize, usize))> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // Header runs to the opening `{`; the type is the first
            // ident after `for` when present, else the first ident
            // after the (optional) generic intro.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                let mut ad = 0usize;
                while j < toks.len() {
                    if toks[j].is_punct('<') {
                        ad += 1;
                    } else if toks[j].is_punct('>') {
                        ad -= 1;
                        if ad == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let mut ty: Option<String> = None;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_ident("for") {
                    // `impl Trait for Type`: the ident collected so far
                    // was the trait; the type comes after `for`.
                    ty = None;
                } else if toks[j].kind == TokKind::Ident && ty.is_none() {
                    ty = Some(toks[j].name().to_string());
                }
                j += 1;
            }
            if let Some(ty) = ty {
                if let Some(close) = match_brace(toks, j) {
                    impls.push((ty, (j, close)));
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }

    let mut out = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        if !toks[k].is_ident("fn") {
            k += 1;
            continue;
        }
        let Some(name) = ident_name(toks, k + 1).map(str::to_string) else {
            k += 1;
            continue;
        };
        // Signature runs to the body `{` at zero paren/bracket depth; a
        // `;` first means a bodiless trait declaration.
        let mut j = k + 2;
        let mut pd = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => pd += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => pd -= 1,
                TokKind::Punct(';') if pd == 0 => break,
                TokKind::Punct('{') if pd == 0 => {
                    body_open = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            k = j.max(k + 1);
            continue;
        };
        let Some(close) = match_brace(toks, open) else {
            k += 1;
            continue;
        };
        let impl_type = impls
            .iter()
            .rfind(|(_, (a, b))| *a < k && k < *b)
            .map(|(ty, _)| ty.clone());
        out.push(FnSpan {
            name,
            impl_type,
            fn_tok: k,
            body: (open, close),
            line: toks[k].line,
        });
        k += 2;
    }
    out
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(toks: &[crate::lexer::Tok], open: usize) -> Option<usize> {
    if !toks.get(open)?.is_punct('{') {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Builds the effect table for every non-test, non-primitive function
/// across `files`. `files` must already be in deterministic order.
pub fn collect(files: &[SourceFile]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let spans = fn_spans(file);
        for span in &spans {
            if file.test.get(span.fn_tok).copied().unwrap_or(false) {
                continue;
            }
            if is_lock_primitive(&span.name) {
                continue;
            }
            out.push(scan_fn(file, fi, span, &spans));
        }
    }
    out
}

/// A live guard on the scanner stack.
struct Guard {
    class: String,
    /// Bound name, when the guard was let-bound (`drop(name)` kills it).
    name: Option<String>,
    /// Brace depth of the binding; dies when that block closes.
    depth: usize,
    /// Statement temporary: additionally dies at the next `;` at its
    /// depth, or when any block at its depth closes (for/match/if
    /// headers end their statement at the block's `}`).
    stmt: bool,
    born: u32,
}

/// Pending `let` statement state.
struct LetSt {
    /// Bound names, pattern order (`let (a, b) = ..` binds two).
    names: Vec<String>,
    seen_eq: bool,
    conditional: bool,
}

#[allow(clippy::too_many_lines)]
fn scan_fn(file: &SourceFile, fi: usize, span: &FnSpan, all: &[FnSpan]) -> FnInfo {
    let toks = &file.lexed.tokens;
    let (open, close) = span.body;
    let mut info = FnInfo {
        name: span.name.clone(),
        impl_type: span.impl_type.clone(),
        file: fi,
        line: span.line,
        acquires: Vec::new(),
        sims: Vec::new(),
        blocks: Vec::new(),
        calls: Vec::new(),
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut let_st: Option<LetSt> = None;

    let held = |guards: &[Guard]| -> Vec<Held> {
        guards
            .iter()
            .map(|g| Held {
                class: g.class.clone(),
                line: g.born,
            })
            .collect()
    };

    let mut i = open;
    while i <= close {
        // Skip nested named fns: their effects belong to their own node.
        if i > open && toks[i].is_ident("fn") {
            if let Some(inner) = all.iter().find(|s| s.fn_tok == i) {
                i = inner.body.1 + 1;
                continue;
            }
        }
        if file.test.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                // Guards born inside the closed block die; statement
                // temporaries at the *enclosing* depth die too — a block
                // closing back to their depth with no `;` in between
                // means the temp's own statement (a for/if/match header)
                // just ended.
                guards.retain(|g| g.depth <= depth && !(g.stmt && g.depth == depth));
                let_st = None;
            }
            TokKind::Punct(';') => {
                guards.retain(|g| !(g.stmt && g.depth == depth));
                let_st = None;
            }
            TokKind::Ident => {
                let text = t.text.as_str();
                if text == "let" {
                    let conditional =
                        i >= 1 && matches!(ident_name(toks, i - 1), Some("if") | Some("while"));
                    let_st = Some(LetSt {
                        names: Vec::new(),
                        seen_eq: false,
                        conditional,
                    });
                    i += 1;
                    continue;
                }
                if let Some(ls) = &mut let_st {
                    if !ls.seen_eq && !matches!(text, "mut" | "ref") {
                        ls.names.push(t.name().to_string());
                    }
                }

                let calls_next = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if !calls_next {
                    // Simulator *types* appear without a call too
                    // (`SimOracle::new`, a field of type `InterferenceModel`).
                    if SIM_IDENTS.contains(&text) || text.starts_with("simulate_") {
                        info.sims.push(EffectSite {
                            what: text.to_string(),
                            line: t.line,
                            held: held(&guards),
                        });
                    }
                    i += 1;
                    continue;
                }

                // From here: `ident (` — acquisition, blocking, sim, or
                // a plain call.
                let name = t.name().to_string();
                let is_method = i >= 1 && toks[i - 1].is_punct('.');
                let prev_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');

                if let Some(class) = acquisition_class(toks, i) {
                    info.acquires.push(Acquire {
                        class: class.clone(),
                        line: t.line,
                        under: held(&guards),
                    });
                    // Guard binding: follow the chain after the call.
                    let (bound, end) = guard_binding(toks, i);
                    let let_bound = let_st
                        .as_ref()
                        .filter(|ls| bound && ls.seen_eq && !ls.conditional);
                    if let (Some(ls), "lock_pair") = (let_bound, text) {
                        // `let (a, b) = lock_pair(..)`: one guard per
                        // bound name.
                        guards.extend(ls.names.iter().map(|n| Guard {
                            class: class.clone(),
                            name: Some(n.clone()),
                            depth,
                            stmt: false,
                            born: t.line,
                        }));
                        i = end;
                        continue;
                    }
                    let (name_opt, stmt) = if bound {
                        match let_bound {
                            Some(ls) => (ls.names.first().cloned(), false),
                            // `control = shared.lock(..)` re-assignment:
                            // rebinds the named guard.
                            _ => match assigned_name(toks, i) {
                                Some(n) => {
                                    guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
                                    (Some(n), false)
                                }
                                None => (None, true),
                            },
                        }
                    } else {
                        (None, true)
                    };
                    guards.push(Guard {
                        class,
                        name: name_opt,
                        depth,
                        stmt,
                        born: t.line,
                    });
                    i = end;
                    continue;
                }

                if SIM_IDENTS.contains(&text) || text.starts_with("simulate_") {
                    info.sims.push(EffectSite {
                        what: text.to_string(),
                        line: t.line,
                        held: held(&guards),
                    });
                    i += 1;
                    continue;
                }

                if let Some(what) = blocking_call(toks, i) {
                    info.blocks.push(EffectSite {
                        what,
                        line: t.line,
                        held: held(&guards),
                    });
                    i += 1;
                    continue;
                }

                if text == "drop"
                    && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
                {
                    if let Some(victim) = ident_name(toks, i + 2).map(str::to_string) {
                        guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
                    }
                    i += 4;
                    continue;
                }

                // Plain call site worth resolving? (`ident!(` macros
                // never get here: their `!` fails the `(`-next check.)
                let first_upper = name.chars().next().is_some_and(char::is_uppercase);
                let receiver = if is_method { ident_name(toks, i - 2) } else { None };
                let skip = first_upper
                    || KEYWORDS.contains(&name.as_str())
                    || IGNORED_CALLEES.contains(&name.as_str())
                    || matches!(name.as_str(), "wait" | "wait_timeout" | "publish" | "drop")
                    || is_lock_primitive(&name)
                    || matches!(receiver, Some("occ") | Some("residents"))
                    || receiver.is_some_and(|r| guards.iter().any(|g| g.name.as_deref() == Some(r)))
                    || is_atomic_call(toks, i, &name);
                if !skip {
                    let qual = if prev_path {
                        ident_name(toks, i.saturating_sub(3)).map(|q| {
                            if q == "Self" {
                                span.impl_type.clone().unwrap_or_else(|| "Self".into())
                            } else {
                                q.to_string()
                            }
                        })
                    } else {
                        None
                    };
                    info.calls.push(CallSite {
                        callee: name,
                        qual,
                        line: t.line,
                        held: held(&guards),
                    });
                }
            }
            TokKind::Punct('!') => {
                // `ident!(` macro: skip the bang so the macro name was
                // already handled as a non-call ident above.
            }
            TokKind::Punct('=') => {
                if let Some(ls) = &mut let_st {
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
    info
}

/// Lock class acquired by the call at token `i` (an ident followed by
/// `(`), or `None` when it is not an acquisition.
fn acquisition_class(toks: &[crate::lexer::Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    let name = t.name();
    if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    if name == "lock_host" || name == "lock_pair" {
        return Some("host".to_string());
    }
    if name.len() > 5 && name.ends_with("_lock") {
        return Some(name[..name.len() - 5].to_string());
    }
    if name != "lock" || i == 0 || !toks[i - 1].is_punct('.') {
        return None;
    }
    // `state.lock(` — the engine's per-host mutex field.
    if ident_name(toks, i.wrapping_sub(2)) == Some("state") {
        return Some("host".to_string());
    }
    // Walk the argument list: vc-serve's `shared.lock(&shared.FIELD)`
    // helper names the lock by its last argument field; std `m.lock()`
    // (no arguments) names it by the receiver field.
    let mut pd = 0usize;
    let mut j = i + 1;
    let mut last_arg_ident: Option<String> = None;
    let mut any_arg = false;
    while j < toks.len() {
        let a = &toks[j];
        if a.is_punct('(') {
            pd += 1;
        } else if a.is_punct(')') {
            pd -= 1;
            if pd == 0 {
                break;
            }
        } else {
            any_arg = true;
            if a.kind == TokKind::Ident {
                last_arg_ident = Some(a.name().to_string());
            }
        }
        j += 1;
    }
    if any_arg {
        last_arg_ident
    } else {
        ident_name(toks, i.wrapping_sub(2)).map(str::to_string)
    }
}

/// Follows the expression after the acquisition call at `i`. Returns
/// `(guard_preserved, resume_index)`: `guard_preserved` is false when
/// the chain continues into a non-adapter method or field access (the
/// guard is a statement temporary then, whatever the `let` binds).
fn guard_binding(toks: &[crate::lexer::Tok], i: usize) -> (bool, usize) {
    // `*self.lock(..)` deref-copy: find the chain start and check for `*`.
    let mut start = i;
    while start >= 2 && toks[start - 1].is_punct('.') && toks[start - 2].kind == TokKind::Ident {
        start -= 2;
    }
    let deref = start >= 1 && toks[start - 1].is_punct('*');

    // Skip the call's argument parens.
    let mut pd = 0usize;
    let mut j = i + 1;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            pd += 1;
        } else if toks[j].is_punct(')') {
            pd -= 1;
            if pd == 0 {
                j += 1;
                break;
            }
        }
        j += 1;
    }
    loop {
        // Pop enclosing wrapper calls (`recover(m.lock())`): the guard
        // rides along in the result.
        while toks.get(j).is_some_and(|t| t.is_punct(')')) {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_punct('.')) {
            let m = ident_name(toks, j + 1);
            match m {
                Some(m2) if GUARD_ADAPTERS.contains(&m2) => {
                    // Skip the adapter's parens (closure args included).
                    let mut k = j + 2;
                    if toks.get(k).is_some_and(|t| t.is_punct('(')) {
                        let mut ad = 0usize;
                        while k < toks.len() {
                            if toks[k].is_punct('(') {
                                ad += 1;
                            } else if toks[k].is_punct(')') {
                                ad -= 1;
                                if ad == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            k += 1;
                        }
                    }
                    j = k;
                    continue;
                }
                _ => return (false, j),
            }
        }
        return (!deref, j);
    }
}

/// When the acquisition chain sits on the RHS of a plain `name = ...`
/// re-assignment (no `let`), returns the assigned name.
fn assigned_name(toks: &[crate::lexer::Tok], i: usize) -> Option<String> {
    let mut start = i;
    while start >= 2 && toks[start - 1].is_punct('.') && toks[start - 2].kind == TokKind::Ident {
        start -= 2;
    }
    if start < 2 || !toks[start - 1].is_punct('=') {
        return None;
    }
    if toks[start - 2].is_punct('=') || toks[start - 2].is_punct('<') || toks[start - 2].is_punct('>')
    {
        return None;
    }
    ident_name(toks, start - 2).map(str::to_string)
}

/// True for `x.load(Ordering::..)`-style std atomic calls: the method
/// name is an atomic accessor *and* an `Ordering` variant appears in
/// the argument list. Workspace wrappers that happen to share a name
/// (vc-sync's `Slot::load(&self, &Domain)`) take no `Ordering` and
/// still resolve through the call graph.
fn is_atomic_call(toks: &[crate::lexer::Tok], i: usize, name: &str) -> bool {
    const ATOMIC_NAMES: &[&str] = &[
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
    if !ATOMIC_NAMES.contains(&name) {
        return false;
    }
    let mut pd = 0usize;
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            pd += 1;
        } else if t.is_punct(')') {
            pd -= 1;
            if pd == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "Ordering" | "SeqCst" | "Acquire" | "Release" | "Relaxed" | "AcqRel"
            )
        {
            return true;
        }
        j += 1;
    }
    false
}

/// Blocking-call classification at ident token `i` (already known to be
/// followed by `(`). Condvar `wait`/`wait_timeout` are deliberately
/// absent: they release the mutex while parked.
fn blocking_call(toks: &[crate::lexer::Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    let name = t.name();
    let dotted = i >= 1 && toks[i - 1].is_punct('.');
    match name {
        "sleep" => Some("thread::sleep".to_string()),
        "accept" if dotted => Some("listener accept".to_string()),
        "recv" | "recv_timeout" if dotted => Some("channel recv".to_string()),
        "read_exact" | "read_to_end" if dotted => Some("socket read".to_string()),
        // `JoinHandle::join` takes no arguments; `Path::join` and
        // `[T]::join` always take one.
        "join" if dotted && toks.get(i + 2).is_some_and(|n| n.is_punct(')')) => {
            Some("thread join".to_string())
        }
        _ => None,
    }
}

/// Resolves a call site to candidate indices in `fns`, deterministic
/// order. Qualified calls prefer same-`impl_type` candidates.
pub fn resolve(fns: &[FnInfo], call: &CallSite) -> Vec<usize> {
    let same_name: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.name == call.callee)
        .map(|(i, _)| i)
        .collect();
    if let Some(q) = &call.qual {
        let scoped: Vec<usize> = same_name
            .iter()
            .copied()
            .filter(|&i| fns[i].impl_type.as_deref() == Some(q.as_str()))
            .collect();
        if !scoped.is_empty() {
            return scoped;
        }
    }
    same_name
}
