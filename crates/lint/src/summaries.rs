//! Bottom-up effect propagation and the interprocedural rules R8/R9.
//!
//! [`crate::graph`] gives every non-test function its *direct* effects;
//! this pass closes them over the call graph with a deterministic
//! fixed-point iteration (functions in collection order, call sites in
//! body order, first discovery wins the representative trace), widening
//! recursion conservatively — a cycle simply stops adding new effects
//! once the sets saturate.
//!
//! On top of the transitive summaries:
//!
//! * **R8** — acquiring a lock class while a guard of the same class is
//!   live is a deadlock-in-waiting, whether the second acquisition sits
//!   in the same function or down a call chain (the engine's
//!   `lock_pair`, which orders two host locks by machine id, is the one
//!   allow-marked site), and the cross-class lock-order digraph (direct
//!   nestings plus call-boundary nestings) must be acyclic.
//! * **R9** — a simulator ident reached while a `host` guard is live,
//!   or a blocking call while *any* lock guard is live — at the site
//!   itself (a one-frame trace) or through any call chain.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::SourceFile;
use crate::findings::{Finding, Rule};
use crate::graph::{self, FnInfo};

/// Transitive effect summary for one function.
#[derive(Default, Clone)]
struct Summary {
    /// Lock class -> representative trace of frames from this function
    /// down to the acquisition site.
    acquires: BTreeMap<String, Vec<String>>,
    /// Simulator ident -> representative trace down to the sim site.
    sims: BTreeMap<String, Vec<String>>,
    /// Blocking kind -> representative trace down to the blocking site.
    blocks: BTreeMap<String, Vec<String>>,
}

fn site(files: &[SourceFile], fi: usize, line: u32) -> String {
    format!("{}:{}", files[fi].path, line)
}

/// Runs the interprocedural rules over the whole file set, appending
/// raw findings (allow markers are applied later, per file).
pub fn check_workspace(files: &[SourceFile], out: &mut Vec<Finding>) {
    let fns = graph::collect(files);
    let summaries = fixed_point(files, &fns);
    check_reacquire_and_effects(files, &fns, &summaries, out);
    check_lock_order_cycles(files, &fns, &summaries, out);
}

/// Closes direct effects over the call graph. Monotone (sets only
/// grow), so iteration terminates; recursion widens conservatively.
fn fixed_point(files: &[SourceFile], fns: &[FnInfo]) -> Vec<Summary> {
    let mut sums: Vec<Summary> = fns
        .iter()
        .map(|f| {
            let mut s = Summary::default();
            for a in &f.acquires {
                s.acquires.entry(a.class.clone()).or_insert_with(|| {
                    vec![format!(
                        "acquires `{}` lock at {}",
                        a.class,
                        site(files, f.file, a.line)
                    )]
                });
            }
            for sim in &f.sims {
                s.sims.entry(sim.what.clone()).or_insert_with(|| {
                    vec![format!(
                        "`{}` invoked at {}",
                        sim.what,
                        site(files, f.file, sim.line)
                    )]
                });
            }
            for b in &f.blocks {
                s.blocks.entry(b.what.clone()).or_insert_with(|| {
                    vec![format!("{} at {}", b.what, site(files, f.file, b.line))]
                });
            }
            s
        })
        .collect();

    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for call in &fns[i].calls {
                for j in graph::resolve(fns, call) {
                    if j == i {
                        continue;
                    }
                    let callee_sum = sums[j].clone();
                    let frame = format!(
                        "calls `{}` at {}",
                        call.callee,
                        site(files, fns[i].file, call.line)
                    );
                    let s = &mut sums[i];
                    for (k, trace) in callee_sum.acquires {
                        s.acquires.entry(k).or_insert_with(|| {
                            changed = true;
                            prepend(&frame, &trace)
                        });
                    }
                    for (k, trace) in callee_sum.sims {
                        s.sims.entry(k).or_insert_with(|| {
                            changed = true;
                            prepend(&frame, &trace)
                        });
                    }
                    for (k, trace) in callee_sum.blocks {
                        s.blocks.entry(k).or_insert_with(|| {
                            changed = true;
                            prepend(&frame, &trace)
                        });
                    }
                }
            }
        }
        if !changed {
            return sums;
        }
    }
}

fn prepend(frame: &str, trace: &[String]) -> Vec<String> {
    let mut v = Vec::with_capacity(trace.len() + 1);
    v.push(frame.to_string());
    v.extend(trace.iter().cloned());
    v
}

/// R8 same-class re-acquisition and R9 sim/blocking under guards, each
/// at the site itself and via call chains.
fn check_reacquire_and_effects(
    files: &[SourceFile],
    fns: &[FnInfo],
    sums: &[Summary],
    out: &mut Vec<Finding>,
) {
    for f in fns {
        // Direct re-acquisition of a class already held.
        for a in &f.acquires {
            if let Some(h) = a.under.iter().find(|h| h.class == a.class) {
                out.push(Finding {
                    file: files[f.file].path.clone(),
                    line: a.line,
                    rule: Rule::R8,
                    message: format!(
                        "`{}` lock acquired while a `{}` guard is already held",
                        a.class, a.class
                    ),
                    trace: with_held_frame(files, f.file, h, &[]),
                });
            }
        }
        // Direct simulator use under a host guard.
        for sim in &f.sims {
            if let Some(h) = sim.held.iter().find(|h| h.class == "host") {
                out.push(Finding {
                    file: files[f.file].path.clone(),
                    line: sim.line,
                    rule: Rule::R9,
                    message: format!("`{}` used while a host lock is held", sim.what),
                    trace: with_held_frame(files, f.file, h, &[]),
                });
            }
        }
        // Direct blocking under any guard.
        for b in &f.blocks {
            if let Some(h) = b.held.first() {
                out.push(Finding {
                    file: files[f.file].path.clone(),
                    line: b.line,
                    rule: Rule::R9,
                    message: format!(
                        "blocking call ({}) while the `{}` lock is held",
                        b.what, h.class
                    ),
                    trace: with_held_frame(files, f.file, h, &[]),
                });
            }
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            // Union over candidates, deterministic: first candidate
            // providing each effect wins the trace.
            let mut reacquired: BTreeSet<String> = BTreeSet::new();
            let mut sim_hit = false;
            let mut block_hit: BTreeSet<String> = BTreeSet::new();
            for j in graph::resolve(fns, call) {
                let frame = format!(
                    "calls `{}` at {}",
                    call.callee,
                    site(files, f.file, call.line)
                );
                for h in &call.held {
                    if let Some(trace) = sums[j].acquires.get(&h.class) {
                        if reacquired.insert(h.class.clone()) {
                            out.push(Finding {
                                file: files[f.file].path.clone(),
                                line: call.line,
                                rule: Rule::R8,
                                message: format!(
                                    "call chain re-acquires the `{}` lock while a `{}` guard \
                                     is already held",
                                    h.class, h.class
                                ),
                                trace: with_held_frame(files, f.file, h, &prepend(&frame, trace)),
                            });
                        }
                    }
                }
                let host_held = call.held.iter().find(|h| h.class == "host");
                if !sim_hit {
                    if let Some(h) = host_held {
                        if let Some((what, trace)) = sums[j].sims.first_key_value() {
                            sim_hit = true;
                            out.push(Finding {
                                file: files[f.file].path.clone(),
                                line: call.line,
                                rule: Rule::R9,
                                message: format!(
                                    "call chain reaches the simulator (`{what}`) while a host \
                                     lock is held"
                                ),
                                trace: with_held_frame(files, f.file, h, &prepend(&frame, trace)),
                            });
                        }
                    }
                }
                if let Some(h) = call.held.first() {
                    if let Some((what, trace)) = sums[j].blocks.first_key_value() {
                        if block_hit.insert(what.clone()) {
                            out.push(Finding {
                                file: files[f.file].path.clone(),
                                line: call.line,
                                rule: Rule::R9,
                                message: format!(
                                    "call chain reaches a blocking call ({what}) while the \
                                     `{}` lock is held",
                                    h.class
                                ),
                                trace: with_held_frame(files, f.file, h, &prepend(&frame, trace)),
                            });
                        }
                    }
                }
            }
        }
    }
}

fn with_held_frame(
    files: &[SourceFile],
    fi: usize,
    held: &crate::graph::Held,
    rest: &[String],
) -> Vec<String> {
    let mut v = vec![format!(
        "`{}` lock acquired at {}",
        held.class,
        site(files, fi, held.line)
    )];
    v.extend(rest.iter().cloned());
    v
}

/// Builds the cross-class lock-order digraph and reports each cycle
/// once. Same-class nestings never land here: they are the
/// re-acquisition check's.
fn check_lock_order_cycles(
    files: &[SourceFile],
    fns: &[FnInfo],
    sums: &[Summary],
    out: &mut Vec<Finding>,
) {
    // (held, acquired) -> (finding anchor, trace), first site wins.
    let mut edges: BTreeMap<(String, String), (String, u32, Vec<String>)> = BTreeMap::new();
    for f in fns {
        for a in &f.acquires {
            for h in &a.under {
                if h.class == a.class {
                    continue;
                }
                edges
                    .entry((h.class.clone(), a.class.clone()))
                    .or_insert_with(|| {
                        (
                            files[f.file].path.clone(),
                            a.line,
                            vec![
                                format!(
                                    "`{}` lock acquired at {}",
                                    h.class,
                                    site(files, f.file, h.line)
                                ),
                                format!(
                                    "acquires `{}` lock at {}",
                                    a.class,
                                    site(files, f.file, a.line)
                                ),
                            ],
                        )
                    });
            }
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            for j in graph::resolve(fns, call) {
                for (class, trace) in &sums[j].acquires {
                    for h in &call.held {
                        if h.class == *class {
                            continue;
                        }
                        let frame = format!(
                            "calls `{}` at {}",
                            call.callee,
                            site(files, f.file, call.line)
                        );
                        edges
                            .entry((h.class.clone(), class.clone()))
                            .or_insert_with(|| {
                                (
                                    files[f.file].path.clone(),
                                    call.line,
                                    with_held_frame(files, f.file, h, &prepend(&frame, trace)),
                                )
                            });
                    }
                }
            }
        }
    }

    // Cycle detection over the class digraph: for each node in sorted
    // order, DFS; report one finding per distinct cycle (canonical form
    // = rotation starting at its lexicographically-least node).
    let adj: BTreeMap<&str, Vec<&str>> = {
        let mut m: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            m.entry(from.as_str()).or_default().push(to.as_str());
        }
        m
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys() {
        let mut stack: Vec<&str> = vec![start];
        dfs_cycles(start, &adj, &mut stack, &mut reported, &edges, out);
    }
}

fn dfs_cycles<'a>(
    node: &str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    stack: &mut Vec<&'a str>,
    reported: &mut BTreeSet<Vec<String>>,
    edges: &BTreeMap<(String, String), (String, u32, Vec<String>)>,
    out: &mut Vec<Finding>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if let Some(pos) = stack.iter().position(|&n| n == next) {
            // Cycle: stack[pos..] + back to next. Canonicalize.
            let cycle: Vec<String> = stack[pos..].iter().map(|s| (*s).to_string()).collect();
            let least = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.as_str())
                .map_or(0, |(i, _)| i);
            let mut canon = cycle[least..].to_vec();
            canon.extend_from_slice(&cycle[..least]);
            if reported.insert(canon.clone()) {
                let mut trace = Vec::new();
                for w in 0..canon.len() {
                    let from = &canon[w];
                    let to = &canon[(w + 1) % canon.len()];
                    if let Some((file, line, etrace)) =
                        edges.get(&(from.clone(), to.clone()))
                    {
                        trace.push(format!(
                            "edge `{from}` -> `{to}` established at {file}:{line}:"
                        ));
                        trace.extend(etrace.iter().map(|s| format!("  {s}")));
                    }
                }
                let anchor = edges
                    .get(&(
                        canon[0].clone(),
                        canon.get(1).cloned().unwrap_or_else(|| canon[0].clone()),
                    ))
                    .cloned();
                if let Some((file, line, _)) = anchor {
                    let mut order = canon.clone();
                    order.push(canon[0].clone());
                    out.push(Finding {
                        file,
                        line,
                        rule: Rule::R8,
                        message: format!(
                            "lock-order cycle across functions: {}",
                            order
                                .iter()
                                .map(|c| format!("`{c}`"))
                                .collect::<Vec<_>>()
                                .join(" -> ")
                        ),
                        trace,
                    });
                }
            }
            continue;
        }
        stack.push(next);
        dfs_cycles(next, adj, stack, reported, edges, out);
        stack.pop();
    }
}
