//! Finding and rule types shared by the rule passes and the CLI.

use std::fmt;

/// The enforced rule set. Ids are stable: R1 (publish-before-unlock)
/// and R3 (id-ordered double lock) were retired when `HostGuard` and
/// `lock_pair` made them structural. `Marker` covers problems with the escape
/// hatch itself (unused or malformed allow markers), which are errors
/// too — an allow that suppresses nothing is a stale lie about the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No simulator/oracle calls while a host guard is live.
    R2,
    /// `unsafe` is confined to `crates/sync/src/slot.rs`; other crate
    /// roots must `#![forbid(unsafe_code)]`.
    R4,
    /// No `unwrap`/`expect`/`panic!`/slice-indexing in `vc-serve`
    /// non-test code.
    R5,
    /// Every rpc `Request`/`Response` variant has an encode arm, a
    /// decode arm, and a proptest generator.
    R6,
    /// `Ordering::Relaxed` only on allowlisted counter fields.
    R7,
    /// Static lock-order deadlock freedom: a lock class is never
    /// acquired while a guard of the same class is live — in one
    /// function or through a call chain (`lock_pair`'s id-ordered pair
    /// is the single allowed site) — and the cross-function lock-order
    /// graph is acyclic.
    R8,
    /// Transitive effect hygiene: no call chain reaches the simulator
    /// while a host lock is held, and no blocking call (sleep, accept,
    /// channel/socket reads, thread join) runs under any lock guard.
    R9,
    /// Wire↔docs drift: the rpc request/response tag table must match
    /// the one documented in ARCHITECTURE.md.
    R10,
    /// Unused or malformed allow marker.
    Marker,
}

impl Rule {
    /// Stable rule id used in output and allow markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::R2 => "R2",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
            Rule::Marker => "marker",
        }
    }

    /// Parses a stable rule id (`R5`, `marker`) back into the rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line rule name for the per-rule summary.
    pub fn name(self) -> &'static str {
        match self {
            Rule::R2 => "no-sim-under-lock",
            Rule::R4 => "unsafe-confinement",
            Rule::R5 => "no-panic-in-serve",
            Rule::R6 => "wire-tag-drift",
            Rule::R7 => "atomic-ordering-policy",
            Rule::R8 => "lock-order-acyclicity",
            Rule::R9 => "transitive-effects-under-lock",
            Rule::R10 => "wire-docs-drift",
            Rule::Marker => "allow-marker-hygiene",
        }
    }

    /// All rules, in reporting order.
    pub const ALL: [Rule; 9] = [
        Rule::R2,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
        Rule::R9,
        Rule::R10,
        Rule::Marker,
    ];
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (the fixture `path(...)` pragma, when
    /// present, overrides the on-disk location).
    pub file: String,
    /// 1-based line the violation is reported at.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// The offending scope trace: how the scanner got here (guard
    /// acquisitions, mutation sites), innermost last.
    pub trace: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )?;
        for step in &self.trace {
            write!(f, "\n    = {step}")?;
        }
        Ok(())
    }
}
