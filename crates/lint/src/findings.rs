//! Finding and rule types shared by the rule passes and the CLI.

use std::fmt;

/// The enforced rule set. Ids are stable and never reused: R1/R3
/// (publish-before-unlock, id-ordered double lock) became `HostGuard`
/// and `lock_pair`; R2 folded into R9; R4 is the workspace
/// `unsafe_code` lint; R5 is clippy's panic family on `vc-serve`; R6
/// and R10 became the single-declaration wire codec plus two protocol
/// tests. `Marker` covers problems with the escape hatch itself (unused
/// or malformed allow markers), which are errors too — an allow that
/// suppresses nothing is a stale lie about the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// the `Relaxed` ordering only inside `crates/sync/src/` (where
    /// `vc_sync::Counter` wraps it for everyone else).
    R7,
    /// Static lock-order deadlock freedom: a lock class is never
    /// acquired while a guard of the same class is live — in one
    /// function or through a call chain (`lock_pair`'s id-ordered pair
    /// is the single allowed site) — and the cross-function lock-order
    /// graph is acyclic.
    R8,
    /// Effect hygiene under locks: the simulator never runs while a
    /// host lock is held — directly or through any call chain — and no
    /// blocking call (sleep, accept, channel/socket reads, thread join)
    /// runs under any lock guard.
    R9,
    /// Unused or malformed allow marker.
    Marker,
}

impl Rule {
    /// Stable rule id used in output and allow markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
            Rule::Marker => "marker",
        }
    }

    /// Parses a stable rule id (`R9`, `marker`) back into the rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line rule name for the per-rule summary.
    pub fn name(self) -> &'static str {
        match self {
            Rule::R7 => "atomic-ordering-policy",
            Rule::R8 => "lock-order-acyclicity",
            Rule::R9 => "effects-under-lock",
            Rule::Marker => "allow-marker-hygiene",
        }
    }

    /// All rules, in reporting order.
    pub const ALL: [Rule; 4] = [Rule::R7, Rule::R8, Rule::R9, Rule::Marker];
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
