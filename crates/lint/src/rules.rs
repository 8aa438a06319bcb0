//! The rule registry: every check `emts-lint` can perform, with a stable
//! id, a severity and a category.
//!
//! Rules are compile-time constants — the registry is the single source of
//! truth for the rule catalogue table in `DESIGN.md` §10 and for the
//! `--deny` severity gate. Rule ids are stable across releases; suppression
//! comments (`// lint:allow(rule-id)`) and baselines reference them by id.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but not actionable on its own.
    Info,
    /// A smell or a latent problem; gates CI under `--deny warning`.
    Warning,
    /// A broken invariant — the artifact or source is wrong.
    Error,
}

impl Severity {
    /// Parses `error` / `warning` / `info` (case-insensitive).
    pub fn parse(s: &str) -> Option<Severity> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Severity::Error),
            "warning" | "warn" => Some(Severity::Warning),
            "info" => Some(Severity::Info),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

// The vendored serde_derive ignores `rename_all`, so spell out the
// lowercase wire form by hand.
impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Severity {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .and_then(Severity::parse)
            .ok_or_else(|| DeError::expected("error|warning|info", "Severity"))
    }
}

/// What kind of input a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// `*.ptg` task-graph files.
    Ptg,
    /// `*.platform` cluster files.
    Platform,
    /// `*.rs` project source.
    Source,
    /// `BENCH_*.json` benchmark baselines.
    Bench,
    /// `*_report.json` RunReport artifacts.
    Report,
    /// `*.trace.json` Chrome-trace exports.
    Trace,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::Ptg => write!(f, "ptg"),
            Category::Platform => write!(f, "platform"),
            Category::Source => write!(f, "source"),
            Category::Bench => write!(f, "bench"),
            Category::Report => write!(f, "report"),
            Category::Trace => write!(f, "trace"),
        }
    }
}

impl Category {
    /// Parses the lowercase wire form.
    pub fn parse(s: &str) -> Option<Category> {
        match s {
            "ptg" => Some(Category::Ptg),
            "platform" => Some(Category::Platform),
            "source" => Some(Category::Source),
            "bench" => Some(Category::Bench),
            "report" => Some(Category::Report),
            "trace" => Some(Category::Trace),
            _ => None,
        }
    }
}

impl Serialize for Category {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Category {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .and_then(Category::parse)
            .ok_or_else(|| DeError::expected("a rule category", "Category"))
    }
}

/// One registered rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Stable kebab-case identifier (referenced by suppressions/baselines).
    pub id: &'static str,
    /// Default severity of findings from this rule.
    pub severity: Severity,
    /// Input family the rule inspects.
    pub category: Category,
    /// One-line description for `emts-lint --rules` and the docs.
    pub summary: &'static str,
}

macro_rules! rules {
    ($($name:ident = ($id:literal, $sev:ident, $cat:ident, $summary:literal);)*) => {
        $(
            // A code span keeps brackets in a summary text, not links.
            #[doc = concat!("`", $summary, "`")]
            pub const $name: Rule = Rule {
                id: $id,
                severity: Severity::$sev,
                category: Category::$cat,
                summary: $summary,
            };
        )*
        /// Every registered rule, in catalogue order.
        pub const CATALOGUE: &[Rule] = &[$($name),*];
    };
}

rules! {
    // Family A — PTG files (`*.ptg`).
    PTG_PARSE = ("ptg-parse", Error, Ptg,
        "line does not parse as a task or edge directive");
    PTG_DEGENERATE_TASK = ("ptg-degenerate-task", Error, Ptg,
        "task cost or alpha outside its domain (flop > 0, alpha in [0,1])");
    PTG_EDGE_RANGE = ("ptg-edge-range", Error, Ptg,
        "edge references a task id that is never defined");
    PTG_CYCLE = ("ptg-cycle", Error, Ptg,
        "edge closes a dependency cycle");
    PTG_DUPLICATE_EDGE = ("ptg-duplicate-edge", Warning, Ptg,
        "edge repeats an earlier edge");
    PTG_ORPHAN = ("ptg-orphan", Warning, Ptg,
        "task has no edges at all in a multi-task graph");

    // Family A — platform files (`*.platform`).
    PLATFORM_PARSE = ("platform-parse", Error, Platform,
        "platform file is malformed or out of domain");
    PLATFORM_DEGENERATE = ("platform-degenerate", Warning, Platform,
        "single-processor platform degenerates every moldable schedule");

    // Family B — source invariants (`*.rs`).
    SRC_UNWRAP_PARSE = ("src-unwrap-parse", Warning, Source,
        "unwrap/expect/panic! on a user-input parse path outside tests");
    SRC_TIMING = ("src-timing", Warning, Source,
        "Instant::now/SystemTime::now outside the obs and bench crates");
    SRC_WRITE_UNWRAP = ("src-write-unwrap", Warning, Source,
        "write!/writeln! result unwrapped instead of propagated");
    SRC_HOT_PATH_ALLOC = ("src-hot-path-alloc", Warning, Source,
        "allocating call inside a function marked // lint:hot-path");
    SRC_HOT_PATH_RECORDER = ("src-hot-path-recorder", Warning, Source,
        "StatsRecorder constructed inside a function marked // lint:hot-path");

    // Family B — workspace dataflow (call-graph propagations, pass 2).
    SRC_PANIC_REACH = ("src-panic-reach", Warning, Source,
        "panic!/unwrap/expect reachable through calls from a parse path or a // lint:panic-root fn");
    SRC_DETERMINISM_TAINT = ("src-determinism-taint", Warning, Source,
        "nondeterminism source flows into a deterministic-artifact producer");
    SRC_HOT_PATH_ALLOC_TRANSITIVE = ("src-hot-path-alloc-transitive", Warning, Source,
        "// lint:hot-path fn reaches an allocating callee through the call graph");
    LINT_STALE_ALLOW = ("lint-stale-allow", Warning, Source,
        "lint:allow pragma whose rule no longer fires here, or that names an unknown rule");

    // Family C — committed artifact cross-checks.
    BENCH_UNKNOWN_DIRECTION = ("bench-unknown-direction", Warning, Bench,
        "numeric leaf in a BENCH_*.json has no known regress direction token — it can never gate");
    REPORT_SPAN_BALANCE = ("report-span-balance", Error, Report,
        "RunReport phase spans are unbalanced or inconsistent with wall time");
    TRACE_NESTING = ("trace-nesting", Error, Trace,
        "Chrome-trace complete events do not nest properly within their thread lane");
}

/// Looks a rule up by its stable id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    CATALOGUE.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_are_ordered() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::parse("WARN"), Some(Severity::Warning));
        assert_eq!(Severity::parse("nope"), None);
    }

    #[test]
    fn rule_ids_are_unique_and_resolvable() {
        for (i, r) in CATALOGUE.iter().enumerate() {
            assert!(
                CATALOGUE.iter().skip(i + 1).all(|o| o.id != r.id),
                "duplicate rule id {}",
                r.id
            );
            assert_eq!(rule_by_id(r.id), Some(r));
        }
        assert!(rule_by_id("no-such-rule").is_none());
    }

    #[test]
    fn rule_ids_are_kebab_case() {
        for r in CATALOGUE {
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                r.id
            );
        }
    }
}
