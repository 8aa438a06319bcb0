//! Structured findings: what a rule reports when it fires.

use crate::rules::{Category, Rule, Severity};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One finding: a rule that fired at a location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Stable id of the rule that fired.
    pub rule: String,
    /// Severity of the finding (the rule's default severity).
    pub severity: Severity,
    /// Input family of the rule.
    pub category: Category,
    /// Path of the offending file, as given on the command line.
    pub file: String,
    /// 1-based line number within `file`, when the finding is line-anchored
    /// (text formats and source files are; JSON artifacts are not).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub line: Option<usize>,
    /// One-line human-readable message.
    pub message: String,
    /// Call-chain witness for the dataflow rules: each entry is one hop
    /// (`fn name @ file:line`), ending at the offending site. Empty for
    /// single-site findings. Excluded from [`Finding::fingerprint`] — the
    /// entries carry line numbers, which must not churn baselines.
    pub witness: Vec<String>,
}

impl Finding {
    /// Builds a finding for `rule` at `file` (optionally line-anchored).
    pub fn new(
        rule: &Rule,
        file: impl Into<String>,
        line: Option<usize>,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            rule: rule.id.to_string(),
            severity: rule.severity,
            category: rule.category,
            file: file.into(),
            line,
            message: message.into(),
            witness: Vec::new(),
        }
    }

    /// Attaches a call-chain witness (builder style).
    pub fn with_witness(mut self, witness: Vec<String>) -> Finding {
        self.witness = witness;
        self
    }

    /// The identity used by baselines: rule + file + message. Line numbers
    /// are deliberately excluded so unrelated edits above a known finding
    /// do not make it look new.
    pub fn fingerprint(&self) -> String {
        format!("{}\u{1f}{}\u{1f}{}", self.rule, self.file, self.message)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(
                f,
                "{}:{}: {} [{}] {}",
                self.file, line, self.severity, self.rule, self.message
            ),
            None => write!(
                f,
                "{}: {} [{}] {}",
                self.file, self.severity, self.rule, self.message
            ),
        }
    }
}

/// Sorts findings for stable output: by file, then line, then rule id.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line.unwrap_or(0), a.rule.as_str()).cmp(&(
            b.file.as_str(),
            b.line.unwrap_or(0),
            b.rule.as_str(),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;

    #[test]
    fn display_includes_location_and_rule() {
        let f = Finding::new(
            &rules::PTG_CYCLE,
            "g.ptg",
            Some(7),
            "edge 3 -> 0 closes a cycle",
        );
        assert_eq!(
            f.to_string(),
            "g.ptg:7: error [ptg-cycle] edge 3 -> 0 closes a cycle"
        );
        let f = Finding::new(&rules::TRACE_NESTING, "p.trace.json", None, "overlap");
        assert_eq!(f.to_string(), "p.trace.json: error [trace-nesting] overlap");
    }

    #[test]
    fn fingerprint_ignores_the_line_number() {
        let a = Finding::new(&rules::PTG_CYCLE, "g.ptg", Some(7), "cycle");
        let b = Finding::new(&rules::PTG_CYCLE, "g.ptg", Some(9), "cycle");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn sorting_is_stable_by_file_line_rule() {
        let mut v = vec![
            Finding::new(&rules::PTG_ORPHAN, "b.ptg", Some(3), "m"),
            Finding::new(&rules::PTG_CYCLE, "a.ptg", Some(9), "m"),
            Finding::new(&rules::PTG_CYCLE, "a.ptg", Some(2), "m"),
        ];
        sort_findings(&mut v);
        assert_eq!(v[0].file, "a.ptg");
        assert_eq!(v[0].line, Some(2));
        assert_eq!(v[2].file, "b.ptg");
    }
}
