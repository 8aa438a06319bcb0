//! The analyzer driver: walks paths, classifies inputs by suffix and runs
//! the matching rule family.
//!
//! Source files get the two-pass treatment: pass 1 scans every file once,
//! producing single-site findings *and* per-function facts; pass 2 builds
//! the workspace call graph over all collected facts and runs the dataflow
//! propagations (panic-reachability, determinism taint, transitive
//! hot-path allocation) plus the suppression audit. Telemetry artifacts
//! (`BENCH_*.json`, `*_report.json`, `*.trace.json`) are cross-checked by
//! [`crate::reports`].

use crate::callgraph::CallGraph;
use crate::findings::{sort_findings, Finding};
use crate::source::FileFacts;
use crate::{dataflow, files, reports, source};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directories never descended into: build output, vendored dependencies
/// and VCS metadata are not project inputs.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "node_modules"];

/// Source directories exempt from every source rule: integration tests,
/// benches and examples are test code that `#[cfg(test)]` cannot mark.
const TEST_DIRS: &[&str] = &["tests", "benches", "examples"];

/// Crates whose whole purpose is wall-clock measurement; exempt from
/// `src-timing`.
const TIMING_CRATES: &[&str] = &["obs", "bench"];

/// The file kinds [`classify`] recognizes, for the error that names an
/// explicit path of any other kind.
const INPUT_KINDS: &str = "*.ptg, *.platform, *.rs, BENCH_*.json, *_report.json, *.trace.json";

/// What the driver decided about one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ptg,
    Platform,
    Report,
    Bench,
    Trace,
    Source,
    Skip,
}

fn classify(path: &Path) -> Kind {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    // `_report.json` outranks the `BENCH_` prefix: BENCH_fitness_report.json
    // is a RunReport that happens to live in the benchmark family.
    if name.ends_with("_report.json") {
        return Kind::Report;
    }
    if name.ends_with(".trace.json") {
        return Kind::Trace;
    }
    if name.starts_with("BENCH_") && name.ends_with(".json") {
        return Kind::Bench;
    }
    match path.extension().and_then(|e| e.to_str()) {
        Some("ptg") => Kind::Ptg,
        Some("platform") => Kind::Platform,
        Some("rs") => Kind::Source,
        _ => Kind::Skip,
    }
}

/// True if any component of `path` names one of `dirs`.
fn under_dir(path: &Path, dirs: &[&str]) -> bool {
    path.components()
        .any(|c| c.as_os_str().to_str().is_some_and(|s| dirs.contains(&s)))
}

/// True if `path` lies inside a crate exempt from `src-timing`
/// (`crates/obs/…`, `crates/bench/…`).
fn timing_exempt(path: &Path) -> bool {
    let mut components = path.components().peekable();
    while let Some(c) = components.next() {
        if c.as_os_str().to_str() == Some("crates") {
            return components
                .peek()
                .and_then(|c| c.as_os_str().to_str())
                .is_some_and(|next| TIMING_CRATES.contains(&next));
        }
    }
    false
}

/// A problem reading inputs (distinct from findings: I/O errors exit 2,
/// findings exit 1).
#[derive(Debug)]
pub struct DriverError {
    /// Offending path.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

/// Lints every given path (files or directories, recursed) and returns the
/// sorted findings.
pub fn lint_paths(paths: &[PathBuf]) -> Result<Vec<Finding>, DriverError> {
    let mut worklist: Vec<PathBuf> = Vec::new();
    for p in paths {
        collect(p, &mut worklist, true)?;
    }
    // Deterministic order regardless of directory enumeration order.
    worklist.sort();
    worklist.dedup();

    // Pass 1: per-file rules; source files also yield call-graph facts and
    // a ledger of which allow pragmas earned their keep.
    let mut findings = Vec::new();
    let mut facts: Vec<FileFacts> = Vec::new();
    let mut used: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for path in &worklist {
        findings.extend(lint_file(path, &mut facts, &mut used)?);
    }

    // Pass 2: workspace call graph, dataflow propagations, stale-allow
    // audit (which needs the combined pass-1 + pass-2 pragma ledger).
    let graph = CallGraph::build(&facts);
    let flow = dataflow::run(&graph);
    findings.extend(flow.findings);
    used.extend(flow.used_allows);
    findings.extend(dataflow::stale_allow_audit(&graph, &used));

    sort_findings(&mut findings);
    Ok(findings)
}

/// Recursively expands `path` into lintable files. A directory walk skips
/// files of unknown kind; an `explicit` file of unknown kind is an error,
/// so a path the user names is never passed unread.
fn collect(path: &Path, out: &mut Vec<PathBuf>, explicit: bool) -> Result<(), DriverError> {
    let io = |e: std::io::Error| DriverError {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    if path.is_dir() {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !explicit && SKIP_DIRS.contains(&name) {
            return Ok(());
        }
        for entry in std::fs::read_dir(path).map_err(io)? {
            collect(&entry.map_err(io)?.path(), out, false)?;
        }
        Ok(())
    } else if path.is_file() {
        if classify(path) != Kind::Skip {
            out.push(path.to_path_buf());
        } else if explicit {
            return Err(DriverError {
                path: path.to_path_buf(),
                message: format!("not a kind of file emts-lint reads ({INPUT_KINDS})"),
            });
        }
        Ok(())
    } else {
        Err(DriverError {
            path: path.to_path_buf(),
            message: "no such file or directory".to_string(),
        })
    }
}

/// Lints a single already-classified file (pass 1). Source files push
/// their call-graph facts into `facts` and their pragma usage into `used`.
fn lint_file(
    path: &Path,
    facts: &mut Vec<FileFacts>,
    used: &mut BTreeSet<(String, usize, String)>,
) -> Result<Vec<Finding>, DriverError> {
    let kind = classify(path);
    if kind == Kind::Skip {
        return Ok(Vec::new());
    }
    if kind == Kind::Source && under_dir(path, TEST_DIRS) {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path).map_err(|e| DriverError {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let file = path.display().to_string();
    Ok(match kind {
        Kind::Ptg => files::lint_ptg_file(&file, &text),
        Kind::Platform => files::lint_platform_file(&file, &text),
        Kind::Report => reports::lint_report_json(&file, &text),
        Kind::Bench => reports::lint_bench_json(&file, &text),
        Kind::Trace => reports::lint_trace_json(&file, &text),
        Kind::Source => {
            let scan = source::scan_source(&file, &text, timing_exempt(path));
            for (line, rule) in scan.used_allows {
                used.insert((file.clone(), line, rule));
            }
            facts.push(scan.facts);
            scan.findings
        }
        Kind::Skip => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_suffix() {
        assert_eq!(classify(Path::new("a/b.ptg")), Kind::Ptg);
        assert_eq!(classify(Path::new("x.platform")), Kind::Platform);
        assert_eq!(classify(Path::new("x.faults")), Kind::Skip);
        assert_eq!(classify(Path::new("run.schedule.json")), Kind::Skip);
        assert_eq!(classify(Path::new("BENCH_fitness.json")), Kind::Bench);
        assert_eq!(
            classify(Path::new("BENCH_fitness_report.json")),
            Kind::Report
        );
        assert_eq!(classify(Path::new("run_report.json")), Kind::Report);
        assert_eq!(classify(Path::new("pool.trace.json")), Kind::Trace);
        assert_eq!(classify(Path::new("other.json")), Kind::Skip);
        assert_eq!(classify(Path::new("lib.rs")), Kind::Source);
        assert_eq!(classify(Path::new("README.md")), Kind::Skip);
    }

    #[test]
    fn timing_exemption_is_per_crate() {
        assert!(timing_exempt(Path::new("crates/obs/src/stats.rs")));
        assert!(timing_exempt(Path::new("crates/bench/src/lib.rs")));
        assert!(!timing_exempt(Path::new("crates/emts/src/ea.rs")));
        assert!(!timing_exempt(Path::new("src/lib.rs")));
    }

    #[test]
    fn test_dirs_are_exempt_from_source_rules() {
        assert!(under_dir(
            Path::new("crates/sched/tests/prop.rs"),
            TEST_DIRS
        ));
        assert!(!under_dir(Path::new("crates/sched/src/lib.rs"), TEST_DIRS));
    }

    #[test]
    fn missing_path_is_a_driver_error() {
        let err = lint_paths(&[PathBuf::from("definitely/not/here.ptg")]);
        assert!(err.is_err());
    }
}
