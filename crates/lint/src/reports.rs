//! Artifact cross-checkers for committed telemetry files.
//!
//! Three rules over three JSON families the repository commits next to the
//! code they describe:
//!
//! * **`bench-unknown-direction`** (`BENCH_*.json`) — every numeric leaf
//!   must resolve to a regress direction through the canonical token
//!   tables in [`obs::regress`], or be an identity/config value. A
//!   Neutral, non-identity leaf can never gate in
//!   `scripts/bench_smoke.sh`'s inflation check, so committing one
//!   silently exempts that metric from regression protection.
//! * **`report-span-balance`** (`*_report.json`) — a `RunReport`'s nested
//!   phase spans must be internally consistent: the direct children of a
//!   span cannot account for more time than the span itself, and no root
//!   span can exceed the run's `wall_seconds`. Parsed leniently (only
//!   `wall_seconds` + `phases/*/seconds` are read) so schema-version bumps
//!   don't blind the checker.
//! * **`trace-nesting`** (`*.trace.json`) — Chrome-trace complete (`"X"`)
//!   events within one thread lane must nest: two spans on the same `tid`
//!   either contain each other or are disjoint. Partial overlap means the
//!   exporter emitted a corrupt interval tree and every viewer will render
//!   it differently.

use crate::findings::Finding;
use crate::rules;
use obs::regress::{direction_of, is_identity, Direction};
use serde::Value;

/// Relative slack for span-sum comparisons: recorder snapshots are taken
/// while spans are live, so a child can legitimately run a hair past its
/// parent's recorded total.
const SPAN_TOLERANCE: f64 = 0.01;

/// Absolute slack (seconds) so near-zero spans don't trip the relative
/// check on float noise.
const SPAN_EPSILON: f64 = 1e-6;

// ---------------------------------------------------------------------------
// bench-unknown-direction
// ---------------------------------------------------------------------------

/// Lints a committed `BENCH_*.json`: flags numeric leaves whose dotted
/// path has no known regress direction token and is not an identity.
pub fn lint_bench_json(file: &str, text: &str) -> Vec<Finding> {
    let value = match serde_json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return vec![Finding::new(
                &rules::BENCH_UNKNOWN_DIRECTION,
                file,
                None,
                format!("unreadable as JSON: {e}"),
            )]
        }
    };
    let mut findings = Vec::new();
    walk_bench(file, "", &value, &mut findings);
    findings
}

fn walk_bench(file: &str, path: &str, value: &Value, out: &mut Vec<Finding>) {
    match value {
        Value::Object(fields) => {
            for (k, v) in fields {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk_bench(file, &sub, v, out);
            }
        }
        // Array elements share the parent key's direction (histogram
        // bounds, per-bucket counts); the parent path decides for all.
        Value::Array(items) => {
            for v in items {
                walk_bench(file, path, v, out);
            }
        }
        Value::Int(_) | Value::Float(_) => {
            if direction_of(path) == Direction::Neutral && !is_identity(path) {
                out.push(Finding::new(
                    &rules::BENCH_UNKNOWN_DIRECTION,
                    file,
                    None,
                    format!("metric `{path}` has no regress direction token — it can never gate"),
                ));
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

// ---------------------------------------------------------------------------
// report-span-balance
// ---------------------------------------------------------------------------

/// Lints a committed `*_report.json` (a `RunReport`): phase spans must be
/// balanced against their parents and the recorded wall time.
pub fn lint_report_json(file: &str, text: &str) -> Vec<Finding> {
    let bad = |msg: String| vec![Finding::new(&rules::REPORT_SPAN_BALANCE, file, None, msg)];
    let value = match serde_json::parse(text) {
        Ok(v) => v,
        Err(e) => return bad(format!("unreadable as JSON: {e}")),
    };
    let Some(wall) = value.get("wall_seconds").and_then(as_f64) else {
        return bad("missing numeric `wall_seconds`".to_string());
    };
    let Some(phases) = value.get("phases").and_then(Value::as_object) else {
        return bad("missing `phases` object".to_string());
    };
    // Lenient read: (span path, seconds) pairs; anything malformed inside a
    // phase entry is itself a finding.
    let mut spans: Vec<(&str, f64)> = Vec::new();
    let mut findings = Vec::new();
    for (path, stat) in phases {
        match stat.get("seconds").and_then(as_f64) {
            Some(s) if s >= 0.0 => spans.push((path.as_str(), s)),
            Some(s) => findings.push(Finding::new(
                &rules::REPORT_SPAN_BALANCE,
                file,
                None,
                format!("phase `{path}` recorded negative time ({s} s)"),
            )),
            None => findings.push(Finding::new(
                &rules::REPORT_SPAN_BALANCE,
                file,
                None,
                format!("phase `{path}` has no numeric `seconds`"),
            )),
        }
    }

    // Children of every span must fit inside it.
    for &(parent, parent_s) in &spans {
        let prefix = format!("{parent}/");
        let children: f64 = spans
            .iter()
            .filter(|(k, _)| k.strip_prefix(&prefix).is_some_and(|r| !r.contains('/')))
            .map(|&(_, s)| s)
            .sum();
        if children > parent_s * (1.0 + SPAN_TOLERANCE) + SPAN_EPSILON {
            findings.push(Finding::new(
                &rules::REPORT_SPAN_BALANCE,
                file,
                None,
                format!(
                    "children of span `{parent}` sum to {children:.6} s but the span recorded {parent_s:.6} s"
                ),
            ));
        }
    }

    // Hierarchical roots (spans that have children) must fit in the wall
    // time. Flat accumulators (worker busy time summed across threads) have
    // no children and may legitimately exceed it, so they are not checked.
    for &(root, root_s) in &spans {
        if root.contains('/') {
            continue;
        }
        let prefix = format!("{root}/");
        let is_span_root = spans.iter().any(|(k, _)| k.starts_with(&prefix));
        if is_span_root && root_s > wall * (1.0 + SPAN_TOLERANCE) + SPAN_EPSILON {
            findings.push(Finding::new(
                &rules::REPORT_SPAN_BALANCE,
                file,
                None,
                format!(
                    "root span `{root}` recorded {root_s:.6} s, more than wall_seconds ({wall:.6} s)"
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// trace-nesting
// ---------------------------------------------------------------------------

/// Lints a committed `*.trace.json` (Chrome trace): complete events must
/// nest properly within each thread lane.
pub fn lint_trace_json(file: &str, text: &str) -> Vec<Finding> {
    let bad = |msg: String| vec![Finding::new(&rules::TRACE_NESTING, file, None, msg)];
    let value = match serde_json::parse(text) {
        Ok(v) => v,
        Err(e) => return bad(format!("unreadable as JSON: {e}")),
    };
    let events = match &value {
        Value::Object(_) => match value.get("traceEvents") {
            Some(Value::Array(a)) => a.as_slice(),
            _ => return bad("missing `traceEvents` array".to_string()),
        },
        // The Trace Event Format also permits a bare top-level array.
        Value::Array(a) => a.as_slice(),
        _ => return bad("trace is neither an object nor an event array".to_string()),
    };

    // Collect "X" (complete) events per tid lane.
    let mut lanes: std::collections::BTreeMap<i128, Vec<(f64, f64, String)>> =
        std::collections::BTreeMap::new();
    let mut findings = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        let tid = match ev.get("tid") {
            Some(Value::Int(t)) => *t,
            _ => 0,
        };
        let (Some(ts), Some(dur)) = (
            ev.get("ts").and_then(as_f64),
            ev.get("dur").and_then(as_f64),
        ) else {
            findings.push(Finding::new(
                &rules::TRACE_NESTING,
                file,
                None,
                format!("complete event `{name}` lacks numeric ts/dur"),
            ));
            continue;
        };
        if dur < 0.0 {
            findings.push(Finding::new(
                &rules::TRACE_NESTING,
                file,
                None,
                format!("complete event `{name}` has negative duration ({dur})"),
            ));
            continue;
        }
        lanes.entry(tid).or_default().push((ts, dur, name));
    }

    for (tid, lane) in &mut lanes {
        // Sort by start; on ties the longer event is the ancestor.
        lane.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        // Classic interval-stack walk: pop spans that ended before this one
        // starts; whatever remains on top must fully contain it.
        let mut stack: Vec<(f64, f64, &str)> = Vec::new();
        for (ts, dur, name) in lane.iter() {
            let end = ts + dur;
            while stack
                .last()
                .is_some_and(|&(_, top_end, _)| top_end <= *ts + SPAN_EPSILON)
            {
                stack.pop();
            }
            if let Some(&(top_ts, top_end, top_name)) = stack.last() {
                if end > top_end + SPAN_EPSILON {
                    findings.push(Finding::new(
                        &rules::TRACE_NESTING,
                        file,
                        None,
                        format!(
                            "tid {tid}: event `{name}` [{ts}, {end}] partially overlaps \
                             `{top_name}` [{top_ts}, {top_end}] — lanes must nest"
                        ),
                    ));
                    continue; // don't push the corrupt interval
                }
            }
            stack.push((*ts, end, name.as_str()));
        }
    }
    findings
}

/// Numeric coercion over the vendored `Value`.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn bench_leaves_with_known_directions_pass() {
        let text = r#"{
            "workload": "daggen n=100",
            "batch_size": 25,
            "paths_ns_per_eval": { "pooled": 5429.1 },
            "speedup_vs_baseline": 57.1,
            "cache_hit_rate": 0.75
        }"#;
        assert!(lint_bench_json("BENCH_x.json", text).is_empty());
    }

    #[test]
    fn bench_neutral_noise_leaf_is_flagged_with_its_path() {
        let text = r#"{ "outer": { "mystery_blob": 42.0 } }"#;
        let f = lint_bench_json("BENCH_x.json", text);
        assert_eq!(rules_of(&f), vec!["bench-unknown-direction"]);
        assert!(f[0].message.contains("outer.mystery_blob"));
    }

    #[test]
    fn bench_arrays_inherit_the_parent_key_direction() {
        let text = r#"{ "latency_ns": [1.0, 2.0], "batch_sizes": [1, 25] }"#;
        // latency_ns gates; batch sizes are identity configuration.
        assert!(lint_bench_json("BENCH_x.json", text).is_empty());
    }

    #[test]
    fn report_balanced_spans_pass() {
        let text = r#"{
            "wall_seconds": 1.5,
            "phases": {
                "ea": { "seconds": 1.4, "count": 1 },
                "ea/evaluate": { "seconds": 1.0, "count": 10 },
                "ea/mutate": { "seconds": 0.3, "count": 10 },
                "worker_busy": { "seconds": 9.0, "count": 8 }
            }
        }"#;
        // worker_busy is a flat accumulator (no children): exempt from wall.
        assert!(lint_report_json("r_report.json", text).is_empty());
    }

    #[test]
    fn report_overfull_parent_and_wall_violations_fire() {
        let text = r#"{
            "wall_seconds": 1.0,
            "phases": {
                "ea": { "seconds": 2.0, "count": 1 },
                "ea/evaluate": { "seconds": 2.5, "count": 10 }
            }
        }"#;
        let f = lint_report_json("r_report.json", text);
        assert_eq!(
            rules_of(&f),
            vec!["report-span-balance", "report-span-balance"]
        );
        assert!(f
            .iter()
            .any(|f| f.message.contains("children of span `ea`")));
        assert!(f.iter().any(|f| f.message.contains("root span `ea`")));
    }

    #[test]
    fn report_missing_wall_or_phases_is_a_finding_not_a_crash() {
        assert_eq!(
            rules_of(&lint_report_json("r_report.json", "{}")),
            vec!["report-span-balance"]
        );
        assert_eq!(
            rules_of(&lint_report_json("r_report.json", "not json")),
            vec!["report-span-balance"]
        );
    }

    #[test]
    fn trace_nested_and_disjoint_events_pass() {
        let text = r#"{ "traceEvents": [
            { "ph": "X", "name": "outer", "tid": 1, "ts": 0, "dur": 100 },
            { "ph": "X", "name": "inner", "tid": 1, "ts": 10, "dur": 20 },
            { "ph": "X", "name": "later", "tid": 1, "ts": 40, "dur": 60 },
            { "ph": "M", "name": "meta" },
            { "ph": "X", "name": "other-lane", "tid": 2, "ts": 5, "dur": 500 }
        ] }"#;
        assert!(lint_trace_json("t.trace.json", text).is_empty());
    }

    #[test]
    fn trace_partial_overlap_in_one_lane_fires() {
        let text = r#"{ "traceEvents": [
            { "ph": "X", "name": "a", "tid": 1, "ts": 0, "dur": 50 },
            { "ph": "X", "name": "b", "tid": 1, "ts": 25, "dur": 50 }
        ] }"#;
        let f = lint_trace_json("t.trace.json", text);
        assert_eq!(rules_of(&f), vec!["trace-nesting"]);
        assert!(f[0].message.contains("partially overlaps"));
    }

    #[test]
    fn trace_overlap_across_lanes_is_fine() {
        let text = r#"{ "traceEvents": [
            { "ph": "X", "name": "a", "tid": 1, "ts": 0, "dur": 50 },
            { "ph": "X", "name": "b", "tid": 2, "ts": 25, "dur": 50 }
        ] }"#;
        assert!(lint_trace_json("t.trace.json", text).is_empty());
    }

    #[test]
    fn trace_malformed_events_are_findings() {
        let text = r#"{ "traceEvents": [
            { "ph": "X", "name": "nodur", "tid": 1, "ts": 0 },
            { "ph": "X", "name": "neg", "tid": 1, "ts": 0, "dur": -5 }
        ] }"#;
        let f = lint_trace_json("t.trace.json", text);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn committed_bench_and_report_shapes_are_accepted() {
        // Mirrors the shapes committed at the repo root so the tree lints
        // clean: nested objects, histogram bounds, meta strings.
        let bench = r#"{
            "mapper_ns_per_call": { "insertion/Grelon_n100": 2873930.0 },
            "emts10_run_cache": { "chti_n20": { "hits": 131, "hit_rate": 0.131 } }
        }"#;
        assert!(lint_bench_json("BENCH_fitness.json", bench).is_empty());
    }
}
