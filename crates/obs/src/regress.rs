//! Benchmark regression detection: noise-tolerant diffs of `BENCH_*.json`
//! files against committed baselines.
//!
//! The repo accumulates benchmark artifacts (`BENCH_fitness.json`,
//! `BENCH_throughput.json`, `BENCH_obs.json`, …) whose shapes differ and
//! keep growing, so the comparator is *schema-free*: it walks two JSON
//! trees in parallel, pairs up numeric leaves by dotted path, and decides
//! for each metric which direction is bad from its name — `ns_per_eval`
//! regresses upward, `throughput_ptgs_per_sec` regresses downward, and a
//! `batch_size` is config, not a metric. A metric only fails the gate when
//! it moves in its bad direction by more than the relative tolerance
//! (default ±40%), which is deliberately loose: the gate exists to catch
//! order-of-magnitude breakage (a 10× mapper slowdown, a collapsed cache
//! hit rate) without flagging shared-host jitter, so `emts-report regress
//! A A` and back-to-back runs on one machine must pass. `scripts/ci.sh`
//! holds it to exactly that contract.

use crate::render::fmt_count;
use serde::Value;

/// Which way a metric gets worse, inferred from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is a regression (latencies, drop counts, degradation).
    HigherIsWorse,
    /// Smaller is a regression (throughput, speedups, hit rates).
    LowerIsWorse,
    /// Configuration or identity values; never gate.
    Neutral,
}

/// Canonical direction-token tables. These four constants are the single
/// source of truth for metric-direction inference: [`direction_of`] votes
/// with them, the `emts-lint` artifact cross-checker (`bench-unknown-
/// direction`) consumes them to reject committed benchmark keys no table
/// covers, and `scripts/ci.sh`'s inflation check relies on them through
/// `emts-report regress`. Add a token here — nowhere else — when a
/// benchmark grows a new metric family.
///
/// Badness words win outright (a `drop_rate` is a drop, not a rate), then
/// goodness words, then unit suffixes.
pub const BAD_UP_TOKENS: &[&str] = &[
    "dropped",
    "drops",
    "drop",
    "degradation",
    "overhead",
    "panics",
    "respawns",
    "fallbacks",
    "rejected",
    "misses",
    "overruns",
    "overrun",
    "degraded",
    "killed",
    "stretch",
    "wait",
    "makespan",
    "replans",
    "findings",
    "stale",
    "pops",
];

/// Tokens voting lower-is-worse: throughput, savings and quality rates.
pub const BAD_DOWN_TOKENS: &[&str] = &[
    "throughput",
    "speedup",
    "improvement",
    "rate",
    "hits",
    "attainment",
    "utilization",
    "pruned",
];

/// Unit-suffix tokens voting higher-is-worse (costs), consulted last.
pub const BAD_UP_UNIT_TOKENS: &[&str] = &[
    "ns", "us", "ms", "secs", "seconds", "wall", "elapsed", "latency", "bytes", "mem",
];

/// Configuration and identity tokens: values that describe *what ran*
/// (batch sizes, seeds, structural counts), not *how well*. They never
/// gate, and the `bench-unknown-direction` lint accepts them as known.
pub const IDENTITY_TOKENS: &[&str] = &[
    "size",
    "seed",
    "trials",
    "count",
    "counts",
    "version",
    "shards",
    "rounds",
    "jobs",
    "epoch",
    "epochs",
    "scheduled",
    "batch",
    "events",
    "items",
    "tasks",
    "capacity",
    "generations",
    "horizon",
    "workers",
];

fn path_tokens(path: &str) -> Vec<String> {
    path.to_ascii_lowercase()
        .split(['.', '_', '-', '[', ']'])
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

/// Infers the bad direction for a dotted metric path.
///
/// Tokens from the *whole* path (split on `.`, `_`, `-`) vote in priority
/// order, so `paths_ns_per_eval.serial_scratch` inherits the `ns` of its
/// parent object and `emts10_run_cache.*.hit_rate` reads as a rate even
/// though its leaf name alone says nothing.
pub fn direction_of(path: &str) -> Direction {
    let tokens = path_tokens(path);
    let has = |names: &[&str]| tokens.iter().any(|t| names.contains(&t.as_str()));
    // Badness words win outright: a `drop_rate` is a drop, not a rate.
    if has(BAD_UP_TOKENS) {
        return Direction::HigherIsWorse;
    }
    if path.to_ascii_lowercase().contains("per_sec") || has(BAD_DOWN_TOKENS) {
        return Direction::LowerIsWorse;
    }
    if has(BAD_UP_UNIT_TOKENS) {
        return Direction::HigherIsWorse;
    }
    Direction::Neutral
}

/// True when the path names configuration or identity (an
/// [`IDENTITY_TOKENS`] vote): a numeric leaf that is *expected* to have no
/// regress direction. The `bench-unknown-direction` lint flags numeric
/// leaves that are neither directed nor identity — metrics the regress
/// gate would silently never check.
pub fn is_identity(path: &str) -> bool {
    path_tokens(path)
        .iter()
        .any(|t| IDENTITY_TOKENS.contains(&t.as_str()))
}

/// What happened to one metric between baseline and fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Moved in its bad direction beyond tolerance — gates the exit code.
    Regressed,
    /// Moved in its good direction beyond tolerance.
    Improved,
    /// Within tolerance (or a neutral metric).
    Unchanged,
    /// Present in the baseline, absent (or non-numeric) in the fresh run.
    MissingInFresh,
    /// Absent in the baseline: a new metric, informational.
    NewInBaselineOnlyFresh,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path of the numeric leaf (`"paths_ns_per_eval.pooled"`).
    pub path: String,
    /// Baseline value (`NaN` when the metric is new).
    pub baseline: f64,
    /// Fresh value (`NaN` when the metric went missing).
    pub fresh: f64,
    /// Inferred bad direction.
    pub direction: Direction,
    /// Outcome under the tolerance used for the comparison.
    pub kind: DeltaKind,
}

impl Delta {
    /// Signed relative change `(fresh - baseline) / |baseline|`; `0` when
    /// the baseline is zero and nothing moved.
    pub fn rel_change(&self) -> f64 {
        if self.baseline == 0.0 && self.fresh == 0.0 {
            return 0.0;
        }
        if self.baseline == 0.0 {
            return f64::INFINITY.copysign(self.fresh);
        }
        (self.fresh - self.baseline) / self.baseline.abs()
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn classify(path: &str, baseline: f64, fresh: f64, tolerance: f64) -> (Direction, DeltaKind) {
    let dir = direction_of(path);
    if dir == Direction::Neutral {
        return (dir, DeltaKind::Unchanged);
    }
    // Relative band around the baseline; a zero baseline can't scale a
    // band, so counts appearing from zero only trip the gate once they
    // are unambiguously non-noise (> 1.0, e.g. drops materializing).
    let (lo, hi) = if baseline == 0.0 {
        (-1.0, 1.0)
    } else {
        let slack = baseline.abs() * tolerance;
        (baseline - slack, baseline + slack)
    };
    let kind = match dir {
        Direction::HigherIsWorse if fresh > hi => DeltaKind::Regressed,
        Direction::HigherIsWorse if fresh < lo => DeltaKind::Improved,
        Direction::LowerIsWorse if fresh < lo => DeltaKind::Regressed,
        Direction::LowerIsWorse if fresh > hi => DeltaKind::Improved,
        _ => DeltaKind::Unchanged,
    };
    (dir, kind)
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

fn walk(prefix: &str, baseline: &Value, fresh: &Value, tolerance: f64, out: &mut Vec<Delta>) {
    match (baseline, fresh) {
        (Value::Object(b), Value::Object(f)) => {
            for (key, bv) in b {
                let path = join(prefix, key);
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => walk(&path, bv, fv, tolerance, out),
                    None => {
                        if let Some(bnum) = numeric(bv) {
                            out.push(Delta {
                                direction: direction_of(&path),
                                path,
                                baseline: bnum,
                                fresh: f64::NAN,
                                kind: DeltaKind::MissingInFresh,
                            });
                        }
                    }
                }
            }
            for (key, fv) in f {
                if b.iter().any(|(k, _)| k == key) {
                    continue;
                }
                if let Some(fnum) = numeric(fv) {
                    let path = join(prefix, key);
                    out.push(Delta {
                        direction: direction_of(&path),
                        path,
                        baseline: f64::NAN,
                        fresh: fnum,
                        kind: DeltaKind::NewInBaselineOnlyFresh,
                    });
                }
            }
        }
        (Value::Array(b), Value::Array(f)) => {
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                walk(&format!("{prefix}[{i}]"), bv, fv, tolerance, out);
            }
        }
        _ => {
            if let (Some(b), Some(f)) = (numeric(baseline), numeric(fresh)) {
                let (direction, kind) = classify(prefix, b, f, tolerance);
                out.push(Delta {
                    path: prefix.to_string(),
                    baseline: b,
                    fresh: f,
                    direction,
                    kind,
                });
            } else {
                // Type changed (object/number ↔ string/null/…): a `null`
                // mapper probe from an incomplete run must not fail the
                // gate, but every numeric leaf it had is noted as missing.
                collect_missing(prefix, baseline, out);
            }
        }
    }
}

/// Records every numeric leaf under `v` as [`DeltaKind::MissingInFresh`].
fn collect_missing(prefix: &str, v: &Value, out: &mut Vec<Delta>) {
    match v {
        Value::Object(fields) => {
            for (key, inner) in fields {
                collect_missing(&join(prefix, key), inner, out);
            }
        }
        Value::Array(items) => {
            for (i, inner) in items.iter().enumerate() {
                collect_missing(&format!("{prefix}[{i}]"), inner, out);
            }
        }
        _ => {
            if let Some(b) = numeric(v) {
                out.push(Delta {
                    direction: direction_of(prefix),
                    path: prefix.to_string(),
                    baseline: b,
                    fresh: f64::NAN,
                    kind: DeltaKind::MissingInFresh,
                });
            }
        }
    }
}

/// Compares every numeric leaf of `fresh` against `baseline`.
///
/// `tolerance` is the relative half-width of the pass band (`0.4` = a
/// metric may move ±40% in its bad direction before it counts as a
/// regression). Identical inputs always produce zero regressions.
pub fn compare(baseline: &Value, fresh: &Value, tolerance: f64) -> Vec<Delta> {
    let mut out = Vec::new();
    walk("", baseline, fresh, tolerance, &mut out);
    out
}

/// Renders a comparison as a stable plain-text table; regressions first.
pub fn render(deltas: &[Delta], tolerance: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let regressions: Vec<&Delta> = deltas
        .iter()
        .filter(|d| d.kind == DeltaKind::Regressed)
        .collect();
    let improved = deltas
        .iter()
        .filter(|d| d.kind == DeltaKind::Improved)
        .count();
    let missing: Vec<&Delta> = deltas
        .iter()
        .filter(|d| d.kind == DeltaKind::MissingInFresh)
        .collect();
    let compared = deltas
        .iter()
        .filter(|d| {
            matches!(
                d.kind,
                DeltaKind::Regressed | DeltaKind::Improved | DeltaKind::Unchanged
            )
        })
        .count();
    for d in &regressions {
        let _ = writeln!(
            out,
            "REGRESSION {}: {} -> {} ({:+.1}%, {} is worse, tolerance ±{:.0}%)",
            d.path,
            fmt_count(d.baseline),
            fmt_count(d.fresh),
            d.rel_change() * 100.0,
            match d.direction {
                Direction::HigherIsWorse => "higher",
                Direction::LowerIsWorse => "lower",
                Direction::Neutral => "neither",
            },
            tolerance * 100.0
        );
    }
    for d in &missing {
        let _ = writeln!(
            out,
            "note: {} ({}) missing from fresh run",
            d.path,
            fmt_count(d.baseline)
        );
    }
    let _ = writeln!(
        out,
        "{} metrics compared: {} regressed, {} improved, {} within ±{:.0}%",
        compared,
        regressions.len(),
        improved,
        compared - regressions.len() - improved,
        tolerance * 100.0
    );
    out
}

/// True when any compared metric regressed (the CI gate condition).
pub fn has_regression(deltas: &[Delta]) -> bool {
    deltas.iter().any(|d| d.kind == DeltaKind::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::parse(s).expect("test JSON parses")
    }

    #[test]
    fn identical_inputs_never_self_flag() {
        let v = parse(
            r#"{"paths_ns_per_eval": {"pooled": 6000.2, "serial_scratch": 5498.0},
                "speedup_vs_prepr_baseline": 54.9,
                "throughput_ptgs_per_sec": 7913.0,
                "batch_size": 25,
                "robust_p95_degradation": {"fft16": 1.8}}"#,
        );
        let deltas = compare(&v, &v, 0.4);
        assert!(!has_regression(&deltas));
        assert!(deltas.iter().all(|d| d.kind == DeltaKind::Unchanged));
    }

    #[test]
    fn latency_regresses_upward_and_throughput_downward() {
        let base = parse(r#"{"ns_per_eval": 100.0, "throughput_ptgs_per_sec": 1000.0}"#);
        let slow = parse(r#"{"ns_per_eval": 1000.0, "throughput_ptgs_per_sec": 100.0}"#);
        let deltas = compare(&base, &slow, 0.4);
        assert_eq!(
            deltas
                .iter()
                .filter(|d| d.kind == DeltaKind::Regressed)
                .count(),
            2
        );
        // The same move in the other direction is an improvement.
        let deltas = compare(&slow, &base, 0.4);
        assert!(!has_regression(&deltas));
        assert_eq!(
            deltas
                .iter()
                .filter(|d| d.kind == DeltaKind::Improved)
                .count(),
            2
        );
    }

    #[test]
    fn moves_within_tolerance_pass() {
        let base = parse(r#"{"ns_per_eval": 100.0}"#);
        let near = parse(r#"{"ns_per_eval": 130.0}"#);
        assert!(!has_regression(&compare(&base, &near, 0.4)));
        assert!(has_regression(&compare(&base, &near, 0.2)));
    }

    #[test]
    fn neutral_config_values_never_gate() {
        let base = parse(r#"{"batch_size": 25, "seed": 2011, "trials": 20}"#);
        let other = parse(r#"{"batch_size": 100, "seed": 1, "trials": 5}"#);
        assert!(!has_regression(&compare(&base, &other, 0.4)));
    }

    #[test]
    fn direction_inference_reads_the_whole_path() {
        assert_eq!(
            direction_of("paths_ns_per_eval.serial_scratch"),
            Direction::HigherIsWorse
        );
        assert_eq!(
            direction_of("emts10_run_cache.chti_n20.hit_rate"),
            Direction::LowerIsWorse
        );
        assert_eq!(
            direction_of("drop_rate_at_capacity"),
            Direction::HigherIsWorse,
            "a drop rate is a drop count, not a hit rate"
        );
        assert_eq!(
            direction_of("robust_p95_degradation.fft16"),
            Direction::HigherIsWorse
        );
        assert_eq!(direction_of("events_per_sec"), Direction::LowerIsWorse);
        assert_eq!(direction_of("tasks_scheduled"), Direction::Neutral);
    }

    #[test]
    fn online_metric_names_infer_their_bad_direction() {
        for worse_up in [
            "rolling.queue_wait_mean",
            "rolling.stretch_p95",
            "reactive.makespan",
            "rolling.deadline_overruns",
            "rolling.watchdog_degraded",
            "reactive.tasks_killed",
        ] {
            assert_eq!(
                direction_of(worse_up),
                Direction::HigherIsWorse,
                "{worse_up}"
            );
        }
        for worse_down in ["rolling.slo_attainment", "reactive.utilization"] {
            assert_eq!(
                direction_of(worse_down),
                Direction::LowerIsWorse,
                "{worse_down}"
            );
        }
    }

    #[test]
    fn null_probe_is_a_note_not_a_regression() {
        let base = parse(r#"{"mapper_probe": {"ns_per_eval": 3592.0}}"#);
        let fresh = parse(r#"{"mapper_probe": null}"#);
        let deltas = compare(&base, &fresh, 0.4);
        assert!(!has_regression(&deltas));
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, DeltaKind::MissingInFresh);
    }

    #[test]
    fn zero_baseline_counts_need_a_real_move_to_gate() {
        let base = parse(r#"{"dropped": 0}"#);
        assert!(!has_regression(&compare(
            &base,
            &parse(r#"{"dropped": 0.5}"#),
            0.4
        )));
        assert!(has_regression(&compare(
            &base,
            &parse(r#"{"dropped": 2}"#),
            0.4
        )));
    }

    #[test]
    fn render_names_the_offender() {
        let base = parse(r#"{"ns_per_eval": 100.0}"#);
        let slow = parse(r#"{"ns_per_eval": 1000.0}"#);
        let deltas = compare(&base, &slow, 0.4);
        let text = render(&deltas, 0.4);
        assert!(text.contains("REGRESSION ns_per_eval"), "{text}");
        assert!(text.contains("+900.0%"), "{text}");
    }
}
