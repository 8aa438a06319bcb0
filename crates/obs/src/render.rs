//! Human-readable rendering of run reports: single-report summaries,
//! A/B diffs, per-generation timelines, and flame-style self-time tables.

use crate::report::RunReport;
use serde::Value;
use std::fmt::Write as _;

/// Engineering notation for seconds: picks ns/µs/ms/s.
pub fn fmt_seconds(s: f64) -> String {
    let a = s.abs();
    if a == 0.0 {
        "0 s".to_string()
    } else if a < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if a < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if a < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Compact numeric formatting for metric values: integral values render
/// without a fraction, everything else with Rust's shortest round-trip
/// float form; `NaN` (a missing side of a comparison) renders as `–`.
pub fn fmt_count(v: f64) -> String {
    if v.is_nan() {
        "–".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_delta_pct(a: f64, b: f64) -> String {
    if a == 0.0 {
        if b == 0.0 {
            "±0.0%".to_string()
        } else {
            "new".to_string()
        }
    } else {
        format!("{:+.1}%", (b - a) / a * 100.0)
    }
}

/// Pretty-prints one report: metadata, phase tree, counters, gauges, and
/// histogram summaries.
pub fn render_report(r: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run report — {} (schema v{})",
        r.source, r.schema_version
    );
    let _ = writeln!(out, "wall time: {}", fmt_seconds(r.wall_seconds));
    if !r.meta.is_empty() {
        let _ = writeln!(out, "meta:");
        for (k, v) in &r.meta {
            let _ = writeln!(out, "  {k}: {v}");
        }
    }
    if !r.phases.is_empty() {
        let _ = writeln!(out, "phases:");
        let width = r.phases.keys().map(|k| k.len()).max().unwrap_or(0);
        for (path, p) in &r.phases {
            let share = if r.wall_seconds > 0.0 {
                format!("{:5.1}%", p.seconds / r.wall_seconds * 100.0)
            } else {
                "  –  ".to_string()
            };
            let _ = writeln!(
                out,
                "  {path:<width$}  {:>10}  ×{:<8} {share}",
                fmt_seconds(p.seconds),
                p.count
            );
        }
    }
    if !r.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        let width = r.counters.keys().map(|k| k.len()).max().unwrap_or(0);
        for (name, v) in &r.counters {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
    }
    if let Some(rate) = r.cache_hit_rate() {
        let _ = writeln!(out, "cache hit rate: {:.1}%", rate * 100.0);
    }
    out.push_str(&render_fault_kinds(r));
    if !r.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        let width = r.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
        for (name, v) in &r.gauges {
            let _ = writeln!(out, "  {name:<width$}  {v:.6}");
        }
    }
    for (name, h) in &r.histograms {
        let _ = writeln!(
            out,
            "histogram {name}: n={} mean={} p50={} p99={} max={}",
            h.total(),
            fmt_seconds(h.mean()),
            fmt_seconds(h.quantile(0.5)),
            fmt_seconds(h.quantile(0.99)),
            fmt_seconds(h.max()),
        );
        for (lo, hi, c) in h.nonzero_bins() {
            let bar = "#".repeat(((c * 40).div_ceil(h.total().max(1))) as usize);
            let _ = writeln!(
                out,
                "  [{:>9} .. {:>9})  {c:>8} {bar}",
                fmt_seconds(lo),
                fmt_seconds(hi)
            );
        }
    }
    if r.convergence.is_some() {
        let _ = writeln!(
            out,
            "convergence trace: present (use --json for the raw data)"
        );
    }
    out
}

/// Renders the per-fault-kind breakdown as its own table, when the run
/// recorded any `faults.kind.<kind>.*` metrics (fault-injection runs).
/// Empty string otherwise, so `render_report` can append unconditionally.
fn render_fault_kinds(r: &RunReport) -> String {
    const PREFIX: &str = "faults.kind.";
    let mut kinds: Vec<&str> = r
        .counters
        .keys()
        .filter_map(|k| k.strip_prefix(PREFIX)?.split('.').next())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    if kinds.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "fault kinds:");
    let width = kinds.iter().map(|k| k.len()).max().unwrap_or(0);
    for kind in kinds {
        let counter = |leaf: &str| {
            r.counters
                .get(&format!("{PREFIX}{kind}.{leaf}"))
                .copied()
                .unwrap_or(0)
        };
        let events = counter("events");
        let trials = counter("trials_affected");
        let degradation = r
            .gauges
            .get(&format!("{PREFIX}{kind}.mean_degradation"))
            .map(|d| format!("  mean degradation {d:.3}×"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {kind:<width$}  events {events:<6} trials affected {trials:<4}{degradation}"
        );
    }
    out
}

/// Renders the diff `a → b`: per-phase time deltas, counter deltas, cache
/// hit-rate and best-makespan movement.
pub fn render_diff(a: &RunReport, b: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "report diff: {} → {}", a.source, b.source);
    let _ = writeln!(
        out,
        "wall time: {} → {} ({})",
        fmt_seconds(a.wall_seconds),
        fmt_seconds(b.wall_seconds),
        fmt_delta_pct(a.wall_seconds, b.wall_seconds)
    );

    let phase_names: Vec<&String> = {
        let mut names: Vec<&String> = a.phases.keys().chain(b.phases.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    if !phase_names.is_empty() {
        let _ = writeln!(out, "phases:");
        let width = phase_names.iter().map(|k| k.len()).max().unwrap_or(0);
        for name in phase_names {
            let sa = a.phases.get(name).copied().unwrap_or_default();
            let sb = b.phases.get(name).copied().unwrap_or_default();
            let marker = match (sa.count, sb.count) {
                (0, _) => "  [new]",
                (_, 0) => "  [gone]",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>10} → {:>10}  {:>8}{marker}",
                fmt_seconds(sa.seconds),
                fmt_seconds(sb.seconds),
                fmt_delta_pct(sa.seconds, sb.seconds)
            );
        }
    }

    let counter_names: Vec<&String> = {
        let mut names: Vec<&String> = a.counters.keys().chain(b.counters.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    if !counter_names.is_empty() {
        let _ = writeln!(out, "counters:");
        let width = counter_names.iter().map(|k| k.len()).max().unwrap_or(0);
        for name in counter_names {
            let ca = a.counters.get(name).copied().unwrap_or(0);
            let cb = b.counters.get(name).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "  {name:<width$}  {ca} → {cb} ({:+})",
                cb as i128 - ca as i128
            );
        }
    }

    match (a.cache_hit_rate(), b.cache_hit_rate()) {
        (Some(ra), Some(rb)) => {
            let _ = writeln!(
                out,
                "cache hit rate: {:.1}% → {:.1}% ({:+.1} pp)",
                ra * 100.0,
                rb * 100.0,
                (rb - ra) * 100.0
            );
        }
        (Some(ra), None) => {
            let _ = writeln!(out, "cache hit rate: {:.1}% → (absent)", ra * 100.0);
        }
        (None, Some(rb)) => {
            let _ = writeln!(out, "cache hit rate: (absent) → {:.1}%", rb * 100.0);
        }
        (None, None) => {}
    }

    match (a.best_makespan(), b.best_makespan()) {
        (Some(ma), Some(mb)) => {
            let _ = writeln!(
                out,
                "best makespan: {ma:.6} → {mb:.6} ({})",
                fmt_delta_pct(ma, mb)
            );
        }
        (Some(ma), None) => {
            let _ = writeln!(out, "best makespan: {ma:.6} → (absent)");
        }
        (None, Some(mb)) => {
            let _ = writeln!(out, "best makespan: (absent) → {mb:.6}");
        }
        (None, None) => {}
    }
    out
}

/// Renders the report's embedded per-generation series as a table.
///
/// The convergence trace is opaque to `obs` (it is produced by `emts`,
/// which sits above this crate), so the renderer is *schema-free*: it
/// takes the `generations` array from the convergence object and prints
/// one column per numeric field, in the order the producer wrote them.
/// The sentinel generation `usize::MAX` (the seed population) renders as
/// `seed`. Trailing whole-run fields of the convergence object (cache
/// totals, delta counters) are listed after the table.
pub fn render_timeline(r: &RunReport) -> String {
    let mut out = String::new();
    let Some(conv) = &r.convergence else {
        let _ = writeln!(out, "no convergence trace in this report ({})", r.source);
        return out;
    };
    let Some(Value::Array(gens)) = conv.get("generations") else {
        let _ = writeln!(out, "convergence trace has no generations array");
        return out;
    };
    if gens.is_empty() {
        let _ = writeln!(out, "convergence trace is empty");
        return out;
    }
    let _ = writeln!(
        out,
        "per-generation series — {} ({} rows)",
        r.source,
        gens.len()
    );
    // Columns: numeric fields of the first row, producer order.
    let columns: Vec<&str> = match &gens[0] {
        Value::Object(fields) => fields
            .iter()
            .filter(|(_, v)| matches!(v, Value::Int(_) | Value::Float(_)))
            .map(|(k, _)| k.as_str())
            .collect(),
        _ => Vec::new(),
    };
    if columns.is_empty() {
        let _ = writeln!(out, "generations carry no numeric fields");
        return out;
    }
    const SEED_SENTINEL: i128 = usize::MAX as i128;
    let cell = |row: &Value, col: &str| -> String {
        match row.get(col) {
            Some(Value::Int(i)) if col == "generation" && *i == SEED_SENTINEL => "seed".into(),
            Some(Value::Int(i)) => format!("{i}"),
            Some(Value::Float(f)) => format!("{f:.4}"),
            _ => "–".into(),
        }
    };
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in gens {
        for (i, col) in columns.iter().enumerate() {
            widths[i] = widths[i].max(cell(row, col).len());
        }
    }
    for (i, col) in columns.iter().enumerate() {
        let _ = write!(
            out,
            "{}{:>width$}",
            if i > 0 { "  " } else { "" },
            col,
            width = widths[i]
        );
    }
    let _ = writeln!(out);
    for row in gens {
        for (i, col) in columns.iter().enumerate() {
            let _ = write!(
                out,
                "{}{:>width$}",
                if i > 0 { "  " } else { "" },
                cell(row, col),
                width = widths[i]
            );
        }
        let _ = writeln!(out);
    }
    if let Some(fields) = conv.as_object() {
        let totals: Vec<String> = fields
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Int(i) if k != "generations" => Some(format!("{k}={i}")),
                Value::Float(f) if k != "generations" => Some(format!("{k}={f}")),
                _ => None,
            })
            .collect();
        if !totals.is_empty() {
            let _ = writeln!(out, "run totals: {}", totals.join(" "));
        }
    }
    out
}

/// Renders a flame-style *self-time* table over the report's span tree.
///
/// A phase's self time is its recorded seconds minus the seconds of its
/// direct children (`"ea"` minus `"ea/mutate"`, `"ea/evaluate"`, …), i.e.
/// the time the phase spent in its own code rather than in instrumented
/// sub-phases — the number a flame graph would show as the bar's exposed
/// width. Sorted widest first.
pub fn render_flame(r: &RunReport) -> String {
    let mut out = String::new();
    if r.phases.is_empty() {
        let _ = writeln!(out, "no phase spans in this report ({})", r.source);
        return out;
    }
    let mut rows: Vec<(&String, f64, f64, u64)> = r
        .phases
        .iter()
        .map(|(path, stat)| {
            let prefix = format!("{path}/");
            let children: f64 = r
                .phases
                .iter()
                .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
                .map(|(_, s)| s.seconds)
                .sum();
            // Clamp: clock jitter can make children sum to a hair more
            // than the parent.
            (
                path,
                (stat.seconds - children).max(0.0),
                stat.seconds,
                stat.count,
            )
        })
        .collect();
    let total_self: f64 = rows.iter().map(|(_, s, _, _)| *s).sum();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("self times are finite"));
    let _ = writeln!(
        out,
        "flame (self time) — {} — total instrumented {}",
        r.source,
        fmt_seconds(total_self)
    );
    let width = rows.iter().map(|(p, ..)| p.len()).max().unwrap_or(0);
    for (path, self_s, total_s, count) in rows {
        let share = if total_self > 0.0 {
            self_s / total_self
        } else {
            0.0
        };
        let bar = "#".repeat((share * 40.0).round() as usize);
        let _ = writeln!(
            out,
            "  {path:<width$}  self {:>10}  total {:>10}  ×{count:<8} {:5.1}% {bar}",
            fmt_seconds(self_s),
            fmt_seconds(total_s),
            share * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PhaseStat;

    fn report(source: &str, eval_s: f64, hits: u64) -> RunReport {
        let mut r = RunReport::new(source);
        r.wall_seconds = eval_s + 0.2;
        r.phases.insert(
            "ea/evaluate".into(),
            PhaseStat {
                seconds: eval_s,
                count: 10,
            },
        );
        r.counters.insert("emts.cache.hits".into(), hits);
        r.counters.insert("emts.cache.misses".into(), 100 - hits);
        r.gauges.insert("emts.best_makespan".into(), 10.0 + eval_s);
        r
    }

    #[test]
    fn report_rendering_mentions_all_sections() {
        let mut r = report("fig4", 1.0, 60);
        r.meta.insert("platform".into(), "grelon".into());
        let mut h = crate::LogHistogram::latency_default();
        h.record(1e-4);
        r.histograms.insert("pool.eval_seconds".into(), h);
        let text = render_report(&r);
        for needle in [
            "fig4",
            "schema v2",
            "ea/evaluate",
            "platform: grelon",
            "emts.cache.hits",
            "cache hit rate: 60.0%",
            "emts.best_makespan",
            "histogram pool.eval_seconds",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn fault_kind_breakdown_renders_as_its_own_section() {
        let mut r = report("faulted", 1.0, 60);
        r.counters.insert("faults.kind.crash.events".into(), 12);
        r.counters
            .insert("faults.kind.crash.trials_affected".into(), 5);
        r.counters.insert("faults.kind.straggler.events".into(), 3);
        r.gauges
            .insert("faults.kind.crash.mean_degradation".into(), 1.25);
        let text = render_report(&r);
        for needle in [
            "fault kinds:",
            "crash",
            "events 12",
            "trials affected 5",
            "mean degradation 1.250×",
            "straggler",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Fault-free reports must not grow the section.
        let clean = render_report(&report("clean", 1.0, 60));
        assert!(!clean.contains("fault kinds:"), "{clean}");
    }

    #[test]
    fn diff_rendering_shows_phase_and_hit_rate_deltas() {
        let a = report("baseline", 1.0, 50);
        let b = report("candidate", 1.5, 75);
        let text = render_diff(&a, &b);
        for needle in [
            "baseline → candidate",
            "ea/evaluate",
            "+50.0%",
            "cache hit rate: 50.0% → 75.0% (+25.0 pp)",
            "best makespan",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn flame_ranks_by_self_time_and_subtracts_children() {
        let mut r = RunReport::new("flame-test");
        for (path, seconds) in [("ea", 10.0), ("ea/evaluate", 7.0), ("ea/mutate", 1.0)] {
            r.phases
                .insert(path.into(), PhaseStat { seconds, count: 1 });
        }
        let text = render_flame(&r);
        // ea self = 10 − (7+1) = 2s; evaluate leads with 7s of self time.
        let eval_at = text.find("ea/evaluate").expect("evaluate row");
        let ea_at = text.find("  ea ").expect("ea row");
        assert!(eval_at < ea_at, "evaluate should rank first:\n{text}");
        assert!(text.contains("2.000 s"), "{text}");
        assert!(text.contains("7.000 s"), "{text}");
    }

    #[test]
    fn timeline_renders_generation_rows_and_seed_sentinel() {
        let mut r = RunReport::new("timeline-test");
        r.convergence = Some(
            serde_json::parse(&format!(
                r#"{{"generations": [
                     {{"generation": {}, "best": 12.5, "mean": 14.0}},
                     {{"generation": 0, "best": 11.0, "mean": 12.0}}],
                    "cache_hits": 3, "cache_misses": 7}}"#,
                usize::MAX
            ))
            .expect("test JSON parses"),
        );
        let text = render_timeline(&r);
        assert!(text.contains("seed"), "{text}");
        assert!(text.contains("11.0000"), "{text}");
        assert!(text.contains("cache_hits=3"), "{text}");
    }

    #[test]
    fn timeline_without_trace_says_so() {
        let r = RunReport::new("empty");
        assert!(render_timeline(&r).contains("no convergence trace"));
    }

    #[test]
    fn seconds_formatting_picks_sane_units() {
        assert_eq!(fmt_seconds(0.0), "0 s");
        assert_eq!(fmt_seconds(2.5e-8), "25.0 ns");
        assert_eq!(fmt_seconds(3.1e-5), "31.0 µs");
        assert_eq!(fmt_seconds(4e-2), "40.00 ms");
        assert_eq!(fmt_seconds(2.0), "2.000 s");
    }
}
