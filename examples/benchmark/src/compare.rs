//! `compare <dir-a> <dir-b>`: puts two sets of result files side by side,
//! workload by workload, and judges each metric against the benchmark's
//! own bounds. A metric whose run-to-run spread exceeds its bound is
//! unresolved rather than unchanged.

use crate::report::RunResult;
use crate::spec::{self, Better, Kind};
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// Why two result sets cannot be compared. Each renders as one line.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareError {
    Io(String),
    Parse {
        file: String,
        msg: String,
    },
    Empty(String),
    /// The sets differ in something that makes their numbers incomparable.
    Provenance {
        field: &'static str,
        a: String,
        b: String,
    },
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::Io(msg) => write!(f, "{msg}"),
            CompareError::Parse { file, msg } => write!(f, "{file}: not a benchmark result: {msg}"),
            CompareError::Empty(dir) => write!(f, "{dir} holds no result files"),
            CompareError::Provenance { field, a, b } => {
                write!(f, "refusing to compare: {field} differs ({a} vs {b})")
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound, so no call can be
    /// made.
    Unresolved,
    /// A deterministic metric, equal for every seed.
    Identical,
    /// A deterministic metric that differs for some seed.
    Mismatch,
    /// No bound: reported for reading only.
    Info,
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Mismatch)
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    fn of(values: &[f64]) -> Self {
        let (q1, q3) = stats::quartiles(values);
        Summary {
            median: stats::median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

/// Verdict for a metric with a regression bound (a share of A's median).
pub fn bounded(better: Better, a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = stats::relative_spread(a).max(stats::relative_spread(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let b_always_better = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if spread > bound {
        if b_always_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Failures compare as a share of operations: any rise is worse.
fn failure_share(a: &[f64], b: &[f64]) -> Verdict {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    match mean(b).partial_cmp(&mean(a)) {
        Some(std::cmp::Ordering::Greater) => Verdict::Worse,
        Some(std::cmp::Ordering::Less) => Verdict::Better,
        _ => Verdict::Unchanged,
    }
}

fn same<T: PartialEq + fmt::Display>(field: &'static str, a: T, b: T) -> Result<(), CompareError> {
    if a == b {
        Ok(())
    } else {
        Err(CompareError::Provenance {
            field,
            a: a.to_string(),
            b: b.to_string(),
        })
    }
}

/// Compares every metric both sets report, workload by workload (traced
/// and untraced runs apart). Refuses sets whose runs differ in scale,
/// `nproc` or CPU model, or whose seeds differ for some workload.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Result<Vec<Row>, CompareError> {
    let first = &a
        .first()
        .ok_or(CompareError::Empty("the first set".into()))?
        .provenance;
    for r in a.iter().chain(b) {
        let p = &r.provenance;
        same("scale", first.scale, p.scale)?;
        same("nproc", first.nproc, p.nproc)?;
        same("CPU model", first.cpu_model.as_str(), p.cpu_model.as_str())?;
    }
    type Group<'r> = (Vec<&'r RunResult>, Vec<&'r RunResult>);
    let mut groups: BTreeMap<(String, bool), Group<'_>> = BTreeMap::new();
    for r in a {
        let key = (r.provenance.workload.clone(), r.provenance.trace);
        groups.entry(key).or_default().0.push(r);
    }
    for r in b {
        let key = (r.provenance.workload.clone(), r.provenance.trace);
        groups.entry(key).or_default().1.push(r);
    }
    let mut rows = Vec::new();
    for ((workload, trace), (ra, rb)) in &groups {
        let seeds =
            |rs: &[&RunResult]| -> BTreeSet<u64> { rs.iter().map(|r| r.provenance.seed).collect() };
        let label = if *trace {
            format!("{workload} (traced)")
        } else {
            workload.clone()
        };
        let show = |s: BTreeSet<u64>| format!("{label} seeds {s:?}");
        same("seed", show(seeds(ra)), show(seeds(rb)))?;
        let names: BTreeSet<&String> = ra.iter().chain(rb).flat_map(|r| r.metrics.keys()).collect();
        for name in names {
            let Some(s) = spec::metric(name) else {
                continue;
            };
            let values = |rs: &[&RunResult]| -> Vec<(u64, f64)> {
                rs.iter()
                    .filter_map(|r| Some((r.provenance.seed, r.metrics.get(name)?.value)))
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let plain = |v: &[(u64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<_>>();
            let (pa, pb) = (plain(&va), plain(&vb));
            let verdict = if s.deterministic {
                let by_seed: BTreeMap<u64, u64> =
                    va.iter().map(|&(k, x)| (k, x.to_bits())).collect();
                let all_equal = vb
                    .iter()
                    .all(|&(k, x)| by_seed.get(&k) == Some(&x.to_bits()));
                if all_equal {
                    Verdict::Identical
                } else {
                    Verdict::Mismatch
                }
            } else if s.name == "failed_frac" {
                failure_share(&pa, &pb)
            } else if let Kind::EndToEnd { bound } = s.kind {
                bounded(s.better, &pa, &pb, bound)
            } else {
                Verdict::Info
            };
            rows.push(Row {
                workload: label.clone(),
                metric: name.clone(),
                a: Summary::of(&pa),
                b: Summary::of(&pb),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Every `*.json` result file in `dir`.
pub fn load(dir: &Path) -> Result<Vec<RunResult>, CompareError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CompareError::Io(format!("cannot read {}: {e}", dir.display())))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let results = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .map_err(|e| CompareError::Io(format!("cannot read {}: {e}", p.display())))?;
            RunResult::from_json(&text).map_err(|msg| CompareError::Parse {
                file: p.display().to_string(),
                msg,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if results.is_empty() {
        return Err(CompareError::Empty(dir.display().to_string()));
    }
    Ok(results)
}

/// `compare <dir-a> <dir-b>`: prints one row per (workload, metric); exits
/// 1 on any worse or mismatched metric, 2 when the sets are incomparable.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result directories".into());
    };
    let rows = load(Path::new(a))
        .and_then(|ra| Ok((ra, load(Path::new(b))?)))
        .and_then(|(ra, rb)| compare(&ra, &rb))
        .map_err(|e| e.to_string())?;
    println!(
        "{:<30} {:<34} {:>27} {:>27} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change"
    );
    let show = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
    for r in &rows {
        let change = if r.a.median != 0.0 {
            format!("{:+.2}%", (r.b.median / r.a.median - 1.0) * 100.0)
        } else {
            "-".to_string()
        };
        println!(
            "{:<30} {:<34} {:>27} {:>27} {:>8}  {:?}",
            r.workload,
            r.metric,
            show(&r.a),
            show(&r.b),
            change,
            r.verdict
        );
    }
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    println!("{failing} worse or mismatched of {} compared", rows.len());
    Ok(if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::sample;

    #[test]
    fn bounded_verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound either way.
        assert_eq!(
            bounded(Better::Lower, &a, &[10.2, 10.1, 10.3, 10.2, 10.25], 0.1),
            Verdict::Unchanged
        );
        // Slower by 20% with a 10% bound.
        assert_eq!(
            bounded(Better::Lower, &a, &[12.0, 12.1, 11.9, 12.0, 12.05], 0.1),
            Verdict::Worse
        );
        // Faster by 20%.
        assert_eq!(
            bounded(Better::Lower, &a, &[8.0, 8.1, 7.9, 8.0, 8.05], 0.1),
            Verdict::Better
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            bounded(Better::Higher, &a, &[8.0, 8.1, 7.9, 8.0, 8.05], 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let noisy = [6.0, 14.0, 9.0, 16.0, 5.0];
        assert_eq!(bounded(Better::Lower, &a, &noisy, 0.1), Verdict::Unresolved);
        // Unless every B run beats every A run.
        let faster_but_noisy = [5.0, 9.0, 6.0, 8.5, 5.5];
        assert_eq!(
            bounded(Better::Lower, &a, &faster_but_noisy, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn failures_compare_as_a_share() {
        assert_eq!(failure_share(&[0.0, 0.0], &[0.0, 0.01]), Verdict::Worse);
        assert_eq!(failure_share(&[0.0, 0.0], &[0.0, 0.0]), Verdict::Unchanged);
    }

    fn set(pass: &[f64], quality: f64) -> Vec<RunResult> {
        pass.iter()
            .enumerate()
            .map(|(i, &p)| {
                sample(
                    "emts10-grelon",
                    i as u64,
                    false,
                    &[("pass_s", p), ("makespan_vs_lb", quality + i as f64)],
                )
            })
            .collect()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn deterministic_metrics_must_match_per_seed() {
        let a = set(&[3.0, 3.01, 2.99, 3.0, 3.02], 1.5);
        let same_inputs = set(&[3.01, 3.0, 3.0, 2.98, 3.01], 1.5);
        let rows = compare(&a, &same_inputs).unwrap();
        assert_eq!(verdict(&rows, "makespan_vs_lb"), Verdict::Identical);
        assert_eq!(verdict(&rows, "pass_s"), Verdict::Unchanged);
        let drifted = set(&[3.01, 3.0, 3.0, 2.98, 3.01], 1.5 + 1e-12);
        let rows = compare(&a, &drifted).unwrap();
        assert_eq!(verdict(&rows, "makespan_vs_lb"), Verdict::Mismatch);
        assert!(rows.iter().any(|r| r.verdict.fails()));
    }

    #[test]
    fn incomparable_sets_are_refused_with_one_line() {
        let a = set(&[3.0, 3.0, 3.0], 1.5);
        let mut b = set(&[3.0, 3.0, 3.0], 1.5);
        b[1].provenance.cpu_model = "other cpu".into();
        let err = compare(&a, &b).unwrap_err();
        assert!(matches!(
            err,
            CompareError::Provenance {
                field: "CPU model",
                ..
            }
        ));
        assert!(!err.to_string().contains('\n'));
        let mut b = set(&[3.0, 3.0, 3.0], 1.5);
        b[0].provenance.scale = 0.5;
        assert!(matches!(
            compare(&a, &b),
            Err(CompareError::Provenance { field: "scale", .. })
        ));
        let mut b = set(&[3.0, 3.0, 3.0], 1.5);
        b[2].provenance.seed = 99;
        assert!(matches!(
            compare(&a, &b),
            Err(CompareError::Provenance { field: "seed", .. })
        ));
        let mut b = set(&[3.0, 3.0, 3.0], 1.5);
        b[0].provenance.nproc = 8;
        assert!(matches!(
            compare(&a, &b),
            Err(CompareError::Provenance { field: "nproc", .. })
        ));
    }
}
