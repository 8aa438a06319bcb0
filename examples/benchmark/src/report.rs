//! The result of one run: provenance, correctness counts, metrics, and
//! their two renderings (the full result file and the one-line summary that
//! ends standard output).

use crate::spec::{self, Workload};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Where and how a result was produced. `compare` refuses to put results
/// side by side unless seed, scale, `nproc` and CPU model agree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: u64,
    pub cpu_model: String,
    /// `git rev-parse HEAD` of the checkout, read from `.git` in the
    /// working directory; `null` outside a git checkout.
    pub git_head: Option<String>,
    pub params: BTreeMap<String, String>,
}

impl Provenance {
    pub fn collect(workload: Workload, seed: u64, scale: f64, seconds: f64, trace: bool) -> Self {
        Provenance {
            workload: workload.name().to_string(),
            seed,
            scale,
            seconds,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model: cpu_model(),
            git_head: git_head(Path::new(".git")),
            params: workload.params(scale).into_iter().collect(),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `HEAD` by reading the repository files directly, so the run
/// neither starts a process nor looks outside its working directory.
fn git_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub samples: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub provenance: Provenance,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first failed checks, verbatim.
    pub failures: Vec<String>,
    /// Why a metric was omitted, and similar remarks.
    pub notes: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl RunResult {
    /// The summary line: `correct`, `attempted`, `failed`, and the
    /// end-to-end (untraced) or per-layer (traced) metrics with units.
    pub fn summary_line(&self) -> String {
        let metrics = spec::reported(self.provenance.trace)
            .filter_map(|s| Some((s, self.metrics.get(s.name)?)))
            .map(|(s, m)| {
                (
                    s.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Int(self.attempted.into())),
            ("failed".to_string(), Value::Int(self.failed.into())),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("values serialize infallibly")
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize infallibly")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Collects metrics by catalogue name; units come from the catalogue.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let spec = spec::metric(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit: spec.unit.to_string(),
                samples: samples as u64,
            },
        );
    }

    /// Finishes the map, noting every summary-line metric the run could
    /// not measure (a failed operation, or a percentile that too few
    /// operations cannot support).
    pub fn finish(self, trace: bool, notes: &mut Vec<String>) -> BTreeMap<String, Metric> {
        let missing: Vec<&str> = spec::reported(trace)
            .map(|s| s.name)
            .filter(|n| !self.0.contains_key(*n))
            .collect();
        if !missing.is_empty() {
            notes.push(format!("not measured: {}", missing.join(", ")));
        }
        self.0
    }
}

/// Peak resident set size of this process, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A result with the given metrics (units from the catalogue).
    pub(crate) fn sample(
        workload: &str,
        seed: u64,
        trace: bool,
        values: &[(&str, f64)],
    ) -> RunResult {
        let mut metrics = BTreeMap::new();
        for &(name, value) in values {
            metrics.insert(
                name.to_string(),
                Metric {
                    value,
                    unit: spec::metric(name).map_or("s", |s| s.unit).to_string(),
                    samples: 7,
                },
            );
        }
        RunResult {
            provenance: Provenance {
                workload: workload.to_string(),
                seed,
                scale: 1.0,
                seconds: 20.0,
                trace,
                nproc: 2,
                cpu_model: "test cpu".to_string(),
                git_head: None,
                params: [("platform".to_string(), "Grelon (P=120)".to_string())].into(),
            },
            correct: true,
            attempted: 576,
            failed: 0,
            failures: vec![],
            notes: vec!["op_ms_p99 omitted".to_string()],
            metrics,
        }
    }

    #[test]
    fn result_json_round_trips_exactly() {
        let r = sample(
            "emts10-grelon",
            2011,
            false,
            &[("pass_s", 0.1 + 0.2), ("makespan_vs_lb", 1.0 / 3.0)],
        );
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.metrics["makespan_vs_lb"].value.to_bits(),
            (1.0f64 / 3.0).to_bits()
        );
    }

    #[test]
    fn summary_line_carries_exactly_the_reported_metrics() {
        let values: Vec<(&str, f64)> = spec::reported(false).map(|s| (s.name, 1.25)).collect();
        let mut r = sample("heuristics-grelon", 1, false, &values);
        r.metrics.insert(
            "failed_frac".to_string(),
            Metric {
                value: 0.0,
                unit: "share".to_string(),
                samples: 1,
            },
        );
        let line = serde_json::parse(&r.summary_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = spec::reported(false).map(|s| s.name).collect();
        assert_eq!(names, expected);
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("pass_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }

    #[test]
    fn git_head_follows_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("emts-bench-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_head(&dir), None);
    }
}
