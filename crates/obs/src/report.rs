//! Schema-versioned run reports.

use crate::hist::LogHistogram;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Version of the [`RunReport`] JSON layout. Bump on any incompatible
/// change; [`RunReport::from_json`] rejects mismatches outright rather than
/// guessing at migrations.
///
/// v2: bumped when the embedded convergence trace gained the (since
/// retired) two-tier fitness series; v1 reports are rejected with a
/// [`ReportError::SchemaMismatch`]. v2 reports that still carry those keys
/// load unchanged — the trace is stored opaquely.
pub const SCHEMA_VERSION: u32 = 2;

/// Accumulated wall time of one named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Total seconds across all entries of the phase.
    pub seconds: f64,
    /// How many times the phase ran.
    pub count: u64,
}

/// One run's complete telemetry: phase timings, counters, gauges, latency
/// histograms, and (for EA runs) the per-generation convergence trace.
///
/// Produced by [`crate::StatsRecorder::report`], written as JSON by the
/// `--report <path>` flag of `emts-sim` and the bench binaries, and
/// consumed by the `emts-report` CLI. Nested span timings appear in
/// `phases` under `/`-joined paths (`"ea/evaluate"`); flat accumulators
/// (worker busy time, batch dispatch/drain) appear under plain names.
///
/// `convergence` carries the EA's `ConvergenceTrace` as a raw JSON value:
/// `obs` sits below `emts` in the crate graph, so it stores the trace
/// opaquely instead of depending on the concrete type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Always [`SCHEMA_VERSION`] for reports written by this build.
    pub schema_version: u32,
    /// The producing binary (`"emts-sim"`, `"fig4"`, ...).
    pub source: String,
    /// Free-form run context: workload, platform, seed, configuration.
    pub meta: BTreeMap<String, String>,
    /// Wall-clock seconds from recorder creation to snapshot.
    pub wall_seconds: f64,
    /// Phase timings keyed by span path or flat phase name.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins observations.
    pub gauges: BTreeMap<String, f64>,
    /// Latency distributions.
    pub histograms: BTreeMap<String, LogHistogram>,
    /// The EA's convergence trace, if the run produced one.
    pub convergence: Option<Value>,
}

/// Why a report failed to load.
#[derive(Debug)]
pub enum ReportError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The JSON text did not parse, or parsed into the wrong shape.
    Parse(String),
    /// The report is from an incompatible schema version.
    SchemaMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Io(e) => write!(f, "report I/O error: {e}"),
            ReportError::Parse(e) => write!(f, "malformed report: {e}"),
            ReportError::SchemaMismatch { found, expected } => write!(
                f,
                "report schema version {found} is not supported (this build reads {expected})"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<std::io::Error> for ReportError {
    fn from(e: std::io::Error) -> Self {
        ReportError::Io(e)
    }
}

impl RunReport {
    /// An empty report at the current schema version.
    pub fn new(source: &str) -> Self {
        RunReport {
            schema_version: SCHEMA_VERSION,
            source: source.to_string(),
            meta: BTreeMap::new(),
            wall_seconds: 0.0,
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            convergence: None,
        }
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parses a report, rejecting unknown schema versions before looking at
    /// anything else.
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        let value = serde_json::parse(text).map_err(|e| ReportError::Parse(e.to_string()))?;
        let version = value
            .get("schema_version")
            .ok_or_else(|| ReportError::Parse("missing `schema_version`".into()))?;
        let found = u32::from_value(version)
            .map_err(|e| ReportError::Parse(format!("schema_version: {e}")))?;
        if found != SCHEMA_VERSION {
            return Err(ReportError::SchemaMismatch {
                found,
                expected: SCHEMA_VERSION,
            });
        }
        RunReport::from_value(&value).map_err(|e| ReportError::Parse(e.to_string()))
    }

    /// Peeks at a report's declared `schema_version` without validating
    /// the rest, so callers comparing two reports can name *both* versions
    /// in one error instead of failing on whichever file loads first.
    pub fn schema_version_of(text: &str) -> Option<u32> {
        let value = serde_json::parse(text).ok()?;
        u32::from_value(value.get("schema_version")?).ok()
    }

    /// Writes the report as pretty JSON, creating parent directories.
    pub fn save(&self, path: &Path) -> Result<(), ReportError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json() + "\n")?;
        Ok(())
    }

    /// Loads and validates a report from disk.
    pub fn load(path: &Path) -> Result<Self, ReportError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Fraction of fitness lookups served by the memo cache, if the run
    /// recorded the `emts.cache.*` counters.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = *self.counters.get("emts.cache.hits")?;
        let misses = *self.counters.get("emts.cache.misses")?;
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// The run's best makespan, if recorded.
    pub fn best_makespan(&self) -> Option<f64> {
        self.gauges.get("emts.best_makespan").copied()
    }

    /// Total seconds of the *direct* children of span path `parent` (e.g.
    /// `children_seconds("ea")` sums `ea/seed`, `ea/mutate`, ... but not
    /// `ea/evaluate/pool`).
    pub fn children_seconds(&self, parent: &str) -> f64 {
        let prefix = format!("{parent}/");
        self.phases
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, p)| p.seconds)
            .sum()
    }

    /// The phase stat at span path `path`, if recorded. Also matches a path
    /// *suffix* when unambiguous-by-construction lookups are inconvenient
    /// (reports produced under an extra outer span, e.g. `allocate/ea`
    /// found via `ea`).
    pub fn phase(&self, path: &str) -> Option<&PhaseStat> {
        self.phases.get(path).or_else(|| {
            let suffix = format!("/{path}");
            let mut matches = self.phases.iter().filter(|(k, _)| k.ends_with(&suffix));
            let first = matches.next()?;
            matches.next().is_none().then_some(first.1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("unit-test");
        r.wall_seconds = 1.5;
        r.meta.insert("workload".into(), "fft8".into());
        r.phases.insert(
            "ea".into(),
            PhaseStat {
                seconds: 1.4,
                count: 1,
            },
        );
        r.phases.insert(
            "ea/evaluate".into(),
            PhaseStat {
                seconds: 1.0,
                count: 10,
            },
        );
        r.phases.insert(
            "ea/evaluate/deep".into(),
            PhaseStat {
                seconds: 0.7,
                count: 10,
            },
        );
        r.phases.insert(
            "ea/mutate".into(),
            PhaseStat {
                seconds: 0.3,
                count: 10,
            },
        );
        r.counters.insert("emts.cache.hits".into(), 30);
        r.counters.insert("emts.cache.misses".into(), 10);
        r.gauges.insert("emts.best_makespan".into(), 12.25);
        let mut h = LogHistogram::latency_default();
        h.record(3e-5);
        h.record(9e-5);
        r.histograms.insert("pool.eval_seconds".into(), h);
        r.convergence = Some(Value::Array(vec![Value::Int(1), Value::Int(2)]));
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let restored = RunReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(report, restored);
    }

    #[test]
    fn save_and_load_via_disk() {
        let report = sample();
        let dir = std::env::temp_dir().join("obs-report-test");
        let path = dir.join("nested/run.json");
        report.save(&path).expect("save");
        let restored = RunReport::load(&path).expect("load");
        assert_eq!(report, restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut report = sample();
        report.schema_version = SCHEMA_VERSION + 1;
        match RunReport::from_json(&report.to_json()) {
            Err(ReportError::SchemaMismatch { found, expected }) => {
                assert_eq!(found, SCHEMA_VERSION + 1);
                assert_eq!(expected, SCHEMA_VERSION);
            }
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_version_and_garbage_are_parse_errors() {
        assert!(matches!(
            RunReport::from_json("{}"),
            Err(ReportError::Parse(_))
        ));
        assert!(matches!(
            RunReport::from_json("not json"),
            Err(ReportError::Parse(_))
        ));
    }

    #[test]
    fn derived_quantities() {
        let report = sample();
        assert_eq!(report.cache_hit_rate(), Some(0.75));
        assert_eq!(report.best_makespan(), Some(12.25));
        // Direct children only: evaluate + mutate, not evaluate/deep.
        assert!((report.children_seconds("ea") - 1.3).abs() < 1e-12);
        assert_eq!(report.phase("ea").unwrap().count, 1);
        assert_eq!(report.phase("evaluate").unwrap().count, 10);
        assert_eq!(report.phase("mutate").unwrap().seconds, 0.3);
        assert!(report.phase("nonexistent").is_none());
    }
}
