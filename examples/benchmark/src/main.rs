//! `emts-benchmark` — the end-to-end and per-layer benchmark of the EMTS
//! reproduction. It drives the libraries through their public APIs only,
//! checks every operation's output, and ends its standard output with one
//! JSON line of results. See `README.md` for the workloads and metrics.
//!
//! ```text
//! emts-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1]
//!                [--scale <x>] [--out <file>]
//! emts-benchmark all --out-dir <dir> [--runs <n>] [--seed <first>] [--seconds <s>]
//!                [--trace 0|1] [--scale <x>]
//! emts-benchmark compare <dir-a> <dir-b>
//! ```

mod compare;
mod corpus;
mod harness;
mod online;
mod replay;
mod report;
mod spec;
mod stats;

use harness::Failures;
use report::{Metrics, Provenance, RunResult};
use spec::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: emts-benchmark --workload <name> [--seed <u64>] [--seconds <s>] \
     [--trace 0|1] [--scale <x>] [--out <file>]\n       \
     emts-benchmark all --out-dir <dir> [--runs <n>] [--seed <first>] [--seconds <s>] \
     [--trace 0|1] [--scale <x>]\n       \
     emts-benchmark compare <dir-a> <dir-b>\n\
     workloads: emts10-grelon, emts10-chti-serial, heuristics-grelon, online-chti";

/// Largest `--scale`: 100 × 288 corpus items is already hours of work.
const MAX_SCALE: f64 = 100.0;

/// Settings shared by a single run and `all`.
struct Settings {
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            seed: 2011,
            seconds: 20.0,
            trace: false,
            scale: 1.0,
        }
    }
}

impl Settings {
    /// Consumes `flag` if it is one of the shared settings.
    fn take(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--seed" => self.seed = number(flag, &value()?)?,
            "--seconds" => {
                self.seconds = number(flag, &value()?)?;
                if !(self.seconds.is_finite() && self.seconds >= 0.0) {
                    return Err("--seconds must be a finite number ≥ 0".into());
                }
            }
            "--trace" => {
                self.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                self.scale = number(flag, &value()?)?;
                if !(self.scale > 0.0 && self.scale <= MAX_SCALE) {
                    return Err(format!("--scale must lie in (0, {MAX_SCALE}]"));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn args(&self) -> Vec<String> {
        vec![
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
            "--scale".into(),
            self.scale.to_string(),
        ]
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

/// Walks `--flag value` pairs, handing each to `f(flag, value-getter)`.
fn flags(
    args: &[String],
    mut f: impl FnMut(&str, &mut dyn FnMut() -> Result<String, String>) -> Result<(), String>,
) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        f(flag, &mut value)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("--help" | "-h") | None => Err(USAGE.to_string()),
        _ => single(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("emts-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let mut s = Settings::default();
    let (mut workload, mut out) = (None, None);
    flags(args, |flag, value| {
        match flag {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}\n{USAGE}"))?);
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            _ if s.take(flag, &mut *value)? => {}
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        Ok(())
    })?;
    let w = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    let result = measure(w, &s)?;
    eprintln!(
        "{} seed {} trace {}: correct {} ({} of {} operations failed)",
        w.name(),
        s.seed,
        u8::from(s.trace),
        result.correct,
        result.failed,
        result.attempted
    );
    for line in result.failures.iter().chain(&result.notes) {
        eprintln!("  {line}");
    }
    if let Some(path) = out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, result.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result.summary_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn measure(w: Workload, s: &Settings) -> Result<RunResult, String> {
    let provenance = Provenance::collect(w, s.seed, s.scale, s.seconds, s.trace);
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut fails = Failures::default();
    let (seed, scale, seconds) = (s.seed, s.scale, s.seconds);
    match (w, s.trace) {
        (Workload::OnlineChti, false) => {
            online::run(seed, scale, seconds, &mut m, &mut notes, &mut fails)
        }
        (Workload::OnlineChti, true) => {
            online::trace(seed, scale, seconds, &mut m, &mut notes, &mut fails)
        }
        (_, false) => corpus::run(w, seed, scale, seconds, &mut m, &mut notes, &mut fails),
        (_, true) => corpus::trace(w, seed, scale, seconds, &mut m, &mut notes, &mut fails),
    }
    if !s.trace {
        m.set("peak_rss_mb", report::peak_rss_mb()?, 1);
    }
    m.set("failed_frac", fails.frac(), fails.attempted as usize);
    let metrics = m.finish(s.trace, &mut notes);
    Ok(RunResult {
        provenance,
        correct: fails.correct(),
        attempted: fails.attempted,
        failed: fails.failed,
        failures: fails.quoted,
        notes,
        metrics,
    })
}

/// Runs every workload `--runs` times, each in its own process (so each
/// run's peak RSS is its own), one after another, with seeds `--seed`,
/// `--seed + 1`, …; writes `<dir>/<workload>-<seed>[-trace].json`.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let mut s = Settings::default();
    let (mut dir, mut runs) = (None, 5u64);
    flags(args, |flag, value| {
        match flag {
            "--out-dir" => dir = Some(PathBuf::from(value()?)),
            "--runs" => runs = number(flag, &value()?)?,
            _ if s.take(flag, &mut *value)? => {}
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        Ok(())
    })?;
    let dir = dir.ok_or(format!("--out-dir is required\n{USAGE}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut failed = Vec::new();
    for w in Workload::ALL {
        for r in 0..runs {
            let run = Settings {
                seed: s.seed + r,
                ..s
            };
            let file = dir.join(format!(
                "{}-{}{}.json",
                w.name(),
                run.seed,
                if s.trace { "-trace" } else { "" }
            ));
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--out"])
                .arg(&file)
                .args(run.args())
                .status()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            if !status.success() {
                failed.push(format!("{} seed {}: {status}", w.name(), run.seed));
            }
        }
    }
    for f in &failed {
        eprintln!("failed: {f}");
    }
    Ok(if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Every workload, untraced and traced, at 2% scale: outputs check
    /// out, replays reproduce the runs, and every summary-line metric is
    /// measured except a percentile too few operations cannot support.
    #[test]
    fn every_workload_runs_correctly_at_small_scale() {
        let start = Instant::now();
        for w in Workload::ALL {
            for trace in [false, true] {
                let s = Settings {
                    seed: 5,
                    seconds: 0.0,
                    trace,
                    scale: 0.02,
                };
                let r = measure(w, &s).unwrap();
                assert!(r.correct, "{} trace {trace}: {:?}", w.name(), r.failures);
                assert!(r.attempted > 0 && r.failed == 0);
                for spec in spec::reported(trace) {
                    let omitted = format!("{} omitted", spec.name);
                    assert!(
                        r.metrics.contains_key(spec.name)
                            || r.notes.iter().any(|n| n.starts_with(&omitted)),
                        "{} trace {trace}: {} neither measured nor explained",
                        w.name(),
                        spec.name
                    );
                }
            }
        }
        if !cfg!(debug_assertions) {
            let took = start.elapsed().as_secs_f64();
            assert!(took < 15.0, "the smoke run took {took:.1} s");
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "online-chti", "--trace", "2"],
            &["--workload", "online-chti", "--scale", "0"],
            &["--workload", "online-chti", "--scale", "1e9"],
            &["--workload", "online-chti", "--seconds", "-1"],
            &["--workload", "online-chti", "--seed"],
            &["--seed", "3"],
            &["--workload", "online-chti", "--bogus", "1"],
        ] {
            assert!(single(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
