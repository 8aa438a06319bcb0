//! `emts-report`: inspect, diff, and gate the JSON artifacts written by
//! `emts-sim --report` and the bench binaries.
//!
//! ```text
//! emts-report show run.json            # pretty-print one report
//! emts-report show --json run.json     # re-emit normalized JSON
//! emts-report diff a.json b.json       # per-phase / cache / makespan deltas
//! emts-report timeline run.json        # per-generation series table
//! emts-report flame run.json           # self-time table over the span tree
//! emts-report regress base.json fresh.json [--tolerance 40]
//!                                      # noise-tolerant benchmark gate
//! ```
//!
//! Exit codes: `0` success, `1` regression detected by `regress`, `2`
//! usage or input errors.

use obs::regress;
use obs::render::{render_diff, render_flame, render_report, render_timeline};
use obs::RunReport;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  emts-report show [--json] <report.json>
  emts-report diff <a.json> <b.json>
  emts-report timeline <report.json>
  emts-report flame <report.json>
  emts-report regress <baseline.json> <fresh.json> [--tolerance <pct>]";

fn load(path: &str) -> Result<RunReport, String> {
    RunReport::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Parses any JSON file (reports or free-form `BENCH_*.json`).
fn load_value(path: &str) -> Result<serde::Value, String> {
    serde_json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("show") => {
            let mut json = false;
            let mut paths = Vec::new();
            for a in &args[1..] {
                match a.as_str() {
                    "--json" => json = true,
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag {flag}\n{USAGE}"));
                    }
                    path => paths.push(path),
                }
            }
            let [path] = paths[..] else {
                return Err(format!("`show` takes exactly one report\n{USAGE}"));
            };
            let report = load(path)?;
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", render_report(&report));
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("diff") => {
            let [a_path, b_path] = &args[1..] else {
                return Err(format!("`diff` takes exactly two reports\n{USAGE}"));
            };
            // Peek at both declared versions first: when the two files
            // disagree, name both in one line instead of surfacing a parse
            // error for whichever side loads first.
            let (a_text, b_text) = (read(a_path)?, read(b_path)?);
            let (va, vb) = (
                RunReport::schema_version_of(&a_text),
                RunReport::schema_version_of(&b_text),
            );
            if let (Some(va), Some(vb)) = (va, vb) {
                if va != vb {
                    return Err(format!(
                        "schema mismatch: {a_path} is schema v{va}, {b_path} is schema v{vb}"
                    ));
                }
            }
            let a = RunReport::from_json(&a_text).map_err(|e| format!("{a_path}: {e}"))?;
            let b = RunReport::from_json(&b_text).map_err(|e| format!("{b_path}: {e}"))?;
            print!("{}", render_diff(&a, &b));
            Ok(ExitCode::SUCCESS)
        }
        Some("timeline") => {
            let [path] = &args[1..] else {
                return Err(format!("`timeline` takes exactly one report\n{USAGE}"));
            };
            print!("{}", render_timeline(&load(path)?));
            Ok(ExitCode::SUCCESS)
        }
        Some("flame") => {
            let [path] = &args[1..] else {
                return Err(format!("`flame` takes exactly one report\n{USAGE}"));
            };
            print!("{}", render_flame(&load(path)?));
            Ok(ExitCode::SUCCESS)
        }
        Some("regress") => {
            let mut tolerance = 0.40;
            let mut paths = Vec::new();
            let mut iter = args[1..].iter();
            while let Some(a) = iter.next() {
                match a.as_str() {
                    "--tolerance" => {
                        let v = iter
                            .next()
                            .ok_or_else(|| format!("--tolerance needs a percentage\n{USAGE}"))?;
                        let pct: f64 = v
                            .parse()
                            .map_err(|_| format!("bad --tolerance value {v:?}"))?;
                        if !(pct > 0.0 && pct.is_finite()) {
                            return Err(format!(
                                "--tolerance must be a positive percentage, got {v}"
                            ));
                        }
                        tolerance = pct / 100.0;
                    }
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag {flag}\n{USAGE}"));
                    }
                    path => paths.push(path.to_string()),
                }
            }
            let [baseline_path, fresh_path] = &paths[..] else {
                return Err(format!(
                    "`regress` takes a baseline and a fresh file\n{USAGE}"
                ));
            };
            let baseline = load_value(baseline_path)?;
            let fresh = load_value(fresh_path)?;
            let deltas = regress::compare(&baseline, &fresh, tolerance);
            print!("{}", regress::render(&deltas, tolerance));
            if regress::has_regression(&deltas) {
                println!("FAIL: {fresh_path} regressed against {baseline_path}");
                Ok(ExitCode::FAILURE)
            } else {
                println!("OK: {fresh_path} within tolerance of {baseline_path}");
                Ok(ExitCode::SUCCESS)
            }
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
