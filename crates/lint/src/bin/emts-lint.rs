//! `emts-lint` — rule-based static analysis for input files, committed
//! telemetry and project source invariants.
//!
//! ```text
//! usage: emts-lint [options] <path>...
//!
//!   --format text|json       report format (default: text)
//!   --deny error|warning|info|none
//!                            lowest severity that fails the run
//!                            (default: warning)
//!   --baseline <file>        suppress findings recorded in the baseline
//!   --write-baseline <file>  record current findings as the new baseline
//!   --rules                  print the rule catalogue and exit
//!
//! exit status: 0 clean, 1 new findings at or above the deny threshold,
//! 2 usage or I/O error, or a named file of no known kind.
//! ```
//!
//! Paths may be files or directories; directories are recursed and files
//! are classified by name (`.ptg`, `.platform`, `.rs`, `BENCH_*.json`,
//! `*_report.json`, `.trace.json`). A directory walk skips files of any
//! other kind; a file named on the command line that is of no such kind is
//! an error (exit 2). `target/`, `vendor/` and VCS directories are never
//! descended into; `tests/`, `benches/` and `examples/` are exempt from
//! source rules.

use lint::output;
use lint::rules::Severity;
use lint::Baseline;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Write to stdout, tolerating a closed pipe (`emts-lint … | head`): the
/// exit code is the contract, so a reader that stopped early is not an
/// error worth panicking over.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(text.as_bytes());
    let _ = out.flush();
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

struct Args {
    paths: Vec<PathBuf>,
    format: Format,
    deny: Option<Severity>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        paths: Vec::new(),
        format: Format::Text,
        deny: Some(Severity::Warning),
        baseline: None,
        write_baseline: None,
        list_rules: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => {
                args.format = match iter.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => return Err(format!("--format expects text|json, got {other:?}")),
                }
            }
            "--deny" => {
                args.deny = match iter.next().as_deref() {
                    Some("none") => None,
                    Some(s) => Some(Severity::parse(s).ok_or_else(|| {
                        format!("--deny expects error|warning|info|none, got {s:?}")
                    })?),
                    None => return Err("--deny needs a severity".to_string()),
                }
            }
            "--baseline" => {
                args.baseline = Some(iter.next().ok_or("--baseline needs a file")?);
            }
            "--write-baseline" => {
                args.write_baseline = Some(iter.next().ok_or("--write-baseline needs a file")?);
            }
            "--rules" => args.list_rules = true,
            "--help" | "-h" => return Err("help".to_string()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if !args.list_rules && args.paths.is_empty() {
        return Err("no paths given".to_string());
    }
    Ok(args)
}

fn usage() -> &'static str {
    "usage: emts-lint [--format text|json] [--deny error|warning|info|none] \
     [--baseline <file>] [--write-baseline <file>] [--rules] <path>..."
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if e == "help" {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("emts-lint: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        let mut listing = String::new();
        for r in lint::CATALOGUE {
            listing.push_str(&format!(
                "{:<26} {:<8} {:<9} {}\n",
                r.id, r.severity, r.category, r.summary
            ));
        }
        emit(&listing);
        return ExitCode::SUCCESS;
    }

    let findings = match lint::lint_paths(&args.paths) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("emts-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.write_baseline {
        let baseline = Baseline::from_findings(&findings);
        if let Err(e) = std::fs::write(path, baseline.to_json()) {
            eprintln!("emts-lint: {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let (new, baselined) = match &args.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("emts-lint: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let baseline = match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("emts-lint: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            baseline.partition(findings)
        }
        None => (findings, Vec::new()),
    };

    match args.format {
        Format::Text => emit(&output::render_text(&new, baselined.len())),
        Format::Json => emit(&format!("{}\n", output::render_json(&new, baselined.len()))),
    }

    let failed = args
        .deny
        .is_some_and(|threshold| output::reaches(&new, threshold));
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
