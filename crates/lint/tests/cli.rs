//! End-to-end tests of the `emts-lint` binary: exit codes, report formats
//! and the baseline workflow.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_emts-lint")
}

fn data() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("emts-lint runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emts-lint-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn clean_input_exits_zero() {
    let good = data().join("fft16.ptg");
    let out = run(&[good.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 errors, 0 warnings"), "{text}");
}

#[test]
fn corpus_fails_under_deny_warning_and_passes_under_deny_none() {
    let bad = data().join("bad");
    let bad = bad.to_str().expect("utf8 path");
    let out = run(&[bad]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = run(&["--deny", "none", bad]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn severity_threshold_separates_warnings_from_errors() {
    let orphan = data().join("bad/orphan.ptg");
    let orphan = orphan.to_str().expect("utf8 path");
    // ptg-orphan is a warning: it fails --deny warning but not --deny error.
    assert_eq!(run(&[orphan]).status.code(), Some(1));
    assert_eq!(run(&["--deny", "error", orphan]).status.code(), Some(0));
}

#[test]
fn json_report_is_machine_readable() {
    let cycle = data().join("bad/cycle.ptg");
    let out = run(&[
        "--format",
        "json",
        "--deny",
        "none",
        cycle.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    for needle in ["\"version\": 1", "\"rule\": \"ptg-cycle\"", "\"errors\": 1"] {
        assert!(json.contains(needle), "{needle} missing in {json}");
    }
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(run(&["--deny", "loud", "x.ptg"]).status.code(), Some(2));
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["definitely/not/here.ptg"]).status.code(), Some(2));
}

#[test]
fn an_explicit_file_of_unknown_kind_is_a_usage_error() {
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let dir = scratch("unknown-kind");
    let schedule = dir.join("x.schedule.json");
    std::fs::write(&schedule, "{}").expect("temp file");
    for path in [readme, schedule] {
        let out = run(&["--deny", "warning", path.to_str().expect("utf8 path")]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains(path.to_str().expect("utf8 path")), "{err}");
        assert!(err.contains("*.ptg"), "{err}");
    }
    // A directory walk still skips the same file.
    let walked = run(&["--deny", "warning", dir.to_str().expect("utf8 path")]);
    assert_eq!(walked.status.code(), Some(0), "{walked:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn rules_listing_covers_the_catalogue() {
    let out = run(&["--rules"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in lint::CATALOGUE {
        assert!(text.contains(rule.id), "{} missing from --rules", rule.id);
    }
}

#[test]
fn baseline_absorbs_known_findings_and_gates_new_ones() {
    let dir = scratch("baseline");
    let baseline = dir.join("lint-baseline.json");
    let baseline = baseline.to_str().expect("utf8 path");
    let orphan = data().join("bad/orphan.ptg");
    let orphan = orphan.to_str().expect("utf8 path");
    let cycle = data().join("bad/cycle.ptg");
    let cycle = cycle.to_str().expect("utf8 path");

    // Adopt the current findings, then the same input passes.
    let out = run(&["--write-baseline", baseline, "--deny", "none", orphan]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = run(&["--baseline", baseline, orphan]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(1 baselined)"), "{text}");

    // A finding absent from the baseline still gates.
    let out = run(&["--baseline", baseline, orphan, cycle]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    std::fs::remove_dir_all(dir).ok();
}
