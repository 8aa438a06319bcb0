//! Integration tests driving the `emts-sim` binary.
//!
//! Invalid input must produce a non-zero exit status and a one-line error
//! on stderr — never a panic, a backtrace, or a zero exit. Valid input
//! must succeed, including the fault-injection path.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn emts_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emts-sim"))
        .args(args)
        .output()
        .expect("binary spawns")
}

/// The first stderr line, which must carry the whole diagnostic.
fn first_stderr_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Writes `content` to a file of its own: every call gets a fresh
/// directory, so tests running in parallel never rewrite a file another
/// test is reading.
fn write_temp(name: &str, content: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("emts-sim-cli-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("temp file");
    path
}

fn valid_platform() -> PathBuf {
    write_temp("ok.platform", "name test\nprocessors 8\nspeed_gflops 2.0\n")
}

fn valid_ptg() -> PathBuf {
    write_temp(
        "ok.ptg",
        "task a 2e9 0.1\ntask b 3e9 0.2\ntask c 1e9 0.0\nedge 0 1\nedge 0 2\n",
    )
}

fn assert_clean_failure(out: &Output, needle: &str, ctx: &str) {
    assert!(!out.status.success(), "{ctx}: must exit non-zero");
    let line = first_stderr_line(out);
    assert!(
        line.contains(needle),
        "{ctx}: first stderr line {line:?} must mention {needle:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "{ctx}: must not panic: {stderr}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = emts_sim(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert_clean_failure(&out, "unknown flag", "--bogus");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn missing_required_flags_are_usage_errors() {
    let out = emts_sim(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert_clean_failure(&out, "--platform is required", "no args");
}

#[test]
fn bad_fault_spec_is_a_usage_error() {
    for (spec, needle) in [
        ("bogus=1", "unknown fault spec key"),
        ("crash=1.5", "probability"),
        ("perturb", "key=value"),
    ] {
        let out = emts_sim(&["--faults", spec]);
        assert_eq!(out.status.code(), Some(2), "--faults {spec}");
        assert_clean_failure(&out, needle, spec);
    }
}

#[test]
fn bad_numeric_flags_are_usage_errors() {
    for args in [["--trials", "0"], ["--trials", "many"], ["--seed", "-1"]] {
        let out = emts_sim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_clean_failure(&out, "bad", &args.join(" "));
    }
}

#[test]
fn missing_input_file_fails_cleanly() {
    let ptg = valid_ptg();
    let out = emts_sim(&[
        "--platform",
        "/nonexistent/chti.platform",
        "--ptg",
        ptg.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_clean_failure(
        &out,
        "cannot read /nonexistent/chti.platform",
        "missing file",
    );
}

#[test]
fn garbage_platform_file_fails_with_the_path_and_line() {
    let bad = write_temp("bad.platform", "name x\nprocessors 0\nspeed_gflops 1\n");
    let ptg = valid_ptg();
    let out = emts_sim(&[
        "--platform",
        bad.to_str().unwrap(),
        "--ptg",
        ptg.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    // The diagnostic names the file and the offending line.
    assert_clean_failure(&out, "bad.platform", "zero processors");
    assert_clean_failure(&out, "line 2", "zero processors");
}

#[test]
fn garbage_ptg_file_fails_with_the_path_and_line() {
    let platform = valid_platform();
    let bad = write_temp("bad.ptg", "task a 1e9 0.1\ntask b -5 0.2\n");
    let out = emts_sim(&[
        "--platform",
        platform.to_str().unwrap(),
        "--ptg",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_clean_failure(&out, "bad.ptg", "negative flop");
    assert_clean_failure(&out, "line 2", "negative flop");
}

#[test]
fn truncated_binary_garbage_ptg_fails_cleanly() {
    let platform = valid_platform();
    let garbage = write_temp("garbage.ptg", "\u{0}\u{1}\u{2} not a ptg\n");
    let out = emts_sim(&[
        "--platform",
        platform.to_str().unwrap(),
        "--ptg",
        garbage.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_clean_failure(&out, "garbage.ptg", "binary garbage");
}

#[test]
fn valid_run_with_faults_succeeds_and_reports_the_distribution() {
    let platform = valid_platform();
    let ptg = valid_ptg();
    let out = emts_sim(&[
        "--platform",
        platform.to_str().unwrap(),
        "--ptg",
        ptg.to_str().unwrap(),
        "--algorithm",
        "mcpa",
        "--faults",
        "seed=7,perturb=0.2,crash=0.1",
        "--trials",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("faults ["),
        "missing fault summary: {stdout}"
    );
    assert!(stdout.contains("degradation mean"), "{stdout}");
}

#[test]
fn fault_free_spec_reports_unit_degradation() {
    // `--faults "seed=7"` arms no fault source: degradation must be
    // exactly 1x across all trials (bit-identity of the replay).
    let platform = valid_platform();
    let ptg = valid_ptg();
    let out = emts_sim(&[
        "--platform",
        platform.to_str().unwrap(),
        "--ptg",
        ptg.to_str().unwrap(),
        "--algorithm",
        "mcpa",
        "--faults",
        "seed=7",
        "--trials",
        "3",
        "--json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = serde_json::parse(&stdout).expect("valid JSON report");
    let faults = report.get("faults").expect("report carries a faults block");
    let ratio = |key: &str| match faults.get(key) {
        Some(serde::Value::Float(v)) => *v,
        Some(serde::Value::Int(v)) => *v as f64,
        other => panic!("{key}: expected a number, got {other:?}"),
    };
    assert_eq!(ratio("mean_degradation"), 1.0);
    assert_eq!(ratio("worst_degradation"), 1.0);
    let crashes = faults
        .get("kinds")
        .and_then(|k| k.get("crash"))
        .and_then(|c| c.get("events"));
    assert_eq!(crashes, Some(&serde::Value::Int(0)));
}

/// The keys of a JSON object, in order, space-separated.
fn keys(v: &serde::Value) -> String {
    let fields = v.as_object().expect("a JSON object");
    let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    names.join(" ")
}

#[test]
fn fault_run_json_carries_each_fact_once() {
    // The record's fields, `utilization` among them; the fault summary
    // counts crashes and processor failures only under `kinds`.
    let platform = valid_platform();
    let ptg = valid_ptg();
    let out = emts_sim(&[
        "--platform",
        platform.to_str().unwrap(),
        "--ptg",
        ptg.to_str().unwrap(),
        "--algorithm",
        "mcpa",
        "--faults",
        "seed=7,perturb=0.2,crash=0.3,procfail=0.1",
        "--json",
    ]);
    assert!(out.status.success(), "{}", first_stderr_line(&out));
    let report = serde_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        keys(&report),
        "algorithm platform model tasks allocation makespan utilization \
         allocation_seconds mapping_seconds faults"
    );
    match report.get("utilization") {
        Some(serde::Value::Float(u)) => assert!(*u > 0.0 && *u <= 1.0, "utilization {u}"),
        other => panic!("utilization: expected a float, got {other:?}"),
    }
    let faults = report.get("faults").expect("faults block");
    assert_eq!(
        keys(faults),
        "spec trials fault_free_makespan mean_degradation p95_degradation \
         worst_degradation tasks_killed reschedules kinds"
    );
    let kinds = faults.get("kinds").expect("kinds block");
    assert_eq!(keys(kinds), "crash straggler perturb node_failure");
    for (kind, stat) in kinds.as_object().unwrap() {
        assert_eq!(
            keys(stat),
            "trials_affected events mean_degradation",
            "{kind}"
        );
    }
}

#[test]
fn report_flag_writes_a_loadable_run_report() {
    let platform = valid_platform();
    let ptg = valid_ptg();
    let report_path = std::env::temp_dir().join(format!(
        "emts-sim-cli-{}/fault.report.json",
        std::process::id()
    ));
    let out = emts_sim(&[
        "--platform",
        platform.to_str().unwrap(),
        "--ptg",
        ptg.to_str().unwrap(),
        "--algorithm",
        "mcpa",
        "--faults",
        "seed=7,crash=0.3",
        "--trials",
        "2",
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let loaded = obs::RunReport::load(Path::new(&report_path)).expect("report loads");
    assert_eq!(loaded.meta["algorithm"], "MCPA");
}

#[test]
fn kill_all_fault_is_a_clean_one_line_failure() {
    // Satellite of the typed `NoSurvivors` error: the whole platform
    // dying mid-run must surface as a one-line diagnostic, not a panic.
    let platform = valid_platform();
    let ptg = valid_ptg();
    let out = emts_sim(&[
        "--platform",
        platform.to_str().unwrap(),
        "--ptg",
        ptg.to_str().unwrap(),
        "--algorithm",
        "mcpa",
        "--faults",
        "seed=3,kill_all=0.5",
    ]);
    assert_clean_failure(&out, "no surviving processors", "kill_all fault run");
    assert_eq!(out.status.code(), Some(1), "runtime failure, not usage");
}

#[test]
fn online_mode_rejects_one_shot_flags() {
    let platform = valid_platform();
    let ptg = valid_ptg();
    for extra in [
        &["--ptg", ptg.to_str().unwrap()][..],
        &["--faults", "seed=1"][..],
        &["--gantt"][..],
    ] {
        let mut args = vec!["--online", "--platform", platform.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = emts_sim(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{extra:?} must be a usage error in online mode"
        );
        assert_clean_failure(&out, "--online", &format!("online + {extra:?}"));
    }
}

#[test]
fn online_total_outage_without_repair_fails_cleanly() {
    let platform = valid_platform();
    let out = emts_sim(&[
        "--online",
        "--platform",
        platform.to_str().unwrap(),
        "--jobs",
        "2",
        "--seed",
        "7",
        "--churn",
        "fail_all_at=40",
        "--reactive-only",
    ]);
    assert_clean_failure(&out, "no surviving processors", "online fail_all churn");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn online_json_is_reproducible_modulo_wall_clock() {
    // Same seed, same config: the JSON reports must agree on every line
    // except the `*_seconds` wall-clock measurements.
    let platform = valid_platform();
    let run = || {
        let out = emts_sim(&[
            "--online",
            "--platform",
            platform.to_str().unwrap(),
            "--jobs",
            "3",
            "--seed",
            "11",
            "--arrival-mean",
            "25",
            "--epoch",
            "50",
            "--churn",
            "fail_every=150,repair_after=90",
            "--json",
        ]);
        assert!(
            out.status.success(),
            "online run failed: {}",
            first_stderr_line(&out)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("_seconds"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (a, b) = (run(), run());
    assert!(a.contains("\"rolling\""), "mode must be rolling: {a}");
    assert_eq!(a, b, "seeded online runs diverged");
}
