//! End-to-end tests of the `emts-report` binary: exit codes, the
//! schema-mismatch one-liner on `diff`, and the `regress` gate contract
//! that `scripts/ci.sh` relies on (self-comparison passes, a synthetic
//! inflation fails with a non-zero exit).

use obs::{RunReport, StatsRecorder};
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_emts-report"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emts-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn write(name: &str, contents: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, contents).expect("write test file");
    path
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn emts-report")
}

fn sample_report() -> String {
    let rec = StatsRecorder::new();
    use obs::Recorder as _;
    rec.time("ea", || {
        rec.time("evaluate", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
    });
    rec.add("emts.cache.hits", 3);
    rec.add("emts.cache.misses", 7);
    rec.report("cli-test").to_json()
}

#[test]
fn show_renders_a_report() {
    let path = write("show.json", &sample_report());
    let out = run(bin().arg("show").arg(&path));
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cli-test"), "{text}");
    assert!(text.contains("ea/evaluate"), "{text}");
}

#[test]
fn diff_on_mismatched_schema_versions_is_one_typed_line() {
    let a = write("diff_current.json", &sample_report());
    let current = format!("\"schema_version\": {}", obs::report::SCHEMA_VERSION);
    let future = sample_report().replacen(&current, "\"schema_version\": 99", 1);
    assert!(
        future.contains("\"schema_version\": 99"),
        "fixture edit failed"
    );
    let b = write("diff_v99.json", &future);
    let out = run(bin().arg("diff").arg(&a).arg(&b));
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "expected one line, got:\n{err}");
    assert!(err.contains("schema mismatch"), "{err}");
    assert!(
        err.contains(&format!("schema v{}", obs::report::SCHEMA_VERSION)),
        "{err}"
    );
    assert!(err.contains("schema v99"), "{err}");
}

#[test]
fn diff_on_matching_reports_succeeds() {
    let a = write("diff_a.json", &sample_report());
    let b = write("diff_b.json", &sample_report());
    let out = run(bin().arg("diff").arg(&a).arg(&b));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn timeline_and_flame_render_from_a_report_file() {
    let mut report = RunReport::from_json(&sample_report()).expect("sample parses");
    report.convergence = Some(
        serde_json::parse(
            r#"{"generations": [{"generation": 0, "best": 10.0, "mean": 12.0}],
                "cache_hits": 1, "cache_misses": 2}"#,
        )
        .expect("trace parses"),
    );
    let path = write("timeline.json", &report.to_json());
    let out = run(bin().arg("timeline").arg(&path));
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("10.0000"));
    let out = run(bin().arg("flame").arg(&path));
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("self"), "{text}");
    assert!(text.contains("ea/evaluate"), "{text}");
}

#[test]
fn show_rejects_an_old_schema_with_one_typed_line() {
    // A report from an older schema must fail with the loader's one-line
    // SchemaMismatch error, not render a partial view.
    let current = format!("\"schema_version\": {}", obs::report::SCHEMA_VERSION);
    let old = sample_report().replacen(&current, "\"schema_version\": 1", 1);
    assert!(old.contains("\"schema_version\": 1"), "fixture edit failed");
    let path = write("report_v1.json", &old);
    let out = run(bin().arg("show").arg(&path));
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "expected one line, got:\n{err}");
    assert!(err.contains("schema version 1 is not supported"), "{err}");
}

#[test]
fn regress_self_comparison_passes() {
    let bench = r#"{"paths_ns_per_eval": {"pooled": 6000.0}, "throughput_ptgs_per_sec": 7913.0}"#;
    let path = write("bench_self.json", bench);
    let out = run(bin().arg("regress").arg(&path).arg(&path));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
}

#[test]
fn regress_flags_synthetic_inflation_with_nonzero_exit() {
    let base = write(
        "bench_base.json",
        r#"{"paths_ns_per_eval": {"pooled": 6000.0}, "throughput_ptgs_per_sec": 7913.0}"#,
    );
    let slow = write(
        "bench_slow.json",
        r#"{"paths_ns_per_eval": {"pooled": 60000.0}, "throughput_ptgs_per_sec": 7913.0}"#,
    );
    let out = run(bin().arg("regress").arg(&base).arg(&slow));
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("REGRESSION paths_ns_per_eval.pooled"),
        "{text}"
    );
    assert!(text.contains("FAIL"), "{text}");
}

#[test]
fn regress_tolerance_flag_tightens_the_gate() {
    let base = write("bench_tol_a.json", r#"{"ns_per_eval": 100.0}"#);
    let near = write("bench_tol_b.json", r#"{"ns_per_eval": 130.0}"#);
    let out = run(bin().arg("regress").arg(&base).arg(&near));
    assert_eq!(out.status.code(), Some(0));
    let out = run(bin()
        .arg("regress")
        .arg(&base)
        .arg(&near)
        .args(["--tolerance", "10"]));
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn usage_errors_exit_2() {
    let out = run(bin().arg("frobnicate"));
    assert_eq!(out.status.code(), Some(2));
    let out = run(&mut bin());
    assert_eq!(out.status.code(), Some(2));
}
