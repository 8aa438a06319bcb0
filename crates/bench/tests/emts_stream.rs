//! End-to-end checks of the `emts-stream` binary: a 2k-item run reproduces
//! the committed stream fingerprint, and its four layer times account for
//! its wall clock; an empty stream and unknown flags behave.

use serde::Value;
use std::process::Command;

const LAYERS: [&str; 4] = [
    "generate_seconds",
    "matrix_seconds",
    "allocate_seconds",
    "map_seconds",
];

/// Runs a `count`-item seed-2011 stream and returns its result JSON.
fn run_stream(count: &str) -> Value {
    let out = std::env::temp_dir().join(format!("emts-stream-{count}-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_emts-stream"))
        .args(["--count", count, "--seed", "2011", "--quiet", "--out"])
        .arg(&out)
        .status()
        .expect("emts-stream runs");
    assert!(status.success(), "emts-stream exited with {status}");
    let text = std::fs::read_to_string(&out).expect("result file written");
    let _ = std::fs::remove_file(&out);
    serde_json::parse(&text).expect("result is JSON")
}

#[test]
fn layer_times_sum_to_the_elapsed_time() {
    let result = run_stream("2000");
    let field = |k: &str| match result.get(k) {
        Some(Value::Float(x)) => *x,
        other => panic!("{k} is {other:?}, not a number"),
    };

    assert_eq!(
        result.get("fingerprint").and_then(Value::as_str),
        Some("c0c9a02f46a5b873"),
        "the 2k-item seed-2011 stream moved"
    );
    let elapsed = field("elapsed_seconds");
    let layers: f64 = LAYERS.iter().map(|k| field(k)).sum();
    for k in LAYERS {
        assert!(field(k) > 0.0, "{k} is not positive");
    }
    let ratio = layers / elapsed;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "layers sum to {layers} s of {elapsed} s elapsed (ratio {ratio:.4})"
    );
}

#[test]
fn an_empty_stream_has_the_empty_fingerprint() {
    let result = run_stream("0");
    assert_eq!(
        result.get("fingerprint").and_then(Value::as_str),
        Some("0000000000000000")
    );
    assert_eq!(result.get("tasks_scheduled"), Some(&Value::Int(0)));
}

#[test]
fn removed_flags_are_usage_errors() {
    for flag in [
        ["--shards", "4"],
        ["--checkpoint", "x"],
        ["--stop-after", "1"],
        ["--report", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_emts-stream"))
            .args(flag)
            .output()
            .expect("emts-stream runs");
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: emts-stream"), "{flag:?}: {err}");
    }
}
