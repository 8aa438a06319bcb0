//! End-to-end check of the `emts-stream` binary: a 2k-item run reproduces
//! the committed stream fingerprint, and its four layer times account for
//! its wall clock.

use serde::Value;
use std::process::Command;

const LAYERS: [&str; 4] = [
    "generate_seconds",
    "matrix_seconds",
    "allocate_seconds",
    "map_seconds",
];

#[test]
fn layer_times_sum_to_the_elapsed_time() {
    let out = std::env::temp_dir().join(format!("emts-stream-layers-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_emts-stream"))
        .args(["--count", "2000", "--seed", "2011", "--quiet", "--out"])
        .arg(&out)
        .status()
        .expect("emts-stream runs");
    assert!(status.success(), "emts-stream exited with {status}");
    let text = std::fs::read_to_string(&out).expect("result file written");
    let _ = std::fs::remove_file(&out);
    let result = serde_json::parse(&text).expect("result is JSON");
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
