//! Plumbing shared by the workloads: the pass loop, per-operation latency
//! bookkeeping and failure accounting.

use crate::report::Metrics;
use crate::stats;
use std::time::Instant;

/// Set-ups in a traced run. An untraced run instead sets up once more
/// before each pass, so its set-ups sample the whole run rather than one
/// moment of the host's load.
pub const SETUP_REPS: usize = 11;
/// Passes every run makes at least, so each operation's latency is the
/// fastest of three repeats even when `--seconds` is tiny.
pub const MIN_PASSES: usize = 3;
/// Failed checks quoted verbatim in the result file.
const QUOTED_FAILURES: usize = 8;

/// Seconds taken by `f`, added to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Seconds one set-up took: in total, generating PTGs, and building time
/// matrices.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetUpTime {
    pub total: f64,
    pub daggen: f64,
    pub matrix: f64,
}

impl SetUpTime {
    /// Field-wise medians.
    pub fn median(all: &[SetUpTime]) -> SetUpTime {
        let col = |f: fn(&SetUpTime) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
        SetUpTime {
            total: col(|t| t.total),
            daggen: col(|t| t.daggen),
            matrix: col(|t| t.matrix),
        }
    }
}

/// Runs `pass(k)` for k = 0, 1, … until `seconds` have elapsed, making at
/// least `min` passes and starting none that the previous pass's length
/// says would end past the deadline. Returns the number of passes.
pub fn run_passes(seconds: f64, min: usize, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let t = Instant::now();
        pass(done);
        done += 1;
        let last = t.elapsed().as_secs_f64();
        if done >= min && start.elapsed().as_secs_f64() + last > seconds {
            return done;
        }
    }
}

/// Checked operations and the failures among them.
#[derive(Debug, Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    pub quoted: Vec<String>,
    run_failed: bool,
}

impl Failures {
    /// Records `ops` operations whose combined check gave `outcome`.
    pub fn record(&mut self, ops: u64, outcome: Result<(), String>) {
        self.attempted += ops;
        if let Err(msg) = outcome {
            self.failed += ops;
            if self.quoted.len() < QUOTED_FAILURES {
                self.quoted.push(msg);
            }
        }
    }

    /// Records a failed check on the run as a whole (it covers no single
    /// operation).
    pub fn fail_run(&mut self, msg: String) {
        self.run_failed = true;
        self.quoted.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.run_failed
    }

    pub fn frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// An operation's latency: the fastest of its repeats. Other processes on
/// a shared host only ever slow an operation down, and their bursts last
/// seconds, so the fastest repeat is the steadiest estimate (the median
/// still moves when a burst spans several passes).
pub fn fastest(repeats: &[f64]) -> f64 {
    repeats.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Latency samples of a fixed set of operations, repeated once per pass.
pub struct Latencies(Vec<Vec<f64>>);

impl Latencies {
    pub fn new(ops: usize) -> Self {
        Latencies(vec![Vec::new(); ops])
    }

    pub fn push(&mut self, op: usize, seconds: f64) {
        self.0[op].push(seconds);
    }

    /// Per-operation latencies (see [`fastest`]), in seconds.
    pub fn per_op(&self) -> Vec<f64> {
        self.0.iter().map(|s| fastest(s)).collect()
    }
}

/// Sets the latency percentiles from per-operation latencies (seconds),
/// with a note for any tail the sample count cannot support.
pub fn latency_metrics(m: &mut Metrics, notes: &mut Vec<String>, per_op: &[f64]) {
    let ms: Vec<f64> = per_op.iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    for (name, p) in [
        ("op_ms_p50", 50.0),
        ("op_ms_p90", 90.0),
        ("op_ms_p99", 99.0),
    ] {
        match stats::percentile(&ms, p) {
            Some(v) => m.set(name, v, n),
            None => notes.push(format!(
                "{name} omitted: {n} operations leave fewer than {} beyond p{p}",
                stats::MIN_BEYOND
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_loop_honours_the_minimum_and_the_deadline() {
        let mut seen = Vec::new();
        assert_eq!(run_passes(0.0, 3, |k| seen.push(k)), 3);
        assert_eq!(seen, [0, 1, 2]);
        let n = run_passes(0.05, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert!((3..=6).contains(&n), "{n} passes of 10 ms in 50 ms");
    }

    #[test]
    fn failures_count_every_operation_of_a_failed_check() {
        let mut f = Failures::default();
        f.record(10, Ok(()));
        f.record(5, Err("bad".into()));
        assert_eq!((f.attempted, f.failed), (15, 5));
        assert!((f.frac() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(f.quoted, ["bad"]);
    }
}
