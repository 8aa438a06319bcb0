//! Recorder-backed terminal output and telemetry reports for the harness
//! binaries.
//!
//! Every harness binary (`fig*`, `table*`, `ext_*`, `grid`) drives its run
//! through a [`Harness`]: terminal chatter goes through [`Harness::say`] /
//! [`Harness::note`] (silenced by `--quiet`), EMTS internals are recorded
//! through [`Harness::recorder`], and `--report <file>` persists the whole
//! run as a schema-versioned [`obs::RunReport`] for `emts-report`.

use crate::args::HarnessArgs;
use obs::{RunReport, StatsRecorder};
use std::fmt::Display;

/// One harness run: parsed arguments plus the live telemetry recorder.
pub struct Harness {
    /// The binary's parsed command-line arguments.
    pub args: HarnessArgs,
    name: &'static str,
    rec: StatsRecorder,
}

impl Harness {
    /// Builds a harness for `name` (the report's `source` field) from the
    /// process arguments, printing usage and exiting on bad input.
    pub fn from_env(name: &'static str) -> Self {
        Self::new(name, HarnessArgs::from_env())
    }

    /// Builds a harness from already-parsed arguments.
    pub fn new(name: &'static str, args: HarnessArgs) -> Self {
        Harness {
            args,
            name,
            rec: StatsRecorder::new(),
        }
    }

    /// The recorder to thread into instrumented entry points
    /// (`run_recorded`, `run_obs`, …).
    pub fn recorder(&self) -> &StatsRecorder {
        &self.rec
    }

    /// Prints a result line to stdout unless `--quiet` was given.
    pub fn say(&self, msg: impl Display) {
        if !self.args.quiet {
            println!("{msg}");
        }
    }

    /// Prints a progress line to stderr unless `--quiet` was given.
    pub fn note(&self, msg: impl Display) {
        if !self.args.quiet {
            eprintln!("{msg}");
        }
    }

    /// Snapshot of the telemetry collected so far, stamped with the
    /// harness's scale/seed metadata.
    pub fn report(&self) -> RunReport {
        let mut report = self.rec.report(self.name);
        report
            .meta
            .insert("scale".into(), format!("{}", self.args.scale));
        report
            .meta
            .insert("seed".into(), self.args.seed.to_string());
        report
    }

    /// Writes the telemetry report if `--report` was given. Call once, at
    /// the end of `main`. Exits non-zero if the file cannot be written.
    pub fn finish(self) {
        if let Some(path) = &self.args.report {
            let report = self.report();
            if let Err(e) = report.save(path) {
                eprintln!("cannot write report {}: {e}", path.display());
                std::process::exit(1);
            }
            self.say(format_args!("wrote report {}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Recorder;

    #[test]
    fn harness_report_carries_meta_and_telemetry() {
        let args = HarnessArgs {
            seed: 9,
            ..HarnessArgs::default()
        };
        let h = Harness::new("unit", args);
        h.recorder().add("x", 3);
        let report = h.report();
        assert_eq!(report.source, "unit");
        assert_eq!(report.meta["seed"], "9");
        assert_eq!(report.counters["x"], 3);
    }

    #[test]
    fn quiet_harness_still_records() {
        let args = HarnessArgs {
            quiet: true,
            ..HarnessArgs::default()
        };
        let h = Harness::new("unit", args);
        h.say("suppressed");
        h.recorder().gauge("g", 1.5);
        assert_eq!(h.report().gauges["g"], 1.5);
    }
}
