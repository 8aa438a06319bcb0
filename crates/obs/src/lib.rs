//! Telemetry layer for the EMTS suite.
//!
//! The EA's inner loop evaluates the mapping function millions of times per
//! experiment; any instrumentation on that path must cost *nothing* when it
//! is off. This crate therefore models telemetry as a compile-time choice:
//! hot paths are generic over a [`Recorder`] whose `ENABLED` associated
//! constant lets the optimizer erase every probe when the recorder is
//! [`NoopRecorder`] (the release guard
//! `perf_guard::recorder_overhead_stays_within_budget` holds the serial
//! pool path within 5% of the bare mapper loop). [`StatsRecorder`] is the
//! recording implementation: nested monotonic phase spans, counters,
//! gauges, and fixed-bin log-scaled latency histograms.
//!
//! A finished run is snapshotted into a schema-versioned [`RunReport`]
//! (JSON via the vendored serde subset) which the `emts-report` binary
//! pretty-prints, diffs, renders as per-generation timelines and
//! self-time flame tables, and gates for benchmark regressions
//! ([`regress`]). The event-level view is the [`FlightRecorder`]: a
//! fixed-capacity per-thread ring of typed events with exact drop
//! accounting, exported as Chrome Trace Event JSON ([`trace`]).
//!
//! Built from scratch against the offline container (no crates.io
//! `tracing`/`metrics`); the only dependencies are the vendored `serde`
//! and `serde_json` subsets.

pub mod hist;
pub mod recorder;
pub mod regress;
pub mod render;
pub mod report;
pub mod stats;
pub mod trace;

pub use hist::LogHistogram;
pub use recorder::{NoopRecorder, Recorder, Span, TraceSpan};
pub use report::{PhaseStat, ReportError, RunReport, SCHEMA_VERSION};
pub use stats::StatsRecorder;
pub use trace::{FlightRecorder, LaneSnapshot, TeeRecorder, TraceEvent, TraceEventKind};
