//! Umbrella crate for the EMTS reproduction workspace.
//!
//! This package exists to host the runnable `examples/` and the
//! cross-crate integration tests in `tests/`; the actual functionality
//! lives in the `crates/*` members, re-exported here for convenience so
//! downstream code can use one import surface:
//!
//! * [`ptg`] — parallel task graphs,
//! * [`exec_model`] — execution-time models (Amdahl, synthetic
//!   non-monotonic, Downey, tabulated),
//! * [`platform`] — homogeneous clusters (Chti, Grelon presets),
//! * [`sched`] — allocations, list-scheduling mapper, Gantt charts,
//! * [`heuristics`] — CPA / HCPA / MCPA / Δ-critical baselines,
//! * [`emts`] — the evolutionary scheduler (the paper's contribution),
//! * [`workloads`] — FFT / Strassen / DAGGEN generators and the corpus,
//! * [`sim`] — the end-to-end runner, fault replay and online loop,
//! * [`stats`] — means, confidence intervals, histograms, tables.

pub use emts;
pub use exec_model;
pub use heuristics;
pub use platform;
pub use ptg;
pub use sched;
pub use sim;
pub use stats;
pub use workloads;
