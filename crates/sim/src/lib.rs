//! Discrete-event cluster simulator and experiment runner.
//!
//! The paper evaluates every algorithm inside a simulator that "reads a
//! platform file, containing the processors' speed, […] reads the
//! description of the PTG and executes the scheduling algorithm" (§IV).
//! This crate is that simulator:
//!
//! * [`executor`] — a discrete-event replay engine that executes a
//!   [`sched::Schedule`] against the platform, enforcing dependency and
//!   processor-capacity constraints *dynamically* and re-deriving the
//!   makespan independently of the mapper (the static checks live in
//!   [`sched::validate`]; agreement of the two is asserted in tests),
//! * [`formats`] — a line-oriented PTG text format plus JSON (serde)
//!   round-tripping for graphs, schedules and reports,
//! * [`runner`] — the end-to-end pipeline: platform + PTG + algorithm name
//!   + model → allocation, schedule, simulation report,
//! * [`trace`] — the replay's event log as data (occupancy profiles,
//!   human-readable timelines).

pub mod event;
pub mod executor;
pub mod faults;
pub mod formats;
pub mod online;
pub mod runner;
pub mod trace;

pub use executor::{ExecutionError, SimReport};
pub use faults::{
    execute_with_faults, fault_trials, fault_trials_obs, ChurnEvent, ChurnEventKind, ChurnSpec,
    ChurnStream, FaultKindBreakdown, FaultPlan, FaultSpec, FaultSpecError, FaultSummary,
    FaultyReport, KindStat,
};
pub use online::{run_online, OnlineConfig, OnlineError, OnlineReport};
pub use runner::{run_with_faults_workers, Algorithm, RunReport};
