//! Cluster simulator and experiment runner.
//!
//! The paper evaluates every algorithm inside a simulator that "reads a
//! platform file, containing the processors' speed, […] reads the
//! description of the PTG and executes the scheduling algorithm" (§IV).
//! This crate is that simulator:
//!
//! * [`runner`] — the end-to-end pipeline: platform, PTG, algorithm name
//!   and model → allocation, schedule (checked once by
//!   [`sched::validate_schedule`]) and run record,
//! * [`faults`] — the dynamic replay: [`execute_with_faults`] re-simulates
//!   a schedule under a seeded fault plan (under the empty plan it
//!   reproduces the mapper's schedule bit for bit),
//! * [`online`] — the continuous-operations loop under node churn,
//! * [`formats`] — a line-oriented PTG text format plus JSON (serde)
//!   round-tripping for graphs.

pub mod faults;
pub mod formats;
pub mod online;
pub mod runner;

pub use faults::{
    execute_with_faults, fault_trials, ChurnEvent, ChurnEventKind, ChurnSpec, ChurnStream,
    FaultKindBreakdown, FaultPlan, FaultSpec, FaultSpecError, FaultSummary, FaultyReport, KindStat,
};
pub use online::{run_online, OnlineConfig, OnlineError, OnlineReport};
pub use runner::{run_with_faults_workers, Algorithm, RunRecord};
