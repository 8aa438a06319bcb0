//! Two-step scheduling framework for parallel task graphs.
//!
//! The paper (and every CPA-family algorithm it compares against) splits
//! scheduling into an **allocation** step — decide how many processors each
//! moldable task gets — and a **mapping** step — place the allocated tasks
//! onto concrete processors over time. This crate supplies everything both
//! steps share:
//!
//! * [`Allocation`] — a validated vector of per-task processor counts,
//! * [`mapper::ListScheduler`] — the paper's mapping function: ready tasks
//!   sorted by decreasing bottom level, each mapped to the first processor
//!   set with `s(v)` free processors (this is also the EA's fitness
//!   function),
//! * [`mapper::InsertionScheduler`] — a backfilling variant used by the
//!   ablation benches,
//! * [`Schedule`] / [`validate`] — the resulting schedule and its invariant
//!   checks (dependencies respected, no processor oversubscription),
//! * [`metrics`] — makespan, utilization, critical-path efficiency,
//! * [`bounds`] — the critical-path and area lower bounds behind the CPA
//!   family's stopping rule and the harness's optimality-gap reports,
//! * [`gantt`] — text and SVG Gantt charts (used to regenerate the paper's
//!   Figure 6).

pub mod allocation;
pub mod bounds;
pub mod gantt;
pub mod mapper;
pub mod metrics;
pub mod multi;
pub mod reschedule;
pub mod schedule;
mod soa_heap;
pub mod validate;

pub use allocation::Allocation;
pub use mapper::{BoundedEval, EvalScratch, InsertionScheduler, ListScheduler, Mapper};
pub use reschedule::{RescheduleError, Rescheduler, ResumeState, RunningTask};
pub use schedule::{Placement, Schedule};
pub use validate::{all_violations, for_each_violation, validate_schedule, ScheduleViolation};
