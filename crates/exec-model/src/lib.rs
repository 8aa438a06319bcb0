//! Execution-time models for moldable parallel tasks.
//!
//! A model answers one question: *how long does task `v` run on `p`
//! processors of a given speed?* The paper's central point is that EMTS works
//! with **any** such model — including non-monotonic ones where adding a
//! processor can slow a task down — so the trait below is the seam every
//! scheduler in this workspace is written against.
//!
//! Provided models:
//!
//! * [`Amdahl`] — the paper's Model 1: `T(v,p) = (α + (1−α)/p) · T(v,1)`,
//! * [`SyntheticModel`] — the paper's Model 2: Amdahl plus a ×1.3 penalty on
//!   odd processor counts and ×1.1 on even counts without an integer square
//!   root (imitating PDGEMM's blocking behaviour from the paper's Fig. 1),
//! * [`Downey`] — Downey's speedup model (the other classic from related
//!   work), parameterized by average parallelism `A` and variance `σ`,
//! * [`Tabulated`] — measured timings per processor count,
//! * [`Monotonized`] — wrapper enforcing the "monotonous penalty assumption"
//!   by taking the running minimum over smaller allocations,
//! * [`RedistributionCost`] — folds scatter/gather overhead into any base
//!   model (the paper's §III prescription for communication costs),
//! * [`PerTaskModel`] — dispatches different models per task kernel.
//!
//! [`TimeMatrix`] pre-evaluates a model for every `(task, p)` pair of a PTG,
//! which is the hot lookup inside allocation heuristics and the EA's fitness
//! function.

pub mod amdahl;
pub mod comm;
pub mod downey;
pub mod matrix;
pub mod per_task;
pub mod synthetic;
pub mod table;
pub mod wrappers;

pub use amdahl::Amdahl;
pub use comm::RedistributionCost;
pub use downey::Downey;
pub use matrix::TimeMatrix;
pub use per_task::PerTaskModel;
pub use synthetic::{NonMonotonicPenalty, SyntheticModel};
pub use table::Tabulated;
pub use wrappers::Monotonized;

use ptg::Task;

/// Predicts the execution time of a moldable task.
///
/// `speed_flops` is the per-processor speed in FLOP/s (the platform is
/// homogeneous, so one number suffices); implementations derive the
/// sequential time as `task.flop / speed_flops` unless they carry their own
/// timing data (e.g. [`Tabulated`]).
pub trait ExecutionTimeModel: Send + Sync {
    /// Execution time in seconds of `task` on `p ≥ 1` processors.
    ///
    /// Implementations must return a strictly positive, finite value for all
    /// valid inputs and may panic on `p == 0`.
    fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64;

    /// Fills the row-major `tasks.len() × p_max` matrix `out`: entry
    /// `out[i * p_max + p - 1]` is `self.time(&tasks[i], p, speed_flops)`
    /// for `p ∈ 1..=p_max`, bit for bit.
    ///
    /// The default evaluates [`time`](Self::time) per entry. Models
    /// override it to do per-task and per-`p` work once per call; an
    /// override must keep every entry's floating-point expression and
    /// evaluation order, so the bits cannot change. [`TimeMatrix::compute`]
    /// builds every matrix through this method.
    ///
    /// # Panics
    /// Panics if `p_max == 0` or `out.len() != tasks.len() * p_max`.
    fn fill_matrix(&self, tasks: &[Task], speed_flops: f64, p_max: u32, out: &mut [f64]) {
        assert_eq!(out.len(), tasks.len() * p_max as usize, "matrix size");
        for (task, row) in tasks.iter().zip(out.chunks_exact_mut(p_max as usize)) {
            for (p, t) in (1..=p_max).zip(row) {
                *t = self.time(task, p, speed_flops);
            }
        }
    }

    /// Short human-readable model name for logs and experiment reports.
    fn name(&self) -> &'static str {
        "custom"
    }
}

impl<M: ExecutionTimeModel + ?Sized> ExecutionTimeModel for &M {
    fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64 {
        (**self).time(task, p, speed_flops)
    }
    fn fill_matrix(&self, tasks: &[Task], speed_flops: f64, p_max: u32, out: &mut [f64]) {
        (**self).fill_matrix(tasks, speed_flops, p_max, out)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<M: ExecutionTimeModel + ?Sized> ExecutionTimeModel for Box<M> {
    fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64 {
        (**self).time(task, p, speed_flops)
    }
    fn fill_matrix(&self, tasks: &[Task], speed_flops: f64, p_max: u32, out: &mut [f64]) {
        (**self).fill_matrix(tasks, speed_flops, p_max, out)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The two models evaluated in the paper, selectable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperModel {
    /// Model 1 — Amdahl's law (monotonically decreasing).
    Model1,
    /// Model 2 — synthetic non-monotonic PDGEMM-like model.
    Model2,
}

impl PaperModel {
    /// Instantiates the corresponding model object.
    pub fn instantiate(self) -> Box<dyn ExecutionTimeModel> {
        match self {
            PaperModel::Model1 => Box::new(Amdahl),
            PaperModel::Model2 => Box::new(SyntheticModel::default()),
        }
    }

    /// Parses `"model1"` / `"model2"` (case-insensitive, also accepts
    /// `"amdahl"` / `"synthetic"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "model1" | "amdahl" | "1" => Some(PaperModel::Model1),
            "model2" | "synthetic" | "2" => Some(PaperModel::Model2),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_parses_aliases() {
        assert_eq!(PaperModel::parse("Model1"), Some(PaperModel::Model1));
        assert_eq!(PaperModel::parse("amdahl"), Some(PaperModel::Model1));
        assert_eq!(PaperModel::parse("2"), Some(PaperModel::Model2));
        assert_eq!(PaperModel::parse("SYNTHETIC"), Some(PaperModel::Model2));
        assert_eq!(PaperModel::parse("bogus"), None);
    }

    #[test]
    fn instantiated_models_report_names() {
        assert_eq!(PaperModel::Model1.instantiate().name(), "amdahl");
        assert_eq!(PaperModel::Model2.instantiate().name(), "synthetic");
    }

    #[test]
    fn trait_objects_and_references_delegate() {
        let t = Task::new("x", 1e9, 0.0);
        let boxed: Box<dyn ExecutionTimeModel> = Box::new(Amdahl);
        let by_ref = &Amdahl;
        assert_eq!(boxed.time(&t, 4, 1e9), by_ref.time(&t, 4, 1e9));
        assert_eq!(boxed.name(), "amdahl");
    }
}
