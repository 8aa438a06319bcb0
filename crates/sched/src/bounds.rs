//! Makespan lower bounds.
//!
//! Two classic bounds govern every PTG schedule and drive the CPA family's
//! stopping criterion:
//!
//! * the **critical-path bound** `T_CP` — no schedule can finish before the
//!   longest dependency chain (under the *given* allocations),
//! * the **area bound** `T_A = (1/P) Σ_v s(v)·t(v, s(v))` — the machine
//!   cannot absorb more than `P` processor-seconds per second.
//!
//! A third, allocation-independent bound uses each task's *best possible*
//!   time: no choice of allocations can beat the critical path evaluated at
//!   per-task optimal processor counts.
//!
//! The harness reports `makespan / max(bounds)` as the *optimality gap
//! factor*: how far a schedule provably is from the best conceivable one.

use crate::allocation::Allocation;
use exec_model::TimeMatrix;
use ptg::critpath::critical_path_length;
use ptg::Ptg;

/// The bounds for one allocation on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBounds {
    /// Critical-path length under the given allocation.
    pub critical_path: f64,
    /// Work area divided by the processor count.
    pub area: f64,
    /// Critical path with every task at its individually fastest width
    /// (independent of the allocation argument).
    pub ideal_critical_path: f64,
}

impl LowerBounds {
    /// The tightest of the bounds that depend on the allocation.
    pub fn allocation_bound(&self) -> f64 {
        self.critical_path.max(self.area)
    }

    /// The tightest bound valid for *any* allocation (what an oracle
    /// scheduler could conceivably reach).
    pub fn universal_bound(&self) -> f64 {
        self.ideal_critical_path
    }
}

/// The area bound from already-gathered per-task times: the non-allocating
/// core of [`lower_bounds`].
#[inline]
pub fn area_bound(alloc: &Allocation, times: &[f64], p_max: u32) -> f64 {
    alloc.work_area(times) / p_max as f64
}

/// Computes all lower bounds for `alloc` on the platform captured by
/// `matrix`.
pub fn lower_bounds(g: &Ptg, matrix: &TimeMatrix, alloc: &Allocation) -> LowerBounds {
    let times = matrix.times_for(alloc.as_slice());
    let critical_path = critical_path_length(g, &times);
    let area = area_bound(alloc, &times, matrix.p_max());
    let best_times: Vec<f64> = g
        .task_ids()
        .map(|v| matrix.time(v, matrix.best_p(v)))
        .collect();
    let ideal_critical_path = critical_path_length(g, &best_times);
    LowerBounds {
        critical_path,
        area,
        ideal_critical_path,
    }
}

/// `makespan / allocation_bound` — 1.0 means the mapping is provably
/// optimal *for this allocation*.
pub fn gap_factor(g: &Ptg, matrix: &TimeMatrix, alloc: &Allocation, makespan: f64) -> f64 {
    let bounds = lower_bounds(g, matrix, alloc);
    makespan / bounds.allocation_bound()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{ListScheduler, Mapper};
    use exec_model::{Amdahl, SyntheticModel};
    use ptg::PtgBuilder;

    fn chain() -> Ptg {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 4e9, 0.0);
        let c = b.add_task("c", 4e9, 0.0);
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_bounds_are_exact_for_the_list_scheduler() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![4, 4]);
        let ms = ListScheduler.makespan(&g, &m, &alloc);
        let b = lower_bounds(&g, &m, &alloc);
        // A chain is scheduled exactly at its critical path.
        assert!((ms - b.critical_path).abs() < 1e-12);
        assert!((gap_factor(&g, &m, &alloc, ms) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn area_bound_dominates_on_wide_graphs() {
        let mut b = PtgBuilder::new();
        for i in 0..8 {
            b.add_task(format!("t{i}"), 4e9, 0.0);
        }
        let g = b.build().unwrap();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 2);
        let alloc = Allocation::ones(8);
        let bounds = lower_bounds(&g, &m, &alloc);
        // 8 tasks × 4 s / 2 procs = 16 s area vs 4 s critical path.
        assert!((bounds.area - 16.0).abs() < 1e-9);
        assert!(bounds.area > bounds.critical_path);
        let ms = ListScheduler.makespan(&g, &m, &alloc);
        assert!(ms + 1e-9 >= bounds.allocation_bound());
    }

    #[test]
    fn ideal_bound_is_allocation_independent_and_lower() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, 16);
        let narrow = lower_bounds(&g, &m, &Allocation::ones(2));
        let wide = lower_bounds(&g, &m, &Allocation::from_vec(vec![16, 16]));
        assert_eq!(narrow.ideal_critical_path, wide.ideal_critical_path);
        assert!(narrow.ideal_critical_path <= narrow.critical_path + 1e-12);
        assert!(wide.ideal_critical_path <= wide.critical_path + 1e-12);
    }

    #[test]
    fn mapper_never_beats_any_bound() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, 8);
        for alloc in [
            Allocation::ones(2),
            Allocation::from_vec(vec![3, 5]),
            Allocation::from_vec(vec![8, 8]),
        ] {
            let ms = ListScheduler.makespan(&g, &m, &alloc);
            let bounds = lower_bounds(&g, &m, &alloc);
            assert!(ms + 1e-9 >= bounds.allocation_bound());
            assert!(ms + 1e-9 >= bounds.universal_bound());
        }
    }
}
