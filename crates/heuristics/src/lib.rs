//! Baseline allocation heuristics for moldable-task PTG scheduling.
//!
//! These are the algorithms EMTS is compared against — and seeded from. All
//! of them are *allocation procedures* in the two-step sense: they decide how
//! many processors each task gets; the mapping is done by
//! [`sched::ListScheduler`] afterwards.
//!
//! * [`Cpa`] — Critical Path and Area-based allocation (Radulescu & van
//!   Gemund): grow the allocation of the most profitable critical-path task
//!   until the critical path no longer dominates the average area.
//! * [`Hcpa`] — Heterogeneous CPA (N'Takpé & Suter) specialized to a single
//!   homogeneous cluster, where its allocation procedure coincides with
//!   CPA's (the paper runs "the allocation functions of MCPA and HCPA").
//! * [`Mcpa`] — Modified CPA (Bansal et al.): CPA with the total allocation
//!   per precedence level bounded by `P`, protecting task parallelism in
//!   regular PTGs.
//! * [`DeltaCritical`] — the paper's own third seeding heuristic: share all
//!   processors of the platform among the Δ-critical tasks of each
//!   precedence layer.
//! * [`trivial`] — `AllOne`, `AllMax`, `BestSpeedup` reference points.
//! * [`bicpa`] — BiCPA-style bi-criteria (makespan × work) allocation and
//!   its Pareto trade-off curve (related-work extension).

pub mod bicpa;
pub mod common;
pub mod cpa;
pub mod cpr;
pub mod delta;
pub mod hcpa;
pub mod mcpa;
pub mod mcpa2;
pub mod trivial;

pub use bicpa::BiCpa;
pub use cpa::Cpa;
pub use cpr::Cpr;
pub use delta::DeltaCritical;
pub use hcpa::Hcpa;
pub use mcpa::Mcpa;
pub use mcpa2::Mcpa2;
pub use trivial::{AllMax, AllOne, BestSpeedup};

use exec_model::TimeMatrix;
use ptg::Ptg;
use sched::Allocation;

/// An allocation procedure: PTG + time matrix → per-task processor counts.
///
/// The platform size is the matrix's `p_max()`; every returned allocation
/// satisfies `1 ≤ s(v) ≤ p_max`.
pub trait Allocator {
    /// Computes the allocation.
    fn allocate(&self, g: &Ptg, matrix: &TimeMatrix) -> Allocation;

    /// Short name for reports ("MCPA", "HCPA", …).
    fn name(&self) -> &'static str;
}

/// Convenience: run an allocator and map the result with the paper's list
/// scheduler, returning `(allocation, makespan)`.
pub fn allocate_and_map<A: Allocator + ?Sized>(
    allocator: &A,
    g: &Ptg,
    matrix: &TimeMatrix,
) -> (Allocation, f64) {
    use sched::Mapper;
    let alloc = allocator.allocate(g, matrix);
    debug_assert!(alloc.is_valid_for(g, matrix.p_max()));
    let makespan = sched::ListScheduler.makespan(g, matrix, &alloc);
    (alloc, makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::Amdahl;
    use ptg::PtgBuilder;

    #[test]
    fn allocate_and_map_is_consistent_with_manual_steps() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 4e9, 0.0);
        let c = b.add_task("c", 4e9, 0.0);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let (alloc, ms) = allocate_and_map(&AllOne, &g, &m);
        assert_eq!(alloc, Allocation::ones(2));
        use sched::Mapper;
        assert_eq!(ms, sched::ListScheduler.makespan(&g, &m, &alloc));
    }
}
