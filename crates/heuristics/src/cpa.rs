//! CPA — Critical Path and Area-based allocation.
//!
//! A. Rădulescu and A. J. C. van Gemund, "A Low-Cost Approach towards Mixed
//! Task and Data Parallel Scheduling", ICPP 2001. The allocation procedure
//! balances the two classic makespan lower bounds: it keeps shortening the
//! critical path (by widening its most profitable task) until the average
//! area — total work spread over all `P` processors — dominates. Complexity
//! O(V(V+E)P), as cited in the paper's §III-E: at most `V·(P−1)` steps of
//! O(V+E) each. Here a step re-sweeps only the topological prefix that ends
//! at the task it grew, and that one partial pass also yields each swept
//! task's heaviest successor, so the critical path is a pointer walk
//! instead of a second pass (see [`crate::common`]).

use crate::common::{run_cpa_loop, CpaLoop};
use crate::Allocator;
use exec_model::TimeMatrix;
use ptg::Ptg;
use sched::Allocation;

/// The CPA allocation procedure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpa;

impl Allocator for Cpa {
    fn allocate(&self, g: &Ptg, matrix: &TimeMatrix) -> Allocation {
        run_cpa_loop(g, matrix, &CpaLoop::default())
    }

    fn name(&self) -> &'static str {
        "CPA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate_and_map;
    use crate::trivial::AllOne;
    use exec_model::Amdahl;
    use ptg::{PtgBuilder, TaskId};

    /// src -> {w0..w3} -> sink; workers are heavy and scalable.
    fn fork_join() -> Ptg {
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 1e9, 0.2);
        let sink = b.add_task("sink", 1e9, 0.2);
        for i in 0..4 {
            let w = b.add_task(format!("w{i}"), 16e9, 0.02);
            b.add_edge(src, w).unwrap();
            b.add_edge(w, sink).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn cpa_improves_on_all_ones_for_scalable_chain() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 16e9, 0.02);
        let c = b.add_task("c", 16e9, 0.02);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 16);
        let (_, ms_cpa) = allocate_and_map(&Cpa, &g, &m);
        let (_, ms_one) = allocate_and_map(&AllOne, &g, &m);
        assert!(ms_cpa < ms_one, "CPA {ms_cpa} vs all-ones {ms_one}");
    }

    #[test]
    fn cpa_allocations_are_valid() {
        let g = fork_join();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 20);
        let alloc = Cpa.allocate(&g, &m);
        assert!(alloc.is_valid_for(&g, 20));
    }

    #[test]
    fn cpa_widens_critical_tasks_more_than_trivial_ones() {
        let g = fork_join();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 20);
        let alloc = Cpa.allocate(&g, &m);
        // The heavy workers dominate the critical path; the 1 GFLOP
        // src/sink should stay narrow relative to them.
        let worker_total: u32 = (2..6).map(|i| alloc.of(TaskId(i))).sum();
        assert!(worker_total / 4 >= alloc.of(TaskId(0)));
    }

    #[test]
    fn single_processor_platform_keeps_all_ones() {
        let g = fork_join();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 1);
        assert_eq!(Cpa.allocate(&g, &m), Allocation::ones(6));
    }

    #[test]
    fn cpa_is_deterministic() {
        let g = fork_join();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 20);
        assert_eq!(Cpa.allocate(&g, &m), Cpa.allocate(&g, &m));
    }
}
