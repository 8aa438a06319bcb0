//! MCPA — Modified CPA with per-level allocation bounds.
//!
//! S. Bansal, P. Kumar, K. Singh, "An Improved Two-Step Algorithm for Task
//! and Data Parallel Scheduling in Distributed Memory Machines", Parallel
//! Computing 32(10), 2006. As the paper under reproduction characterizes it,
//! MCPA "make\[s\] better use of the potential task parallelism by bounding
//! the allocation size per DAG level": a critical-path task may only widen
//! while the *total* allocation of its precedence level still fits on the
//! platform. This prevents CPA's classic failure mode on regular PTGs,
//! where the critical path swallows the machine and concurrent tasks
//! serialize behind it.
//!
//! The bound is a limit of the shared loop, [`CpaLoop::level_bound`]: the
//! loop keeps each level's total allocation as an exact integer and checks
//! it for each critical-path candidate.

use crate::common::{run_cpa_loop, CpaLoop};
use crate::Allocator;
use exec_model::TimeMatrix;
use ptg::Ptg;
use sched::Allocation;

/// The MCPA allocation procedure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mcpa;

impl Mcpa {
    /// The [`CpaLoop`] MCPA runs: CPA under the level bound, which the loop
    /// keeps as exact per-level sums.
    pub fn cpa_loop() -> CpaLoop {
        CpaLoop {
            level_bound: true,
            ..CpaLoop::default()
        }
    }
}

impl Allocator for Mcpa {
    fn allocate(&self, g: &Ptg, matrix: &TimeMatrix) -> Allocation {
        run_cpa_loop(g, matrix, &Mcpa::cpa_loop())
    }

    fn name(&self) -> &'static str {
        "MCPA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate_and_map;
    use crate::hcpa::Hcpa;
    use exec_model::Amdahl;
    use ptg::levels::PrecedenceLevels;
    use ptg::{PtgBuilder, TaskId};

    /// A wide layered PTG: src → 8 equal workers → sink.
    fn wide(workers: usize) -> Ptg {
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 1e9, 0.1);
        let sink = b.add_task("sink", 1e9, 0.1);
        for i in 0..workers {
            let w = b.add_task(format!("w{i}"), 20e9, 0.02);
            b.add_edge(src, w).unwrap();
            b.add_edge(w, sink).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn level_sums_never_exceed_platform() {
        let g = wide(8);
        let p = 16u32;
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
        let alloc = Mcpa.allocate(&g, &m);
        let levels = PrecedenceLevels::compute(&g);
        for (l, tasks) in levels.iter() {
            let sum: u32 = tasks.iter().map(|&v| alloc.of(v)).sum();
            assert!(sum <= p, "level {l} over-allocated: {sum} > {p}");
        }
    }

    #[test]
    fn mcpa_beats_hcpa_on_regular_wide_graphs() {
        // Exactly the effect the paper's Fig. 4 discusses: "MCPA takes
        // special care of regularly shaped PTGs and attempts to exploit
        // maximum task parallelism".
        let g = wide(8);
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 16);
        let (_, ms_mcpa) = allocate_and_map(&Mcpa, &g, &m);
        let (_, ms_hcpa) = allocate_and_map(&Hcpa, &g, &m);
        assert!(
            ms_mcpa <= ms_hcpa + 1e-9,
            "MCPA {ms_mcpa} should not lose to HCPA {ms_hcpa} here"
        );
    }

    #[test]
    fn mcpa_fills_levels_with_equal_shares_on_symmetric_input() {
        let g = wide(4);
        let p = 8u32;
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
        let alloc = Mcpa.allocate(&g, &m);
        // 4 identical workers on one level sharing 8 processors: each ends
        // with exactly 2 once the level is saturated.
        let worker_allocs: Vec<u32> = (2..6).map(|i| alloc.of(TaskId(i))).collect();
        assert_eq!(worker_allocs, vec![2, 2, 2, 2], "{alloc:?}");
    }

    #[test]
    fn single_task_levels_may_use_whole_machine() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 50e9, 0.01);
        let c = b.add_task("c", 50e9, 0.01);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let p = 8u32;
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
        let alloc = Mcpa.allocate(&g, &m);
        assert_eq!(alloc.as_slice(), &[p, p]);
    }

    #[test]
    fn mcpa_is_deterministic() {
        let g = wide(6);
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 20);
        assert_eq!(Mcpa.allocate(&g, &m), Mcpa.allocate(&g, &m));
    }
}
