//! HCPA — Heterogeneous CPA, specialized to one homogeneous cluster.
//!
//! T. N'Takpé and F. Suter, "Critical Path and Area Based Scheduling of
//! Parallel Task Graphs on Heterogeneous Platforms", ICPADS 2006. HCPA
//! generalizes CPA to multi-cluster platforms by allocating *equivalent
//! processors* of a virtual reference cluster and translating them to each
//! real cluster's speed. The paper under reproduction runs HCPA's
//! *allocation function* on a single homogeneous cluster — in that setting
//! the reference cluster is the cluster itself, the translation is the
//! identity, and the procedure degenerates to CPA's loop (which is why the
//! paper's figures show HCPA trailing MCPA on regular PTGs: like CPA it can
//! starve task parallelism by over-widening the critical path).
//!
//! We keep HCPA as its own type so experiment code mirrors the paper's
//! naming.

use crate::common::{run_cpa_loop, CpaLoop};
use crate::Allocator;
use exec_model::TimeMatrix;
use ptg::Ptg;
use sched::Allocation;

/// HCPA's allocation procedure (single homogeneous cluster case).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hcpa;

impl Allocator for Hcpa {
    fn allocate(&self, g: &Ptg, matrix: &TimeMatrix) -> Allocation {
        run_cpa_loop(g, matrix, &CpaLoop::default())
    }

    fn name(&self) -> &'static str {
        "HCPA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cpa;
    use exec_model::{Amdahl, SyntheticModel};
    use ptg::PtgBuilder;

    fn sample() -> Ptg {
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 2e9, 0.1);
        for i in 0..3 {
            let w = b.add_task(format!("w{i}"), 10e9, 0.05);
            b.add_edge(src, w).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn hcpa_equals_cpa_on_homogeneous_cluster() {
        let g = sample();
        for p in [4u32, 20, 120] {
            let m = TimeMatrix::compute(&g, &Amdahl, 3.1e9, p);
            assert_eq!(Hcpa.allocate(&g, &m), Cpa::default().allocate(&g, &m));
        }
    }

    #[test]
    fn hcpa_grows_beyond_one_under_model2() {
        // §V-B: "when applying Model 2, the allocation routine of MCPA or
        // HCPA does not stop with 1-processor allocations. Often allocations
        // will grow up to a size of 4–8 processors".
        let g = sample();
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, 120);
        let alloc = Hcpa.allocate(&g, &m);
        assert!(
            alloc.as_slice().iter().any(|&s| s > 1),
            "expected growth, got {alloc:?}"
        );
    }

    #[test]
    fn allocations_stay_valid_on_both_paper_platforms() {
        let g = sample();
        for p in [20u32, 120] {
            let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 4.3e9, p);
            assert!(Hcpa.allocate(&g, &m).is_valid_for(&g, p));
        }
    }
}
