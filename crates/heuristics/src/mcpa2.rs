//! MCPA2 — work-proportional per-level allocation bounds.
//!
//! S. Hunold, "Low-Cost Tuning of Two-Step Algorithms for Scheduling
//! Mixed-Parallel Applications onto Homogeneous Clusters", CCGrid 2010 —
//! cited by the paper as MCPA2 \[12\], which "make\[s\] better use of the
//! potential task parallelism by bounding the allocation size per DAG
//! level". Where MCPA caps the *total* allocation of a precedence level at
//! `P` (so co-level tasks implicitly share evenly), MCPA2 recognizes that
//! tasks of one level can have very different costs: a heavy task should be
//! able to take a larger share of the level's processor budget.
//!
//! Our variant implements that principle: a critical-path task `v` on level
//! `l` may grow while
//!
//! 1. the level's total allocation stays within `P` (MCPA's bound), and
//! 2. `s(v)` stays within the task's *work share* of the level budget,
//!    `ceil(P · flop(v) / Σ_{w ∈ l} flop(w))`, so light co-level tasks keep
//!    enough processors to run concurrently while heavy ones may widen
//!    beyond the uniform `P / c_l` share.
//!
//! Both are limits of the shared loop: the work shares are computed once
//! as [`CpaLoop::caps`], and the level bound is [`CpaLoop::level_bound`].

use crate::common::{run_cpa_loop, CpaLoop};
use crate::Allocator;
use exec_model::TimeMatrix;
use ptg::levels::PrecedenceLevels;
use ptg::Ptg;
use sched::Allocation;

/// The MCPA2-style allocation procedure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mcpa2;

impl Mcpa2 {
    /// The [`CpaLoop`] MCPA2 runs on `g` with `p_total` processors: MCPA's
    /// level bound plus each task's work-proportional cap.
    pub fn cpa_loop(g: &Ptg, p_total: u32) -> CpaLoop {
        let levels = PrecedenceLevels::compute(g);
        let mut caps = vec![1u32; g.task_count()];
        for (_, tasks) in levels.iter() {
            let level_work: f64 = tasks.iter().map(|&v| g.task(v).flop).sum();
            for &v in tasks {
                let share = g.task(v).flop / level_work;
                caps[v.index()] = (((p_total as f64) * share).ceil() as u32).clamp(1, p_total);
            }
        }
        CpaLoop {
            caps: Some(caps),
            level_bound: true,
        }
    }
}

impl Allocator for Mcpa2 {
    fn allocate(&self, g: &Ptg, matrix: &TimeMatrix) -> Allocation {
        run_cpa_loop(g, matrix, &Mcpa2::cpa_loop(g, matrix.p_max()))
    }

    fn name(&self) -> &'static str {
        "MCPA2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate_and_map;
    use crate::mcpa::Mcpa;
    use exec_model::Amdahl;
    use ptg::PtgBuilder;

    /// One heavy and three light workers under a source.
    fn skewed_level() -> Ptg {
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 1e9, 0.1);
        let sink = b.add_task("sink", 1e9, 0.1);
        let heavy = b.add_task("heavy", 90e9, 0.02);
        b.add_edge(src, heavy).unwrap();
        b.add_edge(heavy, sink).unwrap();
        for i in 0..3 {
            let w = b.add_task(format!("w{i}"), 3e9, 0.02);
            b.add_edge(src, w).unwrap();
            b.add_edge(w, sink).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn level_totals_still_respect_platform() {
        let g = skewed_level();
        let p = 16u32;
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
        let alloc = Mcpa2.allocate(&g, &m);
        let levels = PrecedenceLevels::compute(&g);
        for (l, tasks) in levels.iter() {
            let sum: u32 = tasks.iter().map(|&v| alloc.of(v)).sum();
            assert!(sum <= p, "level {l}: {sum} > {p}");
        }
    }

    #[test]
    fn heavy_task_gets_more_than_uniform_share() {
        let g = skewed_level();
        let p = 16u32;
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
        let alloc = Mcpa2.allocate(&g, &m);
        // 4 tasks on the middle level: uniform share would be 4; the heavy
        // task carries ~91 % of the level's work and should exceed that.
        let heavy = ptg::TaskId(2);
        assert!(
            alloc.of(heavy) > 4,
            "heavy task stuck at {} processors",
            alloc.of(heavy)
        );
    }

    #[test]
    fn caps_prevent_light_task_starvation() {
        let g = skewed_level();
        let p = 16u32;
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
        let alloc = Mcpa2.allocate(&g, &m);
        // Work-proportional cap of the heavy task: ceil(16·0.909) = 15, so
        // at least one processor remains per light task even at saturation.
        assert!(alloc.of(ptg::TaskId(2)) <= 15);
    }

    #[test]
    fn no_worse_than_mcpa_on_skewed_levels() {
        let g = skewed_level();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 16);
        let (_, ms2) = allocate_and_map(&Mcpa2, &g, &m);
        let (_, ms) = allocate_and_map(&Mcpa, &g, &m);
        assert!(
            ms2 <= ms * 1.001,
            "MCPA2 {ms2} should not lose to MCPA {ms} on skewed levels"
        );
    }

    #[test]
    fn valid_on_both_paper_platforms() {
        let g = skewed_level();
        for p in [20u32, 120] {
            let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
            assert!(Mcpa2.allocate(&g, &m).is_valid_for(&g, p));
        }
    }
}
