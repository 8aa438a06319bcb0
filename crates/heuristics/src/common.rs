//! The shared CPA-style allocation loop.
//!
//! CPA, HCPA and MCPA all follow the same pattern (Radulescu & van Gemund):
//! start every task at one processor and, while the critical-path length
//! `T_CP` exceeds the average area `T_A = (1/P) Σ_v s(v)·T(v, s(v))`, give
//! one more processor to the critical-path task whose *time-per-processor*
//! benefits most. The variants differ only in which tasks are allowed to
//! grow, so the loop takes a growth-constraint callback.
//!
//! **Per-step cost.** One +1 step changes one task's time, so only that task
//! and its ancestors get new bottom levels, and all of them precede it in
//! topological order. The loop keeps the bottom levels in one buffer and
//! re-sweeps just that topological prefix (`bottom_levels_prefix_into`),
//! then reads `T_CP` and the critical path off the same buffer. Each task's
//! gain is cached until the task grows. The test oracle
//! [`run_cpa_loop_reference`] instead runs two full bottom-level passes per
//! step (one for `T_CP`, one inside `critical_path`) and recomputes every
//! candidate's gain; every value and comparison is bitwise the same in
//! both, so their allocations are identical.

use exec_model::TimeMatrix;
use ptg::critpath::{
    bottom_levels, bottom_levels_into, bottom_levels_prefix_into, critical_path, critical_path_walk,
};
use ptg::topo::topo_positions;
use ptg::{Ptg, TaskId};
use sched::Allocation;

/// Configuration of the shared CPA loop.
pub struct CpaLoop<'a> {
    /// Permits task `v` to grow from its current allocation (checked before
    /// each increment). MCPA uses this for its per-level bound; plain CPA
    /// always returns true.
    pub may_grow: &'a dyn Fn(&Allocation, TaskId) -> bool,
    /// If true, the loop also stops when the best achievable gain is zero or
    /// negative (useful under non-monotonic models; the classic algorithms
    /// do not check this because monotonic models always gain).
    pub stop_on_no_gain: bool,
}

impl Default for CpaLoop<'_> {
    fn default() -> Self {
        CpaLoop {
            may_grow: &|_, _| true,
            stop_on_no_gain: false,
        }
    }
}

/// The gain CPA attributes to growing task `v` by one processor: the drop in
/// average processor time `T(v,s)/s − T(v,s+1)/(s+1)`.
pub fn cpa_gain(matrix: &TimeMatrix, v: TaskId, s: u32) -> f64 {
    debug_assert!(s < matrix.p_max());
    matrix.time(v, s) / s as f64 - matrix.time(v, s + 1) / (s + 1) as f64
}

/// Runs the CPA allocation loop and returns the final allocation.
///
/// Terminates because every iteration increases the total allocation by one
/// and each task is capped at `P`, so at most `V · (P − 1)` iterations run.
/// Each iteration costs one bottom-level sweep over the topological prefix
/// that ends at the task it grew (see the module docs).
pub fn run_cpa_loop(g: &Ptg, matrix: &TimeMatrix, cfg: &CpaLoop<'_>) -> Allocation {
    let p_total = matrix.p_max();
    let mut alloc = Allocation::ones(g.task_count());
    let mut times = matrix.times_for(alloc.as_slice());
    let topo_pos = topo_positions(g);
    let sources = g.csr().sources();
    let mut bl = Vec::new();
    bottom_levels_into(g, &times, &mut bl);
    // A task's gain depends only on its own allocation, so it is computed
    // once per allocation and reused until the task grows again. Tasks at
    // `P` never become candidates, so their entry is never read.
    let gain_at = |v: TaskId, s: u32| {
        if s < p_total {
            cpa_gain(matrix, v, s)
        } else {
            0.0
        }
    };
    let mut gains: Vec<f64> = g.task_ids().map(|v| gain_at(v, 1)).collect();
    loop {
        // Every task's bottom level is at most some source's, so the max
        // over the sources is the max over all tasks, bit for bit.
        let t_cp = sources
            .iter()
            .map(|&s| bl[s as usize])
            .fold(0.0f64, f64::max);
        let t_a = alloc.work_area(&times) / p_total as f64;
        if t_cp <= t_a {
            break;
        }
        // Candidates: tasks on the current critical path that can still grow.
        let best = critical_path_walk(g, &bl)
            .filter(|&v| alloc.of(v) < p_total && (cfg.may_grow)(&alloc, v))
            .map(|v| (v, gains[v.index()]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("gains are finite"));
        let Some((v, gain)) = best else {
            break; // nothing on the critical path may grow
        };
        if cfg.stop_on_no_gain && gain <= 0.0 {
            break;
        }
        let s = alloc.of(v) + 1;
        alloc.set(v, s);
        times[v.index()] = matrix.time(v, s);
        gains[v.index()] = gain_at(v, s);
        bottom_levels_prefix_into(g, &times, topo_pos[v.index()] as usize + 1, &mut bl);
    }
    alloc
}

/// The CPA loop as first written: two full bottom-level passes and four
/// fresh vectors per step. Kept only as the oracle that pins
/// [`run_cpa_loop`]'s output bit for bit; not for production use.
#[doc(hidden)]
pub fn run_cpa_loop_reference(g: &Ptg, matrix: &TimeMatrix, cfg: &CpaLoop<'_>) -> Allocation {
    let p_total = matrix.p_max();
    let mut alloc = Allocation::ones(g.task_count());
    let mut times = matrix.times_for(alloc.as_slice());
    loop {
        let bl = bottom_levels(g, &times);
        let t_cp = bl.iter().copied().fold(0.0f64, f64::max);
        let t_a = alloc.work_area(&times) / p_total as f64;
        if t_cp <= t_a {
            break;
        }
        // Candidates: tasks on the current critical path that can still grow.
        let cp = critical_path(g, &times);
        let best = cp
            .into_iter()
            .filter(|&v| alloc.of(v) < p_total && (cfg.may_grow)(&alloc, v))
            .map(|v| (v, cpa_gain(matrix, v, alloc.of(v))))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("gains are finite"));
        let Some((v, gain)) = best else {
            break; // nothing on the critical path may grow
        };
        if cfg.stop_on_no_gain && gain <= 0.0 {
            break;
        }
        let s = alloc.of(v) + 1;
        alloc.set(v, s);
        times[v.index()] = matrix.time(v, s);
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::{Amdahl, SyntheticModel};
    use ptg::PtgBuilder;

    /// A chain of two perfectly scalable tasks.
    fn chain() -> Ptg {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 8e9, 0.0);
        let c = b.add_task("c", 8e9, 0.0);
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_grows_to_full_platform() {
        // A pure chain has T_A = (t_a + t_c)/P and T_CP = t_a + t_c; with
        // perfectly scalable tasks CPA keeps growing until each task uses
        // every processor (T_CP = 2·8/P·seq vs T_A the same) — equality is
        // reached exactly at s = P.
        let g = chain();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = run_cpa_loop(&g, &m, &CpaLoop::default());
        assert_eq!(alloc.as_slice(), &[4, 4]);
    }

    #[test]
    fn gain_is_positive_under_amdahl() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        for s in 1..8 {
            assert!(cpa_gain(&m, TaskId(0), s) > 0.0, "s = {s}");
        }
    }

    #[test]
    fn gain_can_be_negative_under_model2() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, 8);
        // 4 → 5: time goes from seq/4 to 1.3·seq/5 = 0.26 seq; per-proc time
        // 0.0625 → 0.052: actually still a positive gain. Check 1 → 2 vs a
        // fully sequential task instead: alpha = 1 means no speedup, so
        // T(2)/2 = 1.1·seq/2 > 0... gain = seq − 0.55·seq > 0. Use the raw
        // *time* increase at odd counts to build a case: task with alpha 0,
        // 2 → 3 gives T(3)/3 = 1.3/9 seq ≈ 0.144·seq vs T(2)/2 = 0.275·seq —
        // still positive. Per-processor gain under Model 2 stays positive
        // for scalable tasks; negative gains need poorly scaling tasks:
        let mut b = PtgBuilder::new();
        b.add_task("seq", 8e9, 0.9);
        let g2 = b.build().unwrap();
        let m2 = TimeMatrix::compute(&g2, &SyntheticModel::default(), 1e9, 8);
        // alpha = 0.9: T(2) = 1.1·0.95·seq ≈ 1.045·seq, per-proc 0.5225 vs 1.0
        // → positive; T(3) = 1.3·(0.9+0.1/3) = 1.213·seq, per-proc 0.404 —
        // positive again. Per-processor time is dominated by the 1/s factor,
        // so CPA gains stay positive; the negative-gain guard matters for
        // models like tabulated measurements with super-linear slowdowns.
        // Assert the mathematical possibility with a crafted table instead.
        use exec_model::Tabulated;
        let tab = Tabulated::from_speedups(vec![1.0, 0.4]); // p=2 is 2.5× slower
        let m3 = TimeMatrix::compute(&g2, &tab, 1e9, 2);
        assert!(cpa_gain(&m3, TaskId(0), 1) < 0.0);
        let _ = (g, m, m2);
    }

    #[test]
    fn stop_on_no_gain_freezes_allocation_under_hostile_model() {
        use exec_model::Tabulated;
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 8e9, 0.0);
        let c = b.add_task("c", 8e9, 0.0);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        // Any growth slows tasks down drastically.
        let tab = Tabulated::from_speedups(vec![1.0, 0.1, 0.1, 0.1]);
        let m = TimeMatrix::compute(&g, &tab, 1e9, 4);
        let cfg = CpaLoop {
            stop_on_no_gain: true,
            ..CpaLoop::default()
        };
        let alloc = run_cpa_loop(&g, &m, &cfg);
        assert_eq!(alloc.as_slice(), &[1, 1]);
    }

    #[test]
    fn growth_constraint_is_respected() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let cap = |alloc: &Allocation, v: TaskId| alloc.of(v) < 3;
        let cfg = CpaLoop {
            may_grow: &cap,
            stop_on_no_gain: false,
        };
        let alloc = run_cpa_loop(&g, &m, &cfg);
        assert!(alloc.as_slice().iter().all(|&s| s <= 3), "{alloc:?}");
    }

    #[test]
    fn loop_terminates_under_model2_on_wide_graph() {
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 1e9, 0.1);
        for i in 0..10 {
            let t = b.add_task(format!("w{i}"), 5e9, 0.05);
            b.add_edge(src, t).unwrap();
        }
        let g = b.build().unwrap();
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, 20);
        let alloc = run_cpa_loop(&g, &m, &CpaLoop::default());
        assert!(alloc.is_valid_for(&g, 20));
    }
}
