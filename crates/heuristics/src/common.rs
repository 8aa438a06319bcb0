//! The shared CPA-style allocation loop.
//!
//! CPA, HCPA and MCPA all follow the same pattern (Radulescu & van Gemund):
//! start every task at one processor and, while the critical-path length
//! `T_CP` exceeds the average area `T_A = (1/P) Σ_v s(v)·T(v, s(v))`, give
//! one more processor to the critical-path task whose *time-per-processor*
//! benefits most. The variants differ only in which tasks may grow, and
//! [`CpaLoop`] states that as data: a per-task cap (MCPA2, BiCPA) and
//! MCPA's level bound.
//!
//! **Per-step cost.** One +1 step changes one task's time, so only that task
//! and its ancestors get new bottom levels, and all of them precede it in
//! topological order. The loop copies the successor lists once per call
//! into an arena laid out in topological order, each list sorted by task
//! id, and per step re-sweeps just the topological prefix that ends at the
//! grown task. That one sweep yields everything the step reads:
//!
//! * each swept task's bottom level, folded with a plain `>` (bottom levels
//!   are finite and ≥ 0, which the sweep asserts, so the value is
//!   `f64::max`'s);
//! * its heaviest successor — the first strict maximum of an id-sorted
//!   list, so the largest bottom level with the smallest id, which is
//!   [`critical_path`]'s tie-break.
//!
//! One pass over the sources gives `T_CP` and the first task of the
//! critical path, and the rest of the path is a pointer walk over the
//! heaviest successors. Each task's gain is cached until the task grows;
//! MCPA's level sums are exact integers kept up to date; `Σ s·t` is kept
//! incrementally with a bound on its rounding error, and only when `T_CP`
//! lies within that bound of `T_A` does the loop recompute the in-order
//! sum and decide on it. So every stop test is the exact one.
//!
//! The test oracle [`run_cpa_loop_reference`] instead runs two full
//! bottom-level passes per step (one for `T_CP`, one inside
//! `critical_path`), recomputes every candidate's gain, the level sums and
//! the area; every value and comparison is bitwise the same in both, so
//! their allocations are identical.

use exec_model::TimeMatrix;
use ptg::critpath::{bottom_levels, critical_path};
use ptg::levels::PrecedenceLevels;
use ptg::topo::topo_positions;
use ptg::{Ptg, TaskId};
use sched::Allocation;

/// Configuration of the shared CPA loop: which tasks may grow.
#[derive(Debug, Clone, Default)]
pub struct CpaLoop {
    /// Per-task allocation caps, indexed by task id: task `v` grows only
    /// while `s(v) < caps[v]`. `None` caps every task at the platform size
    /// `P`. MCPA2 passes its work shares, BiCPA one uniform cap.
    pub caps: Option<Vec<u32>>,
    /// MCPA's level bound: a task grows only while the total allocation of
    /// its precedence level is below `P`.
    pub level_bound: bool,
}

/// The gain CPA attributes to growing task `v` by one processor: the drop in
/// average processor time `T(v,s)/s − T(v,s+1)/(s+1)`.
pub fn cpa_gain(matrix: &TimeMatrix, v: TaskId, s: u32) -> f64 {
    debug_assert!(s < matrix.p_max());
    matrix.time(v, s) / s as f64 - matrix.time(v, s + 1) / (s + 1) as f64
}

/// Marks a task without successors in the heaviest-successor table.
const NO_TASK: TaskId = TaskId(u32::MAX);

/// The successor lists in one arena, laid out in topological order, each
/// list sorted by task id.
struct Successors {
    /// `order[i]` is the task at topological position `i`.
    order: Vec<TaskId>,
    /// The successors of `order[i]` are `succ[off[i]..off[i + 1]]`.
    off: Vec<usize>,
    succ: Vec<TaskId>,
}

impl Successors {
    fn new(g: &Ptg) -> Self {
        let order = g.topo_order().to_vec();
        let mut off = Vec::with_capacity(order.len() + 1);
        let mut succ = Vec::with_capacity(g.edge_count());
        off.push(0);
        for &v in &order {
            let start = succ.len();
            succ.extend_from_slice(g.successors(v));
            succ[start..].sort_unstable();
            off.push(succ.len());
        }
        Successors { order, off, succ }
    }

    /// Re-sweeps topological positions `last..=0`: the bottom level `bl` and
    /// heaviest successor `heavy` (or [`NO_TASK`]) of each task there.
    // lint:hot-path
    fn sweep(&self, last: usize, times: &[f64], bl: &mut [f64], heavy: &mut [TaskId]) {
        for i in (0..=last).rev() {
            let list = &self.succ[self.off[i]..self.off[i + 1]];
            let (down, best) = match list.split_first() {
                Some((&first, rest)) => {
                    let (mut down, mut best) = (bl[first.index()], first);
                    for &s in rest {
                        let level = bl[s.index()];
                        if level > down {
                            (down, best) = (level, s);
                        }
                    }
                    (down, best)
                }
                None => (0.0, NO_TASK),
            };
            let v = self.order[i].index();
            let level = times[v] + down;
            // NaN fails this too, so no NaN ever reaches a comparison above.
            assert!(level >= 0.0, "bottom levels are finite and non-negative");
            bl[v] = level;
            heavy[v] = best;
        }
    }
}

/// `Σ s(v)·t(v)` kept incrementally, with a bound on how far the running
/// sum may lie from the in-order sum [`Allocation::work_area`] computes.
#[derive(Debug, Clone, Copy)]
struct WorkArea {
    /// The running sum.
    sum: f64,
    /// Bound on `|sum − S|`, where `S` is the exact real sum of the float
    /// products `s(v)·t(v)` that `work_area` adds up.
    err: f64,
    /// Task count: the in-order sum lies within `n·ε·S` of `S`.
    n: f64,
}

impl WorkArea {
    fn exact(alloc: &Allocation, times: &[f64]) -> Self {
        let sum = alloc.work_area(times);
        let n = times.len() as f64;
        WorkArea {
            sum,
            err: n * f64::EPSILON * sum,
            n,
        }
    }

    /// A task went from `s − 1` processors at `old` seconds to `s` at
    /// `new`. The difference and the addition each round by at most `ε/2`
    /// of their result.
    fn grow(&mut self, s: u32, old: f64, new: f64) {
        let d = s as f64 * new - (s - 1) as f64 * old;
        self.sum += d;
        self.err += f64::EPSILON * (d.abs() + self.sum.abs());
    }

    /// The stop test `t_cp <= work_area / p`, decided exactly: from the
    /// running sum when `t_cp` lies clear of its error interval, and
    /// otherwise from the in-order sum, which this then resumes from.
    fn covers(&mut self, t_cp: f64, p: u32, alloc: &Allocation, times: &[f64]) -> bool {
        let p = p as f64;
        // Twice the bounds on `|sum − S|` and `|work_area − S|`. Rounding is
        // monotone, so the two quotients below bracket `work_area / p`.
        let slack = 2.0 * (self.err + self.n * f64::EPSILON * (self.sum + self.err));
        if t_cp <= (self.sum - slack) / p {
            return true;
        }
        if t_cp > (self.sum + slack) / p {
            return false;
        }
        *self = WorkArea::exact(alloc, times);
        t_cp <= self.sum / p
    }
}

/// Runs the CPA allocation loop and returns the final allocation.
///
/// Terminates because every iteration increases the total allocation by one
/// and each task is capped at `P`, so at most `V · (P − 1)` iterations run.
/// Each iteration costs one sweep over the topological prefix that ends at
/// the task it grew, a pass over the sources and a walk along the critical
/// path (see the module docs).
///
/// # Panics
/// Panics if `cfg.caps` does not hold one cap per task.
pub fn run_cpa_loop(g: &Ptg, matrix: &TimeMatrix, cfg: &CpaLoop) -> Allocation {
    let n = g.task_count();
    let p_total = matrix.p_max();
    let limit: Vec<u32> = match &cfg.caps {
        Some(caps) => {
            assert_eq!(caps.len(), n, "one cap per task");
            caps.iter().map(|&c| c.min(p_total)).collect()
        }
        None => vec![p_total; n],
    };
    // MCPA's bound reads each level's total allocation, kept exact.
    let levels = PrecedenceLevels::compute(g);
    let level: Vec<usize> = g.task_ids().map(|v| levels.level_of(v)).collect();
    let mut level_sum: Vec<u32> = levels.iter().map(|(_, tasks)| tasks.len() as u32).collect();
    let arena = Successors::new(g);
    let pos = topo_positions(g);
    let sources = g.sources();
    let mut alloc = Allocation::ones(n);
    let mut times = matrix.times_for(alloc.as_slice());
    let mut area = WorkArea::exact(&alloc, &times);
    let (mut bl, mut heavy) = (vec![0.0; n], vec![NO_TASK; n]);
    arena.sweep(n - 1, &times, &mut bl, &mut heavy);
    // A task's gain depends only on its own allocation, so it is computed
    // once per allocation and reused until the task grows again. Tasks at
    // their cap never become candidates, so their entry is never read.
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
        // over the sources is `T_CP`; the first source reaching it (the
        // smallest id) starts the critical path.
        let mut cur = sources[0];
        let mut t_cp = bl[cur.index()];
        for &s in &sources[1..] {
            if bl[s.index()] > t_cp {
                (cur, t_cp) = (s, bl[s.index()]);
            }
        }
        if area.covers(t_cp, p_total, &alloc, &times) {
            break;
        }
        // Candidates: tasks on the current critical path that can still
        // grow. Gains are finite (the matrix holds finite times), and on
        // equal gains the later task wins, as in `Iterator::max_by`.
        let mut best: Option<(usize, f64)> = None;
        while cur != NO_TASK {
            let v = cur.index();
            let grows = alloc.as_slice()[v] < limit[v]
                && (!cfg.level_bound || level_sum[level[v]] < p_total);
            if grows && best.is_none_or(|(_, b)| gains[v] >= b) {
                best = Some((v, gains[v]));
            }
            cur = heavy[v];
        }
        let Some((v, _)) = best else {
            break; // nothing on the critical path may grow
        };
        let task = TaskId::from_index(v);
        let s = alloc.of(task) + 1;
        alloc.set(task, s);
        let time = matrix.time(task, s);
        area.grow(s, times[v], time);
        times[v] = time;
        gains[v] = gain_at(task, s);
        level_sum[level[v]] += 1;
        arena.sweep(pos[v] as usize, &times, &mut bl, &mut heavy);
    }
    alloc
}

/// The CPA loop as first written: two full bottom-level passes, four fresh
/// vectors and, under MCPA's bound, a freshly summed level total per step. Kept
/// only as the oracle that pins [`run_cpa_loop`]'s output bit for bit; not
/// for production use.
#[doc(hidden)]
pub fn run_cpa_loop_reference(g: &Ptg, matrix: &TimeMatrix, cfg: &CpaLoop) -> Allocation {
    let p_total = matrix.p_max();
    let levels = PrecedenceLevels::compute(g);
    let may_grow = |alloc: &Allocation, v: TaskId| {
        let s = alloc.of(v);
        let level_sum = || -> u32 {
            let tasks = levels.tasks_on_level(levels.level_of(v));
            tasks.iter().map(|&w| alloc.of(w)).sum()
        };
        s < p_total
            && cfg.caps.as_ref().is_none_or(|caps| s < caps[v.index()])
            && (!cfg.level_bound || level_sum() < p_total)
    };
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
            .filter(|&v| may_grow(&alloc, v))
            .map(|v| (v, cpa_gain(matrix, v, alloc.of(v))))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("gains are finite"));
        let Some((v, _)) = best else {
            break; // nothing on the critical path may grow
        };
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
        // so CPA gains stay positive; negative gains need models like
        // tabulated measurements with super-linear slowdowns.
        // Assert the mathematical possibility with a crafted table instead.
        use exec_model::Tabulated;
        let tab = Tabulated::from_speedups(vec![1.0, 0.4]); // p=2 is 2.5× slower
        let m3 = TimeMatrix::compute(&g2, &tab, 1e9, 2);
        assert!(cpa_gain(&m3, TaskId(0), 1) < 0.0);
        let _ = (g, m, m2);
    }

    #[test]
    fn growth_constraint_is_respected() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let cfg = CpaLoop {
            caps: Some(vec![3, 3]),
            ..CpaLoop::default()
        };
        let alloc = run_cpa_loop(&g, &m, &cfg);
        assert_eq!(alloc.as_slice(), &[3, 3]);
        assert_eq!(alloc, run_cpa_loop_reference(&g, &m, &cfg));
    }

    #[test]
    #[should_panic(expected = "one cap per task")]
    fn caps_must_cover_every_task() {
        let g = chain();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let cfg = CpaLoop {
            caps: Some(vec![3]),
            ..CpaLoop::default()
        };
        run_cpa_loop(&g, &m, &cfg);
    }

    #[test]
    fn equal_levels_break_toward_the_smaller_id_on_unsorted_lists() {
        // A source fanning out to four tasks of equal cost, its edges
        // inserted in descending id order, so the builder's successor list
        // is not sorted by id. Sequential times do not depend on α, so the
        // fan's bottom levels tie while their gains differ: a walk that
        // took the wrong tied task would grow a different one.
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 4e9, 0.1);
        let fan: Vec<TaskId> = [0.05, 0.1, 0.2, 0.3]
            .iter()
            .enumerate()
            .map(|(i, &alpha)| b.add_task(format!("w{i}"), 8e9, alpha))
            .collect();
        for &w in fan.iter().rev() {
            b.add_edge(src, w).unwrap();
        }
        let g = b.build().unwrap();
        for p in 2..=32u32 {
            let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
            for cfg in [
                CpaLoop::default(),
                CpaLoop {
                    level_bound: true,
                    ..CpaLoop::default()
                },
            ] {
                assert_eq!(
                    run_cpa_loop(&g, &m, &cfg),
                    run_cpa_loop_reference(&g, &m, &cfg),
                    "P = {p}, {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn stop_test_is_exact_next_to_the_area_bound() {
        // After many increments the running sum has drifted from the
        // in-order sum; T_CP one ulp either side of T_A must still get the
        // in-order answer.
        let times0: Vec<f64> = (0..50).map(|i| 0.1 + (i % 7) as f64 / 3.0).collect();
        let mut alloc = Allocation::ones(times0.len());
        let mut times = times0.clone();
        let mut area = WorkArea::exact(&alloc, &times);
        for step in 0..2000usize {
            let v = TaskId::from_index(step * 31 % times.len());
            let s = alloc.of(v) + 1;
            let new = times0[v.index()] / s as f64 + 1e-3;
            alloc.set(v, s);
            area.grow(s, times[v.index()], new);
            times[v.index()] = new;
            let t_a = alloc.work_area(&times) / 7.0;
            for t_cp in [
                0.5 * t_a,
                f64::from_bits(t_a.to_bits() - 1),
                t_a,
                f64::from_bits(t_a.to_bits() + 1),
                2.0 * t_a,
            ] {
                // A copy, so a recompute does not reset the drift.
                let mut probe = area;
                assert_eq!(
                    probe.covers(t_cp, 7, &alloc, &times),
                    t_cp <= t_a,
                    "step {step}"
                );
            }
        }
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
