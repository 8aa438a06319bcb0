//! Bottom levels, top levels and critical paths.
//!
//! All functions take the per-task execution times as a slice `times[v]`
//! (seconds under the *current allocation* of each task) so that this crate
//! stays independent of any particular execution-time model. The paper's
//! definitions:
//!
//! * bottom level `bl(v)` — length of the longest path from `v` to a sink of
//!   the PTG **including** `v`'s own execution time,
//! * top level `tl(v)` — length of the longest path from a source to `v`
//!   **excluding** `v`'s own execution time (a standard companion notion used
//!   by the mapper and analyses),
//! * critical path — a path realizing `max_v bl(v)`.

use crate::graph::Ptg;
use crate::node::TaskId;

/// Computes the bottom level of every task in O(V + E).
///
/// # Panics
/// Panics if `times.len() != g.task_count()`.
pub fn bottom_levels(g: &Ptg, times: &[f64]) -> Vec<f64> {
    let mut bl = Vec::new();
    bottom_levels_into(g, times, &mut bl);
    bl
}

/// Like [`bottom_levels`], but writes into `out` (cleared first) so hot
/// loops can reuse one buffer across evaluations instead of allocating.
///
/// # Panics
/// Panics if `times.len() != g.task_count()`.
// lint:hot-path
pub fn bottom_levels_into(g: &Ptg, times: &[f64], out: &mut Vec<f64>) {
    assert_eq!(
        times.len(),
        g.task_count(),
        "one execution time per task required"
    );
    out.clear();
    out.resize(g.task_count(), 0.0);
    // Bottom levels are finite and ≥ 0, so a plain `>` folds to the same
    // maximum as `f64::max`, without its NaN handling on the serial
    // dependency chain.
    for &v in g.topo_order().iter().rev() {
        let down = g
            .successors(v)
            .iter()
            .map(|&s| out[s.index()])
            .fold(0.0f64, |max, level| if level > max { level } else { max });
        out[v.index()] = times[v.index()] + down;
    }
}

/// Computes the top level of every task in O(V + E).
///
/// # Panics
/// Panics if `times.len() != g.task_count()`.
pub fn top_levels(g: &Ptg, times: &[f64]) -> Vec<f64> {
    assert_eq!(
        times.len(),
        g.task_count(),
        "one execution time per task required"
    );
    let mut tl = vec![0.0f64; g.task_count()];
    for &v in g.topo_order() {
        let up = g
            .predecessors(v)
            .iter()
            .map(|&p| tl[p.index()] + times[p.index()])
            .fold(0.0f64, f64::max);
        tl[v.index()] = up;
    }
    tl
}

/// The critical-path length `T_CP = max_v bl(v)`; the lower bound on any
/// schedule's makespan under the given execution times.
pub fn critical_path_length(g: &Ptg, times: &[f64]) -> f64 {
    bottom_levels(g, times).into_iter().fold(0.0, f64::max)
}

/// Extracts one critical path as a source→sink task sequence.
///
/// Starts from the source with the largest bottom level and repeatedly moves
/// to the successor whose bottom level dominates. Ties break toward the
/// smallest task id, so the result is deterministic.
///
/// # Panics
/// Panics if a bottom level it compares is NaN.
pub fn critical_path(g: &Ptg, times: &[f64]) -> Vec<TaskId> {
    critical_path_walk(g, &bottom_levels(g, times))
}

/// [`critical_path`]'s walk over given bottom levels `bl`.
fn critical_path_walk(g: &Ptg, bl: &[f64]) -> Vec<TaskId> {
    let mut path = Vec::new();
    let mut next = heaviest(g.sources(), bl);
    while let Some(cur) = next {
        path.push(cur);
        next = heaviest(g.successors(cur), bl);
    }
    path
}

/// The task of `candidates` with the largest bottom level, the smallest id
/// on ties; `None` when there is no candidate.
// lint:hot-path
#[inline]
fn heaviest(candidates: &[TaskId], bl: &[f64]) -> Option<TaskId> {
    let (&first, rest) = candidates.split_first()?;
    let mut best = first;
    for &c in rest {
        let (level, best_level) = (bl[c.index()], bl[best.index()]);
        assert!(
            !(level.is_nan() || best_level.is_nan()),
            "bottom levels are finite"
        );
        if level > best_level || (level == best_level && c < best) {
            best = c;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PtgBuilder;

    /// 0(3s) -> 1(5s) -> 3(1s); 0 -> 2(2s) -> 3
    fn weighted_diamond() -> (Ptg, Vec<f64>) {
        let mut b = PtgBuilder::new();
        for i in 0..4 {
            b.add_task(format!("t{i}"), 1.0, 0.0);
        }
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.add_edge(TaskId(1), TaskId(3)).unwrap();
        b.add_edge(TaskId(2), TaskId(3)).unwrap();
        (b.build().unwrap(), vec![3.0, 5.0, 2.0, 1.0])
    }

    #[test]
    fn bottom_levels_include_own_time() {
        let (g, t) = weighted_diamond();
        let bl = bottom_levels(&g, &t);
        assert_eq!(bl[3], 1.0);
        assert_eq!(bl[1], 6.0);
        assert_eq!(bl[2], 3.0);
        assert_eq!(bl[0], 9.0); // 3 + max(6, 3)
    }

    #[test]
    fn top_levels_exclude_own_time() {
        let (g, t) = weighted_diamond();
        let tl = top_levels(&g, &t);
        assert_eq!(tl[0], 0.0);
        assert_eq!(tl[1], 3.0);
        assert_eq!(tl[2], 3.0);
        assert_eq!(tl[3], 8.0); // via task 1
    }

    #[test]
    fn cp_length_is_max_bottom_level() {
        let (g, t) = weighted_diamond();
        assert_eq!(critical_path_length(&g, &t), 9.0);
    }

    #[test]
    fn critical_path_follows_heavy_branch() {
        let (g, t) = weighted_diamond();
        assert_eq!(critical_path(&g, &t), vec![TaskId(0), TaskId(1), TaskId(3)]);
    }

    #[test]
    fn tl_plus_bl_is_cp_length_exactly_on_the_path() {
        let (g, t) = weighted_diamond();
        let bl = bottom_levels(&g, &t);
        let tl = top_levels(&g, &t);
        let cp = critical_path_length(&g, &t);
        for v in critical_path(&g, &t) {
            assert!((tl[v.index()] + bl[v.index()] - cp).abs() < 1e-12);
        }
        // off-path task 2: 3 + 3 = 6 < 9
        assert!(tl[2] + bl[2] < cp);
    }

    #[test]
    fn bottom_levels_into_reuses_buffer_and_matches() {
        let (g, t) = weighted_diamond();
        let mut buf = vec![99.0; 10]; // stale, wrong-sized buffer
        bottom_levels_into(&g, &t, &mut buf);
        assert_eq!(buf, bottom_levels(&g, &t));
        assert_eq!(buf.len(), g.task_count());
    }

    #[test]
    fn walk_over_given_levels_matches_critical_path() {
        let (g, t) = weighted_diamond();
        let bl = bottom_levels(&g, &t);
        assert_eq!(critical_path_walk(&g, &bl), critical_path(&g, &t));
        // Ties break toward the smaller id: equal branches pick task 1.
        let tied = bottom_levels(&g, &[3.0, 2.0, 2.0, 1.0]);
        assert_eq!(
            critical_path_walk(&g, &tied),
            vec![TaskId(0), TaskId(1), TaskId(3)]
        );
    }

    #[test]
    #[should_panic(expected = "one execution time per task")]
    fn mismatched_times_length_panics() {
        let (g, _) = weighted_diamond();
        let _ = bottom_levels(&g, &[1.0]);
    }

    #[test]
    fn chain_bottom_levels_accumulate() {
        let mut b = PtgBuilder::new();
        let ids: Vec<_> = (0..4)
            .map(|i| b.add_task(format!("t{i}"), 1.0, 0.0))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let g = b.build().unwrap();
        let bl = bottom_levels(&g, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(bl, vec![10.0, 9.0, 7.0, 4.0]);
    }
}
