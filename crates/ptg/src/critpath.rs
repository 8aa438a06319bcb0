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

use crate::graph::{CsrAdjacency, Ptg};
use crate::node::TaskId;
use crate::topo::topo_positions;

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
    out.clear();
    out.resize(g.task_count(), 0.0);
    bottom_levels_prefix_into(g, times, g.task_count(), out);
}

/// Re-sweeps the bottom levels of the topological prefix
/// `g.topo_order()[..end]` in place and leaves every later entry of `bl`
/// untouched.
///
/// When only task `v`'s time changed, only `v` and its ancestors can get a
/// new bottom level, and all of them sit at or before `v`'s topological
/// position. So `end = pos(v) + 1` (see
/// [`topo_positions`](crate::topo::topo_positions)) brings `bl` bitwise to
/// what [`bottom_levels_into`] computes from scratch: every task is
/// recomputed by the same successor-order fold, from successors that are
/// either re-swept already or unchanged.
///
/// # Panics
/// Panics if `times` or `bl` do not hold one entry per task, or if
/// `end > g.task_count()`.
// lint:hot-path
pub fn bottom_levels_prefix_into(g: &Ptg, times: &[f64], end: usize, bl: &mut [f64]) {
    assert_eq!(
        times.len(),
        g.task_count(),
        "one execution time per task required"
    );
    assert_eq!(bl.len(), g.task_count(), "one bottom level per task");
    // The CSR view walks each successor list as one contiguous slice; the
    // fold order equals the builder adjacency order, so the f64::max chain —
    // and therefore every produced bit pattern — matches the Vec<Vec> walk.
    let csr = g.csr();
    for &v in g.topo_order()[..end].iter().rev() {
        let down = csr
            .successors(v.0)
            .iter()
            .map(|&s| bl[s as usize])
            .fold(0.0f64, f64::max);
        bl[v.index()] = times[v.index()] + down;
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

/// Extracts one critical path as a source→sink task sequence: the
/// [`critical_path_walk`] over freshly computed bottom levels.
pub fn critical_path(g: &Ptg, times: &[f64]) -> Vec<TaskId> {
    let bl = bottom_levels(g, times);
    critical_path_walk(g, &bl).collect()
}

/// Walks one critical path, source to sink, over given bottom levels `bl`.
///
/// Starts from the source with the largest bottom level and repeatedly moves
/// to the successor whose bottom level dominates. Ties break toward the
/// smallest task id, so the result is deterministic. The walk allocates
/// nothing, so loops that keep `bl` up to date can re-walk it every step.
///
/// # Panics
/// The iterator panics if a bottom level it compares is NaN.
#[inline]
pub fn critical_path_walk<'a>(g: &'a Ptg, bl: &'a [f64]) -> CriticalPathWalk<'a> {
    let csr = g.csr();
    CriticalPathWalk {
        csr,
        bl,
        next: heaviest(csr.sources(), bl),
    }
}

/// Iterator returned by [`critical_path_walk`].
#[derive(Debug, Clone)]
pub struct CriticalPathWalk<'a> {
    csr: &'a CsrAdjacency,
    bl: &'a [f64],
    next: Option<u32>,
}

impl Iterator for CriticalPathWalk<'_> {
    type Item = TaskId;

    #[inline]
    fn next(&mut self) -> Option<TaskId> {
        let cur = self.next?;
        self.next = heaviest(self.csr.successors(cur), self.bl);
        Some(TaskId(cur))
    }
}

/// The task of `candidates` with the largest bottom level, the smallest id
/// on ties; `None` when there is no candidate.
// lint:hot-path
#[inline]
fn heaviest(candidates: &[u32], bl: &[f64]) -> Option<u32> {
    let (&first, rest) = candidates.split_first()?;
    let mut best = first;
    for &c in rest {
        let (level, best_level) = (bl[c as usize], bl[best as usize]);
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

/// Incremental bottom-level repair after a sparse change of task times.
///
/// A mutated allocation changes the execution time of a handful of tasks;
/// only those tasks and their ancestors can see a different bottom level.
/// `repair` propagates the change backwards through the graph, visiting a
/// task at most once (a max-heap over topological positions guarantees all
/// successors are final before a task recomputes), and stops each branch as
/// soon as a recomputed value is **bitwise** identical to the stored one.
///
/// The result is exactly [`bottom_levels_into`] run from scratch: `bl(v) =
/// times(v) + max_s bl(s)` combines its inputs the same way in both
/// traversal orders, because `f64::max` over a fixed successor list is
/// evaluated in the identical (adjacency) order here and there.
///
/// The repairer owns all per-graph buffers, so repeated repairs on the same
/// graph perform no allocations beyond heap growth on first use.
#[derive(Debug, Clone)]
pub struct BlRepairer {
    /// Position of each task in the graph's topological order.
    topo_pos: Vec<u32>,
    /// Whether a task currently sits in `heap`.
    queued: Vec<bool>,
    /// Pending recomputations, deepest (largest topo position) first.
    heap: std::collections::BinaryHeap<(u32, TaskId)>,
    /// Tasks whose bottom level changed during the last `repair`.
    changed: Vec<TaskId>,
}

impl BlRepairer {
    /// Builds a repairer for `g` (O(V) setup, reusable for any number of
    /// repairs on the same graph).
    pub fn new(g: &Ptg) -> Self {
        BlRepairer {
            topo_pos: topo_positions(g),
            queued: vec![false; g.task_count()],
            heap: std::collections::BinaryHeap::with_capacity(g.task_count()),
            changed: Vec::new(),
        }
    }

    /// Repairs `bl` in place after `times` changed at the tasks in `dirty`,
    /// and returns the tasks whose bottom level is no longer bitwise equal
    /// to its previous value.
    ///
    /// `bl` must hold the bottom levels of the *previous* times vector,
    /// which may differ from `times` only at `dirty` (duplicates allowed).
    ///
    /// # Panics
    /// Panics if the buffer lengths do not match the graph the repairer was
    /// built for.
    pub fn repair(
        &mut self,
        g: &Ptg,
        times: &[f64],
        bl: &mut [f64],
        dirty: &[TaskId],
    ) -> &[TaskId] {
        assert_eq!(
            self.topo_pos.len(),
            g.task_count(),
            "repairer/graph mismatch"
        );
        assert_eq!(times.len(), g.task_count(), "one execution time per task");
        assert_eq!(bl.len(), g.task_count(), "one bottom level per task");
        self.changed.clear();
        for &v in dirty {
            if !self.queued[v.index()] {
                self.queued[v.index()] = true;
                self.heap.push((self.topo_pos[v.index()], v));
            }
        }
        // Successors always carry larger topo positions, so popping deepest
        // first means every successor's bl is final when a task recomputes,
        // and each task is processed at most once. The CSR walk preserves
        // adjacency order, keeping the f64::max folds bit-identical.
        let csr = g.csr();
        while let Some((_, v)) = self.heap.pop() {
            self.queued[v.index()] = false;
            let down = csr
                .successors(v.0)
                .iter()
                .map(|&s| bl[s as usize])
                .fold(0.0f64, f64::max);
            let new = times[v.index()] + down;
            if new.to_bits() != bl[v.index()].to_bits() {
                bl[v.index()] = new;
                self.changed.push(v);
                for &p in csr.predecessors(v.0) {
                    if !self.queued[p as usize] {
                        self.queued[p as usize] = true;
                        self.heap.push((self.topo_pos[p as usize], TaskId(p)));
                    }
                }
            }
        }
        &self.changed
    }
}

/// Tasks whose bottom level is within `delta` of the global maximum:
/// `{v | bl(v) ≥ delta · max_i bl(i)}` — the Δ-critical set (Suter).
pub fn delta_critical(g: &Ptg, times: &[f64], delta: f64) -> Vec<TaskId> {
    assert!(
        (0.0..=1.0).contains(&delta),
        "delta must lie in [0, 1], got {delta}"
    );
    let bl = bottom_levels(g, times);
    let max = bl.iter().copied().fold(0.0f64, f64::max);
    g.task_ids()
        .filter(|v| bl[v.index()] >= delta * max)
        .collect()
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
    fn delta_one_selects_only_the_critical_entry() {
        let (g, t) = weighted_diamond();
        assert_eq!(delta_critical(&g, &t, 1.0), vec![TaskId(0)]);
    }

    #[test]
    fn delta_zero_selects_everything() {
        let (g, t) = weighted_diamond();
        assert_eq!(delta_critical(&g, &t, 0.0).len(), g.task_count());
    }

    #[test]
    fn delta_middle_is_monotone() {
        let (g, t) = weighted_diamond();
        let d9 = delta_critical(&g, &t, 0.9).len();
        let d5 = delta_critical(&g, &t, 0.5).len();
        let d1 = delta_critical(&g, &t, 0.1).len();
        assert!(d9 <= d5 && d5 <= d1);
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
    fn prefix_sweep_after_one_change_is_bitwise_a_full_sweep() {
        // Random DAGs over a local xorshift: after changing one task's time,
        // re-sweeping the prefix up to its topological position must land on
        // the from-scratch levels bit for bit.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let n = 10 + (next() % 40) as usize;
            let mut b = PtgBuilder::new();
            for i in 0..n {
                b.add_task(format!("t{i}"), 1.0, 0.0);
            }
            for v in 1..n {
                for _ in 0..=(next() % 3) {
                    let p = (next() % v as u64) as u32;
                    let _ = b.add_edge(TaskId(p), TaskId(v as u32));
                }
            }
            let g = b.build().unwrap();
            let pos = topo_positions(&g);
            let mut times: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 100) as f64 / 7.0).collect();
            let mut bl = bottom_levels(&g, &times);
            for _ in 0..8 {
                let v = (next() % n as u64) as usize;
                times[v] = 1.0 + (next() % 100) as f64 / 7.0;
                bottom_levels_prefix_into(&g, &times, pos[v] as usize + 1, &mut bl);
                let fresh = bottom_levels(&g, &times);
                for w in 0..n {
                    assert_eq!(bl[w].to_bits(), fresh[w].to_bits(), "task {w}");
                }
                let walked: Vec<TaskId> = critical_path_walk(&g, &bl).collect();
                assert_eq!(walked, critical_path(&g, &times));
            }
        }
    }

    #[test]
    fn walk_over_given_levels_matches_critical_path() {
        let (g, t) = weighted_diamond();
        let bl = bottom_levels(&g, &t);
        let walked: Vec<TaskId> = critical_path_walk(&g, &bl).collect();
        assert_eq!(walked, critical_path(&g, &t));
        // Ties break toward the smaller id: equal branches pick task 1.
        let tied = bottom_levels(&g, &[3.0, 2.0, 2.0, 1.0]);
        let walked: Vec<TaskId> = critical_path_walk(&g, &tied).collect();
        assert_eq!(walked, vec![TaskId(0), TaskId(1), TaskId(3)]);
    }

    #[test]
    #[should_panic(expected = "one execution time per task")]
    fn mismatched_times_length_panics() {
        let (g, _) = weighted_diamond();
        let _ = bottom_levels(&g, &[1.0]);
    }

    #[test]
    fn repairer_matches_full_recompute_on_diamond() {
        let (g, t) = weighted_diamond();
        let mut rep = BlRepairer::new(&g);
        let mut times = t.clone();
        let mut bl = bottom_levels(&g, &times);
        // Change the mid task on the heavy branch: 1's time 5 → 2.
        times[1] = 2.0;
        let changed = rep.repair(&g, &times, &mut bl, &[TaskId(1)]).to_vec();
        assert_eq!(bl, bottom_levels(&g, &times));
        // Task 1 and its ancestor 0 changed; 2 and 3 did not.
        assert!(changed.contains(&TaskId(1)));
        assert!(changed.contains(&TaskId(0)));
        assert_eq!(changed.len(), 2);
    }

    #[test]
    fn repairer_stops_when_change_is_masked() {
        // 0 -> {1, 2} -> 3 with bl(1) = 6 dominating bl(2) = 3: growing
        // task 2's time to 3.5 changes bl(2) but not bl(0) (6 still wins),
        // so propagation must stop at task 2.
        let (g, t) = weighted_diamond();
        let mut rep = BlRepairer::new(&g);
        let mut times = t.clone();
        let mut bl = bottom_levels(&g, &times);
        times[2] = 3.5;
        let changed = rep.repair(&g, &times, &mut bl, &[TaskId(2)]).to_vec();
        assert_eq!(bl, bottom_levels(&g, &times));
        assert_eq!(changed, vec![TaskId(2)]);
    }

    #[test]
    fn repairer_handles_noop_and_duplicate_dirty_sets() {
        let (g, t) = weighted_diamond();
        let mut rep = BlRepairer::new(&g);
        let mut bl = bottom_levels(&g, &t);
        // Times unchanged: nothing may be reported, bl must be untouched.
        let before = bl.clone();
        let changed = rep
            .repair(&g, &t, &mut bl, &[TaskId(1), TaskId(1), TaskId(3)])
            .to_vec();
        assert!(changed.is_empty());
        assert_eq!(bl, before);
    }

    #[test]
    fn repairer_is_bitwise_identical_on_random_graphs_and_dirty_sets() {
        // Pseudo-random layered DAGs and dirty sets via a local xorshift —
        // every repair must land bitwise on the from-scratch recompute.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let n = 20 + (next() % 30) as usize;
            let mut b = PtgBuilder::new();
            for i in 0..n {
                b.add_task(format!("t{i}"), 1.0, 0.0);
            }
            for v in 1..n {
                // Each task gets 1–3 predecessors among earlier tasks.
                for _ in 0..=(next() % 3) {
                    let p = (next() % v as u64) as u32;
                    let _ = b.add_edge(TaskId(p), TaskId(v as u32));
                }
            }
            let g = b.build().unwrap();
            let mut times: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 100) as f64 / 7.0).collect();
            let mut bl = bottom_levels(&g, &times);
            let mut rep = BlRepairer::new(&g);
            for _ in 0..8 {
                let k = 1 + (next() % 4) as usize;
                let dirty: Vec<TaskId> =
                    (0..k).map(|_| TaskId((next() % n as u64) as u32)).collect();
                for &d in &dirty {
                    times[d.index()] = 1.0 + (next() % 100) as f64 / 7.0;
                }
                let changed: Vec<TaskId> = rep.repair(&g, &times, &mut bl, &dirty).to_vec();
                let fresh = bottom_levels(&g, &times);
                for v in 0..n {
                    assert_eq!(bl[v].to_bits(), fresh[v].to_bits(), "task {v}");
                }
                // The changed list is exactly the set of tasks whose value
                // moved (we can't see the pre-repair values here, but every
                // reported task must at least be a dirty task or an ancestor
                // of one).
                for &c in &changed {
                    assert!(
                        dirty.iter().any(|&d| c == d || reaches(&g, c, d)),
                        "{c} is not an ancestor of any dirty task"
                    );
                }
            }
        }
    }

    /// True if `to` is reachable from `from` along successor edges.
    fn reaches(g: &Ptg, from: TaskId, to: TaskId) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; g.task_count()];
        while let Some(v) = stack.pop() {
            if v == to {
                return true;
            }
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            stack.extend(g.successors(v).iter().copied());
        }
        false
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
