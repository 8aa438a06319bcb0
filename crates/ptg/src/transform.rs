//! Graph transformations.
//!
//! * [`transitive_reduction`] — drop edges implied by longer paths. Random
//!   generators (and real workflow exports) often carry redundant edges;
//!   reducing them shrinks the mapper's working set without changing any
//!   schedule's feasibility.
//! * [`merge_series`] — collapse chains of unit-fan nodes into single
//!   tasks, a standard preprocessing step that preserves makespans when the
//!   merged tasks share an allocation.
//! * [`compose_serial`] / [`compose_parallel`] — combine PTGs the way
//!   workflow engines do (run A then B; run A beside B).

use crate::build::PtgBuilder;
use crate::graph::Ptg;
use crate::node::TaskId;

/// Returns a copy of `g` without transitively redundant edges: an edge
/// `a → b` is dropped iff a path `a ⇝ b` of length ≥ 2 exists.
///
/// O(V · E) via one DFS per task — fine for the ≤ 100-task graphs of this
/// workspace.
pub fn transitive_reduction(g: &Ptg) -> Ptg {
    let mut b = PtgBuilder::with_capacity(g.task_count());
    for v in g.task_ids() {
        b.push_task(g.task(v).clone());
    }
    for a in g.task_ids() {
        for &c in g.successors(a) {
            if !reachable_without_edge(g, a, c) {
                b.add_edge(a, c).expect("subset of an acyclic edge set");
            }
        }
    }
    b.build().expect("subgraph of a DAG is a DAG")
}

/// Is `to` reachable from `from` without using the direct edge `from → to`?
fn reachable_without_edge(g: &Ptg, from: TaskId, to: TaskId) -> bool {
    let mut seen = vec![false; g.task_count()];
    let mut stack: Vec<TaskId> = g
        .successors(from)
        .iter()
        .copied()
        .filter(|&s| s != to)
        .collect();
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        if !seen[v.index()] {
            seen[v.index()] = true;
            stack.extend(g.successors(v).iter().copied());
        }
    }
    false
}

/// Serial composition: every sink of `first` precedes every source of
/// `second`. Task ids of `second` are shifted by `first.task_count()`.
pub fn compose_serial(first: &Ptg, second: &Ptg) -> Ptg {
    let offset = first.task_count();
    let mut b = PtgBuilder::with_capacity(offset + second.task_count());
    for v in first.task_ids() {
        b.push_task(first.task(v).clone());
    }
    for v in second.task_ids() {
        b.push_task(second.task(v).clone());
    }
    for (a, c) in first.edges() {
        b.add_edge(a, c).expect("copied edge");
    }
    let shift = |v: TaskId| TaskId::from_index(v.index() + offset);
    for (a, c) in second.edges() {
        b.add_edge(shift(a), shift(c)).expect("copied edge");
    }
    for sink in first.sinks() {
        for &src in second.sources() {
            b.add_edge(sink, shift(src)).expect("bridge edge");
        }
    }
    b.build().expect("serial composition of DAGs is a DAG")
}

/// Collapses maximal series chains into single tasks.
///
/// A *series pair* is an edge `a → b` where `a` has exactly one successor
/// and `b` exactly one predecessor: the two tasks always run back to back,
/// so replacing them with one task of cost `flop_a + flop_b` and
/// work-weighted serial fraction
/// `α = (α_a·flop_a + α_b·flop_b) / (flop_a + flop_b)` preserves the
/// combined Amdahl execution time at every shared processor count exactly
/// (the formula is linear in `(flop, α·flop)`).
///
/// Returns the contracted graph plus, for each new task, the original task
/// ids it absorbed (in execution order).
pub fn merge_series(g: &Ptg) -> (Ptg, Vec<Vec<TaskId>>) {
    // Walk in topological order; start a new group at every task whose
    // predecessor situation breaks a chain.
    let mut group_of = vec![usize::MAX; g.task_count()];
    let mut groups: Vec<Vec<TaskId>> = Vec::new();
    for &v in g.topo_order() {
        let mergeable_into_pred = g.in_degree(v) == 1 && {
            let p = g.predecessors(v)[0];
            g.out_degree(p) == 1
        };
        if mergeable_into_pred {
            let p = g.predecessors(v)[0];
            let gi = group_of[p.index()];
            group_of[v.index()] = gi;
            groups[gi].push(v);
        } else {
            group_of[v.index()] = groups.len();
            groups.push(vec![v]);
        }
    }

    let mut b = PtgBuilder::with_capacity(groups.len());
    for members in &groups {
        let flop: f64 = members.iter().map(|&v| g.task(v).flop).sum();
        let alpha_work: f64 = members
            .iter()
            .map(|&v| g.task(v).alpha * g.task(v).flop)
            .sum();
        let name = members
            .iter()
            .map(|&v| g.task(v).name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        b.add_task(name, flop, alpha_work / flop);
    }
    for (a, c) in g.edges() {
        let (ga, gc) = (group_of[a.index()], group_of[c.index()]);
        if ga != gc {
            let _ = b
                .add_edge_dedup(TaskId::from_index(ga), TaskId::from_index(gc))
                .expect("group edges follow topological order");
        }
    }
    (b.build().expect("contraction of a DAG is a DAG"), groups)
}

/// Parallel composition: the two graphs side by side, no new edges.
pub fn compose_parallel(left: &Ptg, right: &Ptg) -> Ptg {
    let offset = left.task_count();
    let mut b = PtgBuilder::with_capacity(offset + right.task_count());
    for v in left.task_ids() {
        b.push_task(left.task(v).clone());
    }
    for v in right.task_ids() {
        b.push_task(right.task(v).clone());
    }
    for (a, c) in left.edges() {
        b.add_edge(a, c).expect("copied edge");
    }
    for (a, c) in right.edges() {
        b.add_edge(
            TaskId::from_index(a.index() + offset),
            TaskId::from_index(c.index() + offset),
        )
        .expect("copied edge");
    }
    b.build().expect("disjoint union of DAGs is a DAG")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 → 1 → 2 plus the redundant shortcut 0 → 2.
    fn with_shortcut() -> Ptg {
        let mut b = PtgBuilder::new();
        for i in 0..3 {
            b.add_task(format!("t{i}"), 1.0, 0.0);
        }
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(1), TaskId(2)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn reduction_drops_only_redundant_edges() {
        let g = with_shortcut();
        let r = transitive_reduction(&g);
        assert_eq!(r.edge_count(), 2);
        assert!(r.has_edge(TaskId(0), TaskId(1)));
        assert!(r.has_edge(TaskId(1), TaskId(2)));
        assert!(!r.has_edge(TaskId(0), TaskId(2)));
    }

    #[test]
    fn reduction_is_idempotent() {
        let g = with_shortcut();
        let once = transitive_reduction(&g);
        let twice = transitive_reduction(&once);
        assert_eq!(once.edge_count(), twice.edge_count());
        assert!(once.edges().eq(twice.edges()));
    }

    #[test]
    fn reduction_preserves_reachability() {
        let g = with_shortcut();
        let r = transitive_reduction(&g);
        for a in g.task_ids() {
            for b in g.task_ids() {
                assert_eq!(
                    crate::analysis::reaches(&g, a, b),
                    crate::analysis::reaches(&r, a, b),
                    "{a} ⇝ {b}"
                );
            }
        }
    }

    #[test]
    fn diamond_is_already_reduced() {
        let mut b = PtgBuilder::new();
        for i in 0..4 {
            b.add_task(format!("t{i}"), 1.0, 0.0);
        }
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.add_edge(TaskId(1), TaskId(3)).unwrap();
        b.add_edge(TaskId(2), TaskId(3)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(transitive_reduction(&g).edge_count(), 4);
    }

    #[test]
    fn serial_composition_bridges_sinks_to_sources() {
        let g = with_shortcut();
        let h = with_shortcut();
        let s = compose_serial(&g, &h);
        assert_eq!(s.task_count(), 6);
        // one sink (t2) × one source (t0 shifted) bridge edge
        assert_eq!(s.edge_count(), 3 + 3 + 1);
        assert!(s.has_edge(TaskId(2), TaskId(3)));
        assert_eq!(s.sources(), vec![TaskId(0)]);
        assert_eq!(s.sinks(), vec![TaskId(5)]);
    }

    #[test]
    fn parallel_composition_is_a_disjoint_union() {
        let g = with_shortcut();
        let h = with_shortcut();
        let p = compose_parallel(&g, &h);
        assert_eq!(p.task_count(), 6);
        assert_eq!(p.edge_count(), 6);
        assert_eq!(p.sources().len(), 2);
        assert_eq!(p.sinks().len(), 2);
        assert!(!crate::analysis::reaches(&p, TaskId(0), TaskId(3)));
    }

    #[test]
    fn merge_series_collapses_a_pure_chain_to_one_task() {
        let mut b = PtgBuilder::new();
        let ids: Vec<TaskId> = (0..4)
            .map(|i| b.add_task(format!("t{i}"), 2.0 * (i + 1) as f64, 0.1 * i as f64))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let g = b.build().unwrap();
        let (merged, groups) = merge_series(&g);
        assert_eq!(merged.task_count(), 1);
        assert_eq!(merged.edge_count(), 0);
        assert_eq!(groups[0], ids);
        // flop sums: 2+4+6+8 = 20; alpha is work-weighted:
        // (0·2 + 0.1·4 + 0.2·6 + 0.3·8)/20 = 0.2
        let t = merged.task(TaskId(0));
        assert!((t.flop - 20.0).abs() < 1e-12);
        assert!((t.alpha - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_series_preserves_amdahl_times_at_shared_widths() {
        // t(chain, p) must equal t(merged, p) for every p under Amdahl:
        // sum over members of (α_i + (1−α_i)/p)·flop_i/s
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 6e9, 0.3);
        let c = b.add_task("c", 2e9, 0.05);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let (merged, _) = merge_series(&g);
        let speed = 1e9;
        for p in [1u32, 2, 5, 16] {
            let direct: f64 = g
                .task_ids()
                .map(|v| {
                    let t = g.task(v);
                    (t.alpha + (1.0 - t.alpha) / p as f64) * t.flop / speed
                })
                .sum();
            let m = merged.task(TaskId(0));
            let combined = (m.alpha + (1.0 - m.alpha) / p as f64) * m.flop / speed;
            assert!((direct - combined).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn merge_series_keeps_branching_structure() {
        // diamond with a 2-chain on one branch: only the chain merges.
        let mut b = PtgBuilder::new();
        let s = b.add_task("s", 1.0, 0.0);
        let x1 = b.add_task("x1", 1.0, 0.0);
        let x2 = b.add_task("x2", 1.0, 0.0);
        let y = b.add_task("y", 1.0, 0.0);
        let t = b.add_task("t", 1.0, 0.0);
        b.add_edge(s, x1).unwrap();
        b.add_edge(x1, x2).unwrap();
        b.add_edge(x2, t).unwrap();
        b.add_edge(s, y).unwrap();
        b.add_edge(y, t).unwrap();
        let g = b.build().unwrap();
        let (merged, groups) = merge_series(&g);
        // s, y, t stay; x1+x2 merge → 4 tasks.
        assert_eq!(merged.task_count(), 4);
        assert!(groups.iter().any(|grp| grp == &vec![x1, x2]));
        assert_eq!(merged.sources().len(), 1);
        assert_eq!(merged.sinks().len(), 1);
    }

    #[test]
    fn merge_series_on_a_diamond_is_identity_shaped() {
        let mut b = PtgBuilder::new();
        for i in 0..4 {
            b.add_task(format!("t{i}"), 1.0, 0.0);
        }
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.add_edge(TaskId(1), TaskId(3)).unwrap();
        b.add_edge(TaskId(2), TaskId(3)).unwrap();
        let g = b.build().unwrap();
        let (merged, _) = merge_series(&g);
        assert_eq!(merged.task_count(), 4);
        assert_eq!(merged.edge_count(), 4);
    }

    #[test]
    fn composition_preserves_task_payloads() {
        let g = with_shortcut();
        let s = compose_serial(&g, &g);
        assert_eq!(s.task(TaskId(4)).name, g.task(TaskId(1)).name);
        assert_eq!(s.task(TaskId(4)).flop, g.task(TaskId(1)).flop);
    }
}
