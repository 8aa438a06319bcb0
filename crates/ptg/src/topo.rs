//! Topological ordering (Kahn's algorithm) and cycle detection.

use crate::error::PtgError;
use crate::graph::{EdgeLists, Ptg};
use crate::node::TaskId;

/// Computes a topological order over the builder's successor lists.
///
/// Used by the builder before a [`Ptg`] exists. Returns
/// [`PtgError::Cycle`] naming one task on a cycle if the graph is cyclic.
/// The produced order is deterministic: Kahn's algorithm with a FIFO queue
/// that starts from `sources` (ascending) and appends each task when its
/// last predecessor leaves. The order itself serves as the queue.
pub(crate) fn topological_order(
    succ: &EdgeLists,
    in_deg: &[u32],
    sources: &[TaskId],
) -> Result<Vec<TaskId>, PtgError> {
    let n = in_deg.len();
    let mut left = in_deg.to_vec();
    let mut order = Vec::with_capacity(n);
    order.extend_from_slice(sources);
    let mut head = 0;
    while let Some(&v) = order.get(head) {
        head += 1;
        for &w in succ.of(v) {
            left[w.index()] -= 1;
            if left[w.index()] == 0 {
                order.push(w);
            }
        }
    }
    if order.len() != n {
        // Some task kept a nonzero in-degree: it lies on (or behind) a cycle.
        let culprit = left
            .iter()
            .position(|&d| d > 0)
            .map(TaskId::from_index)
            .expect("cycle implies a task with nonzero in-degree");
        return Err(PtgError::Cycle(culprit));
    }
    Ok(order)
}

/// Verifies that `order` is a permutation of all tasks in which every edge
/// goes forward. Useful for property tests and debugging.
pub fn is_valid_topological_order(g: &Ptg, order: &[TaskId]) -> bool {
    if order.len() != g.task_count() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.task_count()];
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= g.task_count() || pos[v.index()] != usize::MAX {
            return false; // out of range or repeated
        }
        pos[v.index()] = i;
    }
    g.edges().all(|(a, b)| pos[a.index()] < pos[b.index()])
}

/// Position of every task in the graph's topological order, indexed by task
/// id: `topo_positions(g)[g.topo_order()[i].index()] == i`.
pub fn topo_positions(g: &Ptg) -> Vec<u32> {
    let mut pos = vec![0u32; g.task_count()];
    for (i, &v) in g.topo_order().iter().enumerate() {
        pos[v.index()] = i as u32;
    }
    pos
}

/// Returns the tasks in reverse topological order (sinks first).
pub fn reverse_topo_order(g: &Ptg) -> Vec<TaskId> {
    let mut order = g.topo_order().to_vec();
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PtgBuilder;

    fn chain(n: usize) -> Ptg {
        let mut b = PtgBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_task(format!("t{i}"), 1.0, 0.0))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_orders_sequentially() {
        let g = chain(6);
        let order = g.topo_order();
        assert!(is_valid_topological_order(&g, order));
        assert_eq!(order.first().copied(), Some(TaskId(0)));
        assert_eq!(order.last().copied(), Some(TaskId(5)));
    }

    #[test]
    fn reverse_order_starts_at_sink() {
        let g = chain(4);
        let rev = reverse_topo_order(&g);
        assert_eq!(rev.first().copied(), Some(TaskId(3)));
        assert_eq!(rev.last().copied(), Some(TaskId(0)));
    }

    #[test]
    fn topo_positions_invert_the_order() {
        let g = chain(5);
        let pos = topo_positions(&g);
        for (i, &v) in g.topo_order().iter().enumerate() {
            assert_eq!(pos[v.index()] as usize, i);
        }
    }

    #[test]
    fn validator_rejects_wrong_length() {
        let g = chain(3);
        assert!(!is_valid_topological_order(&g, &[TaskId(0)]));
    }

    #[test]
    fn validator_rejects_repeated_task() {
        let g = chain(3);
        assert!(!is_valid_topological_order(
            &g,
            &[TaskId(0), TaskId(0), TaskId(2)]
        ));
    }

    #[test]
    fn validator_rejects_backward_edge() {
        let g = chain(3);
        assert!(!is_valid_topological_order(
            &g,
            &[TaskId(1), TaskId(0), TaskId(2)]
        ));
    }

    #[test]
    fn validator_accepts_any_valid_interleaving() {
        // fork: 0 -> {1,2,3}
        let mut b = PtgBuilder::new();
        let r = b.add_task("r", 1.0, 0.0);
        let kids: Vec<_> = (0..3)
            .map(|i| b.add_task(format!("k{i}"), 1.0, 0.0))
            .collect();
        for &k in &kids {
            b.add_edge(r, k).unwrap();
        }
        let g = b.build().unwrap();
        assert!(is_valid_topological_order(
            &g,
            &[r, kids[2], kids[0], kids[1]]
        ));
    }
}
