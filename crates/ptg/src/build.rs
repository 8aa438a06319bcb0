//! Incremental construction of validated PTGs.

use crate::error::PtgError;
use crate::graph::{sources_of, EdgeLists, Ptg};
use crate::node::{Task, TaskId};
use crate::topo;

/// Marks the end of a task's in-list in the edge arena.
const NO_EDGE: usize = usize::MAX;

/// One edge of the arena, threaded onto its target's in-list.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: TaskId,
    to: TaskId,
    /// The edge into `to` added before this one, or [`NO_EDGE`].
    prev_in: usize,
}

/// Builder for [`Ptg`].
///
/// Tasks receive dense ids in insertion order. `build` validates every task
/// payload, rejects duplicate edges and self-loops eagerly, and finally
/// verifies acyclicity while computing a topological order.
///
/// Edges go into one arena in insertion order; `build` lays them out as
/// the graph's successor and predecessor lists, each in that order.
///
/// ```
/// use ptg::{PtgBuilder, TaskId};
///
/// let mut b = PtgBuilder::new();
/// let a = b.add_task("produce", 2e9, 0.05);
/// let c = b.add_task("consume", 1e9, 0.10);
/// b.add_edge(a, c).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.task_count(), 2);
/// assert_eq!(g.sources(), vec![a]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PtgBuilder {
    tasks: Vec<Task>,
    /// Every edge, in insertion order.
    edges: Vec<Edge>,
    /// Per task, its latest incoming edge in `edges`, or [`NO_EDGE`].
    last_in: Vec<usize>,
    in_deg: Vec<u32>,
    out_deg: Vec<u32>,
}

impl PtgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        PtgBuilder {
            tasks: Vec::with_capacity(n),
            edges: Vec::new(),
            last_in: Vec::with_capacity(n),
            in_deg: Vec::with_capacity(n),
            out_deg: Vec::with_capacity(n),
        }
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, flop: f64, alpha: f64) -> TaskId {
        self.push_task(Task {
            name: name.into(),
            flop,
            alpha,
        })
    }

    /// Adds a pre-built [`Task`] and returns its id.
    pub fn push_task(&mut self, task: Task) -> TaskId {
        let id = TaskId::from_index(self.tasks.len());
        self.tasks.push(task);
        self.last_in.push(NO_EDGE);
        self.in_deg.push(0);
        self.out_deg.push(0);
        id
    }

    /// Adds the dependency edge `from → to`.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), PtgError> {
        let n = self.tasks.len();
        if from.index() >= n {
            return Err(PtgError::UnknownTask(from));
        }
        if to.index() >= n {
            return Err(PtgError::UnknownTask(to));
        }
        if from == to {
            return Err(PtgError::SelfLoop(from));
        }
        let mut e = self.last_in[to.index()];
        while e != NO_EDGE {
            let edge = self.edges[e];
            if edge.from == from {
                return Err(PtgError::DuplicateEdge(from, to));
            }
            e = edge.prev_in;
        }
        self.edges.push(Edge {
            from,
            to,
            prev_in: self.last_in[to.index()],
        });
        self.last_in[to.index()] = self.edges.len() - 1;
        self.in_deg[to.index()] += 1;
        self.out_deg[from.index()] += 1;
        Ok(())
    }

    /// Adds `from → to` unless it already exists; returns whether it was new.
    pub fn add_edge_dedup(&mut self, from: TaskId, to: TaskId) -> Result<bool, PtgError> {
        match self.add_edge(from, to) {
            Ok(()) => Ok(true),
            Err(PtgError::DuplicateEdge(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Finalizes the graph, validating tasks and acyclicity.
    pub fn build(self) -> Result<Ptg, PtgError> {
        if self.tasks.is_empty() {
            return Err(PtgError::Empty);
        }
        for t in &self.tasks {
            t.validate().map_err(PtgError::InvalidTask)?;
        }
        let edges = &self.edges;
        let succ = EdgeLists::group(&self.out_deg, edges.iter().map(|e| (e.from, e.to)));
        let pred = EdgeLists::group(&self.in_deg, edges.iter().map(|e| (e.to, e.from)));
        let sources = sources_of(&self.in_deg);
        let topo = topo::topological_order(&succ, &self.in_deg, &sources)?;
        debug_assert_eq!(topo.len(), self.tasks.len());
        Ok(Ptg {
            tasks: self.tasks,
            succ,
            pred,
            in_deg: self.in_deg,
            sources,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(PtgBuilder::new().build().unwrap_err(), PtgError::Empty);
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1.0, 0.0);
        assert_eq!(
            b.add_edge(a, TaskId(9)).unwrap_err(),
            PtgError::UnknownTask(TaskId(9))
        );
        assert_eq!(
            b.add_edge(TaskId(9), a).unwrap_err(),
            PtgError::UnknownTask(TaskId(9))
        );
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1.0, 0.0);
        assert_eq!(b.add_edge(a, a).unwrap_err(), PtgError::SelfLoop(a));
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1.0, 0.0);
        let c = b.add_task("c", 1.0, 0.0);
        b.add_edge(a, c).unwrap();
        assert_eq!(b.add_edge(a, c).unwrap_err(), PtgError::DuplicateEdge(a, c));
    }

    #[test]
    fn add_edge_dedup_reports_novelty() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1.0, 0.0);
        let c = b.add_task("c", 1.0, 0.0);
        assert!(b.add_edge_dedup(a, c).unwrap());
        assert!(!b.add_edge_dedup(a, c).unwrap());
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn cycle_is_detected_at_build_time() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1.0, 0.0);
        let c = b.add_task("c", 1.0, 0.0);
        let d = b.add_task("d", 1.0, 0.0);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, d).unwrap();
        b.add_edge(d, a).unwrap();
        assert!(matches!(b.build().unwrap_err(), PtgError::Cycle(_)));
    }

    #[test]
    fn invalid_task_payload_is_caught_at_build() {
        let mut b = PtgBuilder::new();
        b.push_task(Task {
            name: "bad".into(),
            flop: -5.0,
            alpha: 0.0,
        });
        assert!(matches!(b.build().unwrap_err(), PtgError::InvalidTask(_)));
    }

    #[test]
    fn single_task_graph_builds() {
        let mut b = PtgBuilder::new();
        b.add_task("only", 1.0, 0.0);
        let g = b.build().unwrap();
        assert_eq!(g.task_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.sources(), g.sinks());
    }

    #[test]
    fn ids_are_dense_and_sequential() {
        let mut b = PtgBuilder::new();
        for i in 0..5 {
            let id = b.add_task(format!("t{i}"), 1.0, 0.0);
            assert_eq!(id.index(), i);
        }
    }
}
