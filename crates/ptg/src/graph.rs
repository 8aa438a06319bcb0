//! The immutable, validated PTG.

use crate::error::PtgError;
use crate::node::{Task, TaskId};
use crate::topo::is_valid_topological_order;
use serde::{DeError, Deserialize, Serialize};

/// One direction of a graph's adjacency: every task's list, back to back
/// in one arena. [`crate::transform::reduced_successors`] returns the
/// successor lists of a graph's transitive reduction in this form.
#[derive(Debug, Clone)]
pub struct EdgeLists {
    /// `task_count + 1` offsets: task `v`'s list is `ids[off[v]..off[v + 1]]`.
    pub(crate) off: Vec<usize>,
    pub(crate) ids: Vec<TaskId>,
}

impl EdgeLists {
    /// Groups `(key, id)` pairs by key with one stable counting sort: each
    /// key's list holds its ids in the order the pairs came. `counts[k]` is
    /// the number of pairs with key `k`.
    pub(crate) fn group(counts: &[u32], pairs: impl IntoIterator<Item = (TaskId, TaskId)>) -> Self {
        let mut off = Vec::with_capacity(counts.len() + 1);
        off.push(0);
        let mut total = 0;
        for &c in counts {
            total += c as usize;
            off.push(total);
        }
        let mut next = off[..counts.len()].to_vec();
        let mut ids = vec![TaskId(0); total];
        for (key, id) in pairs {
            let slot = &mut next[key.index()];
            ids[*slot] = id;
            *slot += 1;
        }
        EdgeLists { off, ids }
    }

    /// Concatenates ready-made lists, keeping their order.
    fn concat(lists: &[Vec<TaskId>]) -> Self {
        let mut off = Vec::with_capacity(lists.len() + 1);
        off.push(0);
        let mut ids = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for list in lists {
            ids.extend_from_slice(list);
            off.push(ids.len());
        }
        EdgeLists { off, ids }
    }

    /// The list of task `v`.
    #[inline]
    pub fn of(&self, v: TaskId) -> &[TaskId] {
        &self.ids[self.off[v.index()]..self.off[v.index() + 1]]
    }

    /// Every list, in task order.
    fn lists(&self) -> impl Iterator<Item = &[TaskId]> {
        self.off.windows(2).map(|w| &self.ids[w[0]..w[1]])
    }
}

/// An immutable parallel task graph.
///
/// Built through [`PtgBuilder`](crate::PtgBuilder), which guarantees:
///
/// * the graph is non-empty and acyclic,
/// * `topo_order` is a valid topological order of all tasks,
/// * adjacency lists are deduplicated and free of self-loops.
///
/// Per-task data (`tasks`, adjacency) is indexed by [`TaskId::index`].
/// The adjacency is stored once, flat: each direction keeps all its lists
/// in one arena, so a task's neighbours are one contiguous slice. Both keep
/// the order in which the builder received the edges, so every fold over
/// neighbours visits them in that order.
#[derive(Debug, Clone)]
pub struct Ptg {
    pub(crate) tasks: Vec<Task>,
    pub(crate) succ: EdgeLists,
    pub(crate) pred: EdgeLists,
    /// Per-task in-degree, so schedulers seed their dependency counters
    /// with one copy.
    pub(crate) in_deg: Vec<u32>,
    /// Tasks with no predecessors, ascending.
    pub(crate) sources: Vec<TaskId>,
    pub(crate) topo: Vec<TaskId>,
}

/// The tasks of `in_deg` whose in-degree is 0, ascending.
pub(crate) fn sources_of(in_deg: &[u32]) -> Vec<TaskId> {
    (0..in_deg.len())
        .filter(|&v| in_deg[v] == 0)
        .map(TaskId::from_index)
        .collect()
}

// The wire format nests each task's lists (`succ`, `pred`) and stores the
// edge count, as the fields of the first `Ptg` did, so committed artifacts
// keep round-tripping.
impl Serialize for Ptg {
    fn to_value(&self) -> serde::Value {
        let nested = |lists: &EdgeLists| {
            serde::Value::Array(lists.lists().map(|list| list.to_value()).collect())
        };
        serde::Value::Object(vec![
            ("tasks".to_string(), self.tasks.to_value()),
            ("succ".to_string(), nested(&self.succ)),
            ("pred".to_string(), nested(&self.pred)),
            ("topo".to_string(), self.topo.to_value()),
            ("edge_count".to_string(), self.edge_count().to_value()),
        ])
    }
}

/// Loading checks everything the builder guarantees, so a stored graph that
/// names a missing task, repeats or reverses an edge, or stores an order
/// that is not topological is an error here rather than a panic later.
/// The stored list orders and topological order are kept.
impl Deserialize for Ptg {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Ptg"))?;
        let tasks: Vec<Task> = serde::de_field(obj, "tasks", "Ptg")?;
        let succ: Vec<Vec<TaskId>> = serde::de_field(obj, "succ", "Ptg")?;
        let pred: Vec<Vec<TaskId>> = serde::de_field(obj, "pred", "Ptg")?;
        let topo: Vec<TaskId> = serde::de_field(obj, "topo", "Ptg")?;
        let edge_count: usize = serde::de_field(obj, "edge_count", "Ptg")?;
        Ptg::from_lists(tasks, &succ, &pred, topo, edge_count)
            .map_err(|msg| DeError::custom(format!("invalid Ptg: {msg}")))
    }
}

impl Ptg {
    /// Validates stored lists and assembles the graph from them.
    fn from_lists(
        tasks: Vec<Task>,
        succ: &[Vec<TaskId>],
        pred: &[Vec<TaskId>],
        topo: Vec<TaskId>,
        edge_count: usize,
    ) -> Result<Ptg, String> {
        let n = tasks.len();
        if n == 0 {
            return Err(PtgError::Empty.to_string());
        }
        for t in &tasks {
            t.validate()?;
        }
        if succ.len() != n || pred.len() != n {
            return Err(format!(
                "{n} tasks but {} successor and {} predecessor lists",
                succ.len(),
                pred.len()
            ));
        }
        // `last_from[w]` is the last task seen with an edge into `w`.
        let mut last_from = vec![usize::MAX; n];
        let mut in_deg = vec![0u32; n];
        for (v, list) in succ.iter().enumerate() {
            let from = TaskId::from_index(v);
            for &w in list {
                let err = if w.index() >= n {
                    PtgError::UnknownTask(w)
                } else if w == from {
                    PtgError::SelfLoop(w)
                } else if last_from[w.index()] == v {
                    PtgError::DuplicateEdge(from, w)
                } else {
                    last_from[w.index()] = v;
                    in_deg[w.index()] += 1;
                    continue;
                };
                return Err(err.to_string());
            }
        }
        let succ = EdgeLists::concat(succ);
        if edge_count != succ.ids.len() {
            return Err(format!(
                "edge_count is {edge_count} but the successor lists hold {} edges",
                succ.ids.len()
            ));
        }
        // Each stored predecessor list must hold exactly the tasks with an
        // edge into its task, in any order. Grouping the edges by target in
        // source order lists those tasks in ascending order.
        let reversed = EdgeLists::group(
            &in_deg,
            succ.lists()
                .enumerate()
                .flat_map(|(v, list)| list.iter().map(move |&w| (w, TaskId::from_index(v)))),
        );
        for (w, stored) in pred.iter().enumerate() {
            let to = TaskId::from_index(w);
            let mut sorted = stored.clone();
            sorted.sort_unstable();
            if sorted != reversed.of(to) {
                return Err(format!(
                    "the predecessors stored for {to} are not the tasks with an edge into it"
                ));
            }
        }
        let g = Ptg {
            tasks,
            succ,
            pred: EdgeLists::concat(pred),
            sources: sources_of(&in_deg),
            in_deg,
            topo,
        };
        if !is_valid_topological_order(&g, &g.topo) {
            return Err("topo is not a topological order of the tasks".to_string());
        }
        Ok(g)
    }

    /// Number of tasks `V`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges `E`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succ.ids.len()
    }

    /// The task payload for `id`.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// All task payloads, indexed by [`TaskId::index`].
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Iterator over all task ids in increasing order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::from_index)
    }

    /// Direct successors of `id` (tasks depending on it), in the order the
    /// builder received the edges.
    // lint:hot-path
    #[inline]
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.succ.of(id)
    }

    /// Direct predecessors of `id` (tasks it depends on), in the order the
    /// builder received the edges.
    // lint:hot-path
    #[inline]
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.pred.of(id)
    }

    /// In-degree of `id`.
    #[inline]
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.predecessors(id).len()
    }

    /// Out-degree of `id`.
    #[inline]
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.successors(id).len()
    }

    /// Per-task in-degrees, indexed by [`TaskId::index`].
    #[inline]
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_deg
    }

    /// A topological order computed at build time (sources first).
    #[inline]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks with no predecessors, ascending.
    #[inline]
    pub fn sources(&self) -> &[TaskId] {
        &self.sources
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }

    /// True if the graph contains the edge `a → b`.
    pub fn has_edge(&self, a: TaskId, b: TaskId) -> bool {
        self.successors(a).contains(&b)
    }

    /// Iterator over all edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        self.task_ids()
            .flat_map(move |v| self.successors(v).iter().map(move |&w| (v, w)))
    }

    /// Total work of the graph in FLOP.
    pub fn total_flop(&self) -> f64 {
        self.tasks.iter().map(|t| t.flop).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::build::PtgBuilder;
    use crate::node::TaskId;
    use crate::Ptg;

    fn diamond() -> crate::Ptg {
        // 0 -> {1, 2} -> 3
        let mut b = PtgBuilder::new();
        for i in 0..4 {
            b.add_task(format!("t{i}"), 1e9, 0.1);
        }
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.add_edge(TaskId(1), TaskId(3)).unwrap();
        b.add_edge(TaskId(2), TaskId(3)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_match_construction() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn adjacency_is_consistent_both_ways() {
        let g = diamond();
        for (a, b) in g.edges() {
            assert!(g.successors(a).contains(&b));
            assert!(g.predecessors(b).contains(&a));
        }
    }

    #[test]
    fn sources_and_sinks_of_diamond() {
        let g = diamond();
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
    }

    #[test]
    fn degrees_of_diamond() {
        let g = diamond();
        assert_eq!(g.out_degree(TaskId(0)), 2);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.in_degree(TaskId(0)), 0);
        assert_eq!(g.out_degree(TaskId(3)), 0);
    }

    #[test]
    fn has_edge_checks_direction() {
        let g = diamond();
        assert!(g.has_edge(TaskId(0), TaskId(1)));
        assert!(!g.has_edge(TaskId(1), TaskId(0)));
        assert!(!g.has_edge(TaskId(1), TaskId(2)));
    }

    #[test]
    fn total_flop_sums_all_tasks() {
        let g = diamond();
        assert!((g.total_flop() - 4e9).abs() < 1e-6);
    }

    /// Loads a graph from its JSON fields; the tasks are `t0`, `t1`, ….
    fn load(
        flops: &[f64],
        succ: &str,
        pred: &str,
        topo: &str,
        edges: usize,
    ) -> Result<Ptg, String> {
        let tasks: Vec<String> = flops
            .iter()
            .enumerate()
            .map(|(i, f)| format!(r#"{{"name":"t{i}","flop":{f:?},"alpha":0.1}}"#))
            .collect();
        let json = format!(
            r#"{{"tasks":[{}],"succ":{succ},"pred":{pred},"topo":{topo},"edge_count":{edges}}}"#,
            tasks.join(",")
        );
        serde_json::from_str(&json).map_err(|e| e.to_string())
    }

    #[test]
    fn json_keeps_the_stored_predecessor_order() {
        let g = load(&[1.0; 3], "[[1,2],[2],[]]", "[[],[0],[1,0]]", "[0,1,2]", 3).unwrap();
        assert_eq!(g.predecessors(TaskId(2)), &[TaskId(1), TaskId(0)]);
        assert_eq!(g.in_degrees(), &[0, 1, 2]);
        assert_eq!(g.sources(), &[TaskId(0)]);
    }

    #[test]
    fn json_edge_to_a_missing_task_is_rejected() {
        let err = load(&[1.0; 2], "[[7],[]]", "[[],[]]", "[0,1]", 1).unwrap_err();
        assert!(err.contains("unknown task id v7"), "{err}");
    }

    #[test]
    fn json_self_loop_is_rejected() {
        let err = load(&[1.0; 2], "[[0],[]]", "[[0],[]]", "[0,1]", 1).unwrap_err();
        assert!(err.contains("self loop on task v0"), "{err}");
    }

    #[test]
    fn json_duplicate_edge_is_rejected() {
        let err = load(&[1.0; 2], "[[1,1],[]]", "[[],[0,0]]", "[0,1]", 2).unwrap_err();
        assert!(err.contains("duplicate edge v0 -> v1"), "{err}");
    }

    #[test]
    fn json_predecessors_must_mirror_successors() {
        // Against the edges 0 → 1, 0 → 2 and 1 → 2.
        for pred in [
            "[[],[0],[1]]",     // an edge missing
            "[[],[0],[1,0,0]]", // an edge repeated, list too long
            "[[],[0],[1,1]]",   // an edge repeated, list of the right length
            "[[1],[0],[1,0]]",  // an edge that does not exist
            "[[],[2],[1,0]]",   // the wrong task
            "[[],[0],[1,9]]",   // a task that does not exist
            "[[],[0]]",         // a list missing
        ] {
            let err = load(&[1.0; 3], "[[1,2],[2],[]]", pred, "[0,1,2]", 3).unwrap_err();
            assert!(err.contains("predecessor"), "{pred}: {err}");
        }
    }

    #[test]
    fn json_wrong_edge_count_is_rejected() {
        let err = load(&[1.0; 2], "[[1],[]]", "[[],[0]]", "[0,1]", 2).unwrap_err();
        assert!(err.contains("edge_count is 2"), "{err}");
    }

    #[test]
    fn json_invalid_task_payload_is_rejected() {
        let err = load(&[-1.0, 1.0], "[[1],[]]", "[[],[0]]", "[0,1]", 1).unwrap_err();
        assert!(err.contains("flop must be positive"), "{err}");
    }

    #[test]
    fn json_topo_must_be_a_topological_order() {
        for topo in ["[1,0]", "[0]", "[0,0]", "[0,5]"] {
            let err = load(&[1.0; 2], "[[1],[]]", "[[],[0]]", topo, 1).unwrap_err();
            assert!(err.contains("not a topological order"), "{topo}: {err}");
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0usize; g.task_count()];
            for (i, &v) in g.topo_order().iter().enumerate() {
                pos[v.index()] = i;
            }
            pos
        };
        for (a, b) in g.edges() {
            assert!(pos[a.index()] < pos[b.index()], "{a} must precede {b}");
        }
    }
}
