//! Property-based tests for the PTG substrate.
//!
//! Two strategies. Random "forward" edge sets over `n` tasks (only edges
//! `i → j` with `i < j`) are acyclic by construction; the tests check that
//! every derived structure (topological order, precedence levels, bottom
//! levels, reachability) satisfies its defining invariants. Random builder
//! call sequences — repeated edges, reversed pairs that close cycles,
//! self-loops and ids past the last task — are replayed against a naive
//! nested-`Vec` model of the builder, which must agree with it call by
//! call and on the finished graph, before and after a serde round trip.
//! The transitive reduction is checked against a naive DFS on graphs whose
//! sizes straddle its 64-task windows.

use proptest::prelude::*;
use ptg::analysis::descendants;
use ptg::critpath::{bottom_levels, critical_path, critical_path_length, top_levels};
use ptg::levels::PrecedenceLevels;
use ptg::topo::is_valid_topological_order;
use ptg::transform::{reduced_successors, transitive_reduction};
use ptg::{Ptg, PtgBuilder, PtgError, TaskId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// The builder as first written: one `Vec` per task and direction, a
/// duplicate check by `contains`, and Kahn's algorithm over a FIFO queue.
struct NestedModel {
    succ: Vec<Vec<TaskId>>,
    pred: Vec<Vec<TaskId>>,
}

impl NestedModel {
    fn new(n: usize) -> Self {
        NestedModel {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
        }
    }

    fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), PtgError> {
        let n = self.succ.len();
        if from.index() >= n {
            return Err(PtgError::UnknownTask(from));
        }
        if to.index() >= n {
            return Err(PtgError::UnknownTask(to));
        }
        if from == to {
            return Err(PtgError::SelfLoop(from));
        }
        if self.succ[from.index()].contains(&to) {
            return Err(PtgError::DuplicateEdge(from, to));
        }
        self.succ[from.index()].push(to);
        self.pred[to.index()].push(from);
        Ok(())
    }

    fn sources(&self) -> Vec<TaskId> {
        (0..self.pred.len())
            .filter(|&v| self.pred[v].is_empty())
            .map(TaskId::from_index)
            .collect()
    }

    /// Sources in id order, then each task once its last predecessor left;
    /// on a cycle, the smallest task whose in-degree never reached 0.
    fn topo(&self) -> Result<Vec<TaskId>, PtgError> {
        let mut left: Vec<usize> = self.pred.iter().map(Vec::len).collect();
        let mut queue: VecDeque<TaskId> = self.sources().into();
        let mut order = Vec::new();
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &self.succ[v.index()] {
                left[w.index()] -= 1;
                if left[w.index()] == 0 {
                    queue.push_back(w);
                }
            }
        }
        match left.iter().position(|&d| d > 0) {
            Some(culprit) => Err(PtgError::Cycle(TaskId::from_index(culprit))),
            None => Ok(order),
        }
    }

    /// Asserts that `g` is exactly the model's graph.
    fn check(&self, g: &Ptg, topo: &[TaskId]) {
        let edges: usize = self.succ.iter().map(Vec::len).sum();
        assert_eq!(g.task_count(), self.succ.len());
        assert_eq!(g.edge_count(), edges);
        for v in g.task_ids() {
            assert_eq!(g.successors(v), self.succ[v.index()].as_slice(), "{v}");
            assert_eq!(g.predecessors(v), self.pred[v.index()].as_slice(), "{v}");
            assert_eq!(
                g.in_degrees()[v.index()] as usize,
                self.pred[v.index()].len()
            );
        }
        assert_eq!(g.sources(), self.sources().as_slice());
        assert_eq!(g.topo_order(), topo);
    }
}

/// Strategy producing (task count, forward only, builder calls). A call
/// `(from, to, dedup)` may name ids up to two past the last task; `dedup`
/// picks `add_edge_dedup` over `add_edge`. Forward-only cases order every
/// pair, so they build; the others mostly close a cycle.
fn calls_strategy() -> impl Strategy<Value = (usize, bool, Vec<(u32, u32, bool)>)> {
    (1usize..12, 0u8..2).prop_flat_map(|(n, forward)| {
        let id = 0u32..(n as u32 + 2);
        let call = (id.clone(), id, 0u8..2).prop_map(|(a, b, dedup)| (a, b, dedup == 1));
        (
            Just(n),
            Just(forward == 1),
            proptest::collection::vec(call, 0..(n * 4)),
        )
    })
}

/// Builds a PTG from a task count and a set of forward edge pairs.
fn build_graph(n: usize, edges: &[(usize, usize)], times_seed: u64) -> (Ptg, Vec<f64>) {
    let mut b = PtgBuilder::with_capacity(n);
    for i in 0..n {
        // Cheap deterministic pseudo-random costs derived from the seed.
        let flop = 1e9 * (1.0 + ((times_seed.wrapping_mul(i as u64 + 1) % 97) as f64));
        b.add_task(format!("t{i}"), flop, 0.1);
    }
    for &(i, j) in edges {
        let _ = b.add_edge_dedup(TaskId::from_index(i), TaskId::from_index(j));
    }
    let g = b.build().expect("forward edges are acyclic");
    let times: Vec<f64> = g.tasks().iter().map(|t| t.flop / 1e9).collect();
    (g, times)
}

/// Strategy producing (n, forward edges).
fn dag_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0usize..n, 0usize..n).prop_filter_map("forward edge", |(a, b)| {
            if a < b {
                Some((a, b))
            } else if b < a {
                Some((b, a))
            } else {
                None
            }
        });
        (Just(n), proptest::collection::vec(edge, 0..(n * 3)))
    })
}

/// A DAG on `n` tasks with about `degree · n` random edges and then
/// `closure` more, each `a → b` to a task `a` already reaches. Task ids are
/// a random permutation of a topological order, so edges run both up and
/// down in id and cross every 64-task window.
fn shuffled_dag(n: usize, degree: usize, closure: usize, seed: u64) -> Ptg {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut id: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        id.swap(i, rng.gen_range(0..=i));
    }
    let mut edges = Vec::new();
    for _ in 0..degree * n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            edges.push((id[a.min(b)], id[a.max(b)]));
        }
    }
    let (g, _) = build_graph(n, &edges, seed);
    for _ in 0..closure {
        let a = TaskId::from_index(rng.gen_range(0..n));
        let mut far = descendants(&g, a);
        far.retain(|&b| !g.has_edge(a, b));
        if !far.is_empty() {
            edges.push((a.index(), far[rng.gen_range(0..far.len())].index()));
        }
    }
    build_graph(n, &edges, seed).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reduction_keeps_the_successors_no_other_successor_reaches(
        n in (0usize..6).prop_map(|k| [1, 63, 64, 65, 128, 200][k]),
        degree in 0usize..6,
        closure_per_4_tasks in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let g = shuffled_dag(n, degree, closure_per_4_tasks * n / 4, seed);
        let kept = reduced_successors(&g);
        let below: Vec<Vec<TaskId>> = g.task_ids().map(|v| descendants(&g, v)).collect();
        for u in g.task_ids() {
            let succ = g.successors(u);
            let implied = |w: TaskId| {
                succ.iter().any(|&x| x != w && below[x.index()].binary_search(&w).is_ok())
            };
            let naive: Vec<TaskId> = succ.iter().copied().filter(|&w| !implied(w)).collect();
            prop_assert_eq!(kept.of(u), &naive[..], "successors of {}", u);
        }
        let reduced = transitive_reduction(&g);
        let again = reduced_successors(&reduced);
        for v in g.task_ids() {
            prop_assert_eq!(reduced.successors(v), kept.of(v));
            prop_assert_eq!(&descendants(&reduced, v), &below[v.index()], "{} reaches", v);
            prop_assert_eq!(again.of(v), reduced.successors(v), "a second reduction dropped an edge");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_agrees_with_the_nested_model((n, forward, calls) in calls_strategy()) {
        let mut b = PtgBuilder::new();
        for i in 0..n {
            b.add_task(format!("t{i}"), 1e9, 0.1);
        }
        let mut model = NestedModel::new(n);
        for (a, c, dedup) in calls {
            let (a, c) = if forward { (a.min(c), a.max(c)) } else { (a, c) };
            let (from, to) = (TaskId(a), TaskId(c));
            let want = model.add_edge(from, to);
            if dedup {
                let want = match want {
                    Ok(()) => Ok(true),
                    Err(PtgError::DuplicateEdge(..)) => Ok(false),
                    Err(e) => Err(e),
                };
                prop_assert_eq!(b.add_edge_dedup(from, to), want);
            } else {
                prop_assert_eq!(b.add_edge(from, to), want);
            }
        }
        match model.topo() {
            Ok(topo) => {
                let g = b.build().expect("the model found no cycle");
                model.check(&g, &topo);
                let back: Ptg = serde_json::from_str(&serde_json::to_string(&g).unwrap())
                    .expect("a built graph loads");
                model.check(&back, &topo);
            }
            Err(cycle) => prop_assert_eq!(b.build().unwrap_err(), cycle),
        }
    }

    #[test]
    fn topo_order_is_always_valid((n, edges) in dag_strategy(), seed in 1u64..1000) {
        let (g, _) = build_graph(n, &edges, seed);
        prop_assert!(is_valid_topological_order(&g, g.topo_order()));
    }

    #[test]
    fn edge_and_task_counts_are_consistent((n, edges) in dag_strategy(), seed in 1u64..1000) {
        let (g, _) = build_graph(n, &edges, seed);
        prop_assert_eq!(g.task_count(), n);
        prop_assert_eq!(g.edges().count(), g.edge_count());
        let back_edges: usize = g.task_ids().map(|v| g.predecessors(v).len()).sum();
        prop_assert_eq!(back_edges, g.edge_count());
    }

    #[test]
    fn levels_strictly_increase_along_edges((n, edges) in dag_strategy(), seed in 1u64..1000) {
        let (g, _) = build_graph(n, &edges, seed);
        let lv = PrecedenceLevels::compute(&g);
        for (a, b) in g.edges() {
            prop_assert!(lv.level_of(a) < lv.level_of(b));
        }
        // every non-source has a predecessor exactly one level up
        for v in g.task_ids() {
            if lv.level_of(v) > 0 {
                prop_assert!(!g.predecessors(v).is_empty());
                let best = g.predecessors(v).iter().map(|&p| lv.level_of(p)).max().unwrap();
                prop_assert_eq!(best + 1, lv.level_of(v));
            }
        }
    }

    #[test]
    fn bottom_levels_dominate_successors((n, edges) in dag_strategy(), seed in 1u64..1000) {
        let (g, times) = build_graph(n, &edges, seed);
        let bl = bottom_levels(&g, &times);
        for (a, b) in g.edges() {
            // bl(a) >= t(a) + bl(b)
            prop_assert!(bl[a.index()] >= times[a.index()] + bl[b.index()] - 1e-9);
        }
        for v in g.task_ids() {
            prop_assert!(bl[v.index()] >= times[v.index()]);
        }
    }

    #[test]
    fn critical_path_realizes_cp_length((n, edges) in dag_strategy(), seed in 1u64..1000) {
        let (g, times) = build_graph(n, &edges, seed);
        let cp = critical_path(&g, &times);
        let len: f64 = cp.iter().map(|v| times[v.index()]).sum();
        let cp_len = critical_path_length(&g, &times);
        prop_assert!((len - cp_len).abs() < 1e-6 * cp_len.max(1.0),
            "path sum {} vs cp length {}", len, cp_len);
        // consecutive path elements must be actual edges
        for w in cp.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn top_plus_bottom_bounded_by_cp((n, edges) in dag_strategy(), seed in 1u64..1000) {
        let (g, times) = build_graph(n, &edges, seed);
        let bl = bottom_levels(&g, &times);
        let tl = top_levels(&g, &times);
        let cp = critical_path_length(&g, &times);
        for v in g.task_ids() {
            prop_assert!(tl[v.index()] + bl[v.index()] <= cp + 1e-6 * cp.max(1.0));
        }
    }

    #[test]
    fn descendants_and_ancestors_are_duals((n, edges) in dag_strategy(), seed in 1u64..1000) {
        let (g, _) = build_graph(n, &edges, seed);
        for v in g.task_ids() {
            for d in ptg::analysis::descendants(&g, v) {
                prop_assert!(ptg::analysis::ancestors(&g, d).contains(&v));
                prop_assert!(ptg::analysis::reaches(&g, v, d));
            }
        }
    }
}
