//! Property-based tests for the mapping step.
//!
//! For random DAGs and random allocations, both mappers must produce valid
//! schedules whose makespans respect the two classic lower bounds (critical
//! path and total-area / P). That the list scheduler's makespan-only and
//! bounded paths agree bit for bit with the full mapping is checked by the
//! oracle table, `crates/emts/tests/prop_fitness.rs`; here the rescheduler
//! must also agree with its heap oracle from mid-run states.

use proptest::prelude::*;
use ptg::critpath::critical_path_length;
use ptg::{Ptg, PtgBuilder, TaskId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::validate::all_violations;
use sched::{
    Allocation, InsertionScheduler, ListScheduler, Mapper, Placement, Rescheduler, ResumeState,
    RunningTask,
};

use exec_model::{Amdahl, ExecutionTimeModel, SyntheticModel, Tabulated, TimeMatrix};

fn build_graph(n: usize, edges: &[(usize, usize)]) -> Ptg {
    let mut b = PtgBuilder::with_capacity(n);
    for i in 0..n {
        let flop = 1e9 * (1 + (i * 7919) % 23) as f64;
        let alpha = ((i * 31) % 26) as f64 / 100.0; // 0 .. 0.25
        b.add_task(format!("t{i}"), flop, alpha);
    }
    for &(i, j) in edges {
        let _ = b.add_edge_dedup(TaskId::from_index(i), TaskId::from_index(j));
    }
    b.build().expect("forward edges are acyclic")
}

fn scenario() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, u32, Vec<u32>)> {
    (2usize..25).prop_flat_map(|n| {
        let edge = (0usize..n, 0usize..n).prop_filter_map("fwd", |(a, b)| match a.cmp(&b) {
            std::cmp::Ordering::Less => Some((a, b)),
            std::cmp::Ordering::Greater => Some((b, a)),
            std::cmp::Ordering::Equal => None,
        });
        (2u32..20).prop_flat_map(move |p| {
            (
                Just(n),
                proptest::collection::vec(edge.clone(), 0..n * 2),
                Just(p),
                proptest::collection::vec(1u32..=p, n),
            )
        })
    })
}

/// A mid-run state of `g` on `p` processors: about a quarter of them dead,
/// a topological prefix of the tasks finished, some of the tasks it makes
/// ready running on disjoint live processors, and foreign-work floors.
/// Every time is a small integer, so equal free times are common.
fn mid_run(g: &Ptg, p: usize, seed: u64) -> ResumeState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let now = rng.gen_range(0..3) as f64;
    let mut state = ResumeState::fresh(g.task_count(), p, now);
    for alive in &mut state.alive {
        *alive = rng.gen_range(0..4) != 0;
    }
    state.busy_until = (0..p).map(|_| rng.gen_range(0..5) as f64).collect();
    let done = rng.gen_range(0..=g.task_count());
    for &v in &g.topo_order()[..done] {
        state.finished[v.index()] = Some(rng.gen_range(0..=now as u32) as f64);
    }
    let mut idle: Vec<u32> = (0..p as u32).filter(|&q| state.alive[q as usize]).collect();
    for &v in &g.topo_order()[done..] {
        let ready = g
            .predecessors(v)
            .iter()
            .all(|u| state.finished[u.index()].is_some());
        if ready && !idle.is_empty() && rng.gen_range(0..2) == 0 {
            let width = rng.gen_range(1..=idle.len().min(3));
            state.running.push(RunningTask {
                task: v,
                finish: now + rng.gen_range(1..4) as f64,
                processors: idle.drain(..width).collect(),
            });
        }
    }
    state
}

/// Each placement's task, the bits of its start and finish, and its
/// processors.
fn placed(plan: &[Placement]) -> Vec<(TaskId, u64, u64, Vec<u32>)> {
    plan.iter()
        .map(|pl| {
            let (start, finish) = (pl.start.to_bits(), pl.finish.to_bits());
            (pl.task, start, finish, pl.processors.clone())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rescheduling_equals_the_heap_reference_from_mid_run_states(
        (n, edges, p, alloc) in scenario(),
        seed in 0u64..u64::MAX,
    ) {
        let g = build_graph(n, &edges);
        let alloc = Allocation::from_vec(alloc);
        let state = mid_run(&g, p as usize, seed);
        // Without speedup every time is a whole number of seconds, so tasks
        // also finish together and free their processors at equal times.
        let flat = Tabulated::from_speedups(vec![1.0]);
        for model in [&SyntheticModel::default() as &dyn ExecutionTimeModel, &flat] {
            let m = TimeMatrix::compute(&g, model, 1e9, p);
            let plan = Rescheduler.reschedule(&g, &m, &alloc, &state);
            let reference = Rescheduler.reschedule_reference(&g, &m, &alloc, &state);
            match (plan, reference) {
                (Ok(plan), Ok(reference)) => {
                    prop_assert_eq!(placed(&plan), placed(&reference), "{}", model.name())
                }
                (plan, reference) => prop_assert_eq!(plan.err(), reference.err()),
            }
        }
    }

    #[test]
    fn both_mappers_produce_valid_schedules((n, edges, p, alloc) in scenario()) {
        let g = build_graph(n, &edges);
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, p);
        let alloc = Allocation::from_vec(alloc);
        for mapper in [&ListScheduler as &dyn Mapper, &InsertionScheduler] {
            let s = mapper.map(&g, &m, &alloc);
            let v = all_violations(&g, &m, &alloc, &s);
            prop_assert!(v.is_empty(), "{}: {:?}", mapper.name(), v);
        }
    }

    #[test]
    fn makespan_respects_lower_bounds((n, edges, p, alloc) in scenario()) {
        let g = build_graph(n, &edges);
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, p);
        let alloc = Allocation::from_vec(alloc);
        let times = m.times_for(alloc.as_slice());
        let cp = critical_path_length(&g, &times);
        let area = alloc.work_area(&times) / p as f64;
        let lower = cp.max(area);
        for mapper in [&ListScheduler as &dyn Mapper, &InsertionScheduler] {
            let ms = mapper.map(&g, &m, &alloc).makespan();
            prop_assert!(ms + 1e-9 * lower >= lower,
                "{}: makespan {} below lower bound {}", mapper.name(), ms, lower);
        }
    }

    #[test]
    fn insertion_never_beats_dependency_bound_nor_loses_validity((n, edges, p, alloc) in scenario()) {
        let g = build_graph(n, &edges);
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, p);
        let alloc = Allocation::from_vec(alloc);
        let s = InsertionScheduler.map(&g, &m, &alloc);
        // every task starts no earlier than the chain of its ancestors allows
        for v in g.task_ids() {
            let min_start: f64 = {
                // longest-path arrival using the same times
                let times = m.times_for(alloc.as_slice());
                ptg::critpath::top_levels(&g, &times)[v.index()]
            };
            prop_assert!(s.placement(v).start + 1e-9 >= min_start);
        }
    }

    #[test]
    fn serial_platform_makespan_is_total_work((n, edges, _p, _alloc) in scenario()) {
        let g = build_graph(n, &edges);
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 1);
        let alloc = Allocation::ones(n);
        let ms = ListScheduler.makespan(&g, &m, &alloc);
        let total: f64 = g.task_ids().map(|v| m.time(v, 1)).sum();
        prop_assert!((ms - total).abs() < 1e-9 * total.max(1.0));
    }
}
