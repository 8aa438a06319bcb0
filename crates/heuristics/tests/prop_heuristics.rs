//! Property-based tests for the allocation heuristics.

use exec_model::{Amdahl, SyntheticModel, TimeMatrix};
use heuristics::common::{run_cpa_loop, run_cpa_loop_reference, CpaLoop};
use heuristics::{Allocator, BestSpeedup, Cpa, DeltaCritical, Hcpa, Mcpa, Mcpa2};
use proptest::prelude::*;
use ptg::analysis::descendants;
use ptg::levels::PrecedenceLevels;
use ptg::{Ptg, PtgBuilder, TaskId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use workloads::daggen::{random_ptg, DaggenParams};
use workloads::CostConfig;

fn scenario() -> impl Strategy<Value = (DaggenParams, u64, u32)> {
    (
        2usize..50,
        0.15f64..0.9,
        0.0f64..=1.0,
        0.1f64..0.9,
        0usize..3,
        0u64..10_000,
        2u32..50,
    )
        .prop_map(|(n, width, regularity, density, jump, seed, procs)| {
            (
                DaggenParams {
                    n,
                    width,
                    regularity,
                    density,
                    jump,
                },
                seed,
                procs,
            )
        })
}

/// `g` rebuilt with its edges inserted in a shuffled order, so its
/// successor lists are no longer sorted by task id, and with up to one
/// closure edge per four tasks: an edge `a → b` to a task `a` already
/// reaches, which a longer path implies and the CPA loop's arena therefore
/// drops. With `equal_costs`, every task takes task 0's flop and α, which
/// forces exact bottom-level and gain ties.
fn rebuilt(g: &Ptg, rng: &mut ChaCha8Rng, equal_costs: bool) -> Ptg {
    let mut b = PtgBuilder::new();
    for v in g.task_ids() {
        let cost = if equal_costs {
            g.task(TaskId(0))
        } else {
            g.task(v)
        };
        b.add_task(g.task(v).name.clone(), cost.flop, cost.alpha);
    }
    let mut edges: Vec<(TaskId, TaskId)> = g.edges().collect();
    for _ in 0..g.task_count().div_ceil(4) {
        let a = TaskId::from_index(rng.gen_range(0..g.task_count()));
        let far: Vec<TaskId> = descendants(g, a)
            .into_iter()
            .filter(|&b| !edges.contains(&(a, b)))
            .collect();
        if !far.is_empty() {
            edges.push((a, far[rng.gen_range(0..far.len())]));
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    for (from, to) in edges {
        b.add_edge(from, to).expect("edges of a valid PTG");
    }
    b.build().expect("a valid PTG rebuilt")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cpa_loop_equals_the_two_pass_reference(
        (params, seed, _) in scenario(),
        // The paper's Chti (20) and Grelon (120) sizes half the time.
        procs in (0u32..4, 2u32..150).prop_map(|(k, p)| [20, 120, p, p][k as usize]),
        cap_seed in 0u32..u32::MAX,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let drawn = random_ptg(&params, &CostConfig::default(), &mut rng);
        let cap = 1 + cap_seed % procs;
        for (graph, g) in [
            ("shuffled", rebuilt(&drawn, &mut rng, false)),
            ("shuffled equal-cost", rebuilt(&drawn, &mut rng, true)),
        ] {
            let rules = [
                ("CPA", CpaLoop::default()),
                ("MCPA", Mcpa::cpa_loop()),
                ("MCPA2", Mcpa2::cpa_loop(&g, procs)),
                ("BiCPA cap", CpaLoop { caps: Some(vec![cap; g.task_count()]), ..CpaLoop::default() }),
            ];
            for model in [&Amdahl as &dyn exec_model::ExecutionTimeModel, &SyntheticModel::default()] {
                let m = TimeMatrix::compute(&g, model, 3.1e9, procs);
                for (name, cfg) in &rules {
                    prop_assert_eq!(
                        run_cpa_loop(&g, &m, cfg),
                        run_cpa_loop_reference(&g, &m, cfg),
                        "{} under {} on the {} graph, P={}", name, model.name(), graph, procs
                    );
                }
            }
        }
    }

    #[test]
    fn all_allocators_produce_platform_valid_allocations(
        (params, seed, procs) in scenario()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, procs);
        for a in [
            &Cpa as &dyn Allocator,
            &Hcpa,
            &Mcpa,
            &Mcpa2,
            &DeltaCritical::default(),
            &BestSpeedup,
        ] {
            let alloc = a.allocate(&g, &m);
            prop_assert!(alloc.is_valid_for(&g, procs), "{} produced invalid alloc", a.name());
        }
    }

    #[test]
    fn mcpa_level_sums_respect_the_platform_bound(
        (params, seed, procs) in scenario()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let m = TimeMatrix::compute(&g, &Amdahl, 3.1e9, procs);
        let levels = PrecedenceLevels::compute(&g);
        for allocator in [&Mcpa as &dyn Allocator, &Mcpa2] {
            let alloc = allocator.allocate(&g, &m);
            for (l, tasks) in levels.iter() {
                let sum: u32 = tasks.iter().map(|&v| alloc.of(v)).sum();
                // Levels wider than P already violate the bound at the
                // all-ones floor; MCPA only promises not to grow past it.
                let bound = procs.max(tasks.len() as u32);
                prop_assert!(
                    sum <= bound,
                    "{}: level {} sum {} > bound {}",
                    allocator.name(), l, sum, bound
                );
            }
        }
    }

    #[test]
    fn hcpa_allocations_dominate_all_ones_makespan_under_amdahl(
        (params, seed, procs) in scenario()
    ) {
        // Under a monotonic model CPA-family growth only stops when the
        // area bound dominates; the resulting schedule should rarely --
        // and on these instances never -- be worse than trivial all-ones
        // by more than the list-scheduling noise margin.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let m = TimeMatrix::compute(&g, &Amdahl, 3.1e9, procs);
        let (_, hcpa) = heuristics::allocate_and_map(&Hcpa, &g, &m);
        let (_, ones) = heuristics::allocate_and_map(&heuristics::AllOne, &g, &m);
        prop_assert!(hcpa <= ones * 1.6 + 1e-9,
            "HCPA {} catastrophically worse than all-ones {}", hcpa, ones);
    }

    #[test]
    fn cpa_total_allocation_grows_monotonically_with_platform(
        (params, seed, _procs) in scenario()
    ) {
        // More processors ⇒ the area bound kicks in later ⇒ CPA ends with
        // at least as much total allocation.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let mut prev_total = 0u32;
        for procs in [4u32, 8, 16, 32] {
            let m = TimeMatrix::compute(&g, &Amdahl, 3.1e9, procs);
            let alloc = Cpa.allocate(&g, &m);
            let total: u32 = alloc.as_slice().iter().sum();
            prop_assert!(total + 2 >= prev_total,
                "P={}: total {} shrank well below {}", procs, total, prev_total);
            prev_total = total;
        }
    }

    #[test]
    fn delta_critical_gives_critical_tasks_the_largest_shares(
        (params, seed, procs) in scenario()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let m = TimeMatrix::compute(&g, &Amdahl, 3.1e9, procs);
        let alloc = DeltaCritical::default().allocate(&g, &m);
        // Every allocation is either 1 (non-critical) or the share of its
        // layer; shares are ≥ 1 by construction.
        let levels = PrecedenceLevels::compute(&g);
        for (_, tasks) in levels.iter() {
            let distinct: std::collections::BTreeSet<u32> =
                tasks.iter().map(|&v| alloc.of(v)).collect();
            prop_assert!(distinct.len() <= 2,
                "a layer mixes more than {{1, share}}: {distinct:?}");
        }
    }
}
