//! Cross-crate property tests: generated workloads → heuristics/EMTS →
//! mapper → validators must hold for arbitrary parameters.

use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::{Allocator, DeltaCritical, Hcpa, Mcpa};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::validate::all_violations;
use sched::{ListScheduler, Mapper};
use sim::faults::{execute_with_faults, FaultPlan};
use workloads::daggen::{random_ptg, DaggenParams};
use workloads::CostConfig;

/// MCPA and HCPA run the shared CPA loop; its one-sweep-per-step form must
/// reproduce the two-pass reference loop bit for bit on one full cycle of
/// the paper's DAGGEN grid, on both paper platforms and under both models.
#[test]
fn mcpa_and_hcpa_equal_the_reference_loop_on_a_grid_cycle() {
    use exec_model::PaperModel;
    use heuristics::common::{run_cpa_loop_reference, CpaLoop};
    let costs = CostConfig::default();
    let graphs: Vec<_> = (0..144)
        .map(|i| workloads::stream::item(2011, i, &costs).ptg)
        .collect();
    for cluster in [platform::chti(), platform::grelon()] {
        for model in [PaperModel::Model1, PaperModel::Model2] {
            let model_impl = model.instantiate();
            for (i, g) in graphs.iter().enumerate() {
                let matrix =
                    TimeMatrix::compute(g, &model_impl, cluster.speed_flops(), cluster.processors);
                assert_eq!(
                    Mcpa.allocate(g, &matrix),
                    run_cpa_loop_reference(g, &matrix, &Mcpa::cpa_loop()),
                    "MCPA, item {i}, {model:?} on {}",
                    cluster.name
                );
                assert_eq!(
                    Hcpa.allocate(g, &matrix),
                    run_cpa_loop_reference(g, &matrix, &CpaLoop::default()),
                    "HCPA, item {i}, {model:?} on {}",
                    cluster.name
                );
            }
        }
    }
}

/// The CPA loop sweeps each graph's transitive reduction
/// (`ptg::transform::reduced_successors`). On one cycle of the paper's
/// DAGGEN grid, as drawn and with one closure edge per four tasks added (an
/// edge `a → b` to a task `a` already reaches), it must keep exactly the
/// successors that no other successor of the same task reaches by DFS.
#[test]
fn the_reduction_of_daggen_items_equals_a_naive_dfs_check() {
    use ptg::analysis::descendants;
    use ptg::transform::reduced_successors;
    use ptg::{Ptg, PtgBuilder, TaskId};
    use rand::Rng;
    let naive = |g: &Ptg| -> Vec<Vec<TaskId>> {
        let below: Vec<Vec<TaskId>> = g.task_ids().map(|v| descendants(g, v)).collect();
        g.task_ids()
            .map(|u| {
                let succ = g.successors(u);
                let implied = |w: TaskId| {
                    succ.iter()
                        .any(|&x| x != w && below[x.index()].binary_search(&w).is_ok())
                };
                succ.iter().copied().filter(|&w| !implied(w)).collect()
            })
            .collect()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let mut dropped = [0usize; 2];
    for i in 0..144 {
        let drawn = workloads::stream::item(2011, i, &CostConfig::default()).ptg;
        let mut b = PtgBuilder::with_capacity(drawn.task_count());
        for v in drawn.task_ids() {
            b.push_task(drawn.task(v).clone());
        }
        for (from, to) in drawn.edges() {
            b.add_edge(from, to).expect("edges of a valid PTG");
        }
        for _ in 0..drawn.task_count().div_ceil(4) {
            let a = TaskId::from_index(rng.gen_range(0..drawn.task_count()));
            let far = descendants(&drawn, a);
            if !far.is_empty() {
                let _ = b.add_edge_dedup(a, far[rng.gen_range(0..far.len())]);
            }
        }
        let closed = b.build().expect("closure edges keep a DAG acyclic");
        for (k, g) in [drawn, closed].iter().enumerate() {
            let kept = reduced_successors(g);
            let want = naive(g);
            for u in g.task_ids() {
                assert_eq!(kept.of(u), &want[u.index()][..], "item {i}, {u}");
            }
            dropped[k] += g.edge_count() - want.iter().map(Vec::len).sum::<usize>();
        }
    }
    assert!(dropped[0] > 0 && dropped[1] > dropped[0], "{dropped:?}");
}

/// Pool workers only change who evaluates the offspring, never what the EA
/// does with the results: EMTS5 with 0, 1 and 2 workers must return the
/// same best allocation, the same best-makespan bits, the same counts —
/// evaluations, offspring pruned by the survival screen or rejected by the
/// §VI cutoff, memo hits and misses — and the same per-generation rows,
/// with and without §VI rejection. Without rejection the result is also
/// that of a reference EA with no survival screen at all, built from the
/// public parts: the screen that tightens chunk by chunk never changes a
/// selection. Every 6th item of one DAGGEN grid cycle covers all three
/// graph sizes; both paper platforms, both models.
#[test]
fn emts_trajectories_do_not_depend_on_the_worker_count() {
    use emts::{Emts, EmtsConfig, EmtsResult, GenerationStats};
    use exec_model::PaperModel;
    let costs = CostConfig::default();
    let configs = [
        EmtsConfig::emts5(),
        EmtsConfig {
            rejection: true,
            rejection_slack: 1.5,
            ..EmtsConfig::emts5()
        },
    ];
    let keys = |r: &EmtsResult| {
        r.trace
            .iter()
            .map(GenerationStats::fitness_key)
            .collect::<Vec<_>>()
    };
    for i in (0..144).step_by(6) {
        let g = workloads::stream::item(2011, i, &costs).ptg;
        for cluster in [platform::chti(), platform::grelon()] {
            for model in [PaperModel::Model1, PaperModel::Model2] {
                let matrix = TimeMatrix::compute(
                    &g,
                    &model.instantiate(),
                    cluster.speed_flops(),
                    cluster.processors,
                );
                for cfg in &configs {
                    let emts = Emts::new(cfg.clone());
                    let runs: Vec<EmtsResult> = (0..=2)
                        .map(|workers| {
                            emts.run_with_workers(&g, &matrix, i, workers, &obs::NoopRecorder)
                        })
                        .collect();
                    let ctx = format!(
                        "item {i}, {model:?} on {}, rejection {}",
                        cluster.name, cfg.rejection
                    );
                    for (workers, r) in runs.iter().enumerate().skip(1) {
                        let ctx = format!("{ctx}, {workers} workers");
                        assert_eq!(r.best, runs[0].best, "{ctx}");
                        assert_eq!(
                            r.best_makespan.to_bits(),
                            runs[0].best_makespan.to_bits(),
                            "{ctx}"
                        );
                        assert_eq!(keys(r), keys(&runs[0]), "{ctx}");
                        let counts = |r: &EmtsResult| (r.evaluations, r.pruned, r.rejected);
                        assert_eq!(counts(r), counts(&runs[0]), "{ctx}");
                        assert_eq!(r.trace.counters(), runs[0].trace.counters(), "{ctx}");
                        assert_eq!(r.trace, runs[0].trace, "{ctx}");
                    }
                    if !cfg.rejection {
                        let (best, best_makespan, rows) = unscreened_ea(cfg, &g, &matrix, i);
                        assert_eq!(runs[0].best, best, "{ctx}");
                        assert_eq!(runs[0].best_makespan.to_bits(), best_makespan.to_bits());
                        let reference: Vec<_> =
                            rows.iter().map(GenerationStats::fitness_key).collect();
                        assert_eq!(keys(&runs[0]), reference, "{ctx}");
                    }
                }
            }
        }
    }
}

/// The (µ+λ) EA from its public parts, every offspring mapped to the end:
/// the best allocation, its makespan and a fitness row per generation.
fn unscreened_ea(
    cfg: &emts::EmtsConfig,
    g: &ptg::Ptg,
    matrix: &TimeMatrix,
    seed: u64,
) -> (sched::Allocation, f64, Vec<emts::GenerationStats>) {
    use emts::individual::select_best;
    use emts::mutation::mutation_count;
    use emts::seeds::initial_population;
    use emts::{EvalPool, FitnessEngine, GenerationStats, Individual, MutationOperator};
    use rand::Rng;
    let op = MutationOperator {
        shrink_prob: cfg.shrink_prob,
        sigma_shrink: cfg.sigma_shrink,
        sigma_stretch: cfg.sigma_stretch,
        uniform: cfg.uniform_mutation,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut population = initial_population(cfg, &op, g, matrix, &mut rng);
    let row = |generation, population: &[Individual], m| {
        let fitness: Vec<f64> = population.iter().map(|i| i.fitness).collect();
        GenerationStats::from_fitness(generation, &fitness, m)
    };
    let mut rows = vec![row(None, &population, 0)];
    let population = EvalPool::with(g, matrix, false, |pool| {
        let mut engine = FitnessEngine::new(pool);
        for u in 0..cfg.generations {
            engine.begin_generation();
            let m = mutation_count(u, cfg.generations, cfg.fm, g.task_count());
            let offspring: Vec<_> = (0..cfg.lambda)
                .map(|_| {
                    let parent = &population[rng.gen_range(0..population.len())];
                    let mut alloc = parent.alloc.clone();
                    op.mutate(&mut alloc, m, matrix.p_max(), &mut rng);
                    alloc
                })
                .collect();
            let fitness = engine.evaluate(&offspring, f64::INFINITY);
            let mut pool = population;
            pool.extend(offspring.into_iter().zip(fitness).map(|(a, f)| {
                Individual::new(a, f.expect("an infinite cutoff rejects nothing"), "mutant")
            }));
            population = select_best(pool, cfg.mu);
            rows.push(row(Some(u), &population, m));
        }
        population
    });
    let best = population
        .into_iter()
        .min_by(|a, b| a.fitness.total_cmp(&b.fitness))
        .expect("a population is never empty");
    (best.alloc, best.fitness, rows)
}

fn params_strategy() -> impl Strategy<Value = (DaggenParams, u64, u32)> {
    (
        5usize..60,
        0.15f64..0.9,
        0.0f64..=1.0,
        0.1f64..0.9,
        0usize..4,
        0u64..10_000,
        2u32..40,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn heuristic_allocations_map_to_valid_replayable_schedules(
        (params, seed, procs) in params_strategy()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let matrix = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, procs);
        for allocator in [
            &Mcpa as &dyn Allocator,
            &Hcpa,
            &DeltaCritical::default(),
        ] {
            let alloc = allocator.allocate(&g, &matrix);
            prop_assert!(alloc.is_valid_for(&g, procs), "{}", allocator.name());
            let schedule = ListScheduler.map(&g, &matrix, &alloc);
            let violations = all_violations(&g, &matrix, &alloc, &schedule);
            prop_assert!(violations.is_empty(), "{}: {:?}", allocator.name(), violations);
            // The fault-free dynamic replay reproduces the mapper's
            // makespan bit for bit.
            let plan = FaultPlan::empty(g.task_count(), procs);
            let replay = execute_with_faults(&g, &matrix, &schedule, &alloc, &plan);
            prop_assert!(replay.is_ok(), "{}: {:?}", allocator.name(), replay.err());
            prop_assert_eq!(
                replay.unwrap().makespan.to_bits(),
                schedule.makespan().to_bits(),
                "{}",
                allocator.name()
            );
        }
    }

    #[test]
    fn emts_output_is_valid_and_not_worse_than_mcpa(
        (params, seed, procs) in params_strategy()
    ) {
        use emts::{Emts, EmtsConfig};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let matrix = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, procs);
        // A tiny EA keeps the property test fast; plus-selection still
        // guarantees the seed bound.
        let cfg = EmtsConfig {
            mu: 3,
            lambda: 6,
            generations: 2,
            parallel_evaluation: false,
            ..EmtsConfig::emts5()
        };
        let result = Emts::new(cfg).run(&g, &matrix, seed);
        prop_assert!(result.best.is_valid_for(&g, procs));
        let mcpa = heuristics::allocate_and_map(&Mcpa, &g, &matrix).1;
        prop_assert!(result.best_makespan <= mcpa + 1e-9 * mcpa,
            "EMTS {} vs MCPA {}", result.best_makespan, mcpa);
        // The reported fitness is reproducible from the allocation.
        let remapped = ListScheduler.makespan(&g, &matrix, &result.best);
        prop_assert!((remapped - result.best_makespan).abs() <= 1e-9 * remapped.max(1.0));
    }

    #[test]
    fn ptg_text_format_round_trips_generated_graphs(
        (params, seed, _procs) in params_strategy()
    ) {
        use sim::formats::{parse_ptg, render_ptg};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let text = render_ptg(&g);
        let back = parse_ptg(&text).expect("rendered PTGs parse");
        prop_assert_eq!(back.task_count(), g.task_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        prop_assert!(back.edges().eq(g.edges()));
        for (a, b) in back.tasks().iter().zip(g.tasks()) {
            prop_assert!((a.flop - b.flop).abs() <= 1e-9 * b.flop);
            prop_assert!((a.alpha - b.alpha).abs() <= 1e-12);
        }
    }
}
