//! Cross-crate property tests: generated workloads → heuristics/EMTS →
//! mapper → validators must hold for arbitrary parameters.

use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::{Allocator, DeltaCritical, Hcpa, Mcpa};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::validate::all_violations;
use sched::{ListScheduler, Mapper};
use sim::executor::execute;
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
                let mcpa_rule = Mcpa::growth_rule(g, cluster.processors);
                let mcpa_cfg = CpaLoop {
                    may_grow: &mcpa_rule,
                    stop_on_no_gain: false,
                };
                assert_eq!(
                    Mcpa.allocate(g, &matrix),
                    run_cpa_loop_reference(g, &matrix, &mcpa_cfg),
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

/// Pool workers only change who evaluates the offspring, never what the EA
/// does with the results: EMTS5 with 0, 1 and 2 workers must return the
/// same best allocation, the same best-makespan bits and the same
/// per-generation fitness summaries. Every 6th item of one DAGGEN grid
/// cycle covers all three graph sizes; both paper platforms, both models.
#[test]
fn emts_trajectories_do_not_depend_on_the_worker_count() {
    use emts::{Emts, EmtsConfig, EmtsResult, GenerationStats};
    use exec_model::PaperModel;
    let costs = CostConfig::default();
    let emts = Emts::new(EmtsConfig::emts5());
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
                let runs: Vec<EmtsResult> = (0..=2)
                    .map(|workers| {
                        emts.run_with_workers(&g, &matrix, i, workers, &obs::NoopRecorder)
                    })
                    .collect();
                for (workers, r) in runs.iter().enumerate().skip(1) {
                    let ctx = format!("item {i}, {model:?} on {}, {workers} workers", cluster.name);
                    assert_eq!(r.best, runs[0].best, "{ctx}");
                    assert_eq!(
                        r.best_makespan.to_bits(),
                        runs[0].best_makespan.to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(keys(r), keys(&runs[0]), "{ctx}");
                }
            }
        }
    }
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
            let replay = execute(&g, &schedule);
            prop_assert!(replay.is_ok(), "{}: {:?}", allocator.name(), replay.err());
            let report = replay.unwrap();
            prop_assert!(
                (report.makespan - schedule.makespan()).abs()
                    <= 1e-9 * schedule.makespan().max(1.0)
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
