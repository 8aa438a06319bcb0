//! Integration coverage for the extension APIs: BiCPA, CPR, model fitting,
//! sparse interpolation and graph contraction — each exercised end-to-end
//! against the core pipeline.

use emts::{Emts, EmtsConfig};
use exec_model::fit::fit_amdahl_to_model;
use exec_model::{Amdahl, ExecutionTimeModel, SparseTabulated, SyntheticModel, TimeMatrix};
use heuristics::bicpa::{pareto_front, tradeoff_curve};
use heuristics::{allocate_and_map, Allocator, BiCpa, Cpr, Mcpa};
use ptg::transform::merge_series;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::{ListScheduler, Mapper};
use workloads::daggen::{random_ptg, DaggenParams};
use workloads::families::chain;
use workloads::CostConfig;

fn sample(n: usize, seed: u64) -> ptg::Ptg {
    random_ptg(
        &DaggenParams {
            n,
            width: 0.5,
            regularity: 0.5,
            density: 0.3,
            jump: 1,
        },
        &CostConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(seed),
    )
}

#[test]
fn bicpa_front_brackets_the_emts_solution_in_work() {
    // EMTS optimizes makespan only; its work usage must lie within the
    // BiCPA front's extremes (which span minimal to maximal total work of
    // the capped-CPA family) — loosely: EMTS work ≥ the front's minimum.
    let g = sample(40, 3);
    let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, 40);
    let front = pareto_front(&tradeoff_curve(&g, &m));
    assert!(!front.is_empty());
    let min_work = front.iter().map(|p| p.work).fold(f64::INFINITY, f64::min);
    let emts = Emts::new(EmtsConfig::emts5()).run(&g, &m, 1);
    let times = m.times_for(emts.best.as_slice());
    let emts_work = emts.best.work_area(&times);
    assert!(emts_work + 1e-6 >= min_work);
    // And BiCPA's balanced pick is a valid allocation end to end.
    let (alloc, ms) = allocate_and_map(&BiCpa::default(), &g, &m);
    assert!(alloc.is_valid_for(&g, 40));
    assert!(ms.is_finite() && ms > 0.0);
}

#[test]
fn cpr_and_mcpa_agree_with_their_mapped_validation() {
    let g = sample(30, 4);
    let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, 30);
    for allocator in [&Cpr as &dyn Allocator, &Mcpa] {
        let alloc = allocator.allocate(&g, &m);
        let schedule = ListScheduler.map(&g, &m, &alloc);
        assert!(
            sched::validate::all_violations(&g, &m, &alloc, &schedule).is_empty(),
            "{}",
            allocator.name()
        );
    }
}

#[test]
fn fitted_model_drives_the_scheduler_like_the_original() {
    // Fit Amdahl to a task's exact Amdahl curve, rebuild the task from the
    // fit, and check the scheduler sees identical times.
    let g = chain(4, &CostConfig::default(), &mut ChaCha8Rng::seed_from_u64(5));
    let speed = 3.1e9;
    for v in g.task_ids() {
        let task = g.task(v);
        let ps: Vec<u32> = vec![1, 2, 4, 8, 16];
        let fit = fit_amdahl_to_model(&Amdahl, task, speed, &ps);
        let rebuilt = fit.to_task(task.name.clone(), speed);
        for p in [1u32, 3, 7, 16] {
            let orig = Amdahl.time(task, p, speed);
            let refit = Amdahl.time(&rebuilt, p, speed);
            assert!(
                (orig - refit).abs() <= 1e-6 * orig,
                "{}: p={p}: {orig} vs {refit}",
                task.name
            );
        }
    }
}

#[test]
fn sparse_measurements_schedule_end_to_end() {
    let g = sample(25, 6);
    let model = SparseTabulated::from_measurements(&[
        (1, 10.0),
        (2, 5.4),
        (4, 3.0),
        (8, 1.9),
        (16, 1.4),
        (32, 1.2),
    ]);
    let m = TimeMatrix::compute(&g, &model, 3.1e9, 32);
    let result = Emts::new(EmtsConfig::emts5()).run(&g, &m, 2);
    assert!(result.best_makespan <= result.seed_makespan + 1e-9);
    let (_, mcpa) = allocate_and_map(&Mcpa, &g, &m);
    assert!(result.best_makespan <= mcpa + 1e-9);
}

#[test]
fn series_contraction_preserves_single_processor_makespan() {
    // On one processor the makespan is the total work, which contraction
    // preserves exactly.
    let g = sample(30, 7);
    let (merged, groups) = merge_series(&g);
    assert_eq!(
        groups.iter().map(Vec::len).sum::<usize>(),
        g.task_count(),
        "groups partition the tasks"
    );
    let m_orig = TimeMatrix::compute(&g, &Amdahl, 1e9, 1);
    let m_merged = TimeMatrix::compute(&merged, &Amdahl, 1e9, 1);
    let ms_orig = ListScheduler.makespan(&g, &m_orig, &sched::Allocation::ones(g.task_count()));
    let ms_merged = ListScheduler.makespan(
        &merged,
        &m_merged,
        &sched::Allocation::ones(merged.task_count()),
    );
    assert!(
        (ms_orig - ms_merged).abs() <= 1e-9 * ms_orig,
        "{ms_orig} vs {ms_merged}"
    );
}

#[test]
fn rejection_accelerated_emts_matches_quality_at_generous_slack() {
    let g = sample(40, 8);
    let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, 40);
    let base = Emts::new(EmtsConfig::emts5()).run(&g, &m, 4);
    let rejecting = Emts::new(EmtsConfig {
        rejection: true,
        rejection_slack: 2.0,
        ..EmtsConfig::emts5()
    })
    .run(&g, &m, 4);
    // Identical RNG stream and a slack that rarely fires → same best.
    assert!(
        (base.best_makespan - rejecting.best_makespan).abs() <= 0.05 * base.best_makespan,
        "{} vs {}",
        base.best_makespan,
        rejecting.best_makespan
    );
}
