//! Integration coverage for the extension APIs: BiCPA and §VI rejection,
//! each exercised end-to-end against the core pipeline.

use emts::{Emts, EmtsConfig};
use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::bicpa::{pareto_front, tradeoff_curve};
use heuristics::{allocate_and_map, BiCpa};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use workloads::daggen::{random_ptg, DaggenParams};
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
