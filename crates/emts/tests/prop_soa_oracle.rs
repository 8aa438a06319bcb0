//! Property-based bit-identity of the SoA fitness core against the
//! pre-refactor oracle.
//!
//! The struct-of-arrays refactor (CSR adjacency, packed `u128` heaps,
//! branchless sifts) must be a pure representation change:
//! `makespan_bounded_reference` keeps the original comparator-driven
//! `BinaryHeap`s and pointer adjacency, and the production cores — the
//! grouped fitness core with and without telemetry, the full mapper, the
//! rescheduler — have to reproduce its results *bit for bit* on random
//! DAGGEN PTGs, under **both** execution-time models (Amdahl and the
//! synthetic Model 2), accept and reject alike. `prop_fitness.rs` runs
//! every evaluation entry point against the same oracle.

use exec_model::{Amdahl, ExecutionTimeModel, SyntheticModel, TimeMatrix};
use obs::StatsRecorder;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{
    Allocation, BoundedEval, EvalScratch, ListScheduler, Mapper, Rescheduler, ResumeState,
};
use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

fn scenario() -> impl Strategy<Value = (u64, usize, u32, f64)> {
    // (seed, task count, platform size, cutoff factor around the median)
    (0u64..1 << 40, 6usize..48, 3u32..72, 0.5f64..1.5)
}

fn graph(seed: u64, n: usize) -> (ptg::Ptg, ChaCha8Rng) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = DaggenParams {
        n,
        width: 0.6,
        regularity: 0.3,
        density: 0.4,
        jump: 3,
    };
    let g = random_ptg(&params, &CostConfig::default(), &mut rng);
    (g, rng)
}

/// Both execution-time models, by name (for assertion messages).
fn models() -> [(&'static str, Box<dyn ExecutionTimeModel>); 2] {
    [
        ("amdahl", Box::new(Amdahl)),
        ("synthetic", Box::<SyntheticModel>::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grouped SoA core vs per-processor oracle: identical `Option<f64>`
    /// results (down to the bit pattern) at unconstrained and tight
    /// cutoffs, on both models — and the instrumented variant both agrees
    /// and reports a full schedule's worth of ready-queue pops.
    #[test]
    fn soa_core_matches_oracle_on_both_models((seed, n, p, cutoff_factor) in scenario()) {
        let (g, mut rng) = graph(seed, n);
        for (model_name, model) in models() {
            let m = TimeMatrix::compute(&g, model.as_ref(), 3.1e9, p);
            let allocs: Vec<Allocation> = (0..8)
                .map(|_| {
                    Allocation::from_vec((0..g.task_count()).map(|_| rng.gen_range(1..=p)).collect())
                })
                .collect();
            let exact: Vec<f64> = allocs
                .iter()
                .map(|a| ListScheduler.makespan(&g, &m, a))
                .collect();
            let mut sorted = exact.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite makespans"));
            let median = sorted[sorted.len() / 2];

            for cutoff in [f64::INFINITY, median * cutoff_factor] {
                for a in &allocs {
                    let oracle = ListScheduler.makespan_bounded_reference(&g, &m, a, cutoff);
                    let soa = ListScheduler.makespan_bounded(&g, &m, a, cutoff);
                    prop_assert_eq!(
                        soa.map(f64::to_bits),
                        oracle.map(f64::to_bits),
                        "model {} cutoff {}",
                        model_name,
                        cutoff
                    );

                    let stats = StatsRecorder::new();
                    let mut scratch = EvalScratch::new();
                    let obs =
                        ListScheduler.evaluate_bounded_obs(&g, &m, a, cutoff, &mut scratch, &stats);
                    match (obs, oracle) {
                        (BoundedEval::Complete { makespan, .. }, Some(o)) => {
                            prop_assert_eq!(makespan.to_bits(), o.to_bits());
                            prop_assert_eq!(
                                stats.counter("sched.tasks_placed"),
                                g.task_count() as u64,
                                "a completed run places every task exactly once"
                            );
                        }
                        (BoundedEval::Rejected, None) => {
                            prop_assert!(stats.counter("sched.rejections") >= 1);
                        }
                        (got, want) => prop_assert!(
                            false,
                            "model {}: instrumented {:?} vs oracle {:?}",
                            model_name,
                            got,
                            want
                        ),
                    }
                }
            }
        }
    }

    /// The full-schedule path (placements, not just makespans) agrees with
    /// the oracle makespan, and the rescheduler's from-scratch replan —
    /// which shares only the CSR adjacency with the SoA core — reproduces
    /// the very same starts and finishes on both models.
    #[test]
    fn full_schedules_and_fresh_replans_agree((seed, n, p, _cf) in scenario()) {
        let (g, mut rng) = graph(seed ^ 0x5ca1_ab1e, n);
        for (model_name, model) in models() {
            let m = TimeMatrix::compute(&g, model.as_ref(), 3.1e9, p);
            let alloc = Allocation::from_vec(
                (0..g.task_count()).map(|_| rng.gen_range(1..=p)).collect(),
            );
            let schedule = ListScheduler.map(&g, &m, &alloc);
            let oracle = ListScheduler
                .makespan_bounded_reference(&g, &m, &alloc, f64::INFINITY)
                .expect("infinite cutoff never rejects");
            prop_assert_eq!(
                schedule.makespan().to_bits(),
                oracle.to_bits(),
                "model {}",
                model_name
            );

            let state = ResumeState::fresh(g.task_count(), p as usize, 0.0);
            let replan = Rescheduler
                .reschedule(&g, &m, &alloc, &state)
                .expect("live platform");
            prop_assert_eq!(replan.len(), g.task_count());
            for pl in &replan {
                let want = schedule.placement(pl.task);
                prop_assert_eq!(pl.start.to_bits(), want.start.to_bits(), "model {}", model_name);
                prop_assert_eq!(pl.finish.to_bits(), want.finish.to_bits(), "model {}", model_name);
            }
        }
    }
}
