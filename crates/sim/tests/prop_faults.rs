//! Property-based guarantees for the fault-injection layer.
//!
//! Two contracts, checked over random DAGGEN PTGs:
//!
//! 1. **Fault-free transparency** — replaying a schedule under the empty
//!    [`FaultPlan`] is bit-identical to the baseline: same makespan bits,
//!    and its start/finish events are the schedule's placements in time
//!    order (finishes before starts, then task id), with bit-equal times.
//!    The dynamic replay must be a no-op wrapper when nothing goes wrong.
//! 2. **Seeded reproducibility** — under a fixed spec seed, realized
//!    plans, replay event logs and the aggregated [`FaultSummary`] are
//!    identical across runs. Fault experiments must be replayable.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::{allocate_and_map, Mcpa};
use ptg::Ptg;
use sched::{Allocation, ListScheduler, Mapper, Schedule};
use sim::faults::{execute_with_faults, fault_trials, FaultPlan, FaultSpec};
use workloads::daggen::{random_ptg, DaggenParams};
use workloads::CostConfig;

/// A random DAGGEN PTG scheduled by MCPA + list scheduling.
fn scheduled(
    n: usize,
    width: f64,
    density: f64,
    jump: usize,
    p: u32,
    seed: u64,
) -> (Ptg, TimeMatrix, Allocation, Schedule) {
    let params = DaggenParams {
        n,
        width,
        regularity: 0.5,
        density,
        jump,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = random_ptg(&params, &CostConfig::default(), &mut rng);
    let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, p);
    let (alloc, _) = allocate_and_map(&Mcpa, &g, &m);
    let s = ListScheduler.map(&g, &m, &alloc);
    (g, m, alloc, s)
}

/// (n, width, density, jump, p, seed) — width/density drawn from the
/// paper's parameter levels by index.
fn scenario() -> impl Strategy<Value = (usize, f64, f64, usize, u32, u64)> {
    const WIDTHS: [f64; 3] = [0.2, 0.5, 0.8];
    const DENSITIES: [f64; 2] = [0.2, 0.8];
    (
        2usize..40,
        0usize..3,
        0usize..2,
        0usize..3,
        2u32..24,
        0u64..u64::MAX,
    )
        .prop_map(|(n, w, d, jump, p, seed)| (n, WIDTHS[w], DENSITIES[d], jump, p, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Empty plan ⇒ the faulty executor degenerates to the baseline
    /// replay, bit for bit.
    #[test]
    fn fault_free_replay_is_bit_identical(
        (n, width, density, jump, p, seed) in scenario()
    ) {
        let (g, m, alloc, s) = scheduled(n, width, density, jump, p, seed);
        let plan = FaultPlan::empty(g.task_count(), s.processors);
        let report = execute_with_faults(&g, &m, &s, &alloc, &plan).unwrap();

        prop_assert_eq!(
            report.makespan.to_bits(),
            s.makespan().to_bits(),
            "makespan drifted under the empty plan"
        );
        prop_assert_eq!(report.retries, 0);
        prop_assert_eq!(report.tasks_killed, 0);
        prop_assert_eq!(report.reschedules, 0);
        prop_assert!(report.processor_failures.is_empty());

        // Event-level identity: the placements' starts and finishes sorted
        // by time, finishes before starts, then task id, with bit-equal
        // times.
        let mut baseline: Vec<(u64, ptg::TaskId, bool)> = s
            .placements
            .iter()
            .flat_map(|pl| {
                [
                    (pl.start.to_bits(), pl.task, true),
                    (pl.finish.to_bits(), pl.task, false),
                ]
            })
            .collect();
        // Non-negative finite times order like their bits; `false` (a
        // finish) sorts before `true` (a start).
        baseline.sort_by_key(|&(time, task, is_start)| (time, is_start, task));
        let faulty: Vec<(u64, ptg::TaskId, bool)> = report
            .start_finish_trace()
            .iter()
            .map(|&(t, v, st)| (t.to_bits(), v, st))
            .collect();
        prop_assert_eq!(faulty, baseline, "event traces diverged");
    }

    /// Fixed seed ⇒ identical plans, event logs and trial summaries on
    /// every run.
    #[test]
    fn seeded_fault_runs_are_deterministic(
        (n, width, density, jump, p, seed) in scenario()
    ) {
        let (g, m, alloc, s) = scheduled(n, width, density, jump, p, seed);
        let spec = FaultSpec::parse(
            "seed=9,perturb=0.15,straggler_prob=0.1,straggler_factor=3,\
             crash=0.2,retries=2,backoff=0.3,procfail=0.1",
        ).unwrap();

        let plan_a = FaultPlan::realize(&spec, 0, g.task_count(), s.processors, s.makespan());
        let plan_b = FaultPlan::realize(&spec, 0, g.task_count(), s.processors, s.makespan());
        prop_assert_eq!(&plan_a, &plan_b, "plan realization is nondeterministic");

        let run_a = execute_with_faults(&g, &m, &s, &alloc, &plan_a).unwrap();
        let run_b = execute_with_faults(&g, &m, &s, &alloc, &plan_b).unwrap();
        prop_assert_eq!(run_a.makespan.to_bits(), run_b.makespan.to_bits());
        prop_assert_eq!(&run_a.events, &run_b.events, "event logs diverged");

        let sum_a = fault_trials(&g, &m, &s, &alloc, &spec, 5).unwrap();
        let sum_b = fault_trials(&g, &m, &s, &alloc, &spec, 5).unwrap();
        prop_assert_eq!(sum_a, sum_b, "trial summaries diverged");
    }
}
