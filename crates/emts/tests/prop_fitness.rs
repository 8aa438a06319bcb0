//! One differential harness for every fitness-evaluation entry point.
//!
//! A single generator draws a random DAGGEN PTG under Model 1 (Amdahl) or
//! Model 2 (synthetic), a chain of paper-operator mutants (each offspring
//! is the parent of the next, with a clamped no-op link in the middle) and
//! a tight cutoff around the chain's median makespan. Every entry point in
//! [`ENTRY_POINTS`] evaluates the chain at an infinite and at the tight
//! cutoff, and must reproduce the per-processor oracle
//! `ListScheduler::makespan_bounded_reference` bit for bit, accept and
//! reject alike. Every path in [`PLACEMENT_PATHS`] places the chain's
//! tasks at an infinite cutoff: the paths must agree on the bits of every
//! start and finish, and their makespan is the oracle's. Adding or retiring
//! an evaluation path is one table row.

use emts::mutation::mutation_count;
use emts::parallel::sabotage;
use emts::{EvalPool, FitnessEngine, MutationOperator};
use exec_model::{Amdahl, SyntheticModel, TimeMatrix};
use obs::{NoopRecorder, StatsRecorder};
use proptest::prelude::*;
use ptg::{Ptg, TaskId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{
    Allocation, BoundedEval, EvalScratch, ListScheduler, Mapper, Rescheduler, ResumeState,
};
use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

/// Mutants per chain, after the random root.
const CHAIN: usize = 10;
/// The chain link that repeats its parent (an all-clamped mutation).
const NOOP_LINK: usize = CHAIN / 2;

/// One generated input.
struct Case {
    g: Ptg,
    m: TimeMatrix,
    /// `chain[0]` is random; `chain[i + 1]` is a mutant of `chain[i]`.
    chain: Vec<Allocation>,
    /// `changed[i]`: the genes where `chain[i + 1]` differs from `chain[i]`.
    changed: Vec<Vec<TaskId>>,
    /// A cutoff around the chain's median makespan.
    tight: f64,
}

fn case(seed: u64, n: usize, p: u32, model2: bool, cutoff_factor: f64) -> Case {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = DaggenParams {
        n,
        width: 0.5,
        regularity: 0.4,
        density: 0.3,
        jump: 2,
    };
    let g = random_ptg(&params, &CostConfig::default(), &mut rng);
    let m = if model2 {
        TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, p)
    } else {
        TimeMatrix::compute(&g, &Amdahl, 3.1e9, p)
    };
    let op = MutationOperator::paper();
    let v = g.task_count();
    let mut chain = vec![Allocation::from_vec(
        (0..v).map(|_| rng.gen_range(1..=p)).collect(),
    )];
    let mut changed = Vec::with_capacity(CHAIN);
    for step in 0..CHAIN {
        let mut child = chain[step].clone();
        if step == NOOP_LINK {
            changed.push(Vec::new());
        } else {
            let genes = mutation_count(step, CHAIN, 0.33, v);
            changed.push(op.mutate(&mut child, genes, p, &mut rng));
        }
        chain.push(child);
    }
    let mut makespans = oracle(&g, &m, &chain, f64::INFINITY);
    makespans.sort_by(|a, b| a.expect("complete").total_cmp(&b.expect("complete")));
    let tight = makespans[makespans.len() / 2].expect("complete") * cutoff_factor;
    Case {
        g,
        m,
        chain,
        changed,
        tight,
    }
}

fn oracle(g: &Ptg, m: &TimeMatrix, allocs: &[Allocation], cutoff: f64) -> Vec<Option<f64>> {
    allocs
        .iter()
        .map(|a| ListScheduler.makespan_bounded_reference(g, m, a, cutoff))
        .collect()
}

/// An entry point's fitness of every chain member at `cutoff`.
type EntryPoint = fn(&Case, f64) -> Vec<Option<f64>>;

const ENTRY_POINTS: [(&str, EntryPoint); 11] = [
    ("makespan_bounded", fresh),
    ("makespan_bounded_with", reused_scratch),
    ("evaluate_bounded_obs, live stats", instrumented),
    ("run_batch, 0 workers", |c, cutoff| {
        pooled(c, cutoff, 0, usize::MAX)
    }),
    ("run_batch, 2 workers", |c, cutoff| {
        pooled(c, cutoff, 2, usize::MAX)
    }),
    ("run_batch, 2 workers only", workers_only),
    // Batches too small to dispatch run inline even when workers exist.
    ("run_batch, 2 workers, batches of 3", |c, cutoff| {
        pooled(c, cutoff, 2, 3)
    }),
    ("engine, cold memo", cold_memo),
    ("engine, warm memo", warm_memo),
    ("engine, cross-cutoff hit", cross_cutoff),
    ("record + eval_offspring", offspring),
];

fn fresh(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    c.chain
        .iter()
        .map(|a| ListScheduler.makespan_bounded(&c.g, &c.m, a, cutoff))
        .collect()
}

fn reused_scratch(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    let mut scratch = EvalScratch::new();
    c.chain
        .iter()
        .map(|a| ListScheduler.makespan_bounded_with(&c.g, &c.m, a, cutoff, &mut scratch))
        .collect()
}

/// The grouped core under a live recorder, one per evaluation: a completed
/// evaluation places every task once, and a rejection is counted.
fn instrumented(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    c.chain
        .iter()
        .map(|a| {
            let stats = StatsRecorder::new();
            let mut scratch = EvalScratch::new();
            let eval =
                ListScheduler.evaluate_bounded_obs(&c.g, &c.m, a, cutoff, &mut scratch, &stats);
            match eval {
                BoundedEval::Complete { makespan, .. } => {
                    assert_eq!(
                        stats.counter("sched.tasks_placed"),
                        c.g.task_count() as u64,
                        "a completed evaluation places every task exactly once"
                    );
                    Some(makespan)
                }
                BoundedEval::Rejected => {
                    assert!(stats.counter("sched.rejections") >= 1);
                    None
                }
            }
        })
        .collect()
}

/// The chain through `run_batch`, `batch` allocations at a time.
fn pooled(c: &Case, cutoff: f64, workers: usize, batch: usize) -> Vec<Option<f64>> {
    EvalPool::with_workers(&c.g, &c.m, workers, &NoopRecorder, |pool| {
        c.chain
            .chunks(batch)
            .flat_map(|chunk| pool.run_batch(chunk.to_vec(), cutoff))
            .map(|o| o.decide(f64::INFINITY))
            .collect()
    })
}

/// The 2-worker pool with the caller kept out of the drain, so the
/// workers evaluate every item (the hook is process-global; the other
/// test in this file builds no pool, so no other drain sees it).
fn workers_only(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    sabotage::arm_caller_abstains();
    let got = pooled(c, cutoff, 2, usize::MAX);
    sabotage::disarm();
    got
}

fn cold_memo(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    EvalPool::with_workers(&c.g, &c.m, 0, &NoopRecorder, |pool| {
        FitnessEngine::new(pool).evaluate(&c.chain, cutoff)
    })
}

/// The second of two identical batches: completed entries are memo hits.
fn warm_memo(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    EvalPool::with_workers(&c.g, &c.m, 0, &NoopRecorder, |pool| {
        let mut engine = FitnessEngine::new(pool);
        let _ = engine.evaluate(&c.chain, cutoff);
        engine.evaluate(&c.chain, cutoff)
    })
}

/// Completions memoized at an infinite cutoff answer `cutoff` without a
/// single new evaluation.
fn cross_cutoff(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    EvalPool::with_workers(&c.g, &c.m, 0, &NoopRecorder, |pool| {
        let mut engine = FitnessEngine::new(pool);
        let _ = engine.evaluate(&c.chain, f64::INFINITY);
        let misses = engine.cache_misses();
        let got = engine.evaluate(&c.chain, cutoff);
        assert_eq!(engine.cache_misses(), misses, "expected pure memo hits");
        got
    })
}

/// The root through the memo, each mutant against its parent's record.
fn offspring(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    EvalPool::with_workers(&c.g, &c.m, 0, &NoopRecorder, |pool| {
        let mut engine = FitnessEngine::new(pool);
        engine.begin_generation();
        let mut out = vec![engine.eval_offspring(None, &c.chain[0], &[], cutoff)];
        for (pair, changed) in c.chain.windows(2).zip(&c.changed) {
            let record = engine.record(&pair[0]);
            out.push(engine.eval_offspring(Some(&record), &pair[1], changed, cutoff));
        }
        out
    })
}

/// A path that places every task of the graph: the bits of each task's
/// start and finish, in task order.
type PlacementPath = fn(&Case, &Allocation) -> Vec<(TaskId, u64, u64)>;

const PLACEMENT_PATHS: [(&str, PlacementPath); 2] = [
    ("ListScheduler::map", mapped),
    ("fresh Rescheduler replan", replanned),
];

fn mapped(c: &Case, a: &Allocation) -> Vec<(TaskId, u64, u64)> {
    let schedule = ListScheduler.map(&c.g, &c.m, a);
    c.g.task_ids()
        .map(|v| {
            let pl = schedule.placement(v);
            (v, pl.start.to_bits(), pl.finish.to_bits())
        })
        .collect()
}

/// A replan from time 0 on the whole live platform, which shares only the
/// graph's adjacency with the mapper's core.
fn replanned(c: &Case, a: &Allocation) -> Vec<(TaskId, u64, u64)> {
    let state = ResumeState::fresh(c.g.task_count(), c.m.p_max() as usize, 0.0);
    let mut replan = Rescheduler
        .reschedule(&c.g, &c.m, a, &state)
        .expect("live platform");
    replan.sort_by_key(|pl| pl.task);
    replan
        .iter()
        .map(|pl| (pl.task, pl.start.to_bits(), pl.finish.to_bits()))
        .collect()
}

fn bits(v: &[Option<f64>]) -> Vec<Option<u64>> {
    v.iter().map(|f| f.map(f64::to_bits)).collect()
}

/// (seed, task count, platform size, model, cutoff factor around the
/// chain's median makespan).
fn scenario() -> impl Strategy<Value = (u64, usize, u32, u8, f64)> {
    (0u64..1 << 40, 6usize..48, 3u32..72, 1u8..=2, 0.5f64..1.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_entry_point_matches_the_oracle(
        (seed, n, p, model, cutoff_factor) in scenario()
    ) {
        let model2 = model == 2;
        let c = case(seed, n, p, model2, cutoff_factor);
        for cutoff in [f64::INFINITY, c.tight] {
            let want = bits(&oracle(&c.g, &c.m, &c.chain, cutoff));
            for (name, entry) in ENTRY_POINTS {
                prop_assert_eq!(
                    bits(&entry(&c, cutoff)),
                    want.clone(),
                    "{} at cutoff {} (model2 = {})",
                    name,
                    cutoff,
                    model2
                );
            }
        }
    }

    #[test]
    fn every_placement_path_matches_the_oracle(
        (seed, n, p, model, cutoff_factor) in scenario()
    ) {
        let model2 = model == 2;
        let c = case(seed, n, p, model2, cutoff_factor);
        let makespans = oracle(&c.g, &c.m, &c.chain, f64::INFINITY);
        for (a, want) in c.chain.iter().zip(makespans) {
            let want = want.expect("an infinite cutoff never rejects");
            let first = PLACEMENT_PATHS[0].1(&c, a);
            for (name, path) in PLACEMENT_PATHS {
                let placed = path(&c, a);
                let makespan = placed
                    .iter()
                    .map(|&(_, _, finish)| f64::from_bits(finish))
                    .fold(0.0, f64::max);
                prop_assert_eq!(makespan.to_bits(), want.to_bits(), "{} (model2 = {})", name, model2);
                prop_assert_eq!(&placed, &first, "{} (model2 = {})", name, model2);
            }
        }
    }
}
