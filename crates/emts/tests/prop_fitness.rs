//! One differential harness for every fitness-evaluation entry point.
//!
//! A single generator draws a random DAGGEN PTG, or one without edges,
//! under Model 1 (Amdahl) or Model 2 (synthetic), a chain of
//! paper-operator mutants (each offspring is the parent of the next, with
//! a clamped no-op link in the middle) and a tight cutoff around the
//! chain's median makespan. Every entry point in [`ENTRY_POINTS`]
//! evaluates the chain at an infinite cutoff, at the tight one, at the
//! root's exact makespan (which the oracle accepts) and just below it
//! (which the oracle rejects), and must reproduce the per-processor oracle
//! `ListScheduler::makespan_bounded_reference` bit for bit, accept and
//! reject alike. Every path in [`PLACEMENT_PATHS`] places the chain's
//! tasks at an infinite cutoff: the paths must agree on the bits of every
//! start and finish and on every processor set, and their makespan is the
//! oracle's. Adding or retiring an evaluation path is one table row.

use emts::mutation::mutation_count;
use emts::parallel::sabotage;
use emts::{EvalPool, FitnessEngine, MutationOperator};
use exec_model::{Amdahl, SyntheticModel, TimeMatrix};
use obs::{NoopRecorder, StatsRecorder};
use proptest::prelude::*;
use ptg::{Ptg, PtgBuilder, TaskId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{
    Allocation, EvalScratch, ListScheduler, Mapper, Placement, Rescheduler, ResumeState, Schedule,
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

fn case(seed: u64, n: usize, p: u32, model2: bool, edges: bool, cutoff_factor: f64) -> Case {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = if edges {
        let params = DaggenParams {
            n,
            width: 0.5,
            regularity: 0.4,
            density: 0.3,
            jump: 2,
        };
        random_ptg(&params, &CostConfig::default(), &mut rng)
    } else {
        let mut b = PtgBuilder::with_capacity(n);
        for i in 0..n {
            let (flop, alpha) = (rng.gen_range(1e9..2.4e10), rng.gen_range(0.0..0.25));
            b.add_task(format!("t{i}"), flop, alpha);
        }
        b.build().expect("a graph without edges is acyclic")
    };
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

const ENTRY_POINTS: [(&str, EntryPoint); 12] = [
    ("makespan_bounded", fresh),
    ("makespan_bounded_with", reused_scratch),
    ("run_batch, 0 workers, live stats", recorded),
    ("run_batch, 0 workers", |c, cutoff| {
        pooled(c, cutoff, 0, c.chain.len())
    }),
    ("run_batch, 2 workers", |c, cutoff| {
        pooled(c, cutoff, 2, c.chain.len())
    }),
    ("run_batch, 2 workers only", workers_only),
    ("run_batch, 2 workers, batches of 3", |c, cutoff| {
        pooled(c, cutoff, 2, 3)
    }),
    ("engine, cold memo", cold_memo),
    ("engine, warm memo", warm_memo),
    ("engine, cross-cutoff hit", cross_cutoff),
    ("engine, chunks of 3 in flight, 2 workers", streamed),
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

/// The chain through a 0-worker pool under a live recorder: one
/// `pool.eval_seconds` sample per allocation evaluated.
fn recorded(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    let stats = StatsRecorder::new();
    let got = EvalPool::with_workers(&c.g, &c.m, 0, &stats, |pool| {
        pool.run_batch(c.chain.clone(), cutoff)
    });
    let report = stats.report("prop_fitness");
    assert_eq!(
        report.histograms["pool.eval_seconds"].total(),
        c.chain.len() as u64,
        "one latency sample per evaluation"
    );
    got.into_iter().map(|o| o.decide(f64::INFINITY)).collect()
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
    let got = pooled(c, cutoff, 2, c.chain.len());
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

/// The chain streamed twice through one generation, in chunks of 3 with
/// one chunk in flight, as the EA streams its offspring: the second pass
/// runs no mapper — every allocation is a memo hit or a duplicate of the
/// first pass's evaluation, rejections included — and answers the same.
fn streamed(c: &Case, cutoff: f64) -> Vec<Option<f64>> {
    EvalPool::with_workers(&c.g, &c.m, 2, &NoopRecorder, |pool| {
        let mut engine = FitnessEngine::new(pool);
        let mut out = Vec::new();
        for chunk in c.chain.chunks(3).chain(c.chain.chunks(3)) {
            if engine.in_flight() > 0 {
                out.extend(engine.collect().expect("a chunk is in flight"));
            }
            engine.submit(chunk, cutoff);
        }
        out.extend(engine.collect().expect("a chunk is in flight"));
        let (first, second) = out.split_at(c.chain.len());
        assert_eq!(bits(first), bits(second), "the passes disagree");
        let mut distinct: Vec<_> = c.chain.iter().map(Allocation::as_slice).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(engine.cache_misses(), distinct.len(), "one miss each");
        second.to_vec()
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
/// start and finish and its processors, in task order.
type PlacementPath = fn(&Case, &Allocation) -> Vec<Placed>;

/// A task, the bits of its start and finish, and its processors.
type Placed = (TaskId, u64, u64, Vec<u32>);

const PLACEMENT_PATHS: [(&str, PlacementPath); 3] = [
    ("ListScheduler::map", |c, a| {
        in_task_order(c, ListScheduler.map(&c.g, &c.m, a))
    }),
    ("ListScheduler::map_reference (heap)", |c, a| {
        in_task_order(c, ListScheduler.map_reference(&c.g, &c.m, a))
    }),
    ("fresh Rescheduler replan", replanned),
];

fn in_task_order(c: &Case, schedule: Schedule) -> Vec<Placed> {
    c.g.task_ids()
        .map(|v| placed(schedule.placement(v)))
        .collect()
}

/// A replan from time 0 on the whole live platform: the mapper's core
/// behind the rescheduler's own set-up.
fn replanned(c: &Case, a: &Allocation) -> Vec<Placed> {
    let state = ResumeState::fresh(c.g.task_count(), c.m.p_max() as usize, 0.0);
    let mut replan = Rescheduler
        .reschedule(&c.g, &c.m, a, &state)
        .expect("live platform");
    replan.sort_by_key(|pl| pl.task);
    replan.iter().map(placed).collect()
}

fn placed(pl: &Placement) -> Placed {
    (
        pl.task,
        pl.start.to_bits(),
        pl.finish.to_bits(),
        pl.processors.clone(),
    )
}

fn bits(v: &[Option<f64>]) -> Vec<Option<u64>> {
    v.iter().map(|f| f.map(f64::to_bits)).collect()
}

/// (seed, task count, platform size — 2 to 5 in a quarter of the cases —,
/// model, shape — 0 draws a graph without edges, anything else a DAGGEN
/// one — and cutoff factor around the chain's median makespan).
fn scenario() -> impl Strategy<Value = (u64, usize, u32, u8, u8, f64)> {
    let platform = (2u32..72, 0u8..4).prop_map(|(p, small)| if small == 0 { 2 + p % 4 } else { p });
    (
        0u64..1 << 40,
        2usize..48,
        platform,
        1u8..=2,
        0u8..5,
        0.5f64..1.5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_entry_point_matches_the_oracle(
        (seed, n, p, model, shape, cutoff_factor) in scenario()
    ) {
        let model2 = model == 2;
        let c = case(seed, n, p, model2, shape != 0, cutoff_factor);
        // The oracle accepts a schedule exactly at the cutoff, and
        // rejects it just below.
        let at = |cutoff| oracle(&c.g, &c.m, &c.chain[..1], cutoff)[0];
        let root = at(f64::INFINITY).expect("complete");
        let below = root * 0.999_999;
        prop_assert_eq!((at(root), at(below)), (Some(root), None));
        for cutoff in [f64::INFINITY, c.tight, root, below] {
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
        (seed, n, p, model, shape, cutoff_factor) in scenario()
    ) {
        let model2 = model == 2;
        let c = case(seed, n, p, model2, shape != 0, cutoff_factor);
        let makespans = oracle(&c.g, &c.m, &c.chain, f64::INFINITY);
        for (a, want) in c.chain.iter().zip(makespans) {
            let want = want.expect("an infinite cutoff never rejects");
            let first = PLACEMENT_PATHS[0].1(&c, a);
            for (name, path) in PLACEMENT_PATHS {
                let placed = path(&c, a);
                let makespan = placed
                    .iter()
                    .map(|&(_, _, finish, _)| f64::from_bits(finish))
                    .fold(0.0, f64::max);
                prop_assert_eq!(makespan.to_bits(), want.to_bits(), "{} (model2 = {})", name, model2);
                prop_assert_eq!(&placed, &first, "{} (model2 = {})", name, model2);
            }
        }
    }
}
