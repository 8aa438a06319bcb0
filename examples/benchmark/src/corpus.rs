//! The three corpus workloads: a fixed set of PTGs drawn from the seeded
//! DAGGEN stream, scheduled one at a time in a closed loop (each operation
//! starts when the previous one returns), pass after pass.

use crate::harness::{self, timed, Failures, Latencies, SetUpTime, MIN_PASSES, SETUP_REPS};
use crate::report::Metrics;
use crate::spec::Workload;
use crate::stats;
use emts::{Emts, EmtsConfig, EmtsResult};
use exec_model::TimeMatrix;
use heuristics::{Allocator, Hcpa, Mcpa};
use obs::NoopRecorder;
use ptg::Ptg;
use rand::Rng;
use sched::{validate_schedule, Allocation, ListScheduler, Mapper, Schedule, ScheduleViolation};
use std::time::Instant;
use workloads::{stream, CostConfig};

/// Operations a run performs before timing starts, so lazily grown buffers
/// and caches are warm.
const WARM_UP_OPS: usize = 4;

/// The heuristics of the one-shot workload, in order.
pub const HEURISTICS: [&dyn Allocator; 2] = [&Mcpa, &Hcpa];

/// One corpus PTG with its time matrix.
pub struct Item {
    pub g: Ptg,
    pub matrix: TimeMatrix,
    /// EA seed, drawn from the item's own RNG after graph generation.
    pub ea_seed: u64,
}

/// Builds items `0..count` of the stream with `seed`, costed for the
/// workload's platform and model, handing each to `keep`; returns the
/// set-up's timing.
fn set_up(w: Workload, seed: u64, count: usize, mut keep: impl FnMut(Item)) -> SetUpTime {
    let cluster = w.cluster();
    let model = w.model().instantiate();
    let costs = CostConfig::default();
    let mut t = SetUpTime::default();
    let start = Instant::now();
    for i in 0..count as u64 {
        let (g, ea_seed) = timed(&mut t.daggen, || {
            let mut it = stream::item(seed, i, &costs);
            let ea_seed: u64 = it.rng.gen();
            (it.ptg, ea_seed)
        });
        let matrix = timed(&mut t.matrix, || {
            TimeMatrix::compute(&g, &*model, cluster.speed_flops(), cluster.processors)
        });
        keep(Item { g, matrix, ea_seed });
    }
    t.total = start.elapsed().as_secs_f64();
    t
}

/// The corpus the run schedules.
pub fn generate(w: Workload, seed: u64, count: usize) -> (Vec<Item>, SetUpTime) {
    let mut items = Vec::with_capacity(count);
    let t = set_up(w, seed, count, |it| items.push(it));
    (items, t)
}

/// One more timed set-up that keeps nothing: each item is dropped once
/// built, so peak RSS still sees a single corpus.
pub fn rehearse(w: Workload, seed: u64, count: usize) -> SetUpTime {
    set_up(w, seed, count, drop)
}

/// Allocation-independent makespan lower bound: the critical path with
/// every task at its fastest width, or the least possible work spread over
/// the whole platform, whichever is larger.
pub fn lower_bound(g: &Ptg, matrix: &TimeMatrix) -> f64 {
    let p = matrix.p_max();
    let ideal_cp = sched::bounds::lower_bounds(g, matrix, &Allocation::ones(g.task_count()))
        .ideal_critical_path;
    let least_work: f64 = g
        .task_ids()
        .map(|v| {
            (1..=p)
                .map(|q| q as f64 * matrix.time(v, q))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    ideal_cp.max(least_work / p as f64)
}

/// What one operation returned.
pub enum Outcome {
    Emts(EmtsResult),
    Heuristics(Vec<(Allocation, Schedule, Result<(), ScheduleViolation>)>),
}

/// One operation of the workload on `item`: a whole EMTS10 run, or each
/// heuristic's allocate → map → validate.
pub fn operate(w: Workload, emts: &Emts, item: &Item) -> Outcome {
    let (g, matrix) = (&item.g, &item.matrix);
    match w.ea_workers() {
        Some(workers) => {
            Outcome::Emts(emts.run_with_workers(g, matrix, item.ea_seed, workers, &NoopRecorder))
        }
        None => Outcome::Heuristics(
            HEURISTICS
                .iter()
                .map(|h| {
                    let alloc = h.allocate(g, matrix);
                    let schedule = ListScheduler.map(g, matrix, &alloc);
                    let valid = validate_schedule(g, matrix, &alloc, &schedule);
                    (alloc, schedule, valid)
                })
                .collect(),
        ),
    }
}

/// The checked result of one operation: the makespans it delivers (EMTS:
/// the best; heuristics: one each) and, for EMTS, its seeds' best.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    pub makespans: Vec<f64>,
    pub seed_makespan: Option<f64>,
}

/// Checks an operation's output: every schedule is valid for its
/// allocation, the full mapping reproduces the makespan the fast path
/// reported to the bit, and EMTS is no worse than its seeds.
pub fn check(i: usize, item: &Item, out: &Outcome) -> Result<Delivered, String> {
    let (g, matrix) = (&item.g, &item.matrix);
    let in_range = |a: &Allocation| {
        a.is_valid_for(g, matrix.p_max())
            .then_some(())
            .ok_or(format!(
                "item {i}: allocation outside [1, {}]",
                matrix.p_max()
            ))
    };
    match out {
        Outcome::Emts(r) => {
            in_range(&r.best)?;
            let schedule = ListScheduler.map(g, matrix, &r.best);
            validate_schedule(g, matrix, &r.best, &schedule)
                .map_err(|v| format!("item {i}: {v}"))?;
            if schedule.makespan().to_bits() != r.best_makespan.to_bits() {
                return Err(format!(
                    "item {i}: mapped best has makespan {} but EMTS reported {}",
                    schedule.makespan(),
                    r.best_makespan
                ));
            }
            if r.best_makespan > r.seed_makespan {
                return Err(format!(
                    "item {i}: best {} is worse than the seeds' {}",
                    r.best_makespan, r.seed_makespan
                ));
            }
            Ok(Delivered {
                makespans: vec![r.best_makespan],
                seed_makespan: Some(r.seed_makespan),
            })
        }
        Outcome::Heuristics(runs) => {
            let mut makespans = Vec::with_capacity(runs.len());
            for (alloc, schedule, valid) in runs {
                in_range(alloc)?;
                valid.clone().map_err(|v| format!("item {i}: {v}"))?;
                let fast = ListScheduler.makespan(g, matrix, alloc);
                if schedule.makespan().to_bits() != fast.to_bits() {
                    return Err(format!(
                        "item {i}: map gives makespan {} but makespan() gives {fast}",
                        schedule.makespan()
                    ));
                }
                makespans.push(fast);
            }
            Ok(Delivered {
                makespans,
                seed_makespan: None,
            })
        }
    }
}

/// Runs the first few operations untimed.
pub fn warm_up(w: Workload, emts: &Emts, corpus: &[Item]) {
    for item in corpus.iter().take(WARM_UP_OPS) {
        std::hint::black_box(operate(w, emts, item));
    }
}

/// One checked pass: every item's checked result (or `None` where the
/// check failed) and the pass's summed operation time.
pub fn reference_pass(
    w: Workload,
    emts: &Emts,
    corpus: &[Item],
    fails: &mut Failures,
) -> (Vec<Option<(Outcome, Delivered)>>, f64) {
    let mut wall = 0.0;
    let results = corpus
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let out = timed(&mut wall, || operate(w, emts, item));
            let checked = check(i, item, &out);
            let ok = checked.as_ref().map(|_| ()).map_err(Clone::clone);
            fails.record(1, ok);
            checked.ok().map(|d| (out, d))
        })
        .collect();
    (results, wall)
}

/// The untraced run: set-up, then closed-loop passes over the corpus, each
/// preceded by one more set-up so the set-ups' median spans the run.
pub fn run(
    w: Workload,
    seed: u64,
    scale: f64,
    seconds: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    fails: &mut Failures,
) {
    let count = w.inputs(scale);
    let (corpus, first) = generate(w, seed, count);
    let mut setups = vec![first];
    let emts = Emts::new(EmtsConfig::emts10());
    warm_up(w, &emts, &corpus);

    let mut lat = Latencies::new(count);
    let mut reference: Vec<Option<Delivered>> = vec![None; count];
    let passes = harness::run_passes(seconds, MIN_PASSES, |_| {
        setups.push(rehearse(w, seed, count));
        for (i, item) in corpus.iter().enumerate() {
            let t = Instant::now();
            let out = operate(w, &emts, item);
            lat.push(i, t.elapsed().as_secs_f64());
            let outcome = check(i, item, &out).and_then(|d| match &reference[i] {
                None => {
                    reference[i] = Some(d);
                    Ok(())
                }
                Some(r) if *r == d => Ok(()),
                Some(r) => Err(format!(
                    "item {i}: result {d:?} differs from earlier pass {r:?}"
                )),
            });
            fails.record(1, outcome);
        }
    });

    let per_op = lat.per_op();
    m.set("setup_s", SetUpTime::median(&setups).total, setups.len());
    m.set("pass_s", per_op.iter().sum(), passes);
    harness::latency_metrics(m, notes, &per_op);
    m.set("passes", passes as f64, passes);
    m.set("ops_per_pass", count as f64, 1);
    quality(m, &corpus, &reference);
}

/// The traced run: set-ups with their layers timed, one untraced reference
/// pass, then replays (see [`crate::replay`]).
pub fn trace(
    w: Workload,
    seed: u64,
    scale: f64,
    seconds: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    fails: &mut Failures,
) {
    let start = Instant::now();
    let count = w.inputs(scale);
    let (corpus, first) = generate(w, seed, count);
    let mut setups = vec![first];
    setups.extend((1..SETUP_REPS).map(|_| rehearse(w, seed, count)));
    let median = SetUpTime::median(&setups);
    m.set("workloads.daggen_s", median.daggen, SETUP_REPS);
    m.set("exec_model.matrix_s", median.matrix, SETUP_REPS);
    let emts = Emts::new(EmtsConfig::emts10());
    warm_up(w, &emts, &corpus);
    let (reference, untraced) = reference_pass(w, &emts, &corpus, fails);
    let remaining = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    match w.ea_workers() {
        Some(workers) => crate::replay::trace_emts(
            workers, &corpus, &reference, untraced, remaining, m, notes, fails,
        ),
        None => crate::replay::trace_heuristics(
            &corpus, &reference, untraced, remaining, m, notes, fails,
        ),
    }
}

/// Schedule-quality metrics of the delivered makespans.
fn quality(m: &mut Metrics, corpus: &[Item], delivered: &[Option<Delivered>]) {
    let mut vs_lb = Vec::new();
    let mut gains = Vec::new();
    let mut makespans = Vec::new();
    for (item, d) in corpus.iter().zip(delivered) {
        let Some(d) = d else { continue };
        let lb = lower_bound(&item.g, &item.matrix);
        for &ms in &d.makespans {
            vs_lb.push(ms / lb);
            makespans.push(ms);
        }
        if let Some(seed) = d.seed_makespan {
            gains.push(seed / d.makespans[0]);
        }
    }
    if vs_lb.is_empty() {
        return; // every check failed; the run reports incorrect
    }
    m.set("makespan_vs_lb", stats::geo_mean(&vs_lb), vs_lb.len());
    m.set(
        "mean_makespan_s",
        makespans.iter().sum::<f64>() / makespans.len() as f64,
        makespans.len(),
    );
    if !gains.is_empty() {
        m.set("gain_over_seeds", stats::geo_mean(&gains), gains.len());
    }
}
