//! Traced runs of the corpus workloads. Each operation is replayed through
//! the libraries' public functions with a timer around every call into a
//! layer, so the per-layer times add up to the replay's wall time and the
//! replay must reproduce the untraced result bit for bit.

use crate::corpus::{self, Item, Outcome, HEURISTICS};
use crate::harness::{self, timed, Failures, SETUP_REPS};
use crate::report::Metrics;
use crate::stats;
use emts::mutation::mutation_count;
use emts::seeds::initial_population;
use emts::MutationOperator;
use emts::{individual::select_best, Emts, EmtsConfig, EvalPool, FitnessEngine, Individual};
use heuristics::{Allocator, DeltaCritical, Hcpa, Mcpa};
use obs::{NoopRecorder, StatsRecorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{validate_schedule, Allocation, EvalScratch, ListScheduler, Mapper};
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer coverage outside this band means the replay times something other
/// than what the workload runs.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.95..=1.05;

/// Per-pass totals by name; a layer's value is its median over passes.
#[derive(Default)]
struct PassTotals(BTreeMap<&'static str, Vec<f64>>);

impl PassTotals {
    fn push(&mut self, pass: &BTreeMap<&'static str, f64>) {
        for (&k, &v) in pass {
            self.0.entry(k).or_default().push(v);
        }
    }

    fn median(&self, k: &str) -> f64 {
        self.0.get(k).map_or(0.0, |v| stats::median(v))
    }
}

/// The EA layers a replay times.
pub const EA_LAYERS: [&str; 5] = ["seed", "record", "mutate", "evaluate", "select"];

/// Outcome and measurements of one replayed EMTS run.
#[derive(Default)]
struct EaReplay {
    best: Option<(Allocation, f64)>,
    /// Seconds per layer, in [`EA_LAYERS`] order.
    layers: [f64; 5],
    /// Seconds spent starting and joining the evaluation pool's workers.
    pool: f64,
    wall: f64,
    offspring: usize,
    evals: usize,
    cache_hits: usize,
    pruned: usize,
    survivors: usize,
    pool_retries: u64,
    /// Every generation's offspring and survival cutoff, for the mapper
    /// probe.
    batches: Vec<(Vec<Allocation>, f64)>,
}

/// Replays `Emts::run_with_workers` for the configuration the workloads
/// use (no crossover, rejection, time budget or adaptive σ): the same RNG
/// draws, the same evaluation path (serial delta with no workers, pooled
/// batches otherwise) and the same survival cutoff. With `keep_batches`
/// the offspring are kept for the mapper probe.
fn replay_emts(item: &Item, cfg: &EmtsConfig, workers: usize, keep_batches: bool) -> EaReplay {
    let (g, matrix) = (&item.g, &item.matrix);
    let op = MutationOperator {
        shrink_prob: cfg.shrink_prob,
        sigma_shrink: cfg.sigma_shrink,
        sigma_stretch: cfg.sigma_stretch,
        uniform: cfg.uniform_mutation,
    };
    let start = Instant::now();
    let (mut out, leaving) = EvalPool::with_workers(g, matrix, workers, &NoopRecorder, |pool| {
        let mut r = EaReplay {
            pool: start.elapsed().as_secs_f64(),
            ..EaReplay::default()
        };
        let [seed_s, record_s, mutate_s, evaluate_s, select_s] = &mut r.layers;
        let mut rng = ChaCha8Rng::seed_from_u64(item.ea_seed);
        let (v, p_max) = (g.task_count(), matrix.p_max());
        let mut use_delta = pool.workers() == 0;
        let mut engine = FitnessEngine::new(pool);
        let mut population = timed(seed_s, || initial_population(cfg, &op, g, matrix, &mut rng));
        for u in 0..cfg.generations {
            engine.begin_generation();
            if !use_delta && engine.pool_degraded() {
                use_delta = true;
            }
            if use_delta {
                timed(record_s, || {
                    for ind in population.iter_mut().filter(|i| i.record.is_none()) {
                        ind.record = Some(engine.record(&ind.alloc));
                    }
                });
            }
            let m = mutation_count(u, cfg.generations, cfg.fm, v);
            let (allocs, changed, parents) = timed(mutate_s, || {
                let (mut allocs, mut changed, mut parents) = (vec![], vec![], vec![]);
                for _ in 0..cfg.lambda {
                    let pidx = rng.gen_range(0..population.len());
                    let mut alloc = population[pidx].alloc.clone();
                    changed.push(op.mutate(&mut alloc, m, p_max, &mut rng));
                    allocs.push(alloc);
                    parents.push(pidx);
                }
                (allocs, changed, parents)
            });
            let cutoff = population.iter().map(|i| i.fitness).fold(0.0f64, f64::max);
            let fitness: Vec<Option<f64>> = timed(evaluate_s, || {
                if use_delta {
                    allocs
                        .iter()
                        .zip(&changed)
                        .zip(&parents)
                        .map(|((alloc, changed), &p)| {
                            let record = population[p].record.as_deref();
                            engine.eval_offspring(record, alloc, changed, cutoff)
                        })
                        .collect()
                } else {
                    engine.evaluate(&allocs, cutoff)
                }
            });
            if keep_batches {
                r.batches.push((allocs.clone(), cutoff));
            }
            r.offspring += allocs.len();
            r.pruned += fitness.iter().filter(|f| f.is_none()).count();
            // Offspring carry a marker origin through selection so the
            // survivors among them can be counted; selection orders by
            // fitness alone, so the marker changes nothing.
            population = timed(select_s, || {
                let offspring = allocs
                    .into_iter()
                    .zip(fitness)
                    .filter_map(|(a, f)| f.map(|f| Individual::new(a, f, "offspring")));
                let mut pool = population;
                pool.extend(offspring);
                select_best(pool, cfg.mu)
            });
            for ind in population.iter_mut().filter(|i| i.origin == "offspring") {
                ind.origin = "mutant";
                r.survivors += 1;
            }
        }
        r.evals = engine.cache_misses();
        r.cache_hits = engine.cache_hits();
        r.pool_retries = engine.serial_fallbacks() + engine.pool_respawns();
        let best = population
            .into_iter()
            .min_by(|a, b| a.fitness.partial_cmp(&b.fitness).expect("finite fitness"))
            .expect("population is never empty");
        r.best = Some((best.alloc, best.fitness));
        (r, Instant::now())
    });
    out.pool += leaving.elapsed().as_secs_f64();
    out.wall = start.elapsed().as_secs_f64();
    out
}

/// Seconds per call of the full mapper, the makespan-only mapper and the
/// validator on one delivered allocation: (map, makespan, validate).
fn delivery_probe(item: &Item, alloc: &Allocation) -> [f64; 3] {
    let (g, matrix) = (&item.g, &item.matrix);
    let mut t = [0.0; 3];
    let schedule = timed(&mut t[0], || ListScheduler.map(g, matrix, alloc));
    std::hint::black_box(timed(&mut t[1], || {
        ListScheduler.makespan(g, matrix, alloc)
    }));
    let valid = timed(&mut t[2], || validate_schedule(g, matrix, alloc, &schedule));
    std::hint::black_box(valid.is_ok());
    t
}

/// Traced run of an EMTS workload, after the untraced reference pass.
#[allow(clippy::too_many_arguments)]
pub fn trace_emts(
    workers: usize,
    corpus: &[Item],
    reference: &[Option<(Outcome, corpus::Delivered)>],
    untraced_wall: f64,
    seconds: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    fails: &mut Failures,
) {
    let cfg = EmtsConfig::emts10();
    let emts = Emts::new(cfg.clone());
    let count = corpus.len();

    // In-run phase totals from the program's own `ea/*` spans.
    let mut inrun = BTreeMap::new();
    for item in corpus {
        let rec = StatsRecorder::new();
        emts.run_with_workers(&item.g, &item.matrix, item.ea_seed, workers, &rec);
        for layer in EA_LAYERS {
            let name = format!("ea/{layer}");
            *inrun.entry(layer).or_insert(0.0) += rec.phase_seconds(&name);
        }
    }

    // The seeding heuristics, timed by direct calls on the same inputs.
    let mut alloc_s = [0.0; 3];
    let delta = DeltaCritical::new(cfg.delta);
    let seeders: [&dyn Allocator; 3] = [&Mcpa, &Hcpa, &delta];
    for item in corpus {
        for (acc, h) in alloc_s.iter_mut().zip(seeders) {
            std::hint::black_box(timed(acc, || h.allocate(&item.g, &item.matrix)));
        }
    }

    let mut totals = PassTotals::default();
    let mut counts = [0u64; 6];
    let (mut mapper_s, mut probe) = (0.0, [0.0; 3]);
    let passes = harness::run_passes(seconds, 1, |pass| {
        let mut t: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut pass_counts = [0u64; 6];
        for (i, item) in corpus.iter().enumerate() {
            let r = replay_emts(item, &cfg, workers, pass == 0);
            for (layer, s) in EA_LAYERS
                .iter()
                .chain(&["pool", "wall"])
                .zip(r.layers.iter().chain(&[r.pool, r.wall]))
            {
                *t.entry(layer).or_insert(0.0) += s;
            }
            let c = [r.offspring, r.evals, r.cache_hits, r.pruned, r.survivors];
            for (acc, x) in pass_counts.iter_mut().zip(c) {
                *acc += x as u64;
            }
            pass_counts[5] += r.pool_retries;
            let (best, best_makespan) = r.best.clone().expect("replay sets the best");
            let outcome = match &reference[i] {
                Some((Outcome::Emts(e), _))
                    if e.best == best && e.best_makespan.to_bits() == best_makespan.to_bits() =>
                {
                    Ok(())
                }
                Some((Outcome::Emts(e), _)) => Err(format!(
                    "item {i}: replay best {best_makespan} differs from the run's {}",
                    e.best_makespan
                )),
                _ => Err(format!("item {i}: no checked reference result to replay")),
            };
            fails.record(1, outcome);
            if pass == 0 {
                let mut scratch =
                    EvalScratch::with_capacity(item.g.task_count(), item.matrix.p_max());
                timed(&mut mapper_s, || {
                    for (allocs, cutoff) in &r.batches {
                        for a in allocs {
                            std::hint::black_box(ListScheduler.makespan_bounded_with(
                                &item.g,
                                &item.matrix,
                                a,
                                *cutoff,
                                &mut scratch,
                            ));
                        }
                    }
                });
                for (acc, x) in probe.iter_mut().zip(delivery_probe(item, &best)) {
                    *acc += x;
                }
            }
        }
        let covered: f64 = EA_LAYERS.iter().chain(&["pool"]).map(|l| t[l]).sum();
        t.insert("coverage", covered / t["wall"]);
        totals.push(&t);
        counts = pass_counts;
    });

    let wall = totals.median("wall");
    let [offspring, evals, cache_hits, pruned, survivors, pool_retries] = counts;
    for (name, s) in [
        "heuristics.mcpa_s",
        "heuristics.hcpa_s",
        "heuristics.delta_cp_s",
    ]
    .iter()
    .zip(alloc_s)
    {
        m.set(name, s, count);
    }
    m.set("heuristics.allocate_s", alloc_s.iter().sum(), count);
    m.set("heuristics.calls", (3 * count) as f64, 1);
    for layer in EA_LAYERS {
        let s = totals.median(layer);
        m.set(&format!("emts.{layer}_s"), s, passes);
        m.set(&format!("emts.{layer}_share"), s / wall, passes);
        m.set(&format!("emts.inrun.{layer}_s"), inrun[layer], count);
    }
    m.set("sched.map_share", 0.0, passes);
    m.set("sched.validate_share", 0.0, passes);
    m.set("emts.offspring", offspring as f64, 1);
    m.set("emts.evals", evals as f64, 1);
    m.set("emts.cache_hits", cache_hits as f64, 1);
    m.set("emts.pruned", pruned as f64, 1);
    m.set(
        "emts.useful_frac",
        survivors as f64 / (offspring - pruned) as f64,
        1,
    );
    m.set("emts.pool_retries", pool_retries as f64, 1);
    m.set("emts.pool_s", totals.median("pool"), passes);
    m.set(
        "emts.engine_ns_per_offspring",
        totals.median("evaluate") * 1e9 / offspring as f64,
        passes,
    );
    m.set(
        "sched.mapper_ns_per_eval",
        mapper_s * 1e9 / offspring as f64,
        offspring as usize,
    );
    delivery_metrics(m, probe, count);
    trace_metrics(m, notes, fails, &totals, passes, untraced_wall);
}

/// Traced run of the heuristics workload, after the untraced reference
/// pass.
pub fn trace_heuristics(
    corpus: &[Item],
    reference: &[Option<(Outcome, corpus::Delivered)>],
    untraced_wall: f64,
    seconds: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    fails: &mut Failures,
) {
    let count = corpus.len();
    let calls = HEURISTICS.len() * count;
    let mut totals = PassTotals::default();
    let mut makespan_s = 0.0;
    let passes = harness::run_passes(seconds, 1, |pass| {
        let mut t: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, item) in corpus.iter().enumerate() {
            let (g, matrix) = (&item.g, &item.matrix);
            let start = Instant::now();
            let mut makespans = Vec::with_capacity(HEURISTICS.len());
            let mut valid = Ok(());
            for (name, h) in ["mcpa", "hcpa"].into_iter().zip(HEURISTICS) {
                let alloc = timed(t.entry(name).or_insert(0.0), || h.allocate(g, matrix));
                let schedule = timed(t.entry("map").or_insert(0.0), || {
                    ListScheduler.map(g, matrix, &alloc)
                });
                let v = timed(t.entry("validate").or_insert(0.0), || {
                    validate_schedule(g, matrix, &alloc, &schedule)
                });
                valid = valid.and(v);
                makespans.push(schedule.makespan());
                if pass == 0 {
                    std::hint::black_box(timed(&mut makespan_s, || {
                        ListScheduler.makespan(g, matrix, &alloc)
                    }));
                }
            }
            *t.entry("wall").or_insert(0.0) += start.elapsed().as_secs_f64();
            let outcome = match &reference[i] {
                Some((_, d)) if valid.is_ok() && d.makespans == makespans => Ok(()),
                Some(_) => Err(format!(
                    "item {i}: replay differs from the run or is invalid"
                )),
                None => Err(format!("item {i}: no checked reference result to replay")),
            };
            fails.record(1, outcome);
        }
        let covered = t["mcpa"] + t["hcpa"] + t["map"] + t["validate"];
        t.insert("coverage", covered / t["wall"]);
        totals.push(&t);
    });

    let wall = totals.median("wall");
    let (mcpa, hcpa) = (totals.median("mcpa"), totals.median("hcpa"));
    let (map, validate) = (totals.median("map"), totals.median("validate"));
    m.set("heuristics.mcpa_s", mcpa, passes);
    m.set("heuristics.hcpa_s", hcpa, passes);
    m.set("heuristics.allocate_s", mcpa + hcpa, passes);
    m.set("heuristics.calls", calls as f64, 1);
    for layer in EA_LAYERS {
        m.set(&format!("emts.{layer}_share"), 0.0, passes);
    }
    m.set("sched.map_share", map / wall, passes);
    m.set("sched.validate_share", validate / wall, passes);
    for name in [
        "emts.offspring",
        "emts.evals",
        "emts.cache_hits",
        "emts.pruned",
    ] {
        m.set(name, 0.0, 1);
    }
    m.set(
        "sched.mapper_ns_per_eval",
        makespan_s * 1e9 / calls as f64,
        calls,
    );
    delivery_metrics(m, [map, makespan_s, validate], calls);
    trace_metrics(m, notes, fails, &totals, passes, untraced_wall);
}

/// Per-call mapping costs from summed (map, makespan, validate) seconds.
fn delivery_metrics(m: &mut Metrics, [map, makespan, validate]: [f64; 3], calls: usize) {
    m.set("sched.map_us_per_call", map * 1e6 / calls as f64, calls);
    m.set("sched.map_vs_makespan", map / makespan, calls);
    m.set(
        "sched.validate_us_per_call",
        validate * 1e6 / calls as f64,
        calls,
    );
}

/// The cross-checks every corpus trace reports (failing the run when the
/// layers do not cover the replay), and the zero shares and counts of the
/// online layers these workloads never enter.
fn trace_metrics(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    fails: &mut Failures,
    totals: &PassTotals,
    passes: usize,
    untraced_wall: f64,
) {
    let wall = totals.median("wall");
    let coverage = totals.median("coverage");
    m.set("trace.pass_s", wall, passes);
    m.set("trace.coverage", coverage, passes);
    m.set("trace.overhead", wall / untraced_wall, passes);
    if !COVERAGE.contains(&coverage) {
        fails.fail_run(format!(
            "layer coverage {coverage:.4} is outside {COVERAGE:?}"
        ));
    }
    for name in ["sim.decide_share", "sim.rings12_share"] {
        m.set(name, 0.0, passes);
    }
    for name in ["sim.decisions", "sim.reactive_replans", "sim.tasks_killed"] {
        m.set(name, 0.0, 1);
    }
    notes.push(format!(
        "{passes} traced pass(es) after {SETUP_REPS} set-ups and one untraced pass"
    ));
}
