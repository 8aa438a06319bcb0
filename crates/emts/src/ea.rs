//! The EMTS evolution loop (§III).

use crate::config::EmtsConfig;
use crate::crossover::single_point;
use crate::individual::{select_best, Individual};
use crate::mutation::{mutation_count, MutationOperator};
use crate::parallel::{EvalPool, FitnessEngine};
use crate::seeds::initial_population;
use crate::trace::{ConvergenceTrace, GenerationStats};
use exec_model::TimeMatrix;
use obs::Recorder;
use ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::{Allocation, ListScheduler, Mapper};
use std::time::{Duration, Instant};

/// The EMTS scheduler.
#[derive(Debug, Clone)]
pub struct Emts {
    cfg: EmtsConfig,
    op: MutationOperator,
}

/// Outcome of one EMTS run.
#[derive(Debug, Clone)]
pub struct EmtsResult {
    /// The best allocation found.
    pub best: Allocation,
    /// Makespan of `best` under the list-scheduling mapper.
    pub best_makespan: f64,
    /// Best makespan among the *seed* individuals (what the heuristics
    /// alone achieve); plus-selection guarantees
    /// `best_makespan ≤ seed_makespan`.
    pub seed_makespan: f64,
    /// Which seed/origin the best individual descended from at the moment
    /// of final selection (`"mutant"` once mutated).
    pub best_origin: &'static str,
    /// Per-generation fitness trace (first entry is the seed population),
    /// including the fitness engine's memo-cache counters.
    pub trace: ConvergenceTrace,
    /// Total fitness evaluations performed (seeds + offspring).
    pub evaluations: usize,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Generations actually executed (< configured when the time budget
    /// cuts the run short).
    pub generations_run: usize,
    /// Offspring whose mapping was aborted early by the rejection strategy
    /// (always 0 when `rejection` is off).
    pub rejected: usize,
    /// Offspring dropped by the (µ+λ) survival screen — their makespan
    /// provably exceeded the worst current parent, so plus-selection could
    /// never keep them. Counted separately from `rejected` (which tracks
    /// the paper's §VI cutoff) and always 0 under comma-selection or when
    /// the rejection strategy already owns the cutoff.
    pub pruned: usize,
}

impl EmtsResult {
    /// Relative improvement over the seeds: `seed_makespan / best_makespan`
    /// (≥ 1 by construction).
    pub fn improvement(&self) -> f64 {
        self.seed_makespan / self.best_makespan
    }
}

impl Emts {
    /// Creates an EMTS instance from a validated configuration.
    pub fn new(cfg: EmtsConfig) -> Self {
        cfg.validate();
        let op = MutationOperator {
            shrink_prob: cfg.shrink_prob,
            sigma_shrink: cfg.sigma_shrink,
            sigma_stretch: cfg.sigma_stretch,
            uniform: cfg.uniform_mutation,
        };
        Emts { cfg, op }
    }

    /// The active configuration.
    pub fn config(&self) -> &EmtsConfig {
        &self.cfg
    }

    /// Runs the evolution strategy on `g` for the platform captured in
    /// `matrix`, deterministically derived from `seed`.
    ///
    /// Fitness goes through the evaluation engine: a worker pool spawned
    /// once for the whole run (when `parallel_evaluation` is on) behind a
    /// memo cache — see [`crate::parallel`]. Neither changes any result.
    pub fn run(&self, g: &Ptg, matrix: &TimeMatrix, seed: u64) -> EmtsResult {
        EvalPool::with(g, matrix, self.cfg.parallel_evaluation, |pool| {
            self.run_with_pool(g, matrix, seed, pool, None, &[])
        })
    }

    /// Anytime/budgeted mode for the online control loop: like
    /// [`Self::run_recorded`], but the generation loop additionally stops
    /// at an absolute wall-clock `deadline` (checked at generation
    /// boundaries; best-so-far is returned), and `warm` allocations —
    /// typically the incumbent plan of the previous decision epoch — are
    /// merged into the seed population before evolution starts.
    ///
    /// Warm individuals that duplicate an existing seed are skipped, and
    /// with `deadline = None` and `warm = &[]` this is bit-identical to
    /// [`Self::run_recorded`] — the default path consumes the exact same
    /// RNG stream and performs no extra selection.
    pub fn run_deadline<R: Recorder>(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        seed: u64,
        deadline: Option<Instant>,
        warm: &[Allocation],
        rec: &R,
    ) -> EmtsResult {
        EvalPool::with_recorder(g, matrix, self.cfg.parallel_evaluation, rec, |pool| {
            self.run_with_pool(g, matrix, seed, pool, deadline, warm)
        })
    }

    /// [`Self::run`] with telemetry: the whole run is wrapped in an `ea`
    /// span with per-generation `seed` / `mutate` / `evaluate` / `select`
    /// child spans, the engine's memo counters and the pool's latency
    /// histograms flow into `rec`, and the outcome is summarized into the
    /// `emts.*` counters and gauges. Results are bit-identical to
    /// [`Self::run`] — telemetry never touches the RNG or the search.
    pub fn run_recorded<R: Recorder>(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        seed: u64,
        rec: &R,
    ) -> EmtsResult {
        EvalPool::with_recorder(g, matrix, self.cfg.parallel_evaluation, rec, |pool| {
            self.run_with_pool(g, matrix, seed, pool, None, &[])
        })
    }

    /// [`Self::run_recorded`] with an explicit worker count, bypassing the
    /// machine-derived default (and `parallel_evaluation`): benchmarks pin
    /// their concurrency with it, and the robustness tests use it to force
    /// a worker-backed pool on single-core machines. Results are
    /// bit-identical to [`Self::run`] for any worker count.
    pub fn run_with_workers<R: Recorder>(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        seed: u64,
        workers: usize,
        rec: &R,
    ) -> EmtsResult {
        EvalPool::with_workers(g, matrix, workers, rec, |pool| {
            self.run_with_pool(g, matrix, seed, pool, None, &[])
        })
    }

    fn run_with_pool<R: Recorder>(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        seed: u64,
        pool: &mut EvalPool<'_, R>,
        deadline: Option<Instant>,
        warm: &[Allocation],
    ) -> EmtsResult {
        let rec = pool.recorder();
        let _run_span = rec.span("ea");
        // lint:allow(src-timing) -- results report elapsed wall time.
        let start = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let v = g.task_count();
        let p_max = matrix.p_max();
        let cfg = &self.cfg;
        // Local copy so the 1/5 success rule can adapt σ without mutating
        // the scheduler object (runs stay independent).
        let mut op = self.op;

        let mut engine = FitnessEngine::new(pool);
        let mut population = rec.time("seed", || initial_population(cfg, &op, g, matrix, &mut rng));
        let mut evaluations = population.len();
        if !warm.is_empty() {
            // Warm-start from incumbent individuals (online rolling
            // horizon): inject them alongside the heuristic seeds, then
            // keep the best µ. Exact duplicates of existing members are
            // skipped — in particular, a warm seed that *is* one of the
            // heuristic seeds leaves the run bit-identical to a cold
            // start (no extra evaluation, no re-sorting of the
            // population, same RNG stream).
            let mut merged = false;
            for alloc in warm {
                assert_eq!(alloc.len(), v, "warm allocation/PTG size mismatch");
                let mut a = alloc.clone();
                a.clamp(p_max);
                if population.iter().any(|ind| ind.alloc == a) {
                    continue;
                }
                let fitness = ListScheduler.makespan(g, matrix, &a);
                population.push(Individual::new(a, fitness, "warm"));
                evaluations += 1;
                merged = true;
            }
            if merged {
                population = select_best(population, cfg.mu);
            }
        }
        let seed_makespan = population
            .iter()
            .map(|i| i.fitness)
            .fold(f64::INFINITY, f64::min);
        let mut trace = ConvergenceTrace::with_capacity(cfg.generations + 1);
        trace.push(GenerationStats::from_fitness(
            GenerationStats::SEED,
            &population.iter().map(|i| i.fitness).collect::<Vec<_>>(),
            0,
        ));

        let mut generations_run = 0;
        let mut rejected = 0usize;
        let mut pruned = 0usize;
        for u in 0..cfg.generations {
            if let Some(budget) = cfg.time_budget {
                if start.elapsed() >= budget {
                    break;
                }
            }
            // lint:allow(src-timing) -- anytime-mode deadline, checked at generation boundaries
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            engine.begin_generation();
            // Timeline marker plus counter snapshots: the per-generation
            // series in the trace records each counter's delta over this
            // generation, not the running total.
            rec.event("ea.generation", u as u64);
            let gen_hits = engine.cache_hits();
            let gen_misses = engine.cache_misses();
            let m = mutation_count(u, cfg.generations, cfg.fm, v);
            // Mutation consumes the RNG on this thread only, so parallel
            // fitness evaluation cannot change the search trajectory.
            let gen_start_best = population
                .iter()
                .map(|i| i.fitness)
                .fold(f64::INFINITY, f64::min);
            let mut offspring_allocs: Vec<Allocation> = Vec::with_capacity(cfg.lambda);
            rec.time("mutate", || {
                for _ in 0..cfg.lambda {
                    let pidx = rand::Rng::gen_range(&mut rng, 0..population.len());
                    // Optional single-point crossover before mutation. The
                    // outer probability guard must precede every RNG draw so
                    // the default configuration (crossover_prob = 0.0, the
                    // paper's pure ES) consumes the exact same stream as
                    // before the operator existed.
                    let mut alloc = if cfg.crossover_prob > 0.0
                        && population.len() > 1
                        && rand::Rng::gen_bool(&mut rng, cfg.crossover_prob)
                    {
                        // Second parent distinct from the first.
                        let mut qidx = rand::Rng::gen_range(&mut rng, 0..population.len() - 1);
                        if qidx >= pidx {
                            qidx += 1;
                        }
                        single_point(&population[pidx].alloc, &population[qidx].alloc, &mut rng)
                    } else {
                        population[pidx].alloc.clone()
                    };
                    op.mutate(&mut alloc, m, p_max, &mut rng);
                    offspring_allocs.push(alloc);
                }
            });
            // Rejection cutoff: fixed at the generation's start so the
            // result is independent of evaluation order. With
            // comma-selection every offspring must survive, so rejection is
            // unsound there and disabled.
            let rejection_cutoff = if cfg.rejection && !cfg.comma_selection {
                let best = population
                    .iter()
                    .map(|i| i.fitness)
                    .fold(f64::INFINITY, f64::min);
                best * cfg.rejection_slack
            } else {
                f64::INFINITY
            };
            // Survival screen: under plus-selection an offspring whose
            // makespan exceeds the worst current parent is discarded by
            // select_best with certainty (µ parents all rank ahead of it),
            // so evaluating past that bound is wasted work. A screened-out
            // offspring also never counts as a 1/5-rule success (its
            // makespan exceeds the generation-start best), so the whole
            // trajectory — selection, σ adaptation, RNG stream — is
            // untouched. Unsound under comma-selection, where parents die.
            let survival_cutoff = if cfg.comma_selection {
                f64::INFINITY
            } else {
                population.iter().map(|i| i.fitness).fold(0.0f64, f64::max)
            };
            let cutoff = rejection_cutoff.min(survival_cutoff);
            let fitness: Vec<Option<f64>> =
                rec.time("evaluate", || engine.evaluate(&offspring_allocs, cutoff));
            evaluations += offspring_allocs.len();
            let offspring: Vec<Individual> = offspring_allocs
                .into_iter()
                .zip(fitness)
                .filter_map(|(alloc, f)| match f {
                    Some(f) => Some(Individual::new(alloc, f, "mutant")),
                    None => {
                        if cfg.rejection {
                            rejected += 1;
                        } else {
                            pruned += 1;
                        }
                        None
                    }
                })
                .collect();
            let _select_span = rec.span("select");
            if cfg.adaptive_sigma {
                // Rechenberg's 1/5 success rule: an offspring counts as a
                // success when it beats the generation-start best. The
                // factor 1.22 ≈ e^0.2 is the classic choice; σ is kept in
                // [0.5, P] so steps stay meaningful.
                let successes = offspring
                    .iter()
                    .filter(|o| o.fitness < gen_start_best)
                    .count();
                let factor = if (successes as f64) > cfg.lambda as f64 / 5.0 {
                    1.22
                } else {
                    1.0 / 1.22
                };
                op.sigma_shrink = (op.sigma_shrink * factor).clamp(0.5, p_max as f64);
                op.sigma_stretch = (op.sigma_stretch * factor).clamp(0.5, p_max as f64);
            }

            population = if cfg.comma_selection {
                // (µ, λ): parents die; requires λ ≥ µ to sustain the
                // population.
                select_best(offspring, cfg.mu)
            } else {
                // (µ + λ): the paper's plus-strategy conserves the best
                // individual, so fitness never regresses.
                let mut pool = population;
                pool.extend(offspring);
                select_best(pool, cfg.mu)
            };
            generations_run = u + 1;
            let mut stats = GenerationStats::from_fitness(
                u,
                &population.iter().map(|i| i.fitness).collect::<Vec<_>>(),
                m,
            );
            stats.cache_hits = engine.cache_hits() - gen_hits;
            stats.cache_misses = engine.cache_misses() - gen_misses;
            trace.push(stats);
        }

        trace.cache_hits = engine.cache_hits();
        trace.cache_misses = engine.cache_misses();
        trace.worker_panics = engine.worker_panics();
        trace.pool_respawns = engine.pool_respawns();
        trace.serial_fallbacks = engine.serial_fallbacks();
        let best = population
            .into_iter()
            .min_by(|a, b| {
                a.fitness
                    .partial_cmp(&b.fitness)
                    .expect("fitness values are finite")
            })
            .expect("population is never empty");
        if R::ENABLED {
            // The engine emits hit/miss deltas as they happen; a run whose
            // offspring all miss (or a zero-generation run) must still
            // surface both counters, so touch them with zero deltas.
            rec.add("emts.cache.hits", 0);
            rec.add("emts.cache.misses", 0);
            rec.add("emts.evaluations", evaluations as u64);
            rec.add("emts.rejected", rejected as u64);
            rec.add("emts.pruned", pruned as u64);
            rec.add("emts.generations", generations_run as u64);
            rec.gauge("emts.best_makespan", best.fitness);
            rec.gauge("emts.seed_makespan", seed_makespan);
        }
        EmtsResult {
            best_makespan: best.fitness,
            seed_makespan,
            best_origin: best.origin,
            best: best.alloc,
            trace,
            evaluations,
            wall_time: start.elapsed(),
            generations_run,
            rejected,
            pruned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::{Amdahl, SyntheticModel};
    use heuristics::{allocate_and_map, Hcpa, Mcpa};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use workloads::{daggen::random_ptg, fft::fft_ptg, CostConfig, DaggenParams};

    fn fft_setup(model2: bool) -> (Ptg, TimeMatrix) {
        let g = fft_ptg(
            8,
            &CostConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(21),
        );
        let m = if model2 {
            TimeMatrix::compute(&g, &SyntheticModel::default(), 4.3e9, 20)
        } else {
            TimeMatrix::compute(&g, &Amdahl, 4.3e9, 20)
        };
        (g, m)
    }

    #[test]
    fn plus_selection_never_loses_to_seeds() {
        let (g, m) = fft_setup(true);
        let result = Emts::new(EmtsConfig::emts5()).run(&g, &m, 1);
        assert!(result.best_makespan <= result.seed_makespan);
        assert!(result.improvement() >= 1.0);
    }

    #[test]
    fn emts_beats_both_heuristics_or_ties() {
        let (g, m) = fft_setup(true);
        let result = Emts::new(EmtsConfig::emts5()).run(&g, &m, 2);
        let (_, ms_mcpa) = allocate_and_map(&Mcpa, &g, &m);
        let (_, ms_hcpa) = allocate_and_map(&Hcpa, &g, &m);
        assert!(result.best_makespan <= ms_mcpa + 1e-9);
        assert!(result.best_makespan <= ms_hcpa + 1e-9);
    }

    #[test]
    fn trace_best_is_monotone_under_plus_selection() {
        let (g, m) = fft_setup(true);
        let result = Emts::new(EmtsConfig::emts5()).run(&g, &m, 3);
        let bests: Vec<f64> = result.trace.iter().map(|t| t.best).collect();
        for w in bests.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "best regressed: {bests:?}");
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let (g, m) = fft_setup(true);
        let emts = Emts::new(EmtsConfig::emts5());
        let a = emts.run(&g, &m, 7);
        let b = emts.run(&g, &m, 7);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_makespan, b.best_makespan);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (g, m) = fft_setup(true);
        let emts = Emts::new(EmtsConfig::emts5());
        let a = emts.run(&g, &m, 1);
        let b = emts.run(&g, &m, 2);
        // Same final makespan is possible, identical full traces are not
        // (λ·U = 125 random mutations each).
        assert!(
            a.trace.iter().zip(&b.trace).any(|(x, y)| x.mean != y.mean),
            "traces identical across seeds"
        );
    }

    #[test]
    fn evaluation_budget_is_accounted() {
        let (g, m) = fft_setup(false);
        let result = Emts::new(EmtsConfig::emts5()).run(&g, &m, 4);
        // 5 seeds + 5 generations × 25 offspring
        assert_eq!(result.evaluations, 5 + 5 * 25);
        assert_eq!(result.generations_run, 5);
        assert_eq!(result.trace.len(), 6);
    }

    #[test]
    fn cache_counters_account_for_every_offspring() {
        let (g, m) = fft_setup(true);
        let r = Emts::new(EmtsConfig::emts5()).run(&g, &m, 2);
        // Seeds are evaluated during population init; the engine sees the
        // λ offspring of each of the 5 generations.
        assert_eq!(r.trace.cache_hits + r.trace.cache_misses, 5 * 25);
        assert!((0.0..=1.0).contains(&r.trace.cache_hit_rate()));
    }

    #[test]
    fn survival_pruning_never_changes_the_outcome_visible_to_selection() {
        // The survival screen only drops offspring that plus-selection
        // would discard anyway, and the engine is bit-identical at every
        // worker count. Spot-check: serial and pooled runs of the same
        // config and seed agree exactly.
        let (g, m) = fft_setup(true);
        let serial = Emts::new(EmtsConfig {
            parallel_evaluation: false,
            ..EmtsConfig::emts5()
        })
        .run(&g, &m, 11);
        let parallel = Emts::new(EmtsConfig::emts5()).run(&g, &m, 11);
        assert_eq!(serial.best, parallel.best);
        assert_eq!(
            serial.best_makespan.to_bits(),
            parallel.best_makespan.to_bits()
        );
        let keys = |r: &EmtsResult| {
            r.trace
                .iter()
                .map(GenerationStats::fitness_key)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&serial), keys(&parallel));
    }

    #[test]
    fn crossover_keeps_plus_selection_guarantees_and_determinism() {
        let (g, m) = fft_setup(true);
        let cfg = EmtsConfig {
            crossover_prob: 0.5,
            ..EmtsConfig::emts5()
        };
        let a = Emts::new(cfg.clone()).run(&g, &m, 13);
        let b = Emts::new(cfg).run(&g, &m, 13);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_makespan.to_bits(), b.best_makespan.to_bits());
        assert!(a.best_makespan <= a.seed_makespan + 1e-12);
        assert!(a.best.is_valid_for(&g, 20));
        // Recombination must actually change the search relative to the
        // pure ES under the same seed.
        let pure = Emts::new(EmtsConfig::emts5()).run(&g, &m, 13);
        assert!(
            a.trace
                .iter()
                .zip(&pure.trace)
                .any(|(x, y)| x.mean != y.mean),
            "crossover had no effect on the trajectory"
        );
    }

    #[test]
    fn crossover_prob_zero_is_bit_identical_to_the_pure_es() {
        // The guard must keep the RNG stream untouched: explicitly setting
        // 0.0 and the default must coincide to the bit.
        let (g, m) = fft_setup(true);
        let base = Emts::new(EmtsConfig::emts5()).run(&g, &m, 7);
        let zero = Emts::new(EmtsConfig {
            crossover_prob: 0.0,
            ..EmtsConfig::emts5()
        })
        .run(&g, &m, 7);
        assert_eq!(base.best, zero.best);
        let keys = |r: &EmtsResult| {
            r.trace
                .iter()
                .map(GenerationStats::fitness_key)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&base), keys(&zero));
    }

    #[test]
    fn emts10_does_at_least_as_well_as_emts5() {
        // Same seed ⇒ EMTS10 explores a superset-quality search: not a
        // strict guarantee (different stream shapes), so compare best to
        // seed instead: both must be ≤ seeds, and EMTS10 must not be worse
        // than its own seed baseline.
        let (g, m) = fft_setup(true);
        let r5 = Emts::new(EmtsConfig::emts5()).run(&g, &m, 5);
        let r10 = Emts::new(EmtsConfig::emts10()).run(&g, &m, 5);
        assert!(r5.best_makespan <= r5.seed_makespan);
        assert!(r10.best_makespan <= r10.seed_makespan);
    }

    #[test]
    fn zero_time_budget_skips_evolution() {
        let (g, m) = fft_setup(false);
        let cfg = EmtsConfig {
            time_budget: Some(Duration::ZERO),
            ..EmtsConfig::emts5()
        };
        let result = Emts::new(cfg).run(&g, &m, 6);
        assert_eq!(result.generations_run, 0);
        assert_eq!(result.best_makespan, result.seed_makespan);
    }

    #[test]
    fn comma_selection_still_produces_valid_results() {
        let (g, m) = fft_setup(true);
        let cfg = EmtsConfig {
            comma_selection: true,
            ..EmtsConfig::emts5()
        };
        let result = Emts::new(cfg).run(&g, &m, 8);
        assert!(result.best.is_valid_for(&g, 20));
        assert!(result.best_makespan.is_finite());
    }

    #[test]
    fn improves_irregular_graphs_on_large_platform() {
        // The paper's headline case: irregular 100-task PTG on Grelon under
        // Model 2 — EMTS should strictly improve on MCPA and HCPA here.
        let params = DaggenParams {
            n: 100,
            width: 0.5,
            regularity: 0.2,
            density: 0.2,
            jump: 2,
        };
        let g = random_ptg(
            &params,
            &CostConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(33),
        );
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, 120);
        let result = Emts::new(EmtsConfig::emts5()).run(&g, &m, 9);
        let (_, ms_mcpa) = allocate_and_map(&Mcpa, &g, &m);
        assert!(
            result.best_makespan < ms_mcpa,
            "EMTS {} should beat MCPA {}",
            result.best_makespan,
            ms_mcpa
        );
    }

    #[test]
    fn adaptive_sigma_keeps_plus_selection_guarantees() {
        let (g, m) = fft_setup(true);
        for seed in 0..4 {
            let r = Emts::new(EmtsConfig {
                adaptive_sigma: true,
                ..EmtsConfig::emts10()
            })
            .run(&g, &m, seed);
            assert!(r.best_makespan <= r.seed_makespan + 1e-12);
            assert!(r.best.is_valid_for(&g, 20));
        }
    }

    #[test]
    fn adaptive_sigma_changes_the_search_trajectory() {
        let (g, m) = fft_setup(true);
        let fixed = Emts::new(EmtsConfig::emts10()).run(&g, &m, 5);
        let adaptive = Emts::new(EmtsConfig {
            adaptive_sigma: true,
            ..EmtsConfig::emts10()
        })
        .run(&g, &m, 5);
        // Identical until the first σ update kicks in; afterwards the
        // mutation stream differs. The traces should not be identical.
        assert!(
            fixed
                .trace
                .iter()
                .zip(&adaptive.trace)
                .any(|(a, b)| a.mean != b.mean),
            "adaptive sigma had no effect on the trajectory"
        );
    }

    #[test]
    fn rejection_preserves_the_best_result() {
        // With slack ≥ 1 the eventual best individual can never be
        // rejected (its makespan is ≤ the cutoff that would kill it), so
        // rejection must reproduce the exact same best makespan as the
        // unmodified EA under the same seed.
        let (g, m) = fft_setup(true);
        for seed in 0..4 {
            let base = Emts::new(EmtsConfig::emts5()).run(&g, &m, seed);
            let rej = Emts::new(EmtsConfig {
                rejection: true,
                rejection_slack: 1.0,
                ..EmtsConfig::emts5()
            })
            .run(&g, &m, seed);
            assert_eq!(base.rejected, 0);
            // Identical RNG stream (mutation happens before evaluation), so
            // the same offspring are generated; rejection only prunes ones
            // that plus-selection would discard anyway — except that pruned
            // mid-tier parents can change later parent sampling. The *best*
            // makespan must still never be worse than the seeds, and
            // rejection must actually fire sometimes.
            assert!(rej.best_makespan <= rej.seed_makespan + 1e-12);
            assert!(rej.best.is_valid_for(&g, 20));
        }
    }

    #[test]
    fn rejection_fires_and_is_counted() {
        let (g, m) = fft_setup(true);
        let mut any_rejected = 0;
        for seed in 0..6 {
            let rej = Emts::new(EmtsConfig {
                rejection: true,
                rejection_slack: 1.0,
                parallel_evaluation: false,
                ..EmtsConfig::emts5()
            })
            .run(&g, &m, seed);
            any_rejected += rej.rejected;
        }
        assert!(
            any_rejected > 0,
            "tight slack never rejected an offspring across 6 runs"
        );
    }

    #[test]
    fn rejection_is_disabled_under_comma_selection() {
        let (g, m) = fft_setup(true);
        let r = Emts::new(EmtsConfig {
            rejection: true,
            comma_selection: true,
            ..EmtsConfig::emts5()
        })
        .run(&g, &m, 3);
        assert_eq!(r.rejected, 0, "comma-selection must not reject");
    }

    #[test]
    fn best_allocation_is_always_platform_valid() {
        let (g, m) = fft_setup(true);
        for seed in 0..5 {
            let r = Emts::new(EmtsConfig::emts5()).run(&g, &m, seed);
            assert!(r.best.is_valid_for(&g, 20));
        }
    }
}
