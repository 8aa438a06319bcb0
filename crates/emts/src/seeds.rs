//! Starting solutions (§III-B).
//!
//! "To obtain starting solutions, EMTS makes use of results produced by
//! other heuristics. In the present work, we execute the allocation
//! functions of MCPA and HCPA and encode their results as individuals in the
//! initial population. Additionally, we designed another heuristic
//! [Δ-critical processor sharing]."
//!
//! The population needs µ individuals; with three heuristic seeds the
//! remaining µ − 3 slots hold mutated copies of the seeds (round-robin), so
//! the initial population is diverse but anchored near the heuristic
//! solutions. With `heuristic_seeds` disabled (ablation), the population is
//! the all-ones allocation plus random perturbations of it.
//!
//! Inside an EMTS run, MCPA runs on a worker of the run's evaluation pool
//! while the calling thread runs HCPA and Δ-CP; the heuristics are
//! deterministic, so the population is the same either way.

use crate::config::EmtsConfig;
use crate::individual::Individual;
use crate::mutation::MutationOperator;
use crate::parallel::EvalPool;
use exec_model::TimeMatrix;
use heuristics::{Allocator, DeltaCritical, Hcpa, Mcpa};
use obs::Recorder;
use ptg::Ptg;
use rand::Rng;
use sched::{Allocation, ListScheduler, Mapper};

/// Builds and evaluates the initial population of µ individuals, on this
/// thread alone.
pub fn initial_population<R: Rng + ?Sized>(
    cfg: &EmtsConfig,
    op: &MutationOperator,
    g: &Ptg,
    matrix: &TimeMatrix,
    rng: &mut R,
) -> Vec<Individual> {
    EvalPool::with(g, matrix, false, |pool| {
        seed_population(cfg, op, g, matrix, pool, rng)
    })
}

/// [`initial_population`] with `pool`'s help: MCPA runs on a worker while
/// this thread runs HCPA and Δ-CP (all three here when `pool` has no
/// worker). The population keeps the order MCPA, HCPA, Δ-CP, and the
/// seed-mutants draw from `rng` afterwards, so it is the same at every
/// worker count.
pub(crate) fn seed_population<REC: Recorder, R: Rng + ?Sized>(
    cfg: &EmtsConfig,
    op: &MutationOperator,
    g: &Ptg,
    matrix: &TimeMatrix,
    pool: &mut EvalPool<'_, REC>,
    rng: &mut R,
) -> Vec<Individual> {
    let p_max = matrix.p_max();
    let mut seeds: Vec<(Allocation, &'static str)> = Vec::new();
    if cfg.heuristic_seeds {
        let mcpa = pool.spawn_seed(|g, matrix| Mcpa.allocate(g, matrix));
        let hcpa = Hcpa.allocate(g, matrix);
        let delta = DeltaCritical::new(cfg.delta).allocate(g, matrix);
        seeds.push((pool.join_seed(mcpa), "MCPA"));
        seeds.push((hcpa, "HCPA"));
        seeds.push((delta, "DeltaCritical"));
    } else {
        seeds.push((Allocation::ones(g.task_count()), "AllOne"));
    }
    seeds.truncate(cfg.mu);

    let mut population: Vec<Individual> = Vec::with_capacity(cfg.mu);
    for (alloc, origin) in &seeds {
        let fitness = ListScheduler.makespan(g, matrix, alloc);
        population.push(Individual::new(alloc.clone(), fitness, origin));
    }
    // Fill the remaining slots with perturbed copies of the seeds.
    let m0 = ((cfg.fm * g.task_count() as f64).round() as usize).max(1);
    let mut next_seed = 0usize;
    while population.len() < cfg.mu {
        let mut alloc = seeds[next_seed % seeds.len()].0.clone();
        next_seed += 1;
        op.mutate(&mut alloc, m0, p_max, rng);
        let fitness = ListScheduler.makespan(g, matrix, &alloc);
        population.push(Individual::new(alloc, fitness, "seed-mutant"));
    }
    population
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::{Amdahl, TimeMatrix};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use workloads::{fft::fft_ptg, CostConfig};

    fn setup() -> (Ptg, TimeMatrix) {
        let g = fft_ptg(4, &CostConfig::default(), &mut ChaCha8Rng::seed_from_u64(5));
        let m = TimeMatrix::compute(&g, &Amdahl, 4.3e9, 20);
        (g, m)
    }

    #[test]
    fn population_has_mu_individuals_with_heuristic_anchors() {
        let (g, m) = setup();
        let cfg = EmtsConfig::emts5();
        let pop = initial_population(
            &cfg,
            &MutationOperator::paper(),
            &g,
            &m,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        assert_eq!(pop.len(), 5);
        let origins: Vec<&str> = pop.iter().map(|i| i.origin).collect();
        assert!(origins.contains(&"MCPA"));
        assert!(origins.contains(&"HCPA"));
        assert!(origins.contains(&"DeltaCritical"));
        assert_eq!(origins.iter().filter(|&&o| o == "seed-mutant").count(), 2);
    }

    #[test]
    fn seed_fitness_matches_direct_mapping() {
        let (g, m) = setup();
        let cfg = EmtsConfig::emts5();
        let pop = initial_population(
            &cfg,
            &MutationOperator::paper(),
            &g,
            &m,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        for ind in &pop {
            let direct = ListScheduler.makespan(&g, &m, &ind.alloc);
            assert_eq!(ind.fitness, direct, "{}", ind.origin);
        }
    }

    #[test]
    fn ablation_mode_uses_all_ones() {
        let (g, m) = setup();
        let cfg = EmtsConfig {
            heuristic_seeds: false,
            ..EmtsConfig::emts5()
        };
        let pop = initial_population(
            &cfg,
            &MutationOperator::paper(),
            &g,
            &m,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        assert_eq!(pop[0].origin, "AllOne");
        assert!(pop[0].alloc.as_slice().iter().all(|&s| s == 1));
        assert_eq!(pop.len(), 5);
    }

    #[test]
    fn tiny_mu_truncates_seed_list() {
        let (g, m) = setup();
        let cfg = EmtsConfig {
            mu: 2,
            ..EmtsConfig::emts5()
        };
        let pop = initial_population(
            &cfg,
            &MutationOperator::paper(),
            &g,
            &m,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        assert_eq!(pop.len(), 2);
    }

    #[test]
    fn all_individuals_are_valid_for_the_platform() {
        let (g, m) = setup();
        let cfg = EmtsConfig::emts10();
        let pop = initial_population(
            &cfg,
            &MutationOperator::paper(),
            &g,
            &m,
            &mut ChaCha8Rng::seed_from_u64(3),
        );
        assert_eq!(pop.len(), 10);
        for ind in &pop {
            assert!(ind.alloc.is_valid_for(&g, 20), "{}", ind.origin);
        }
    }
}
