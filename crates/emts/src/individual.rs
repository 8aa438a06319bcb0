//! EA individuals: an allocation with its (lazily attached) fitness.

use sched::{Allocation, BoundedEval};
use std::sync::Arc;

/// One individual of the EMTS population (the paper's Fig. 2 encoding).
///
/// Fitness is the makespan of the list-scheduled allocation — smaller is
/// fitter.
#[derive(Debug, Clone)]
pub struct Individual {
    /// The genotype: per-task processor counts.
    pub alloc: Allocation,
    /// The evaluated makespan in seconds.
    pub fitness: f64,
    /// Where this individual came from (seed name or `"mutant"`), kept for
    /// experiment traces.
    pub origin: &'static str,
    /// Unbounded evaluation of `alloc` from
    /// [`crate::FitnessEngine::record`]; the EA itself never sets it.
    /// Kept for the benchmark's layer-by-layer EA replay
    /// (`examples/benchmark/src/replay.rs`), its one user.
    #[doc(hidden)]
    pub record: Option<Arc<BoundedEval>>,
}

/// Identity is the genotype and its evaluation — the attached record is
/// derived data, not state.
impl PartialEq for Individual {
    fn eq(&self, other: &Self) -> bool {
        self.alloc == other.alloc && self.fitness == other.fitness && self.origin == other.origin
    }
}

impl Individual {
    /// Creates an evaluated individual.
    pub fn new(alloc: Allocation, fitness: f64, origin: &'static str) -> Self {
        assert!(
            fitness.is_finite() && fitness >= 0.0,
            "fitness must be a non-negative finite makespan"
        );
        Individual {
            alloc,
            fitness,
            origin,
            record: None,
        }
    }

    /// True if `self` is strictly fitter (smaller makespan) than `other`.
    pub fn fitter_than(&self, other: &Individual) -> bool {
        self.fitness < other.fitness
    }
}

/// Sorts a population by increasing makespan (fittest first) and truncates
/// to `mu` survivors — the plus/comma selection step.
pub fn select_best(mut pool: Vec<Individual>, mu: usize) -> Vec<Individual> {
    pool.sort_by(|a, b| {
        a.fitness
            .partial_cmp(&b.fitness)
            .expect("fitness values are finite")
    });
    pool.truncate(mu);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ind(fitness: f64) -> Individual {
        Individual::new(Allocation::ones(2), fitness, "test")
    }

    #[test]
    fn fitter_means_smaller_makespan() {
        assert!(ind(1.0).fitter_than(&ind(2.0)));
        assert!(!ind(2.0).fitter_than(&ind(1.0)));
        assert!(!ind(1.0).fitter_than(&ind(1.0)));
    }

    #[test]
    fn selection_keeps_the_best_mu() {
        let pool = vec![ind(3.0), ind(1.0), ind(2.0), ind(0.5)];
        let survivors = select_best(pool, 2);
        assert_eq!(survivors.len(), 2);
        assert_eq!(survivors[0].fitness, 0.5);
        assert_eq!(survivors[1].fitness, 1.0);
    }

    #[test]
    fn selection_with_large_mu_keeps_everyone_sorted() {
        let survivors = select_best(vec![ind(2.0), ind(1.0)], 10);
        assert_eq!(survivors.len(), 2);
        assert!(survivors[0].fitness <= survivors[1].fitness);
    }

    #[test]
    #[should_panic(expected = "fitness must be")]
    fn nan_fitness_is_rejected() {
        let _ = ind(f64::NAN);
    }
}
