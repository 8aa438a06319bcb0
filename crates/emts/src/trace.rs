//! Per-generation statistics for convergence analysis.

use serde::Serialize;

/// What the fitness engine did: memo hits and misses, and the evaluation
/// pool's failure counts. [`crate::FitnessEngine::counters`] returns the
/// running total; each [`GenerationStats`] row holds its generation's
/// difference, and a recorded run publishes the total once, as
/// `emts.cache.{hits,misses}` and
/// `pool.{worker_panics,respawns,serial_fallbacks}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FitnessCounters {
    /// Fitness requests answered from the memo cache (including in-batch
    /// duplicates).
    pub hits: u64,
    /// Fitness requests that ran the mapper.
    pub misses: u64,
    /// Worker evaluations that panicked and were contained (the affected
    /// items were re-evaluated on the caller — see `serial_fallbacks`).
    pub worker_panics: u64,
    /// Worker incarnations the pool respawned after an uncontained panic.
    pub respawns: u64,
    /// Batch items the caller re-evaluated serially after the pool failed
    /// to produce them.
    pub serial_fallbacks: u64,
}

impl FitnessCounters {
    /// Fraction of fitness requests served by the cache (0 when none were
    /// made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// `op` applied field by field.
    fn zip(self, other: Self, op: fn(u64, u64) -> u64) -> Self {
        FitnessCounters {
            hits: op(self.hits, other.hits),
            misses: op(self.misses, other.misses),
            worker_panics: op(self.worker_panics, other.worker_panics),
            respawns: op(self.respawns, other.respawns),
            serial_fallbacks: op(self.serial_fallbacks, other.serial_fallbacks),
        }
    }
}

impl std::ops::Sub for FitnessCounters {
    type Output = Self;
    fn sub(self, earlier: Self) -> Self {
        self.zip(earlier, |a, b| a - b)
    }
}

impl std::ops::Add for FitnessCounters {
    type Output = Self;
    fn add(self, other: Self) -> Self {
        self.zip(other, |a, b| a + b)
    }
}

impl std::iter::Sum for FitnessCounters {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// Fitness summary of one generation's surviving population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GenerationStats {
    /// 0-based generation index; `None` (`null` in JSON) for the seed
    /// population.
    pub generation: Option<usize>,
    /// Best (smallest) makespan in the population.
    pub best: f64,
    /// Mean makespan.
    pub mean: f64,
    /// Worst (largest) makespan.
    pub worst: f64,
    /// Number of alleles mutated per offspring this generation (0 for the
    /// seed population).
    pub mutated_alleles: usize,
    /// What the fitness engine did this generation. The seed population
    /// is evaluated outside the memo, so its row holds only what the
    /// pool's seed job cost: worker panics, respawns and fallbacks.
    pub counters: FitnessCounters,
}

impl GenerationStats {
    /// Summarizes a population's fitness values, which are finite
    /// ([`crate::Individual::new`] asserts it).
    pub fn from_fitness(
        generation: Option<usize>,
        fitness: &[f64],
        mutated_alleles: usize,
    ) -> Self {
        assert!(!fitness.is_empty(), "empty population");
        let mut best = f64::INFINITY;
        let mut worst = 0.0f64;
        let mut sum = 0.0f64;
        for &f in fitness {
            sum += f;
            best = best.min(f);
            worst = worst.max(f);
        }
        GenerationStats {
            generation,
            best,
            mean: sum / fitness.len() as f64,
            worst,
            mutated_alleles,
            counters: FitnessCounters::default(),
        }
    }

    /// The trajectory-defining fields: fitness summary and mutation
    /// strength, with float payloads compared bit-for-bit. Excludes the
    /// per-generation engine counters, which describe how the fitness was
    /// computed, not the search trajectory.
    pub fn fitness_key(&self) -> (Option<usize>, u64, u64, u64, usize) {
        (
            self.generation,
            self.best.to_bits(),
            self.mean.to_bits(),
            self.worst.to_bits(),
            self.mutated_alleles,
        )
    }
}

/// The full convergence record of one run: one row per generation, the
/// first describing the seed population.
///
/// Derefs to the generation vector: `trace[i]`, `trace.iter()`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ConvergenceTrace {
    /// One entry per generation; the first describes the seed population.
    pub generations: Vec<GenerationStats>,
}

impl ConvergenceTrace {
    /// The run's fitness-engine totals: the sum of the rows.
    pub fn counters(&self) -> FitnessCounters {
        self.iter().map(|g| g.counters).sum()
    }
}

impl std::ops::Deref for ConvergenceTrace {
    type Target = Vec<GenerationStats>;
    fn deref(&self) -> &Self::Target {
        &self.generations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_derefs_to_generations() {
        let c = |hits, misses| FitnessCounters {
            hits,
            misses,
            ..FitnessCounters::default()
        };
        let row = |generation, best, counters| GenerationStats {
            counters,
            ..GenerationStats::from_fitness(generation, &[best], 1)
        };
        let trace = ConvergenceTrace {
            generations: vec![
                row(None, 2.0, c(0, 0)),
                row(Some(0), 1.0, c(3, 9) - c(2, 5)),
            ],
        };
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].generation, None);
        assert_eq!(
            trace.iter().map(|t| t.best).fold(f64::INFINITY, f64::min),
            1.0
        );
        // Rows hold per-generation deltas; the trace's total is their sum.
        assert_eq!(trace[1].counters, c(1, 4));
        assert_eq!(trace.counters(), c(1, 4));
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut counters = FitnessCounters::default();
        assert_eq!(counters.hit_rate(), 0.0);
        counters.hits = 3;
        counters.misses = 1;
        assert_eq!(counters.hit_rate(), 0.75);
    }

    #[test]
    fn summary_statistics() {
        let s = GenerationStats::from_fitness(Some(2), &[3.0, 1.0, 2.0], 7);
        assert_eq!(s.best, 1.0);
        assert_eq!(s.worst, 3.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.generation, Some(2));
        assert_eq!(s.mutated_alleles, 7);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let _ = GenerationStats::from_fitness(Some(0), &[], 0);
    }
}
