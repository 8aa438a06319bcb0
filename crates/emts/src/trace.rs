//! Per-generation statistics for convergence analysis.

use serde::{Deserialize, Serialize};

/// Fitness summary of one generation's surviving population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// 0-based generation index (`usize::MAX` marks the seed population;
    /// use [`GenerationStats::is_seed`]).
    pub generation: usize,
    /// Best (smallest) makespan in the population.
    pub best: f64,
    /// Mean makespan over the *finite* fitness values.
    pub mean: f64,
    /// Worst (largest) makespan among the *finite* fitness values.
    pub worst: f64,
    /// Fitness values that were non-finite — individuals surfaced as
    /// `f64::INFINITY` by the rejection cutoff. They are excluded from
    /// `mean`/`worst` (one infinity would otherwise poison both).
    pub rejected: usize,
    /// Number of alleles mutated per offspring this generation (0 for the
    /// seed population).
    pub mutated_alleles: usize,
    /// Fitness requests this generation answered from the memo cache
    /// (including in-batch duplicates).
    #[serde(default)]
    pub cache_hits: usize,
    /// Fitness requests this generation that ran the mapper.
    #[serde(default)]
    pub cache_misses: usize,
}

impl GenerationStats {
    /// Marker value for the pre-evolution seed population.
    pub const SEED: usize = usize::MAX;

    /// Summarizes a population's fitness values.
    ///
    /// Non-finite values (rejected/cutoff individuals surfaced as
    /// `f64::INFINITY`) are counted in `rejected` and excluded from the
    /// summary statistics. If *every* value is non-finite the statistics
    /// degenerate to `f64::INFINITY` (best) and `0.0` (mean/worst).
    pub fn from_fitness(generation: usize, fitness: &[f64], mutated_alleles: usize) -> Self {
        assert!(!fitness.is_empty(), "empty population");
        let mut best = f64::INFINITY;
        let mut worst = 0.0f64;
        let mut sum = 0.0f64;
        let mut finite = 0usize;
        for &f in fitness {
            if f.is_finite() {
                finite += 1;
                sum += f;
                best = best.min(f);
                worst = worst.max(f);
            }
        }
        let mean = if finite == 0 {
            0.0
        } else {
            sum / finite as f64
        };
        GenerationStats {
            generation,
            best,
            mean,
            worst,
            rejected: fitness.len() - finite,
            mutated_alleles,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// True for the entry describing the seed population.
    pub fn is_seed(&self) -> bool {
        self.generation == Self::SEED
    }

    /// The trajectory-defining fields: fitness summary and mutation
    /// strength, with float payloads compared bit-for-bit. Excludes the
    /// per-generation engine counters, which describe how the fitness was
    /// computed, not the search trajectory.
    pub fn fitness_key(&self) -> (usize, u64, u64, u64, usize, usize) {
        (
            self.generation,
            self.best.to_bits(),
            self.mean.to_bits(),
            self.worst.to_bits(),
            self.rejected,
            self.mutated_alleles,
        )
    }
}

/// The full convergence record of one run: per-generation statistics plus
/// the fitness engine's memo-cache counters.
///
/// Derefs to the generation vector, so existing `trace[i]` / `trace.iter()`
/// call sites keep working.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// One entry per generation; the first describes the seed population.
    pub generations: Vec<GenerationStats>,
    /// Fitness requests answered from the memo cache.
    pub cache_hits: usize,
    /// Fitness requests that ran the mapper.
    pub cache_misses: usize,
    /// Worker evaluations that panicked and were contained by the pool
    /// (the affected items were re-evaluated on the caller — see
    /// `serial_fallbacks`).
    #[serde(default)]
    pub worker_panics: u64,
    /// Worker incarnations the pool respawned after an uncontained panic.
    #[serde(default)]
    pub pool_respawns: u64,
    /// Batch items the caller re-evaluated serially after the pool failed
    /// to produce them.
    #[serde(default)]
    pub serial_fallbacks: u64,
}

impl ConvergenceTrace {
    /// Empty trace with room for `capacity` generations.
    pub fn with_capacity(capacity: usize) -> Self {
        ConvergenceTrace {
            generations: Vec::with_capacity(capacity),
            ..ConvergenceTrace::default()
        }
    }

    /// Fraction of fitness requests served by the cache (0 when none were
    /// made).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::ops::Deref for ConvergenceTrace {
    type Target = Vec<GenerationStats>;
    fn deref(&self) -> &Self::Target {
        &self.generations
    }
}

impl std::ops::DerefMut for ConvergenceTrace {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.generations
    }
}

impl<'a> IntoIterator for &'a ConvergenceTrace {
    type Item = &'a GenerationStats;
    type IntoIter = std::slice::Iter<'a, GenerationStats>;
    fn into_iter(self) -> Self::IntoIter {
        self.generations.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_derefs_to_generations() {
        let mut trace = ConvergenceTrace::with_capacity(2);
        trace.push(GenerationStats::from_fitness(
            GenerationStats::SEED,
            &[2.0],
            0,
        ));
        trace.push(GenerationStats::from_fitness(0, &[1.0], 3));
        assert_eq!(trace.len(), 2);
        assert!(trace[0].is_seed());
        assert_eq!(
            trace.iter().map(|t| t.best).fold(f64::INFINITY, f64::min),
            1.0
        );
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut trace = ConvergenceTrace::default();
        assert_eq!(trace.cache_hit_rate(), 0.0);
        trace.cache_hits = 3;
        trace.cache_misses = 1;
        assert_eq!(trace.cache_hit_rate(), 0.75);
    }

    #[test]
    fn summary_statistics() {
        let s = GenerationStats::from_fitness(2, &[3.0, 1.0, 2.0], 7);
        assert_eq!(s.best, 1.0);
        assert_eq!(s.worst, 3.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.generation, 2);
        assert_eq!(s.mutated_alleles, 7);
        assert!(!s.is_seed());
    }

    #[test]
    fn non_finite_fitness_is_counted_not_averaged() {
        // Rejected individuals surface as +inf; they must not poison the
        // mean/worst of the survivors.
        let s = GenerationStats::from_fitness(1, &[4.0, f64::INFINITY, 2.0, f64::NAN], 3);
        assert_eq!(s.best, 2.0);
        assert_eq!(s.worst, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.rejected, 2);
    }

    #[test]
    fn all_rejected_population_degenerates_cleanly() {
        let s = GenerationStats::from_fitness(0, &[f64::INFINITY, f64::INFINITY], 1);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.best, f64::INFINITY);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.worst, 0.0);
    }

    #[test]
    fn seed_marker() {
        let s = GenerationStats::from_fitness(GenerationStats::SEED, &[1.0], 0);
        assert!(s.is_seed());
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let _ = GenerationStats::from_fitness(0, &[], 0);
    }
}
