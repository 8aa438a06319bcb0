//! EMTS configuration and the paper's two presets.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Tunable parameters of the EMTS evolution strategy.
///
/// Defaults follow the paper's experimental setup (§V): `Δ = 0.9`,
/// `f_m = 0.33`, shrink probability `a = 0.2`, `σ₁ = σ₂ = 5`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmtsConfig {
    /// Number of parents µ kept each generation.
    pub mu: usize,
    /// Number of offspring λ generated per generation.
    pub lambda: usize,
    /// Number of generations U.
    pub generations: usize,
    /// Initial fraction of alleles mutated, `f_m ∈ (0, 1]` (paper: 0.33).
    pub fm: f64,
    /// Criticality threshold Δ of the seeding heuristic (paper: 0.9).
    pub delta: f64,
    /// Probability that a mutation *shrinks* an allocation (paper: `a = 0.2`;
    /// see DESIGN.md on the sign convention in the paper's Eq. 1).
    pub shrink_prob: f64,
    /// Standard deviation σ₁ of the shrink magnitude (paper: 5).
    pub sigma_shrink: f64,
    /// Standard deviation σ₂ of the stretch magnitude (paper: 5).
    pub sigma_stretch: f64,
    /// Seed the population with MCPA / HCPA / Δ-critical results (paper:
    /// always on; the ablation benches switch it off).
    pub heuristic_seeds: bool,
    /// Evaluate offspring fitness on multiple threads. Does not affect
    /// results — mutation happens on the main thread, only the (pure)
    /// fitness evaluations run concurrently.
    pub parallel_evaluation: bool,
    /// Optional wall-clock budget; the loop stops after the first
    /// generation that exceeds it ("we focus on a given time constraint",
    /// §II-C).
    pub time_budget: Option<Duration>,
    /// Use comma-selection (best µ of offspring only) instead of the
    /// paper's plus-selection. Only for the selection ablation; plus is the
    /// paper's choice and the default.
    pub comma_selection: bool,
    /// Enable the rejection strategy from the paper's future-work section
    /// (§VI): abort an offspring's mapping as soon as its partial schedule
    /// provably exceeds the cutoff `rejection_slack × best-so-far` — the
    /// whole schedule of hopeless individuals is never constructed. Off by
    /// default (the paper's evaluated configuration).
    pub rejection: bool,
    /// Cutoff multiplier for the rejection strategy (≥ 1). Offspring worse
    /// than `slack × best` can never survive plus-selection when the
    /// population is already full of better individuals, so 1.0 is lossless
    /// for the *best* individual; slightly larger values also preserve
    /// population diversity.
    pub rejection_slack: f64,
    /// Draw mutation magnitudes from `U{1..=2σ}` instead of the asymmetric
    /// folded normal. Only for the mutation-operator ablation.
    pub uniform_mutation: bool,
    /// Probability that an offspring is produced by single-point crossover
    /// of two distinct parents' allocation vectors (GA-style, after the
    /// GA/LSH literature) before mutation. 0.0 — the paper's pure-ES
    /// configuration — disables recombination entirely and is the default.
    #[serde(default)]
    pub crossover_prob: f64,
    /// Adapt both σ parameters online with Rechenberg's 1/5 success rule
    /// (the classic step-size control from the evolution-strategy
    /// literature the paper cites): after each generation, grow σ when more
    /// than a fifth of the offspring improved on the generation-start best,
    /// shrink it otherwise. Off by default (the paper uses fixed σ = 5).
    pub adaptive_sigma: bool,
}

impl EmtsConfig {
    /// EMTS5: a (5+25)-ES over 5 generations (§V).
    pub fn emts5() -> Self {
        EmtsConfig {
            mu: 5,
            lambda: 25,
            generations: 5,
            ..EmtsConfig::default()
        }
    }

    /// EMTS10: a (10+100)-ES over 10 generations (§V).
    pub fn emts10() -> Self {
        EmtsConfig {
            mu: 10,
            lambda: 100,
            generations: 10,
            ..EmtsConfig::default()
        }
    }

    /// Panics unless all parameters are in range.
    pub fn validate(&self) {
        assert!(self.mu >= 1, "mu must be at least 1");
        assert!(self.lambda >= 1, "lambda must be at least 1");
        assert!(self.generations >= 1, "need at least one generation");
        assert!(self.fm > 0.0 && self.fm <= 1.0, "fm must lie in (0, 1]");
        assert!(
            (0.0..=1.0).contains(&self.delta),
            "delta must lie in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.shrink_prob),
            "shrink_prob must lie in [0, 1]"
        );
        assert!(self.sigma_shrink > 0.0, "sigma_shrink must be positive");
        assert!(self.sigma_stretch > 0.0, "sigma_stretch must be positive");
        assert!(
            self.rejection_slack >= 1.0,
            "rejection_slack below 1.0 could reject improving offspring"
        );
        assert!(
            (0.0..=1.0).contains(&self.crossover_prob),
            "crossover_prob must lie in [0, 1]"
        );
    }
}

impl Default for EmtsConfig {
    fn default() -> Self {
        EmtsConfig {
            mu: 5,
            lambda: 25,
            generations: 5,
            fm: 0.33,
            delta: 0.9,
            shrink_prob: 0.2,
            sigma_shrink: 5.0,
            sigma_stretch: 5.0,
            heuristic_seeds: true,
            parallel_evaluation: true,
            time_budget: None,
            comma_selection: false,
            rejection: false,
            rejection_slack: 1.5,
            crossover_prob: 0.0,
            uniform_mutation: false,
            adaptive_sigma: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let e5 = EmtsConfig::emts5();
        assert_eq!((e5.mu, e5.lambda, e5.generations), (5, 25, 5));
        let e10 = EmtsConfig::emts10();
        assert_eq!((e10.mu, e10.lambda, e10.generations), (10, 100, 10));
        for c in [e5, e10] {
            assert_eq!(c.fm, 0.33);
            assert_eq!(c.delta, 0.9);
            assert_eq!(c.shrink_prob, 0.2);
            assert_eq!(c.sigma_shrink, 5.0);
            assert!(c.heuristic_seeds);
            assert!(!c.comma_selection);
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "fm must lie in")]
    fn invalid_fm_fails_validation() {
        EmtsConfig {
            fm: 0.0,
            ..EmtsConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "mu must be")]
    fn zero_mu_fails_validation() {
        EmtsConfig {
            mu: 0,
            ..EmtsConfig::default()
        }
        .validate();
    }
}
