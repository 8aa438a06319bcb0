//! The paper's asymmetric integer mutation operator (§III-D) and the
//! adaptive mutation count (§III-C).
//!
//! The per-allele step is `C = −(⌊|X₁|⌋ + 1)` with probability `a` (shrink,
//! `X₁ ~ N(0, σ₁)`) and `C = +(⌊|X₂|⌋ + 1)` with probability `1 − a`
//! (stretch, `X₂ ~ N(0, σ₂)`), so small changes are more likely than large
//! ones and stretching dominates — exactly the density shown in the paper's
//! Figure 3 (σ₁ = σ₂ = 5, a = 0.2). Mutated allocations clamp into `[1, P]`.
//!
//! Normal variates come from a local Box–Muller transform to avoid pulling
//! in a distribution crate for one density.

use rand::Rng;
use sched::Allocation;

/// The mutation operator with its distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationOperator {
    /// Probability of shrinking an allocation (paper: `a = 0.2`).
    pub shrink_prob: f64,
    /// σ₁ — spread of shrink magnitudes.
    pub sigma_shrink: f64,
    /// σ₂ — spread of stretch magnitudes.
    pub sigma_stretch: f64,
    /// Ablation switch: draw magnitudes from `U{1..=2σ}` instead of the
    /// folded normal (uniform steps make ±k equally likely for all k, the
    /// convergence problem §III-D argues against).
    pub uniform: bool,
}

impl MutationOperator {
    /// The paper's operator: `a = 0.2`, `σ₁ = σ₂ = 5`.
    pub fn paper() -> Self {
        MutationOperator {
            shrink_prob: 0.2,
            sigma_shrink: 5.0,
            sigma_stretch: 5.0,
            uniform: false,
        }
    }

    /// Samples the signed processor delta `C` (never 0).
    pub fn sample_delta<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let shrink = rng.gen_bool(self.shrink_prob);
        let sigma = if shrink {
            self.sigma_shrink
        } else {
            self.sigma_stretch
        };
        let magnitude = if self.uniform {
            rng.gen_range(1..=(2.0 * sigma).max(1.0) as i64)
        } else {
            standard_normal(rng).abs().mul_add(sigma, 0.0).floor() as i64 + 1
        };
        if shrink {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Mutates `m` distinct alleles of `alloc` in place, clamping each new
    /// value into `[1, p_max]`, and returns the alleles whose value
    /// actually changed.
    ///
    /// Clamping can be a no-op (shrinking a width-1 task, stretching a
    /// width-`p_max` one), so the returned set may be smaller than `m` —
    /// even empty, in which case the offspring equals its parent. The RNG
    /// draw sequence is independent of the clamp outcomes.
    pub fn mutate<R: Rng + ?Sized>(
        &self,
        alloc: &mut Allocation,
        m: usize,
        p_max: u32,
        rng: &mut R,
    ) -> Vec<ptg::TaskId> {
        let v = alloc.len();
        let m = m.min(v);
        // Partial Fisher–Yates over the index set picks m distinct alleles.
        let mut indices: Vec<usize> = (0..v).collect();
        let mut changed = Vec::with_capacity(m);
        for i in 0..m {
            let j = rng.gen_range(i..v);
            indices.swap(i, j);
            let idx = ptg::TaskId::from_index(indices[i]);
            let delta = self.sample_delta(rng);
            let current = alloc.of(idx) as i64;
            let next = (current + delta).clamp(1, p_max as i64) as u32;
            if next != current as u32 {
                alloc.set(idx, next);
                changed.push(idx);
            }
        }
        changed
    }
}

/// Number of alleles mutated in generation `u` of `total` (0-based):
/// `m(u) = (1 − u/U) · f_m · V`, at least 1.
///
/// The paper indexes generations so that the mutation strength decays
/// linearly; with 0-based `u` the first generation mutates the full
/// `f_m · V` alleles and the last one `f_m · V / U` — we floor at one allele
/// so every offspring differs from its parent.
pub fn mutation_count(u: usize, total: usize, fm: f64, v: usize) -> usize {
    assert!(total >= 1 && u < total, "generation index out of range");
    let m = (1.0 - u as f64 / total as f64) * fm * v as f64;
    (m.round() as usize).max(1)
}

/// One standard-normal variate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(2024)
    }

    #[test]
    fn delta_is_never_zero() {
        let op = MutationOperator::paper();
        let mut r = rng();
        for _ in 0..2000 {
            assert_ne!(op.sample_delta(&mut r), 0);
        }
    }

    #[test]
    fn shrink_fraction_approximates_a() {
        let op = MutationOperator::paper();
        let mut r = rng();
        let n = 20_000;
        let shrinks = (0..n).filter(|_| op.sample_delta(&mut r) < 0).count();
        let frac = shrinks as f64 / n as f64;
        assert!(
            (frac - 0.2).abs() < 0.02,
            "shrink fraction {frac} far from a = 0.2"
        );
    }

    #[test]
    fn magnitude_mean_matches_folded_normal() {
        // E[⌊|N(0,5)|⌋ + 1] ≈ 5·√(2/π) + 0.5 ≈ 4.49
        let op = MutationOperator::paper();
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| op.sample_delta(&mut r).unsigned_abs() as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 4.49).abs() < 0.25, "mean magnitude {mean}");
    }

    #[test]
    fn small_steps_are_more_likely_than_large_ones() {
        let op = MutationOperator::paper();
        let mut r = rng();
        let n = 30_000;
        let mut small = 0usize; // |C| ≤ 3
        let mut large = 0usize; // |C| ≥ 10
        for _ in 0..n {
            let c = op.sample_delta(&mut r).unsigned_abs();
            if c <= 3 {
                small += 1;
            } else if c >= 10 {
                large += 1;
            }
        }
        assert!(small > 3 * large, "small {small} vs large {large}");
    }

    #[test]
    fn mutate_changes_exactly_m_or_fewer_alleles() {
        let op = MutationOperator::paper();
        let mut r = rng();
        for m in [1usize, 3, 5] {
            let mut alloc = Allocation::uniform(10, 50);
            op.mutate(&mut alloc, m, 100, &mut r);
            let changed = alloc.as_slice().iter().filter(|&&s| s != 50).count();
            // All m picked alleles get a nonzero delta and cannot clamp back
            // to 50 from 50 (delta ≠ 0 and 50 ± |C| stays in [1,100] for
            // small |C|) — but a large shrink could clamp to 1 and another
            // allele could coincidentally also be 1; equality of value, not
            // identity, is what we count, so allow ≤ m.
            assert!(changed <= m, "m = {m}, changed {changed}");
            assert!(changed >= 1);
        }
    }

    #[test]
    fn mutate_reports_exactly_the_alleles_that_differ() {
        let op = MutationOperator::paper();
        let mut r = rng();
        for m in [1usize, 4, 10] {
            let before = Allocation::uniform(10, 50);
            let mut after = before.clone();
            let changed = op.mutate(&mut after, m, 100, &mut r);
            let diff: Vec<usize> = (0..10)
                .filter(|&i| before.as_slice()[i] != after.as_slice()[i])
                .collect();
            let mut reported: Vec<usize> = changed.iter().map(|t| t.index()).collect();
            reported.sort_unstable();
            assert_eq!(reported, diff, "m = {m}");
        }
    }

    #[test]
    fn zero_width_mutation_is_detected_as_empty_change_set() {
        // Shrink-only operator on an all-ones allocation: every delta is
        // negative and clamps straight back to 1, so nothing changes and
        // the engine can skip re-evaluating the offspring.
        let op = MutationOperator {
            shrink_prob: 1.0,
            ..MutationOperator::paper()
        };
        let mut r = rng();
        for _ in 0..50 {
            let mut alloc = Allocation::uniform(12, 1);
            let changed = op.mutate(&mut alloc, 5, 64, &mut r);
            assert!(changed.is_empty(), "clamped no-op reported {changed:?}");
            assert!(alloc.as_slice().iter().all(|&s| s == 1));
        }
    }

    #[test]
    fn mutate_respects_platform_bounds() {
        let op = MutationOperator::paper();
        let mut r = rng();
        for _ in 0..200 {
            let mut alloc = Allocation::uniform(20, 2);
            op.mutate(&mut alloc, 20, 4, &mut r);
            assert!(alloc.as_slice().iter().all(|&s| (1..=4).contains(&s)));
        }
    }

    #[test]
    fn mutation_count_decays_linearly() {
        // V = 100, fm = 0.33, U = 5 → 33, 26, 20, 13, 7
        let counts: Vec<usize> = (0..5).map(|u| mutation_count(u, 5, 0.33, 100)).collect();
        assert_eq!(counts, vec![33, 26, 20, 13, 7]);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn mutation_count_never_drops_below_one() {
        assert_eq!(mutation_count(9, 10, 0.33, 2), 1);
        assert_eq!(mutation_count(0, 1, 0.01, 3), 1);
    }

    #[test]
    fn uniform_variant_spreads_magnitudes_evenly() {
        let op = MutationOperator {
            uniform: true,
            ..MutationOperator::paper()
        };
        let mut r = rng();
        let n = 30_000;
        let mut buckets = [0usize; 10]; // magnitudes 1..=10
        for _ in 0..n {
            let c = op.sample_delta(&mut r).unsigned_abs() as usize;
            assert!((1..=10).contains(&c));
            buckets[c - 1] += 1;
        }
        let min = *buckets.iter().min().unwrap() as f64;
        let max = *buckets.iter().max().unwrap() as f64;
        assert!(max / min < 1.25, "uniform buckets skewed: {buckets:?}");
    }

    #[test]
    fn box_muller_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "generation index out of range")]
    fn mutation_count_checks_bounds() {
        let _ = mutation_count(5, 5, 0.33, 100);
    }
}
