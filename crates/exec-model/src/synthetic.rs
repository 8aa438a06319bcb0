//! Model 2 — the paper's synthetic non-monotonic model.

use crate::{Amdahl, ExecutionTimeModel};
use ptg::Task;

/// Wrapper that makes any base model non-monotonic the way the paper's
/// Algorithm 1 does, imitating PDGEMM's sensitivity to block sizes:
///
/// * `p` odd and `p > 1` → time × `odd_penalty` (paper: 1.3),
/// * `p` even and `√p` **not** an integer → time × `sqrt_penalty`
///   (paper: 1.1),
/// * `p = 1`, and even perfect squares (4, 16, 36, 64, …) are unpenalized.
///
/// The paper's printed pseudo-code applies the 1.1 factor when `√p` *is* an
/// integer, contradicting its own prose ("increases the execution time … if
/// this number has no integer square root") and Figure 1's shape; we follow
/// the prose (see DESIGN.md, "Faithfulness notes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonMonotonicPenalty<M> {
    /// The underlying (typically monotonic) model.
    pub base: M,
    /// Multiplier for odd processor counts (> 1).
    pub odd_penalty: f64,
    /// Multiplier for even counts that are not perfect squares.
    pub sqrt_penalty: f64,
}

impl<M> NonMonotonicPenalty<M> {
    /// Wraps `base` with the paper's penalties (1.3 / 1.1).
    pub fn paper(base: M) -> Self {
        NonMonotonicPenalty {
            base,
            odd_penalty: 1.3,
            sqrt_penalty: 1.1,
        }
    }

    /// The multiplicative penalty applied at processor count `p`.
    pub fn penalty(&self, p: u32) -> f64 {
        if p <= 1 {
            1.0
        } else if p % 2 == 1 {
            self.odd_penalty
        } else if !is_perfect_square(p) {
            self.sqrt_penalty
        } else {
            1.0
        }
    }
}

/// Integer perfect-square test (no floating-point round-off).
pub(crate) fn is_perfect_square(p: u32) -> bool {
    let r = (p as f64).sqrt().round() as u32;
    // Check the two candidates around the rounded root to be safe.
    r.checked_mul(r) == Some(p)
        || r.checked_sub(1).and_then(|q| q.checked_mul(q)) == Some(p)
        || r.checked_add(1).and_then(|q| q.checked_mul(q)) == Some(p)
}

impl<M: ExecutionTimeModel> ExecutionTimeModel for NonMonotonicPenalty<M> {
    fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64 {
        self.base.time(task, p, speed_flops) * self.penalty(p)
    }

    /// The base model's matrix, each row multiplied by `penalty(1..=p_max)`
    /// built once per call.
    fn fill_matrix(&self, tasks: &[Task], speed_flops: f64, p_max: u32, out: &mut [f64]) {
        self.base.fill_matrix(tasks, speed_flops, p_max, out);
        let penalties: Vec<f64> = (1..=p_max).map(|p| self.penalty(p)).collect();
        for row in out.chunks_exact_mut(penalties.len()) {
            for (t, &f) in row.iter_mut().zip(&penalties) {
                *t *= f;
            }
        }
    }

    fn name(&self) -> &'static str {
        "synthetic"
    }
}

/// The paper's Model 2: Amdahl's law with the PDGEMM-style penalties.
pub type SyntheticModel = NonMonotonicPenalty<Amdahl>;

impl Default for SyntheticModel {
    fn default() -> Self {
        NonMonotonicPenalty::paper(Amdahl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_square_detection() {
        let squares: Vec<u32> = (1..=12).map(|i| i * i).collect();
        for p in 1..=150 {
            assert_eq!(
                is_perfect_square(p),
                squares.contains(&p),
                "p = {p} misclassified"
            );
        }
    }

    #[test]
    fn p1_is_never_penalized() {
        let m = SyntheticModel::default();
        assert_eq!(m.penalty(1), 1.0);
    }

    #[test]
    fn odd_counts_get_30_percent_penalty() {
        let m = SyntheticModel::default();
        for p in [3u32, 5, 7, 9, 25, 121] {
            assert_eq!(m.penalty(p), 1.3, "p = {p}");
        }
    }

    #[test]
    fn even_non_squares_get_10_percent_penalty() {
        let m = SyntheticModel::default();
        for p in [2u32, 6, 8, 10, 12, 32, 50] {
            assert_eq!(m.penalty(p), 1.1, "p = {p}");
        }
    }

    #[test]
    fn even_perfect_squares_are_free() {
        let m = SyntheticModel::default();
        for p in [4u32, 16, 36, 64, 100, 144] {
            assert_eq!(m.penalty(p), 1.0, "p = {p}");
        }
    }

    #[test]
    fn model2_is_genuinely_non_monotonic() {
        // Going from p=4 (no penalty) to p=5 (odd) must increase the time for
        // a scalable task: Amdahl gain 4→5 is at most 25%, penalty is 30%.
        let m = SyntheticModel::default();
        let t = Task::new("mm", 8e9, 0.05);
        let t4 = m.time(&t, 4, 1e9);
        let t5 = m.time(&t, 5, 1e9);
        assert!(t5 > t4, "expected t(5) > t(4): {t5} vs {t4}");
    }

    #[test]
    fn model2_equals_model1_at_unpenalized_points() {
        let m2 = SyntheticModel::default();
        let t = Task::new("mm", 8e9, 0.1);
        for p in [1u32, 4, 16, 64] {
            assert_eq!(m2.time(&t, p, 1e9), Amdahl.time(&t, p, 1e9));
        }
    }

    #[test]
    fn model2_matches_hand_computation() {
        let m2 = SyntheticModel::default();
        let t = Task::new("mm", 1e9, 0.0);
        // p = 6: Amdahl gives 1/6 s; even non-square → × 1.1
        assert!((m2.time(&t, 6, 1e9) - 1.1 / 6.0).abs() < 1e-12);
        // p = 3: 1/3 s × 1.3
        assert!((m2.time(&t, 3, 1e9) - 1.3 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn custom_penalties_are_respected() {
        let m = NonMonotonicPenalty {
            base: Amdahl,
            odd_penalty: 2.0,
            sqrt_penalty: 1.5,
        };
        assert_eq!(m.penalty(3), 2.0);
        assert_eq!(m.penalty(8), 1.5);
        assert_eq!(m.penalty(4), 1.0);
    }
}
