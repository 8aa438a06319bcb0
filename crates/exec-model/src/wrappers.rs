//! Model combinators.

use crate::ExecutionTimeModel;
use ptg::Task;

/// Enforces the "monotonous penalty assumption" on any base model:
/// `T'(v,p) = min_{1 ≤ q ≤ p} T(v,q)`.
///
/// This is what heuristics designed for monotonic models implicitly assume
/// (cf. Günther et al., cited in the paper, who *prohibit* allocations that
/// violate monotonicity). Wrapping Model 2 in `Monotonized` shows how much of
/// EMTS's advantage comes from exploiting non-monotonic structure — used by
/// the ablation benches.
///
/// Note: the wrapper reports the *time* the monotone envelope promises; a
/// scheduler using it should then run the task on the `q ≤ p` processors
/// realizing the minimum (see [`Monotonized::best_p`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Monotonized<M> {
    /// The wrapped model.
    pub base: M,
}

impl<M: ExecutionTimeModel> Monotonized<M> {
    /// Wraps `base`.
    pub fn new(base: M) -> Self {
        Monotonized { base }
    }

    /// The processor count `q ≤ p` minimizing the base model's time (the
    /// smallest such `q` on ties, to free resources).
    pub fn best_p(&self, task: &Task, p: u32, speed_flops: f64) -> u32 {
        assert!(p >= 1);
        let mut best_q = 1;
        let mut best_t = self.base.time(task, 1, speed_flops);
        for q in 2..=p {
            let t = self.base.time(task, q, speed_flops);
            if t < best_t {
                best_t = t;
                best_q = q;
            }
        }
        best_q
    }
}

impl<M: ExecutionTimeModel> ExecutionTimeModel for Monotonized<M> {
    fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64 {
        assert!(p >= 1, "allocation must use at least one processor");
        (1..=p)
            .map(|q| self.base.time(task, q, speed_flops))
            .fold(f64::INFINITY, f64::min)
    }

    fn name(&self) -> &'static str {
        "monotonized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Amdahl, SyntheticModel};

    #[test]
    fn monotonized_model_is_monotone() {
        let m = Monotonized::new(SyntheticModel::default());
        let t = Task::new("mm", 8e9, 0.05);
        let mut prev = f64::INFINITY;
        for p in 1..=64 {
            let cur = m.time(&t, p, 1e9);
            assert!(cur <= prev + 1e-15, "p = {p}");
            prev = cur;
        }
    }

    #[test]
    fn monotonized_never_exceeds_base() {
        let base = SyntheticModel::default();
        let m = Monotonized::new(base);
        let t = Task::new("mm", 8e9, 0.05);
        for p in 1..=32 {
            assert!(m.time(&t, p, 1e9) <= base.time(&t, p, 1e9) + 1e-15);
        }
    }

    #[test]
    fn monotonizing_a_monotone_model_is_identity() {
        let m = Monotonized::new(Amdahl);
        let t = Task::new("mm", 8e9, 0.2);
        for p in 1..=32 {
            assert!((m.time(&t, p, 1e9) - Amdahl.time(&t, p, 1e9)).abs() < 1e-15);
        }
    }

    #[test]
    fn best_p_skips_penalized_counts() {
        let m = Monotonized::new(SyntheticModel::default());
        let t = Task::new("mm", 8e9, 0.0);
        // With a fully parallel task, p = 5 (odd, ×1.3) is worse than p = 4:
        // best_p(5) should stay at 4.
        assert_eq!(m.best_p(&t, 5, 1e9), 4);
        // p = 6 (even non-square, ×1.1): 1.1/6 < 1/4, so 6 wins.
        assert_eq!(m.best_p(&t, 6, 1e9), 6);
    }
}
