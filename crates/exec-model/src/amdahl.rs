//! Model 1 — Amdahl's law.

use crate::ExecutionTimeModel;
use ptg::Task;

/// Amdahl's-law execution time: `T(v,p) = (α + (1−α)/p) · T(v,1)` with
/// `T(v,1) = flop / speed`.
///
/// The execution time is monotonically non-increasing in `p`, with the
/// sequential fraction `α` bounding the achievable speedup by `1/α`.
///
/// ```
/// use exec_model::{Amdahl, ExecutionTimeModel};
/// use ptg::Task;
///
/// let t = Task::new("mm", 2e9, 0.25);
/// let m = Amdahl;
/// let seq = m.time(&t, 1, 1e9);
/// assert_eq!(seq, 2.0);
/// // Infinite processors would approach alpha * seq = 0.5 s.
/// assert!(m.time(&t, 1024, 1e9) < 0.51);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Amdahl;

impl ExecutionTimeModel for Amdahl {
    fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64 {
        assert!(p >= 1, "allocation must use at least one processor");
        assert!(
            speed_flops > 0.0 && speed_flops.is_finite(),
            "processor speed must be positive"
        );
        let seq = task.flop / speed_flops;
        (task.alpha + (1.0 - task.alpha) / p as f64) * seq
    }

    /// `time`'s expression per entry, with the speed check, `flop / speed`
    /// and `1 − α` hoisted per task. `p as f64` comes from a table so the
    /// entry loop vectorizes.
    fn fill_matrix(&self, tasks: &[Task], speed_flops: f64, p_max: u32, out: &mut [f64]) {
        assert!(p_max >= 1, "allocation must use at least one processor");
        assert!(
            speed_flops > 0.0 && speed_flops.is_finite(),
            "processor speed must be positive"
        );
        assert_eq!(out.len(), tasks.len() * p_max as usize, "matrix size");
        let ps: Vec<f64> = (1..=p_max).map(|p| p as f64).collect();
        for (task, row) in tasks.iter().zip(out.chunks_exact_mut(ps.len())) {
            let seq = task.flop / speed_flops;
            let parallel = 1.0 - task.alpha;
            for (t, &p) in row.iter_mut().zip(&ps) {
                *t = (task.alpha + parallel / p) * seq;
            }
        }
    }

    fn name(&self) -> &'static str {
        "amdahl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(alpha: f64) -> Task {
        Task::new("t", 4e9, alpha)
    }

    #[test]
    fn sequential_time_is_flop_over_speed() {
        let m = Amdahl;
        assert!((m.time(&task(0.3), 1, 2e9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fully_parallel_task_scales_perfectly() {
        let m = Amdahl;
        let t = task(0.0);
        let seq = m.time(&t, 1, 1e9);
        for p in [2u32, 4, 8, 16] {
            assert!((m.time(&t, p, 1e9) - seq / p as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn fully_sequential_task_never_speeds_up() {
        let m = Amdahl;
        let t = task(1.0);
        let seq = m.time(&t, 1, 1e9);
        assert_eq!(m.time(&t, 64, 1e9), seq);
    }

    #[test]
    fn time_is_monotonically_non_increasing_in_p() {
        let m = Amdahl;
        let t = task(0.2);
        let mut prev = f64::INFINITY;
        for p in 1..=128 {
            let cur = m.time(&t, p, 3.1e9);
            assert!(cur <= prev + 1e-15, "p={p}: {cur} > {prev}");
            prev = cur;
        }
    }

    #[test]
    fn speedup_is_bounded_by_inverse_alpha() {
        let m = Amdahl;
        let t = task(0.25);
        let seq = m.time(&t, 1, 1e9);
        let fast = m.time(&t, 10_000, 1e9);
        assert!(seq / fast < 1.0 / 0.25 + 1e-9);
    }

    #[test]
    fn paper_formula_spot_check() {
        // alpha = 0.25, p = 4: T = (0.25 + 0.75/4) * seq = 0.4375 * seq
        let m = Amdahl;
        let t = task(0.25);
        let seq = m.time(&t, 1, 1e9);
        assert!((m.time(&t, 4, 1e9) - 0.4375 * seq).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let _ = Amdahl.time(&task(0.1), 0, 1e9);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn non_positive_speed_panics() {
        let _ = Amdahl.time(&task(0.1), 1, 0.0);
    }
}
