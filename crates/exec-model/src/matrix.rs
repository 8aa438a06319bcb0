//! Pre-evaluated `(task, p)` time matrix.

use crate::ExecutionTimeModel;
use ptg::{Ptg, TaskId};

/// Dense matrix of execution times `t(v, p)` for every task of a PTG and
/// every processor count `1 ..= p_max`.
///
/// Allocation heuristics query `t(v, p)` and `t(v, p+1)` in tight loops and
/// the EA's fitness function evaluates whole allocation vectors thousands of
/// times per run; for the problem sizes of the paper (V ≤ 100, P ≤ 120) the
/// full matrix is ≤ 96 kB and pre-computing it removes the model from the
/// hot path entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeMatrix {
    p_max: u32,
    /// Row-major: `times[v * p_max + (p - 1)]`.
    times: Vec<f64>,
}

impl TimeMatrix {
    /// Evaluates `model` for every task of `g` at every `p ∈ 1..=p_max`.
    pub fn compute<M: ExecutionTimeModel + ?Sized>(
        g: &Ptg,
        model: &M,
        speed_flops: f64,
        p_max: u32,
    ) -> Self {
        assert!(p_max >= 1, "platform must have at least one processor");
        let mut times = vec![0.0; g.task_count() * p_max as usize];
        model.fill_matrix(g.tasks(), speed_flops, p_max, &mut times);
        // Finite and > 0; NaN fails both comparisons. The non-short-circuit
        // fold vectorizes; the first bad entry is located only on failure.
        let valid = |t: f64| t > 0.0 && t < f64::INFINITY;
        if !times.iter().fold(true, |ok, &t| ok & valid(t)) {
            let i = times.iter().position(|&t| !valid(t)).expect("a bad entry");
            let v = TaskId::from_index(i / p_max as usize);
            let p = i % p_max as usize + 1;
            panic!(
                "model produced invalid time {} for task {v} at p = {p}",
                times[i]
            );
        }
        TimeMatrix { p_max, times }
    }

    /// Largest processor count covered.
    #[inline]
    pub fn p_max(&self) -> u32 {
        self.p_max
    }

    /// Number of tasks covered.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.times.len() / self.p_max as usize
    }

    /// The execution time of task `v` on `p` processors.
    ///
    /// # Panics
    /// Panics (via debug assertion / slice indexing) if `p` is 0 or exceeds
    /// `p_max`, or if `v` is out of range.
    // lint:hot-path
    #[inline]
    pub fn time(&self, v: TaskId, p: u32) -> f64 {
        debug_assert!(p >= 1 && p <= self.p_max, "p = {p} out of range");
        self.times[v.index() * self.p_max as usize + (p as usize - 1)]
    }

    /// Gathers the per-task times for an allocation vector `alloc[v]`.
    pub fn times_for(&self, alloc: &[u32]) -> Vec<f64> {
        assert_eq!(alloc.len(), self.task_count());
        alloc
            .iter()
            .enumerate()
            .map(|(i, &p)| self.time(TaskId::from_index(i), p))
            .collect()
    }

    /// Writes the per-task times for `alloc` into `out` without allocating.
    // lint:hot-path
    pub fn fill_times(&self, alloc: &[u32], out: &mut Vec<f64>) {
        assert_eq!(alloc.len(), self.task_count());
        out.clear();
        out.extend(
            alloc
                .iter()
                .enumerate()
                .map(|(i, &p)| self.time(TaskId::from_index(i), p)),
        );
    }

    /// The processor count minimizing `t(v, ·)` (smallest on ties).
    pub fn best_p(&self, v: TaskId) -> u32 {
        let mut best = 1;
        let mut best_t = self.time(v, 1);
        for p in 2..=self.p_max {
            let t = self.time(v, p);
            if t < best_t {
                best_t = t;
                best = p;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Amdahl, Downey, Monotonized, NonMonotonicPenalty, PerTaskModel, RedistributionCost,
        SyntheticModel, Tabulated,
    };
    use ptg::{PtgBuilder, Task};

    fn two_task_graph() -> Ptg {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1e9, 0.0);
        let c = b.add_task("c", 2e9, 0.5);
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    /// Independent tasks with flops over six orders of magnitude and α ∈
    /// {0, 0.25, 1}, plus α = 0.1, whose `1 − α` is inexact: with it a
    /// reciprocal multiply or a fused `mul_add` changes bits.
    fn spread_graph() -> Ptg {
        let mut b = PtgBuilder::new();
        for alpha in [0.0, 0.25, 1.0, 0.1] {
            for flop in [1.0e6, 3.3e8, 1.0e12] {
                b.add_task("t", flop, alpha);
            }
        }
        b.build().unwrap()
    }

    /// Builds `g`'s matrix through `model` at each P and compares every
    /// entry's bits with `model.time`.
    fn assert_matrix_is_time<M: ExecutionTimeModel + ?Sized>(label: &str, g: &Ptg, model: &M) {
        const SPEED: f64 = 3.1e9;
        for p_max in [1, 2, 3, 20, 120, 160] {
            let mat = TimeMatrix::compute(g, model, SPEED, p_max);
            for v in g.task_ids() {
                for p in 1..=p_max {
                    let want = model.time(g.task(v), p, SPEED);
                    assert_eq!(
                        mat.time(v, p).to_bits(),
                        want.to_bits(),
                        "{label}: task {v}, p = {p} of {p_max}"
                    );
                }
            }
        }
    }

    /// The concrete type, `dyn`, `&dyn` (the `&M` impl) and `Box<dyn>`.
    fn assert_every_call_path<M: ExecutionTimeModel + 'static>(label: &str, model: M) {
        let g = spread_graph();
        assert_matrix_is_time(&format!("{label} (concrete)"), &g, &model);
        let by_ref: &dyn ExecutionTimeModel = &model;
        assert_matrix_is_time(&format!("{label} (dyn)"), &g, by_ref);
        assert_matrix_is_time(&format!("{label} (&dyn)"), &g, &by_ref);
        let boxed: Box<dyn ExecutionTimeModel> = Box::new(model);
        assert_matrix_is_time(&format!("{label} (Box<dyn>)"), &g, &boxed);
    }

    #[test]
    fn matrix_matches_direct_model_evaluation() {
        let odd_factors = NonMonotonicPenalty {
            base: Amdahl,
            odd_penalty: 1.7,
            sqrt_penalty: 1.05,
        };
        let reference = Task::new("ref", 1e9, 0.1);
        let sampled = Tabulated::sample(&SyntheticModel::default(), &reference, 1e9, 24);
        let per_task = PerTaskModel::new(
            vec![
                Box::new(Amdahl),
                Box::new(SyntheticModel::default()),
                Box::new(Downey::new(4.0, 1.5)),
            ],
            |t| (t.alpha * 4.0) as usize,
        );
        assert_every_call_path("amdahl", Amdahl);
        assert_every_call_path("synthetic", SyntheticModel::default());
        assert_every_call_path("penalty 1.7/1.05", odd_factors);
        assert_every_call_path(
            "penalty over downey",
            NonMonotonicPenalty::paper(Downey::new(8.0, 0.5)),
        );
        assert_every_call_path("downey", Downey::new(8.0, 0.5));
        assert_every_call_path("tabulated", sampled);
        assert_every_call_path("per-task", per_task);
        assert_every_call_path(
            "redistribution",
            RedistributionCost::typical(SyntheticModel::default()),
        );
        assert_every_call_path("monotonized", Monotonized::new(SyntheticModel::default()));
    }

    /// Fills every entry with 2.0 but answers 1.0 per entry, so a matrix
    /// shows which of the two methods built it.
    struct FillMarker;

    impl ExecutionTimeModel for FillMarker {
        fn time(&self, _: &Task, _: u32, _: f64) -> f64 {
            1.0
        }
        fn fill_matrix(&self, _: &[Task], _: f64, _: u32, out: &mut [f64]) {
            out.fill(2.0);
        }
    }

    #[test]
    fn references_and_boxes_forward_fill_matrix() {
        let g = two_task_graph();
        let by_ref: &dyn ExecutionTimeModel = &FillMarker;
        let boxed: Box<dyn ExecutionTimeModel> = Box::new(FillMarker);
        for mat in [
            TimeMatrix::compute(&g, &by_ref, 1e9, 4),
            TimeMatrix::compute(&g, &boxed, 1e9, 4),
        ] {
            assert_eq!(mat.time(TaskId(1), 3), 2.0);
        }
    }

    /// Amdahl, except task "c" gets `bad` at width `p`.
    struct BrokenAt {
        p: u32,
        bad: f64,
    }

    impl ExecutionTimeModel for BrokenAt {
        fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64 {
            if task.name == "c" && p == self.p {
                self.bad
            } else {
                Amdahl.time(task, p, speed_flops)
            }
        }
    }

    #[test]
    #[should_panic(expected = "model produced invalid time 0 for task v1 at p = 3")]
    fn zero_time_panics_naming_task_and_width() {
        let _ = TimeMatrix::compute(&two_task_graph(), &BrokenAt { p: 3, bad: 0.0 }, 1e9, 8);
    }

    #[test]
    #[should_panic(expected = "model produced invalid time NaN for task v1 at p = 8")]
    fn nan_time_panics_naming_task_and_width() {
        let bad = BrokenAt {
            p: 8,
            bad: f64::NAN,
        };
        let _ = TimeMatrix::compute(&two_task_graph(), &bad, 1e9, 8);
    }

    #[test]
    fn dimensions_are_reported() {
        let g = two_task_graph();
        let mat = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        assert_eq!(mat.p_max(), 8);
        assert_eq!(mat.task_count(), 2);
    }

    #[test]
    fn times_for_gathers_per_allocation() {
        let g = two_task_graph();
        let mat = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let times = mat.times_for(&[2, 4]);
        assert_eq!(times[0], mat.time(TaskId(0), 2));
        assert_eq!(times[1], mat.time(TaskId(1), 4));
    }

    #[test]
    fn fill_times_reuses_buffer() {
        let g = two_task_graph();
        let mat = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let mut buf = Vec::with_capacity(2);
        mat.fill_times(&[1, 1], &mut buf);
        assert_eq!(buf, mat.times_for(&[1, 1]));
        mat.fill_times(&[8, 8], &mut buf);
        assert_eq!(buf, mat.times_for(&[8, 8]));
    }

    #[test]
    fn best_p_finds_global_minimum_under_model2() {
        let g = two_task_graph();
        let mat = TimeMatrix::compute(&g, &SyntheticModel::default(), 1e9, 8);
        // Fully parallel task 0: minimum at p = 8? t(8) = 1.1/8 = 0.1375,
        // t(4) = 0.25 — so 8 wins despite the penalty.
        assert_eq!(mat.best_p(TaskId(0)), 8);
        // Task 1 has alpha = 0.5: t(4) = 0.625·2 = 1.25, t(8) = 1.1·(0.5+0.0625)·2 = 1.2375,
        // still 8... verify against brute force instead of hand numbers.
        let brute = (1..=8)
            .min_by(|&a, &b| {
                mat.time(TaskId(1), a)
                    .partial_cmp(&mat.time(TaskId(1), b))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(mat.best_p(TaskId(1)), brute);
    }

    #[test]
    #[should_panic]
    fn mismatched_allocation_length_panics() {
        let g = two_task_graph();
        let mat = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let _ = mat.times_for(&[1]);
    }
}
