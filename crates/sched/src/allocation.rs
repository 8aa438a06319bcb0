//! Per-task processor allocations — the EA's genotype.

use ptg::{Ptg, TaskId};
use serde::{Deserialize, Serialize};

/// A complete set of processor allocations for one PTG: `alloc[v]` is the
/// number of processors task `v` will use (`1 ≤ alloc[v] ≤ P`).
///
/// This is exactly the paper's *individual* encoding (Fig. 2): "for a task
/// `v_i` of PTG `G_j` the individual `I_j(i)` holds the number of processors
/// allocated to `v_i` at position `i`".
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Allocation {
    alloc: Vec<u32>,
}

impl Allocation {
    /// All-ones allocation (every task sequential) for a PTG of `n` tasks.
    pub fn ones(n: usize) -> Self {
        assert!(n > 0, "allocation for an empty PTG");
        Allocation { alloc: vec![1; n] }
    }

    /// Uniform allocation of `p` processors per task.
    pub fn uniform(n: usize, p: u32) -> Self {
        assert!(n > 0, "allocation for an empty PTG");
        assert!(p >= 1, "tasks need at least one processor");
        Allocation { alloc: vec![p; n] }
    }

    /// Wraps a raw vector; each entry must be ≥ 1.
    pub fn from_vec(alloc: Vec<u32>) -> Self {
        assert!(!alloc.is_empty(), "allocation for an empty PTG");
        assert!(
            alloc.iter().all(|&p| p >= 1),
            "every task needs at least one processor"
        );
        Allocation { alloc }
    }

    /// Number of tasks covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.alloc.len()
    }

    /// Always false (constructors reject empty vectors); included for
    /// clippy's `len_without_is_empty`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.alloc.is_empty()
    }

    /// The allocation of task `v`.
    #[inline]
    pub fn of(&self, v: TaskId) -> u32 {
        self.alloc[v.index()]
    }

    /// Sets the allocation of task `v` (must stay ≥ 1).
    #[inline]
    pub fn set(&mut self, v: TaskId, p: u32) {
        assert!(p >= 1, "every task needs at least one processor");
        self.alloc[v.index()] = p;
    }

    /// Raw slice view, indexed by [`TaskId::index`].
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.alloc
    }

    /// Clamps every entry into `[1, p_max]` — used after mutation and when
    /// transferring an allocation to a smaller platform.
    pub fn clamp(&mut self, p_max: u32) {
        assert!(p_max >= 1);
        for a in &mut self.alloc {
            *a = (*a).clamp(1, p_max);
        }
    }

    /// True if the allocation is compatible with graph `g` on `p_max`
    /// processors.
    pub fn is_valid_for(&self, g: &Ptg, p_max: u32) -> bool {
        self.alloc.len() == g.task_count() && self.alloc.iter().all(|&p| (1..=p_max).contains(&p))
    }

    /// Total *work area* under given per-task times: `Σ_v s(v) · t(v)`.
    /// Dividing by `P` yields the paper's average area `T_A`.
    pub fn work_area(&self, times: &[f64]) -> f64 {
        assert_eq!(times.len(), self.alloc.len());
        self.alloc
            .iter()
            .zip(times)
            .map(|(&p, &t)| p as f64 * t)
            .sum()
    }
}

impl std::ops::Index<TaskId> for Allocation {
    type Output = u32;
    fn index(&self, v: TaskId) -> &u32 {
        &self.alloc[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_and_uniform_constructors() {
        assert_eq!(Allocation::ones(3).as_slice(), &[1, 1, 1]);
        assert_eq!(Allocation::uniform(2, 5).as_slice(), &[5, 5]);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut a = Allocation::ones(4);
        a.set(TaskId(2), 7);
        assert_eq!(a.of(TaskId(2)), 7);
        assert_eq!(a[TaskId(2)], 7);
        assert_eq!(a.of(TaskId(0)), 1);
    }

    #[test]
    fn clamp_restricts_to_platform() {
        let mut a = Allocation::from_vec(vec![1, 50, 200]);
        a.clamp(120);
        assert_eq!(a.as_slice(), &[1, 50, 120]);
    }

    #[test]
    fn validity_checks_length_and_range() {
        let mut b = ptg::PtgBuilder::new();
        b.add_task("a", 1.0, 0.0);
        b.add_task("b", 1.0, 0.0);
        let g = b.build().unwrap();
        assert!(Allocation::from_vec(vec![1, 20]).is_valid_for(&g, 20));
        assert!(!Allocation::from_vec(vec![1, 21]).is_valid_for(&g, 20));
        assert!(!Allocation::from_vec(vec![1]).is_valid_for(&g, 20));
    }

    #[test]
    fn work_area_is_sum_of_products() {
        let a = Allocation::from_vec(vec![2, 3]);
        assert_eq!(a.work_area(&[1.5, 2.0]), 2.0 * 1.5 + 3.0 * 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_entry_rejected() {
        let _ = Allocation::from_vec(vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "empty PTG")]
    fn empty_rejected() {
        let _ = Allocation::from_vec(vec![]);
    }
}
