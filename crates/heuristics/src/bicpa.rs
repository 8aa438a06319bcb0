//! BiCPA-style bi-criteria allocation (related-work extension).
//!
//! F. Desprez and F. Suter, "A Bi-criteria Algorithm for Scheduling
//! Parallel Task Graphs on Clusters", CCGrid 2010 — cited by the paper as
//! optimizing "both, the completion time of the PTG and the amount of
//! resources used". The key idea: run the CPA allocation loop once per
//! *allocation cap* `a = 1..=P` (no task may exceed `a` processors), map
//! each capped allocation, and keep the whole (makespan, work) trade-off
//! curve. The scheduler then picks a point — pure makespan, pure work, or a
//! weighted compromise.
//!
//! Our implementation follows that structure; the original's incremental
//! evaluation tricks are replaced by the fast makespan-only mapper, which
//! is cheap enough at these problem sizes.

use crate::common::{run_cpa_loop, CpaLoop};
use crate::Allocator;
use exec_model::TimeMatrix;
use ptg::Ptg;
use sched::{Allocation, ListScheduler, Mapper};

/// One point of the trade-off curve.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Allocation cap that produced this point.
    pub cap: u32,
    /// The capped allocation.
    pub allocation: Allocation,
    /// Resulting makespan.
    pub makespan: f64,
    /// Total work `Σ s(v)·t(v, s(v))` in processor-seconds.
    pub work: f64,
}

/// Computes the full (makespan, work) trade-off curve for caps `1..=P`.
pub fn tradeoff_curve(g: &Ptg, matrix: &TimeMatrix) -> Vec<TradeoffPoint> {
    let p_total = matrix.p_max();
    (1..=p_total)
        .map(|cap| {
            let capped = CpaLoop {
                caps: Some(vec![cap; g.task_count()]),
                ..CpaLoop::default()
            };
            let allocation = run_cpa_loop(g, matrix, &capped);
            let makespan = ListScheduler.makespan(g, matrix, &allocation);
            let times = matrix.times_for(allocation.as_slice());
            let work = allocation.work_area(&times);
            TradeoffPoint {
                cap,
                allocation,
                makespan,
                work,
            }
        })
        .collect()
}

/// Keeps only Pareto-optimal points (no other point is better in both
/// makespan and work), sorted by increasing makespan.
pub fn pareto_front(points: &[TradeoffPoint]) -> Vec<TradeoffPoint> {
    let mut sorted: Vec<&TradeoffPoint> = points.iter().collect();
    sorted.sort_by(|a, b| {
        a.makespan
            .partial_cmp(&b.makespan)
            .expect("finite makespans")
            .then(a.work.partial_cmp(&b.work).expect("finite work"))
    });
    let mut front: Vec<TradeoffPoint> = Vec::new();
    let mut best_work = f64::INFINITY;
    for p in sorted {
        if p.work < best_work - 1e-12 {
            best_work = p.work;
            front.push(p.clone());
        }
    }
    front
}

/// The BiCPA-style allocator: computes the trade-off curve and picks the
/// point minimizing `makespan × workᵝ` (β = 0 is pure makespan, larger β
/// trades schedule length for resource thrift).
#[derive(Debug, Clone, Copy)]
pub struct BiCpa {
    /// Resource-usage weight β ≥ 0. The original's evaluation focuses on
    /// β = 1 (balanced product).
    pub beta: f64,
}

impl Default for BiCpa {
    fn default() -> Self {
        BiCpa { beta: 1.0 }
    }
}

impl Allocator for BiCpa {
    fn allocate(&self, g: &Ptg, matrix: &TimeMatrix) -> Allocation {
        assert!(self.beta >= 0.0, "beta must be non-negative");
        tradeoff_curve(g, matrix)
            .into_iter()
            .min_by(|a, b| {
                let score = |p: &TradeoffPoint| p.makespan * p.work.powf(self.beta);
                score(a).partial_cmp(&score(b)).expect("finite scores")
            })
            .expect("platforms have at least one processor")
            .allocation
    }

    fn name(&self) -> &'static str {
        "BiCPA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::Amdahl;
    use ptg::PtgBuilder;

    /// src → 4 scalable workers → sink.
    fn graph() -> Ptg {
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 1e9, 0.1);
        let sink = b.add_task("sink", 1e9, 0.1);
        for i in 0..4 {
            let w = b.add_task(format!("w{i}"), 20e9, 0.05);
            b.add_edge(src, w).unwrap();
            b.add_edge(w, sink).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn curve_has_one_point_per_cap() {
        let g = graph();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let curve = tradeoff_curve(&g, &m);
        assert_eq!(curve.len(), 8);
        for (i, p) in curve.iter().enumerate() {
            assert_eq!(p.cap, i as u32 + 1);
            assert!(p.allocation.as_slice().iter().all(|&s| s <= p.cap));
        }
    }

    #[test]
    fn cap_one_is_the_all_ones_point() {
        let g = graph();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let curve = tradeoff_curve(&g, &m);
        assert_eq!(curve[0].allocation, Allocation::ones(6));
        // Sequential tasks waste nothing: minimal work.
        let min_work = curve.iter().map(|p| p.work).fold(f64::INFINITY, f64::min);
        assert!((curve[0].work - min_work).abs() < 1e-9);
    }

    #[test]
    fn pareto_front_is_monotone() {
        let g = graph();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let front = pareto_front(&tradeoff_curve(&g, &m));
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].makespan <= w[1].makespan);
            assert!(w[0].work > w[1].work, "work must strictly improve");
        }
    }

    #[test]
    fn beta_zero_minimizes_makespan() {
        let g = graph();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let alloc = BiCpa { beta: 0.0 }.allocate(&g, &m);
        let ms = ListScheduler.makespan(&g, &m, &alloc);
        let best = tradeoff_curve(&g, &m)
            .iter()
            .map(|p| p.makespan)
            .fold(f64::INFINITY, f64::min);
        assert!((ms - best).abs() < 1e-9);
    }

    #[test]
    fn large_beta_approaches_minimal_work() {
        let g = graph();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let alloc = BiCpa { beta: 50.0 }.allocate(&g, &m);
        let times = m.times_for(alloc.as_slice());
        let work = alloc.work_area(&times);
        let min_work = tradeoff_curve(&g, &m)
            .iter()
            .map(|p| p.work)
            .fold(f64::INFINITY, f64::min);
        assert!((work - min_work).abs() < 1e-6 * min_work);
    }

    #[test]
    fn default_bicpa_is_between_the_extremes() {
        let g = graph();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 8);
        let curve = tradeoff_curve(&g, &m);
        let min_ms = curve
            .iter()
            .map(|p| p.makespan)
            .fold(f64::INFINITY, f64::min);
        let alloc = BiCpa::default().allocate(&g, &m);
        let ms = ListScheduler.makespan(&g, &m, &alloc);
        let times = m.times_for(alloc.as_slice());
        let work = alloc.work_area(&times);
        let max_work = curve.iter().map(|p| p.work).fold(0.0f64, f64::max);
        // Balanced choice: not (necessarily) the fastest, never the most
        // wasteful.
        assert!(ms >= min_ms - 1e-12);
        assert!(work <= max_work + 1e-12);
    }
}
