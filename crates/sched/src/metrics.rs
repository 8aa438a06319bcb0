//! Schedule quality metrics.

use crate::schedule::Schedule;
use exec_model::TimeMatrix;
use ptg::critpath::critical_path_length;
use ptg::Ptg;

/// Aggregate quality numbers for one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics {
    /// The makespan (latest finish time), the paper's objective.
    pub makespan: f64,
    /// Fraction of the `P × makespan` area that is busy, in `[0, 1]`.
    pub utilization: f64,
    /// Makespan of the all-sequential single-processor execution divided by
    /// this schedule's makespan.
    pub speedup_vs_serial: f64,
    /// `makespan / critical-path length` under the schedule's own
    /// allocations — 1.0 means the mapping wastes nothing beyond the
    /// allocation's intrinsic critical path.
    pub cp_stretch: f64,
    /// Mean time tasks spend waiting after their data is ready
    /// (`start − max_pred finish`, 0 for sources).
    pub mean_wait: f64,
}

/// Computes [`ScheduleMetrics`].
///
/// `matrix` must be the same time matrix the schedule was mapped with.
pub fn compute_metrics(g: &Ptg, matrix: &TimeMatrix, schedule: &Schedule) -> ScheduleMetrics {
    let makespan = schedule.makespan();
    let serial: f64 = g.task_ids().map(|v| matrix.time(v, 1)).sum();
    let times: Vec<f64> = schedule.placements.iter().map(|p| p.duration()).collect();
    let cp = critical_path_length(g, &times);
    let mut wait_sum = 0.0;
    for v in g.task_ids() {
        let data_ready = g
            .predecessors(v)
            .iter()
            .map(|&p| schedule.placement(p).finish)
            .fold(0.0f64, f64::max);
        wait_sum += (schedule.placement(v).start - data_ready).max(0.0);
    }
    ScheduleMetrics {
        makespan,
        utilization: schedule.utilization(),
        speedup_vs_serial: if makespan > 0.0 {
            serial / makespan
        } else {
            0.0
        },
        cp_stretch: if cp > 0.0 { makespan / cp } else { 0.0 },
        mean_wait: wait_sum / g.task_count() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::mapper::{ListScheduler, Mapper};
    use exec_model::Amdahl;
    use ptg::PtgBuilder;

    fn independent(n: usize) -> Ptg {
        let mut b = PtgBuilder::new();
        for i in 0..n {
            b.add_task(format!("t{i}"), 1e9, 0.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn perfect_parallel_execution_has_full_utilization() {
        let g = independent(4);
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let s = ListScheduler.map(&g, &m, &Allocation::ones(4));
        let metrics = compute_metrics(&g, &m, &s);
        assert!((metrics.makespan - 1.0).abs() < 1e-9);
        assert!((metrics.utilization - 1.0).abs() < 1e-9);
        assert!((metrics.speedup_vs_serial - 4.0).abs() < 1e-9);
        assert!((metrics.cp_stretch - 1.0).abs() < 1e-9);
        assert_eq!(metrics.mean_wait, 0.0);
    }

    #[test]
    fn overloaded_platform_halves_utilization_speedup() {
        let g = independent(4);
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 2);
        let s = ListScheduler.map(&g, &m, &Allocation::ones(4));
        let metrics = compute_metrics(&g, &m, &s);
        assert!((metrics.makespan - 2.0).abs() < 1e-9);
        assert!((metrics.utilization - 1.0).abs() < 1e-9);
        assert!((metrics.speedup_vs_serial - 2.0).abs() < 1e-9);
        // cp under 1-proc allocations is 1s, schedule takes 2s
        assert!((metrics.cp_stretch - 2.0).abs() < 1e-9);
    }

    #[test]
    fn waiting_time_appears_when_tasks_queue() {
        let g = independent(2);
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 1);
        let s = ListScheduler.map(&g, &m, &Allocation::ones(2));
        let metrics = compute_metrics(&g, &m, &s);
        // second task waits 1 s → mean over 2 tasks = 0.5 s
        assert!((metrics.mean_wait - 0.5).abs() < 1e-9);
    }

    #[test]
    fn chain_has_no_waiting_and_unit_stretch() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1e9, 0.0);
        let c = b.add_task("c", 2e9, 0.0);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 2);
        let s = ListScheduler.map(&g, &m, &Allocation::ones(2));
        let metrics = compute_metrics(&g, &m, &s);
        assert!((metrics.cp_stretch - 1.0).abs() < 1e-9);
        assert_eq!(metrics.mean_wait, 0.0);
    }
}
