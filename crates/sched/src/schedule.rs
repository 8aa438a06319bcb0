//! Schedules: the output of the mapping step.

use ptg::TaskId;
use serde::{Deserialize, Serialize};

/// One task's placement: when it runs and on which processors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// The scheduled task.
    pub task: TaskId,
    /// Start time in seconds.
    pub start: f64,
    /// Finish time in seconds (`start + duration`).
    pub finish: f64,
    /// Indices of the processors executing the task (all in `0..P`,
    /// strictly increasing, `len == s(task)`).
    pub processors: Vec<u32>,
}

impl Placement {
    /// The task's execution time.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }

    /// Number of processors used.
    #[inline]
    pub fn width(&self) -> u32 {
        self.processors.len() as u32
    }

    /// True if this placement overlaps `other` in time (open intervals, so
    /// back-to-back tasks do not overlap).
    pub fn overlaps_in_time(&self, other: &Placement) -> bool {
        self.start < other.finish && other.start < self.finish
    }

    /// True if the two placements share at least one processor.
    pub fn shares_processor(&self, other: &Placement) -> bool {
        // Processor lists are sorted; merge-scan.
        let (mut i, mut j) = (0, 0);
        while i < self.processors.len() && j < other.processors.len() {
            match self.processors[i].cmp(&other.processors[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// A complete schedule of one PTG on `processors` processors.
///
/// Placements are stored indexed by task (`placements[v.index()].task == v`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Total number of processors of the platform.
    pub processors: u32,
    /// One placement per task, indexed by [`TaskId::index`].
    pub placements: Vec<Placement>,
}

impl Schedule {
    /// Builds a schedule from per-task placements, sorting them by task id.
    ///
    /// # Panics
    /// Panics if task ids are not exactly `0..n` or any processor index is
    /// out of range.
    pub fn new(processors: u32, mut placements: Vec<Placement>) -> Self {
        placements.sort_by_key(|p| p.task);
        for (i, p) in placements.iter().enumerate() {
            assert_eq!(p.task.index(), i, "placements must cover tasks densely");
            assert!(
                p.processors.windows(2).all(|w| w[0] < w[1]),
                "processor list of {} must be strictly increasing",
                p.task
            );
            assert!(
                p.processors.iter().all(|&q| q < processors),
                "processor index out of range for {}",
                p.task
            );
            assert!(!p.processors.is_empty(), "{} uses no processors", p.task);
            assert!(
                p.finish >= p.start && p.start >= 0.0,
                "negative-duration placement for {}",
                p.task
            );
        }
        Schedule {
            processors,
            placements,
        }
    }

    /// Number of scheduled tasks.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.placements.len()
    }

    /// The placement of task `v`.
    #[inline]
    pub fn placement(&self, v: TaskId) -> &Placement {
        &self.placements[v.index()]
    }

    /// The schedule's makespan: the latest finish time.
    pub fn makespan(&self) -> f64 {
        self.placements.iter().map(|p| p.finish).fold(0.0, f64::max)
    }

    /// Busy processor-seconds: `Σ_v duration(v) · width(v)`.
    pub fn busy_area(&self) -> f64 {
        self.placements
            .iter()
            .map(|p| p.duration() * p.width() as f64)
            .sum()
    }

    /// Fraction of the `P × makespan` area that is busy, in `[0, 1]`; `0`
    /// for an empty schedule.
    pub fn utilization(&self) -> f64 {
        let capacity = self.processors as f64 * self.makespan();
        if capacity > 0.0 {
            self.busy_area() / capacity
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(task: u32, start: f64, finish: f64, procs: &[u32]) -> Placement {
        Placement {
            task: TaskId(task),
            start,
            finish,
            processors: procs.to_vec(),
        }
    }

    #[test]
    fn makespan_is_latest_finish() {
        let s = Schedule::new(4, vec![pl(0, 0.0, 2.0, &[0, 1]), pl(1, 2.0, 5.0, &[0])]);
        assert_eq!(s.makespan(), 5.0);
    }

    #[test]
    fn busy_area_weights_by_width() {
        let s = Schedule::new(4, vec![pl(0, 0.0, 2.0, &[0, 1]), pl(1, 2.0, 5.0, &[0])]);
        assert_eq!(s.busy_area(), 2.0 * 2.0 + 3.0);
        assert_eq!(s.utilization(), 7.0 / 20.0);
        assert_eq!(Schedule::new(4, Vec::new()).utilization(), 0.0);
    }

    #[test]
    fn placements_are_reordered_by_task() {
        let s = Schedule::new(2, vec![pl(1, 1.0, 2.0, &[0]), pl(0, 0.0, 1.0, &[1])]);
        assert_eq!(s.placement(TaskId(0)).start, 0.0);
        assert_eq!(s.placement(TaskId(1)).start, 1.0);
    }

    #[test]
    fn overlap_detection_uses_open_intervals() {
        let a = pl(0, 0.0, 1.0, &[0]);
        let b = pl(1, 1.0, 2.0, &[0]);
        let c = pl(2, 0.5, 1.5, &[0]);
        assert!(!a.overlaps_in_time(&b), "back-to-back is not an overlap");
        assert!(a.overlaps_in_time(&c));
        assert!(c.overlaps_in_time(&b));
    }

    #[test]
    fn processor_sharing_merge_scan() {
        let a = pl(0, 0.0, 1.0, &[0, 2, 4]);
        let b = pl(1, 0.0, 1.0, &[1, 3, 5]);
        let c = pl(2, 0.0, 1.0, &[4, 5]);
        assert!(!a.shares_processor(&b));
        assert!(a.shares_processor(&c));
        assert!(b.shares_processor(&c));
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn sparse_task_ids_rejected() {
        let _ = Schedule::new(2, vec![pl(0, 0.0, 1.0, &[0]), pl(2, 0.0, 1.0, &[1])]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_processors_rejected() {
        let _ = Schedule::new(4, vec![pl(0, 0.0, 1.0, &[2, 1])]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn processor_index_out_of_range_rejected() {
        let _ = Schedule::new(2, vec![pl(0, 0.0, 1.0, &[2])]);
    }
}
