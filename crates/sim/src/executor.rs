//! Discrete-event replay of a schedule.
//!
//! The executor walks the schedule's planned start/finish events in time
//! order, maintaining live processor ownership and per-task completion
//! state. Any dynamic inconsistency — a task starting before a predecessor
//! finished, or on a processor still owned by another task — aborts the
//! replay. On success the report carries an independently re-derived
//! makespan and per-processor busy accounting, which tests cross-check
//! against the mapper's own numbers.

use crate::event::{Event, EventKind, EventQueue};
use obs::{NoopRecorder, Recorder};
use ptg::{Ptg, TaskId};
use sched::Schedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionError {
    /// Task started although a predecessor had not finished.
    PredecessorUnfinished { task: TaskId, pred: TaskId },
    /// Task started on a processor still owned by another task.
    ProcessorBusy {
        task: TaskId,
        processor: u32,
        owner: TaskId,
    },
    /// Schedule and PTG disagree on the number of tasks.
    TaskCountMismatch { expected: usize, actual: usize },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::PredecessorUnfinished { task, pred } => {
                write!(f, "{task} started before predecessor {pred} finished")
            }
            ExecutionError::ProcessorBusy {
                task,
                processor,
                owner,
            } => write!(
                f,
                "{task} started on processor {processor} still owned by {owner}"
            ),
            ExecutionError::TaskCountMismatch { expected, actual } => {
                write!(f, "schedule has {actual} tasks, PTG has {expected}")
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

/// Result of a successful replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Independently re-derived makespan (time of the last finish event).
    pub makespan: f64,
    /// Number of start/finish event pairs processed (= task count).
    pub tasks_executed: usize,
    /// Per-processor busy seconds.
    pub busy_seconds: Vec<f64>,
    /// Peak number of simultaneously running tasks.
    pub peak_parallel_tasks: usize,
    /// Peak number of simultaneously busy processors.
    pub peak_busy_processors: u32,
}

impl SimReport {
    /// Overall utilization: busy area over `P × makespan`.
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.busy_seconds.iter().sum();
        let capacity = self.busy_seconds.len() as f64 * self.makespan;
        if capacity > 0.0 {
            busy / capacity
        } else {
            0.0
        }
    }
}

/// Replays `schedule` for `g` and returns the execution report.
pub fn execute(g: &Ptg, schedule: &Schedule) -> Result<SimReport, ExecutionError> {
    execute_obs(g, schedule, &NoopRecorder)
}

/// [`execute`] with telemetry: counts processed events (`sim.events`) and
/// publishes the replay's headline numbers as gauges. With
/// [`NoopRecorder`] this compiles down to the plain replay loop.
pub fn execute_obs<R: Recorder>(
    g: &Ptg,
    schedule: &Schedule,
    rec: &R,
) -> Result<SimReport, ExecutionError> {
    if schedule.task_count() != g.task_count() {
        return Err(ExecutionError::TaskCountMismatch {
            expected: g.task_count(),
            actual: schedule.task_count(),
        });
    }
    let p_total = schedule.processors as usize;
    let mut queue = EventQueue::new();
    for pl in &schedule.placements {
        queue.push(Event {
            time: pl.start,
            kind: EventKind::Start,
            task: pl.task,
        });
        queue.push(Event {
            time: pl.finish,
            kind: EventKind::Finish,
            task: pl.task,
        });
    }

    let mut finished = vec![false; g.task_count()];
    let mut owner: Vec<Option<TaskId>> = vec![None; p_total];
    let mut busy_seconds = vec![0.0f64; p_total];
    let mut running = 0usize;
    let mut busy_procs = 0u32;
    let mut peak_parallel_tasks = 0usize;
    let mut peak_busy_processors = 0u32;
    let mut makespan = 0.0f64;
    let mut executed = 0usize;

    while let Some(event) = queue.pop() {
        let pl = schedule.placement(event.task);
        match event.kind {
            EventKind::Start => {
                for &p in g.predecessors(event.task) {
                    // Touching start == predecessor finish is legal; the
                    // queue orders finishes first, so `finished` is already
                    // set in that case.
                    if !finished[p.index()] {
                        return Err(ExecutionError::PredecessorUnfinished {
                            task: event.task,
                            pred: p,
                        });
                    }
                }
                for &q in &pl.processors {
                    if let Some(current) = owner[q as usize] {
                        return Err(ExecutionError::ProcessorBusy {
                            task: event.task,
                            processor: q,
                            owner: current,
                        });
                    }
                    owner[q as usize] = Some(event.task);
                }
                running += 1;
                busy_procs += pl.width();
                peak_parallel_tasks = peak_parallel_tasks.max(running);
                peak_busy_processors = peak_busy_processors.max(busy_procs);
            }
            EventKind::Finish => {
                debug_assert!(
                    !finished[event.task.index()],
                    "double finish for {}",
                    event.task
                );
                finished[event.task.index()] = true;
                for &q in &pl.processors {
                    debug_assert_eq!(owner[q as usize], Some(event.task));
                    owner[q as usize] = None;
                    busy_seconds[q as usize] += pl.duration();
                }
                running -= 1;
                busy_procs -= pl.width();
                makespan = makespan.max(event.time);
                executed += 1;
            }
        }
    }
    debug_assert!(finished.iter().all(|&f| f));
    let report = SimReport {
        makespan,
        tasks_executed: executed,
        busy_seconds,
        peak_parallel_tasks,
        peak_busy_processors,
    };
    if R::ENABLED {
        rec.add("sim.events", 2 * executed as u64);
        rec.gauge("sim.utilization", report.utilization());
        rec.gauge("sim.peak_parallel_tasks", peak_parallel_tasks as f64);
        rec.gauge("sim.peak_busy_processors", peak_busy_processors as f64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::{Amdahl, TimeMatrix};
    use ptg::PtgBuilder;
    use sched::{Allocation, ListScheduler, Mapper, Placement};

    fn diamond() -> Ptg {
        let mut b = PtgBuilder::new();
        for i in 0..4 {
            b.add_task(format!("t{i}"), 2e9, 0.0);
        }
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.add_edge(TaskId(1), TaskId(3)).unwrap();
        b.add_edge(TaskId(2), TaskId(3)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn replay_agrees_with_mapper_makespan() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![2, 1, 2, 4]);
        let s = ListScheduler.map(&g, &m, &alloc);
        let report = execute(&g, &s).unwrap();
        assert!((report.makespan - s.makespan()).abs() < 1e-9);
        assert_eq!(report.tasks_executed, 4);
    }

    #[test]
    fn busy_seconds_match_schedule_area() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let s = ListScheduler.map(&g, &m, &Allocation::ones(4));
        let report = execute(&g, &s).unwrap();
        let total_busy: f64 = report.busy_seconds.iter().sum();
        assert!((total_busy - s.busy_area()).abs() < 1e-9);
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
    }

    #[test]
    fn concurrency_peaks_are_observed() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        // Middles run concurrently on 2 procs each.
        let s = ListScheduler.map(&g, &m, &Allocation::from_vec(vec![4, 2, 2, 4]));
        let report = execute(&g, &s).unwrap();
        assert_eq!(report.peak_parallel_tasks, 2);
        assert_eq!(report.peak_busy_processors, 4);
    }

    #[test]
    fn dependency_violation_is_caught_dynamically() {
        let g = diamond();
        let bad = Schedule::new(
            4,
            vec![
                Placement {
                    task: TaskId(0),
                    start: 0.0,
                    finish: 2.0,
                    processors: vec![0],
                },
                Placement {
                    task: TaskId(1),
                    start: 1.0,
                    finish: 3.0,
                    processors: vec![1],
                },
                Placement {
                    task: TaskId(2),
                    start: 2.0,
                    finish: 4.0,
                    processors: vec![2],
                },
                Placement {
                    task: TaskId(3),
                    start: 4.0,
                    finish: 6.0,
                    processors: vec![3],
                },
            ],
        );
        assert_eq!(
            execute(&g, &bad).unwrap_err(),
            ExecutionError::PredecessorUnfinished {
                task: TaskId(1),
                pred: TaskId(0)
            }
        );
    }

    #[test]
    fn processor_conflict_is_caught_dynamically() {
        let mut b = PtgBuilder::new();
        b.add_task("a", 2e9, 0.0);
        b.add_task("b", 2e9, 0.0);
        let g = b.build().unwrap();
        let bad = Schedule::new(
            2,
            vec![
                Placement {
                    task: TaskId(0),
                    start: 0.0,
                    finish: 2.0,
                    processors: vec![0],
                },
                Placement {
                    task: TaskId(1),
                    start: 1.0,
                    finish: 3.0,
                    processors: vec![0],
                },
            ],
        );
        assert_eq!(
            execute(&g, &bad).unwrap_err(),
            ExecutionError::ProcessorBusy {
                task: TaskId(1),
                processor: 0,
                owner: TaskId(0)
            }
        );
    }

    #[test]
    fn back_to_back_tasks_on_one_processor_are_fine() {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 2e9, 0.0);
        let c = b.add_task("c", 2e9, 0.0);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let s = Schedule::new(
            1,
            vec![
                Placement {
                    task: TaskId(0),
                    start: 0.0,
                    finish: 2.0,
                    processors: vec![0],
                },
                Placement {
                    task: TaskId(1),
                    start: 2.0,
                    finish: 4.0,
                    processors: vec![0],
                },
            ],
        );
        let report = execute(&g, &s).unwrap();
        assert_eq!(report.makespan, 4.0);
        assert_eq!(report.peak_parallel_tasks, 1);
    }

    #[test]
    fn task_count_mismatch_is_rejected() {
        let g = diamond();
        let s = Schedule::new(
            1,
            vec![Placement {
                task: TaskId(0),
                start: 0.0,
                finish: 1.0,
                processors: vec![0],
            }],
        );
        assert!(matches!(
            execute(&g, &s).unwrap_err(),
            ExecutionError::TaskCountMismatch { .. }
        ));
    }
}
