//! Schedule validation: the safety net under every mapper and the EA.

use crate::allocation::Allocation;
use crate::schedule::Schedule;
use exec_model::TimeMatrix;
use ptg::{Ptg, TaskId};
use std::fmt;

/// Violations a schedule can exhibit.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleViolation {
    /// The schedule covers a different number of tasks than the PTG.
    TaskCountMismatch { expected: usize, actual: usize },
    /// Task uses a different processor count than its allocation.
    WidthMismatch { task: TaskId, alloc: u32, used: u32 },
    /// Task duration disagrees with the execution-time model.
    DurationMismatch {
        task: TaskId,
        expected: f64,
        actual: f64,
    },
    /// A task starts before one of its predecessors finishes.
    DependencyViolated { pred: TaskId, succ: TaskId },
    /// Two tasks overlap in time on the same processor.
    ProcessorOverlap {
        a: TaskId,
        b: TaskId,
        processor: u32,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::TaskCountMismatch { expected, actual } => {
                write!(f, "schedule covers {actual} tasks, PTG has {expected}")
            }
            ScheduleViolation::WidthMismatch { task, alloc, used } => {
                write!(f, "{task} allocated {alloc} processors but uses {used}")
            }
            ScheduleViolation::DurationMismatch {
                task,
                expected,
                actual,
            } => {
                write!(f, "{task} runs for {actual}s, model says {expected}s")
            }
            ScheduleViolation::DependencyViolated { pred, succ } => {
                write!(f, "{succ} starts before its predecessor {pred} finishes")
            }
            ScheduleViolation::ProcessorOverlap { a, b, processor } => {
                write!(f, "{a} and {b} overlap on processor {processor}")
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// Checks every invariant of a schedule against its PTG, allocation and
/// execution-time matrix. Returns the first violation found (tests usually
/// want [`all_violations`] instead).
///
/// Thin wrapper over [`for_each_violation`]: it stops the enumerator at the
/// first violation instead of re-scanning the whole schedule.
pub fn validate_schedule(
    g: &Ptg,
    matrix: &TimeMatrix,
    alloc: &Allocation,
    schedule: &Schedule,
) -> Result<(), ScheduleViolation> {
    let mut first = None;
    for_each_violation(g, matrix, alloc, schedule, &mut |v| {
        first = Some(v);
        false // stop after the first violation
    });
    first.map_or(Ok(()), Err)
}

/// Collects **all** violations of a schedule.
pub fn all_violations(
    g: &Ptg,
    matrix: &TimeMatrix,
    alloc: &Allocation,
    schedule: &Schedule,
) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    for_each_violation(g, matrix, alloc, schedule, &mut |v| {
        out.push(v);
        true
    });
    out
}

/// The single violation enumerator behind [`validate_schedule`] and
/// [`all_violations`].
///
/// Calls `sink` for every violation in a deterministic order (per-task width
/// and duration checks, then dependency checks in edge order, then per-
/// processor capacity scans). `sink` returns `false` to stop enumeration —
/// that is how the short-circuit API avoids scanning past the first
/// violation. A task-count mismatch always terminates the enumeration since
/// every later check indexes placements by task id.
pub fn for_each_violation(
    g: &Ptg,
    matrix: &TimeMatrix,
    alloc: &Allocation,
    schedule: &Schedule,
    sink: &mut dyn FnMut(ScheduleViolation) -> bool,
) {
    if schedule.task_count() != g.task_count() {
        sink(ScheduleViolation::TaskCountMismatch {
            expected: g.task_count(),
            actual: schedule.task_count(),
        });
        return; // everything below indexes by task
    }
    const REL_TOL: f64 = 1e-9;

    for v in g.task_ids() {
        let p = schedule.placement(v);
        if p.width() != alloc.of(v)
            && !sink(ScheduleViolation::WidthMismatch {
                task: v,
                alloc: alloc.of(v),
                used: p.width(),
            })
        {
            return;
        }
        let expected = matrix.time(v, p.width().max(1));
        let actual = p.duration();
        if (actual - expected).abs() > REL_TOL * expected.max(1.0)
            && !sink(ScheduleViolation::DurationMismatch {
                task: v,
                expected,
                actual,
            })
        {
            return;
        }
    }

    // Dependencies: successor may start exactly at the predecessor's finish.
    for (a, b) in g.edges() {
        let fa = schedule.placement(a).finish;
        let sb = schedule.placement(b).start;
        if sb + REL_TOL * fa.max(1.0) < fa
            && !sink(ScheduleViolation::DependencyViolated { pred: a, succ: b })
        {
            return;
        }
    }

    // Processor capacity: per processor, sort intervals and scan.
    let mut per_proc: Vec<Vec<(f64, f64, TaskId)>> = vec![Vec::new(); schedule.processors as usize];
    for pl in &schedule.placements {
        for &q in &pl.processors {
            per_proc[q as usize].push((pl.start, pl.finish, pl.task));
        }
    }
    for (q, intervals) in per_proc.iter_mut().enumerate() {
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in intervals.windows(2) {
            let (_, f0, t0) = w[0];
            let (s1, f1, t1) = w[1];
            // Allow touching intervals; zero-duration tasks can share an instant.
            if s1 + REL_TOL * f0.max(1.0) < f0
                && f1 > s1
                && !sink(ScheduleViolation::ProcessorOverlap {
                    a: t0,
                    b: t1,
                    processor: q as u32,
                })
            {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{ListScheduler, Mapper};
    use crate::schedule::Placement;
    use exec_model::Amdahl;
    use ptg::PtgBuilder;

    fn chain2() -> Ptg {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 1e9, 0.0);
        let c = b.add_task("c", 1e9, 0.0);
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn mapper_output_is_clean() {
        let g = chain2();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![2, 3]);
        let s = ListScheduler.map(&g, &m, &alloc);
        assert!(all_violations(&g, &m, &alloc, &s).is_empty());
    }

    #[test]
    fn dependency_violation_is_detected() {
        let g = chain2();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 2);
        let alloc = Allocation::ones(2);
        let s = Schedule::new(
            2,
            vec![
                Placement {
                    task: TaskId(0),
                    start: 0.0,
                    finish: 1.0,
                    processors: vec![0],
                },
                Placement {
                    task: TaskId(1),
                    start: 0.5,
                    finish: 1.5,
                    processors: vec![1],
                },
            ],
        );
        let v = all_violations(&g, &m, &alloc, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, ScheduleViolation::DependencyViolated { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn processor_overlap_is_detected() {
        let mut b = PtgBuilder::new();
        b.add_task("a", 1e9, 0.0);
        b.add_task("b", 1e9, 0.0);
        let g = b.build().unwrap();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 2);
        let alloc = Allocation::ones(2);
        let s = Schedule::new(
            2,
            vec![
                Placement {
                    task: TaskId(0),
                    start: 0.0,
                    finish: 1.0,
                    processors: vec![0],
                },
                Placement {
                    task: TaskId(1),
                    start: 0.5,
                    finish: 1.5,
                    processors: vec![0],
                },
            ],
        );
        let v = all_violations(&g, &m, &alloc, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, ScheduleViolation::ProcessorOverlap { processor: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn width_and_duration_mismatches_are_detected() {
        let g = chain2();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![2, 1]);
        let s = Schedule::new(
            4,
            vec![
                // width 1 but allocated 2; duration 2.0 but model says 1.0
                Placement {
                    task: TaskId(0),
                    start: 0.0,
                    finish: 2.0,
                    processors: vec![0],
                },
                Placement {
                    task: TaskId(1),
                    start: 2.0,
                    finish: 3.0,
                    processors: vec![1],
                },
            ],
        );
        let v = all_violations(&g, &m, &alloc, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, ScheduleViolation::WidthMismatch { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, ScheduleViolation::DurationMismatch { .. })));
    }

    #[test]
    fn task_count_mismatch_short_circuits() {
        let g = chain2();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 2);
        let alloc = Allocation::ones(2);
        let s = Schedule::new(
            2,
            vec![Placement {
                task: TaskId(0),
                start: 0.0,
                finish: 1.0,
                processors: vec![0],
            }],
        );
        assert_eq!(
            validate_schedule(&g, &m, &alloc, &s),
            Err(ScheduleViolation::TaskCountMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn short_circuit_agrees_with_the_full_enumeration() {
        // Schedule with several simultaneous violations: the short-circuit
        // path must return exactly the first violation of the full list,
        // because both are driven by the same enumerator.
        let g = chain2();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![2, 1]);
        let s = Schedule::new(
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
                    start: 0.5,
                    finish: 1.5,
                    processors: vec![0],
                },
            ],
        );
        let all = all_violations(&g, &m, &alloc, &s);
        assert!(all.len() >= 3, "{all:?}");
        assert_eq!(validate_schedule(&g, &m, &alloc, &s), Err(all[0].clone()));

        // And the early exit really stops the enumerator.
        let mut seen = 0;
        for_each_violation(&g, &m, &alloc, &s, &mut |_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn touching_intervals_are_legal() {
        let mut b = PtgBuilder::new();
        b.add_task("a", 1e9, 0.0);
        b.add_task("b", 1e9, 0.0);
        let g = b.build().unwrap();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 1);
        let alloc = Allocation::ones(2);
        let s = Schedule::new(
            1,
            vec![
                Placement {
                    task: TaskId(0),
                    start: 0.0,
                    finish: 1.0,
                    processors: vec![0],
                },
                Placement {
                    task: TaskId(1),
                    start: 1.0,
                    finish: 2.0,
                    processors: vec![0],
                },
            ],
        );
        assert!(all_violations(&g, &m, &alloc, &s).is_empty());
    }
}
