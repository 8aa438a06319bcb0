//! Rescheduling the unfinished remainder of a schedule after a fault.
//!
//! When a processor fails mid-execution the original placements are no
//! longer executable: pending tasks may reference the dead processor, and
//! wide tasks may no longer fit on the surviving machines. The
//! [`Rescheduler`] re-runs the paper's mapping step — ready tasks by
//! decreasing bottom level, each on the earliest-free processor set — over
//! exactly the *unfinished remainder* of the graph, on the *surviving*
//! processors, around the tasks that are still running. This is graceful
//! degradation: the plan shrinks to the machines that are left instead of
//! aborting the run.
//!
//! Invariants of the produced plan (asserted in tests):
//!
//! * every unfinished, non-running task receives exactly one placement,
//! * placements use only surviving processors, pairwise disjoint in
//!   time per processor, and never overlap a running task's processors
//!   before that task finishes,
//! * no task starts before `now`, before a predecessor's (re)planned
//!   finish, or on more processors than survive,
//! * allocations are clamped to the survivor count; durations are re-read
//!   from the time matrix at the clamped width.

use crate::allocation::Allocation;
use crate::avail::{Availability, HeapAvail};
use crate::mapper::{EvalScratch, ListScheduler, ReadyTask, SHARED_SCRATCH};
use crate::schedule::Placement;
use exec_model::TimeMatrix;
use ptg::critpath::bottom_levels_into;
use ptg::{Ptg, TaskId};
use std::fmt;

/// Why a reschedule request could not produce a plan.
///
/// Bad *state shapes* (vector length mismatches) remain panics — they are
/// caller bugs — but an empty platform is a legitimate runtime outcome
/// under fault injection and churn, so it is a typed error the simulator
/// can surface as a one-line diagnostic instead of a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RescheduleError {
    /// Every processor has failed: there is nothing left to plan onto.
    NoSurvivors,
}

impl fmt::Display for RescheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RescheduleError::NoSurvivors => {
                write!(f, "no surviving processors: the whole platform is down")
            }
        }
    }
}

impl std::error::Error for RescheduleError {}

/// A task that is still executing while the rescheduler plans around it.
#[derive(Debug, Clone)]
pub struct RunningTask {
    /// The executing task.
    pub task: TaskId,
    /// Its (estimated) finish time; successors become data-ready then.
    pub finish: f64,
    /// The surviving processors it occupies until `finish`.
    pub processors: Vec<u32>,
}

/// Execution state at the moment of rescheduling.
#[derive(Debug, Clone)]
pub struct ResumeState {
    /// Current simulation time; nothing may be planned before it.
    pub now: f64,
    /// Liveness per processor index (`alive[q]` — dead processors are
    /// never used again).
    pub alive: Vec<bool>,
    /// Per-task finish time for tasks that already completed.
    pub finished: Vec<Option<f64>>,
    /// Tasks currently executing on surviving processors.
    pub running: Vec<RunningTask>,
    /// Per-processor earliest-availability floors for work *outside* the
    /// graph being planned (other jobs' in-flight or already-admitted
    /// placements). Empty means "no foreign work"; otherwise one entry per
    /// processor, and planning on processor `q` starts no earlier than
    /// `busy_until[q]`. This is what lets a backlog of independent jobs be
    /// admitted one after another onto the same machines.
    pub busy_until: Vec<f64>,
}

impl ResumeState {
    /// A state with nothing finished, nothing running, and every
    /// processor alive and free at `now`.
    pub fn fresh(tasks: usize, processors: usize, now: f64) -> Self {
        ResumeState {
            now,
            alive: vec![true; processors],
            finished: vec![None; tasks],
            running: Vec::new(),
            busy_until: Vec::new(),
        }
    }

    /// Number of surviving processors.
    pub fn survivors(&self) -> u32 {
        self.alive.iter().filter(|&&a| a).count() as u32
    }
}

/// Re-runs bottom-level list scheduling over the unfinished remainder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rescheduler;

impl Rescheduler {
    /// Plans every unfinished, non-running task of `g` onto the surviving
    /// processors of `state`. Widths are `min(alloc(v), survivors)`;
    /// durations come from `matrix` at that width. Returns the new
    /// placements in planning (priority) order, or
    /// [`RescheduleError::NoSurvivors`] when every processor is down.
    ///
    /// Node *joins* need no special entry point: a processor that flips
    /// `alive[q]` from `false` to `true` between calls simply re-enters the
    /// availability pool (free from `max(now, busy_until[q])`), and widths
    /// clamp to the *current* survivor count, so capacity growth is picked
    /// up on the next replan.
    ///
    /// # Panics
    /// Panics if `state`'s vectors disagree with `g` in size — a caller
    /// bug, not bad input.
    pub fn reschedule(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        state: &ResumeState,
    ) -> Result<Vec<Placement>, RescheduleError> {
        SHARED_SCRATCH.with_borrow_mut(|scratch| {
            scratch
                .with_avail(|scratch, avail| self.replan(g, matrix, alloc, state, scratch, avail))
        })
    }

    /// [`Self::reschedule`] with processor availability on the per-processor
    /// core's heap oracle. Kept only as the oracle that pins the
    /// rescheduler's placements bit for bit; not for production use.
    #[doc(hidden)]
    pub fn reschedule_reference(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        state: &ResumeState,
    ) -> Result<Vec<Placement>, RescheduleError> {
        SHARED_SCRATCH.with_borrow_mut(|scratch| {
            self.replan(g, matrix, alloc, state, scratch, &mut HeapAvail::default())
        })
    }

    /// The body of [`Self::reschedule`], on processor availability `avail`.
    fn replan<A: Availability>(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        state: &ResumeState,
        scratch: &mut EvalScratch,
        avail: &mut A,
    ) -> Result<Vec<Placement>, RescheduleError> {
        let n = g.task_count();
        assert_eq!(state.finished.len(), n, "finished/PTG size mismatch");
        assert_eq!(alloc.len(), n, "allocation/PTG size mismatch");
        if !state.busy_until.is_empty() {
            assert_eq!(
                state.busy_until.len(),
                state.alive.len(),
                "busy_until/alive size mismatch"
            );
        }
        let survivors = state.survivors();
        if survivors == 0 {
            return Err(RescheduleError::NoSurvivors);
        }

        // A task is "settled" when the planner can treat its finish time as
        // known: finished, or running with a planned finish.
        let mut settled_finish: Vec<Option<f64>> = state.finished.clone();
        for r in &state.running {
            assert!(
                settled_finish[r.task.index()].is_none(),
                "{} both finished and running",
                r.task
            );
            settled_finish[r.task.index()] = Some(r.finish);
        }

        // Widths clamp to the survivors; settled tasks keep width 0.
        let width: Vec<u32> = g
            .task_ids()
            .map(|v| match settled_finish[v.index()] {
                None => alloc.of(v).min(survivors),
                Some(_) => 0,
            })
            .collect();

        // Processor availability: `now` for idle survivors (raised to any
        // foreign-work floor), the running task's finish for occupied
        // ones; dead processors never enter the queue.
        let mut free: Vec<f64> = (0..state.alive.len())
            .map(|q| {
                let floor = state.busy_until.get(q).copied().unwrap_or(state.now);
                state.now.max(floor)
            })
            .collect();
        for r in &state.running {
            for &q in &r.processors {
                assert!(
                    state.alive.get(q as usize) == Some(&true),
                    "running tasks occupy surviving processors"
                );
                free[q as usize] = free[q as usize].max(r.finish);
            }
        }

        // Priority: bottom levels over the remainder, with settled tasks
        // contributing zero time (their work is already paid for).
        scratch.times.clear();
        scratch
            .times
            .extend(g.task_ids().map(|v| match width[v.index()] {
                0 => 0.0,
                w => matrix.time(v, w),
            }));
        bottom_levels_into(g, &scratch.times, &mut scratch.bl);

        // Data readiness and in-degrees over the remainder only, visiting
        // predecessors in builder order as every other fold over the graph
        // does.
        scratch.data_ready.clear();
        scratch.data_ready.resize(n, state.now);
        scratch.in_deg.clear();
        scratch.in_deg.resize(n, 0);
        for v in g.task_ids() {
            if settled_finish[v.index()].is_some() {
                continue;
            }
            for &p in g.predecessors(v) {
                match settled_finish[p.index()] {
                    Some(f) => scratch.data_ready[v.index()] = scratch.data_ready[v.index()].max(f),
                    None => scratch.in_deg[v.index()] += 1,
                }
            }
        }

        // Plain list scheduling on the mapper's core: ready tasks by
        // decreasing bottom level (ties toward the smaller id), each on the
        // earliest-free `width(v)` survivors (ties toward the smaller
        // index). Settled tasks are never queued: their in-degree is 0 but
        // they are not pushed.
        scratch.ready_ref.clear();
        for v in g.task_ids() {
            if settled_finish[v.index()].is_none() && scratch.in_deg[v.index()] == 0 {
                scratch.ready_ref.push(ReadyTask {
                    bl: scratch.bl[v.index()],
                    task: v,
                });
            }
        }
        avail.reset(
            (0..state.alive.len())
                .filter(|&q| state.alive[q])
                .map(|q| (free[q], q as u32)),
        );
        let mut placements = Vec::new();
        ListScheduler::schedule_core(
            g,
            &width,
            f64::INFINITY,
            scratch,
            avail,
            |task, start, finish, processors| {
                placements.push(Placement {
                    task,
                    start,
                    finish,
                    processors: processors.to_vec(),
                });
            },
        );
        Ok(placements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{ListScheduler, Mapper};
    use exec_model::Amdahl;
    use ptg::PtgBuilder;

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

    fn fresh_state(n: usize, p: usize) -> ResumeState {
        ResumeState::fresh(n, p, 0.0)
    }

    #[test]
    fn full_replan_from_scratch_matches_the_list_scheduler() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![2, 1, 2, 4]);
        let reference = ListScheduler.map(&g, &m, &alloc);
        let mut placements = Rescheduler
            .reschedule(&g, &m, &alloc, &fresh_state(4, 4))
            .unwrap();
        placements.sort_by_key(|p| p.task);
        for (got, want) in placements.iter().zip(&reference.placements) {
            assert_eq!(got.task, want.task);
            assert_eq!(got.start, want.start, "{}", got.task);
            assert_eq!(got.finish, want.finish, "{}", got.task);
        }
    }

    #[test]
    fn dead_processors_are_never_used_and_widths_clamp() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![4, 4, 4, 4]);
        let mut state = fresh_state(4, 4);
        state.alive = vec![true, false, true, false]; // 2 survivors
        let placements = Rescheduler.reschedule(&g, &m, &alloc, &state).unwrap();
        assert_eq!(placements.len(), 4);
        for pl in &placements {
            assert!(pl.processors.iter().all(|&q| q == 0 || q == 2), "{pl:?}");
            assert!(pl.width() <= 2, "{pl:?}");
        }
    }

    #[test]
    fn running_tasks_block_their_processors_and_feed_successors() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![1, 1, 1, 1]);
        let mut state = fresh_state(4, 4);
        state.now = 3.0;
        state.finished[0] = Some(2.0);
        // Task 1 is running on processor 0 until t = 5.
        state.running.push(RunningTask {
            task: TaskId(1),
            finish: 5.0,
            processors: vec![0],
        });
        let placements = Rescheduler.reschedule(&g, &m, &alloc, &state).unwrap();
        // Only tasks 2 and 3 get new placements.
        let mut tasks: Vec<TaskId> = placements.iter().map(|p| p.task).collect();
        tasks.sort();
        assert_eq!(tasks, vec![TaskId(2), TaskId(3)]);
        let p2 = placements.iter().find(|p| p.task == TaskId(2)).unwrap();
        let p3 = placements.iter().find(|p| p.task == TaskId(3)).unwrap();
        assert!(p2.start >= 3.0, "nothing starts before now");
        // Task 3 waits for both the running task 1 (finish 5) and task 2.
        assert!(p3.start >= 5.0);
        assert!(p3.start >= p2.finish);
    }

    #[test]
    fn replanned_schedule_respects_precedence_and_capacity() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![2, 3, 2, 4]);
        let mut state = fresh_state(4, 4);
        state.alive[3] = false;
        let placements = Rescheduler.reschedule(&g, &m, &alloc, &state).unwrap();
        // Precedence between replanned tasks.
        let by_task = |t: u32| placements.iter().find(|p| p.task == TaskId(t)).unwrap();
        assert!(by_task(1).start >= by_task(0).finish);
        assert!(by_task(3).start >= by_task(1).finish);
        assert!(by_task(3).start >= by_task(2).finish);
        // No processor runs two tasks at once.
        for (i, a) in placements.iter().enumerate() {
            for b in &placements[i + 1..] {
                assert!(
                    !(a.overlaps_in_time(b) && a.shares_processor(b)),
                    "{a:?} overlaps {b:?}"
                );
            }
        }
    }

    #[test]
    fn all_dead_platform_is_a_typed_error() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::ones(4);
        let mut state = fresh_state(4, 4);
        state.alive = vec![false; 4];
        let err = Rescheduler
            .reschedule(&g, &m, &alloc, &state)
            .expect_err("an empty platform must be rejected");
        assert_eq!(err, RescheduleError::NoSurvivors);
        assert!(err.to_string().contains("no surviving processors"));
    }

    #[test]
    fn node_join_expands_capacity_on_the_next_replan() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::from_vec(vec![4, 4, 4, 4]);
        // First plan on a degraded 2-processor platform...
        let mut state = fresh_state(4, 4);
        state.alive = vec![true, true, false, false];
        let degraded = Rescheduler.reschedule(&g, &m, &alloc, &state).unwrap();
        assert!(degraded.iter().all(|p| p.width() <= 2));
        let degraded_makespan = degraded.iter().map(|p| p.finish).fold(0.0, f64::max);
        // ...then two nodes join: same call, wider plan, no worse finish.
        state.alive = vec![true, true, true, true];
        let joined = Rescheduler.reschedule(&g, &m, &alloc, &state).unwrap();
        assert!(joined.iter().any(|p| p.width() == 4), "joins unused");
        let joined_makespan = joined.iter().map(|p| p.finish).fold(0.0, f64::max);
        assert!(joined_makespan <= degraded_makespan);
        assert!(joined
            .iter()
            .any(|p| p.processors.contains(&2) || p.processors.contains(&3)));
    }

    #[test]
    fn busy_until_floors_defer_admission_per_processor() {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let alloc = Allocation::ones(4);
        let mut state = fresh_state(4, 4);
        // Foreign jobs occupy processors 0 and 1 until t = 10; 2 and 3
        // are free immediately.
        state.busy_until = vec![10.0, 10.0, 0.0, 0.0];
        let placements = Rescheduler.reschedule(&g, &m, &alloc, &state).unwrap();
        for pl in &placements {
            for &q in &pl.processors {
                if q < 2 {
                    assert!(pl.start >= 10.0, "admitted before the floor: {pl:?}");
                }
            }
        }
        // The free processors are used first: the entry task lands on 2/3.
        let entry = placements.iter().find(|p| p.task == TaskId(0)).unwrap();
        assert_eq!(entry.start, 0.0);
        assert!(entry.processors.iter().all(|&q| q >= 2), "{entry:?}");
    }
}
