//! Seeded fault injection for schedule replay.
//!
//! The paper's simulator assumes execution times are exact and processors
//! never fail; real clusters exhibit stragglers, crashed tasks and node
//! failures. This module makes those first-class, deterministically:
//!
//! * [`FaultSpec`] — the user-facing fault description, parsed from a
//!   `key=value,...` string (see [`FaultSpec::parse`] for the grammar),
//! * [`FaultPlan`] — one concrete, seeded realization of a spec for one
//!   trial: a perturbation factor per task, a bounded crash list per task
//!   and an optional failure time per processor. Same spec + seed + trial
//!   ⇒ same plan, always,
//! * [`execute_with_faults`] — a dynamic re-simulation of a schedule under
//!   a plan: tasks keep their planned processors but start when their
//!   predecessors and processors actually allow it, crashed attempts retry
//!   after exponential backoff, and a processor failure triggers the
//!   [`sched::Rescheduler`] over the unfinished remainder of the graph on
//!   the surviving processors,
//! * [`fault_trials`] / [`FaultSummary`] — the makespan-degradation
//!   distribution (mean/p95/worst vs fault-free) over N independent trials.
//!
//! Under the *empty* plan the re-simulation provably reproduces the input
//! schedule bit-for-bit: every duration is re-read from the same
//! [`TimeMatrix`] the mapper used, the perturbation factor is exactly
//! `1.0`, and each start time is the IEEE-exact `max` of predecessor
//! finishes and processor releases — the same expression the mapper
//! evaluated. The property tests in `tests/prop_faults.rs` hold this
//! guarantee against random DAGGEN graphs.

use exec_model::TimeMatrix;
use ptg::{Ptg, TaskId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{Allocation, RescheduleError, Rescheduler, ResumeState, RunningTask, Schedule};
use serde::Serialize;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Upper bound on `retries=` — beyond this the exponential backoff horizon
/// dwarfs any schedule and almost certainly indicates a typo.
pub const MAX_RETRIES: u32 = 16;

/// A parse or validation error in a fault specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// An item was not of the form `key=value`.
    BadPair(String),
    /// The key is not part of the grammar.
    UnknownKey(String),
    /// The value failed to parse or is out of range for its key.
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::BadPair(item) => {
                write!(f, "fault spec item {item:?} is not of the form key=value")
            }
            FaultSpecError::UnknownKey(key) => write!(
                f,
                "unknown fault spec key {key:?} (known: seed, perturb, straggler_prob, \
                 straggler_factor, crash, retries, backoff, procfail, kill_all)"
            ),
            FaultSpecError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "fault spec {key}={value}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A user-facing fault description; one spec drives many seeded trials.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Base RNG seed; trial `i` uses a stream derived from `(seed, i)`.
    pub seed: u64,
    /// Multiplicative execution-time noise: each task's duration is scaled
    /// by a factor drawn uniformly from `[1, 1 + perturb]`.
    pub perturb: f64,
    /// Probability that a task is a straggler (its factor is additionally
    /// multiplied by `straggler_factor`).
    pub straggler_prob: f64,
    /// Slowdown factor applied to stragglers (≥ 1).
    pub straggler_factor: f64,
    /// Per-attempt crash probability: each attempt of a task crashes with
    /// this probability at a uniform progress point, up to `retries` times.
    pub crash: f64,
    /// Retry budget per task. Attempt `retries` (0-based) never crashes,
    /// so every run completes — that is what *bounded* retry buys.
    pub retries: u32,
    /// Backoff before retry `k` (0-based crashed attempt): `backoff · 2^k`
    /// seconds.
    pub backoff: f64,
    /// Per-processor probability of permanent failure at a uniform time
    /// within the fault-free makespan. At least one processor always
    /// survives (see [`FaultPlan::realize`]).
    pub procfail: f64,
    /// Catastrophic total failure: when set, *every* processor fails at
    /// this fraction of the fault-free makespan, overriding the
    /// keep-one-survivor rule. The replay then has no platform left and
    /// reports [`RescheduleError::NoSurvivors`] — the negative path the
    /// typed error exists for.
    pub kill_all: Option<f64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            perturb: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 3.0,
            crash: 0.0,
            retries: 3,
            backoff: 0.0,
            procfail: 0.0,
            kill_all: None,
        }
    }
}

impl FaultSpec {
    /// Parses a `key=value,...` spec. Grammar (all items optional, any
    /// order): `seed=<u64>`, `perturb=<f64 ≥ 0>`, `straggler_prob=<prob>`,
    /// `straggler_factor=<f64 ≥ 1>`, `crash=<prob>`, `retries=<0..=16>`,
    /// `backoff=<f64 ≥ 0>`, `procfail=<prob>`,
    /// `kill_all=<fraction in [0, 1]>`. The empty string is the
    /// fault-free spec.
    pub fn parse(s: &str) -> Result<FaultSpec, FaultSpecError> {
        let mut spec = FaultSpec::default();
        for item in s.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| FaultSpecError::BadPair(item.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |expected: &'static str| FaultSpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
                expected,
            };
            let prob = |field: &mut f64| -> Result<(), FaultSpecError> {
                *field = value
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| bad("a probability in [0, 1]"))?;
                Ok(())
            };
            match key {
                "seed" => {
                    spec.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                }
                "perturb" => {
                    spec.perturb = value
                        .parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x >= 0.0)
                        .ok_or_else(|| bad("a finite value ≥ 0"))?;
                }
                "straggler_prob" => prob(&mut spec.straggler_prob)?,
                "straggler_factor" => {
                    spec.straggler_factor = value
                        .parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x >= 1.0)
                        .ok_or_else(|| bad("a finite value ≥ 1"))?;
                }
                "crash" => prob(&mut spec.crash)?,
                "retries" => {
                    spec.retries = value
                        .parse::<u32>()
                        .ok()
                        .filter(|r| *r <= MAX_RETRIES)
                        .ok_or_else(|| bad("an integer in 0..=16"))?;
                }
                "backoff" => {
                    spec.backoff = value
                        .parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x >= 0.0)
                        .ok_or_else(|| bad("a finite value ≥ 0"))?;
                }
                "procfail" => prob(&mut spec.procfail)?,
                "kill_all" => {
                    spec.kill_all = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|x| (0.0..=1.0).contains(x))
                            .ok_or_else(|| bad("a makespan fraction in [0, 1]"))?,
                    );
                }
                _ => return Err(FaultSpecError::UnknownKey(key.to_string())),
            }
        }
        Ok(spec)
    }

    /// Canonical `key=value,...` rendering; parses back to `self`.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "seed={},perturb={},straggler_prob={},straggler_factor={},crash={},retries={},backoff={},procfail={}",
            self.seed,
            self.perturb,
            self.straggler_prob,
            self.straggler_factor,
            self.crash,
            self.retries,
            self.backoff,
            self.procfail
        );
        if let Some(frac) = self.kill_all {
            s.push_str(&format!(",kill_all={frac}"));
        }
        s
    }

    /// True when no realization of this spec can inject any fault.
    pub fn is_fault_free(&self) -> bool {
        self.perturb == 0.0
            && self.straggler_prob == 0.0
            && self.crash == 0.0
            && self.procfail == 0.0
            && self.kill_all.is_none()
    }
}

/// One concrete, deterministic realization of a [`FaultSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Multiplicative duration factor per task (exactly `1.0` ⇒ no
    /// perturbation; multiplying by `1.0` is IEEE-exact).
    pub factors: Vec<f64>,
    /// Crash-progress points per task: attempt `k` (0-based) crashes at
    /// progress `crashes[v][k]` iff `k < crashes[v].len()`. Lists are
    /// bounded by the retry budget, so the attempt after the last listed
    /// crash always completes.
    pub crashes: Vec<Vec<f64>>,
    /// Backoff before retry `k`: `backoff_base · 2^k` seconds.
    pub backoff_base: f64,
    /// Permanent failure time per processor (`None` ⇒ the processor
    /// survives the whole run). All `Some` only under `kill_all`.
    pub proc_fail: Vec<Option<f64>>,
    /// Per-task: did the straggler draw fire? (Distinguishes the
    /// straggler contribution to `factors` from plain perturbation for
    /// the per-kind breakdown.)
    pub stragglers: Vec<bool>,
    /// Per-task: did a non-unit perturbation draw land? (`factors[v]`
    /// may still be 1.0 when only the straggler multiplier fired.)
    pub perturbed: Vec<bool>,
}

impl FaultPlan {
    /// The fault-free plan: unit factors, no crashes, no failures. Replay
    /// under this plan is bit-identical to the input schedule.
    pub fn empty(tasks: usize, processors: u32) -> FaultPlan {
        FaultPlan {
            factors: vec![1.0; tasks],
            crashes: vec![Vec::new(); tasks],
            backoff_base: 0.0,
            proc_fail: vec![None; processors as usize],
            stragglers: vec![false; tasks],
            perturbed: vec![false; tasks],
        }
    }

    /// Realizes `spec` for `trial` over `tasks` tasks and `processors`
    /// processors. `horizon` bounds processor-failure times (pass the
    /// fault-free makespan). Fully determined by
    /// `(spec, trial, tasks, processors, horizon)`.
    ///
    /// If every processor draws a failure, the one failing *last* is kept
    /// alive instead, so the rescheduler always has a survivor.
    pub fn realize(
        spec: &FaultSpec,
        trial: u64,
        tasks: usize,
        processors: u32,
        horizon: f64,
    ) -> FaultPlan {
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "bad horizon {horizon}"
        );
        // Distinct, collision-free stream per (seed, trial).
        let mut rng =
            ChaCha8Rng::seed_from_u64(spec.seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut factors = Vec::with_capacity(tasks);
        let mut stragglers = vec![false; tasks];
        let mut perturbed = vec![false; tasks];
        for i in 0..tasks {
            let mut f = if spec.perturb > 0.0 {
                1.0 + rng.gen_range(0.0..=spec.perturb)
            } else {
                1.0
            };
            perturbed[i] = f != 1.0;
            if spec.straggler_prob > 0.0 && rng.gen_bool(spec.straggler_prob) {
                f *= spec.straggler_factor;
                stragglers[i] = true;
            }
            factors.push(f);
        }
        let mut crashes = vec![Vec::new(); tasks];
        if spec.crash > 0.0 {
            for list in &mut crashes {
                while (list.len() as u32) < spec.retries && rng.gen_bool(spec.crash) {
                    list.push(rng.gen_range(0.0..1.0));
                }
            }
        }
        let mut proc_fail = vec![None; processors as usize];
        if spec.procfail > 0.0 {
            for slot in &mut proc_fail {
                if rng.gen_bool(spec.procfail) {
                    *slot = Some(rng.gen_range(0.0..horizon));
                }
            }
            if proc_fail.iter().all(Option::is_some) {
                // Keep the processor that would fail last alive.
                let survivor = proc_fail
                    .iter()
                    .enumerate()
                    .max_by(|(qa, a), (qb, b)| {
                        a.unwrap()
                            .partial_cmp(&b.unwrap())
                            .expect("failure times are finite")
                            .then_with(|| qb.cmp(qa))
                    })
                    .map(|(q, _)| q)
                    .expect("at least one processor");
                proc_fail[survivor] = None;
            }
        }
        if let Some(frac) = spec.kill_all {
            // Catastrophe drill: the whole platform goes down at once —
            // deliberately *not* subject to the keep-one-survivor rule.
            proc_fail.fill(Some(frac * horizon));
        }
        FaultPlan {
            factors,
            crashes,
            backoff_base: spec.backoff,
            proc_fail,
            stragglers,
            perturbed,
        }
    }

    /// True when this plan injects nothing (replay is bit-identical).
    pub fn is_empty(&self) -> bool {
        self.factors.iter().all(|&f| f == 1.0)
            && self.crashes.iter().all(Vec::is_empty)
            && self.proc_fail.iter().all(Option::is_none)
    }
}

/// One logged event of a faulty replay, in simulation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time.
    pub time: f64,
    /// The task involved.
    pub task: TaskId,
    /// What happened.
    pub kind: FaultEventKind,
}

/// Kinds of faulty-replay events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// An attempt began executing.
    Start,
    /// The task completed.
    Finish,
    /// The attempt crashed; the task will retry after backoff.
    Crash,
    /// The attempt was killed by a processor failure; the task will be
    /// rescheduled (its retry budget is not charged).
    Kill,
}

/// Result of one faulty replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyReport {
    /// Time of the last finish.
    pub makespan: f64,
    /// Chronological event log (starts, finishes, crashes, kills).
    pub events: Vec<FaultEvent>,
    /// Crashed attempts that were retried.
    pub retries: usize,
    /// Attempts killed by processor failures.
    pub tasks_killed: usize,
    /// Processors that failed during the run (failures after the last
    /// finish never surface).
    pub processor_failures: Vec<u32>,
    /// Times the rescheduler replanned the remainder.
    pub reschedules: usize,
}

impl FaultyReport {
    /// `(time, task, is_start)` triples of the start/finish events, in
    /// replay order. Under [`FaultPlan::empty`] they are the schedule's
    /// own placements, ordered by time, finishes before starts, then task
    /// id.
    pub fn start_finish_trace(&self) -> Vec<(f64, TaskId, bool)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultEventKind::Start => Some((e.time, e.task, true)),
                FaultEventKind::Finish => Some((e.time, e.task, false)),
                _ => None,
            })
            .collect()
    }
}

/// A wake-up of the faulty replay loop. Min-ordered by time; at equal
/// times finishes run first (so released processors are reusable at the
/// same instant), then crashes, then backoff expiries, then processor
/// failures; final ties break by id for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Wake {
    time: f64,
    /// 0 = finish, 1 = crash, 2 = backoff expiry, 3 = processor failure.
    rank: u8,
    /// Task id for ranks 0–2, processor id for rank 3.
    id: u32,
    /// Start epoch the event belongs to (ranks 0–1); stale epochs are
    /// dropped.
    epoch: u32,
}

impl Eq for Wake {}
impl Ord for Wake {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .expect("wake times are finite")
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.id.cmp(&self.id))
    }
}
impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-task dynamic state of the faulty replay.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    /// Waiting to start; not before `ready_at` (backoff).
    Pending { ready_at: f64 },
    /// Executing since `start`; `finish`/`crash_at` are this attempt's
    /// terminal event.
    Running { finish: f64 },
    /// Done at `finish`.
    Finished { finish: f64 },
}

/// Replays `schedule` for `g` under `plan`, dynamically.
///
/// Tasks keep their planned processor sets but start when their
/// predecessors have finished, all their processors are free *and* their
/// (re)planned start time has been reached — the dispatcher follows the
/// schedule, it never runs ahead of it. Under the empty plan that
/// reproduces the planned starts bit-for-bit. Crashed
/// attempts release their processors, back off exponentially and retry;
/// a processor failure kills the attempts running on it (retry budget
/// untouched) and hands every unfinished, non-running task to the
/// [`Rescheduler`], which replans the remainder onto the survivors.
/// `alloc` must be the allocation the schedule was mapped from; the
/// rescheduler clamps it to the surviving processor count.
///
/// Returns [`RescheduleError::NoSurvivors`] when a failure leaves no
/// processor alive (only reachable via `kill_all`, since `realize` keeps
/// a survivor otherwise) — graceful degradation has a floor, and hitting
/// it is a reportable outcome, not a crash.
///
/// # Panics
/// Panics if `plan`/`alloc`/`schedule` sizes disagree with `g`, or the
/// replay stalls — all indicate caller or internal bugs, never bad user
/// input.
pub fn execute_with_faults(
    g: &Ptg,
    matrix: &TimeMatrix,
    schedule: &Schedule,
    alloc: &Allocation,
    plan: &FaultPlan,
) -> Result<FaultyReport, RescheduleError> {
    let n = g.task_count();
    assert_eq!(schedule.task_count(), n, "schedule/PTG size mismatch");
    assert_eq!(plan.factors.len(), n, "plan factors/PTG size mismatch");
    assert_eq!(plan.crashes.len(), n, "plan crashes/PTG size mismatch");
    assert_eq!(alloc.len(), n, "allocation/PTG size mismatch");
    let p_total = schedule.processors as usize;
    assert_eq!(plan.proc_fail.len(), p_total, "plan/platform size mismatch");

    // Assignments start as planned; the rescheduler may replace them.
    let mut procs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut duration = vec![0.0f64; n];
    // Start-priority when several pending tasks compete for freed
    // processors: planned start, then id. Fault-free there is no
    // contention and each task starts exactly at its planned time.
    let mut priority = vec![0.0f64; n];
    for pl in &schedule.placements {
        let v = pl.task.index();
        procs[v] = pl.processors.clone();
        duration[v] = matrix.time(pl.task, pl.width()) * plan.factors[v];
        priority[v] = pl.start;
    }

    let mut state = vec![TaskState::Pending { ready_at: 0.0 }; n];
    let mut attempt = vec![0usize; n];
    let mut epoch = vec![0u32; n];
    let mut unfinished_preds: Vec<usize> = g.task_ids().map(|v| g.predecessors(v).len()).collect();
    let mut alive = vec![true; p_total];
    let mut owner: Vec<Option<TaskId>> = vec![None; p_total];
    let mut unfinished = n;

    let mut queue: BinaryHeap<Wake> = BinaryHeap::new();
    for (q, fail) in plan.proc_fail.iter().enumerate() {
        if let Some(t) = fail {
            queue.push(Wake {
                time: *t,
                rank: 3,
                id: q as u32,
                epoch: 0,
            });
        }
    }
    // One wake-up per planned start, so a task gated on its planned time
    // (rather than on a finish event) still gets a dispatch scan. Stale
    // wakes are harmless: rank 2 only triggers a scan.
    for (i, &start) in priority.iter().enumerate() {
        if start > 0.0 {
            queue.push(Wake {
                time: start,
                rank: 2,
                id: i as u32,
                epoch: 0,
            });
        }
    }

    let mut events = Vec::with_capacity(2 * n);
    let mut retries = 0usize;
    let mut tasks_killed = 0usize;
    let mut processor_failures = Vec::new();
    let mut reschedules = 0usize;
    let mut makespan = 0.0f64;

    // Ordered list of pending candidates, rebuilt lazily: scanning all
    // tasks per wake is O(V) and V ≤ a few hundred here; keep it simple.
    let start_scan = |now: f64,
                      state: &mut Vec<TaskState>,
                      attempt: &[usize],
                      epoch: &mut Vec<u32>,
                      unfinished_preds: &[usize],
                      procs: &[Vec<u32>],
                      duration: &[f64],
                      priority: &[f64],
                      owner: &mut Vec<Option<TaskId>>,
                      queue: &mut BinaryHeap<Wake>,
                      events: &mut Vec<FaultEvent>| {
        // A task is dispatchable once its backoff expired, its
        // predecessors finished *and* its (re)planned start has been
        // reached: the dispatcher follows the schedule, it never runs
        // ahead of it. Without the planned-start gate a task whose
        // processors happen to be idle early would jump the plan, and the
        // fault-free replay would no longer be bit-identical to the
        // baseline.
        let mut candidates: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|v| {
                matches!(state[v.index()], TaskState::Pending { ready_at } if ready_at <= now)
                    && unfinished_preds[v.index()] == 0
                    && priority[v.index()] <= now
            })
            .collect();
        candidates.sort_unstable_by(|a, b| {
            priority[a.index()]
                .partial_cmp(&priority[b.index()])
                .expect("priorities are finite")
                .then_with(|| a.cmp(b))
        });
        for v in candidates {
            let i = v.index();
            // Atomic check-and-start: take the processors only if *all*
            // are free and alive — no hold-and-wait, hence no deadlock.
            if !procs[i].iter().all(|&q| owner[q as usize].is_none()) {
                continue;
            }
            debug_assert!(!procs[i].is_empty(), "{v} has no processors");
            for &q in &procs[i] {
                owner[q as usize] = Some(v);
            }
            epoch[i] += 1;
            let crash_list = &plan.crashes[i];
            let (finish, rank) = if attempt[i] < crash_list.len() {
                (now + crash_list[attempt[i]] * duration[i], 1)
            } else {
                (now + duration[i], 0)
            };
            state[i] = TaskState::Running { finish };
            queue.push(Wake {
                time: finish,
                rank,
                id: v.0,
                epoch: epoch[i],
            });
            events.push(FaultEvent {
                time: now,
                task: v,
                kind: FaultEventKind::Start,
            });
        }
    };

    start_scan(
        0.0,
        &mut state,
        &attempt,
        &mut epoch,
        &unfinished_preds,
        &procs,
        &duration,
        &priority,
        &mut owner,
        &mut queue,
        &mut events,
    );

    while unfinished > 0 {
        let head = queue
            .pop()
            .expect("faulty replay stalled with unfinished tasks");
        let now = head.time;
        // Batch every wake at this instant before the start scan, so
        // same-time finishes are all logged (and their processors all
        // freed) before any start — matching the event-queue ordering of
        // the baseline replay.
        let mut batch = vec![head];
        while let Some(next) = queue.peek() {
            if next.time == now {
                batch.push(queue.pop().expect("peeked"));
            } else {
                break;
            }
        }
        for wake in batch {
            match wake.rank {
                // Finish.
                0 => {
                    let v = TaskId(wake.id);
                    let i = v.index();
                    if wake.epoch != epoch[i] {
                        continue; // attempt was killed; stale event
                    }
                    let TaskState::Running { finish } = state[i] else {
                        continue;
                    };
                    debug_assert_eq!(finish, now);
                    state[i] = TaskState::Finished { finish: now };
                    for &q in &procs[i] {
                        debug_assert_eq!(owner[q as usize], Some(v));
                        owner[q as usize] = None;
                    }
                    for &w in g.successors(v) {
                        unfinished_preds[w.index()] -= 1;
                    }
                    unfinished -= 1;
                    makespan = makespan.max(now);
                    events.push(FaultEvent {
                        time: now,
                        task: v,
                        kind: FaultEventKind::Finish,
                    });
                }
                // Crash.
                1 => {
                    let v = TaskId(wake.id);
                    let i = v.index();
                    if wake.epoch != epoch[i] {
                        continue;
                    }
                    if !matches!(state[i], TaskState::Running { .. }) {
                        continue;
                    }
                    for &q in &procs[i] {
                        owner[q as usize] = None;
                    }
                    let backoff = plan.backoff_base * (1u64 << attempt[i].min(63)) as f64;
                    attempt[i] += 1;
                    retries += 1;
                    let ready_at = now + backoff;
                    state[i] = TaskState::Pending { ready_at };
                    queue.push(Wake {
                        time: ready_at,
                        rank: 2,
                        id: v.0,
                        epoch: 0,
                    });
                    events.push(FaultEvent {
                        time: now,
                        task: v,
                        kind: FaultEventKind::Crash,
                    });
                }
                // Backoff expiry: no state change, just a wake-up.
                2 => {}
                // Processor failure.
                3 => {
                    let q = wake.id as usize;
                    if !alive[q] {
                        continue;
                    }
                    alive[q] = false;
                    processor_failures.push(wake.id);
                    // Kill every attempt running on the dead processor;
                    // the retry budget is not charged for hardware.
                    for i in 0..n {
                        if !matches!(state[i], TaskState::Running { .. }) {
                            continue;
                        }
                        if !procs[i].contains(&wake.id) {
                            continue;
                        }
                        let v = TaskId(i as u32);
                        for &p in &procs[i] {
                            owner[p as usize] = None;
                        }
                        epoch[i] += 1; // invalidate the pending terminal event
                        state[i] = TaskState::Pending { ready_at: now };
                        tasks_killed += 1;
                        events.push(FaultEvent {
                            time: now,
                            task: v,
                            kind: FaultEventKind::Kill,
                        });
                    }
                    // Replan the unfinished remainder onto the survivors.
                    let resume = ResumeState {
                        now,
                        alive: alive.clone(),
                        finished: state
                            .iter()
                            .map(|s| match s {
                                TaskState::Finished { finish } => Some(*finish),
                                _ => None,
                            })
                            .collect(),
                        running: state
                            .iter()
                            .enumerate()
                            .filter_map(|(i, s)| match s {
                                TaskState::Running { finish } => Some(RunningTask {
                                    task: TaskId(i as u32),
                                    finish: *finish,
                                    processors: procs[i].clone(),
                                }),
                                _ => None,
                            })
                            .collect(),
                        busy_until: Vec::new(),
                    };
                    let replanned = Rescheduler.reschedule(g, matrix, alloc, &resume)?;
                    reschedules += 1;
                    for pl in replanned {
                        let i = pl.task.index();
                        duration[i] = matrix.time(pl.task, pl.width()) * plan.factors[i];
                        procs[i] = pl.processors;
                        priority[i] = pl.start;
                        // Re-arm the dispatch gate at the new planned start.
                        queue.push(Wake {
                            time: pl.start.max(now),
                            rank: 2,
                            id: pl.task.0,
                            epoch: 0,
                        });
                    }
                }
                _ => unreachable!(),
            }
        }
        start_scan(
            now,
            &mut state,
            &attempt,
            &mut epoch,
            &unfinished_preds,
            &procs,
            &duration,
            &priority,
            &mut owner,
            &mut queue,
            &mut events,
        );
    }

    Ok(FaultyReport {
        makespan,
        events,
        retries,
        tasks_killed,
        processor_failures,
        reschedules,
    })
}

/// Occurrence and impact of one fault kind across a trial batch.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct KindStat {
    /// Trials in which this kind fired at least once.
    pub trials_affected: usize,
    /// Total individual events of this kind across all trials (crashed
    /// attempts, straggler tasks, perturbed tasks, failed processors).
    pub events: usize,
    /// Mean makespan degradation over the *affected* trials only
    /// (`0.0` when no trial was affected). Kinds co-occur within a
    /// trial, so these means attribute shared degradation to every kind
    /// present — they rank kinds, they do not decompose the total.
    pub mean_degradation: f64,
}

/// Per-fault-kind breakdown of a trial batch: which injection source
/// fired, how often, and how bad the affected trials were.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct FaultKindBreakdown {
    /// Task-attempt crashes (retried after backoff).
    pub crash: KindStat,
    /// Straggler slowdowns (`straggler_factor` multiplier).
    pub straggler: KindStat,
    /// Plain execution-time perturbation (`[1, 1 + perturb]` noise).
    pub perturb: KindStat,
    /// Permanent processor failures (rescheduler invoked).
    pub node_failure: KindStat,
}

/// Degradation distribution over N seeded fault trials of one schedule.
/// Crashed attempts and processor failures are counted once, in
/// [`FaultSummary::kinds`] (`kinds.crash.events`,
/// `kinds.node_failure.events`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSummary {
    /// The spec string the trials were realized from.
    pub spec: String,
    /// Number of independent trials.
    pub trials: usize,
    /// Makespan of the undisturbed schedule (the baseline).
    pub fault_free_makespan: f64,
    /// Mean of `faulty_makespan / fault_free_makespan` over the trials.
    pub mean_degradation: f64,
    /// 95th percentile of the degradation ratios.
    pub p95_degradation: f64,
    /// Worst (largest) degradation ratio.
    pub worst_degradation: f64,
    /// Total attempts killed by processor failures across all trials.
    pub tasks_killed: usize,
    /// Total rescheduler invocations across all trials.
    pub reschedules: usize,
    /// Per-fault-kind breakdown (counts and mean degradation).
    pub kinds: FaultKindBreakdown,
}

/// Runs `trials` independent realizations of `spec` against `schedule`
/// and summarizes the makespan-degradation distribution. Deterministic:
/// trial `i` always uses the plan `FaultPlan::realize(spec, i, ..)`.
/// Fails with [`RescheduleError::NoSurvivors`] when a trial kills the
/// whole platform (`kill_all`).
pub fn fault_trials(
    g: &Ptg,
    matrix: &TimeMatrix,
    schedule: &Schedule,
    alloc: &Allocation,
    spec: &FaultSpec,
    trials: usize,
) -> Result<FaultSummary, RescheduleError> {
    assert!(trials >= 1, "at least one trial");
    let baseline = schedule.makespan();
    let mut degradations = Vec::with_capacity(trials);
    let mut tasks_killed = 0;
    let mut reschedules = 0;
    let mut kinds = FaultKindBreakdown::default();
    // (events this trial, degradation) accumulators per kind; folded into
    // the mean at the end.
    let mut kind_sums = [0.0f64; 4];
    for trial in 0..trials {
        let plan = FaultPlan::realize(
            spec,
            trial as u64,
            g.task_count(),
            schedule.processors,
            baseline,
        );
        let report = execute_with_faults(g, matrix, schedule, alloc, &plan)?;
        let degradation = report.makespan / baseline;
        degradations.push(degradation);
        tasks_killed += report.tasks_killed;
        reschedules += report.reschedules;
        let straggler_tasks = plan.stragglers.iter().filter(|&&s| s).count();
        let perturbed_tasks = plan.perturbed.iter().filter(|&&p| p).count();
        let trial_kinds = [
            (&mut kinds.crash, report.retries, 0),
            (&mut kinds.straggler, straggler_tasks, 1),
            (&mut kinds.perturb, perturbed_tasks, 2),
            (&mut kinds.node_failure, report.processor_failures.len(), 3),
        ];
        for (stat, events, slot) in trial_kinds {
            if events > 0 {
                stat.trials_affected += 1;
                stat.events += events;
                kind_sums[slot] += degradation;
            }
        }
    }
    for (stat, sum) in [
        &mut kinds.crash,
        &mut kinds.straggler,
        &mut kinds.perturb,
        &mut kinds.node_failure,
    ]
    .into_iter()
    .zip(kind_sums)
    {
        if stat.trials_affected > 0 {
            stat.mean_degradation = sum / stat.trials_affected as f64;
        }
    }
    degradations.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite degradations"));
    let mean = degradations.iter().sum::<f64>() / trials as f64;
    let p95_index = ((trials as f64 * 0.95).ceil() as usize).max(1) - 1;
    Ok(FaultSummary {
        spec: spec.canonical(),
        trials,
        fault_free_makespan: baseline,
        mean_degradation: mean,
        p95_degradation: degradations[p95_index.min(trials - 1)],
        worst_degradation: *degradations.last().expect("at least one trial"),
        tasks_killed,
        reschedules,
        kinds,
    })
}

/// A parsed cluster-churn description for the online simulator: how
/// often nodes fail, how quickly they come back, and how many spare
/// nodes can join mid-run. One spec + one seed ⇒ one deterministic
/// event stream ([`ChurnStream`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Mean exponential inter-failure time in simulated seconds
    /// (`0` ⇒ no stochastic failures).
    pub fail_every: f64,
    /// Mean exponential repair delay after a failure (`0` ⇒ failures are
    /// permanent).
    pub repair_after: f64,
    /// Spare nodes beyond the platform's initial capacity that may join
    /// during the run.
    pub spares: u32,
    /// Mean exponential inter-join time for spares (`0` ⇒ spares never
    /// join).
    pub join_every: f64,
    /// Catastrophic full-cluster failure at this absolute simulated time
    /// (permanent; no repairs follow).
    pub fail_all_at: Option<f64>,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            fail_every: 0.0,
            repair_after: 0.0,
            spares: 0,
            join_every: 0.0,
            fail_all_at: None,
        }
    }
}

impl ChurnSpec {
    /// Parses a `key=value,...` churn spec. Grammar (all items optional,
    /// any order): `fail_every=<f64 ≥ 0>`, `repair_after=<f64 ≥ 0>`,
    /// `spares=<u32>`, `join_every=<f64 ≥ 0>`,
    /// `fail_all_at=<f64 ≥ 0>`. The empty string is the churn-free spec.
    pub fn parse(s: &str) -> Result<ChurnSpec, FaultSpecError> {
        let mut spec = ChurnSpec::default();
        for item in s.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| FaultSpecError::BadPair(item.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |expected: &'static str| FaultSpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
                expected,
            };
            let nonneg = || {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| bad("a finite value ≥ 0"))
            };
            match key {
                "fail_every" => spec.fail_every = nonneg()?,
                "repair_after" => spec.repair_after = nonneg()?,
                "join_every" => spec.join_every = nonneg()?,
                "fail_all_at" => spec.fail_all_at = Some(nonneg()?),
                "spares" => {
                    spec.spares = value.parse().map_err(|_| bad("an unsigned integer"))?;
                }
                _ => return Err(FaultSpecError::UnknownKey(key.to_string())),
            }
        }
        Ok(spec)
    }

    /// Canonical `key=value,...` rendering; parses back to `self`.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "fail_every={},repair_after={},spares={},join_every={}",
            self.fail_every, self.repair_after, self.spares, self.join_every
        );
        if let Some(t) = self.fail_all_at {
            s.push_str(&format!(",fail_all_at={t}"));
        }
        s
    }

    /// True when this spec can emit no event at all.
    pub fn is_quiet(&self) -> bool {
        self.fail_every == 0.0
            && self.fail_all_at.is_none()
            && (self.spares == 0 || self.join_every == 0.0)
    }
}

/// One cluster-membership change in the online simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEventKind {
    /// The node with this index went down.
    Fail(u32),
    /// A previously failed node came back.
    Recover(u32),
    /// Spare number `k` (0-based; the consumer maps it past the initial
    /// capacity) joined the cluster for the first time.
    Join(u32),
    /// Every live node failed at once, permanently.
    FailAll,
}

/// A timestamped churn event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Simulated time of the membership change.
    pub time: f64,
    /// What changed.
    pub kind: ChurnEventKind,
}

/// Lazy, seeded generator of the churn event stream.
///
/// Times are sampled from exponential inter-arrival draws on a dedicated
/// ChaCha8 stream; failure *victims* are drawn uniformly over the nodes
/// alive at pop time, so the stream is deterministic for a deterministic
/// consumer. Lazy generation means an unbounded horizon costs nothing:
/// events are only materialized as the simulation advances past them.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    spec: ChurnSpec,
    rng: ChaCha8Rng,
    next_fail: Option<f64>,
    fail_all: Option<f64>,
    /// Spare nodes join in index order at successive join times.
    next_join: Option<(f64, u32)>,
    spares_left: u32,
    /// Pending repairs as (time, node), kept sorted ascending by time.
    repairs: Vec<(f64, u32)>,
}

impl ChurnStream {
    /// Creates the stream for `spec`, seeded independently of the fault
    /// and workload streams.
    pub fn new(spec: &ChurnSpec, seed: u64) -> ChurnStream {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1F7_85D1_A5B3_42E9);
        let next_fail = (spec.fail_every > 0.0).then(|| Self::exp(&mut rng, spec.fail_every));
        let next_join = (spec.spares > 0 && spec.join_every > 0.0)
            .then(|| (Self::exp(&mut rng, spec.join_every), 0));
        ChurnStream {
            spec: spec.clone(),
            rng,
            next_fail,
            fail_all: spec.fail_all_at,
            next_join,
            spares_left: spec.spares,
            repairs: Vec::new(),
        }
    }

    fn exp(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
        // Inverse-CDF exponential; `gen::<f64>()` is in [0, 1) so the
        // log argument stays strictly positive.
        -mean * (1.0 - rng.gen::<f64>()).ln()
    }

    /// Time of the next event, if any is scheduled.
    pub fn peek_time(&self) -> Option<f64> {
        let mut t: Option<f64> = None;
        let mut consider = |c: Option<f64>| {
            if let Some(ct) = c {
                t = Some(t.map_or(ct, |cur: f64| cur.min(ct)));
            }
        };
        consider(self.next_fail);
        consider(self.fail_all);
        consider(self.next_join.map(|(jt, _)| jt));
        consider(self.repairs.first().map(|&(rt, _)| rt));
        t
    }

    /// Pops the next event at or before `until`, given the nodes
    /// currently alive. Returns `None` when no event falls in the
    /// window. Failure victims are drawn over `alive`; a failure drawn
    /// while nothing is alive is consumed silently (there is nothing
    /// left to kill). After [`ChurnEventKind::FailAll`] the stream goes
    /// permanently quiet.
    pub fn pop_before(&mut self, until: f64, alive: &[bool]) -> Option<ChurnEvent> {
        loop {
            let t = self.peek_time()?;
            if t > until {
                return None;
            }
            // Total failure preempts and silences everything else.
            if self.fail_all == Some(t) {
                self.fail_all = None;
                self.next_fail = None;
                self.next_join = None;
                self.repairs.clear();
                return Some(ChurnEvent {
                    time: t,
                    kind: ChurnEventKind::FailAll,
                });
            }
            if let Some(&(rt, node)) = self.repairs.first() {
                if rt == t {
                    self.repairs.remove(0);
                    return Some(ChurnEvent {
                        time: t,
                        kind: ChurnEventKind::Recover(node),
                    });
                }
            }
            if let Some((jt, idx)) = self.next_join {
                if jt == t {
                    self.spares_left -= 1;
                    self.next_join = (self.spares_left > 0)
                        .then(|| (jt + Self::exp(&mut self.rng, self.spec.join_every), idx + 1));
                    return Some(ChurnEvent {
                        time: t,
                        kind: ChurnEventKind::Join(idx),
                    });
                }
            }
            if self.next_fail == Some(t) {
                self.next_fail = Some(t + Self::exp(&mut self.rng, self.spec.fail_every));
                let live: Vec<u32> = alive
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a)
                    .map(|(q, _)| q as u32)
                    .collect();
                if live.is_empty() {
                    continue; // nothing to kill; consume the draw
                }
                let victim = live[self.rng.gen_range(0..live.len())];
                if self.spec.repair_after > 0.0 {
                    let back = t + Self::exp(&mut self.rng, self.spec.repair_after);
                    let at = self.repairs.partition_point(|&(rt, _)| rt <= back);
                    self.repairs.insert(at, (back, victim));
                }
                return Some(ChurnEvent {
                    time: t,
                    kind: ChurnEventKind::Fail(victim),
                });
            }
        }
    }

    /// True when a capacity-restoring event (repair or join) is still
    /// scheduled — the online loop uses this to decide between waiting
    /// out a total outage and giving up with `NoSurvivors`.
    pub fn capacity_pending(&self) -> bool {
        !self.repairs.is_empty() || self.next_join.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::Amdahl;
    use ptg::PtgBuilder;
    use sched::{ListScheduler, Mapper};

    fn diamond() -> Ptg {
        let mut b = PtgBuilder::new();
        for i in 0..4 {
            b.add_task(format!("t{i}"), 2e9, 0.5);
        }
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.add_edge(TaskId(1), TaskId(3)).unwrap();
        b.add_edge(TaskId(2), TaskId(3)).unwrap();
        b.build().unwrap()
    }

    fn mapped(alloc: Vec<u32>) -> (Ptg, TimeMatrix, Allocation, Schedule) {
        let g = diamond();
        let m = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
        let a = Allocation::from_vec(alloc);
        let s = ListScheduler.map(&g, &m, &a);
        (g, m, a, s)
    }

    #[test]
    fn spec_grammar_round_trips() {
        let spec = FaultSpec::parse(
            "seed=42, perturb=0.2, straggler_prob=0.05, straggler_factor=4, \
             crash=0.1, retries=2, backoff=0.5, procfail=0.02",
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.perturb, 0.2);
        assert_eq!(spec.straggler_factor, 4.0);
        assert_eq!(spec.retries, 2);
        assert!(!spec.is_fault_free());
        assert!(FaultSpec::parse("").unwrap().is_fault_free());
        assert!(FaultSpec::parse("seed=7").unwrap().is_fault_free());
    }

    #[test]
    fn spec_errors_are_one_line_diagnostics() {
        for (input, needle) in [
            ("perturb", "key=value"),
            ("bogus=1", "unknown fault spec key"),
            ("crash=1.5", "probability in [0, 1]"),
            ("retries=99", "0..=16"),
            ("perturb=-1", "≥ 0"),
            ("straggler_factor=0.5", "≥ 1"),
            ("seed=abc", "unsigned integer"),
        ] {
            let err = FaultSpec::parse(input).unwrap_err().to_string();
            assert!(err.contains(needle), "{input}: {err}");
            assert!(!err.contains('\n'));
        }
    }

    #[test]
    fn plans_are_deterministic_per_trial_and_distinct_across_trials() {
        let spec = FaultSpec::parse("seed=3,perturb=0.3,crash=0.5,procfail=0.2").unwrap();
        let a = FaultPlan::realize(&spec, 0, 40, 8, 100.0);
        let b = FaultPlan::realize(&spec, 0, 40, 8, 100.0);
        let c = FaultPlan::realize(&spec, 1, 40, 8, 100.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn crash_lists_respect_the_retry_budget() {
        let spec = FaultSpec::parse("crash=1,retries=2").unwrap();
        let plan = FaultPlan::realize(&spec, 0, 10, 4, 100.0);
        assert!(plan.crashes.iter().all(|l| l.len() == 2));
        let none = FaultSpec::parse("crash=1,retries=0").unwrap();
        let plan = FaultPlan::realize(&none, 0, 10, 4, 100.0);
        assert!(plan.crashes.iter().all(Vec::is_empty));
    }

    #[test]
    fn at_least_one_processor_always_survives() {
        let spec = FaultSpec::parse("procfail=1").unwrap();
        for trial in 0..20 {
            let plan = FaultPlan::realize(&spec, trial, 5, 6, 50.0);
            assert!(plan.proc_fail.iter().any(Option::is_none), "trial {trial}");
        }
    }

    #[test]
    fn empty_plan_replay_is_bit_identical() {
        let (g, m, a, s) = mapped(vec![2, 1, 2, 4]);
        let plan = FaultPlan::empty(4, 4);
        let report = execute_with_faults(&g, &m, &s, &a, &plan).unwrap();
        // The event trace itself is checked in `tests/prop_faults.rs`.
        assert_eq!(report.makespan, s.makespan(), "bit-identical makespan");
        assert_eq!(report.retries, 0);
        assert_eq!(report.reschedules, 0);
    }

    #[test]
    fn perturbation_slows_the_run_down() {
        let (g, m, a, s) = mapped(vec![2, 1, 2, 4]);
        let mut plan = FaultPlan::empty(4, 4);
        plan.factors = vec![2.0; 4];
        let report = execute_with_faults(&g, &m, &s, &a, &plan).unwrap();
        assert!(report.makespan > s.makespan());
        // Dependencies still hold under the perturbed timeline.
        let finish_of = |t: u32| {
            report
                .events
                .iter()
                .find(|e| e.task == TaskId(t) && e.kind == FaultEventKind::Finish)
                .unwrap()
                .time
        };
        let start_of = |t: u32| {
            report
                .events
                .iter()
                .find(|e| e.task == TaskId(t) && e.kind == FaultEventKind::Start)
                .unwrap()
                .time
        };
        assert!(start_of(3) >= finish_of(1).max(finish_of(2)));
    }

    #[test]
    fn crashes_retry_with_backoff_and_complete() {
        let (g, m, a, s) = mapped(vec![1, 1, 1, 1]);
        let mut plan = FaultPlan::empty(4, 4);
        plan.crashes[0] = vec![0.5, 0.5]; // two crashes, then success
        plan.backoff_base = 1.0;
        let report = execute_with_faults(&g, &m, &s, &a, &plan).unwrap();
        assert_eq!(report.retries, 2);
        let crashes: Vec<f64> = report
            .events
            .iter()
            .filter(|e| e.kind == FaultEventKind::Crash)
            .map(|e| e.time)
            .collect();
        assert_eq!(crashes.len(), 2);
        let starts: Vec<f64> = report
            .events
            .iter()
            .filter(|e| e.task == TaskId(0) && e.kind == FaultEventKind::Start)
            .map(|e| e.time)
            .collect();
        assert_eq!(starts.len(), 3);
        // Backoff doubles: retry 0 waits 1s, retry 1 waits 2s.
        assert!((starts[1] - crashes[0] - 1.0).abs() < 1e-12);
        assert!((starts[2] - crashes[1] - 2.0).abs() < 1e-12);
        assert!(report.makespan > s.makespan());
        // Everything still finishes exactly once.
        let finishes = report
            .events
            .iter()
            .filter(|e| e.kind == FaultEventKind::Finish)
            .count();
        assert_eq!(finishes, 4);
    }

    #[test]
    fn processor_failure_triggers_reschedule_and_the_run_completes() {
        let (g, m, a, s) = mapped(vec![4, 2, 2, 4]);
        let mut plan = FaultPlan::empty(4, 4);
        // Kill processor 3 mid-run (during the wide source task).
        let t0 = s.placements[0].finish / 2.0;
        plan.proc_fail[3] = Some(t0);
        let report = execute_with_faults(&g, &m, &s, &a, &plan).unwrap();
        assert_eq!(report.processor_failures, vec![3]);
        assert!(report.reschedules >= 1);
        assert!(report.tasks_killed >= 1);
        assert!(report.makespan > s.makespan());
        // Nothing starts on the dead processor after the failure, and all
        // tasks finish.
        assert_eq!(
            report
                .events
                .iter()
                .filter(|e| e.kind == FaultEventKind::Finish)
                .count(),
            4
        );
    }

    #[test]
    fn fault_trials_summarize_the_degradation_distribution() {
        let (g, m, a, s) = mapped(vec![2, 1, 2, 4]);
        let spec = FaultSpec::parse("seed=9,perturb=0.5").unwrap();
        let summary = fault_trials(&g, &m, &s, &a, &spec, 20).unwrap();
        assert_eq!(summary.trials, 20);
        assert_eq!(summary.fault_free_makespan, s.makespan());
        assert!(summary.mean_degradation >= 1.0);
        assert!(summary.p95_degradation >= summary.mean_degradation * 0.9);
        assert!(summary.worst_degradation >= summary.p95_degradation);
        // Deterministic: same spec, same summary.
        let again = fault_trials(&g, &m, &s, &a, &spec, 20).unwrap();
        assert_eq!(summary, again);
    }

    #[test]
    fn fault_free_trials_report_unit_degradation() {
        let (g, m, a, s) = mapped(vec![2, 1, 2, 4]);
        let spec = FaultSpec::default();
        let summary = fault_trials(&g, &m, &s, &a, &spec, 3).unwrap();
        assert_eq!(summary.mean_degradation, 1.0);
        assert_eq!(summary.p95_degradation, 1.0);
        assert_eq!(summary.worst_degradation, 1.0);
        assert_eq!(summary.kinds, FaultKindBreakdown::default());
    }

    #[test]
    fn kill_all_surfaces_no_survivors_as_a_typed_error() {
        let (g, m, a, s) = mapped(vec![2, 1, 2, 4]);
        let spec = FaultSpec::parse("seed=1,kill_all=0.5").unwrap();
        assert!(!spec.is_fault_free());
        let plan = FaultPlan::realize(&spec, 0, 4, 4, s.makespan());
        assert!(plan.proc_fail.iter().all(Option::is_some));
        let err =
            execute_with_faults(&g, &m, &s, &a, &plan).expect_err("total failure must be an error");
        assert_eq!(err, RescheduleError::NoSurvivors);
        let err = fault_trials(&g, &m, &s, &a, &spec, 2).expect_err("trials propagate");
        assert_eq!(err, RescheduleError::NoSurvivors);
    }

    #[test]
    fn kind_breakdown_attributes_events_to_their_sources() {
        let (g, m, a, s) = mapped(vec![2, 1, 2, 4]);
        // Stragglers always fire, perturbation always draws, no crashes
        // or node failures.
        let spec =
            FaultSpec::parse("seed=5,perturb=0.4,straggler_prob=1,straggler_factor=2").unwrap();
        let summary = fault_trials(&g, &m, &s, &a, &spec, 4).unwrap();
        let k = &summary.kinds;
        assert_eq!(k.straggler.trials_affected, 4);
        assert_eq!(k.straggler.events, 16, "every task a straggler");
        assert!(k.straggler.mean_degradation >= 2.0, "{k:?}");
        assert!(k.perturb.trials_affected >= 1);
        assert!(k.perturb.mean_degradation >= 1.0);
        assert_eq!(k.crash, KindStat::default());
        assert_eq!(k.node_failure, KindStat::default());
        // Crash-only spec populates only the crash kind.
        let spec = FaultSpec::parse("seed=5,crash=1,retries=1,backoff=1").unwrap();
        let summary = fault_trials(&g, &m, &s, &a, &spec, 2).unwrap();
        assert_eq!(summary.kinds.crash.trials_affected, 2);
        assert_eq!(
            summary.kinds.crash.events, 8,
            "one crash per task per trial"
        );
        assert!(summary.kinds.crash.mean_degradation > 1.0);
        assert_eq!(summary.kinds.straggler, KindStat::default());
    }

    #[test]
    fn churn_grammar_round_trips_and_rejects_bad_input() {
        let spec =
            ChurnSpec::parse("fail_every=30, repair_after=90, spares=2, join_every=120").unwrap();
        assert_eq!(spec.fail_every, 30.0);
        assert_eq!(spec.spares, 2);
        assert!(!spec.is_quiet());
        assert_eq!(ChurnSpec::parse(&spec.canonical()).unwrap(), spec);
        assert!(ChurnSpec::parse("").unwrap().is_quiet());
        // Spares without a join rate can never appear.
        assert!(ChurnSpec::parse("spares=3").unwrap().is_quiet());
        let all = ChurnSpec::parse("fail_all_at=100").unwrap();
        assert!(!all.is_quiet());
        assert_eq!(ChurnSpec::parse(&all.canonical()).unwrap(), all);
        for (input, needle) in [
            ("fail_every", "key=value"),
            ("bogus=1", "unknown fault spec key"),
            ("fail_every=-2", "≥ 0"),
            ("spares=x", "unsigned integer"),
        ] {
            let err = ChurnSpec::parse(input).unwrap_err().to_string();
            assert!(err.contains(needle), "{input}: {err}");
            assert!(!err.contains('\n'));
        }
    }

    #[test]
    fn churn_stream_is_deterministic_and_repairs_follow_failures() {
        let spec = ChurnSpec::parse("fail_every=10,repair_after=20").unwrap();
        let drain = |mut s: ChurnStream| {
            let mut alive = vec![true; 4];
            let mut events = Vec::new();
            while let Some(ev) = s.pop_before(200.0, &alive) {
                match ev.kind {
                    ChurnEventKind::Fail(q) => alive[q as usize] = false,
                    ChurnEventKind::Recover(q) => alive[q as usize] = true,
                    _ => {}
                }
                events.push(ev);
            }
            events
        };
        let a = drain(ChurnStream::new(&spec, 42));
        let b = drain(ChurnStream::new(&spec, 42));
        assert_eq!(a, b, "same seed, same stream");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time), "ordered");
        assert!(a.iter().any(|e| matches!(e.kind, ChurnEventKind::Fail(_))));
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, ChurnEventKind::Recover(_))));
        let c = drain(ChurnStream::new(&spec, 43));
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn churn_joins_and_fail_all_behave() {
        let spec = ChurnSpec::parse("spares=2,join_every=5").unwrap();
        let mut s = ChurnStream::new(&spec, 7);
        assert!(s.capacity_pending());
        let alive = vec![true; 4];
        let j0 = s.pop_before(f64::INFINITY, &alive).unwrap();
        let j1 = s.pop_before(f64::INFINITY, &alive).unwrap();
        assert_eq!(j0.kind, ChurnEventKind::Join(0));
        assert_eq!(j1.kind, ChurnEventKind::Join(1));
        assert!(j0.time <= j1.time);
        assert!(s.pop_before(f64::INFINITY, &alive).is_none());
        assert!(!s.capacity_pending());
        // fail_all_at silences everything after it fires.
        let spec = ChurnSpec::parse("fail_every=1,repair_after=1,fail_all_at=10").unwrap();
        let mut s = ChurnStream::new(&spec, 7);
        let mut saw_fail_all = false;
        let mut live = vec![true; 4];
        while let Some(ev) = s.pop_before(1000.0, &live) {
            match ev.kind {
                ChurnEventKind::Fail(q) => live[q as usize] = false,
                ChurnEventKind::Recover(q) => live[q as usize] = true,
                ChurnEventKind::FailAll => {
                    assert_eq!(ev.time, 10.0);
                    saw_fail_all = true;
                }
                ChurnEventKind::Join(_) => unreachable!("no spares"),
            }
            assert!(
                !saw_fail_all || matches!(ev.kind, ChurnEventKind::FailAll),
                "events after total failure"
            );
        }
        assert!(saw_fail_all);
        assert!(!s.capacity_pending());
    }
}
