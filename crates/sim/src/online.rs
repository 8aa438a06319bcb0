//! Online continuous-operations simulator: a rolling-horizon control loop
//! that schedules a *stream* of PTG jobs onto a cluster whose membership
//! changes underneath it.
//!
//! The one-shot pipeline ([`crate::runner`]) answers the paper's question —
//! "how good is this allocation for this graph?" — under the assumption
//! that the platform is empty, static, and patient. Real clusters are none
//! of those things: jobs arrive whenever they arrive, nodes fail and come
//! back, operators bolt on spare capacity, and the scheduler only gets a
//! bounded slice of wall-clock time to think before the next dispatch
//! tick. [`run_online`] simulates exactly that regime, deterministically:
//!
//! * **Workload** — jobs are drawn from the seeded streaming corpus
//!   ([`workloads::stream`]) with exponential inter-arrival times, so one
//!   `(seed, jobs)` pair names one reproducible trace.
//! * **Churn** — node failures/repairs/joins come from a seeded
//!   [`ChurnStream`] (see the `--churn` grammar on [`ChurnSpec`]).
//! * **Control loop** — every `epoch` simulated seconds the controller
//!   re-optimizes the live backlog, under a wall-clock `epoch_budget`,
//!   through three *degradation rings*:
//!
//!   | ring | strategy | cost |
//!   |------|----------|------|
//!   | 0 | EMTS re-optimization of the backlog's *unstarted* tasks (neither finished nor running), warm-started from their incumbent widths, run in anytime mode ([`Emts::run_deadline`]); then one [`Rescheduler`] pass over the backlog union with those widths evolved and every started task's width kept | dominant |
//!   | 1 | incremental repair: one [`Rescheduler`] pass over the backlog union with the incumbent allocations | cheap |
//!   | 2 | reactive survivors-only FIFO: each job rescheduled alone behind the others' reservations (`busy_until` floors) | trivial |
//!
//!   Ring 0's EA sees the subgraph of the union induced by the unstarted
//!   tasks (a task whose predecessors have all started is a source) and
//!   scores it from scratch on every processor; the final pass then plans
//!   it around the running tasks and dead nodes. With every task started
//!   there is nothing to evolve, and ring 0 adopts that pass over the
//!   incumbent, which is ring 1's plan.
//!
//!   Ring 2 is always computed first as the safety net; deeper rings are
//!   attempted only while the budget slice allows, so a stuck or slow
//!   optimizer degrades the *answer*, never the *deadline*. Epochs whose
//!   total decision time still exceeds the budget are counted as
//!   `deadline_overruns`. (Decisions are instantaneous in simulated time;
//!   the budget models the real controller's dispatch tick.)
//! * **Replan-only-when-dirty** — an epoch that saw no arrivals and no
//!   membership change reuses the incumbent plan untouched. This is what
//!   makes the degenerate case (one job, zero churn, unbounded budget)
//!   reproduce the one-shot optimizer bit for bit: the job is planned once,
//!   at its admission epoch, by the same EMTS run on the same matrix.
//! * **Failures mid-run** — a node failure kills the tasks running on it
//!   and triggers an immediate *reactive* (ring 2) replan of the backlog,
//!   without waiting for the next epoch. When the last node dies the loop
//!   waits if the churn stream still holds a repair or join, and otherwise
//!   surfaces [`OnlineError::NoSurvivors`] — the same typed error the
//!   fault-injection path reports, one line, non-zero exit.
//!
//! Everything stochastic is seeded and all simulated-time outputs are pure
//! functions of `(config, platform, model)`; only fields named `*_seconds`
//! (wall-clock measurements) differ between runs.

use crate::faults::{ChurnEventKind, ChurnSpec, ChurnStream};
use emts::{Emts, EmtsConfig};
use exec_model::{ExecutionTimeModel, TimeMatrix};
use heuristics::{Allocator, Mcpa};
use obs::Recorder;
use platform::Cluster;
use ptg::{Ptg, PtgBuilder, TaskId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{Allocation, ListScheduler, Mapper, Placement, Rescheduler, ResumeState, RunningTask};
use serde::Serialize;
use std::fmt;
use std::time::{Duration, Instant};
use workloads::stream::{item, item_seed};
use workloads::CostConfig;

/// Salt separating the arrival-time RNG from every other stream.
const ARRIVAL_SALT: u64 = 0xA88A_11E5_0D15_EA5E;
/// Salt separating per-epoch EMTS seeds from the workload stream.
const EPOCH_SALT: u64 = 0x0E0C_5EED_BADC_0FFE;
/// Latency names of a decision epoch's wall time, by adopted ring.
const DECIDE_SECONDS: [&str; 3] = [
    "online.ring0.decide_seconds",
    "online.ring1.decide_seconds",
    "online.ring2.decide_seconds",
];

/// Derives the deterministic EMTS seed used by decision epoch `epoch`.
/// Exposed so tests can reproduce a specific epoch's optimizer run
/// out-of-band (the zero-churn identity property does exactly that).
pub fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    item_seed(seed ^ EPOCH_SALT, epoch)
}

/// Configuration of one online run.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Master seed; arrivals, job graphs, churn and per-epoch EMTS seeds
    /// all derive from it on independent streams.
    pub seed: u64,
    /// Number of jobs in the arrival stream.
    pub jobs: u64,
    /// Mean exponential inter-arrival time in simulated seconds
    /// (`0` ⇒ every job arrives at `t = 0`).
    pub arrival_mean: f64,
    /// Decision-epoch period in simulated seconds.
    pub epoch: f64,
    /// Wall-clock budget per decision epoch (`None` ⇒ unbounded: ring 0
    /// always runs to completion).
    pub epoch_budget: Option<Duration>,
    /// Cluster-churn description (see [`ChurnSpec::parse`]).
    pub churn: ChurnSpec,
    /// A job meets its SLO when it completes within
    /// `slo_factor × ideal` seconds of arriving, where *ideal* is its
    /// solo MCPA makespan on the full platform.
    pub slo_factor: f64,
    /// EMTS configuration for ring 0. `None` runs the reactive-only
    /// baseline: every epoch plans with ring 2.
    pub emts: Option<EmtsConfig>,
    /// Maximum number of jobs admitted concurrently; arrivals beyond it
    /// queue until a slot frees up.
    pub max_backlog: usize,
    /// Decision epochs whose ring-0 optimizer is *sabotaged*: treated as
    /// hung, so the watchdog degrades the epoch to ring 1 without burning
    /// wall-clock time. Deterministic stand-in for a stuck optimizer in
    /// tests and CI.
    pub sabotage_ring0: Vec<usize>,
    /// Cost parameters for the generated job graphs.
    pub costs: CostConfig,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            seed: 2011,
            jobs: 8,
            arrival_mean: 30.0,
            epoch: 60.0,
            epoch_budget: None,
            churn: ChurnSpec::default(),
            slo_factor: 4.0,
            emts: Some(EmtsConfig::emts5()),
            max_backlog: 64,
            sabotage_ring0: Vec::new(),
            costs: CostConfig::default(),
        }
    }
}

/// Why an online run could not continue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineError {
    /// Every node is down and the churn stream holds no future repair or
    /// join: the backlog can never drain. Carries the simulated time of
    /// the final failure.
    NoSurvivors(f64),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::NoSurvivors(t) => write!(
                f,
                "t={t:.3}: no surviving processors and no repair or join pending"
            ),
        }
    }
}

impl std::error::Error for OnlineError {}

/// Per-job outcome row of the report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// Stream index of the job.
    pub job: u64,
    /// Task count of its graph.
    pub tasks: usize,
    /// Simulated arrival time.
    pub arrival: f64,
    /// Simulated admission time (the decision epoch that took it on).
    pub admitted: f64,
    /// First time any of its tasks began executing (killed attempts
    /// count — the machine was busy).
    pub first_start: f64,
    /// Completion time of its last task.
    pub completion: f64,
    /// Solo MCPA makespan on the full platform: the yardstick for
    /// stretch and SLO attainment.
    pub ideal: f64,
    /// `first_start − arrival`.
    pub queue_wait: f64,
    /// `(completion − arrival) / ideal`.
    pub stretch: f64,
    /// `completion ≤ arrival + slo_factor × ideal`.
    pub slo_met: bool,
}

/// One decision epoch that actually replanned.
#[derive(Debug, Clone, Serialize)]
pub struct EpochOutcome {
    /// Epoch index (time = `epoch × period`).
    pub epoch: usize,
    /// Simulated decision time.
    pub time: f64,
    /// Degradation ring that produced the adopted plan (0 = EMTS,
    /// 1 = union repair, 2 = reactive FIFO).
    pub ring: u8,
    /// Active jobs planned this epoch.
    pub backlog: usize,
    /// Jobs admitted from the queue this epoch.
    pub admitted: usize,
    /// True when a deeper ring was configured but the watchdog/budget
    /// slice forced a shallower one.
    pub degraded: bool,
    /// True when the whole decision overran the wall-clock budget.
    pub overran: bool,
    /// Wall-clock decision time (nondeterministic; excluded from
    /// reproducibility comparisons by the `_seconds` suffix convention).
    pub decision_seconds: f64,
}

/// One entry of the deterministic simulated-time event trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineEventKind {
    /// Job entered the arrival queue.
    Arrive(u64),
    /// Job admitted into the active backlog.
    Admit(u64),
    /// Job completed.
    Done(u64),
    /// A running task of job `.0` (task index `.1`) was killed by a node
    /// failure and will be re-executed.
    Kill(u64, u32),
    /// Node failed.
    Fail(u32),
    /// Node recovered.
    Recover(u32),
    /// Spare node joined (platform index).
    Join(u32),
    /// Catastrophic full-cluster failure.
    FailAll,
    /// Decision epoch `.0` adopted a plan from ring `.1` covering `.2`
    /// jobs.
    Plan(usize, u8, usize),
    /// Failure-triggered reactive replan covering `.0` jobs.
    Reactive(usize),
}

// Hand-written tagged-object serialization (the vendored serde derive
// covers unit-variant enums only): `{"arrive": 3}`, `{"plan": [4, 0, 2]}`.
impl Serialize for OnlineEventKind {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let int = |x: i128| Value::Int(x);
        let (tag, payload) = match *self {
            OnlineEventKind::Arrive(j) => ("arrive", int(j as i128)),
            OnlineEventKind::Admit(j) => ("admit", int(j as i128)),
            OnlineEventKind::Done(j) => ("done", int(j as i128)),
            OnlineEventKind::Kill(j, t) => {
                ("kill", Value::Array(vec![int(j as i128), int(t as i128)]))
            }
            OnlineEventKind::Fail(q) => ("fail", int(q as i128)),
            OnlineEventKind::Recover(q) => ("recover", int(q as i128)),
            OnlineEventKind::Join(q) => ("join", int(q as i128)),
            OnlineEventKind::FailAll => ("fail_all", Value::Null),
            OnlineEventKind::Plan(e, r, n) => (
                "plan",
                Value::Array(vec![int(e as i128), int(r as i128), int(n as i128)]),
            ),
            OnlineEventKind::Reactive(n) => ("reactive", int(n as i128)),
        };
        Value::Object(vec![(tag.to_string(), payload)])
    }
}

/// A timestamped [`OnlineEventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OnlineEvent {
    /// Simulated time.
    pub time: f64,
    /// What happened.
    pub kind: OnlineEventKind,
}

/// Aggregates over the whole run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OnlineTotals {
    /// Jobs in the stream.
    pub jobs: u64,
    /// Jobs that completed (always `== jobs` on `Ok`).
    pub completed: u64,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Mean queue wait across jobs.
    pub queue_wait_mean: f64,
    /// Mean stretch across jobs.
    pub stretch_mean: f64,
    /// 95th-percentile stretch.
    pub stretch_p95: f64,
    /// Executed work over alive capacity: busy processor-seconds
    /// (including killed attempts) divided by the integral of the alive
    /// node count from `t = 0` to `makespan`.
    pub utilization: f64,
    /// Fraction of jobs that met their SLO.
    pub slo_attainment: f64,
    /// Epochs that replanned.
    pub decision_epochs: usize,
    /// Epochs skipped because nothing was dirty.
    pub idle_epochs: usize,
    /// Decision epochs adopted from each ring.
    pub ring0_epochs: usize,
    /// Ring-1 adoptions.
    pub ring1_epochs: usize,
    /// Ring-2 adoptions.
    pub ring2_epochs: usize,
    /// Epochs where ring 0 was configured but the watchdog/budget slice
    /// degraded the decision to a shallower ring.
    pub watchdog_degraded: usize,
    /// Decision epochs whose wall-clock time exceeded the budget.
    pub deadline_overruns: usize,
    /// Failure-triggered ring-2 replans outside epoch boundaries.
    pub reactive_replans: usize,
    /// Running tasks killed by node failures.
    pub tasks_killed: u64,
    /// Observed churn events by kind.
    pub node_failures: usize,
    /// Node recoveries.
    pub node_recoveries: usize,
    /// Spare joins.
    pub node_joins: usize,
    /// Total wall-clock time spent deciding (nondeterministic).
    pub decision_wall_seconds: f64,
}

/// Everything [`run_online`] produces.
#[derive(Debug, Clone, Serialize)]
pub struct OnlineReport {
    /// `"rolling"` (EMTS ring 0 available) or `"reactive"` (ring 2 only).
    pub mode: String,
    /// Master seed.
    pub seed: u64,
    /// Decision period in simulated seconds.
    pub epoch: f64,
    /// Mean inter-arrival time.
    pub arrival_mean: f64,
    /// SLO factor.
    pub slo_factor: f64,
    /// Canonical churn spec.
    pub churn: String,
    /// Base platform size.
    pub processors: u32,
    /// Spare nodes that may join.
    pub spares: u32,
    /// Wall-clock epoch budget, if any (nondeterministic field name kept
    /// out of reproducibility diffs by the `_seconds` suffix).
    pub epoch_budget_seconds: Option<f64>,
    /// Aggregates.
    pub totals: OnlineTotals,
    /// Per-job outcomes, by stream index.
    pub jobs: Vec<JobOutcome>,
    /// Decision epochs that replanned.
    pub epochs: Vec<EpochOutcome>,
    /// Deterministic simulated-time event trace.
    pub events: Vec<OnlineEvent>,
}

/// One job's live state inside the simulator.
struct Job {
    index: u64,
    g: Ptg,
    /// Per-job time matrix at full potential capacity (base + spares).
    matrix: TimeMatrix,
    /// Incumbent allocation (MCPA at admission; evolved by ring 0).
    alloc: Allocation,
    arrival: f64,
    admitted: f64,
    ideal: f64,
    finished: Vec<Option<f64>>,
    /// Absolute-time placements not yet finished (running + pending).
    plan: Vec<Placement>,
    first_start: Option<f64>,
    completion: Option<f64>,
}

impl Job {
    fn done(&self) -> bool {
        self.completion.is_some()
    }

    /// Splits the plan at `now`: placements already executing stay, the
    /// rest are up for replanning.
    fn running_placements(&self, now: f64) -> Vec<Placement> {
        self.plan
            .iter()
            .filter(|p| p.start < now)
            .cloned()
            .collect()
    }
}

/// The backlog union: all active jobs' graphs side by side in one PTG,
/// so a single [`Rescheduler`] (or EMTS) pass plans the whole backlog with
/// global knowledge. A filtered union keeps only some of those tasks (see
/// [`Online::build_union`]); `offsets` always describe the unfiltered one.
struct BacklogUnion {
    g: Ptg,
    matrix: TimeMatrix,
    /// Incumbent allocations, concatenated in union order.
    alloc: Allocation,
    state: ResumeState,
    /// `(job slot, task offset, task count)` per active job, ascending, in
    /// the unfiltered union.
    offsets: Vec<(usize, usize, usize)>,
    /// Each task's position in the unfiltered union.
    position: Vec<usize>,
}

impl BacklogUnion {
    /// Maps union placements back onto per-job placements (running tasks
    /// are *not* in the result — callers keep those).
    fn split(&self, placements: Vec<Placement>) -> Vec<(usize, Vec<Placement>)> {
        let mut per_job: Vec<(usize, Vec<Placement>)> = self
            .offsets
            .iter()
            .map(|&(j, _, _)| (j, Vec::new()))
            .collect();
        for p in placements {
            let t = self.position[p.task.index()];
            let slot = self
                .offsets
                .iter()
                .position(|&(_, off, len)| t >= off && t < off + len)
                .expect("union placement maps to a job");
            let off = self.offsets[slot].1;
            per_job[slot].1.push(Placement {
                task: TaskId((t - off) as u32),
                ..p
            });
        }
        per_job
    }

    /// Writes `widths`, one per task of this union, into `into`, an
    /// allocation of the unfiltered union.
    fn scatter(&self, widths: &Allocation, into: &mut Allocation) {
        for (v, &t) in self.g.task_ids().zip(&self.position) {
            into.set(TaskId(t as u32), widths.of(v));
        }
    }
}

/// The whole simulator state.
struct Online<'a, R: Recorder> {
    cfg: &'a OnlineConfig,
    model: &'a dyn ExecutionTimeModel,
    rec: &'a R,
    speed: f64,
    /// Base platform size (spares live at indices `processors..p_total`).
    processors: u32,
    p_total: u32,
    now: f64,
    alive: Vec<bool>,
    churn: ChurnStream,
    /// Precomputed arrival times, ascending; `next_arrival` indexes it.
    arrivals: Vec<f64>,
    next_arrival: usize,
    /// Arrived-but-not-admitted stream indices, FIFO.
    queue: Vec<u64>,
    jobs: Vec<Job>,
    /// True when arrivals/churn invalidated the incumbent plans since the
    /// last decision.
    dirty: bool,
    /// Integral of the alive node count up to `now`.
    alive_seconds: f64,
    /// Executed processor-seconds (killed attempts included).
    busy_seconds: f64,
    events: Vec<OnlineEvent>,
    epochs: Vec<EpochOutcome>,
    totals: OnlineTotals,
}

impl<'a, R: Recorder> Online<'a, R> {
    fn survivors(&self) -> u32 {
        self.alive.iter().filter(|&&a| a).count() as u32
    }

    fn push_event(&mut self, kind: OnlineEventKind) {
        self.events.push(OnlineEvent {
            time: self.now,
            kind,
        });
    }

    /// Advances the alive-capacity integral to `t` (no-op once every job
    /// finished — utilization is measured over `[0, makespan]`).
    fn integrate_to(&mut self, t: f64) {
        if self.totals.completed < self.cfg.jobs || self.queue_busy() {
            self.alive_seconds += self.survivors() as f64 * (t - self.now);
        }
    }

    fn queue_busy(&self) -> bool {
        !self.queue.is_empty() || self.next_arrival < self.arrivals.len()
    }

    /// Earliest unfinished placement finish across active jobs.
    fn next_finish(&self) -> Option<f64> {
        self.jobs
            .iter()
            .filter(|j| !j.done())
            .flat_map(|j| j.plan.iter().map(|p| p.finish))
            .min_by(|a, b| a.partial_cmp(b).expect("finish times are finite"))
    }

    /// Marks every placement finishing at exactly `t` as done and
    /// completes jobs whose last task just finished.
    fn settle_finishes_at(&mut self, t: f64) {
        let mut done_jobs = Vec::new();
        let mut busy_acc = 0.0;
        for (slot, job) in self.jobs.iter_mut().enumerate() {
            if job.done() {
                continue;
            }
            let mut settled_busy = 0.0;
            job.plan.retain(|p| {
                if p.finish <= t {
                    job.finished[p.task.index()] = Some(p.finish);
                    let fs = job.first_start.get_or_insert(p.start);
                    *fs = fs.min(p.start);
                    settled_busy += p.width() as f64 * (p.finish - p.start);
                    false
                } else {
                    true
                }
            });
            busy_acc += settled_busy;
            if job.finished.iter().all(|f| f.is_some()) {
                let completion = job
                    .finished
                    .iter()
                    .map(|f| f.expect("all finished"))
                    .fold(0.0, f64::max);
                job.completion = Some(completion);
                done_jobs.push((slot, completion));
            }
        }
        self.busy_seconds += busy_acc;
        for (slot, completion) in done_jobs {
            let index = self.jobs[slot].index;
            self.totals.makespan = self.totals.makespan.max(completion);
            self.totals.completed += 1;
            self.events.push(OnlineEvent {
                time: completion,
                kind: OnlineEventKind::Done(index),
            });
        }
    }

    /// Applies one churn event at `self.now` and, on failures, kills the
    /// affected running tasks and reactively replans the backlog.
    fn apply_churn(&mut self, kind: ChurnEventKind) -> Result<(), OnlineError> {
        let dead: Vec<u32> = match kind {
            ChurnEventKind::Fail(q) => {
                self.alive[q as usize] = false;
                self.totals.node_failures += 1;
                self.push_event(OnlineEventKind::Fail(q));
                vec![q]
            }
            ChurnEventKind::FailAll => {
                let all: Vec<u32> = (0..self.p_total)
                    .filter(|&q| self.alive[q as usize])
                    .collect();
                for &q in &all {
                    self.alive[q as usize] = false;
                }
                self.totals.node_failures += all.len();
                self.push_event(OnlineEventKind::FailAll);
                all
            }
            ChurnEventKind::Recover(q) => {
                self.alive[q as usize] = true;
                self.totals.node_recoveries += 1;
                self.push_event(OnlineEventKind::Recover(q));
                self.dirty = true;
                return Ok(());
            }
            ChurnEventKind::Join(k) => {
                let q = self.processors + k;
                assert!(q < self.p_total, "join beyond the spare pool");
                self.alive[q as usize] = true;
                self.totals.node_joins += 1;
                self.push_event(OnlineEventKind::Join(q));
                self.dirty = true;
                return Ok(());
            }
        };

        // Kill running work on the dead nodes and drop every pending
        // placement — the reactive replan below re-issues them.
        let now = self.now;
        let mut kills = Vec::new();
        let mut busy_acc = 0.0;
        for job in self.jobs.iter_mut().filter(|j| !j.done()) {
            let index = job.index;
            let first_start = &mut job.first_start;
            job.plan.retain(|p| {
                let started = p.start < now;
                let on_dead = p.processors.iter().any(|q| dead.contains(q));
                if started && on_dead {
                    kills.push((index, p.task.0));
                    busy_acc += p.width() as f64 * (now - p.start);
                    let fs = first_start.get_or_insert(p.start);
                    *fs = fs.min(p.start);
                    false
                } else {
                    started && !on_dead
                }
            });
        }
        self.busy_seconds += busy_acc;
        self.totals.tasks_killed += kills.len() as u64;
        for (job, task) in kills {
            self.push_event(OnlineEventKind::Kill(job, task));
        }
        self.dirty = true;

        if self.survivors() == 0 {
            if self.active_slots().is_empty() && !self.queue_busy() {
                return Ok(()); // nothing left to run anyway
            }
            if self.churn.capacity_pending() {
                // Total outage, but a repair or join is scheduled: stall
                // until capacity returns (next epoch replans the backlog).
                return Ok(());
            }
            return Err(OnlineError::NoSurvivors(self.now));
        }

        // Immediate reactive replan of the surviving backlog.
        let active = self.active_slots();
        if !active.is_empty() {
            self.plan_ring2(&active);
            self.totals.reactive_replans += 1;
            self.push_event(OnlineEventKind::Reactive(active.len()));
        }
        Ok(())
    }

    /// Slots of admitted, unfinished jobs, in admission (stream) order.
    fn active_slots(&self) -> Vec<usize> {
        (0..self.jobs.len())
            .filter(|&s| !self.jobs[s].done())
            .collect()
    }

    /// Advances simulated time to `target`, dispatching every task
    /// finish, churn event and arrival on the way (ties in that order).
    fn advance_to(&mut self, target: f64) -> Result<(), OnlineError> {
        loop {
            let finish_t = self.next_finish().filter(|&t| t <= target);
            let churn_t = self.churn.peek_time().filter(|&t| t <= target);
            let arrival_t = self
                .arrivals
                .get(self.next_arrival)
                .copied()
                .filter(|&t| t <= target);
            let t_ev = [finish_t, churn_t, arrival_t]
                .into_iter()
                .flatten()
                .fold(f64::INFINITY, f64::min);
            if !t_ev.is_finite() {
                self.integrate_to(target);
                self.now = target;
                return Ok(());
            }
            self.integrate_to(t_ev);
            self.now = t_ev;
            if finish_t == Some(t_ev) {
                self.settle_finishes_at(t_ev);
            } else if churn_t == Some(t_ev) {
                // `None` means the event was consumed as a no-op (a
                // failure drawn during a total outage); keep advancing.
                if let Some(ev) = self.churn.pop_before(t_ev, &self.alive) {
                    self.apply_churn(ev.kind)?;
                }
            } else {
                let index = self.next_arrival as u64;
                self.next_arrival += 1;
                self.queue.push(index);
                self.push_event(OnlineEventKind::Arrive(index));
            }
        }
    }

    /// Admits queued jobs into free backlog slots: generates the graph,
    /// computes its matrix/ideal, and seeds the incumbent with MCPA.
    fn admit(&mut self) -> usize {
        let mut admitted = 0;
        while !self.queue.is_empty() && self.active_slots().len() < self.cfg.max_backlog {
            let index = self.queue.remove(0);
            let it = item(self.cfg.seed, index, &self.cfg.costs);
            let matrix = TimeMatrix::compute(&it.ptg, self.model, self.speed, self.p_total);
            let alloc = Mcpa.allocate(&it.ptg, &matrix);
            let ideal = ListScheduler.makespan(&it.ptg, &matrix, &alloc);
            let n = it.ptg.task_count();
            self.jobs.push(Job {
                index,
                g: it.ptg,
                matrix,
                alloc,
                arrival: self.arrivals[index as usize],
                admitted: self.now,
                ideal,
                finished: vec![None; n],
                plan: Vec::new(),
                first_start: None,
                completion: None,
            });
            self.push_event(OnlineEventKind::Admit(index));
            admitted += 1;
            self.dirty = true;
        }
        admitted
    }

    /// Ring 2: reactive survivors-only FIFO. Each active job is
    /// rescheduled alone, behind per-processor `busy_until` floors raised
    /// by the jobs planned before it (and everyone's running tasks) —
    /// the cheapest plan that is always available.
    fn plan_ring2(&mut self, active: &[usize]) {
        let now = self.now;
        let mut floors = vec![now; self.p_total as usize];
        // Running tasks reserve their processors up front.
        for &slot in active {
            for p in self.jobs[slot].running_placements(now) {
                for &q in &p.processors {
                    floors[q as usize] = floors[q as usize].max(p.finish);
                }
            }
        }
        for &slot in active {
            let job = &self.jobs[slot];
            let running = job.running_placements(now);
            let state = ResumeState {
                now,
                alive: self.alive.clone(),
                finished: job.finished.clone(),
                running: running
                    .iter()
                    .map(|p| RunningTask {
                        task: p.task,
                        finish: p.finish,
                        processors: p.processors.clone(),
                    })
                    .collect(),
                busy_until: floors.clone(),
            };
            let fresh = Rescheduler
                .reschedule(&job.g, &job.matrix, &job.alloc, &state)
                .expect("ring 2 plans only with survivors");
            for p in &fresh {
                for &q in &p.processors {
                    floors[q as usize] = floors[q as usize].max(p.finish);
                }
            }
            let job = &mut self.jobs[slot];
            job.plan = running;
            job.plan.extend(fresh);
        }
    }

    /// Builds the backlog union of the `active` jobs, in admission order
    /// and each job's tasks in id order. With `unstarted_only`, it keeps
    /// only the tasks neither finished nor running at `now`, with every
    /// union edge between two of them; `None` when that leaves no task.
    fn build_union(&self, active: &[usize], unstarted_only: bool) -> Option<BacklogUnion> {
        let mut b = PtgBuilder::new();
        let mut offsets = Vec::with_capacity(active.len());
        let mut position = Vec::new();
        let mut alloc = Vec::new();
        let mut finished = Vec::new();
        let mut running = Vec::new();
        let mut off = 0usize;
        for &slot in active {
            let job = &self.jobs[slot];
            let held = job.running_placements(self.now);
            let mut keep = vec![true; job.g.task_count()];
            if unstarted_only {
                for (k, f) in keep.iter_mut().zip(&job.finished) {
                    *k = f.is_none();
                }
                for p in &held {
                    keep[p.task.index()] = false;
                }
            }
            // The union id of each kept task.
            let mut ids = vec![None; keep.len()];
            for v in job.g.task_ids().filter(|v| keep[v.index()]) {
                let t = job.g.task(v);
                ids[v.index()] = Some(b.add_task(t.name.clone(), t.flop, t.alpha));
                position.push(off + v.index());
                alloc.push(job.alloc.of(v));
                finished.push(job.finished[v.index()]);
            }
            for v in job.g.task_ids() {
                for &w in job.g.successors(v) {
                    if let (Some(from), Some(to)) = (ids[v.index()], ids[w.index()]) {
                        b.add_edge(from, to)
                            .expect("job edges are valid in the union");
                    }
                }
            }
            for p in held {
                if let Some(task) = ids[p.task.index()] {
                    running.push(RunningTask {
                        task,
                        finish: p.finish,
                        processors: p.processors,
                    });
                }
            }
            offsets.push((slot, off, keep.len()));
            off += keep.len();
        }
        if b.task_count() == 0 {
            return None;
        }
        let g = b.build().expect("active jobs form a valid union graph");
        let matrix = TimeMatrix::compute(&g, self.model, self.speed, self.p_total);
        Some(BacklogUnion {
            g,
            matrix,
            alloc: Allocation::from_vec(alloc),
            state: ResumeState {
                now: self.now,
                alive: self.alive.clone(),
                finished,
                running,
                busy_until: Vec::new(),
            },
            offsets,
            position,
        })
    }

    /// Adopts `fresh` pending placements (already split per job) on top of
    /// each job's kept running tasks.
    fn adopt(&mut self, fresh: Vec<(usize, Vec<Placement>)>) {
        let now = self.now;
        for (slot, pending) in fresh {
            let job = &mut self.jobs[slot];
            let mut plan = job.running_placements(now);
            plan.extend(pending);
            job.plan = plan;
        }
    }

    /// One decision epoch: admit, and replan through the degradation
    /// rings if anything is dirty.
    fn decide(&mut self, epoch_index: usize) -> Result<(), OnlineError> {
        let admitted = self.admit();
        if !self.dirty {
            self.totals.idle_epochs += 1;
            return Ok(());
        }
        if self.survivors() == 0 {
            // Total outage with capacity pending: stay dirty, wait.
            self.totals.idle_epochs += 1;
            return Ok(());
        }
        let active = self.active_slots();
        if active.is_empty() {
            self.dirty = false;
            return Ok(());
        }

        // lint:allow(src-timing) -- the epoch budget is a wall-clock contract of the loop
        let t0 = Instant::now();
        let budget = self.cfg.epoch_budget;
        let slice_ok = |frac: f64| budget.is_none_or(|b| t0.elapsed() < b.mul_f64(frac));

        let rec = self.rec;
        let (ring, degraded) = rec.time("online.decide", || {
            // Ring 2 first: the safety net is always in hand before any
            // expensive thinking starts.
            self.plan_ring2(&active);
            let mut ring = 2u8;
            let mut degraded = false;
            if self.cfg.emts.is_some() {
                if slice_ok(0.25) {
                    let union = self
                        .build_union(&active, false)
                        .expect("active jobs hold tasks");
                    let repaired = Rescheduler
                        .reschedule(&union.g, &union.matrix, &union.alloc, &union.state)
                        .expect("ring 1 plans only with survivors");
                    self.adopt(union.split(repaired));
                    ring = 1;
                    let sabotaged = self.cfg.sabotage_ring0.contains(&epoch_index);
                    if !sabotaged && slice_ok(0.5) {
                        // Ring 0 evolves the widths of the tasks still to
                        // start; started tasks keep their incumbent widths.
                        // With nothing left to start it adopts the incumbent.
                        let mut best = union.alloc.clone();
                        if let Some(pending) = self.build_union(&active, true) {
                            let deadline = budget.map(|b| t0 + b.mul_f64(0.9));
                            let emts_cfg = self.cfg.emts.clone().expect("checked above");
                            let result = Emts::new(emts_cfg).run_deadline(
                                &pending.g,
                                &pending.matrix,
                                epoch_seed(self.cfg.seed, epoch_index as u64),
                                deadline,
                                std::slice::from_ref(&pending.alloc),
                                self.rec,
                            );
                            pending.scatter(&result.best, &mut best);
                        }
                        let evolved = Rescheduler
                            .reschedule(&union.g, &union.matrix, &best, &union.state)
                            .expect("ring 0 plans only with survivors");
                        self.adopt(union.split(evolved));
                        // The evolved allocation becomes the incumbent —
                        // the warm start of the next epoch.
                        for &(slot, off, len) in &union.offsets {
                            let per_job: Vec<u32> = (0..len)
                                .map(|i| best.of(TaskId((off + i) as u32)))
                                .collect();
                            self.jobs[slot].alloc = Allocation::from_vec(per_job);
                        }
                        ring = 0;
                    } else {
                        degraded = true;
                    }
                } else {
                    degraded = true;
                }
            }
            (ring, degraded)
        });

        let decision_seconds = t0.elapsed().as_secs_f64();
        rec.latency(DECIDE_SECONDS[usize::from(ring)], decision_seconds);
        let overran = budget.is_some_and(|b| decision_seconds > b.as_secs_f64());
        self.dirty = false;
        self.totals.decision_epochs += 1;
        self.totals.decision_wall_seconds += decision_seconds;
        match ring {
            0 => self.totals.ring0_epochs += 1,
            1 => self.totals.ring1_epochs += 1,
            _ => self.totals.ring2_epochs += 1,
        }
        if degraded {
            self.totals.watchdog_degraded += 1;
        }
        if overran {
            self.totals.deadline_overruns += 1;
        }
        self.push_event(OnlineEventKind::Plan(epoch_index, ring, active.len()));
        self.epochs.push(EpochOutcome {
            epoch: epoch_index,
            time: self.now,
            ring,
            backlog: active.len(),
            admitted,
            degraded,
            overran,
            decision_seconds,
        });
        Ok(())
    }
}

/// Runs the online control loop to completion. See the module docs for
/// the regime; the result is deterministic in simulated time for a fixed
/// `(cluster, model, cfg)`. Under a recorder, decisions are timed as
/// `online.decide` spans and as one `online.ring{0,1,2}.decide_seconds`
/// latency each, under the ring the decision adopted, and the finished
/// [`OnlineTotals`] are published once, each field as `online.<field>`
/// (counts as counters, the rest as gauges).
pub fn run_online<R: Recorder>(
    cluster: &Cluster,
    model: &dyn ExecutionTimeModel,
    cfg: &OnlineConfig,
    rec: &R,
) -> Result<OnlineReport, OnlineError> {
    assert!(cfg.epoch > 0.0, "epoch period must be positive");
    assert!(cfg.max_backlog >= 1, "backlog must admit at least one job");
    assert!(cfg.slo_factor > 0.0, "SLO factor must be positive");

    let p_total = cluster.processors + cfg.churn.spares;
    let mut arrivals = Vec::with_capacity(cfg.jobs as usize);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ ARRIVAL_SALT);
    let mut t = 0.0;
    for _ in 0..cfg.jobs {
        if cfg.arrival_mean > 0.0 {
            t += -cfg.arrival_mean * (1.0 - rng.gen::<f64>()).ln();
        }
        arrivals.push(t);
    }

    let mut alive = vec![false; p_total as usize];
    for a in alive.iter_mut().take(cluster.processors as usize) {
        *a = true;
    }
    let mut sim = Online {
        cfg,
        model,
        rec,
        speed: cluster.speed_flops(),
        processors: cluster.processors,
        p_total,
        now: 0.0,
        alive,
        churn: ChurnStream::new(&cfg.churn, cfg.seed),
        arrivals,
        next_arrival: 0,
        queue: Vec::new(),
        jobs: Vec::new(),
        dirty: false,
        alive_seconds: 0.0,
        busy_seconds: 0.0,
        events: Vec::new(),
        epochs: Vec::new(),
        totals: OnlineTotals {
            jobs: cfg.jobs,
            ..OnlineTotals::default()
        },
    };

    let mut epoch_index = 0usize;
    while sim.totals.completed < cfg.jobs {
        let target = epoch_index as f64 * cfg.epoch;
        sim.advance_to(target)?;
        if sim.totals.completed >= cfg.jobs {
            break;
        }
        sim.decide(epoch_index)?;
        epoch_index += 1;
        assert!(
            epoch_index < 100_000_000,
            "online loop failed to make progress"
        );
    }

    // Aggregates. Jobs are reported in stream order.
    let mut outcomes: Vec<JobOutcome> = sim
        .jobs
        .iter()
        .map(|j| {
            let completion = j.completion.expect("run ended with all jobs complete");
            let first_start = j.first_start.expect("completed jobs started");
            JobOutcome {
                job: j.index,
                tasks: j.g.task_count(),
                arrival: j.arrival,
                admitted: j.admitted,
                first_start,
                completion,
                ideal: j.ideal,
                queue_wait: first_start - j.arrival,
                stretch: (completion - j.arrival) / j.ideal,
                slo_met: completion <= j.arrival + cfg.slo_factor * j.ideal,
            }
        })
        .collect();
    outcomes.sort_by_key(|o| o.job);

    let n = outcomes.len().max(1) as f64;
    let mut stretches: Vec<f64> = outcomes.iter().map(|o| o.stretch).collect();
    stretches.sort_by(|a, b| a.partial_cmp(b).expect("stretches are finite"));
    let p95 = stretches
        .get(((stretches.len() as f64 * 0.95).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    sim.totals.queue_wait_mean = outcomes.iter().map(|o| o.queue_wait).sum::<f64>() / n;
    sim.totals.stretch_mean = outcomes.iter().map(|o| o.stretch).sum::<f64>() / n;
    sim.totals.stretch_p95 = p95;
    sim.totals.utilization = if sim.alive_seconds > 0.0 {
        sim.busy_seconds / sim.alive_seconds
    } else {
        0.0
    };
    sim.totals.slo_attainment = outcomes.iter().filter(|o| o.slo_met).count() as f64 / n;

    obs::publish!(rec, "online.", sim.totals,
        add[jobs, completed, decision_epochs, idle_epochs, ring0_epochs, ring1_epochs,
            ring2_epochs, watchdog_degraded, deadline_overruns, reactive_replans, tasks_killed,
            node_failures, node_recoveries, node_joins],
        gauge[makespan, queue_wait_mean, stretch_mean, stretch_p95, utilization,
              slo_attainment, decision_wall_seconds]);

    Ok(OnlineReport {
        mode: if cfg.emts.is_some() {
            "rolling".to_string()
        } else {
            "reactive".to_string()
        },
        seed: cfg.seed,
        epoch: cfg.epoch,
        arrival_mean: cfg.arrival_mean,
        slo_factor: cfg.slo_factor,
        churn: cfg.churn.canonical(),
        processors: cluster.processors,
        spares: cfg.churn.spares,
        epoch_budget_seconds: cfg.epoch_budget.map(|b| b.as_secs_f64()),
        totals: sim.totals,
        jobs: outcomes,
        epochs: sim.epochs,
        events: sim.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::Amdahl;

    const P: u32 = 4;

    /// `0 → 1, 0 → 2, 1 → 3, 2 → 3`, and `4` alone.
    fn diamond() -> Ptg {
        let mut b = PtgBuilder::new();
        for i in 0..5 {
            b.add_task(format!("t{i}"), 1e9 * (i + 1) as f64, 0.1);
        }
        for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(TaskId(from), TaskId(to)).unwrap();
        }
        b.build().unwrap()
    }

    fn job(index: u64) -> Job {
        let g = diamond();
        let n = g.task_count();
        Job {
            index,
            matrix: TimeMatrix::compute(&g, &Amdahl, 1e9, P),
            // Widths 1, 2, 3, 4, 1: every task's width names it.
            alloc: Allocation::from_vec((0..n as u32).map(|i| i % P + 1).collect()),
            g,
            arrival: 0.0,
            admitted: 0.0,
            ideal: 1.0,
            finished: vec![None; n],
            plan: Vec::new(),
            first_start: None,
            completion: None,
        }
    }

    fn placement(task: u32, start: f64, finish: f64, processors: &[u32]) -> Placement {
        Placement {
            task: TaskId(task),
            start,
            finish,
            processors: processors.to_vec(),
        }
    }

    /// At `now = 2`, job 0 has finished task 0, runs task 1 and plans the
    /// rest; job 1 has started nothing.
    fn backlog(cfg: &OnlineConfig) -> Online<'_, obs::NoopRecorder> {
        let mut started = job(0);
        started.finished[0] = Some(1.0);
        started.plan = vec![
            placement(1, 1.0, 3.0, &[0, 1]),
            placement(2, 3.0, 5.0, &[0, 1, 2]),
            placement(3, 5.0, 6.0, &[0, 1, 2, 3]),
            placement(4, 3.0, 4.0, &[3]),
        ];
        Online {
            cfg,
            model: &Amdahl,
            rec: &obs::NoopRecorder,
            speed: 1e9,
            processors: P,
            p_total: P,
            now: 2.0,
            alive: vec![true; P as usize],
            churn: ChurnStream::new(&cfg.churn, cfg.seed),
            arrivals: vec![0.0, 0.0],
            next_arrival: 2,
            queue: Vec::new(),
            jobs: vec![started, job(1)],
            dirty: true,
            alive_seconds: 0.0,
            busy_seconds: 0.0,
            events: Vec::new(),
            epochs: Vec::new(),
            totals: OnlineTotals::default(),
        }
    }

    #[test]
    fn ring0_evolves_exactly_the_unstarted_tasks_in_union_order() {
        let cfg = OnlineConfig::default();
        let sim = backlog(&cfg);
        let union = sim.build_union(&[0, 1], false).unwrap();
        let pending = sim.build_union(&[0, 1], true).unwrap();
        assert_eq!(union.position, (0..10).collect::<Vec<_>>());
        assert_eq!(union.state.running.len(), 1);
        // Job 0's tasks 0 (finished) and 1 (running) are left out.
        assert_eq!(pending.position, vec![2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(pending.offsets, union.offsets);
        for (v, &t) in pending.g.task_ids().zip(&pending.position) {
            let u = TaskId(t as u32);
            assert_eq!(pending.g.task(v), union.g.task(u));
            assert_eq!(pending.alloc.of(v), union.alloc.of(u));
        }
        // Exactly the induced edges, in union order: 1 → 3 leaves with its
        // running source, so job 0's task 3 waits on task 2 alone.
        let induced: Vec<(usize, usize)> = union
            .g
            .edges()
            .map(|(a, b)| (a.index(), b.index()))
            .filter(|(a, b)| pending.position.contains(a) && pending.position.contains(b))
            .collect();
        let kept: Vec<(usize, usize)> = pending
            .g
            .edges()
            .map(|(a, b)| (pending.position[a.index()], pending.position[b.index()]))
            .collect();
        assert_eq!(kept, induced);
        assert_eq!(kept, vec![(2, 3), (5, 6), (5, 7), (6, 8), (7, 8)]);
        assert!(pending.state.running.is_empty());
        assert!(pending.state.finished.iter().all(Option::is_none));

        // Scattering an evolved allocation back changes only the unstarted
        // tasks' widths.
        let mut best = union.alloc.clone();
        pending.scatter(&Allocation::uniform(pending.g.task_count(), P), &mut best);
        for t in 0..10 {
            let u = TaskId(t as u32);
            let want = if pending.position.contains(&t) {
                P
            } else {
                union.alloc.of(u)
            };
            assert_eq!(best.of(u), want, "task {t}");
        }
    }

    #[test]
    fn with_every_task_started_ring0_adopts_the_incumbent_repair() {
        let cfg = OnlineConfig::default();
        let mut sim = backlog(&cfg);
        sim.jobs.truncate(1);
        let job = &mut sim.jobs[0];
        for t in [0, 1, 2, 4] {
            job.finished[t] = Some(1.5);
        }
        job.plan = vec![placement(3, 1.5, 3.0, &[0, 1, 2, 3])];
        let alloc = job.alloc.clone();
        assert!(sim.build_union(&[0], true).is_none());

        sim.decide(0).unwrap();
        assert_eq!(sim.epochs[0].ring, 0, "the epoch still counts as ring 0");
        assert_eq!(
            sim.jobs[0].plan,
            vec![placement(3, 1.5, 3.0, &[0, 1, 2, 3])]
        );
        assert_eq!(sim.jobs[0].alloc, alloc);
    }
}
