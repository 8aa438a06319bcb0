//! The fitness evaluation engine: persistent worker pool + memo cache.
//!
//! The paper notes the EA's cost "is mainly determined by the mapping
//! function as it evaluates the fitness of individuals". Fitness evaluation
//! is pure — the list scheduler reads the PTG and the time matrix and
//! returns a makespan — so the λ offspring of a generation can be evaluated
//! on all cores with no effect on the results: mutation (the only RNG
//! consumer) stays on the caller's thread.
//!
//! Three layers, composed by [`crate::Emts::run`]:
//!
//! * [`sched::EvalScratch`] (in the `sched` crate) — one set of reusable
//!   buffers per thread, so a steady-state evaluation performs zero heap
//!   allocations,
//! * [`EvalPool`] — worker threads spawned **once per run** and fed batches
//!   over a channel, instead of a fresh thread scope per generation. A
//!   batch is either a chunk of offspring to evaluate or one seeding
//!   heuristic (MCPA) to run while the caller runs the others,
//! * [`FitnessEngine`] — a memo cache in front of the pool keyed by the
//!   allocation vector: plus-selection and the shrinking mutation operator
//!   frequently reproduce earlier individuals, and a cached individual
//!   skips the mapper entirely. The EA streams each generation's offspring
//!   through it in chunks ([`FitnessEngine::submit`] /
//!   [`FitnessEngine::collect`]), so workers map one chunk while the
//!   caller mutates the next.
//!
//! Caching cannot change any result: the mapper is deterministic in the
//! allocation, and a completed evaluation's [`sched::BoundedEval`] carries
//! `reject_key = max_v (start(v) + bl(v))`, the exact quantity the engine's
//! in-flight rejection test compares against the cutoff — so the cache
//! reproduces accept/reject decisions for *any* later cutoff bit-for-bit.
//!
//! # Self-healing
//!
//! The pool treats its workers as expendable. Failures are contained in
//! three rings, all of which preserve the batch's results exactly (the
//! mapper and the seeding heuristics are deterministic, so an item
//! computed again is bit-identical):
//!
//! 1. **Per-item containment** — each worker item runs under
//!    [`std::panic::catch_unwind`]. A panic poisons at most that item: the
//!    worker counts it (`pool.worker_panics`), discards its scratch (whose
//!    buffers may be mid-update) and moves on; the caller later fills the
//!    empty result slot serially (`pool.serial_fallbacks`).
//! 2. **Worker respawn** — a panic that escapes ring 1 (e.g. a wedged
//!    claim) unwinds the worker's whole incarnation; the outer loop in
//!    `worker_loop` catches it, counts `pool.respawns` and starts a
//!    fresh incarnation — new scratch, same OS thread — so the pool
//!    returns to full strength without touching the thread scope.
//! 3. **Batch deadline** — the dispatcher waits on the batch with a
//!    timeout instead of indefinitely. If pending items stop making
//!    progress ([`PoolError::Stalled`] — a worker died between claiming an
//!    item and finishing it), the caller computes every missing item
//!    itself and the run continues.
//!
//! Lock poisoning is recovered rather than propagated: every mutex here
//! protects state that is consistent at all times (a `bool`, a channel
//! receiver), so clearing the poison is correct — see `lock_recover`.

use crate::trace::FitnessCounters;
use exec_model::TimeMatrix;
use obs::{NoopRecorder, Recorder};
use ptg::{Ptg, TaskId};
use sched::{Allocation, BoundedEval, EvalScratch, ListScheduler};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The shared disabled recorder every un-instrumented entry point points
/// at (a zero-sized type, so this is purely a lifetime convenience).
static NOOP: NoopRecorder = NoopRecorder;

/// Why a pool interaction degraded. Degradation is never fatal: the
/// dispatcher falls back to evaluating the affected items on the calling
/// thread, so [`EvalPool::run_batch`] always returns a complete result.
/// The most recent degradation is kept in [`EvalPool::last_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The batch channel had no receiver left, so no worker could be
    /// handed the batch.
    Disconnected,
    /// A dispatched batch stopped making progress before completing — a
    /// worker died between claiming an item and publishing its result.
    Stalled {
        /// Result slots still empty when the stall was declared.
        missing: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Disconnected => write!(f, "evaluation pool channel disconnected"),
            PoolError::Stalled { missing } => {
                write!(f, "evaluation batch stalled with {missing} missing results")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Failure injection for the pool's self-healing tests.
///
/// The armed counters are consumed by *worker threads only* — the caller's
/// own drain never checks them — so every injected failure exercises a
/// recovery path instead of unwinding the EA. The hooks are process-global
/// (tests that arm them must serialize) and cost one relaxed atomic load
/// per worker evaluation (and one per batch) when disarmed.
#[doc(hidden)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    static EVAL_PANICS: AtomicI64 = AtomicI64::new(0);
    static WORKER_DEATHS: AtomicI64 = AtomicI64::new(0);
    static CALLER_ABSTAINS: AtomicBool = AtomicBool::new(false);

    /// Arms the next `n` worker evaluations to panic mid-mapper (a
    /// "poisoned allocation"): each leaves its result slot empty and costs
    /// the worker its scratch.
    pub fn arm_eval_panics(n: u64) {
        EVAL_PANICS.store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Arms the next `n` batch-item claims to kill their worker's
    /// incarnation outright: the claimed item is never finished, so the
    /// batch stalls until the dispatcher's deadline fires.
    pub fn arm_worker_deaths(n: u64) {
        WORKER_DEATHS.store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Keeps the dispatching thread out of every batch drain, so the
    /// workers must claim every dispatched item and the hooks above fire
    /// however the threads are scheduled. The caller still fills whatever
    /// the workers fail to deliver.
    pub fn arm_caller_abstains() {
        CALLER_ABSTAINS.store(true, Ordering::SeqCst);
    }

    /// Disarms every hook.
    pub fn disarm() {
        EVAL_PANICS.store(0, Ordering::SeqCst);
        WORKER_DEATHS.store(0, Ordering::SeqCst);
        CALLER_ABSTAINS.store(false, Ordering::SeqCst);
    }

    fn take(counter: &AtomicI64) -> bool {
        if counter.load(Ordering::Relaxed) <= 0 {
            return false;
        }
        counter.fetch_sub(1, Ordering::AcqRel) > 0
    }

    pub(super) fn eval_should_panic() -> bool {
        take(&EVAL_PANICS)
    }

    pub(super) fn claim_should_die() -> bool {
        take(&WORKER_DEATHS)
    }

    pub(super) fn caller_abstains() -> bool {
        CALLER_ABSTAINS.load(Ordering::Relaxed)
    }
}

/// Locks `m`, recovering the guard if a thread panicked while holding it.
///
/// Every critical section around the pool's mutexes leaves the protected
/// value consistent at all times (`done` is a single bool, the receiver's
/// internal state is `mpsc`'s own), so a poisoned lock carries no torn
/// data — clearing the poison is the correct recovery, not a masked bug.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the pool handle and its workers. It lives on the
/// stack frame of [`EvalPool::with_workers`] *outside* the thread scope,
/// so respawned worker incarnations keep borrowing it.
struct PoolCore {
    /// Hands batches to workers; locked only for the handoff.
    rx: Mutex<Receiver<Arc<Batch>>>,
    /// Worker threads currently running `worker_loop`.
    live: AtomicUsize,
    /// Evaluations that panicked inside a worker (ring-1 containment).
    panics: AtomicU64,
    /// Worker incarnations restarted after an uncontained panic (ring 2).
    respawns: AtomicU64,
}

/// A seeding heuristic a batch can run: the allocation it computes for
/// the pool's graph and time matrix.
pub(crate) type Heuristic = fn(&Ptg, &TimeMatrix) -> Allocation;

/// What a batch's items compute.
enum Work {
    /// Bounded evaluations of `allocs` at `cutoff`, one write-once result
    /// slot per allocation.
    Evaluate {
        allocs: Vec<Allocation>,
        cutoff: f64,
        results: Vec<OnceLock<BoundedEval>>,
    },
    /// One run of a seeding heuristic: a single item.
    Seed {
        heuristic: Heuristic,
        result: OnceLock<Allocation>,
    },
}

impl Work {
    fn len(&self) -> usize {
        match self {
            Work::Evaluate { allocs, .. } => allocs.len(),
            Work::Seed { .. } => 1,
        }
    }
}

/// One batch of work shared between the pool's workers and the caller.
///
/// Workers claim indices with an atomic counter, so items are never
/// computed twice and results land positionally no matter which thread
/// takes which item.
struct Batch {
    work: Work,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Items not yet finished; the thread that finishes the last one flags
    /// `done`.
    pending: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    fn new(work: Work) -> Arc<Self> {
        Arc::new(Batch {
            pending: AtomicUsize::new(work.len()),
            work,
            next: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        })
    }

    fn len(&self) -> usize {
        self.work.len()
    }

    /// The allocations an evaluation batch maps (none for a heuristic).
    fn allocs(&self) -> &[Allocation] {
        match &self.work {
            Work::Evaluate { allocs, .. } => allocs,
            Work::Seed { .. } => &[],
        }
    }

    fn is_filled(&self, i: usize) -> bool {
        match &self.work {
            Work::Evaluate { results, .. } => results[i].get().is_some(),
            Work::Seed { result, .. } => result.get().is_some(),
        }
    }

    /// Item `i` of a collected evaluation batch.
    fn outcome(&self, i: usize) -> BoundedEval {
        match &self.work {
            Work::Evaluate { results, .. } => *results[i]
                .get()
                .expect("a collected batch has every slot filled"),
            Work::Seed { .. } => unreachable!("a seed job has no evaluations"),
        }
    }

    /// Computes item `i` into its slot. A slot another thread filled first
    /// keeps its value: both computed the same deterministic result.
    fn run_item(&self, i: usize, g: &Ptg, matrix: &TimeMatrix, scratch: &mut EvalScratch) {
        match &self.work {
            Work::Evaluate {
                allocs,
                cutoff,
                results,
            } => {
                let outcome =
                    ListScheduler.evaluate_bounded_with(g, matrix, &allocs[i], *cutoff, scratch);
                let _ = results[i].set(outcome);
            }
            Work::Seed { heuristic, result } => {
                let _ = result.set(heuristic(g, matrix));
            }
        }
    }
}

/// Claims and computes items from `batch` until none remain.
///
/// Worker threads pass `Some(core)`, which turns on ring-1 containment:
/// the item runs under `catch_unwind`, and a panicking item merely
/// leaves its result slot empty (counted in `pool.worker_panics`; the
/// scratch, possibly mid-update when the unwind hit, is rebuilt). The
/// calling thread passes `None` and computes bare — a panic there is the
/// caller's own bug and must propagate.
///
/// When recording, each evaluation's duration feeds the
/// `pool.eval_seconds` latency histogram (callable from any thread).
// lint:panic-root
fn drain_batch<R: Recorder>(
    g: &Ptg,
    matrix: &TimeMatrix,
    batch: &Batch,
    scratch: &mut EvalScratch,
    rec: &R,
    core: Option<&PoolCore>,
) {
    let evaluates = matches!(batch.work, Work::Evaluate { .. });
    loop {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        if i >= batch.len() {
            return;
        }
        if core.is_some() && sabotage::claim_should_die() {
            // Simulated hard death: unwind with the claim unfinished, so
            // `pending` never reaches zero and the batch is left to the
            // dispatcher's stall deadline. `worker_loop`'s outer ring
            // catches this and respawns the incarnation.
            // lint:allow(src-panic-reach) -- deliberate fault injection; the incarnation ring contains the unwind
            panic!("sabotage: worker died mid-item");
        }
        let eval_start = if R::ENABLED && evaluates {
            // lint:allow(src-timing) -- recorder phase accounting.
            Some(Instant::now())
        } else {
            None
        };
        if let Some(core) = core {
            // AssertUnwindSafe: on Err the scratch (the only &mut crossing
            // the boundary) is discarded wholesale, never observed torn,
            // and the item's slot is set only once it is complete.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if sabotage::eval_should_panic() {
                    // lint:allow(src-panic-reach) -- deliberate fault injection; caught by the per-item catch_unwind
                    panic!("sabotage: poisoned allocation");
                }
                batch.run_item(i, g, matrix, scratch);
            }));
            if attempt.is_err() {
                core.panics.fetch_add(1, Ordering::Relaxed);
                *scratch = EvalScratch::with_capacity(g.task_count(), matrix.p_max());
            }
        } else {
            batch.run_item(i, g, matrix, scratch);
        }
        if let Some(t) = eval_start {
            rec.latency("pool.eval_seconds", t.elapsed().as_secs_f64());
        }
        if batch.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock_recover(&batch.done) = true;
            // Only the caller ever waits, and it never waits on itself.
            if core.is_some() {
                batch.done_cv.notify_all();
            }
        }
    }
}

/// A worker thread: runs incarnations of [`worker_incarnation`] until one
/// ends cleanly (channel disconnect — the pool shut down). An incarnation
/// that *panics* out — a failure that escaped per-item containment — is
/// replaced by a fresh one on the same OS thread: new scratch, respawn
/// counted. The thread scope never sees a panicked worker.
// lint:panic-root
fn worker_loop<R: Recorder>(g: &Ptg, matrix: &TimeMatrix, core: &PoolCore, rec: &R) {
    /// Keeps `PoolCore::live` honest no matter how the thread exits.
    struct LiveGuard<'a>(&'a AtomicUsize);
    impl Drop for LiveGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }
    // `live` was incremented at the spawn site, so the pool handle sees
    // full strength from the moment it exists.
    let _guard = LiveGuard(&core.live);
    loop {
        match catch_unwind(AssertUnwindSafe(|| {
            worker_incarnation(g, matrix, core, rec)
        })) {
            Ok(()) => break,
            Err(_) => {
                core.respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One worker incarnation: one scratch for its lifetime, batches from the
/// shared channel until the pool is dropped.
///
/// When recording, the incarnation accumulates its busy time locally and
/// flushes it **once at shutdown**: total seconds into the flat
/// `pool/worker_busy` phase, its personal total into the
/// `pool.worker_busy_seconds` histogram (one sample per worker — the
/// per-worker busy-time distribution), and its batch count, seed jobs
/// included, into `pool.worker_batches`. An incarnation that dies
/// mid-batch loses its unflushed telemetry — an accepted imprecision of
/// the failure path.
///
/// The whole incarnation is one `pool.worker` trace span, so every worker
/// thread has its own flight-recorder lane before the pool joins, even one
/// that never wins a batch item. Each drained batch is a `pool.batch`
/// span on that lane, or `pool.seed` when it runs a seeding heuristic; a
/// seed job is never part of the caller's `ea` span tree.
// lint:panic-root
fn worker_incarnation<R: Recorder>(g: &Ptg, matrix: &TimeMatrix, core: &PoolCore, rec: &R) {
    let _incarnation = rec.trace_span("pool.worker");
    let mut scratch = EvalScratch::with_capacity(g.task_count(), matrix.p_max());
    let mut busy = 0.0f64;
    let mut batches = 0u64;
    loop {
        // Hold the receiver lock only for the handoff, not the evaluation.
        let msg = lock_recover(&core.rx).recv();
        match msg {
            Ok(batch) => {
                let batch_start = if R::ENABLED {
                    // lint:allow(src-timing) -- recorder phase accounting.
                    Some(Instant::now())
                } else {
                    None
                };
                // Thread-local span: one interval per drained batch on
                // this worker's flight-recorder lane.
                let batch_span = rec.trace_span(match batch.work {
                    Work::Evaluate { .. } => "pool.batch",
                    Work::Seed { .. } => "pool.seed",
                });
                drain_batch(g, matrix, &batch, &mut scratch, rec, Some(core));
                drop(batch_span);
                if let Some(t) = batch_start {
                    busy += t.elapsed().as_secs_f64();
                    batches += 1;
                }
            }
            Err(_) => break, // pool dropped its sender: shut down
        }
    }
    if R::ENABLED && batches > 0 {
        rec.phase_add("pool/worker_busy", busy);
        rec.latency("pool.worker_busy_seconds", busy);
        rec.add("pool.worker_batches", batches);
    }
}

/// A persistent evaluation pool: worker threads spawned once (per EMTS
/// run), each owning one [`EvalScratch`], fed batches over a channel —
/// chunks of offspring, or a seeding heuristic to run while the caller
/// runs the others.
///
/// A batch is handed over without waiting and collected later; collecting
/// it, the calling thread computes whatever no worker has claimed yet with
/// its own scratch. A pool with zero workers therefore degenerates to
/// plain serial evaluation — that is also the configuration chosen when
/// `parallel` is off.
///
/// The pool is generic over a [`Recorder`], defaulted to the no-op one so
/// existing call sites are untouched; [`EvalPool::with_recorder`] threads a
/// live recorder through the dispatch path and every worker.
pub struct EvalPool<'env, R: Recorder = NoopRecorder> {
    g: &'env Ptg,
    matrix: &'env TimeMatrix,
    /// `None` in serial mode.
    tx: Option<Sender<Arc<Batch>>>,
    workers: usize,
    /// The calling thread's scratch.
    scratch: EvalScratch,
    rec: &'env R,
    /// Shared worker-side state; `None` in serial mode.
    core: Option<&'env PoolCore>,
    /// Batch items the caller re-evaluated serially after the pool failed
    /// to produce them (panicked or stalled items).
    serial_fallbacks: u64,
    /// The most recent degradation the dispatcher recovered from.
    last_error: Option<PoolError>,
}

/// How long the dispatcher waits between progress checks on an
/// outstanding batch.
const STALL_WINDOW: Duration = Duration::from_millis(100);
/// Consecutive windows without a single item completing before the batch
/// is declared stalled. A false positive (a worker merely slow, not dead)
/// only costs duplicated work: the caller and the worker race to fill the
/// same write-once slot with the same deterministic value.
const STALL_WINDOWS: u32 = 2;

impl<'env> EvalPool<'env> {
    /// Runs `f` with a pool over `g`/`matrix`; workers live exactly as long
    /// as the call (they are joined before `with` returns).
    ///
    /// With `parallel` false — or on a single-core machine — no threads are
    /// spawned and every evaluation runs inline on the caller's scratch.
    pub fn with<T>(
        g: &Ptg,
        matrix: &TimeMatrix,
        parallel: bool,
        f: impl FnOnce(&mut EvalPool<'_>) -> T,
    ) -> T {
        Self::with_recorder(g, matrix, parallel, &NOOP, f)
    }
}

impl<'env, REC: Recorder> EvalPool<'env, REC> {
    /// [`EvalPool::with`] with telemetry: batch dispatch/drain time, an
    /// eval-latency histogram and per-worker busy time flow into `rec`.
    pub fn with_recorder<T>(
        g: &Ptg,
        matrix: &TimeMatrix,
        parallel: bool,
        rec: &REC,
        f: impl FnOnce(&mut EvalPool<'_, REC>) -> T,
    ) -> T {
        let workers = if parallel {
            // The caller drains batches too, so spawn cores − 1 workers.
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .saturating_sub(1)
        } else {
            0
        };
        Self::with_workers(g, matrix, workers, rec, f)
    }

    /// [`EvalPool::with_recorder`] with an explicit worker count instead
    /// of one derived from the machine: benchmarks pin their concurrency
    /// with it, and the self-healing tests use it to force a worker-backed
    /// pool on single-core machines (where `with_recorder` chooses zero).
    pub fn with_workers<T>(
        g: &Ptg,
        matrix: &TimeMatrix,
        workers: usize,
        rec: &REC,
        f: impl FnOnce(&mut EvalPool<'_, REC>) -> T,
    ) -> T {
        if workers == 0 {
            let mut pool = EvalPool {
                g,
                matrix,
                tx: None,
                workers: 0,
                scratch: EvalScratch::with_capacity(g.task_count(), matrix.p_max()),
                rec,
                core: None,
                serial_fallbacks: 0,
                last_error: None,
            };
            return f(&mut pool);
        }
        let (tx, rx) = channel::<Arc<Batch>>();
        // Outlives the scope below, so respawned incarnations can keep
        // borrowing it.
        let core = PoolCore {
            rx: Mutex::new(rx),
            live: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
        };
        std::thread::scope(|scope| {
            for i in 0..workers {
                // Incremented here (not in the worker) so the handle sees
                // full strength from the moment it exists.
                core.live.fetch_add(1, Ordering::AcqRel);
                let core = &core;
                // Named threads give flight-recorder lanes (and panic
                // messages) a stable worker identity.
                std::thread::Builder::new()
                    .name(format!("worker-{i}"))
                    .spawn_scoped(scope, move || worker_loop(g, matrix, core, rec))
                    .expect("spawning a pool worker thread");
            }
            let mut pool = EvalPool {
                g,
                matrix,
                tx: Some(tx),
                workers,
                scratch: EvalScratch::with_capacity(g.task_count(), matrix.p_max()),
                rec,
                core: Some(&core),
                serial_fallbacks: 0,
                last_error: None,
            };
            let out = f(&mut pool);
            // Dropping the pool drops the sender; workers see the
            // disconnect and exit, and the scope joins them.
            drop(pool);
            out
        })
    }

    /// Number of worker threads (0 in serial mode).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker threads currently alive (0 in serial mode). Dips below
    /// [`EvalPool::workers`] only in the instant between a worker thread
    /// dying outright and — since incarnations respawn in place — never
    /// coming back; a persistent 0 means the pool is dead weight.
    pub fn live_workers(&self) -> usize {
        self.core.map_or(0, |c| c.live.load(Ordering::Acquire))
    }

    /// The pool's failure counts so far: evaluations that panicked in a
    /// worker and were contained (ring 1), worker incarnations restarted
    /// after an uncontained panic (ring 2), and batch items the caller
    /// re-evaluated because the pool failed to produce them. Memo fields
    /// are zero; [`FitnessEngine::counters`] fills them.
    pub fn counters(&self) -> FitnessCounters {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        FitnessCounters {
            worker_panics: self.core.map_or(0, |c| load(&c.panics)),
            respawns: self.core.map_or(0, |c| load(&c.respawns)),
            serial_fallbacks: self.serial_fallbacks,
            ..FitnessCounters::default()
        }
    }

    /// The most recent degradation the dispatcher recovered from, if any.
    pub fn last_error(&self) -> Option<PoolError> {
        self.last_error
    }

    /// The recorder this pool reports into.
    pub fn recorder(&self) -> &'env REC {
        self.rec
    }

    /// Evaluates one allocation on the caller's scratch.
    fn eval_inline(&mut self, alloc: &Allocation, cutoff: f64) -> BoundedEval {
        ListScheduler.evaluate_bounded_with(self.g, self.matrix, alloc, cutoff, &mut self.scratch)
    }

    /// Evaluates every allocation under `cutoff`; results are positional.
    /// The batch is handed over and collected at once.
    pub fn run_batch(&mut self, allocs: Vec<Allocation>, cutoff: f64) -> Vec<BoundedEval> {
        if allocs.is_empty() {
            return Vec::new();
        }
        let batch = self.submit(Work::Evaluate {
            results: allocs.iter().map(|_| OnceLock::new()).collect(),
            allocs,
            cutoff,
        });
        self.collect(&batch);
        (0..batch.len()).map(|i| batch.outcome(i)).collect()
    }

    /// Starts `heuristic` on a worker and returns at once; with no
    /// workers it runs here and now. [`Self::join_seed`] returns its
    /// allocation.
    pub(crate) fn spawn_seed(&mut self, heuristic: Heuristic) -> SeedJob {
        SeedJob(self.submit(Work::Seed {
            heuristic,
            result: OnceLock::new(),
        }))
    }

    /// The allocation of a [`Self::spawn_seed`] job. If no worker has
    /// claimed the job, the caller runs it; if its worker panicked, died
    /// or stalled, the caller runs it again, with the same bits.
    pub(crate) fn join_seed(&mut self, job: SeedJob) -> Allocation {
        self.collect(&job.0);
        match &job.0.work {
            Work::Seed { result, .. } => result.get().expect("a collected job is filled").clone(),
            Work::Evaluate { .. } => unreachable!("a seed job runs a heuristic"),
        }
    }

    /// Hands `work` to the workers without waiting for it. With no
    /// workers, the caller computes every item now.
    fn submit(&mut self, work: Work) -> Arc<Batch> {
        let batch = Batch::new(work);
        let n = batch.len();
        let Some(tx) = &self.tx else {
            drain_batch(
                self.g,
                self.matrix,
                &batch,
                &mut self.scratch,
                self.rec,
                None,
            );
            return batch;
        };
        let dispatch_start = if REC::ENABLED {
            // lint:allow(src-timing) -- recorder phase accounting.
            Some(Instant::now())
        } else {
            None
        };
        // One handle per worker; a worker still busy with an earlier batch
        // picks its copy up when it is done. A stale copy that outlives
        // its batch drains zero items and is discarded.
        for _ in 0..self.workers.min(n) {
            if tx.send(Arc::clone(&batch)).is_err() {
                // No receiver left — impossible while the scope lives, but
                // typed recovery keeps it an inconvenience: the caller
                // simply drains the whole batch itself when collecting.
                self.last_error = Some(PoolError::Disconnected);
                break;
            }
        }
        if let Some(t) = dispatch_start {
            self.rec
                .phase_add("pool/dispatch", t.elapsed().as_secs_f64());
            // Timeline marker: a batch of `n` items was handed to the
            // workers.
            self.rec.event("pool.batch.dispatch", n as u64);
        }
        batch
    }

    /// Completes a [`Self::submit`]ted batch: the caller computes every
    /// item no worker has claimed, waits for the claimed ones and fills
    /// any slot a worker failed to deliver. An evaluation batch counts in
    /// `pool.batches`.
    fn collect(&mut self, batch: &Batch) {
        let evaluates = matches!(batch.work, Work::Evaluate { .. });
        if self.tx.is_none() {
            // Computed whole at submission.
            if REC::ENABLED && evaluates {
                self.rec.add("pool.batches", 1);
            }
            return;
        }
        let drain_start = if REC::ENABLED {
            // lint:allow(src-timing) -- recorder phase accounting.
            Some(Instant::now())
        } else {
            None
        };
        if !sabotage::caller_abstains() {
            drain_batch(
                self.g,
                self.matrix,
                batch,
                &mut self.scratch,
                self.rec,
                None,
            );
        }
        if wait_for_batch(batch) {
            let missing = (0..batch.len()).filter(|&i| !batch.is_filled(i)).count();
            self.last_error = Some(PoolError::Stalled { missing });
        }
        // Fill every slot the workers failed to produce — items lost to a
        // contained panic (batch completed, slot empty) or to a stall.
        // The mapper and the heuristics are deterministic, so a refilled
        // item is bit-identical to what a healthy worker would have
        // produced.
        for i in 0..batch.len() {
            if !batch.is_filled(i) {
                batch.run_item(i, self.g, self.matrix, &mut self.scratch);
                self.serial_fallbacks += 1;
            }
        }
        if let Some(t) = drain_start {
            self.rec.phase_add("pool/drain", t.elapsed().as_secs_f64());
            if evaluates {
                self.rec.add("pool.batches", 1);
            }
            // Timeline marker: every slot of the batch is filled.
            self.rec.event("pool.batch.complete", batch.len() as u64);
        }
    }
}

/// A seeding heuristic handed to the pool by [`EvalPool::spawn_seed`] and
/// not yet joined.
pub(crate) struct SeedJob(Arc<Batch>);

/// Waits until `batch` completes or stalls; true means stalled.
///
/// The dispatcher has already drained everything it could claim, so the
/// only open items are claims held by workers. A healthy worker finishes
/// its claim in far less than a window; [`STALL_WINDOWS`] consecutive
/// windows where not a single item completes mean a claim died with its
/// worker and will never finish on its own.
fn wait_for_batch(batch: &Batch) -> bool {
    let mut done = lock_recover(&batch.done);
    let mut last_pending = batch.pending.load(Ordering::Acquire);
    let mut idle_windows = 0u32;
    while !*done {
        let (guard, _timeout) = batch
            .done_cv
            .wait_timeout(done, STALL_WINDOW)
            .unwrap_or_else(PoisonError::into_inner);
        done = guard;
        if *done {
            break;
        }
        let pending = batch.pending.load(Ordering::Acquire);
        if pending == last_pending {
            idle_windows += 1;
            if idle_windows >= STALL_WINDOWS {
                return true;
            }
        } else {
            idle_windows = 0;
            last_pending = pending;
        }
    }
    false
}

/// FNV-1a over the allocation's genes — the memo key.
///
/// Probing by a 64-bit hash (with full-equality confirmation on the
/// collision chain) replaces hashing the whole `Vec<u32>` through SipHash
/// on every lookup; the same hash keys the within-generation dedup maps.
fn alloc_hash(a: &Allocation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &gene in a.as_slice() {
        h ^= gene as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Keys are already FNV-mixed 64-bit hashes — pass them straight through
/// instead of re-hashing with SipHash.
#[derive(Default)]
struct PassthroughHasher(u64);

impl std::hash::Hasher for PassthroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type Passthrough = BuildHasherDefault<PassthroughHasher>;

/// Memoizing front end of the evaluation engine.
///
/// Keyed by a 64-bit allocation hash with full-equality confirmation. Only
/// *completed* evaluations are memoized across generations (a rejection
/// proves nothing about other cutoffs); a hit decides accept/reject from
/// the stored `reject_key` with the mapper's exact test
/// ([`BoundedEval::decide`]), so hits and misses are bit-for-bit
/// interchangeable.
///
/// A generation's offspring stream through the engine in chunks:
/// [`Self::submit`] answers what it can from the memo, dedups the rest
/// against the whole generation so far and hands the misses to the pool
/// without waiting; [`Self::collect`] answers the oldest chunk still in
/// flight. [`Self::evaluate`] is the one-chunk case. With no workers the
/// pool computes each chunk at submission, so the chunk schedule, and
/// every count, is the same at every worker count.
pub struct FitnessEngine<'p, 'env, R: Recorder = NoopRecorder> {
    pool: &'p mut EvalPool<'env, R>,
    /// Completed evaluations; every entry is a [`BoundedEval::Complete`].
    cache: HashMap<u64, Vec<(Allocation, BoundedEval)>, Passthrough>,
    /// Allocations [`Self::eval_offspring`] rejected at this generation's
    /// cutoff, as (hash, start of their genes in `gen_rejected_genes`).
    /// [`Self::begin_generation`] empties both without freeing, so a
    /// rejection costs no allocation.
    gen_rejected: Vec<(u64, usize)>,
    gen_rejected_genes: Vec<u32>,
    /// This generation's submitted chunks, oldest first; the first
    /// `collected` are answered.
    chunks: Vec<Chunk>,
    collected: usize,
    /// This generation's first miss of each allocation hash, as (chunk,
    /// item in its batch): a later duplicate is answered from the same
    /// evaluation. (An allocation whose hash collides with a different
    /// one's is evaluated again.)
    gen_misses: HashMap<u64, (u32, u32), Passthrough>,
    cache_entries: usize,
    hits: u64,
    misses: u64,
}

/// One submitted chunk of a generation's offspring.
struct Chunk {
    cutoff: f64,
    /// One per offspring, in order.
    answers: Vec<Answer>,
    /// The chunk's misses, with their hashes; `None` when the memo and
    /// earlier chunks answered everything.
    batch: Option<(Arc<Batch>, Vec<u64>)>,
}

/// Where an offspring's fitness comes from.
#[derive(Clone, Copy)]
enum Answer {
    /// The memo decided it at submission.
    Memo(Option<f64>),
    /// The generation's evaluation of the same allocation — its chunk's
    /// own or an earlier chunk's — decided at this chunk's cutoff.
    Evaluation { chunk: u32, item: u32 },
}

impl<'p, 'env, R: Recorder> FitnessEngine<'p, 'env, R> {
    /// Wraps `pool` with an empty cache. The engine counts its hits and
    /// misses in [`Self::counters`]; only the pool's latency and batch
    /// telemetry flows into the pool's recorder as it happens.
    pub fn new(pool: &'p mut EvalPool<'env, R>) -> Self {
        FitnessEngine {
            pool,
            cache: HashMap::default(),
            gen_rejected: Vec::new(),
            gen_rejected_genes: Vec::new(),
            chunks: Vec::new(),
            collected: 0,
            gen_misses: HashMap::default(),
            cache_entries: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn cache_probe(&self, hash: u64, a: &Allocation) -> Option<BoundedEval> {
        self.cache
            .get(&hash)?
            .iter()
            .find(|(k, _)| k == a)
            .map(|&(_, c)| c)
    }

    /// Memoizes a completed outcome and returns its fitness (`None` =
    /// rejected, which is not memoized).
    fn absorb(&mut self, hash: u64, alloc: &Allocation, outcome: BoundedEval) -> Option<f64> {
        let BoundedEval::Complete { makespan, .. } = outcome else {
            return None;
        };
        let chain = self.cache.entry(hash).or_default();
        if !chain.iter().any(|(k, _)| k == alloc) {
            chain.push((alloc.clone(), outcome));
            self.cache_entries += 1;
        }
        Some(makespan)
    }

    /// Starts a new generation: forgets which allocations were rejected at
    /// the previous generation's cutoff (the new cutoff may accept them)
    /// and ends the previous generation's offspring stream.
    pub fn begin_generation(&mut self) {
        self.gen_rejected.clear();
        self.gen_rejected_genes.clear();
        self.end_stream();
    }

    /// Forgets the chunks of the current stream (collected or not).
    pub(crate) fn end_stream(&mut self) {
        self.chunks.clear();
        self.collected = 0;
        self.gen_misses.clear();
    }

    /// Bounded fitness of every allocation (`None` = rejected), positional:
    /// a stream of one chunk of its own, so no chunk may be in flight.
    ///
    /// Duplicates — across generations via the cache, and within the batch
    /// — are evaluated once; each allocation counts as exactly one cache
    /// hit or miss.
    pub fn evaluate(&mut self, allocs: &[Allocation], cutoff: f64) -> Vec<Option<f64>> {
        assert_eq!(self.in_flight(), 0, "evaluate runs outside a chunk stream");
        self.end_stream();
        self.submit(allocs, cutoff);
        let results = self.collect().expect("the chunk just submitted");
        self.end_stream();
        results
    }

    /// Hands the next chunk of this generation's offspring to the pool at
    /// `cutoff`, without waiting for it.
    ///
    /// Memo hits are decided here; an allocation the generation already
    /// submitted is answered from that evaluation, at this chunk's cutoff;
    /// the rest are the chunk's misses. Each allocation counts as exactly
    /// one hit or miss. Cutoffs must not grow within a generation: a
    /// duplicate of an offspring rejected in an earlier chunk is then
    /// rejected here too, exactly as a fresh evaluation would be.
    pub fn submit(&mut self, allocs: &[Allocation], cutoff: f64) {
        if let Some(last) = self.chunks.last() {
            assert!(
                cutoff <= last.cutoff,
                "chunk cutoffs must not grow within a generation"
            );
        }
        let k = self.chunks.len() as u32;
        let mut answers = Vec::with_capacity(allocs.len());
        let mut misses: Vec<Allocation> = Vec::with_capacity(allocs.len());
        let mut hashes: Vec<u64> = Vec::with_capacity(allocs.len());
        for a in allocs {
            let h = alloc_hash(a);
            if let Some(c) = self.cache_probe(h, a) {
                answers.push(Answer::Memo(c.decide(cutoff)));
                self.hits += 1;
                continue;
            }
            let earlier = self.gen_misses.get(&h).copied().filter(|&(c, i)| {
                let seen = if c == k {
                    &misses[i as usize]
                } else {
                    &self.batch_of(c).allocs()[i as usize]
                };
                seen == a
            });
            if let Some((chunk, item)) = earlier {
                answers.push(Answer::Evaluation { chunk, item });
                self.hits += 1;
            } else {
                let item = misses.len() as u32;
                self.gen_misses.entry(h).or_insert((k, item));
                answers.push(Answer::Evaluation { chunk: k, item });
                misses.push(a.clone());
                hashes.push(h);
                self.misses += 1;
            }
        }
        let batch = (!misses.is_empty()).then(|| {
            let work = Work::Evaluate {
                results: misses.iter().map(|_| OnceLock::new()).collect(),
                allocs: misses,
                cutoff,
            };
            (self.pool.submit(work), hashes)
        });
        self.chunks.push(Chunk {
            cutoff,
            answers,
            batch,
        });
    }

    /// Answers the oldest chunk still in flight (`None` when none is):
    /// bounded fitness of each of its allocations, positional. Completed
    /// evaluations join the memo.
    pub fn collect(&mut self) -> Option<Vec<Option<f64>>> {
        let k = self.collected;
        let chunk = self.chunks.get_mut(k)?;
        self.collected += 1;
        if let Some((batch, hashes)) = chunk.batch.take() {
            self.pool.collect(&batch);
            for (i, &h) in hashes.iter().enumerate() {
                self.absorb(h, &batch.allocs()[i], batch.outcome(i));
            }
            self.chunks[k].batch = Some((batch, hashes));
        }
        let chunk = &self.chunks[k];
        Some(
            chunk
                .answers
                .iter()
                .map(|answer| match *answer {
                    Answer::Memo(fitness) => fitness,
                    Answer::Evaluation { chunk: c, item } => {
                        self.batch_of(c).outcome(item as usize).decide(chunk.cutoff)
                    }
                })
                .collect(),
        )
    }

    /// The batch of this generation's chunk `c`, which had misses.
    fn batch_of(&self, c: u32) -> &Batch {
        let (batch, _) = self.chunks[c as usize]
            .batch
            .as_ref()
            .expect("a chunk with misses has a batch");
        batch
    }

    /// Chunks submitted and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.chunks.len() - self.collected
    }

    /// One unbounded evaluation of `alloc`, for a parent that
    /// [`Self::eval_offspring`] later replays no-op offspring against.
    /// Touches neither the memo nor the hit/miss counters.
    ///
    /// Kept for the benchmark's layer-by-layer EA replay
    /// (`examples/benchmark/src/replay.rs`), its one caller.
    #[doc(hidden)]
    pub fn record(&mut self, alloc: &Allocation) -> Arc<BoundedEval> {
        Arc::new(self.pool.eval_inline(alloc, f64::INFINITY))
    }

    /// Bounded fitness of one offspring (`None` = rejected at `cutoff`),
    /// bit-identical to [`Self::evaluate`] on the same input.
    ///
    /// `changed` lists the genes where `child` differs from the parent
    /// whose [`Self::record`] is `parent` (as reported by
    /// [`crate::MutationOperator::mutate`]). Cheapest answer first: an
    /// empty `changed` replays the parent's outcome; then the memo and
    /// this generation's rejection set; then one bounded evaluation on the
    /// caller's scratch. Every offspring counts as exactly one cache hit or
    /// miss; only the last step is a miss.
    ///
    /// Kept for the benchmark's layer-by-layer EA replay
    /// (`examples/benchmark/src/replay.rs`), its one caller.
    #[doc(hidden)]
    pub fn eval_offspring(
        &mut self,
        parent: Option<&BoundedEval>,
        child: &Allocation,
        changed: &[TaskId],
        cutoff: f64,
    ) -> Option<f64> {
        let rec = self.pool.recorder();
        let h = alloc_hash(child);
        let replay = match parent {
            Some(p) if changed.is_empty() => Some(p.decide(cutoff)),
            _ => self.cache_probe(h, child).map(|c| c.decide(cutoff)),
        };
        let genes = child.as_slice();
        let replay = replay.or_else(|| {
            self.gen_rejected
                .iter()
                .any(|&(k, at)| k == h && self.gen_rejected_genes[at..at + genes.len()] == *genes)
                .then_some(None)
        });
        if let Some(fitness) = replay {
            self.hits += 1;
            return fitness;
        }
        self.misses += 1;
        let eval_start = if R::ENABLED {
            // lint:allow(src-timing) -- recorder phase accounting.
            Some(Instant::now())
        } else {
            None
        };
        let outcome = self.pool.eval_inline(child, cutoff);
        if let Some(t) = eval_start {
            rec.latency("pool.eval_seconds", t.elapsed().as_secs_f64());
        }
        let fitness = self.absorb(h, child, outcome);
        if fitness.is_none() {
            // A miss, so `child` is not in the set yet.
            self.gen_rejected.push((h, self.gen_rejected_genes.len()));
            self.gen_rejected_genes.extend_from_slice(genes);
        }
        fitness
    }

    /// The engine's counts so far: memo hits and misses and the pool's
    /// failure counts.
    pub fn counters(&self) -> FitnessCounters {
        FitnessCounters {
            hits: self.hits,
            misses: self.misses,
            ..self.pool.counters()
        }
    }

    /// Evaluations answered from the cache (including in-batch
    /// duplicates).
    pub fn cache_hits(&self) -> usize {
        self.hits as usize
    }

    /// Evaluations that ran the mapper.
    pub fn cache_misses(&self) -> usize {
        self.misses as usize
    }

    /// Distinct completed allocations currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache_entries
    }

    /// Pool health: worker incarnations respawned after an uncontained
    /// panic.
    pub fn pool_respawns(&self) -> u64 {
        self.pool.counters().respawns
    }

    /// Pool health: batch items re-evaluated serially on the caller after
    /// the pool failed to produce them.
    pub fn serial_fallbacks(&self) -> u64 {
        self.pool.counters().serial_fallbacks
    }

    /// True when a worker-backed pool has no live worker. Workers restart
    /// in place after a panic, so this stays false while the pool lives.
    ///
    /// Kept for the benchmark's layer-by-layer EA replay
    /// (`examples/benchmark/src/replay.rs`), its one caller.
    #[doc(hidden)]
    pub fn pool_degraded(&self) -> bool {
        self.pool.workers() > 0 && self.pool.live_workers() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::{SyntheticModel, TimeMatrix};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sched::Mapper as _;
    use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

    fn setup() -> (Ptg, TimeMatrix, Vec<Allocation>) {
        let params = DaggenParams {
            n: 50,
            width: 0.5,
            regularity: 0.8,
            density: 0.5,
            jump: 2,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, 120);
        let allocs: Vec<Allocation> = (0..23)
            .map(|_| Allocation::from_vec((0..50).map(|_| rng.gen_range(1..=120)).collect()))
            .collect();
        (g, m, allocs)
    }

    /// The per-processor oracle's fitness of every allocation at `cutoff`.
    fn reference(g: &Ptg, m: &TimeMatrix, allocs: &[Allocation], cutoff: f64) -> Vec<Option<f64>> {
        allocs
            .iter()
            .map(|a| ListScheduler.makespan_bounded_reference(g, m, a, cutoff))
            .collect()
    }

    fn fitness(outcomes: Vec<BoundedEval>) -> Vec<Option<f64>> {
        outcomes.iter().map(|o| o.decide(f64::INFINITY)).collect()
    }

    fn median_makespan(g: &Ptg, m: &TimeMatrix, allocs: &[Allocation]) -> f64 {
        let mut sorted: Vec<f64> = reference(g, m, allocs, f64::INFINITY)
            .into_iter()
            .flatten()
            .collect();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let (g, m, _) = setup();
        EvalPool::with_workers(&g, &m, 2, &NoopRecorder, |pool| {
            assert!(pool.run_batch(Vec::new(), f64::INFINITY).is_empty());
        });
    }

    #[test]
    fn pool_matches_the_oracle_with_and_without_cutoff() {
        let (g, m, allocs) = setup();
        let cutoff = median_makespan(&g, &m, &allocs);
        for workers in [0, 2] {
            for c in [f64::INFINITY, cutoff] {
                let pooled = EvalPool::with_workers(&g, &m, workers, &NoopRecorder, |pool| {
                    fitness(pool.run_batch(allocs.clone(), c))
                });
                assert_eq!(
                    reference(&g, &m, &allocs, c),
                    pooled,
                    "workers={workers} cutoff={c}"
                );
            }
        }
        // The chosen cutoff must actually reject part of the batch.
        let bounded = reference(&g, &m, &allocs, cutoff);
        let rejected = bounded.iter().filter(|f| f.is_none()).count();
        assert!(rejected > 0 && rejected < allocs.len());
    }

    #[test]
    fn pool_reuses_workers_across_batches() {
        let (g, m, allocs) = setup();
        let expected = reference(&g, &m, &allocs, f64::INFINITY);
        EvalPool::with(&g, &m, true, |pool| {
            for _ in 0..3 {
                assert_eq!(
                    expected,
                    fitness(pool.run_batch(allocs.clone(), f64::INFINITY))
                );
            }
        });
    }

    #[test]
    fn engine_cache_hits_return_identical_values() {
        let (g, m, allocs) = setup();
        let expected = reference(&g, &m, &allocs, f64::INFINITY);
        EvalPool::with(&g, &m, false, |pool| {
            let mut engine = FitnessEngine::new(pool);
            let first = engine.evaluate(&allocs, f64::INFINITY);
            assert_eq!(engine.cache_misses(), allocs.len());
            assert_eq!(engine.cache_hits(), 0);
            let second = engine.evaluate(&allocs, f64::INFINITY);
            assert_eq!(engine.cache_hits(), allocs.len());
            assert_eq!(first, second);
            assert_eq!(first, expected);
        });
    }

    #[test]
    fn engine_cached_rejection_decisions_match_fresh_evaluation() {
        let (g, m, allocs) = setup();
        let cutoff = median_makespan(&g, &m, &allocs);
        EvalPool::with(&g, &m, false, |pool| {
            let mut engine = FitnessEngine::new(pool);
            // Warm the cache with completions (infinite cutoff), then query
            // at a tight cutoff: every answer must come from the cache and
            // equal the oracle's decision.
            let _ = engine.evaluate(&allocs, f64::INFINITY);
            let misses_before = engine.cache_misses();
            let cached = engine.evaluate(&allocs, cutoff);
            assert_eq!(engine.cache_misses(), misses_before, "all hits expected");
            assert_eq!(cached, reference(&g, &m, &allocs, cutoff));
        });
    }

    #[test]
    fn engine_deduplicates_within_a_batch() {
        let (g, m, allocs) = setup();
        let mut dup = allocs.clone();
        dup.extend(allocs.iter().take(5).cloned());
        EvalPool::with(&g, &m, false, |pool| {
            let mut engine = FitnessEngine::new(pool);
            let results = engine.evaluate(&dup, f64::INFINITY);
            assert_eq!(engine.cache_misses(), allocs.len());
            assert_eq!(engine.cache_hits(), 5);
            for i in 0..5 {
                assert_eq!(results[i], results[allocs.len() + i]);
            }
        });
    }

    #[test]
    fn rejected_evaluations_are_not_cached() {
        let (g, m, allocs) = setup();
        let cutoff = median_makespan(&g, &m, &allocs);
        EvalPool::with(&g, &m, false, |pool| {
            let mut engine = FitnessEngine::new(pool);
            let bounded = engine.evaluate(&allocs, cutoff);
            let completed = bounded.iter().filter(|f| f.is_some()).count();
            assert_eq!(engine.cache_len(), completed);
        });
    }

    #[test]
    fn alloc_hash_distinguishes_permutations_and_neighbors() {
        let a = Allocation::from_vec(vec![1, 2, 3, 4]);
        let b = Allocation::from_vec(vec![4, 3, 2, 1]);
        let c = Allocation::from_vec(vec![1, 2, 3, 5]);
        assert_ne!(alloc_hash(&a), alloc_hash(&b));
        assert_ne!(alloc_hash(&a), alloc_hash(&c));
        assert_eq!(alloc_hash(&a), alloc_hash(&a.clone()));
    }

    #[test]
    fn noop_offspring_replays_parent_decision_as_a_hit() {
        let (g, m, allocs) = setup();
        let parent = allocs[0].clone();
        let ms = ListScheduler.makespan(&g, &m, &parent);
        EvalPool::with(&g, &m, false, |pool| {
            let mut engine = FitnessEngine::new(pool);
            let record = engine.record(&parent);
            assert_eq!(engine.cache_hits() + engine.cache_misses(), 0);
            let got = engine.eval_offspring(Some(&record), &parent, &[], f64::INFINITY);
            assert_eq!(got.map(f64::to_bits), Some(ms.to_bits()));
            assert_eq!(engine.cache_hits(), 1);
            assert_eq!(engine.cache_misses(), 0);
            // At a cutoff below the parent's makespan the replay rejects.
            assert_eq!(
                engine.eval_offspring(Some(&record), &parent, &[], ms * 0.5),
                None
            );
        });
    }

    #[test]
    fn within_generation_rejections_are_deduped_until_the_next_generation() {
        let (g, m, allocs) = setup();
        let parent = allocs[0].clone();
        let ms = ListScheduler.makespan(&g, &m, &parent);
        // A clearly-worse child: stretch one gene, screen far below parent.
        let mut child = parent.clone();
        let t0 = ptg::TaskId(0);
        child.set(t0, if parent.of(t0) == 120 { 1 } else { 120 });
        let cutoff = ms * 0.1;
        EvalPool::with(&g, &m, false, |pool| {
            let mut engine = FitnessEngine::new(pool);
            let record = engine.record(&parent);
            engine.begin_generation();
            assert_eq!(
                engine.eval_offspring(Some(&record), &child, &[t0], cutoff),
                None
            );
            let misses_after_first = engine.cache_misses();
            // Same offspring again in the same generation: a hit, no eval.
            assert_eq!(
                engine.eval_offspring(Some(&record), &child, &[t0], cutoff),
                None
            );
            assert_eq!(engine.cache_misses(), misses_after_first);
            assert_eq!(engine.cache_hits(), 1);
            // Next generation may have a different cutoff: re-evaluated.
            engine.begin_generation();
            assert_eq!(
                engine.eval_offspring(Some(&record), &child, &[t0], f64::INFINITY),
                Some(ListScheduler.makespan(&g, &m, &child))
            );
            assert_eq!(engine.cache_misses(), misses_after_first + 1);
        });
    }

    /// Serializes the sabotage-hook tests (the hooks are process-global).
    fn sabotage_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_recover(&LOCK)
    }

    #[test]
    fn worker_panics_are_contained_and_results_stay_exact() {
        let (g, m, allocs) = setup();
        let expected = reference(&g, &m, &allocs, f64::INFINITY);
        let _serial = sabotage_guard();
        // Every worker evaluation panics; the caller's own drain is
        // unaffected, so each batch must still come back complete and
        // bit-identical — panicked items refilled serially.
        sabotage::arm_eval_panics(u64::MAX);
        EvalPool::with_workers(&g, &m, 2, &NoopRecorder, |pool| {
            for round in 0..200 {
                let got = fitness(pool.run_batch(allocs.clone(), f64::INFINITY));
                assert_eq!(expected, got, "round {round}");
                if pool.counters().worker_panics > 0 {
                    break;
                }
            }
            assert!(
                pool.counters().worker_panics > 0,
                "workers never claimed an item in 200 batches"
            );
            assert_eq!(
                pool.counters().worker_panics,
                pool.counters().serial_fallbacks,
                "every panicked item must be refilled by the caller"
            );
            assert_eq!(pool.live_workers(), 2, "contained panics kill no worker");
            assert_eq!(pool.counters().respawns, 0);
        });
        sabotage::disarm();
    }

    #[test]
    fn dead_worker_stalls_the_batch_and_the_caller_recovers() {
        let (g, m, allocs) = setup();
        let expected = reference(&g, &m, &allocs, f64::INFINITY);
        let _serial = sabotage_guard();
        sabotage::arm_worker_deaths(1);
        EvalPool::with_workers(&g, &m, 2, &NoopRecorder, |pool| {
            for round in 0..200 {
                let got = fitness(pool.run_batch(allocs.clone(), f64::INFINITY));
                assert_eq!(expected, got, "round {round}");
                if pool.counters().respawns > 0 {
                    break;
                }
            }
            assert_eq!(
                pool.counters().respawns,
                1,
                "the dead incarnation must respawn"
            );
            assert!(
                pool.counters().serial_fallbacks >= 1,
                "the orphaned claim must be refilled by the caller"
            );
            assert!(
                matches!(pool.last_error(), Some(PoolError::Stalled { missing }) if missing >= 1),
                "expected a stall, got {:?}",
                pool.last_error()
            );
            assert_eq!(pool.live_workers(), 2, "respawn restores full strength");
            // The pool keeps serving batches after the incident.
            assert_eq!(
                expected,
                fitness(pool.run_batch(allocs.clone(), f64::INFINITY))
            );
        });
        sabotage::disarm();
    }

    #[test]
    fn pool_error_messages_are_one_line() {
        let d = PoolError::Disconnected.to_string();
        let s = PoolError::Stalled { missing: 3 }.to_string();
        assert!(!d.contains('\n') && !s.contains('\n'));
        assert!(s.contains('3'));
    }

    #[test]
    fn forced_worker_count_matches_serial_results() {
        let (g, m, allocs) = setup();
        let expected = reference(&g, &m, &allocs, f64::INFINITY);
        let _serial = sabotage_guard(); // results are sabotage-sensitive
        for workers in [1, 3] {
            let got = EvalPool::with_workers(&g, &m, workers, &NoopRecorder, |pool| {
                assert_eq!(pool.workers(), workers);
                assert_eq!(pool.live_workers(), workers);
                fitness(pool.run_batch(allocs.clone(), f64::INFINITY))
            });
            assert_eq!(expected, got, "workers={workers}");
        }
    }

    #[test]
    fn offspring_and_batch_paths_share_the_memo() {
        let (g, m, allocs) = setup();
        let parent = allocs[0].clone();
        EvalPool::with(&g, &m, false, |pool| {
            let mut engine = FitnessEngine::new(pool);
            let record = engine.record(&parent);
            let mut child = parent.clone();
            child.set(ptg::TaskId(3), 7);
            let via_offspring =
                engine.eval_offspring(Some(&record), &child, &[ptg::TaskId(3)], f64::INFINITY);
            assert_eq!(engine.cache_misses(), 1);
            // The batch path must now answer the same allocation from cache.
            let via_batch = engine.evaluate(std::slice::from_ref(&child), f64::INFINITY);
            assert_eq!(engine.cache_misses(), 1, "expected a memo hit");
            assert_eq!(
                via_batch[0].map(f64::to_bits),
                via_offspring.map(f64::to_bits)
            );
        });
    }
}
