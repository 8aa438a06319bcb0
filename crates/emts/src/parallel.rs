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
//!   over a channel, instead of a fresh thread scope per generation,
//! * [`FitnessEngine`] — a memo cache in front of the pool keyed by the
//!   allocation vector: plus-selection and the shrinking mutation operator
//!   frequently reproduce earlier individuals, and a cached individual
//!   skips the mapper entirely.
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
//! mapper is deterministic, so a re-evaluated item is bit-identical):
//!
//! 1. **Per-item containment** — each worker evaluation runs under
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
//!    item and finishing it), the caller evaluates every missing item
//!    itself and the run continues.
//!
//! Lock poisoning is recovered rather than propagated: every mutex here
//! protects state that is consistent at all times (a `bool`, a channel
//! receiver), so clearing the poison is correct — see `lock_recover`.

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

/// One batch of evaluations shared between the pool's workers.
///
/// Workers claim indices with an atomic counter, so items are never
/// evaluated twice and results land positionally no matter which worker
/// takes which item.
struct Batch {
    allocs: Vec<Allocation>,
    cutoff: f64,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// One write-once slot per allocation.
    results: Vec<OnceLock<BoundedEval>>,
    /// Items not yet finished; the worker that finishes the last one flags
    /// `done`.
    pending: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// Claims and evaluates items from `batch` until none remain.
///
/// Worker threads pass `Some(core)`, which turns on ring-1 containment:
/// the evaluation runs under `catch_unwind`, and a panicking item merely
/// leaves its result slot empty (counted in `pool.worker_panics`; the
/// scratch, possibly mid-update when the unwind hit, is rebuilt). The
/// calling thread passes `None` and evaluates bare — a panic there is the
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
    loop {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        if i >= batch.allocs.len() {
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
        let eval_start = if R::ENABLED {
            // lint:allow(src-timing) -- recorder phase accounting.
            Some(Instant::now())
        } else {
            None
        };
        let outcome = if let Some(core) = core {
            // AssertUnwindSafe: on Err the scratch (the only &mut crossing
            // the boundary) is discarded wholesale, never observed torn.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if sabotage::eval_should_panic() {
                    // lint:allow(src-panic-reach) -- deliberate fault injection; caught by the per-item catch_unwind
                    panic!("sabotage: poisoned allocation");
                }
                ListScheduler.evaluate_bounded_obs(
                    g,
                    matrix,
                    &batch.allocs[i],
                    batch.cutoff,
                    scratch,
                    rec,
                )
            }));
            match attempt {
                Ok(outcome) => Some(outcome),
                Err(_) => {
                    core.panics.fetch_add(1, Ordering::Relaxed);
                    if R::ENABLED {
                        rec.add("pool.worker_panics", 1);
                    }
                    *scratch = EvalScratch::with_capacity(g.task_count(), matrix.p_max());
                    None
                }
            }
        } else {
            Some(ListScheduler.evaluate_bounded_obs(
                g,
                matrix,
                &batch.allocs[i],
                batch.cutoff,
                scratch,
                rec,
            ))
        };
        if let Some(t) = eval_start {
            rec.latency("pool.eval_seconds", t.elapsed().as_secs_f64());
        }
        if let Some(outcome) = outcome {
            // May lose a race against the dispatcher's fallback fill of
            // the same slot; both compute the same value, so first wins.
            let _ = batch.results[i].set(outcome);
        }
        if batch.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock_recover(&batch.done) = true;
            batch.done_cv.notify_all();
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
                if R::ENABLED {
                    rec.add("pool.respawns", 1);
                }
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
/// per-worker busy-time distribution), and its batch count into
/// `pool.worker_batches`. An incarnation that dies mid-batch loses its
/// unflushed telemetry — an accepted imprecision of the failure path.
///
/// The whole incarnation is one `pool.worker` trace span, so every worker
/// thread has its own flight-recorder lane before the pool joins, even one
/// that never wins a batch item.
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
                // Thread-local span: one `pool.batch` interval per drained
                // batch on this worker's flight-recorder lane.
                let batch_span = rec.trace_span("pool.batch");
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
/// run), each owning one [`EvalScratch`], fed whole generations as batches
/// over a channel.
///
/// The calling thread participates in every batch with its own scratch, so
/// a pool with zero workers degenerates to plain serial evaluation — that
/// is also the configuration chosen when `parallel` is off.
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

    /// Evaluations that panicked inside a worker and were contained
    /// (ring 1): the affected items were re-evaluated on the caller.
    pub fn worker_panics(&self) -> u64 {
        self.core.map_or(0, |c| c.panics.load(Ordering::Relaxed))
    }

    /// Worker incarnations restarted after an uncontained panic (ring 2).
    pub fn respawns(&self) -> u64 {
        self.core.map_or(0, |c| c.respawns.load(Ordering::Relaxed))
    }

    /// Batch items the caller re-evaluated serially because the pool
    /// failed to produce them (panicked evaluations, stalled claims).
    pub fn serial_fallbacks(&self) -> u64 {
        self.serial_fallbacks
    }

    /// The most recent degradation the dispatcher recovered from, if any.
    pub fn last_error(&self) -> Option<PoolError> {
        self.last_error
    }

    /// The recorder this pool reports into.
    pub fn recorder(&self) -> &'env REC {
        self.rec
    }

    /// Evaluates one allocation on the caller's scratch, with no
    /// telemetry beyond the scheduler's own counters.
    fn eval_inline(&mut self, alloc: &Allocation, cutoff: f64) -> BoundedEval {
        ListScheduler.evaluate_bounded_obs(
            self.g,
            self.matrix,
            alloc,
            cutoff,
            &mut self.scratch,
            self.rec,
        )
    }

    /// Evaluates every allocation under `cutoff`; results are positional.
    pub fn run_batch(&mut self, allocs: Vec<Allocation>, cutoff: f64) -> Vec<BoundedEval> {
        let n = allocs.len();
        if n == 0 {
            return Vec::new();
        }
        let tx = match &self.tx {
            // Serial mode, and tiny batches aren't worth the dispatch.
            Some(tx) if n >= 4 => tx,
            _ => {
                if REC::ENABLED {
                    self.rec.add("pool.batches", 1);
                    self.rec.add("pool.evals", n as u64);
                }
                return allocs
                    .iter()
                    .map(|a| {
                        let eval_start = if REC::ENABLED {
                            // lint:allow(src-timing) -- recorder phase accounting.
                            Some(Instant::now())
                        } else {
                            None
                        };
                        let outcome = self.eval_inline(a, cutoff);
                        if let Some(t) = eval_start {
                            self.rec
                                .latency("pool.eval_seconds", t.elapsed().as_secs_f64());
                        }
                        outcome
                    })
                    .collect();
            }
        };
        let dispatch_start = if REC::ENABLED {
            // lint:allow(src-timing) -- recorder phase accounting.
            Some(Instant::now())
        } else {
            None
        };
        let batch = Arc::new(Batch {
            allocs,
            cutoff,
            next: AtomicUsize::new(0),
            results: (0..n).map(|_| OnceLock::new()).collect(),
            pending: AtomicUsize::new(n),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        // One handle per worker; a worker still busy with nothing (batches
        // are strictly sequential) picks its copy up immediately. A stale
        // copy that outlives its batch drains zero items and is discarded.
        let mut disconnected = false;
        for _ in 0..self.workers.min(n) {
            if tx.send(Arc::clone(&batch)).is_err() {
                // No receiver left — impossible while the scope lives, but
                // typed recovery keeps it an inconvenience: the caller
                // simply drains the whole batch itself below.
                disconnected = true;
                break;
            }
        }
        if disconnected {
            self.last_error = Some(PoolError::Disconnected);
        }
        let drain_start = if let Some(t) = dispatch_start {
            self.rec
                .phase_add("pool/dispatch", t.elapsed().as_secs_f64());
            // Timeline marker: a batch of `n` items was handed to the
            // workers.
            self.rec.event("pool.batch.dispatch", n as u64);
            // lint:allow(src-timing) -- recorder phase accounting.
            Some(Instant::now())
        } else {
            None
        };
        if !sabotage::caller_abstains() {
            drain_batch(
                self.g,
                self.matrix,
                &batch,
                &mut self.scratch,
                self.rec,
                None,
            );
        }
        if wait_for_batch(&batch) {
            let missing = batch.results.iter().filter(|s| s.get().is_none()).count();
            self.last_error = Some(PoolError::Stalled { missing });
        }
        // Fill every slot the workers failed to produce — items lost to a
        // contained panic (batch completed, slot empty) or to a stall.
        // The mapper is deterministic, so a refilled item is bit-identical
        // to what a healthy worker would have produced.
        let mut fallbacks = 0u64;
        for (i, slot) in batch.results.iter().enumerate() {
            if slot.get().is_some() {
                continue;
            }
            let _ = slot.set(self.eval_inline(&batch.allocs[i], cutoff));
            fallbacks += 1;
        }
        if fallbacks > 0 {
            self.serial_fallbacks += fallbacks;
            if REC::ENABLED {
                self.rec.add("pool.serial_fallbacks", fallbacks);
            }
        }
        if let Some(t) = drain_start {
            self.rec.phase_add("pool/drain", t.elapsed().as_secs_f64());
            self.rec.add("pool.batches", 1);
            self.rec.add("pool.evals", n as u64);
            // Timeline marker: every slot of the batch is filled.
            self.rec.event("pool.batch.complete", n as u64);
        }
        batch
            .results
            .iter()
            .map(|slot| {
                *slot
                    .get()
                    .expect("every slot is filled after the fallback pass")
            })
            .collect()
    }
}

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
/// interchangeable. [`Self::evaluate`] sends its misses through
/// [`EvalPool::run_batch`], which evaluates inline on the caller's scratch
/// when the pool has no workers.
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
    cache_entries: usize,
    hits: usize,
    misses: usize,
}

impl<'p, 'env, R: Recorder> FitnessEngine<'p, 'env, R> {
    /// Wraps `pool` with an empty cache. Telemetry (the `emts.cache.*`
    /// counters) flows into the pool's recorder.
    pub fn new(pool: &'p mut EvalPool<'env, R>) -> Self {
        FitnessEngine {
            pool,
            cache: HashMap::default(),
            gen_rejected: Vec::new(),
            gen_rejected_genes: Vec::new(),
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
    /// the previous generation's cutoff (the new cutoff may accept them).
    pub fn begin_generation(&mut self) {
        self.gen_rejected.clear();
        self.gen_rejected_genes.clear();
    }

    /// Bounded fitness of every allocation (`None` = rejected), positional.
    ///
    /// Duplicates — across generations via the cache, and within the batch
    /// via in-batch dedup — are evaluated once; each allocation counts as
    /// exactly one cache hit or miss.
    pub fn evaluate(&mut self, allocs: &[Allocation], cutoff: f64) -> Vec<Option<f64>> {
        let hashes: Vec<u64> = allocs.iter().map(alloc_hash).collect();
        let mut results: Vec<Option<f64>> = vec![None; allocs.len()];
        let mut first_seen: HashMap<u64, Vec<usize>, Passthrough> = HashMap::default();
        let mut miss_indices: Vec<usize> = Vec::new();
        let mut aliases: Vec<(usize, usize)> = Vec::new();
        for (i, a) in allocs.iter().enumerate() {
            let h = hashes[i];
            if let Some(c) = self.cache_probe(h, a) {
                results[i] = c.decide(cutoff);
            } else if let Some(&j) = first_seen
                .get(&h)
                .and_then(|chain| chain.iter().find(|&&j| allocs[j] == *a))
            {
                aliases.push((i, j));
            } else {
                first_seen.entry(h).or_default().push(i);
                miss_indices.push(i);
            }
        }
        let misses = miss_indices.len();
        self.hits += allocs.len() - misses;
        self.misses += misses;
        if R::ENABLED {
            let rec = self.pool.recorder();
            rec.add("emts.cache.hits", (allocs.len() - misses) as u64);
            rec.add("emts.cache.misses", misses as u64);
        }
        if misses > 0 {
            let batch: Vec<Allocation> = miss_indices.iter().map(|&i| allocs[i].clone()).collect();
            let outcomes = self.pool.run_batch(batch, cutoff);
            for (&i, outcome) in miss_indices.iter().zip(outcomes) {
                results[i] = self.absorb(hashes[i], &allocs[i], outcome);
            }
        }
        for (i, j) in aliases {
            results[i] = results[j];
        }
        results
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
            if R::ENABLED {
                rec.add("emts.cache.hits", 1);
            }
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
            rec.add("emts.cache.misses", 1);
        }
        let fitness = self.absorb(h, child, outcome);
        if fitness.is_none() {
            // A miss, so `child` is not in the set yet.
            self.gen_rejected.push((h, self.gen_rejected_genes.len()));
            self.gen_rejected_genes.extend_from_slice(genes);
        }
        fitness
    }

    /// Evaluations answered from the cache (including in-batch
    /// duplicates).
    pub fn cache_hits(&self) -> usize {
        self.hits
    }

    /// Evaluations that ran the mapper.
    pub fn cache_misses(&self) -> usize {
        self.misses
    }

    /// Distinct completed allocations currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache_entries
    }

    /// Pool health: worker evaluations that panicked and were contained.
    pub fn worker_panics(&self) -> u64 {
        self.pool.worker_panics()
    }

    /// Pool health: worker incarnations respawned after an uncontained
    /// panic.
    pub fn pool_respawns(&self) -> u64 {
        self.pool.respawns()
    }

    /// Pool health: batch items re-evaluated serially on the caller after
    /// the pool failed to produce them.
    pub fn serial_fallbacks(&self) -> u64 {
        self.pool.serial_fallbacks()
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
                if pool.worker_panics() > 0 {
                    break;
                }
            }
            assert!(
                pool.worker_panics() > 0,
                "workers never claimed an item in 200 batches"
            );
            assert_eq!(
                pool.worker_panics(),
                pool.serial_fallbacks(),
                "every panicked item must be refilled by the caller"
            );
            assert_eq!(pool.live_workers(), 2, "contained panics kill no worker");
            assert_eq!(pool.respawns(), 0);
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
                if pool.respawns() > 0 {
                    break;
                }
            }
            assert_eq!(pool.respawns(), 1, "the dead incarnation must respawn");
            assert!(
                pool.serial_fallbacks() >= 1,
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
