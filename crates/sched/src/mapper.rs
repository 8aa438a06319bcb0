//! The mapping step: placing allocated tasks onto processors.
//!
//! [`ListScheduler`] is the paper's mapping function ("the ready nodes are
//! sorted by decreasing bottom level and each ready node v is mapped to the
//! first processor set that contains s(v) available processors"), originally
//! from Radulescu & van Gemund's CPA. It doubles as the EA's fitness
//! function, so it has a makespan-only fast path that skips building the
//! placement lists and tracks processor availability as grouped runs (see
//! [`ListScheduler::makespan_bounded_with`] and `schedule_core_grouped`).
//!
//! [`InsertionScheduler`] is a backfilling variant that may start a task in
//! an earlier idle gap; the paper's future-work section motivates cheaper
//! mapping functions, and the ablation benches use this one to quantify what
//! insertion buys.

use crate::allocation::Allocation;
use crate::schedule::{Placement, Schedule};
use crate::soa_heap::{
    group_avail, group_count, group_entry, ready_entry, ready_task, MaxHeap128, MinHeap128,
};
use exec_model::TimeMatrix;
use obs::{NoopRecorder, Recorder};
use ptg::critpath::{bottom_levels, bottom_levels_into};
use ptg::{Ptg, TaskId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

thread_local! {
    /// Per-thread scratch behind the convenience entry points ([`Mapper::map`],
    /// [`Mapper::makespan`], [`ListScheduler::makespan_bounded`],
    /// [`ListScheduler::makespan_bounded_reference`]): after a thread's first
    /// call these paths reuse steady-state buffers instead of allocating a
    /// fresh [`EvalScratch`] per evaluation. Long-lived workers should still
    /// hold their own scratch and call the `_with` variants directly.
    static SHARED_SCRATCH: std::cell::RefCell<EvalScratch> =
        std::cell::RefCell::new(EvalScratch::new());
}

/// A mapping algorithm: allocation → schedule.
pub trait Mapper {
    /// Produces a full schedule (placements with processor indices).
    fn map(&self, g: &Ptg, matrix: &TimeMatrix, alloc: &Allocation) -> Schedule;

    /// The schedule's makespan only. Implementations may use a faster path;
    /// the default maps and measures.
    fn makespan(&self, g: &Ptg, matrix: &TimeMatrix, alloc: &Allocation) -> f64 {
        self.map(g, matrix, alloc).makespan()
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Priority-queue entry: larger bottom level first, then smaller task id.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReadyTask {
    pub(crate) bl: f64,
    pub(crate) task: TaskId,
}

impl Eq for ReadyTask {}

impl Ord for ReadyTask {
    // `#[inline]` on the heap comparators matters: the grouped fitness core
    // is generic over a recorder, so `BinaryHeap`'s sift loops monomorphize
    // in the *calling* crate — without the hint every comparison would be a
    // cross-crate call on the EA's hottest path.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: order by bl ascending so larger bl pops
        // first, and by *reversed* id so the smaller id pops first on ties.
        self.bl
            .partial_cmp(&other.bl)
            .expect("bottom levels are finite")
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for ReadyTask {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The paper's list scheduler (non-insertion, bottom-level priority).
///
/// ```
/// use exec_model::{Amdahl, TimeMatrix};
/// use ptg::PtgBuilder;
/// use sched::{Allocation, ListScheduler, Mapper};
///
/// let mut b = PtgBuilder::new();
/// let a = b.add_task("produce", 4e9, 0.0);
/// let c = b.add_task("consume", 4e9, 0.0);
/// b.add_edge(a, c).unwrap();
/// let g = b.build().unwrap();
///
/// let matrix = TimeMatrix::compute(&g, &Amdahl, 1e9, 4);
/// let alloc = Allocation::from_vec(vec![4, 2]);
/// let schedule = ListScheduler.map(&g, &matrix, &alloc);
/// // 4 s of work on 4 procs, then 4 s on 2 procs: 1 + 2 = 3 s.
/// assert_eq!(schedule.makespan(), 3.0);
/// // The fast path agrees exactly.
/// assert_eq!(ListScheduler.makespan(&g, &matrix, &alloc), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ListScheduler;

/// All per-evaluation buffers of the list scheduler, reusable across
/// evaluations.
///
/// The EA evaluates the mapping function thousands of times per run on
/// graphs of identical size; with a scratch carried between calls the whole
/// evaluation — time gather, bottom levels, ready queue, processor heap —
/// runs without touching the allocator (heaps and vectors are `clear()`ed,
/// which keeps their capacity). Create one per worker thread and pass it to
/// [`ListScheduler::makespan_bounded_with`].
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Per-task execution time under the current allocation.
    pub(crate) times: Vec<f64>,
    /// Per-task bottom level under the current allocation.
    pub(crate) bl: Vec<f64>,
    /// Remaining unscheduled predecessors per task.
    pub(crate) in_deg: Vec<u32>,
    /// Latest finish time over each task's scheduled predecessors.
    pub(crate) data_ready: Vec<f64>,
    /// Ready tasks by decreasing bottom level, as packed
    /// `(bl key, ¬task id)` entries (see [`crate::soa_heap`]) — the grouped
    /// fitness core's queue.
    pub(crate) ready: MaxHeap128,
    /// Old-style ready queue for the per-processor reference core, kept on
    /// the comparator-driven `BinaryHeap` so the oracle shares no queue
    /// implementation with the SoA fast path.
    ready_ref: BinaryHeap<ReadyTask>,
    /// Min-heap of `(free time, processor)` — used by the full mapper,
    /// which must report concrete processor indices.
    avail: BinaryHeap<Reverse<(OrderedF64, u32)>>,
    /// The processors popped for the task being placed (full mapper only).
    popped: Vec<(f64, u32)>,
    /// Min-heap of processor *groups* for the makespan-only core: every
    /// processor popped for a task gets the same finish time, so the heap
    /// can carry `(free time, count)` runs instead of `count` individual
    /// entries, packed as `(avail key, seq, count)` words. Heap traffic
    /// drops from `O(Σ s(v) log P)` to `O(V log V)` — the dominant cost
    /// for wide allocations.
    pub(crate) groups: MinHeap128,
}

impl EvalScratch {
    /// An empty scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for `tasks` tasks on `procs` processors, so even
    /// the first evaluation allocates nothing beyond this call.
    pub fn with_capacity(tasks: usize, procs: u32) -> Self {
        EvalScratch {
            times: Vec::with_capacity(tasks),
            bl: Vec::with_capacity(tasks),
            in_deg: Vec::with_capacity(tasks),
            data_ready: Vec::with_capacity(tasks),
            ready: MaxHeap128::with_capacity(tasks),
            ready_ref: BinaryHeap::with_capacity(tasks),
            avail: BinaryHeap::with_capacity(procs as usize),
            popped: Vec::with_capacity(procs as usize),
            groups: MinHeap128::with_capacity(tasks + 1),
        }
    }
}

/// Outcome of one bounded evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedEval {
    /// The schedule completed within the cutoff.
    Complete {
        /// The schedule's makespan.
        makespan: f64,
        /// `max_v (start(v) + bl(v))` over the complete schedule — the
        /// exact quantity the rejection test compares against the cutoff.
        /// Caching it alongside the makespan lets a memo layer reproduce
        /// the engine's accept/reject decision for *any* cutoff
        /// bit-for-bit without re-evaluating (see `emts`'s fitness cache).
        reject_key: f64,
    },
    /// Construction stopped early: some task's `start + bl` exceeded the
    /// cutoff.
    Rejected,
}

/// The value a rejection test compares `start + bl` against. The small
/// relative slack exists because `start + bl` can exceed the true makespan
/// by an ulp: the bottom level sums task times in a different order than
/// the schedule accumulates them, and a schedule exactly at the cutoff
/// must not be rejected.
#[inline]
fn reject_threshold(cutoff: f64) -> f64 {
    cutoff * (1.0 + 1e-9)
}

impl BoundedEval {
    /// The fitness this outcome yields under `cutoff` (`None` = rejected).
    /// For a completed evaluation the decision replays the cores' own
    /// rejection test on `reject_key`, so it is bit-identical to
    /// re-evaluating at `cutoff`; a rejection stays a rejection.
    #[inline]
    pub fn decide(&self, cutoff: f64) -> Option<f64> {
        match *self {
            BoundedEval::Complete {
                makespan,
                reject_key,
            } => (reject_key <= reject_threshold(cutoff)).then_some(makespan),
            BoundedEval::Rejected => None,
        }
    }
}

impl ListScheduler {
    /// Shared setup for the *allocating* mappers: per-task times, bottom
    /// levels, in-degrees and the ready queue seeded with the sources.
    /// (The list scheduler's own paths use [`EvalScratch`] instead.)
    fn prepare(
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
    ) -> (Vec<f64>, Vec<f64>, BinaryHeap<ReadyTask>, Vec<usize>) {
        assert_eq!(alloc.len(), g.task_count(), "allocation/PTG size mismatch");
        assert!(
            alloc.as_slice().iter().all(|&p| p <= matrix.p_max()),
            "allocation exceeds platform size"
        );
        let times = matrix.times_for(alloc.as_slice());
        let bl = bottom_levels(g, &times);
        let in_deg: Vec<usize> = g.task_ids().map(|v| g.in_degree(v)).collect();
        let mut ready = BinaryHeap::with_capacity(g.task_count());
        for v in g.task_ids() {
            if in_deg[v.index()] == 0 {
                ready.push(ReadyTask {
                    bl: bl[v.index()],
                    task: v,
                });
            }
        }
        (times, bl, ready, in_deg)
    }

    /// Resets `scratch`'s task-side buffers for an evaluation of `alloc` on
    /// `g`; no allocation once the buffers have reached steady-state
    /// capacity. In-degrees are one memcpy from the graph's CSR view. The
    /// queues are seeded by the placement cores themselves (each core owns
    /// its queue representation).
    // lint:hot-path
    pub(crate) fn prepare_into(
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        scratch: &mut EvalScratch,
    ) {
        assert_eq!(alloc.len(), g.task_count(), "allocation/PTG size mismatch");
        assert!(
            alloc.as_slice().iter().all(|&p| p <= matrix.p_max()),
            "allocation exceeds platform size"
        );
        matrix.fill_times(alloc.as_slice(), &mut scratch.times);
        bottom_levels_into(g, &scratch.times, &mut scratch.bl);
        scratch.in_deg.clear();
        scratch.in_deg.extend_from_slice(g.csr().in_degrees());
        scratch.data_ready.clear();
        scratch.data_ready.resize(g.task_count(), 0.0);
    }

    /// The per-processor placement routine behind [`Mapper::map`] (and the
    /// reference oracle for the grouped core below).
    ///
    /// Ready tasks pop by decreasing bottom level (ties toward the smaller
    /// task id); each takes the `s(v)` earliest-free processors from the
    /// min-heap — identical tie-breaking by processor index as a full sort
    /// of the availability vector, at O(s log P) instead of O(P log P) per
    /// task. `on_place` observes every placement `(task, start, finish,
    /// popped processors)`; the full mapper records placements there while
    /// the makespan-only reference passes a no-op.
    ///
    /// This core deliberately stays on the pre-refactor data structures —
    /// comparator-driven `BinaryHeap`s and the graph's pointer adjacency —
    /// so the bit-identity property tests pit two independent
    /// implementations against each other.
    #[inline]
    fn schedule_core<F>(
        g: &Ptg,
        alloc: &Allocation,
        p_max: u32,
        cutoff: f64,
        scratch: &mut EvalScratch,
        mut on_place: F,
    ) -> BoundedEval
    where
        F: FnMut(TaskId, f64, f64, &[(f64, u32)]),
    {
        let threshold = reject_threshold(cutoff);
        let mut makespan = 0.0f64;
        let mut reject_key = 0.0f64;
        scratch.ready_ref.clear();
        for v in g.task_ids() {
            if scratch.in_deg[v.index()] == 0 {
                scratch.ready_ref.push(ReadyTask {
                    bl: scratch.bl[v.index()],
                    task: v,
                });
            }
        }
        scratch.avail.clear();
        for q in 0..p_max {
            scratch.avail.push(Reverse((OrderedF64(0.0), q)));
        }

        while let Some(ReadyTask { task: v, .. }) = scratch.ready_ref.pop() {
            let s = alloc.of(v) as usize;
            scratch.popped.clear();
            for _ in 0..s {
                let Reverse((OrderedF64(free), q)) =
                    scratch.avail.pop().expect("alloc ≤ P ensured by prepare");
                scratch.popped.push((free, q));
            }
            let procs_free = scratch.popped.last().expect("s ≥ 1").0;
            let start = scratch.data_ready[v.index()].max(procs_free);
            // Rejection test: everything on v's bottom-level path still has
            // to run after `start`, so the final makespan is at least
            // `start + bl(v)`.
            let lower_bound = start + scratch.bl[v.index()];
            if lower_bound > threshold {
                return BoundedEval::Rejected;
            }
            reject_key = reject_key.max(lower_bound);
            let finish = start + scratch.times[v.index()];
            for i in 0..s {
                let q = scratch.popped[i].1;
                scratch.avail.push(Reverse((OrderedF64(finish), q)));
            }
            makespan = makespan.max(finish);
            on_place(v, start, finish, &scratch.popped);
            for &w in g.successors(v) {
                scratch.data_ready[w.index()] = scratch.data_ready[w.index()].max(finish);
                scratch.in_deg[w.index()] -= 1;
                if scratch.in_deg[w.index()] == 0 {
                    scratch.ready_ref.push(ReadyTask {
                        bl: scratch.bl[w.index()],
                        task: w,
                    });
                }
            }
        }
        BoundedEval::Complete {
            makespan,
            reject_key,
        }
    }

    /// The makespan-only placement core — the EA's inner loop.
    ///
    /// Equivalent to [`Self::schedule_core`] but tracks processor
    /// availability as *groups*: a task's `s(v)` processors all free up at
    /// the same finish time, so they re-enter the heap as a single
    /// `(finish, s(v))` run, and selection pops whole runs until `s(v)`
    /// processors are covered (splitting at most the last run). The start
    /// time only depends on the s(v)-th smallest availability value, which
    /// is the same multiset either way, so makespans and rejection keys are
    /// **bit-identical** to the per-processor core — proven by the property
    /// tests in `emts/tests/prop_fitness.rs`.
    ///
    /// Each placement pushes at most two runs, so total heap traffic is
    /// O(V log V) regardless of allocation widths — on wide platforms
    /// (P = 120 and mean width P/2 this is ~30× fewer heap operations than
    /// the per-processor core).
    /// When recording (`R::ENABLED`), heap traffic is accumulated in local
    /// counters and flushed to `rec` **once per evaluation** — the counters
    /// and the flush monomorphize away entirely under
    /// [`obs::NoopRecorder`], keeping the disabled hot path identical to
    /// the uninstrumented code (asserted by the bench's no-op overhead
    /// check). Counter names: `sched.tasks_placed` (ready-queue pops),
    /// `sched.group_pops` / `sched.group_pushes` (processor-group heap
    /// traffic), `sched.rejections` (evaluations stopped by the cutoff).
    ///
    /// The loop state is pure struct-of-arrays: task ids are raw `u32`
    /// indices into the scratch's parallel `Vec<f64>`/`Vec<u32>` columns,
    /// adjacency comes from the graph's CSR arenas, and both heaps are
    /// hand-rolled flat arrays of packed `u128` keys whose integer order
    /// equals the old comparator order (see [`crate::soa_heap`] for the
    /// layouts and the argument why pop order — and therefore every result
    /// bit — is unchanged).
    // lint:hot-path
    pub(crate) fn schedule_core_grouped<R: Recorder>(
        g: &Ptg,
        alloc: &Allocation,
        p_max: u32,
        cutoff: f64,
        scratch: &mut EvalScratch,
        rec: &R,
    ) -> BoundedEval {
        let threshold = reject_threshold(cutoff);
        let mut makespan = 0.0f64;
        let mut reject_key = 0.0f64;
        let mut tasks_placed = 0u64;
        let mut group_pops = 0u64;
        let mut group_pushes = 0u64;
        // The whole loop runs on flat state: raw `u32` ids into parallel
        // slices, CSR adjacency, packed-`u128` heaps. Splitting the scratch
        // borrow up front keeps every access a direct slice index.
        let csr = g.csr();
        let widths = alloc.as_slice();
        let EvalScratch {
            times,
            bl,
            in_deg,
            data_ready,
            ready,
            groups,
            ..
        } = scratch;
        let times = times.as_slice();
        let bl = bl.as_slice();
        let in_deg = in_deg.as_mut_slice();
        let data_ready = data_ready.as_mut_slice();
        ready.clear();
        for &v in csr.sources() {
            ready.push(ready_entry(bl[v as usize], v));
        }
        groups.clear();
        groups.push(group_entry(0.0, 0, p_max));
        let mut next_seq = 1u32;

        while let Some(entry) = ready.pop() {
            let v = ready_task(entry) as usize;
            let s = widths[v];
            let mut need = s;
            let mut run = 0u128;
            // Sentinel: a real entry is never 0 (the availability key of any
            // non-negative time has the sign-flip bit set).
            let mut remainder = 0u128;
            while need > 0 {
                // lint:allow(src-panic-reach) -- invariant expect: prepare_into caps every allocation at P, so the group heap cannot run dry
                run = groups.pop().expect("alloc ≤ P ensured by prepare");
                if R::ENABLED {
                    group_pops += 1;
                    // Sampled heap-pop probe: every `POP_SAMPLE`-th pop
                    // lands on the event timeline (flight recorder) or
                    // bumps a counter (stats). Power-of-two mask, and the
                    // whole branch folds away under the no-op recorder.
                    // 4096 keeps the flight-recorder overhead on a full
                    // n=100 evaluation (a few thousand pops) near one
                    // sampled event — the ≤5% tracing budget leaves no
                    // room for an event every 512 pops.
                    const POP_SAMPLE: u64 = 4096;
                    if group_pops & (POP_SAMPLE - 1) == 0 {
                        rec.event("sched.pop.sample", group_pops);
                    }
                }
                let count = group_count(run);
                if count > need {
                    // The count lives in the low 32 bits: subtracting edits
                    // it in place without touching the (time, seq) key.
                    remainder = run - need as u128;
                    need = 0;
                } else {
                    need -= count;
                }
            }
            // Runs pop in nondecreasing availability order, so the last one
            // visited carries the s(v)-th smallest free time.
            let procs_free = group_avail(run);
            let start = data_ready[v].max(procs_free);
            let lower_bound = start + bl[v];
            if lower_bound > threshold {
                if R::ENABLED {
                    rec.add("sched.tasks_placed", tasks_placed);
                    rec.add("sched.group_pops", group_pops);
                    rec.add("sched.group_pushes", group_pushes);
                    rec.add("sched.rejections", 1);
                }
                return BoundedEval::Rejected;
            }
            reject_key = reject_key.max(lower_bound);
            let finish = start + times[v];
            if remainder != 0 {
                groups.push(remainder);
                if R::ENABLED {
                    group_pushes += 1;
                }
            }
            groups.push(group_entry(finish, next_seq, s));
            next_seq += 1;
            makespan = makespan.max(finish);
            if R::ENABLED {
                group_pushes += 1;
                tasks_placed += 1;
            }
            for &w in csr.successors(v as u32) {
                let wi = w as usize;
                data_ready[wi] = data_ready[wi].max(finish);
                in_deg[wi] -= 1;
                if in_deg[wi] == 0 {
                    ready.push(ready_entry(bl[wi], w));
                }
            }
        }
        if R::ENABLED {
            rec.add("sched.tasks_placed", tasks_placed);
            rec.add("sched.group_pops", group_pops);
            rec.add("sched.group_pushes", group_pushes);
        }
        BoundedEval::Complete {
            makespan,
            reject_key,
        }
    }
}

impl Mapper for ListScheduler {
    fn map(&self, g: &Ptg, matrix: &TimeMatrix, alloc: &Allocation) -> Schedule {
        let p_total = matrix.p_max();
        SHARED_SCRATCH.with_borrow_mut(|scratch| {
            Self::prepare_into(g, matrix, alloc, scratch);
            let mut placements = Vec::with_capacity(g.task_count());
            let outcome = Self::schedule_core(
                g,
                alloc,
                p_total,
                f64::INFINITY,
                scratch,
                |task, start, finish, popped| {
                    let mut processors: Vec<u32> = popped.iter().map(|&(_, q)| q).collect();
                    processors.sort_unstable();
                    placements.push(Placement {
                        task,
                        start,
                        finish,
                        processors,
                    });
                },
            );
            debug_assert!(matches!(outcome, BoundedEval::Complete { .. }));
            Schedule::new(p_total, placements)
        })
    }

    /// Makespan-only evaluation: the same placement routine with placement
    /// recording compiled out — this is the EA's inner loop.
    // lint:hot-path
    fn makespan(&self, g: &Ptg, matrix: &TimeMatrix, alloc: &Allocation) -> f64 {
        SHARED_SCRATCH
            .with_borrow_mut(|scratch| {
                self.makespan_bounded_with(g, matrix, alloc, f64::INFINITY, scratch)
            })
            .expect("infinite cutoff never rejects")
    }

    fn name(&self) -> &'static str {
        "list"
    }
}

impl ListScheduler {
    /// Makespan evaluation with early rejection — the paper's proposed
    /// future-work optimization ("reject solutions if the current schedule
    /// does not meet certain conditions while the algorithm is still in the
    /// mapping phase", §VI).
    ///
    /// Returns `None` as soon as the partial schedule *provably* exceeds
    /// `cutoff`: when a task starts at time `t`, the final makespan is at
    /// least `t + bl(v)` (its bottom level still has to execute), so the
    /// construction can stop without finishing the schedule. For a task
    /// mapped below the cutoff the bound is exact at the sink, hence
    /// `makespan_bounded(..., f64::INFINITY)` always returns
    /// `Some(makespan)` equal to [`Mapper::makespan`].
    // lint:hot-path
    pub fn makespan_bounded(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        cutoff: f64,
    ) -> Option<f64> {
        SHARED_SCRATCH.with_borrow_mut(|scratch| {
            self.makespan_bounded_with(g, matrix, alloc, cutoff, scratch)
        })
    }

    /// [`Self::makespan_bounded`] with caller-provided buffers: after the
    /// first call on a given problem size, evaluation performs **zero heap
    /// allocations**. This is the entry point the EA's evaluation engine
    /// uses, one scratch per worker thread.
    // lint:hot-path
    pub fn makespan_bounded_with(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        cutoff: f64,
        scratch: &mut EvalScratch,
    ) -> Option<f64> {
        match self.evaluate_bounded_with(g, matrix, alloc, cutoff, scratch) {
            BoundedEval::Complete { makespan, .. } => Some(makespan),
            BoundedEval::Rejected => None,
        }
    }

    /// Like [`Self::makespan_bounded_with`], but a completed evaluation
    /// also reports its rejection key (see [`BoundedEval`]) so callers can
    /// memoize accept/reject decisions exactly.
    // lint:hot-path
    pub fn evaluate_bounded_with(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        cutoff: f64,
        scratch: &mut EvalScratch,
    ) -> BoundedEval {
        self.evaluate_bounded_obs(g, matrix, alloc, cutoff, scratch, &NoopRecorder)
    }

    /// [`Self::evaluate_bounded_with`] with telemetry: heap-operation
    /// counters and rejection counts flow into `rec` (see
    /// `schedule_core_grouped` for the counter names). With
    /// [`obs::NoopRecorder`] this *is* `evaluate_bounded_with` — every
    /// probe compiles away.
    // lint:hot-path
    pub fn evaluate_bounded_obs<R: Recorder>(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        cutoff: f64,
        scratch: &mut EvalScratch,
        rec: &R,
    ) -> BoundedEval {
        Self::prepare_into(g, matrix, alloc, scratch);
        Self::schedule_core_grouped(g, alloc, matrix.p_max(), cutoff, scratch, rec)
    }

    /// The straightforward per-processor evaluation, retained as the
    /// correctness oracle for the grouped SoA fitness core: comparator-driven
    /// `BinaryHeap`s, pointer adjacency, one heap entry per processor —
    /// the pre-refactor implementation, algorithm for algorithm. Produces
    /// bit-identical results to [`Self::makespan_bounded`].
    // lint:hot-path
    pub fn makespan_bounded_reference(
        &self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        cutoff: f64,
    ) -> Option<f64> {
        SHARED_SCRATCH.with_borrow_mut(|scratch| {
            Self::prepare_into(g, matrix, alloc, scratch);
            match Self::schedule_core(g, alloc, matrix.p_max(), cutoff, scratch, |_, _, _, _| {}) {
                BoundedEval::Complete { makespan, .. } => Some(makespan),
                BoundedEval::Rejected => None,
            }
        })
    }
}

/// Total-ordered wrapper for finite f64 heap keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrderedF64(pub(crate) f64);

impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    // Same rationale as `ReadyTask::cmp`: keep heap comparisons inlinable
    // from other crates' monomorphizations of the fitness core.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("finite times")
    }
}

/// Insertion-based (backfilling) list scheduler.
///
/// Tasks are considered in the same bottom-level order, but each task may be
/// inserted into the earliest time window, possibly *before* previously
/// placed work, as long as `s(v)` processors are simultaneously idle for its
/// whole duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct InsertionScheduler;

impl Mapper for InsertionScheduler {
    fn map(&self, g: &Ptg, matrix: &TimeMatrix, alloc: &Allocation) -> Schedule {
        let p_total = matrix.p_max() as usize;
        let (times, bl, mut ready, mut in_deg) = ListScheduler::prepare(g, matrix, alloc);
        // Per-processor busy intervals, kept sorted by start time.
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); p_total];
        let mut data_ready = vec![0.0f64; g.task_count()];
        let mut placements = Vec::with_capacity(g.task_count());

        while let Some(ReadyTask { task: v, .. }) = ready.pop() {
            let s = alloc.of(v) as usize;
            let d = times[v.index()];
            let r = data_ready[v.index()];
            // Candidate start times: the ready time and every interval end
            // after it. The earliest feasible candidate wins.
            let mut candidates: Vec<f64> = vec![r];
            for iv in busy.iter().flatten() {
                if iv.1 > r {
                    candidates.push(iv.1);
                }
            }
            candidates.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
            candidates.dedup();
            let mut placed: Option<(f64, Vec<u32>)> = None;
            for &t in &candidates {
                let free: Vec<u32> = (0..p_total)
                    .filter(|&q| is_free(&busy[q], t, t + d))
                    .map(|q| q as u32)
                    .collect();
                if free.len() >= s {
                    placed = Some((t, free[..s].to_vec()));
                    break;
                }
            }
            let (start, processors) =
                placed.expect("the time after all work finishes is always feasible");
            let finish = start + d;
            for &q in &processors {
                let list = &mut busy[q as usize];
                let pos = list
                    .binary_search_by(|iv| iv.0.partial_cmp(&start).expect("finite times"))
                    .unwrap_or_else(|e| e);
                list.insert(pos, (start, finish));
            }
            placements.push(Placement {
                task: v,
                start,
                finish,
                processors,
            });
            for &w in g.successors(v) {
                data_ready[w.index()] = data_ready[w.index()].max(finish);
                in_deg[w.index()] -= 1;
                if in_deg[w.index()] == 0 {
                    ready.push(ReadyTask {
                        bl: bl[w.index()],
                        task: w,
                    });
                }
            }
        }
        Schedule::new(p_total as u32, placements)
    }

    fn name(&self) -> &'static str {
        "insertion"
    }
}

/// True if processor `q` (busy intervals sorted by start) is idle during the
/// whole window `[start, finish)`.
fn is_free(busy: &[(f64, f64)], start: f64, finish: f64) -> bool {
    busy.iter().all(|&(s, f)| finish <= s || f <= start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::Amdahl;
    use ptg::PtgBuilder;

    /// Fork-join: src -> {a, b, c} -> sink, all 1 GFLOP fully parallel,
    /// on a 4-processor 1 GFLOPS platform.
    fn fork_join() -> Ptg {
        let mut b = PtgBuilder::new();
        let src = b.add_task("src", 1e9, 0.0);
        let mids: Vec<_> = (0..3)
            .map(|i| b.add_task(format!("m{i}"), 1e9, 0.0))
            .collect();
        let sink = b.add_task("sink", 1e9, 0.0);
        for &m in &mids {
            b.add_edge(src, m).unwrap();
            b.add_edge(m, sink).unwrap();
        }
        b.build().unwrap()
    }

    fn matrix(g: &Ptg, p: u32) -> TimeMatrix {
        TimeMatrix::compute(g, &Amdahl, 1e9, p)
    }

    #[test]
    fn sequential_allocation_runs_middles_concurrently() {
        let g = fork_join();
        let m = matrix(&g, 4);
        let s = ListScheduler.map(&g, &m, &Allocation::ones(5));
        // src: 1s; three mids in parallel on 3 procs: 1s; sink: 1s → 3s.
        assert!((s.makespan() - 3.0).abs() < 1e-9, "got {}", s.makespan());
    }

    #[test]
    fn wide_allocation_serializes_middles() {
        let g = fork_join();
        let m = matrix(&g, 4);
        // Middles take all 4 procs each: 0.25 s each but serialized.
        let alloc = Allocation::from_vec(vec![4, 4, 4, 4, 4]);
        let s = ListScheduler.map(&g, &m, &alloc);
        // src 0.25 + 3 × 0.25 + sink 0.25 = 1.25 s
        assert!((s.makespan() - 1.25).abs() < 1e-9, "got {}", s.makespan());
    }

    #[test]
    fn fast_makespan_matches_full_map() {
        let g = fork_join();
        let m = matrix(&g, 4);
        for alloc in [
            Allocation::ones(5),
            Allocation::from_vec(vec![4, 2, 1, 3, 4]),
            Allocation::from_vec(vec![2, 2, 2, 2, 2]),
        ] {
            let full = ListScheduler.map(&g, &m, &alloc).makespan();
            let fast = ListScheduler.makespan(&g, &m, &alloc);
            assert!(
                (full - fast).abs() < 1e-9,
                "alloc {alloc:?}: {full} vs {fast}"
            );
        }
    }

    #[test]
    fn schedules_are_valid() {
        let g = fork_join();
        let m = matrix(&g, 4);
        let alloc = Allocation::from_vec(vec![3, 2, 2, 1, 4]);
        for mapper in [&ListScheduler as &dyn Mapper, &InsertionScheduler] {
            let s = mapper.map(&g, &m, &alloc);
            crate::validate::validate_schedule(&g, &m, &alloc, &s)
                .unwrap_or_else(|e| panic!("{}: {e}", mapper.name()));
        }
    }

    #[test]
    fn insertion_never_loses_to_list_on_samples() {
        let g = fork_join();
        let m = matrix(&g, 4);
        for alloc in [
            Allocation::ones(5),
            Allocation::from_vec(vec![4, 3, 1, 1, 2]),
            Allocation::from_vec(vec![1, 4, 4, 1, 1]),
        ] {
            let list = ListScheduler.map(&g, &m, &alloc).makespan();
            let ins = InsertionScheduler.map(&g, &m, &alloc).makespan();
            assert!(ins <= list + 1e-9, "insertion worse: {ins} vs {list}");
        }
    }

    #[test]
    fn insertion_backfills_into_gaps() {
        // Two independent chains force a gap for the list scheduler:
        //   a1(long, all procs) ; b1(short,1p) -> b2(short,1p)
        // With priorities, list runs a1 first on all procs; insertion can
        // squeeze b-chain before/alongside.
        let mut b = PtgBuilder::new();
        let a1 = b.add_task("a1", 8e9, 0.0); // 2s on 4 procs
        let b1 = b.add_task("b1", 1e9, 0.0);
        let b2 = b.add_task("b2", 1e9, 0.0);
        b.add_edge(b1, b2).unwrap();
        let g = b.build().unwrap();
        let m = matrix(&g, 4);
        let alloc = Allocation::from_vec(vec![4, 1, 1]);
        let list = ListScheduler.map(&g, &m, &alloc).makespan();
        let ins = InsertionScheduler.map(&g, &m, &alloc).makespan();
        assert!(ins <= list + 1e-9);
        let _ = a1;
    }

    #[test]
    fn priority_prefers_larger_bottom_level() {
        // Two ready tasks, one processor: the one heading the longer chain
        // must run first.
        let mut b = PtgBuilder::new();
        let short = b.add_task("short", 1e9, 0.0);
        let long_head = b.add_task("lh", 1e9, 0.0);
        let long_tail = b.add_task("lt", 5e9, 0.0);
        b.add_edge(long_head, long_tail).unwrap();
        let g = b.build().unwrap();
        let m = matrix(&g, 1);
        let s = ListScheduler.map(&g, &m, &Allocation::ones(3));
        assert!(s.placement(long_head).start < s.placement(short).start);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = fork_join();
        let m = matrix(&g, 4);
        let alloc = Allocation::from_vec(vec![2, 3, 1, 2, 4]);
        let s1 = ListScheduler.map(&g, &m, &alloc);
        let s2 = ListScheduler.map(&g, &m, &alloc);
        assert_eq!(s1, s2);
    }

    #[test]
    fn bounded_makespan_with_infinite_cutoff_matches_exact() {
        let g = fork_join();
        let m = matrix(&g, 4);
        for alloc in [
            Allocation::ones(5),
            Allocation::from_vec(vec![4, 2, 1, 3, 4]),
        ] {
            let exact = ListScheduler.makespan(&g, &m, &alloc);
            let bounded = ListScheduler
                .makespan_bounded(&g, &m, &alloc, f64::INFINITY)
                .expect("infinite cutoff never rejects");
            assert!((exact - bounded).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_makespan_rejects_above_cutoff_and_accepts_below() {
        let g = fork_join();
        let m = matrix(&g, 4);
        let alloc = Allocation::ones(5);
        let exact = ListScheduler.makespan(&g, &m, &alloc);
        assert_eq!(
            ListScheduler.makespan_bounded(&g, &m, &alloc, exact * 0.9),
            None,
            "cutoff below the real makespan must reject"
        );
        let accepted = ListScheduler.makespan_bounded(&g, &m, &alloc, exact * 1.1);
        assert_eq!(accepted, Some(exact));
        // cutoff exactly at the makespan: bound start+bl never exceeds it
        assert_eq!(
            ListScheduler.makespan_bounded(&g, &m, &alloc, exact),
            Some(exact)
        );
    }

    #[test]
    fn rejection_is_sound_never_rejects_schedules_within_cutoff() {
        // For a spread of allocations, whenever the exact makespan is within
        // the cutoff, the bounded version must return it.
        let g = fork_join();
        let m = matrix(&g, 4);
        for a0 in 1..=4u32 {
            for a2 in 1..=4u32 {
                let alloc = Allocation::from_vec(vec![a0, 2, a2, 1, 3]);
                let exact = ListScheduler.makespan(&g, &m, &alloc);
                for cutoff_factor in [1.0, 1.5, 3.0] {
                    let cutoff = exact * cutoff_factor;
                    let got = ListScheduler.makespan_bounded(&g, &m, &alloc, cutoff);
                    assert_eq!(got, Some(exact), "alloc {alloc:?} cutoff {cutoff}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_evaluation() {
        let g = fork_join();
        let m = matrix(&g, 4);
        let mut scratch = EvalScratch::new();
        for alloc in [
            Allocation::ones(5),
            Allocation::from_vec(vec![4, 2, 1, 3, 4]),
            Allocation::from_vec(vec![2, 2, 2, 2, 2]),
            Allocation::from_vec(vec![1, 4, 4, 1, 1]),
        ] {
            let fresh = ListScheduler.makespan(&g, &m, &alloc);
            let reused = ListScheduler
                .makespan_bounded_with(&g, &m, &alloc, f64::INFINITY, &mut scratch)
                .expect("infinite cutoff never rejects");
            assert_eq!(fresh.to_bits(), reused.to_bits(), "alloc {alloc:?}");
        }
    }

    #[test]
    fn scratch_survives_changing_problem_sizes() {
        // A stale scratch from a bigger problem must not leak into a smaller
        // one (and vice versa).
        let big = fork_join();
        let big_m = matrix(&big, 4);
        let mut b = PtgBuilder::new();
        let x = b.add_task("x", 1e9, 0.0);
        let y = b.add_task("y", 2e9, 0.0);
        b.add_edge(x, y).unwrap();
        let small = b.build().unwrap();
        let small_m = matrix(&small, 2);

        let mut scratch = EvalScratch::new();
        let alloc_big = Allocation::from_vec(vec![4, 2, 1, 3, 4]);
        let alloc_small = Allocation::from_vec(vec![2, 1]);
        for _ in 0..2 {
            let r_big = ListScheduler
                .makespan_bounded_with(&big, &big_m, &alloc_big, f64::INFINITY, &mut scratch)
                .unwrap();
            assert_eq!(r_big, ListScheduler.makespan(&big, &big_m, &alloc_big));
            let r_small = ListScheduler
                .makespan_bounded_with(&small, &small_m, &alloc_small, f64::INFINITY, &mut scratch)
                .unwrap();
            assert_eq!(
                r_small,
                ListScheduler.makespan(&small, &small_m, &alloc_small)
            );
        }
    }

    #[test]
    fn reject_key_reproduces_cutoff_decisions() {
        // A completed evaluation's `decide` must agree with the engine's
        // own accept/reject for any cutoff.
        let g = fork_join();
        let m = matrix(&g, 4);
        let mut scratch = EvalScratch::new();
        for alloc in [
            Allocation::ones(5),
            Allocation::from_vec(vec![4, 2, 1, 3, 4]),
            Allocation::from_vec(vec![1, 4, 4, 1, 1]),
        ] {
            let outcome =
                ListScheduler.evaluate_bounded_with(&g, &m, &alloc, f64::INFINITY, &mut scratch);
            let makespan = outcome
                .decide(f64::INFINITY)
                .expect("infinite cutoff never rejects");
            for factor in [0.3, 0.8, 0.95, 1.0, 1.05, 2.0] {
                let cutoff = makespan * factor;
                let engine = ListScheduler.makespan_bounded(&g, &m, &alloc, cutoff);
                assert_eq!(
                    engine,
                    outcome.decide(cutoff),
                    "alloc {alloc:?} cutoff {cutoff}"
                );
            }
        }
    }

    #[test]
    fn grouped_core_is_bit_identical_to_per_processor_reference() {
        // The fitness path tracks processor availability as (time, count)
        // runs; the full mapper keeps individual processors. Same multiset
        // of free times → bit-identical start/finish times.
        let g = fork_join();
        let m = matrix(&g, 4);
        for alloc in [
            Allocation::ones(5),
            Allocation::from_vec(vec![4, 2, 1, 3, 4]),
            Allocation::from_vec(vec![2, 3, 2, 1, 2]),
            Allocation::from_vec(vec![1, 4, 4, 1, 1]),
        ] {
            let reference = ListScheduler
                .makespan_bounded_reference(&g, &m, &alloc, f64::INFINITY)
                .expect("infinite cutoff never rejects");
            let grouped = ListScheduler.makespan(&g, &m, &alloc);
            assert_eq!(reference.to_bits(), grouped.to_bits(), "alloc {alloc:?}");
            let mapped = ListScheduler.map(&g, &m, &alloc).makespan();
            assert_eq!(reference.to_bits(), mapped.to_bits(), "alloc {alloc:?}");
            for factor in [0.5, 0.9, 1.0, 1.1] {
                let cutoff = reference * factor;
                assert_eq!(
                    ListScheduler.makespan_bounded_reference(&g, &m, &alloc, cutoff),
                    ListScheduler.makespan_bounded(&g, &m, &alloc, cutoff),
                    "alloc {alloc:?} cutoff {cutoff}"
                );
            }
        }
    }

    #[test]
    fn recorded_evaluation_counts_heap_ops_and_rejections() {
        use obs::StatsRecorder;
        let g = fork_join();
        let m = matrix(&g, 4);
        let alloc = Allocation::from_vec(vec![4, 2, 1, 3, 4]);
        let mut scratch = EvalScratch::new();
        let rec = StatsRecorder::new();
        let plain =
            ListScheduler.evaluate_bounded_with(&g, &m, &alloc, f64::INFINITY, &mut scratch);
        let recorded =
            ListScheduler.evaluate_bounded_obs(&g, &m, &alloc, f64::INFINITY, &mut scratch, &rec);
        assert_eq!(plain, recorded, "telemetry must not change results");
        assert_eq!(rec.counter("sched.tasks_placed"), g.task_count() as u64);
        assert!(rec.counter("sched.group_pops") >= g.task_count() as u64);
        assert!(rec.counter("sched.group_pushes") >= g.task_count() as u64);
        assert_eq!(rec.counter("sched.rejections"), 0);

        // A cutoff below the real makespan must be counted as a rejection.
        let BoundedEval::Complete { makespan, .. } = recorded else {
            panic!("infinite cutoff never rejects");
        };
        let outcome =
            ListScheduler.evaluate_bounded_obs(&g, &m, &alloc, makespan * 0.5, &mut scratch, &rec);
        assert_eq!(outcome, BoundedEval::Rejected);
        assert_eq!(rec.counter("sched.rejections"), 1);
    }

    #[test]
    #[should_panic(expected = "allocation exceeds platform")]
    fn over_allocation_panics() {
        let g = fork_join();
        let m = matrix(&g, 4);
        let _ = ListScheduler.map(&g, &m, &Allocation::from_vec(vec![5, 1, 1, 1, 1]));
    }
}
