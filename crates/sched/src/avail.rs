//! Processor availability for the per-processor placement core.
//!
//! The one placement loop, `ListScheduler::schedule_core`, behind
//! [`crate::Mapper::map`], the [`crate::InsertionScheduler`] and the
//! [`crate::Rescheduler`], must name the processors each task runs on. Per
//! placement it asks its availability container for `s(v)` processors and
//! a start, given the task's data-ready time and duration, and gives them
//! back at the task's finish time. Three containers answer:
//!
//! * [`SortedAvail`], the list scheduler's: one array sorted by
//!   `(free time, processor)`. A take reads its first `s` entries, the
//!   earliest-free processors with ties toward the smaller index, and the
//!   task starts at the later of its ready time and their latest free
//!   time. A give-back merges them back at their finish time with one
//!   memmove and a merge over the entries already free at that time.
//! * [`HeapAvail`], the test oracle: a comparator-driven min-heap popped
//!   and pushed one processor at a time, the container the core was first
//!   written on. It stays behind the oracles
//!   (`ListScheduler::makespan_bounded_reference`,
//!   `ListScheduler::map_reference`, `Rescheduler::reschedule_reference`),
//!   so the property tests pit two independent containers against each
//!   other.
//! * [`Backfill`], the insertion mapper's: every processor's busy
//!   intervals, so a task may start in an idle window before work already
//!   placed. It ignores free-time order and takes the lowest-indexed
//!   processors idle for the task's whole duration at the earliest
//!   candidate start.
//!
//! The two list containers order the same `(time, processor)` pairs by the
//! same total order (times by `partial_cmp`, then the index), and every
//! pair is unique by its index, so they hand out the same processors in the
//! same order and every placement is bit-identical.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Processor availability: decides where and when each task starts, and
/// takes its processors back at their new free time.
pub(crate) trait Availability {
    /// Makes `free`'s `(free time, processor)` pairs, in any order, the
    /// whole pool: a processor free from `t` runs nothing before `t`.
    fn reset(&mut self, free: impl IntoIterator<Item = (f64, u32)>);

    /// Places a task of width `s ≥ 1` that is data-ready at `ready` and
    /// runs for `duration`: returns its start, never before `ready`, and
    /// its processors, sorted by index.
    ///
    /// # Panics
    /// Panics if the pool holds fewer than `s` processors.
    fn take(&mut self, s: usize, ready: f64, duration: f64) -> (f64, &[u32]);

    /// Gives back the processors of the last [`Self::take`], busy with its
    /// task until `at`.
    fn give_back(&mut self, at: f64);
}

/// The order both containers share: by free time, then by processor.
#[inline]
fn by_time_then_index(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .expect("finite free times")
        .then(a.1.cmp(&b.1))
}

/// Processor availability as one array sorted by `(free time, processor)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedAvail {
    /// Every processor with its free time, ascending.
    free: Vec<(f64, u32)>,
    /// The processors of the last take, ascending. Until the matching
    /// [`Availability::give_back`] they still head `free`.
    taken: Vec<u32>,
}

impl SortedAvail {
    /// An empty pool with room for `procs` processors.
    pub(crate) fn with_capacity(procs: usize) -> Self {
        SortedAvail {
            free: Vec::with_capacity(procs),
            taken: Vec::with_capacity(procs),
        }
    }
}

impl Availability for SortedAvail {
    fn reset(&mut self, free: impl IntoIterator<Item = (f64, u32)>) {
        self.free.clear();
        self.free.extend(free);
        self.free.sort_unstable_by(by_time_then_index);
    }

    #[inline]
    fn take(&mut self, s: usize, ready: f64, _duration: f64) -> (f64, &[u32]) {
        let head = self
            .free
            .get(..s)
            .expect("widths never exceed the seeded processors");
        let &(latest, _) = head.last().expect("s ≥ 1");
        self.taken.clear();
        self.taken.extend(head.iter().map(|&(_, q)| q));
        self.taken.sort_unstable();
        (ready.max(latest), &self.taken)
    }

    #[inline]
    fn give_back(&mut self, at: f64) {
        let s = self.taken.len();
        // `free[s..lo]` is free before `at`, `free[lo..hi]` exactly at it.
        let lo = s + self.free[s..].partition_point(|&(t, _)| t < at);
        let hi = lo + self.free[lo..].partition_point(|&(t, _)| t == at);
        // The earlier entries move up over the taken ones; the taken ones
        // then merge by index with those free at `at`. The write position
        // stays below the read position until the last taken entry is
        // written, and then meets it, so `free[a..hi]` is already in place.
        self.free.copy_within(s..lo, 0);
        let (mut w, mut a) = (lo - s, lo);
        for &q in &self.taken {
            while a < hi && self.free[a].1 < q {
                self.free[w] = self.free[a];
                (w, a) = (w + 1, a + 1);
            }
            self.free[w] = (at, q);
            w += 1;
        }
    }
}

/// Total-ordered wrapper for finite `f64` heap keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("finite times")
    }
}

/// Processor availability as a min-heap of `(free time, processor)`, one
/// entry per processor: the test oracle.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeapAvail {
    heap: BinaryHeap<Reverse<(OrderedF64, u32)>>,
    /// The processors of the last take, ascending.
    taken: Vec<u32>,
}

impl Availability for HeapAvail {
    fn reset(&mut self, free: impl IntoIterator<Item = (f64, u32)>) {
        self.heap.clear();
        self.heap
            .extend(free.into_iter().map(|(t, q)| Reverse((OrderedF64(t), q))));
    }

    fn take(&mut self, s: usize, ready: f64, _duration: f64) -> (f64, &[u32]) {
        self.taken.clear();
        let mut latest = None;
        for _ in 0..s {
            let Reverse((OrderedF64(free), q)) = self
                .heap
                .pop()
                .expect("widths never exceed the seeded processors");
            self.taken.push(q);
            latest = Some(free);
        }
        self.taken.sort_unstable();
        (ready.max(latest.expect("s ≥ 1")), &self.taken)
    }

    fn give_back(&mut self, at: f64) {
        for &q in &self.taken {
            self.heap.push(Reverse((OrderedF64(at), q)));
        }
    }
}

/// Processor availability with backfilling: a task may start in an idle
/// window before work already placed, as long as `s` processors are idle
/// for its whole duration.
///
/// The candidate starts are the task's ready time and every busy interval's
/// end after it, in ascending order; the first at which `s` processors are
/// idle wins, and it takes the lowest-indexed ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct Backfill {
    /// The processors of the pool, ascending.
    pool: Vec<u32>,
    /// Per processor index, its busy intervals `(start, finish)`, sorted
    /// by start, then finish. They pairwise overlap in no instant, so their
    /// ends ascend too.
    busy: Vec<Vec<(f64, f64)>>,
    /// Every distinct interval end, ascending: the candidate starts.
    ends: Vec<f64>,
    /// The start of the last take.
    start: f64,
    /// The processors of the last take, ascending.
    taken: Vec<u32>,
}

impl Backfill {
    /// Records `at` as a candidate start.
    fn add_end(&mut self, at: f64) {
        let i = self.ends.partition_point(|&e| e < at);
        if self.ends.get(i) != Some(&at) {
            self.ends.insert(i, at);
        }
    }
}

/// True if no interval of `busy` meets `[t, until)`. The intervals are
/// sorted and overlap in no instant, so this holds iff the last one that
/// starts before `until` ends by `t`.
#[inline]
fn idle(busy: &[(f64, f64)], t: f64, until: f64) -> bool {
    let k = busy.partition_point(|&(s, _)| s < until);
    k == 0 || busy[k - 1].1 <= t
}

impl Availability for Backfill {
    fn reset(&mut self, free: impl IntoIterator<Item = (f64, u32)>) {
        self.pool.clear();
        self.busy.clear();
        self.ends.clear();
        for (t, q) in free {
            let q_idx = q as usize;
            if self.busy.len() <= q_idx {
                self.busy.resize(q_idx + 1, Vec::new());
            }
            self.pool.push(q);
            if t > 0.0 {
                self.busy[q_idx].push((f64::NEG_INFINITY, t));
                self.add_end(t);
            }
        }
        self.pool.sort_unstable();
    }

    fn take(&mut self, s: usize, ready: f64, duration: f64) -> (f64, &[u32]) {
        let Backfill {
            pool,
            busy,
            ends,
            taken,
            ..
        } = self;
        let later = ends.partition_point(|&e| e <= ready);
        let start = std::iter::once(ready)
            .chain(ends[later..].iter().copied())
            .find(|&t| {
                let until = t + duration;
                taken.clear();
                taken.extend(
                    pool.iter()
                        .copied()
                        .filter(|&q| idle(&busy[q as usize], t, until))
                        .take(s),
                );
                taken.len() == s
            })
            .expect("widths never exceed the seeded processors");
        self.start = start;
        (start, &self.taken)
    }

    fn give_back(&mut self, at: f64) {
        let interval = (self.start, at);
        for &q in &self.taken {
            let list = &mut self.busy[q as usize];
            let pos = list.partition_point(|&iv| iv <= interval);
            list.insert(pos, interval);
        }
        self.add_end(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Both list containers through the same take/give-back sequence,
    /// with free times drawn from a few values so that equal times are
    /// common, and ready times around the last start so that a task starts
    /// both at its ready time and at its processors' latest free time.
    #[test]
    fn the_sorted_array_hands_out_what_the_heap_pops() {
        let mut rng = ChaCha8Rng::seed_from_u64(2011);
        let (mut at_ready, mut at_free) = (0, 0);
        for procs in [1u32, 2, 5, 20, 120] {
            let seed: Vec<(f64, u32)> = (0..procs)
                .rev()
                .map(|q| (rng.gen_range(0..3) as f64, q))
                .collect();
            let (mut sorted, mut heap) = (SortedAvail::default(), HeapAvail::default());
            sorted.reset(seed.iter().copied());
            heap.reset(seed);
            let mut last = 0.0;
            for step in 0..400 {
                let s = rng.gen_range(1..=procs as usize);
                let ready = (last + rng.gen_range(0..5) as f64 - 2.0).max(0.0);
                let (a, b) = (sorted.take(s, ready, 1.0), heap.take(s, ready, 1.0));
                assert_eq!(
                    (a.0.to_bits(), a.1),
                    (b.0.to_bits(), b.1),
                    "P={procs}, step {step}"
                );
                if a.0 == ready {
                    at_ready += 1;
                } else {
                    at_free += 1;
                }
                last = a.0;
                let at = a.0 + rng.gen_range(0..4) as f64;
                sorted.give_back(at);
                heap.give_back(at);
            }
        }
        assert!(at_ready > 0 && at_free > 0, "{at_ready} vs {at_free}");
    }

    /// Places one task on `avail` and gives its processors back at its
    /// finish: returns the start and the processors.
    fn place(avail: &mut impl Availability, s: usize, ready: f64, d: f64) -> (f64, Vec<u32>) {
        let (start, procs) = avail.take(s, ready, d);
        let placed = (start, procs.to_vec());
        avail.give_back(start + d);
        placed
    }

    fn backfill(procs: u32) -> Backfill {
        let mut avail = Backfill::default();
        avail.reset((0..procs).map(|q| (0.0, q)));
        avail
    }

    #[test]
    fn backfill_takes_a_window_exactly_as_long_as_the_task() {
        let mut avail = backfill(1);
        assert_eq!(place(&mut avail, 1, 0.0, 1.0), (0.0, vec![0]));
        assert_eq!(place(&mut avail, 1, 3.0, 1.0), (3.0, vec![0]));
        // [1, 3) is idle: a 2.5 s task does not fit, a 2 s one touches both
        // neighbours.
        assert_eq!(avail.take(1, 0.0, 2.5).0, 4.0);
        assert_eq!(place(&mut avail, 1, 0.0, 2.0), (1.0, vec![0]));
        assert_eq!(avail.busy[0], [(0.0, 1.0), (1.0, 3.0), (3.0, 4.0)]);
        // The gap is gone; the next window opens at the last end.
        assert_eq!(place(&mut avail, 1, 0.0, 0.5), (4.0, vec![0]));
    }

    #[test]
    fn backfill_starts_at_the_ready_time_between_interval_ends() {
        let mut avail = backfill(2);
        assert_eq!(place(&mut avail, 1, 0.0, 2.0), (0.0, vec![0]));
        let (start, procs) = place(&mut avail, 1, 0.75, 1.0);
        assert_eq!((start.to_bits(), procs), (0.75f64.to_bits(), vec![1]));
    }

    #[test]
    fn backfill_keeps_one_candidate_per_shared_end() {
        let mut avail = backfill(3);
        assert_eq!(place(&mut avail, 2, 0.0, 1.0), (0.0, vec![0, 1]));
        assert_eq!(place(&mut avail, 1, 0.0, 1.0), (0.0, vec![2]));
        assert_eq!(avail.ends, [1.0]);
        assert_eq!(place(&mut avail, 3, 0.0, 1.0), (1.0, vec![0, 1, 2]));
        assert_eq!(avail.ends, [1.0, 2.0]);
    }

    #[test]
    fn backfill_takes_the_lowest_idle_indices_not_the_earliest_free() {
        // Processor 2 has been idle longest, yet at time 2 all three are
        // idle and processor 0 wins; the sorted array picks processor 2.
        let mut sorted = SortedAvail::default();
        sorted.reset((0..3).map(|q| (0.0, q)));
        let mut avail = backfill(3);
        for (d, want) in [(1.0, 0), (2.0, 1)] {
            assert_eq!(place(&mut avail, 1, 0.0, d), (0.0, vec![want]));
            assert_eq!(place(&mut sorted, 1, 0.0, d), (0.0, vec![want]));
        }
        assert_eq!(place(&mut avail, 1, 2.0, 1.0), (2.0, vec![0]));
        assert_eq!(place(&mut sorted, 1, 2.0, 1.0), (2.0, vec![2]));
    }

    #[test]
    fn backfill_reset_keeps_a_late_processor_busy_until_its_free_time() {
        // A pool of processors 1 and 3 only; processor 1 is free from 1.5.
        let mut avail = Backfill::default();
        avail.reset([(0.0, 3), (1.5, 1)]);
        assert_eq!(place(&mut avail, 1, 0.0, 1.0), (0.0, vec![3]));
        assert_eq!(place(&mut avail, 2, 0.0, 1.0), (1.5, vec![1, 3]));
        // Before 1.5 only processor 3 is idle, even for a short task.
        assert_eq!(place(&mut avail, 1, 1.0, 0.25), (1.0, vec![3]));
        assert_eq!(avail.take(2, 0.0, 0.25).0, 2.5);
    }
}
