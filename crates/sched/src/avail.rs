//! Processor availability for the per-processor placement core.
//!
//! The core behind [`crate::Mapper::map`] and the [`crate::Rescheduler`]
//! must name the processors each task runs on. Per placement it takes the
//! `s(v)` earliest-free processors, ties toward the smaller index, and
//! frees them again at the task's finish time. Two containers do that:
//!
//! * [`SortedAvail`], the production one: one array sorted by
//!   `(free time, processor)`. A placement reads its first `s` entries and
//!   merges them back at their finish time with one memmove and a merge
//!   over the entries already free at that time.
//! * [`HeapAvail`], the test oracle: a comparator-driven min-heap popped
//!   and pushed one processor at a time, the container the core was first
//!   written on. It stays behind the oracles
//!   (`ListScheduler::makespan_bounded_reference`,
//!   `ListScheduler::map_reference`, `Rescheduler::reschedule_reference`),
//!   so the property tests pit two independent containers against each
//!   other.
//!
//! Both order the same `(time, processor)` pairs by the same total order
//! (times by `partial_cmp`, then the index), and every pair is unique by
//! its index, so they hand out the same processors in the same order and
//! every placement is bit-identical.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Processor availability: hands out the earliest-free processors and
/// takes them back at their new free time.
pub(crate) trait Availability {
    /// Makes `free`'s `(free time, processor)` pairs, in any order, the
    /// whole pool.
    fn reset(&mut self, free: impl IntoIterator<Item = (f64, u32)>);

    /// Makes processors `0..procs`, all free at time 0, the whole pool.
    fn reset_fresh(&mut self, procs: u32) {
        self.reset((0..procs).map(|q| (0.0, q)));
    }

    /// Takes the `s ≥ 1` earliest-free processors, ties toward the smaller
    /// index: returns the latest of their free times and the processors,
    /// sorted by index.
    ///
    /// # Panics
    /// Panics if the pool holds fewer than `s` processors.
    fn take(&mut self, s: usize) -> (f64, &[u32]);

    /// Frees the processors of the last [`Self::take`] again at `at`.
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
    fn take(&mut self, s: usize) -> (f64, &[u32]) {
        let head = self
            .free
            .get(..s)
            .expect("widths never exceed the seeded processors");
        let &(latest, _) = head.last().expect("s ≥ 1");
        self.taken.clear();
        self.taken.extend(head.iter().map(|&(_, q)| q));
        self.taken.sort_unstable();
        (latest, &self.taken)
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

    fn take(&mut self, s: usize) -> (f64, &[u32]) {
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
        (latest.expect("s ≥ 1"), &self.taken)
    }

    fn give_back(&mut self, at: f64) {
        for &q in &self.taken {
            self.heap.push(Reverse((OrderedF64(at), q)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Both containers through the same take/give-back sequence, with
    /// free times drawn from a few values so that equal times are common.
    #[test]
    fn the_sorted_array_hands_out_what_the_heap_pops() {
        let mut rng = ChaCha8Rng::seed_from_u64(2011);
        for procs in [1u32, 2, 5, 20, 120] {
            let seed: Vec<(f64, u32)> = (0..procs)
                .rev()
                .map(|q| (rng.gen_range(0..3) as f64, q))
                .collect();
            let (mut sorted, mut heap) = (SortedAvail::default(), HeapAvail::default());
            sorted.reset(seed.iter().copied());
            heap.reset(seed);
            for step in 0..400 {
                let s = rng.gen_range(1..=procs as usize);
                let (a, b) = (sorted.take(s), heap.take(s));
                assert_eq!(
                    (a.0.to_bits(), a.1),
                    (b.0.to_bits(), b.1),
                    "P={procs}, step {step}"
                );
                let at = a.0 + rng.gen_range(0..4) as f64;
                sorted.give_back(at);
                heap.give_back(at);
            }
        }
    }
}
