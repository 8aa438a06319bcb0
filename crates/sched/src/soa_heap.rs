//! Flat, branch-light binary heaps over packed `u128` keys — the storage
//! behind the list scheduler's ready queue and availability-run heap.
//!
//! `std::collections::BinaryHeap` is generic over `Ord`, so every sift step
//! calls a comparator that chains `f64::partial_cmp` → `Option` → tiebreak.
//! The fitness core instead packs each queue element into a single `u128`
//! whose *integer* order equals the comparator order, so the sift loops
//! compile to plain unsigned compares over a flat `Vec<u128>`:
//!
//! * finite `f64` keys map through [`f64_key`], the classic monotone
//!   bits-trick (flip the sign bit for positives, all bits for negatives):
//!   `a < b ⇔ f64_key(a) < f64_key(b)`, and [`key_f64`] inverts it
//!   bit-exactly;
//! * tiebreak fields occupy the low bits, complemented where the tie must
//!   resolve toward the *smaller* value in a max-heap.
//!
//! Layouts (high → low):
//!
//! ```text
//! ready entry  = [ f64_key(bottom level) : 64 ][ zeros : 32 ][ !task id : 32 ]
//! group entry  = [ f64_key(avail time)   : 64 ][ seq : 32 ][ proc count : 32 ]
//! ```
//!
//! The ready queue is a max-heap (largest bottom level first; equal levels
//! resolve to the smaller task id via the complement), matching
//! `ReadyTask`'s comparator. The group heap is a min-heap (earliest
//! availability first; `seq` is the per-evaluation insertion counter that
//! made `ProcGroup` keys unique, so the count field never decides an
//! ordering). Because every key is unique, pop order is a function of heap
//! *content* only — swapping the heap implementation cannot change any
//! scheduling result.
//!
//! A split run is `entry - need`: the count sits in the low 32 bits and a
//! split always leaves `need < count`, so plain `u128` subtraction edits the
//! count without borrowing into `seq`.

/// Sign bit of an `f64`'s bit pattern.
const SIGN: u64 = 1 << 63;

/// Maps a finite `f64` to a `u64` with the same total order.
// lint:hot-path
#[inline]
pub(crate) fn f64_key(x: f64) -> u64 {
    let b = x.to_bits();
    // Negative values flip every bit, non-negative only the sign bit.
    b ^ (((b as i64 >> 63) as u64) | SIGN)
}

/// Exact inverse of [`f64_key`].
// lint:hot-path
#[inline]
pub(crate) fn key_f64(k: u64) -> f64 {
    let b = if k & SIGN != 0 { k ^ SIGN } else { !k };
    f64::from_bits(b)
}

/// Packs a ready task: pops by decreasing bottom level, ties toward the
/// smaller task id.
// lint:hot-path
#[inline]
pub(crate) fn ready_entry(bl: f64, task: u32) -> u128 {
    ((f64_key(bl) as u128) << 64) | (!task) as u128
}

/// The task id of a packed ready entry.
// lint:hot-path
#[inline]
pub(crate) fn ready_task(entry: u128) -> u32 {
    !(entry as u32)
}

/// Packs an availability run: pops by increasing free time, ties by
/// insertion order (`seq` is unique per evaluation).
// lint:hot-path
#[inline]
pub(crate) fn group_entry(avail: f64, seq: u32, count: u32) -> u128 {
    debug_assert!(avail >= 0.0, "availability times are non-negative");
    ((f64_key(avail) as u128) << 64) | ((seq as u128) << 32) | count as u128
}

/// The free time of a packed availability run.
// lint:hot-path
#[inline]
pub(crate) fn group_avail(entry: u128) -> f64 {
    key_f64((entry >> 64) as u64)
}

/// The processor count of a packed availability run.
// lint:hot-path
#[inline]
pub(crate) fn group_count(entry: u128) -> u32 {
    entry as u32
}

/// A binary heap of packed `u128` entries with hand-rolled, index-based
/// sifts. `MIN = true` pops the smallest entry first, `MIN = false` the
/// largest.
///
/// Both sift loops move a *hole* instead of swapping (one write per level)
/// and select the preferred child with an arithmetic index bump rather than
/// an `if`/`else` over two code paths — together with the `u128` compare
/// this keeps the loop body tiny and branch-predictable.
#[derive(Debug, Clone, Default)]
pub(crate) struct Heap128<const MIN: bool> {
    data: Vec<u128>,
}

/// Min-heap of packed entries (availability runs).
pub(crate) type MinHeap128 = Heap128<true>;
/// Max-heap of packed entries (ready tasks).
pub(crate) type MaxHeap128 = Heap128<false>;

impl<const MIN: bool> Heap128<MIN> {
    /// True when `a` belongs closer to the top than `b`.
    #[inline(always)]
    fn before(a: u128, b: u128) -> bool {
        if MIN {
            a < b
        } else {
            a > b
        }
    }

    pub(crate) fn with_capacity(n: usize) -> Self {
        Heap128 {
            data: Vec::with_capacity(n),
        }
    }

    /// Entry count — exercised by the equivalence tests only.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Emptiness — exercised by the equivalence tests only.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.data.clear();
    }

    /// Inserts `entry`, sifting the hole up while the parent loses to it.
    // lint:hot-path
    #[inline]
    pub(crate) fn push(&mut self, entry: u128) {
        let mut i = self.data.len();
        self.data.push(entry);
        let data = &mut self.data[..];
        while i > 0 {
            let parent = (i - 1) >> 1;
            if !Self::before(entry, data[parent]) {
                break;
            }
            data[i] = data[parent];
            i = parent;
        }
        data[i] = entry;
    }

    /// Removes and returns the top entry, sifting the displaced tail entry
    /// down through its preferred children.
    // lint:hot-path
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u128> {
        let top = *self.data.first()?;
        let tail = self.data.pop().expect("first() returned Some");
        let n = self.data.len();
        if n > 0 {
            let data = &mut self.data[..];
            let mut i = 0;
            loop {
                let left = 2 * i + 1;
                if left >= n {
                    break;
                }
                let right = left + 1;
                // Pick the child that sorts first; the bounds check on
                // `right` folds into the index bump.
                let child = left + ((right < n && Self::before(data[right], data[left])) as usize);
                if !Self::before(data[child], tail) {
                    break;
                }
                data[i] = data[child];
                i = child;
            }
            data[i] = tail;
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64 — deterministic test entropy without an RNG dependency.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn f64_key_is_monotone_and_invertible() {
        let samples = [
            0.0,
            1.0,
            1.5,
            2.0,
            1e-300,
            1e300,
            0.1,
            123.456,
            -1.0,
            -1e300,
            -1e-300,
            f64::MIN_POSITIVE,
        ];
        for &a in &samples {
            assert_eq!(key_f64(f64_key(a)).to_bits(), a.to_bits(), "{a}");
            for &b in &samples {
                assert_eq!(f64_key(a) < f64_key(b), a < b, "{a} vs {b}");
                assert_eq!(f64_key(a) == f64_key(b), a.to_bits() == b.to_bits());
            }
        }
        // The one place the total order refines IEEE comparison: the two
        // zeros get distinct keys (-0.0 sorts first). Scheduler keys are
        // sums/maxima of non-negative times, so -0.0 never occurs — but the
        // mapping must still round-trip it.
        assert!(f64_key(-0.0) < f64_key(0.0));
        assert_eq!(key_f64(f64_key(-0.0)).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn ready_entry_orders_like_the_ready_task_comparator() {
        // Larger bottom level first; equal levels resolve to the smaller id.
        let hi = ready_entry(5.0, 7);
        let lo = ready_entry(3.0, 2);
        assert!(hi > lo);
        let tie_small = ready_entry(5.0, 3);
        let tie_big = ready_entry(5.0, 9);
        assert!(tie_small > tie_big, "smaller id must pop first on ties");
        assert_eq!(ready_task(ready_entry(5.0, 3)), 3);
        assert_eq!(ready_task(ready_entry(0.0, u32::MAX - 1)), u32::MAX - 1);
    }

    #[test]
    fn group_entry_round_trips_and_orders_by_time_then_seq() {
        let e = group_entry(12.5, 42, 7);
        assert_eq!(group_avail(e), 12.5);
        assert_eq!(group_count(e), 7);
        assert!(group_entry(1.0, 9, 1) < group_entry(2.0, 0, 64));
        assert!(group_entry(2.0, 1, 64) < group_entry(2.0, 2, 1));
        // Splitting a run edits the count in place.
        let split = e - 3;
        assert_eq!(group_avail(split), 12.5);
        assert_eq!(group_count(split), 4);
    }

    #[test]
    fn min_heap_pops_sorted_ascending() {
        let mut next = rng(0xfeed);
        let mut h = MinHeap128::default();
        let mut want: Vec<u128> = (0..500)
            .map(|_| ((next() as u128) << 64) | next() as u128)
            .collect();
        for &e in &want {
            h.push(e);
        }
        want.sort_unstable();
        let got: Vec<u128> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(got, want);
        assert!(h.is_empty());
    }

    #[test]
    fn max_heap_pops_sorted_descending() {
        let mut next = rng(0xbead);
        let mut h = MaxHeap128::with_capacity(64);
        let mut want: Vec<u128> = (0..500)
            .map(|_| ((next() as u128) << 64) | next() as u128)
            .collect();
        for &e in &want {
            h.push(e);
        }
        want.sort_unstable_by(|a, b| b.cmp(a));
        let got: Vec<u128> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_push_pop_matches_std_binary_heap() {
        use std::collections::BinaryHeap;
        let mut next = rng(0xabcdef);
        let mut ours = MaxHeap128::default();
        let mut std_heap: BinaryHeap<u128> = BinaryHeap::new();
        for _ in 0..2000 {
            if next().is_multiple_of(3) {
                assert_eq!(ours.pop(), std_heap.pop());
            } else {
                let e = ((next() as u128) << 64) | next() as u128;
                ours.push(e);
                std_heap.push(e);
            }
            assert_eq!(ours.len(), std_heap.len());
        }
        while let Some(e) = std_heap.pop() {
            assert_eq!(ours.pop(), Some(e));
        }
        assert_eq!(ours.pop(), None);
    }

    #[test]
    fn clear_and_reuse_keeps_working() {
        let mut h = MinHeap128::default();
        h.push(5);
        h.push(1);
        h.clear();
        assert!(h.is_empty());
        h.push(9);
        h.push(4);
        assert_eq!(h.pop(), Some(4));
        assert_eq!(h.pop(), Some(9));
    }
}
