//! Streaming DAGGEN workloads: generate-and-discard PTG corpora of
//! unbounded size, shardable and resumable.
//!
//! [`Corpus::paper`](crate::Corpus::paper) materializes every instance up
//! front, which caps experiments at what fits in memory and ties every
//! instance to one sequentially-consumed RNG. This module instead derives
//! item `i` of a stream purely from `(seed, i)`:
//!
//! * [`item_seed`] mixes the stream seed and the item index through
//!   SplitMix64 so per-item RNG streams are statistically independent,
//! * [`item_params`] cycles the paper's §IV-C DAGGEN grid (size × width ×
//!   regularity × density × jump, 144 points) as a pure function of the
//!   index,
//! * [`PtgStream`] iterates one **shard** — indices `k, k + M, k + 2M, …` of
//!   an `M`-way split — generating each PTG on the fly and yielding the
//!   positioned per-item RNG so callers can draw further item-local
//!   randomness (e.g. an allocation) deterministically.
//!
//! Because items are index-addressed, any shard layout and any
//! interruption point reproduce the same per-item results: the union of
//! the shards *is* the single-shard stream. [`StreamCheckpoint`] exploits
//! this with an order-independent fingerprint (XOR of per-item hashes), so
//! "resumed sharded run equals uninterrupted run" is checkable bit for
//! bit.

use crate::corpus::{DENSITIES, IRREGULAR_JUMPS, REGULARITIES, SIZES, WIDTHS};
use crate::costs::CostConfig;
use crate::daggen::{random_ptg, DaggenParams};
use ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer — the standard 64-bit seed scrambler.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG seed of stream item `index`: a pure function of `(seed, index)`, so
/// items can be generated in any order, on any shard, and still come out
/// identical.
pub fn item_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

/// Shape parameters of stream item `index`: the §IV-C grid traversed as an
/// odometer (jump fastest, then density, regularity, width, size), wrapping
/// every 144 items. Layered (`jump = 0`) and irregular shapes interleave
/// exactly as in [`Corpus::paper`](crate::Corpus::paper)'s grid.
pub fn item_params(index: u64) -> DaggenParams {
    let mut i = index;
    let mut pick = |len: usize| {
        let slot = (i % len as u64) as usize;
        i /= len as u64;
        slot
    };
    let jumps_with_layered = 1 + IRREGULAR_JUMPS.len();
    let jump_slot = pick(jumps_with_layered);
    DaggenParams {
        jump: if jump_slot == 0 {
            0
        } else {
            IRREGULAR_JUMPS[jump_slot - 1]
        },
        density: DENSITIES[pick(DENSITIES.len())],
        regularity: REGULARITIES[pick(REGULARITIES.len())],
        width: WIDTHS[pick(WIDTHS.len())],
        n: SIZES[pick(SIZES.len())],
    }
}

/// One generated stream item.
#[derive(Debug)]
pub struct StreamItem {
    /// Global stream index (shard-independent).
    pub index: u64,
    /// The shape this item was generated with.
    pub params: DaggenParams,
    /// The generated graph.
    pub ptg: Ptg,
    /// The item RNG, positioned *after* graph generation — draw any further
    /// item-local randomness (allocations, perturbations) from here and it
    /// stays deterministic per index.
    pub rng: ChaCha8Rng,
}

/// Generates stream item `index` of the stream with the given `seed`.
pub fn item(seed: u64, index: u64, costs: &CostConfig) -> StreamItem {
    let params = item_params(index);
    let mut rng = ChaCha8Rng::seed_from_u64(item_seed(seed, index));
    let ptg = random_ptg(&params, costs, &mut rng);
    StreamItem {
        index,
        params,
        ptg,
        rng,
    }
}

/// Number of items shard `shard` of `shard_count` holds in a stream of
/// `total` items.
pub fn shard_len(total: u64, shard: u32, shard_count: u32) -> u64 {
    assert!(shard < shard_count, "shard {shard} of {shard_count}");
    let (total, shard, m) = (total, shard as u64, shard_count as u64);
    total.saturating_sub(shard).div_ceil(m)
}

/// A lazily-generated shard of a PTG stream: yields items
/// `shard, shard + M, shard + 2M, …` below `total`, one graph at a time.
#[derive(Debug, Clone)]
pub struct PtgStream {
    seed: u64,
    costs: CostConfig,
    next: u64,
    total: u64,
    stride: u64,
}

impl PtgStream {
    /// The full single-shard stream of `total` items.
    pub fn new(seed: u64, total: u64, costs: CostConfig) -> Self {
        Self::shard(seed, total, 0, 1, costs)
    }

    /// Shard `shard` of an `shard_count`-way split of the stream.
    pub fn shard(seed: u64, total: u64, shard: u32, shard_count: u32, costs: CostConfig) -> Self {
        assert!(shard < shard_count, "shard {shard} of {shard_count}");
        PtgStream {
            seed,
            costs,
            next: shard as u64,
            total,
            stride: shard_count as u64,
        }
    }

    /// Advances past `items` items without generating them — O(1) resume.
    /// (Named to stay clear of `Iterator::skip`, which is O(n) and
    /// by-value.)
    pub fn skip_items(&mut self, items: u64) {
        self.next = self.next.saturating_add(items.saturating_mul(self.stride));
    }

    /// Global index of the next item this shard will yield.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Items left in this shard.
    pub fn remaining(&self) -> u64 {
        if self.next >= self.total {
            0
        } else {
            (self.total - self.next).div_ceil(self.stride)
        }
    }
}

impl Iterator for PtgStream {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        if self.next >= self.total {
            return None;
        }
        let it = item(self.seed, self.next, &self.costs);
        self.next += self.stride;
        Some(it)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining() as usize;
        (n, Some(n))
    }
}

/// Progress snapshot of a (possibly sharded) streaming run.
///
/// The `fingerprint` folds one hash per completed item —
/// `splitmix64(splitmix64(index) ^ result_bits)` — with XOR, so it is
/// independent of completion *order* but sensitive to every `(index,
/// result)` pair. Shard fingerprints XOR together into exactly the
/// single-shard fingerprint, and a resumed run reproduces the
/// uninterrupted one bit for bit. Timing never enters the snapshot;
/// everything here is deterministic given `(seed, total)` and the set of
/// completed items.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    /// Snapshot format version.
    pub version: u32,
    /// Stream seed.
    pub seed: u64,
    /// Stream length in items.
    pub total: u64,
    /// Number of shards the stream is split into.
    pub shard_count: u32,
    /// Items completed so far, per shard (each shard consumes its indices
    /// in ascending order, so a count pinpoints the resume position).
    pub done: Vec<u64>,
    /// Total tasks of all completed items.
    pub tasks: u64,
    /// Order-independent XOR fingerprint of all completed items.
    pub fingerprint: u64,
    /// Sum of per-item results (association order follows completion
    /// order, so unlike `fingerprint` the low bits may differ between
    /// shard layouts — report it, don't compare it).
    pub result_sum: f64,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

impl StreamCheckpoint {
    /// An empty snapshot for a fresh run.
    pub fn new(seed: u64, total: u64, shard_count: u32) -> Self {
        StreamCheckpoint {
            version: CHECKPOINT_VERSION,
            seed,
            total,
            shard_count,
            done: vec![0; shard_count as usize],
            tasks: 0,
            fingerprint: 0,
            result_sum: 0.0,
        }
    }

    /// Folds one completed item into the snapshot. `result` is the item's
    /// scalar outcome (for the scheduling harness: the makespan); its exact
    /// bit pattern enters the fingerprint.
    pub fn fold(&mut self, shard: u32, index: u64, tasks: u64, result: f64) {
        self.done[shard as usize] += 1;
        self.tasks += tasks;
        self.fingerprint ^= splitmix64(splitmix64(index) ^ result.to_bits());
        self.result_sum += result;
    }

    /// Items completed across all shards.
    pub fn items_done(&self) -> u64 {
        self.done.iter().sum()
    }

    /// True when every shard has consumed its whole index set.
    pub fn is_complete(&self) -> bool {
        self.done
            .iter()
            .enumerate()
            .all(|(k, &d)| d >= shard_len(self.total, k as u32, self.shard_count))
    }

    /// True when this snapshot belongs to the run described by the
    /// arguments (same seed, length, shard layout and format version).
    pub fn matches(&self, seed: u64, total: u64, shard_count: u32) -> bool {
        self.version == CHECKPOINT_VERSION
            && self.seed == seed
            && self.total == total
            && self.shard_count == shard_count
            && self.done.len() == shard_count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_seeds_differ_across_indices_and_seeds() {
        let a = item_seed(1, 0);
        let b = item_seed(1, 1);
        let c = item_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, item_seed(1, 0));
    }

    #[test]
    fn params_cycle_the_full_grid() {
        let grid = (SIZES.len() * WIDTHS.len() * REGULARITIES.len() * DENSITIES.len() * 4) as u64;
        assert_eq!(grid, 144);
        let mut layered = 0;
        let mut seen = std::collections::HashSet::new();
        for i in 0..grid {
            let p = item_params(i);
            if p.jump == 0 {
                layered += 1;
            }
            seen.insert((
                p.n,
                p.jump,
                p.width.to_bits(),
                p.regularity.to_bits(),
                p.density.to_bits(),
            ));
        }
        // One layered shape per (density, regularity, width, n) point …
        assert_eq!(layered, grid / 4);
        // … and no grid point repeats within a cycle.
        assert_eq!(seen.len(), grid as usize);
        // The cycle wraps.
        assert_eq!(item_params(0), item_params(grid));
    }

    #[test]
    fn items_are_reproducible_and_index_addressed() {
        let costs = CostConfig::default();
        let a = item(7, 5, &costs);
        let b = item(7, 5, &costs);
        assert_eq!(a.ptg.tasks(), b.ptg.tasks());
        assert!(a.ptg.edges().eq(b.ptg.edges()));
        assert_eq!(a.params, b.params);
        // The yielded RNGs continue identically.
        let (mut ra, mut rb) = (a.rng, b.rng);
        use rand::Rng;
        assert_eq!(ra.gen::<u64>(), rb.gen::<u64>());
    }

    #[test]
    fn shards_partition_the_stream() {
        let total = 23u64;
        let m = 4u32;
        let mut indices = Vec::new();
        for k in 0..m {
            let shard: Vec<u64> = PtgStream::shard(11, total, k, m, CostConfig::default())
                .map(|it| it.index)
                .collect();
            assert_eq!(shard.len() as u64, shard_len(total, k, m));
            indices.extend(shard);
        }
        indices.sort_unstable();
        assert_eq!(indices, (0..total).collect::<Vec<u64>>());
    }

    #[test]
    fn sharded_items_match_the_single_shard_stream() {
        let costs = CostConfig::default();
        let full: Vec<StreamItem> = PtgStream::new(3, 9, costs.clone()).collect();
        for it in PtgStream::shard(3, 9, 2, 3, costs) {
            let same = &full[it.index as usize];
            assert_eq!(it.index, same.index);
            assert_eq!(it.ptg.tasks(), same.ptg.tasks());
            assert!(it.ptg.edges().eq(same.ptg.edges()));
        }
    }

    #[test]
    fn skip_resumes_exactly_where_consumption_stopped() {
        let costs = CostConfig::default();
        let mut consumed = PtgStream::shard(5, 40, 1, 3, costs.clone());
        for _ in 0..4 {
            consumed.next();
        }
        let mut skipped = PtgStream::shard(5, 40, 1, 3, costs);
        skipped.skip_items(4);
        assert_eq!(skipped.next_index(), consumed.next_index());
        assert_eq!(skipped.remaining(), consumed.remaining());
        let a: Vec<u64> = consumed.map(|it| it.index).collect();
        let b: Vec<u64> = skipped.map(|it| it.index).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_is_order_and_shard_independent() {
        let results: Vec<(u64, u64, f64)> =
            (0..50).map(|i| (i, 10 + i % 3, 0.5 + i as f64)).collect();
        // Single shard, ascending order.
        let mut single = StreamCheckpoint::new(1, 50, 1);
        for &(i, t, r) in &results {
            single.fold(0, i, t, r);
        }
        // Four shards, each folding its own indices (reverse order inside
        // the shard, to prove order-independence).
        let mut sharded = StreamCheckpoint::new(1, 50, 4);
        for k in 0..4u32 {
            for &(i, t, r) in results.iter().rev() {
                if i % 4 == k as u64 {
                    sharded.fold(k, i, t, r);
                }
            }
        }
        assert_eq!(single.fingerprint, sharded.fingerprint);
        assert_eq!(single.tasks, sharded.tasks);
        assert!(single.is_complete());
        assert!(sharded.is_complete());
        // A different result at one index changes the fingerprint.
        let mut tampered = StreamCheckpoint::new(1, 50, 1);
        for &(i, t, r) in &results {
            tampered.fold(0, i, t, if i == 17 { r + 1.0 } else { r });
        }
        assert_ne!(single.fingerprint, tampered.fingerprint);
    }

    #[test]
    fn completeness_tracks_per_shard_progress() {
        let mut cp = StreamCheckpoint::new(2, 10, 3);
        assert!(!cp.is_complete());
        // Shard lengths for total=10, M=3: 4, 3, 3.
        assert_eq!(shard_len(10, 0, 3), 4);
        assert_eq!(shard_len(10, 1, 3), 3);
        assert_eq!(shard_len(10, 2, 3), 3);
        cp.done = vec![4, 3, 2];
        assert!(!cp.is_complete());
        cp.done = vec![4, 3, 3];
        assert!(cp.is_complete());
        assert_eq!(cp.items_done(), 10);
    }

    #[test]
    fn checkpoint_identity_is_checked_on_resume() {
        let cp = StreamCheckpoint::new(9, 100, 2);
        assert!(cp.matches(9, 100, 2));
        assert!(!cp.matches(8, 100, 2));
        assert!(!cp.matches(9, 101, 2));
        assert!(!cp.matches(9, 100, 3));
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let mut cp = StreamCheckpoint::new(4, 20, 2);
        cp.fold(0, 0, 100, 123.456);
        cp.fold(1, 1, 23, 7.25);
        let json = serde_json::to_string(&cp).unwrap();
        let back: StreamCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cp);
        // The fingerprint survives exactly (u64, not a lossy float).
        assert_eq!(back.fingerprint, cp.fingerprint);
    }

    #[test]
    fn empty_and_tiny_streams_work() {
        assert_eq!(PtgStream::new(1, 0, CostConfig::default()).count(), 0);
        assert_eq!(shard_len(0, 0, 1), 0);
        assert_eq!(shard_len(1, 1, 4), 0);
        let items: Vec<u64> = PtgStream::shard(1, 2, 3, 5, CostConfig::default())
            .map(|it| it.index)
            .collect();
        assert!(items.is_empty());
    }
}
