//! Streaming DAGGEN workloads: generate-and-discard PTG corpora of
//! unbounded size.
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
//! * [`item`] generates one PTG on the fly and yields the positioned
//!   per-item RNG so callers can draw further item-local randomness (e.g.
//!   an allocation) deterministically.

use crate::corpus::{DENSITIES, IRREGULAR_JUMPS, REGULARITIES, SIZES, WIDTHS};
use crate::costs::CostConfig;
use crate::daggen::{random_ptg, DaggenParams};
use ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finalizer — the standard 64-bit seed scrambler.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG seed of stream item `index`: a pure function of `(seed, index)`, so
/// items can be generated in any order and still come out identical.
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
    /// Stream index.
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
}
