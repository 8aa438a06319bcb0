//! Single-point crossover on the allocation vector (extension).
//!
//! The paper's ES is mutation-only (§III-C): "no crossover". Its
//! conclusions nevertheless ask for comparisons with "different
//! evolutionary methods", and the classic GA move on a flat integer
//! vector is single-point recombination — the child inherits the first
//! `cut` alleles from one parent and the rest from another. This module
//! provides exactly that as an *opt-in* variant
//! ([`crate::EmtsConfig::crossover_prob`], 0.0 by default): with the
//! probability gate closed, no RNG is drawn and the run is bit-identical
//! to the paper's pure ES.

use rand::Rng;
use sched::Allocation;

/// Recombines `p` and `q` at one uniformly random cut point.
///
/// The child is `p[..cut] ++ q[cut..]` with `cut ∈ [1, V)`, so both parents
/// always contribute at least one allele (for `V < 2` there is no interior
/// cut and the child is a plain copy of `p`).
///
/// Deterministic in the RNG state: one `gen_range` draw, always.
pub fn single_point<R: Rng + ?Sized>(p: &Allocation, q: &Allocation, rng: &mut R) -> Allocation {
    assert_eq!(p.len(), q.len(), "parents must allocate the same PTG");
    let v = p.len();
    let mut child = p.clone();
    if v < 2 {
        return child;
    }
    let cut = rng.gen_range(1..v);
    for i in cut..v {
        let t = ptg::TaskId::from_index(i);
        child.set(t, q.of(t));
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn child_is_a_prefix_of_p_and_a_suffix_of_q() {
        let p = Allocation::uniform(12, 3);
        let q = Allocation::uniform(12, 9);
        let child = single_point(&p, &q, &mut rng(1));
        let genes = child.as_slice();
        let cut = genes.iter().position(|&s| s == 9).expect("suffix from q");
        assert!((1..12).contains(&cut));
        assert!(genes[..cut].iter().all(|&s| s == 3));
        assert!(genes[cut..].iter().all(|&s| s == 9));
    }

    #[test]
    fn identical_parents_yield_a_copy() {
        let p = Allocation::uniform(8, 5);
        let child = single_point(&p, &p.clone(), &mut rng(3));
        assert_eq!(child.as_slice(), p.as_slice());
    }

    #[test]
    fn crossover_is_seed_deterministic() {
        let p = Allocation::uniform(30, 2);
        let q = Allocation::uniform(30, 17);
        let a = single_point(&p, &q, &mut rng(9));
        let b = single_point(&p, &q, &mut rng(9));
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn single_task_graph_degenerates_to_a_copy() {
        let p = Allocation::uniform(1, 6);
        let q = Allocation::uniform(1, 2);
        let mut r = rng(4);
        let child = single_point(&p, &q, &mut r);
        assert_eq!(child.as_slice(), &[6]);
        // Degenerate case draws no RNG at all: the next draw matches a
        // fresh stream from the same seed.
        assert_eq!(
            rand::Rng::gen::<u64>(&mut r),
            rand::Rng::gen::<u64>(&mut rng(4))
        );
    }

    #[test]
    #[should_panic(expected = "same PTG")]
    fn mismatched_parents_panic() {
        let p = Allocation::uniform(4, 1);
        let q = Allocation::uniform(5, 1);
        let _ = single_point(&p, &q, &mut rng(0));
    }
}
