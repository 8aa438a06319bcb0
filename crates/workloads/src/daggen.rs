//! DAGGEN-style random PTG generation (§IV-C, "Synthetic PTGs").
//!
//! Four shape parameters, following Suter's DAGGEN generator as used in the
//! paper and its predecessors (Hunold 2010, Hunold et al. 2008, Desprez &
//! Suter 2010):
//!
//! * **width** — scales the mean number of tasks per precedence level
//!   (`width · √n` tasks per level, so small values give chains and large
//!   values fork-join-like graphs),
//! * **regularity** — uniformity of the per-level task count (1.0 = all
//!   levels equal, 0.0 = counts jitter by up to ±100 %),
//! * **density** — probability of adding each possible edge from a
//!   candidate parent level,
//! * **jump** — edges may span up to `jump + 1` precedence levels
//!   (`jump = 0` produces *layered* PTGs with adjacent-level edges only).
//!
//! Every non-level-0 task keeps at least one parent on the level directly
//! above it, which pins tasks to their intended precedence level and keeps
//! the graph connected level-to-level.

use crate::costs::{CostConfig, CostPattern};
use ptg::{Ptg, PtgBuilder, TaskId};
use rand::Rng;

/// Shape parameters for one random PTG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaggenParams {
    /// Total number of tasks `n ≥ 1`.
    pub n: usize,
    /// Width parameter in `(0, 1]` (paper: 0.2, 0.5, 0.8).
    pub width: f64,
    /// Regularity in `[0, 1]` (paper: 0.2, 0.8).
    pub regularity: f64,
    /// Density in `(0, 1]` (paper: 0.2, 0.8).
    pub density: f64,
    /// Maximum extra levels an edge may span (paper: 0 layered; 1, 2, 4
    /// irregular).
    pub jump: usize,
}

impl DaggenParams {
    fn check(&self) {
        assert!(self.n >= 1, "need at least one task");
        assert!(self.width > 0.0 && self.width <= 1.0, "width in (0,1]");
        assert!(
            (0.0..=1.0).contains(&self.regularity),
            "regularity in [0,1]"
        );
        assert!(
            self.density > 0.0 && self.density <= 1.0,
            "density in (0,1]"
        );
    }

    /// True if this parameter set generates layered PTGs.
    pub fn is_layered(&self) -> bool {
        self.jump == 0
    }
}

/// Generates the per-level task counts for `n` tasks.
fn level_sizes<R: Rng + ?Sized>(params: &DaggenParams, rng: &mut R) -> Vec<usize> {
    let mean_width = (params.width * (params.n as f64).sqrt()).max(1.0);
    let jitter = 1.0 - params.regularity;
    let mut sizes = Vec::new();
    let mut remaining = params.n;
    while remaining > 0 {
        let factor = 1.0 + jitter * rng.gen_range(-1.0..=1.0);
        let size = (mean_width * factor).round().max(1.0) as usize;
        let size = size.min(remaining);
        sizes.push(size);
        remaining -= size;
    }
    sizes
}

/// Generates a random PTG with the given shape and random task costs.
///
/// For **layered** parameter sets (`jump == 0`) the paper specifies that
/// "the number of operations of tasks in one layer is similar": all tasks of
/// a layer share the cost pattern and a dataset size jittered by ±10 %.
/// Irregular sets draw every task cost independently.
pub fn random_ptg<R: Rng + ?Sized>(params: &DaggenParams, costs: &CostConfig, rng: &mut R) -> Ptg {
    params.check();
    let sizes = level_sizes(params, rng);
    let mut b = PtgBuilder::with_capacity(params.n);
    // Tasks are added level by level, so level `l` holds the ids
    // `start[l]..start[l + 1]`.
    let mut start = Vec::with_capacity(sizes.len() + 1);
    start.push(0);

    for (l, &size) in sizes.iter().enumerate() {
        // Layered corpora share the cost shape inside a level.
        let layer_pattern = CostPattern::ALL[rng.gen_range(0..CostPattern::ALL.len())];
        let layer_d = rng.gen_range(costs.d_min..=costs.d_max);
        for i in 0..size {
            let c = if params.is_layered() {
                let jitter = rng.gen_range(0.9..=1.1);
                let d = (layer_d * jitter).clamp(costs.d_min, costs.d_max);
                costs.sample_with(rng, layer_pattern, d)
            } else {
                costs.sample(rng)
            };
            b.add_task(task_name(l, i), c.flop, c.alpha);
        }
        start.push(b.task_count());
    }

    for l in 1..sizes.len() {
        let lowest_parent_level = l.saturating_sub(1 + params.jump);
        let direct = start[l - 1]..start[l];
        for child in start[l]..start[l + 1] {
            let child = TaskId::from_index(child);
            // Guaranteed parent on the adjacent level pins the precedence
            // level of `child` to `l`.
            let anchor = TaskId::from_index(direct.start + rng.gen_range(0..direct.len()));
            b.add_edge(anchor, child).expect("first edge to child");
            // Additional parents: each candidate in the allowed span joins
            // with probability `density`.
            for cand in start[lowest_parent_level]..start[l] {
                let cand = TaskId::from_index(cand);
                if cand != anchor && rng.gen_bool(params.density) {
                    let _ = b.add_edge_dedup(cand, child);
                }
            }
        }
    }
    b.build().expect("level-ordered edges are acyclic")
}

/// The name `t{l}_{i}` of task `i` on level `l`, written digit by digit:
/// on the flat builder, `format!` was the largest cost left in DAGGEN.
fn task_name(l: usize, i: usize) -> String {
    let mut name = String::with_capacity(12);
    name.push('t');
    push_decimal(&mut name, l);
    name.push('_');
    push_decimal(&mut name, i);
    name
}

/// Appends the decimal digits of `x` to `s`.
fn push_decimal(s: &mut String, mut x: usize) {
    let mut digits = [0u8; 20];
    let mut k = digits.len();
    loop {
        k -= 1;
        digits[k] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    s.extend(digits[k..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::levels::{is_layered, PrecedenceLevels};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn params(n: usize, width: f64, jump: usize) -> DaggenParams {
        DaggenParams {
            n,
            width,
            regularity: 0.8,
            density: 0.5,
            jump,
        }
    }

    #[test]
    fn generates_exactly_n_tasks() {
        for n in [1usize, 5, 20, 50, 100] {
            let g = random_ptg(&params(n, 0.5, 0), &CostConfig::default(), &mut rng(1));
            assert_eq!(g.task_count(), n);
        }
    }

    #[test]
    fn jump_zero_yields_layered_graphs() {
        for seed in 0..5 {
            let g = random_ptg(&params(40, 0.5, 0), &CostConfig::default(), &mut rng(seed));
            assert!(is_layered(&g), "seed {seed}");
        }
    }

    #[test]
    fn jump_allows_longer_edges() {
        // With jump = 4 and high density, at least one generated graph has
        // an edge spanning more than one level.
        let mut found = false;
        for seed in 0..10 {
            let p = DaggenParams {
                n: 60,
                width: 0.3,
                regularity: 0.8,
                density: 0.8,
                jump: 4,
            };
            let g = random_ptg(&p, &CostConfig::default(), &mut rng(seed));
            let lv = PrecedenceLevels::compute(&g);
            if g.edges().any(|(a, b)| lv.level_of(b) > lv.level_of(a) + 1) {
                found = true;
                break;
            }
        }
        assert!(found, "no jump edge in 10 seeds");
    }

    #[test]
    fn wider_parameter_gives_wider_graphs() {
        let narrow: f64 = (0..8)
            .map(|s| {
                let g = random_ptg(&params(100, 0.2, 0), &CostConfig::default(), &mut rng(s));
                PrecedenceLevels::compute(&g).max_width() as f64
            })
            .sum::<f64>()
            / 8.0;
        let wide: f64 = (0..8)
            .map(|s| {
                let g = random_ptg(&params(100, 0.8, 0), &CostConfig::default(), &mut rng(s));
                PrecedenceLevels::compute(&g).max_width() as f64
            })
            .sum::<f64>()
            / 8.0;
        assert!(
            wide > narrow,
            "expected width 0.8 ({wide}) wider than 0.2 ({narrow})"
        );
    }

    #[test]
    fn higher_density_gives_more_edges() {
        let sparse_params = DaggenParams {
            density: 0.2,
            ..params(80, 0.5, 0)
        };
        let dense_params = DaggenParams {
            density: 0.8,
            ..params(80, 0.5, 0)
        };
        let sparse: usize = (0..8)
            .map(|s| random_ptg(&sparse_params, &CostConfig::default(), &mut rng(s)).edge_count())
            .sum();
        let dense: usize = (0..8)
            .map(|s| random_ptg(&dense_params, &CostConfig::default(), &mut rng(s)).edge_count())
            .sum();
        assert!(dense > sparse);
    }

    #[test]
    fn every_non_source_level_task_has_a_parent() {
        let g = random_ptg(&params(60, 0.6, 2), &CostConfig::default(), &mut rng(9));
        let lv = PrecedenceLevels::compute(&g);
        for v in g.task_ids() {
            if lv.level_of(v) > 0 {
                assert!(!g.predecessors(v).is_empty());
            }
        }
    }

    #[test]
    fn layered_graphs_have_similar_costs_per_level() {
        let g = random_ptg(&params(60, 0.6, 0), &CostConfig::default(), &mut rng(5));
        let lv = PrecedenceLevels::compute(&g);
        for (l, tasks) in lv.iter() {
            if tasks.len() < 2 {
                continue;
            }
            let flops: Vec<f64> = tasks.iter().map(|&v| g.task(v).flop).collect();
            let max = flops.iter().copied().fold(f64::MIN, f64::max);
            let min = flops.iter().copied().fold(f64::MAX, f64::min);
            // Same pattern, d within ±10 %, a in [64, 512]: ratio bounded by
            // (512/64) · (1.1/0.9)^1.5 < 11 — far tighter than the ~4000×
            // spread unconstrained sampling can produce.
            assert!(
                max / min < 16.0,
                "level {l} cost spread too wide: {min} .. {max}"
            );
        }
    }

    #[test]
    fn task_names_match_their_format_spelling() {
        for (l, i) in [(0, 0), (3, 9), (10, 99), (100, 1000), (7, usize::MAX)] {
            assert_eq!(task_name(l, i), format!("t{l}_{i}"));
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let p = params(50, 0.5, 2);
        let a = random_ptg(&p, &CostConfig::default(), &mut rng(7));
        let b = random_ptg(&p, &CostConfig::default(), &mut rng(7));
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.tasks(), b.tasks());
        assert!(a.edges().eq(b.edges()));
    }

    #[test]
    fn single_task_graph_works() {
        let g = random_ptg(&params(1, 0.5, 0), &CostConfig::default(), &mut rng(1));
        assert_eq!(g.task_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "width in (0,1]")]
    fn invalid_width_panics() {
        let p = DaggenParams {
            width: 0.0,
            ..params(10, 0.5, 0)
        };
        let _ = random_ptg(&p, &CostConfig::default(), &mut rng(1));
    }
}
