//! Island-model parallel EMTS (extension).
//!
//! The classic coarse-grained parallel evolution strategy: several
//! *islands* evolve independent populations on their own threads and
//! periodically exchange their best individuals (ring migration). For
//! EMTS this buys two things the paper's single population cannot:
//!
//! * **diversity** — each island gets a different RNG stream and therefore
//!   explores a different neighbourhood of the heuristic seeds,
//! * **hardware parallelism across the run**, complementing the per-
//!   generation parallel fitness evaluation of [`crate::parallel`].
//!
//! Implementation: each epoch runs `generations / epochs` generations per
//! island through [`Emts::run_deadline`], warm-started from the island's
//! carried champion (none in epoch 0, so every island starts from the
//! heuristic seeds). After each epoch the ring migrates: island `i + 1`
//! carries island `i`'s champion when it beats its own.

use crate::config::EmtsConfig;
use crate::ea::Emts;
use exec_model::TimeMatrix;
use obs::NoopRecorder;
use ptg::Ptg;
use sched::Allocation;

/// Island-model configuration.
#[derive(Debug, Clone)]
pub struct IslandConfig {
    /// Per-island ES parameters.
    pub base: EmtsConfig,
    /// Number of islands (threads).
    pub islands: usize,
    /// Migration epochs: the base config's `generations` are split into
    /// this many epochs with a ring migration after each.
    pub epochs: usize,
}

impl Default for IslandConfig {
    fn default() -> Self {
        IslandConfig {
            base: EmtsConfig::emts5(),
            islands: 4,
            epochs: 2,
        }
    }
}

/// Result of an island run.
#[derive(Debug, Clone)]
pub struct IslandResult {
    /// Best allocation across all islands.
    pub best: Allocation,
    /// Its makespan.
    pub best_makespan: f64,
    /// Best makespan per island (post-run), in island order.
    pub island_makespans: Vec<f64>,
    /// Total fitness evaluations across all islands, warm re-evaluations
    /// included.
    pub evaluations: usize,
}

/// The island-model scheduler.
#[derive(Debug, Clone, Default)]
pub struct IslandEmts {
    cfg: IslandConfig,
}

impl IslandEmts {
    /// Creates an island EMTS.
    pub fn new(cfg: IslandConfig) -> Self {
        cfg.base.validate();
        assert!(cfg.islands >= 1, "need at least one island");
        assert!(cfg.epochs >= 1, "need at least one epoch");
        IslandEmts { cfg }
    }

    /// Runs the island model; deterministic in `seed` (island `i` uses
    /// stream `seed·islands + i + epoch` per epoch).
    pub fn run(&self, g: &Ptg, matrix: &TimeMatrix, seed: u64) -> IslandResult {
        let cfg = &self.cfg;
        // Per-epoch generation budget (≥ 1 each).
        let gens = (cfg.base.generations / cfg.epochs).max(1);
        let epoch_cfg = EmtsConfig {
            generations: gens,
            parallel_evaluation: false, // islands already use the cores
            ..cfg.base.clone()
        };

        // Island state: the current best allocation carried between epochs
        // (None in epoch 0 → islands start from the heuristic seeds).
        let mut carried: Vec<Option<Allocation>> = vec![None; cfg.islands];
        let mut makespans = vec![f64::INFINITY; cfg.islands];
        let mut evaluations = 0usize;

        for epoch in 0..cfg.epochs {
            let mut results: Vec<Option<(Allocation, f64, usize)>> = Vec::new();
            results.resize_with(cfg.islands, || None);
            std::thread::scope(|scope| {
                for (i, (slot, warm)) in results.iter_mut().zip(&carried).enumerate() {
                    let epoch_cfg = &epoch_cfg;
                    scope.spawn(move || {
                        // Warm start: the carried champion joins the seed
                        // population, so plus-selection never loses it.
                        let stream = seed
                            .wrapping_mul(cfg.islands as u64)
                            .wrapping_add(i as u64)
                            .wrapping_add((epoch as u64) << 32);
                        let r = Emts::new(epoch_cfg.clone()).run_deadline(
                            g,
                            matrix,
                            stream,
                            None,
                            warm.as_slice(),
                            &NoopRecorder,
                        );
                        *slot = Some((r.best, r.best_makespan, r.evaluations));
                    });
                }
            });
            for (i, r) in results.into_iter().enumerate() {
                let (alloc, ms, evals) = r.expect("every island completed");
                carried[i] = Some(alloc);
                makespans[i] = ms;
                evaluations += evals;
            }
            // Ring migration: island i + 1 carries island i's champion
            // into the next epoch when it beats its own.
            if cfg.islands > 1 && epoch + 1 < cfg.epochs {
                let champions: Vec<(Option<Allocation>, f64)> = carried
                    .iter()
                    .cloned()
                    .zip(makespans.iter().copied())
                    .collect();
                for i in 0..cfg.islands {
                    let (donor, donor_ms) = &champions[(i + cfg.islands - 1) % cfg.islands];
                    if *donor_ms < makespans[i] {
                        carried[i] = donor.clone();
                        makespans[i] = *donor_ms;
                    }
                }
            }
        }

        let (winner, &best_makespan) = makespans
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite makespans"))
            .expect("at least one island");
        IslandResult {
            best: carried[winner].clone().expect("islands ran"),
            best_makespan,
            island_makespans: makespans,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::SyntheticModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

    fn setup() -> (Ptg, TimeMatrix) {
        let g = random_ptg(
            &DaggenParams {
                n: 50,
                width: 0.5,
                regularity: 0.5,
                density: 0.3,
                jump: 1,
            },
            &CostConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(8),
        );
        let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 3.1e9, 60);
        (g, m)
    }

    #[test]
    fn islands_never_lose_to_a_single_island_seeded_run() {
        let (g, m) = setup();
        let result = IslandEmts::default().run(&g, &m, 1);
        // Every island starts from the heuristic seeds, so the overall best
        // cannot exceed the seed makespan.
        let solo = Emts::new(EmtsConfig {
            parallel_evaluation: false,
            ..EmtsConfig::emts5()
        })
        .run(&g, &m, 4); // island 0's stream of the default config (seed 1 × 4 islands)
        assert!(result.best_makespan <= solo.seed_makespan + 1e-9);
        assert!(result.best.is_valid_for(&g, 60));
    }

    #[test]
    fn reports_one_makespan_per_island() {
        let (g, m) = setup();
        let cfg = IslandConfig {
            islands: 3,
            epochs: 2,
            ..IslandConfig::default()
        };
        let result = IslandEmts::new(cfg).run(&g, &m, 2);
        assert_eq!(result.island_makespans.len(), 3);
        let min = result
            .island_makespans
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        assert_eq!(min, result.best_makespan);
    }

    #[test]
    fn runs_are_deterministic() {
        let (g, m) = setup();
        let a = IslandEmts::default().run(&g, &m, 5);
        let b = IslandEmts::default().run(&g, &m, 5);
        assert_eq!(a.best_makespan, b.best_makespan);
        assert_eq!(a.island_makespans, b.island_makespans);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn migration_spreads_the_champion() {
        // After migration every island carries something at least as good
        // as the previous epoch's global champion, so the spread of final
        // island makespans must not exceed the single-epoch spread wildly.
        let (g, m) = setup();
        let result = IslandEmts::new(IslandConfig {
            islands: 4,
            epochs: 3,
            ..IslandConfig::default()
        })
        .run(&g, &m, 7);
        let min = result
            .island_makespans
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let max = result
            .island_makespans
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(
            max / min < 1.5,
            "islands diverged: {:?}",
            result.island_makespans
        );
    }

    #[test]
    fn single_island_single_epoch_degenerates_to_plain_emts() {
        let (g, m) = setup();
        let cfg = IslandConfig {
            islands: 1,
            epochs: 1,
            base: EmtsConfig {
                parallel_evaluation: false,
                ..EmtsConfig::emts5()
            },
        };
        let island = IslandEmts::new(cfg.clone()).run(&g, &m, 3);
        let stream = 3u64.wrapping_mul(1).wrapping_add(0);
        let plain = Emts::new(EmtsConfig {
            parallel_evaluation: false,
            ..EmtsConfig::emts5()
        })
        .run(&g, &m, stream);
        assert_eq!(island.best_makespan, plain.best_makespan);
    }

    #[test]
    fn later_epochs_warm_start_from_the_carried_champion() {
        // One island over two epochs is two chained anytime runs: the
        // second starts from the heuristic seeds plus the first one's best.
        let (g, m) = setup();
        let base = EmtsConfig {
            parallel_evaluation: false,
            ..EmtsConfig::emts10()
        };
        let island = IslandEmts::new(IslandConfig {
            base: base.clone(),
            islands: 1,
            epochs: 2,
        })
        .run(&g, &m, 3);
        let epoch = Emts::new(EmtsConfig {
            generations: 5,
            ..base
        });
        let first = epoch.run_deadline(&g, &m, 3, None, &[], &NoopRecorder);
        let second = epoch.run_deadline(
            &g,
            &m,
            3 + (1 << 32),
            None,
            std::slice::from_ref(&first.best),
            &NoopRecorder,
        );
        // The first epoch improved on the seeds, so the warm start is a
        // new individual in the second epoch's population.
        assert!(first.best_makespan < first.seed_makespan);
        assert!(second.best_makespan <= first.best_makespan);
        assert_eq!(island.best, second.best);
        assert_eq!(
            island.best_makespan.to_bits(),
            second.best_makespan.to_bits()
        );
        assert_eq!(island.evaluations, first.evaluations + second.evaluations);
    }

    #[test]
    #[should_panic(expected = "at least one island")]
    fn zero_islands_panics() {
        let _ = IslandEmts::new(IslandConfig {
            islands: 0,
            ..IslandConfig::default()
        });
    }
}
