//! The relative-makespan experiment behind Figures 4 and 5.
//!
//! For every PTG class panel (FFT, Strassen, layered n=100, irregular
//! n=100), both platforms (Chti, Grelon) and both baselines (MCPA, HCPA),
//! compute the per-instance relative makespan `T_baseline / T_EMTS` and
//! aggregate it as mean with 95 % confidence interval — exactly the bars
//! the paper plots. Values above 1.0 mean EMTS wins.

use emts::{Emts, EmtsConfig};
use exec_model::{ExecutionTimeModel, TimeMatrix};
use heuristics::{allocate_and_map, Hcpa, Mcpa};
use obs::Recorder;
use platform::{chti, grelon, Cluster};
use serde::{Deserialize, Serialize};
use stats::summary::ratio_summary;
use stats::Summary;
use workloads::{Corpus, CorpusEntry, CostConfig, PtgClass};

/// Which EMTS preset a figure row uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmtsVariant {
    /// (5+25)-ES, 5 generations.
    Emts5,
    /// (10+100)-ES, 10 generations.
    Emts10,
}

impl EmtsVariant {
    /// The corresponding configuration.
    pub fn config(self) -> EmtsConfig {
        match self {
            EmtsVariant::Emts5 => EmtsConfig::emts5(),
            EmtsVariant::Emts10 => EmtsConfig::emts10(),
        }
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            EmtsVariant::Emts5 => "EMTS5",
            EmtsVariant::Emts10 => "EMTS10",
        }
    }
}

/// One bar of a figure: a (class, platform, baseline) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PanelResult {
    /// PTG class label ("FFT", "Strassen", "layered", "irregular").
    pub class: String,
    /// Platform name ("Chti" or "Grelon").
    pub platform: String,
    /// Baseline heuristic ("MCPA" or "HCPA").
    pub baseline: String,
    /// EMTS variant label.
    pub emts: String,
    /// Mean relative makespan `T_baseline / T_EMTS` with 95 % CI.
    pub rel_makespan: Summary,
    /// Number of instances aggregated.
    pub instances: usize,
}

/// The four figure panels, in the paper's order. Random-PTG panels use the
/// n = 100 instances, like the paper's "layered n=100" / "irregular n=100".
fn panels(corpus: &Corpus) -> Vec<(&'static str, Vec<&CorpusEntry>)> {
    vec![
        ("FFT", corpus.by_class(PtgClass::Fft).collect()),
        ("Strassen", corpus.by_class(PtgClass::Strassen).collect()),
        (
            "layered",
            corpus.by_class_and_size(PtgClass::Layered, 100).collect(),
        ),
        (
            "irregular",
            corpus.by_class_and_size(PtgClass::Irregular, 100).collect(),
        ),
    ]
}

/// Runs the full grid for one execution-time model and EMTS variant.
///
/// `scale` shrinks the corpus (1.0 = paper size); `seed` drives both corpus
/// generation and the EA. Instance `i` of a panel uses EA seed
/// `seed ⊕ hash(instance name)` so runs are reproducible yet independent.
/// Corpus generation and each panel get phase spans, and every EMTS run
/// feeds the recorder.
pub fn relative_makespan_grid<M: ExecutionTimeModel + ?Sized, R: Recorder>(
    model: &M,
    variant: EmtsVariant,
    scale: f64,
    seed: u64,
    rec: &R,
) -> Vec<PanelResult> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let corpus = rec.time("corpus", || {
        Corpus::paper(scale, &CostConfig::default(), &mut rng)
    });
    relative_makespan_grid_on(&corpus, model, variant, seed, rec)
}

/// [`relative_makespan_grid`] over an existing corpus — lets tests and
/// custom campaigns supply arbitrarily small instance sets.
pub fn relative_makespan_grid_on<M: ExecutionTimeModel + ?Sized, R: Recorder>(
    corpus: &Corpus,
    model: &M,
    variant: EmtsVariant,
    seed: u64,
    rec: &R,
) -> Vec<PanelResult> {
    let _grid_span = rec.span("grid");
    let emts = Emts::new(variant.config());
    let platforms = [chti(), grelon()];
    let mut results = Vec::new();

    for (class, entries) in panels(corpus) {
        if entries.is_empty() {
            continue;
        }
        for cluster in &platforms {
            let mut mcpa_ms = Vec::with_capacity(entries.len());
            let mut hcpa_ms = Vec::with_capacity(entries.len());
            let mut emts_ms = Vec::with_capacity(entries.len());
            for entry in &entries {
                let (mcpa, hcpa, best) = run_instance(model, &emts, cluster, entry, seed, rec);
                mcpa_ms.push(mcpa);
                hcpa_ms.push(hcpa);
                emts_ms.push(best);
                if R::ENABLED {
                    rec.add("grid.instances", 1);
                }
            }
            for (baseline, series) in [("MCPA", &mcpa_ms), ("HCPA", &hcpa_ms)] {
                results.push(PanelResult {
                    class: class.to_string(),
                    platform: cluster.name.clone(),
                    baseline: baseline.to_string(),
                    emts: variant.label().to_string(),
                    rel_makespan: ratio_summary(series, &emts_ms),
                    instances: entries.len(),
                });
            }
        }
    }
    results
}

/// Runs one corpus instance: returns `(T_MCPA, T_HCPA, T_EMTS)`.
fn run_instance<M: ExecutionTimeModel + ?Sized, R: Recorder>(
    model: &M,
    emts: &Emts,
    cluster: &Cluster,
    entry: &CorpusEntry,
    seed: u64,
    rec: &R,
) -> (f64, f64, f64) {
    let matrix = TimeMatrix::compute(&entry.ptg, model, cluster.speed_flops(), cluster.processors);
    let mcpa = rec.time("baselines", || {
        allocate_and_map(&Mcpa, &entry.ptg, &matrix).1
    });
    let hcpa = rec.time("baselines", || {
        allocate_and_map(&Hcpa, &entry.ptg, &matrix).1
    });
    let ea_seed = seed ^ fxhash_str(&entry.name);
    let result = emts.run_recorded(&entry.ptg, &matrix, ea_seed, rec);
    (mcpa, hcpa, result.best_makespan)
}

/// Tiny deterministic string hash (FNV-1a) so instances get distinct but
/// reproducible EA seeds.
fn fxhash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::{Amdahl, SyntheticModel};
    use obs::NoopRecorder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use workloads::corpus::CorpusEntry;
    use workloads::daggen::{random_ptg, DaggenParams};
    use workloads::fft::fft_ptg;
    use workloads::strassen::strassen_ptg;

    /// A minimal corpus covering all four panels: one FFT, one Strassen,
    /// one layered n=100, one irregular n=100 — keeps the debug-mode test
    /// runtime in seconds instead of minutes.
    fn tiny_corpus() -> Corpus {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let costs = CostConfig::default();
        let mk_random = |jump: usize, rng: &mut ChaCha8Rng| {
            random_ptg(
                &DaggenParams {
                    n: 100,
                    width: 0.5,
                    regularity: 0.8,
                    density: 0.2,
                    jump,
                },
                &costs,
                rng,
            )
        };
        let entries = vec![
            CorpusEntry {
                ptg: fft_ptg(4, &costs, &mut rng),
                class: PtgClass::Fft,
                n: 15,
                name: "fft_tiny".into(),
            },
            CorpusEntry {
                ptg: strassen_ptg(&costs, &mut rng),
                class: PtgClass::Strassen,
                n: 23,
                name: "strassen_tiny".into(),
            },
            CorpusEntry {
                ptg: mk_random(0, &mut rng),
                class: PtgClass::Layered,
                n: 100,
                name: "layered_tiny".into(),
            },
            CorpusEntry {
                ptg: mk_random(2, &mut rng),
                class: PtgClass::Irregular,
                n: 100,
                name: "irregular_tiny".into(),
            },
        ];
        Corpus { entries }
    }

    #[test]
    fn grid_covers_all_panel_platform_baseline_cells() {
        let results = relative_makespan_grid_on(
            &tiny_corpus(),
            &SyntheticModel::default(),
            EmtsVariant::Emts5,
            3,
            &NoopRecorder,
        );
        // 4 classes × 2 platforms × 2 baselines
        assert_eq!(results.len(), 16);
        for r in &results {
            assert!(r.instances > 0, "{}: empty panel", r.class);
            assert!(r.rel_makespan.mean.is_finite());
        }
    }

    #[test]
    fn emts_never_loses_on_average() {
        // Plus-selection seeds EMTS with the baselines, so every ratio is
        // ≥ 1 per instance — the mean must be too.
        let corpus = tiny_corpus();
        for model_results in [
            relative_makespan_grid_on(&corpus, &Amdahl, EmtsVariant::Emts5, 5, &NoopRecorder),
            relative_makespan_grid_on(
                &corpus,
                &SyntheticModel::default(),
                EmtsVariant::Emts5,
                5,
                &NoopRecorder,
            ),
        ] {
            for r in model_results {
                assert!(
                    r.rel_makespan.mean >= 1.0 - 1e-9,
                    "{} {} vs {}: mean {}",
                    r.class,
                    r.platform,
                    r.baseline,
                    r.rel_makespan.mean
                );
            }
        }
    }

    #[test]
    fn results_are_reproducible() {
        let corpus = tiny_corpus();
        let a = relative_makespan_grid_on(&corpus, &Amdahl, EmtsVariant::Emts5, 9, &NoopRecorder);
        let b = relative_makespan_grid_on(&corpus, &Amdahl, EmtsVariant::Emts5, 9, &NoopRecorder);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rel_makespan.mean, y.rel_makespan.mean);
        }
    }

    #[test]
    fn empty_panels_are_skipped_not_crashed() {
        let mut corpus = tiny_corpus();
        corpus.entries.retain(|e| e.class == PtgClass::Fft);
        let results =
            relative_makespan_grid_on(&corpus, &Amdahl, EmtsVariant::Emts5, 1, &NoopRecorder);
        assert_eq!(results.len(), 4); // 1 class × 2 platforms × 2 baselines
    }

    #[test]
    fn string_hash_is_stable_and_spreads() {
        assert_eq!(fxhash_str("abc"), fxhash_str("abc"));
        assert_ne!(fxhash_str("abc"), fxhash_str("abd"));
    }
}
