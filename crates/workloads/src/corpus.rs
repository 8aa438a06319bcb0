//! The paper's full evaluation corpus (§IV-C).
//!
//! * 400 FFT PTGs (100 each of the 2/4/8/16-level shapes),
//! * 100 Strassen PTGs,
//! * 108 layered random PTGs — the cross product width × regularity ×
//!   density × size with `jump = 0`, 3 instances each
//!   (3·2·2·3·3 = 108),
//! * 324 irregular random PTGs — the same cross product × jump ∈ {1,2,4}, 3
//!   instances each (3·2·2·3·3·3 = 324).
//!
//! `scale` shrinks instance counts proportionally for quick runs; the
//! parameter grid itself is never reduced.

use crate::costs::CostConfig;
use crate::daggen::{random_ptg, DaggenParams};
use crate::fft::fft_ptg;
use crate::strassen::strassen_ptg;
use ptg::Ptg;
use rand::Rng;

/// The four PTG classes of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtgClass {
    /// FFT task graphs.
    Fft,
    /// Strassen matrix multiplication.
    Strassen,
    /// Random layered PTGs (`jump = 0`).
    Layered,
    /// Random irregular PTGs (`jump ∈ {1, 2, 4}`).
    Irregular,
}

impl PtgClass {
    /// Display label matching the figure captions.
    pub fn label(self) -> &'static str {
        match self {
            PtgClass::Fft => "FFT",
            PtgClass::Strassen => "Strassen",
            PtgClass::Layered => "layered",
            PtgClass::Irregular => "irregular",
        }
    }
}

/// One corpus instance: a generated PTG plus its provenance.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The generated graph.
    pub ptg: Ptg,
    /// Which figure panel this instance belongs to.
    pub class: PtgClass,
    /// Task count (pre-computed for filtering, e.g. the paper plots the
    /// `n = 100` panels for random PTGs).
    pub n: usize,
    /// Instance description, e.g. `fft_k8_i3` or `layered_w0.5_r0.8_d0.2_n100_i0`.
    pub name: String,
}

/// A full generated corpus.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// All instances, FFT first, then Strassen, layered, irregular.
    pub entries: Vec<CorpusEntry>,
}

/// Paper parameter grids.
pub const WIDTHS: [f64; 3] = [0.2, 0.5, 0.8];
/// Regularity values of the paper grid.
pub const REGULARITIES: [f64; 2] = [0.2, 0.8];
/// Density values of the paper grid.
pub const DENSITIES: [f64; 2] = [0.2, 0.8];
/// Task counts of the paper grid.
pub const SIZES: [usize; 3] = [20, 50, 100];
/// Jump values generating irregular PTGs.
pub const IRREGULAR_JUMPS: [usize; 3] = [1, 2, 4];
/// FFT level parameters (k leaves ⇒ 5/15/39/95 tasks).
pub const FFT_KS: [u32; 4] = [2, 4, 8, 16];

impl Corpus {
    /// Generates the paper corpus at a given `scale ∈ (0, 1]`:
    /// `scale = 1.0` reproduces the full 400/100/108/324 instance counts,
    /// smaller values shrink instance counts (but keep ≥ 1 per grid point).
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use workloads::{Corpus, CostConfig, PtgClass};
    ///
    /// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    /// let corpus = Corpus::paper(0.01, &CostConfig::default(), &mut rng);
    /// // Every grid point survives even at 1% scale …
    /// assert_eq!(corpus.by_class(PtgClass::Fft).count(), 4);
    /// // … and the n=100 panels the figures plot are present.
    /// assert!(corpus.by_class_and_size(PtgClass::Irregular, 100).count() > 0);
    /// ```
    pub fn paper<R: Rng + ?Sized>(scale: f64, costs: &CostConfig, rng: &mut R) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must lie in (0, 1]");
        let mut entries = Vec::new();
        let reps = |full: usize| ((full as f64 * scale).round() as usize).max(1);

        // 400 FFT = 100 instances per k.
        for k in FFT_KS {
            for i in 0..reps(100) {
                let ptg = fft_ptg(k, costs, rng);
                let n = ptg.task_count();
                entries.push(CorpusEntry {
                    ptg,
                    class: PtgClass::Fft,
                    n,
                    name: format!("fft_k{k}_i{i}"),
                });
            }
        }
        // 100 Strassen.
        for i in 0..reps(100) {
            let ptg = strassen_ptg(costs, rng);
            let n = ptg.task_count();
            entries.push(CorpusEntry {
                ptg,
                class: PtgClass::Strassen,
                n,
                name: format!("strassen_i{i}"),
            });
        }
        // Layered and irregular grids, 3 instances each at full scale.
        let grid_reps = reps(3);
        for &n in &SIZES {
            for &width in &WIDTHS {
                for &regularity in &REGULARITIES {
                    for &density in &DENSITIES {
                        for &jump in std::iter::once(&0).chain(&IRREGULAR_JUMPS) {
                            let class = if jump == 0 {
                                PtgClass::Layered
                            } else {
                                PtgClass::Irregular
                            };
                            for i in 0..grid_reps {
                                let params = DaggenParams {
                                    n,
                                    width,
                                    regularity,
                                    density,
                                    jump,
                                };
                                let ptg = random_ptg(&params, costs, rng);
                                entries.push(CorpusEntry {
                                    ptg,
                                    class,
                                    n,
                                    name: format!(
                                        "{}_w{width}_r{regularity}_d{density}_j{jump}_n{n}_i{i}",
                                        class.label()
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        Corpus { entries }
    }

    /// Instances of one class.
    pub fn by_class(&self, class: PtgClass) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.iter().filter(move |e| e.class == class)
    }

    /// Instances of one class restricted to a task count (the paper's
    /// random-PTG panels use `n = 100`).
    pub fn by_class_and_size(
        &self,
        class: PtgClass,
        n: usize,
    ) -> impl Iterator<Item = &CorpusEntry> {
        self.entries
            .iter()
            .filter(move |e| e.class == class && e.n == n)
    }

    /// Total instance count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no instances were generated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_corpus() -> Corpus {
        Corpus::paper(
            0.01,
            &CostConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(99),
        )
    }

    #[test]
    fn full_scale_matches_paper_counts() {
        let c = Corpus::paper(
            1.0,
            &CostConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        assert_eq!(c.by_class(PtgClass::Fft).count(), 400);
        assert_eq!(c.by_class(PtgClass::Strassen).count(), 100);
        assert_eq!(c.by_class(PtgClass::Layered).count(), 108);
        assert_eq!(c.by_class(PtgClass::Irregular).count(), 324);
        assert_eq!(c.len(), 932);
    }

    #[test]
    fn scaled_corpus_keeps_every_grid_point() {
        let c = small_corpus();
        // 1 instance per grid point: 4 FFT ks, 1 strassen, 36 layered, 108 irregular.
        assert_eq!(c.by_class(PtgClass::Fft).count(), 4);
        assert_eq!(c.by_class(PtgClass::Strassen).count(), 1);
        assert_eq!(c.by_class(PtgClass::Layered).count(), 36);
        assert_eq!(c.by_class(PtgClass::Irregular).count(), 108);
    }

    #[test]
    fn size_filter_selects_n100_panels() {
        let c = small_corpus();
        assert!(c.by_class_and_size(PtgClass::Layered, 100).count() > 0);
        assert!(c
            .by_class_and_size(PtgClass::Layered, 100)
            .all(|e| e.ptg.task_count() == 100));
    }

    #[test]
    fn names_are_unique() {
        let c = small_corpus();
        let mut names: Vec<&str> = c.entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn corpus_is_reproducible_from_seed() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ptg.tasks(), y.ptg.tasks());
        }
    }

    #[test]
    fn class_labels_match_figures() {
        assert_eq!(PtgClass::Fft.label(), "FFT");
        assert_eq!(PtgClass::Irregular.label(), "irregular");
    }
}
