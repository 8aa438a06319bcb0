//! PTG workload generators reproducing the paper's evaluation corpus (§IV-C).
//!
//! * [`fft::fft_ptg`] — FFT task graphs with 2/4/8/16 "levels" giving
//!   5/15/39/95 tasks (recursion tree + butterfly stages, per Cormen et al.),
//! * [`strassen::strassen_ptg`] — one level of Strassen's matrix
//!   multiplication (23 tasks: 10 additions, 7 products, 4 combines),
//! * [`daggen`] — DAGGEN-style random PTGs controlled by *width*,
//!   *regularity*, *density* and *jump* (Suter's generator, as used in the
//!   paper and its predecessors),
//! * [`costs`] — the paper's task-cost assignment: data size `d ≤ 125·10⁶`
//!   doubles, FLOP patterns `a·d`, `a·d·log₂ d`, `d^{3/2}`, `a ∈ [2⁶, 2⁹]`,
//!   `α ~ U[0, 0.25]`,
//! * [`corpus`] — the full paper corpus: 400 FFT + 100 Strassen + 108
//!   layered + 324 irregular PTGs (scalable down for quick runs),
//! * [`stream`] — unbounded generate-and-discard DAGGEN streams for
//!   throughput experiments: each item a pure function of the stream seed
//!   and its index.
//!
//! All generators are deterministic given an RNG, so experiments are
//! reproducible from a seed.

pub mod corpus;
pub mod costs;
pub mod daggen;
pub mod families;
pub mod fft;
pub mod strassen;
pub mod stream;

pub use corpus::{Corpus, CorpusEntry, PtgClass};
pub use costs::{CostConfig, CostPattern};
pub use daggen::DaggenParams;
pub use stream::StreamItem;
