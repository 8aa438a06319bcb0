//! Experiment harness regenerating every figure and table of the paper.
//!
//! Each `fig*`/`table*` binary in `src/bin/` reproduces one artifact of the
//! paper's evaluation (see DESIGN.md §5 for the full index); the `grid`
//! binary runs every ablation and extension study as rows of one component
//! grid; `emts-ledger` measures every per-layer number of the committed
//! `BENCH_*.json` files ([`ledger`]); the Criterion benches in `benches/`
//! time allocation and workload generation. This library holds the shared
//! machinery: CLI parsing, the relative-makespan experiment of Figures 4
//! and 5, the component grid, the performance ledger, and result output.

pub mod args;
pub mod experiment;
pub mod grid;
pub mod ledger;
pub mod output;
pub mod report;

pub use args::HarnessArgs;
pub use experiment::{relative_makespan_grid, EmtsVariant, PanelResult};
pub use report::Harness;
