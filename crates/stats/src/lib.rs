//! Summary statistics for the experiment harness.
//!
//! The paper reports *average relative makespans with 95 % confidence
//! intervals* (Figs. 4 and 5) and run times as *mean (SD)* (§V-B). This
//! crate provides exactly those aggregations plus simple histograms (for
//! the mutation-operator density of Fig. 3) and fixed-width text tables for
//! terminal reports.

pub mod histogram;
pub mod summary;
pub mod table;

pub use histogram::Histogram;
pub use summary::Summary;
pub use table::TextTable;
