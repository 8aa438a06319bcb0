//! Homogeneous cluster platform model.
//!
//! The paper runs all experiments on models of two Grid'5000 production
//! clusters — **Chti** (Lille, 20 nodes × 4.3 GFLOPS) and **Grelon** (Nancy,
//! 120 nodes × 3.1 GFLOPS) — captured here as a processor count and a
//! per-processor speed. Processors are identical and fully connected;
//! communication costs are not modeled (they belong to the task execution
//! time model, per the paper).

pub mod cluster;
pub mod file;
pub mod presets;

pub use cluster::Cluster;
pub use presets::{chti, grelon};
