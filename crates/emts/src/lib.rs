//! EMTS — Evolutionary Moldable Task Scheduling.
//!
//! The primary contribution of Hunold & Lepping (CLUSTER 2011): a
//! (µ+λ) evolution strategy over the vector of per-task processor
//! allocations of a parallel task graph. The fitness of an individual is the
//! makespan produced by the paper's list-scheduling mapping function
//! ([`sched::ListScheduler`]), so EMTS is a *meta-heuristic* that works with
//! any execution-time model — monotonic or not.
//!
//! Key design points, all reproduced here:
//!
//! * **Seeded start** (§III-B): the initial population contains the
//!   allocations computed by MCPA, HCPA and a Δ-critical processor-sharing
//!   heuristic, which "significantly reduces the time to find efficient
//!   schedules".
//! * **Mutation-only reproduction** (§III-C): no crossover; the number of
//!   mutated alleles shrinks linearly over generations,
//!   `m(u) = (1 − u/U) · f_m · V`.
//! * **Asymmetric integer mutation operator** (§III-D): an allocation
//!   changes by `±(⌊|N(0, σ)|⌋ + 1)` processors, shrinking with probability
//!   `a` and stretching with probability `1 − a` (`a = 0.2`, `σ = 5` in the
//!   paper).
//! * **Plus-selection** (§V): the best µ of parents ∪ offspring survive, so
//!   the population never worsens — EMTS can only improve on its seeds.
//! * The paper evaluates **EMTS5**, a (5+25)-ES run for 5 generations, and
//!   **EMTS10**, a (10+100)-ES run for 10 generations
//!   ([`EmtsConfig::emts5`] / [`EmtsConfig::emts10`]).
//!
//! ```
//! use emts::{Emts, EmtsConfig};
//! use exec_model::{SyntheticModel, TimeMatrix};
//! use ptg::PtgBuilder;
//!
//! let mut b = PtgBuilder::new();
//! let a = b.add_task("a", 20e9, 0.05);
//! let c = b.add_task("c", 20e9, 0.05);
//! b.add_edge(a, c).unwrap();
//! let g = b.build().unwrap();
//!
//! let matrix = TimeMatrix::compute(&g, &SyntheticModel::default(), 4.3e9, 20);
//! let result = Emts::new(EmtsConfig::emts5()).run(&g, &matrix, 42);
//! assert!(result.best_makespan <= result.seed_makespan); // plus-selection
//! ```

pub mod config;
pub mod ea;
pub mod individual;
pub mod mutation;
pub mod parallel;
pub mod seeds;
pub mod trace;

pub use config::EmtsConfig;
pub use ea::{Emts, EmtsResult};
pub use individual::Individual;
pub use mutation::MutationOperator;
pub use parallel::{EvalPool, FitnessEngine, PoolError};
pub use trace::{ConvergenceTrace, FitnessCounters, GenerationStats};
