//! Parallel task graph (PTG) substrate.
//!
//! A PTG is a directed acyclic graph whose nodes are *moldable* parallel
//! tasks: the number of processors used by a task is chosen before it starts
//! and stays fixed while it runs. Nodes carry a computational cost (FLOP) and
//! a parallelization parameter `alpha` (the non-parallelizable fraction used
//! by Amdahl-style execution-time models); edges encode data or control
//! dependencies.
//!
//! This crate provides the graph representation used by every other crate of
//! the workspace:
//!
//! * [`PtgBuilder`] / [`Ptg`] — construction and validated immutable graphs,
//! * [`topo`] — topological orders and cycle detection,
//! * [`levels`] — precedence levels (depth from the sources),
//! * [`critpath`] — bottom/top levels and critical paths for a given vector
//!   of task execution times,
//! * [`analysis`] — shape statistics (width, sources/sinks, reachability),
//! * [`dot`] — Graphviz export,
//! * [`transform`] — transitive reduction and serial/parallel composition.
//!
//! The graph is deliberately self-contained (no external graph crate): the
//! schedulers only need forward/backward adjacency, topological traversal and
//! longest-path computations, all of which live here.
//!
//! A [`Ptg`] holds its adjacency once, flat. The builder appends each edge
//! to one arena in insertion order; `build` lays that arena out as a
//! successor and a predecessor arena with one stable counting sort each, so
//! every task's neighbours are one contiguous `&[TaskId]` slice in insertion
//! order. In-degrees, sources and a topological order are computed at the
//! same time. Schedulers, critical paths and simulators all read these
//! slices directly.

pub mod analysis;
pub mod build;
pub mod critpath;
pub mod dot;
pub mod error;
pub mod graph;
pub mod levels;
pub mod node;
pub mod topo;
pub mod transform;

pub use build::PtgBuilder;
pub use error::PtgError;
pub use graph::Ptg;
pub use node::{Task, TaskId};
