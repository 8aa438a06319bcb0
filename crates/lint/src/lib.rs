//! `emts-lint` — a rule-based static analyzer for the EMTS workspace.
//!
//! Production schedulers ship a static verification layer next to their
//! dynamic checks; this crate is ours. Three rule families share one
//! registry ([`rules::CATALOGUE`]), one finding shape ([`Finding`]) and
//! one reporting/baseline pipeline:
//!
//! * **Family A — input files** ([`files`]): lint the `*.ptg` and
//!   `*.platform` files the simulator reads with line-anchored findings,
//!   reporting every problem in a file rather than the first.
//! * **Family B — source invariants** ([`source`], [`callgraph`],
//!   [`dataflow`]): a hand-rolled Rust token scanner enforcing project
//!   rules over `crates/*/src` — no `unwrap`/`expect`/`panic!` on
//!   user-input parse paths outside tests, no
//!   `Instant::now`/`SystemTime::now` outside `obs`/`bench`, no allocating
//!   calls in functions marked `// lint:hot-path`, with
//!   `// lint:allow(rule-id)` suppressions — then the same rules carried
//!   through the workspace call graph.
//! * **Family C — committed telemetry** ([`reports`]): `BENCH_*.json`,
//!   `*_report.json` and `*.trace.json` cross-checks.
//!
//! The [`driver`] walks paths and dispatches by suffix; [`baseline`]
//! implements the committed-baseline mechanism so only *new* findings gate
//! CI; [`output`] renders text/JSON reports. The `emts-lint` binary exits
//! non-zero when a non-baselined finding reaches the `--deny` threshold.

#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod dataflow;
pub mod driver;
pub mod files;
pub mod findings;
pub mod output;
pub mod reports;
pub mod rules;
pub mod source;

pub use baseline::Baseline;
pub use driver::lint_paths;
pub use files::{lint_platform_file, lint_ptg_file};
pub use findings::Finding;
pub use rules::{Category, Rule, Severity, CATALOGUE};
pub use source::lint_source;
