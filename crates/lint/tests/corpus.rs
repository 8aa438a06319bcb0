//! The `data/bad/` corpus: one committed file per rule, each firing its
//! target rule exactly once.
//!
//! The text artifacts (`*.ptg`, `*.platform`, `*.faults`, `*.rs`) are
//! handwritten; the `*.schedule.json` bundles are regenerated by the
//! `regenerate_schedule_corpus` test when `REGEN_CORPUS=1` is set, so the
//! committed JSON always matches the current artifact schema.

use exec_model::{PaperModel, TimeMatrix};
use lint::{lint_paths, ScheduleArtifact};
use platform::Cluster;
use ptg::{Ptg, PtgBuilder, TaskId};
use sched::{Allocation, ListScheduler, Mapper, Placement, Schedule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/bad")
}

/// Target rule per corpus file, plus the companions the file is documented
/// to also fire (each exactly once).
const EXPECTATIONS: &[(&str, &str, &[&str])] = &[
    ("cycle.ptg", "ptg-cycle", &[]),
    ("orphan.ptg", "ptg-orphan", &[]),
    ("duplicate_edge.ptg", "ptg-duplicate-edge", &[]),
    ("degenerate.ptg", "ptg-degenerate-task", &[]),
    ("edge_range.ptg", "ptg-edge-range", &[]),
    ("parse.ptg", "ptg-parse", &[]),
    ("single.platform", "platform-degenerate", &[]),
    ("bad.platform", "platform-parse", &[]),
    ("ineffective.faults", "fault-ineffective-crash", &[]),
    ("bad.faults", "fault-parse", &[]),
    ("timing.rs", "src-timing", &[]),
    ("unwrap_parse.rs", "src-unwrap-parse", &[]),
    ("write_unwrap.rs", "src-write-unwrap", &[]),
    ("hot_alloc.rs", "src-hot-path-alloc", &[]),
    ("hot_recorder.rs", "src-hot-path-recorder", &[]),
    ("panic_reach.rs", "src-panic-reach", &[]),
    // The clock read also fires the single-site timing rule at its line.
    ("taint_instant.rs", "src-determinism-taint", &["src-timing"]),
    (
        "hot_alloc_transitive.rs",
        "src-hot-path-alloc-transitive",
        &[],
    ),
    ("stale_allow.rs", "lint-stale-allow", &[]),
    ("BENCH_direction.json", "bench-unknown-direction", &[]),
    ("unbalanced_report.json", "report-span-balance", &[]),
    ("misnested.trace.json", "trace-nesting", &[]),
    ("malformed.schedule.json", "artifact-malformed", &[]),
    ("task_count.schedule.json", "sched-task-count", &[]),
    ("width.schedule.json", "sched-width", &[]),
    ("duration.schedule.json", "sched-duration", &[]),
    ("precedence.schedule.json", "sched-precedence", &[]),
    ("overlap.schedule.json", "sched-overlap", &[]),
    // A makespan below a proven bound necessarily disagrees with the
    // schedule's actual makespan, so the report rule rides along.
    (
        "below_bound.schedule.json",
        "sched-below-bound",
        &["sched-makespan-report"],
    ),
    ("report.schedule.json", "sched-makespan-report", &[]),
    ("sweet_spot.schedule.json", "alloc-past-sweet-spot", &[]),
    ("waste.schedule.json", "alloc-nonmonotonic-waste", &[]),
];

#[test]
fn every_corpus_file_fires_its_rule_exactly_once() {
    for &(file, target, companions) in EXPECTATIONS {
        let path = corpus_dir().join(file);
        assert!(path.is_file(), "{file} missing — run REGEN_CORPUS=1 tests");
        let findings = lint_paths(std::slice::from_ref(&path)).expect("corpus file lints");
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &findings {
            *counts.entry(f.rule.as_str()).or_default() += 1;
        }
        assert_eq!(
            counts.get(target),
            Some(&1),
            "{file}: target {target} should fire exactly once, got {findings:?}"
        );
        for &c in companions {
            assert_eq!(
                counts.get(c),
                Some(&1),
                "{file}: companion {c} should fire exactly once, got {findings:?}"
            );
        }
        assert_eq!(
            counts.len(),
            1 + companions.len(),
            "{file}: unexpected extra rules, got {findings:?}"
        );
        // Dataflow findings must carry their call-chain witness.
        const DATAFLOW_RULES: &[&str] = &[
            "src-panic-reach",
            "src-determinism-taint",
            "src-hot-path-alloc-transitive",
        ];
        if DATAFLOW_RULES.contains(&target) {
            let f = findings
                .iter()
                .find(|f| f.rule == target)
                .expect("target fired");
            assert!(
                f.witness.len() >= 2,
                "{file}: dataflow finding lacks a call-chain witness: {f:?}"
            );
        }
    }
}

#[test]
fn every_artifact_rule_has_a_corpus_file() {
    // Each Family A + Family B rule appears as a target or documented
    // companion somewhere in the corpus.
    let covered: Vec<&str> = EXPECTATIONS
        .iter()
        .flat_map(|&(_, t, cs)| std::iter::once(t).chain(cs.iter().copied()))
        .collect();
    for rule in lint::CATALOGUE {
        assert!(
            covered.contains(&rule.id),
            "rule {} has no corpus coverage",
            rule.id
        );
    }
}

// ---------------------------------------------------------------------------
// Schedule-artifact corpus generation (REGEN_CORPUS=1)
// ---------------------------------------------------------------------------

/// `a -> b` chain of two 2 GFLOP fully-parallel tasks; on the 4-processor
/// unit-speed cluster with allocation `[2, 2]` each runs for exactly 1 s.
fn chain2() -> Ptg {
    let mut b = PtgBuilder::new();
    let a = b.add_task("a", 2e9, 0.0);
    let c = b.add_task("b", 2e9, 0.0);
    b.add_edge(a, c).expect("fresh edge");
    b.build().expect("acyclic")
}

fn chain2_artifact() -> ScheduleArtifact {
    let g = chain2();
    let cluster = Cluster::new("corpus", 4, 1.0);
    let m = TimeMatrix::compute(&g, &exec_model::Amdahl, cluster.speed_flops(), 4);
    let alloc = Allocation::from_vec(vec![2, 2]);
    let s = ListScheduler.map(&g, &m, &alloc);
    ScheduleArtifact::new(cluster, PaperModel::Model1, &g, &alloc, s)
}

fn placement(task: u32, procs: &[u32], start: f64, finish: f64) -> Placement {
    Placement {
        task: TaskId(task),
        start,
        finish,
        processors: procs.to_vec(),
    }
}

/// Rebuilds every `*.schedule.json` corpus file. Run with
/// `REGEN_CORPUS=1 cargo test -p lint --test corpus` after schema changes.
#[test]
fn regenerate_schedule_corpus() {
    if std::env::var("REGEN_CORPUS").is_err() {
        return;
    }
    let dir = corpus_dir();

    // sched-task-count: the long independent task c is dropped from the
    // schedule; the remaining a -> b chain still reaches both bounds.
    let mut b = PtgBuilder::new();
    let va = b.add_task("a", 2e9, 0.0);
    let vb = b.add_task("b", 2e9, 0.0);
    b.add_task("c", 1e9, 0.0);
    b.add_edge(va, vb).expect("fresh edge");
    let g = b.build().expect("acyclic");
    let cluster = Cluster::new("corpus", 4, 1.0);
    let alloc = Allocation::from_vec(vec![2, 2, 1]);
    let schedule = Schedule::new(
        4,
        vec![
            placement(0, &[0, 1], 0.0, 1.0),
            placement(1, &[0, 1], 1.0, 2.0),
        ],
    );
    let mut a = ScheduleArtifact::new(cluster, PaperModel::Model1, &g, &alloc, schedule);
    a.reported_makespan = 2.0;
    write(&dir, "task_count.schedule.json", &a);

    // sched-width: task b uses one processor instead of its allocated two;
    // its duration matches the one-processor model time, so only the width
    // check fires.
    let mut a = chain2_artifact();
    a.schedule = Schedule::new(
        4,
        vec![
            placement(0, &[0, 1], 0.0, 1.0),
            placement(1, &[0], 1.0, 3.0),
        ],
    );
    a.reported_makespan = a.schedule.makespan();
    write(&dir, "width.schedule.json", &a);

    // sched-duration: task b keeps its two processors but runs 1.5 s where
    // the model says 1 s.
    let mut a = chain2_artifact();
    a.schedule = Schedule::new(
        4,
        vec![
            placement(0, &[0, 1], 0.0, 1.0),
            placement(1, &[0, 1], 1.0, 2.5),
        ],
    );
    a.reported_makespan = a.schedule.makespan();
    write(&dir, "duration.schedule.json", &a);

    // sched-precedence: b starts at 0.5 s although its predecessor a
    // finishes at 1 s; the long independent task c keeps the makespan at
    // the critical-path bound so no bound rule rides along.
    let mut b = PtgBuilder::new();
    let va = b.add_task("a", 2e9, 0.0);
    let vb = b.add_task("b", 2e9, 0.0);
    b.add_task("c", 8e9, 0.0);
    b.add_edge(va, vb).expect("fresh edge");
    let g = b.build().expect("acyclic");
    let cluster = Cluster::new("corpus", 6, 1.0);
    let alloc = Allocation::from_vec(vec![2, 2, 2]);
    let schedule = Schedule::new(
        6,
        vec![
            placement(0, &[0, 1], 0.0, 1.0),
            placement(1, &[2, 3], 0.5, 1.5),
            placement(2, &[4, 5], 0.0, 4.0),
        ],
    );
    let a = ScheduleArtifact::new(cluster, PaperModel::Model1, &g, &alloc, schedule);
    write(&dir, "precedence.schedule.json", &a);

    // sched-overlap: two independent one-processor tasks share processor 0
    // for half a second.
    let mut b = PtgBuilder::new();
    b.add_task("a", 2e9, 0.0);
    b.add_task("b", 2e9, 0.0);
    let g = b.build().expect("acyclic");
    let cluster = Cluster::new("corpus", 4, 1.0);
    let alloc = Allocation::from_vec(vec![1, 1]);
    let schedule = Schedule::new(
        4,
        vec![placement(0, &[0], 0.0, 2.0), placement(1, &[0], 1.0, 3.0)],
    );
    let a = ScheduleArtifact::new(cluster, PaperModel::Model1, &g, &alloc, schedule);
    write(&dir, "overlap.schedule.json", &a);

    // sched-below-bound: a clean schedule whose reported makespan (1.5 s)
    // lies between the area bound (1 s) and the critical-path bound (2 s) —
    // it beats exactly one bound, and necessarily disagrees with the
    // schedule's actual 2 s makespan.
    let mut a = chain2_artifact();
    a.reported_makespan = 1.5;
    write(&dir, "below_bound.schedule.json", &a);

    // sched-makespan-report: the reported 3 s exceeds the actual 2 s, so
    // no bound is beaten.
    let mut a = chain2_artifact();
    a.reported_makespan = 3.0;
    write(&dir, "report.schedule.json", &a);

    // alloc-past-sweet-spot: a fully serial task (alpha = 1) cannot speed
    // up, so 3 processors are past its sweet spot of 1.
    let mut b = PtgBuilder::new();
    b.add_task("serial", 1e9, 1.0);
    let g = b.build().expect("single task");
    let cluster = Cluster::new("corpus", 4, 1.0);
    let m = TimeMatrix::compute(&g, &exec_model::Amdahl, cluster.speed_flops(), 4);
    let alloc = Allocation::from_vec(vec![3]);
    let s = ListScheduler.map(&g, &m, &alloc);
    let a = ScheduleArtifact::new(cluster, PaperModel::Model1, &g, &alloc, s);
    write(&dir, "sweet_spot.schedule.json", &a);

    // alloc-nonmonotonic-waste: under Model 2 the odd-count penalty makes
    // t(5) = 0.26·t(1) slower than t(4) = 0.25·t(1), while the sweet spot
    // sits at 6 — five processors waste one without gaining speed.
    let mut b = PtgBuilder::new();
    b.add_task("pdgemm", 2e9, 0.0);
    let g = b.build().expect("single task");
    let cluster = Cluster::new("corpus", 6, 1.0);
    let model = PaperModel::Model2;
    let m = TimeMatrix::compute(&g, &model.instantiate(), cluster.speed_flops(), 6);
    let alloc = Allocation::from_vec(vec![5]);
    let s = ListScheduler.map(&g, &m, &alloc);
    let a = ScheduleArtifact::new(cluster, model, &g, &alloc, s);
    write(&dir, "waste.schedule.json", &a);
}

fn write(dir: &Path, file: &str, artifact: &ScheduleArtifact) {
    let json = serde_json::to_string_pretty(artifact).expect("artifacts serialize");
    std::fs::write(dir.join(file), json + "\n").expect("corpus dir is writable");
}
