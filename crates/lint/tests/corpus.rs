//! The `data/bad/` corpus: one handwritten file per rule, each firing its
//! target rule exactly once.

use lint::lint_paths;
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
];

#[test]
fn every_corpus_file_fires_its_rule_exactly_once() {
    for &(file, target, companions) in EXPECTATIONS {
        let path = corpus_dir().join(file);
        assert!(path.is_file(), "{file} missing");
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
fn every_rule_has_a_corpus_file() {
    // Each catalogue rule appears as a target or documented companion
    // somewhere in the corpus.
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
