//! Pass 2b: fixpoint propagations over the workspace call graph.
//!
//! Three dataflow rules, each with a call-chain witness, plus the
//! suppression audit:
//!
//! * **`src-panic-reach`** — no `panic!`/`.unwrap()`/`.expect(…)` may be
//!   reachable through calls from a user-input parse path (`from_str` /
//!   `parse*` / `read_*` / `load_*`) or from a `// lint:panic-root` fn
//!   (the EvalPool worker rings, which must fail through typed errors).
//!   A parse path's *own* body is covered by `src-unwrap-parse` and is not
//!   re-reported here; a panic root's own body counts.
//! * **`src-determinism-taint`** — no nondeterminism source (clock reads,
//!   env reads, `thread::current()`, `HashMap`/`HashSet` iteration) may be
//!   reachable through calls from a function that produces a deterministic
//!   artifact (RunReport counters, ConvergenceTrace, online event
//!   traces). Escape hatches: `*_seconds` reporting lines and
//!   `// lint:allow(src-timing)` at the source remove the site in pass 1.
//! * **`src-hot-path-alloc-transitive`** — extends `src-hot-path-alloc`
//!   through the call graph: a `// lint:hot-path` fn must not reach an
//!   allocating callee within [`ALLOC_DEPTH_CAP`] hops. The verdict is a
//!   memoized per-node distance-to-allocation (one reverse multi-source
//!   BFS), so the pass is linear in the graph.
//! * **`lint-stale-allow`** — every `lint:allow` pragma must have
//!   suppressed at least one finding (or removed at least one fact) in
//!   this run, and must name a registered rule; stale escapes rot.
//!
//! Anchoring: dataflow findings anchor at the root/sink fn's declaration
//! line and can be suppressed there with `// lint:allow(rule-id)`; the
//! message renders the chain without line numbers (stable fingerprints),
//! the structured `witness` carries `fn @ file:line` hops.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::rules;
use std::collections::BTreeSet;

/// Depth cap for the transitive hot-path allocation propagation.
pub const ALLOC_DEPTH_CAP: usize = 4;

/// Result of the dataflow pass: findings plus the pragma-usage ledger
/// entries it adds (`(file, line, rule id)`).
#[derive(Debug, Default)]
pub struct DataflowResult {
    /// Findings from the propagations (unsorted; the driver sorts).
    pub findings: Vec<Finding>,
    /// Allow pragmas consumed by dataflow anchors.
    pub used_allows: BTreeSet<(String, usize, String)>,
}

/// Pragma line allowing `id` at `line`/`line-1` in `file`, if any.
fn allow_line(graph: &CallGraph, file: &str, line: usize, id: &str) -> Option<usize> {
    let table = graph.allows.get(file)?;
    [line, line.saturating_sub(1)]
        .into_iter()
        .find(|l| table.get(l).is_some_and(|ids| ids.contains(id)))
}

/// Emits `finding` unless an allow pragma covers `anchor_line`; either way
/// the ledger records pragma use.
fn emit_or_suppress(
    res: &mut DataflowResult,
    graph: &CallGraph,
    rule: &'static rules::Rule,
    file: &str,
    anchor_line: usize,
    finding: Finding,
) {
    if let Some(l) = allow_line(graph, file, anchor_line, rule.id) {
        res.used_allows
            .insert((file.to_string(), l, rule.id.to_string()));
    } else {
        res.findings.push(finding);
    }
}

/// BFS from `start` over callees; returns `parent` pointers for witness
/// reconstruction (`usize::MAX` = unvisited, `start` is its own parent).
fn bfs_parents(graph: &CallGraph, start: usize) -> Vec<usize> {
    let mut parent = vec![usize::MAX; graph.nodes.len()];
    parent[start] = start;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(n) = queue.pop_front() {
        for &c in &graph.callees[n] {
            if parent[c] == usize::MAX {
                parent[c] = n;
                queue.push_back(c);
            }
        }
    }
    parent
}

/// Path `start → … → target` as node indices, following `parent`.
fn path_to(parent: &[usize], start: usize, target: usize) -> Vec<usize> {
    let mut path = vec![target];
    let mut cur = target;
    while cur != start {
        cur = parent[cur];
        path.push(cur);
    }
    path.reverse();
    path
}

/// Chain text without line numbers (goes into the message → fingerprint
/// stays stable under unrelated edits) plus the structured witness.
fn witness_of(graph: &CallGraph, path: &[usize], site: &str) -> (String, Vec<String>) {
    let names: Vec<String> = path
        .iter()
        .map(|&n| graph.nodes[n].qualified_name())
        .collect();
    let mut witness: Vec<String> = path
        .iter()
        .map(|&n| graph.nodes[n].witness_entry())
        .collect();
    witness.push(site.to_string());
    (format!("{} → {site}", names.join(" → ")), witness)
}

/// Runs every propagation and the suppression audit is left to the caller
/// (it needs the pass-1 ledger too). Returns findings + ledger additions.
pub fn run(graph: &CallGraph) -> DataflowResult {
    let mut res = DataflowResult::default();
    panic_reachability(graph, &mut res);
    determinism_taint(graph, &mut res);
    transitive_hot_alloc(graph, &mut res);
    res
}

fn panic_reachability(graph: &CallGraph, res: &mut DataflowResult) {
    for (root, node) in graph.nodes.iter().enumerate() {
        let f = &node.fact;
        if !(f.parse_path || f.panic_root) {
            continue;
        }
        let parent = bfs_parents(graph, root);
        for (target, tnode) in graph.nodes.iter().enumerate() {
            if parent[target] == usize::MAX || tnode.fact.panic_sites.is_empty() {
                continue;
            }
            // A parse path's own body is src-unwrap-parse territory; a
            // panic root's own body does count (typed errors only).
            if target == root && f.parse_path {
                continue;
            }
            let site = &tnode.fact.panic_sites[0];
            let path = path_to(&parent, root, target);
            let (chain, witness) = witness_of(graph, &path, &site.what);
            let kind = if f.parse_path {
                "parse path"
            } else {
                "panic-root"
            };
            let msg = format!(
                "{} reachable from {kind} fn {}: {chain}",
                site.what,
                node.qualified_name()
            );
            let finding = Finding::new(&rules::SRC_PANIC_REACH, &node.file, Some(f.line), msg)
                .with_witness(witness);
            emit_or_suppress(
                res,
                graph,
                &rules::SRC_PANIC_REACH,
                &node.file,
                f.line,
                finding,
            );
        }
    }
}

fn determinism_taint(graph: &CallGraph, res: &mut DataflowResult) {
    for (sink, node) in graph.nodes.iter().enumerate() {
        if !node.fact.sink {
            continue;
        }
        let parent = bfs_parents(graph, sink);
        for (target, tnode) in graph.nodes.iter().enumerate() {
            if parent[target] == usize::MAX || tnode.fact.nondet_sites.is_empty() {
                continue;
            }
            // Don't re-report a sink reached *through* another sink: the
            // closer producer already carries the finding.
            if target != sink {
                let path = path_to(&parent, sink, target);
                if path[1..path.len() - 1]
                    .iter()
                    .any(|&n| graph.nodes[n].fact.sink)
                {
                    continue;
                }
            }
            let site = &tnode.fact.nondet_sites[0];
            let path = path_to(&parent, sink, target);
            let (chain, witness) = witness_of(graph, &path, &site.what);
            let msg = format!(
                "nondeterminism flows into artifact producer fn {}: {chain}",
                node.qualified_name()
            );
            let finding = Finding::new(
                &rules::SRC_DETERMINISM_TAINT,
                &node.file,
                Some(node.fact.line),
                msg,
            )
            .with_witness(witness);
            emit_or_suppress(
                res,
                graph,
                &rules::SRC_DETERMINISM_TAINT,
                &node.file,
                node.fact.line,
                finding,
            );
        }
    }
}

fn transitive_hot_alloc(graph: &CallGraph, res: &mut DataflowResult) {
    // Memoized verdict: one reverse multi-source BFS from every allocating
    // node gives dist-to-nearest-allocation for the whole graph.
    let n = graph.nodes.len();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !node.fact.alloc_sites.is_empty() {
            dist[i] = 0;
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &caller in &graph.callers[i] {
            if dist[caller] == usize::MAX {
                dist[caller] = dist[i] + 1;
                queue.push_back(caller);
            }
        }
    }

    for (hot, node) in graph.nodes.iter().enumerate() {
        if !node.fact.hot_path {
            continue;
        }
        // dist 0 = own body: src-hot-path-alloc already fired there.
        if dist[hot] == 0 || dist[hot] == usize::MAX || dist[hot] > ALLOC_DEPTH_CAP {
            continue;
        }
        // Reconstruct the chain: walk to any callee one step closer
        // (smallest index for determinism).
        let mut path = vec![hot];
        let mut cur = hot;
        while dist[cur] > 0 {
            let next = graph.callees[cur]
                .iter()
                .copied()
                .filter(|&c| dist[c] == dist[cur] - 1)
                .min()
                .expect("BFS distance implies such a callee");
            path.push(next);
            cur = next;
        }
        let alloc_node = &graph.nodes[cur];
        let site = &alloc_node.fact.alloc_sites[0];
        // Anchor at the first call site on the chain inside the hot fn.
        let anchor = node
            .fact
            .calls
            .iter()
            .find(|c| c.name == graph.nodes[path[1]].fact.name)
            .map_or(node.fact.line, |c| c.line);
        let (chain, witness) = witness_of(graph, &path, &format!("`{}`", site.what));
        let msg = format!(
            "hot-path fn {} reaches an allocating callee in {} hop{}: {chain}",
            node.qualified_name(),
            dist[hot],
            if dist[hot] == 1 { "" } else { "s" },
        );
        let finding = Finding::new(
            &rules::SRC_HOT_PATH_ALLOC_TRANSITIVE,
            &node.file,
            Some(anchor),
            msg,
        )
        .with_witness(witness);
        emit_or_suppress(
            res,
            graph,
            &rules::SRC_HOT_PATH_ALLOC_TRANSITIVE,
            &node.file,
            anchor,
            finding,
        );
    }
}

/// The suppression audit: every allow pragma must have earned its keep in
/// this run (`used` is the union of the pass-1 and pass-2 ledgers), and
/// must name a registered rule.
pub fn stale_allow_audit(
    graph: &CallGraph,
    used: &BTreeSet<(String, usize, String)>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (file, table) in &graph.allows {
        for (&line, ids) in table {
            for id in ids {
                if id == rules::LINT_STALE_ALLOW.id {
                    // Meta-suppression handled below; never audit itself.
                    continue;
                }
                let key = (file.clone(), line, id.clone());
                let unknown = rules::rule_by_id(id).is_none();
                if !unknown && used.contains(&key) {
                    continue;
                }
                // The audit finding itself honours lint:allow(lint-stale-allow).
                if allow_line(graph, file, line, rules::LINT_STALE_ALLOW.id).is_some() {
                    continue;
                }
                let msg = if unknown {
                    format!("lint:allow({id}) names an unknown rule")
                } else {
                    format!("lint:allow({id}) never fires here — stale suppression")
                };
                out.push(Finding::new(
                    &rules::LINT_STALE_ALLOW,
                    file,
                    Some(line),
                    msg,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_source;
    use crate::source::FileFacts;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let facts: Vec<FileFacts> = files
            .iter()
            .map(|(f, s)| scan_source(f, s, false).facts)
            .collect();
        CallGraph::build(&facts)
    }

    fn rules_of(res: &DataflowResult) -> Vec<&str> {
        res.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn panic_two_calls_below_a_parse_path_is_reached() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
fn parse_spec(s: &str) -> u32 {
    helper(s)
}
fn helper(s: &str) -> u32 {
    deep(s)
}
fn deep(s: &str) -> u32 {
    s.len() as u32; panic!("boom")
}
"#,
        )]);
        let res = run(&g);
        assert_eq!(rules_of(&res), vec!["src-panic-reach"]);
        let f = &res.findings[0];
        assert_eq!(f.line, Some(2));
        assert!(f.message.contains("parse_spec → helper → deep → panic!"));
        assert_eq!(f.witness.len(), 4);
        assert!(f.witness[0].starts_with("parse_spec @ crates/a/src/lib.rs:2"));
        assert_eq!(f.witness[3], "panic!");
    }

    #[test]
    fn parse_path_own_body_is_not_rereported() {
        // Own-body unwrap is src-unwrap-parse territory.
        let g = graph(&[(
            "x.rs",
            "fn parse_n(s: &str) -> u32 { s.parse().unwrap() }\n",
        )]);
        assert!(run(&g).findings.is_empty());
    }

    #[test]
    fn panic_root_own_body_counts_and_allow_suppresses() {
        let src = r#"
// lint:panic-root
fn worker_loop() {
    recv().unwrap();
}
"#;
        let g = graph(&[("x.rs", src)]);
        let res = run(&g);
        assert_eq!(rules_of(&res), vec!["src-panic-reach"]);
        assert!(res.findings[0]
            .message
            .contains("panic-root fn worker_loop"));

        let suppressed = r#"
// lint:panic-root
// lint:allow(src-panic-reach) -- ring catches the unwind
fn worker_loop() {
    recv().unwrap();
}
"#;
        let g = graph(&[("x.rs", suppressed)]);
        let res = run(&g);
        assert!(res.findings.is_empty());
        assert!(res
            .used_allows
            .contains(&("x.rs".to_string(), 3, "src-panic-reach".to_string())));
    }

    #[test]
    fn taint_reaches_sink_two_calls_up() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
fn emit_trace(gens: usize) -> ConvergenceTrace {
    stamp(gens)
}
fn stamp(gens: usize) -> u64 {
    jitter(gens)
}
fn jitter(gens: usize) -> u64 {
    let t = Instant::now();
    gens as u64
}
"#,
        )]);
        let res = run(&g);
        assert_eq!(rules_of(&res), vec!["src-determinism-taint"]);
        let f = &res.findings[0];
        assert!(f
            .message
            .contains("emit_trace → stamp → jitter → Instant::now()"));
        assert_eq!(f.line, Some(2));
    }

    #[test]
    fn allowed_clock_source_does_not_taint() {
        let g = graph(&[(
            "x.rs",
            r#"
fn emit_trace() -> ConvergenceTrace {
    let wall_seconds = Instant::now();
    build()
}
"#,
        )]);
        assert!(run(&g).findings.is_empty());
    }

    #[test]
    fn transitive_alloc_within_depth_cap_fires_with_chain() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
// lint:hot-path
fn hot_kernel(xs: &mut [u32]) {
    step(xs);
}
fn step(xs: &mut [u32]) {
    scratch(xs);
}
fn scratch(xs: &mut [u32]) {
    let v = vec![0u32; xs.len()];
}
"#,
        )]);
        let res = run(&g);
        assert_eq!(rules_of(&res), vec!["src-hot-path-alloc-transitive"]);
        let f = &res.findings[0];
        assert!(f.message.contains("hot_kernel → step → scratch → `vec`"));
        assert_eq!(f.line, Some(4)); // the step(xs) call site
    }

    #[test]
    fn own_body_alloc_is_left_to_the_single_site_rule() {
        let g = graph(&[("x.rs", "// lint:hot-path\nfn hot() { let v = vec![1]; }\n")]);
        assert!(run(&g).findings.is_empty()); // src-hot-path-alloc fired in pass 1
    }

    #[test]
    fn alloc_beyond_depth_cap_is_silent() {
        let mut src = String::from("// lint:hot-path\nfn hot() { c1(); }\n");
        for i in 1..=5 {
            src.push_str(&format!("fn c{i}() {{ c{}(); }}\n", i + 1));
        }
        src.push_str("fn c6() { let v = vec![1]; }\n");
        let g = graph(&[("x.rs", src.as_str())]);
        assert!(run(&g).findings.is_empty()); // 6 hops > cap of 4
    }

    #[test]
    fn stale_and_unknown_allows_are_audited() {
        let g = graph(&[(
            "x.rs",
            r#"
fn quiet() {
    let x = 1; // lint:allow(src-timing) -- nothing fires here
    let y = 2; // lint:allow(no-such-rule)
}
"#,
        )]);
        let used = BTreeSet::new();
        let audit = stale_allow_audit(&g, &used);
        assert_eq!(audit.len(), 2);
        assert!(audit[0].message.contains("never fires here"));
        assert!(audit[1].message.contains("unknown rule"));

        // A used pragma is not stale.
        let mut used = BTreeSet::new();
        used.insert(("x.rs".to_string(), 3, "src-timing".to_string()));
        assert_eq!(stale_allow_audit(&g, &used).len(), 1);
    }

    #[test]
    fn recursion_terminates() {
        let g = graph(&[(
            "x.rs",
            "fn parse_loop(s: &str) { parse_loop(s); other(); }\nfn other() { panic!(\"x\"); }\n",
        )]);
        let res = run(&g);
        assert_eq!(rules_of(&res), vec!["src-panic-reach"]);
    }
}
