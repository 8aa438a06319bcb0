//! Pass 2a: the name-resolved workspace call graph.
//!
//! Built from the per-file facts pass 1 extracts ([`crate::source`]), over
//! every source file in the worklist at once. Name resolution is
//! deliberately conservative — the scanner has no type information, so a
//! call edge is added to *every* plausible definition and anything
//! unresolvable is recorded as an **external** call rather than dropped
//! (the totality property the proptests pin down):
//!
//! * `Type::name(…)` — candidates whose enclosing `impl` owner equals the
//!   qualifier; falling back to candidates defined in a module file
//!   matching the qualifier (`bounds::lower_bound` → `…/bounds.rs`); else
//!   external.
//! * `recv.name(…)` — resolves only when the method name is defined
//!   exactly once in the workspace, or is defined in the calling file;
//!   common names (`new`, `get`, `len`) otherwise stay external instead of
//!   fanning out to every impl, and std names (`map`, `take`, `all`)
//!   resolve same-file only on a `self.` receiver.
//! * `name(…)` — same-file definitions first, then same-crate, then every
//!   workspace definition (ambiguity keeps all candidates).
//!
//! The graph renders to a deterministic text dump ([`CallGraph::dump`]):
//! same file set in, byte-identical dump out.

use crate::source::{FileFacts, FnFact};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

/// One function node: the pass-1 fact plus its location context.
#[derive(Debug, Clone)]
pub struct Node {
    /// The extracted per-function fact.
    pub fact: FnFact,
    /// File the function is defined in.
    pub file: String,
    /// Crate the file belongs to (`None` outside `crates/`).
    pub krate: Option<String>,
}

impl Node {
    /// `owner::name` or plain `name`.
    pub fn qualified_name(&self) -> String {
        match &self.fact.owner {
            Some(o) => format!("{o}::{}", self.fact.name),
            None => self.fact.name.clone(),
        }
    }

    /// `name @ file:line` — one hop of a witness chain.
    pub fn witness_entry(&self) -> String {
        format!(
            "{} @ {}:{}",
            self.qualified_name(),
            self.file,
            self.fact.line
        )
    }
}

/// A resolved call edge, keyed by node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Calling node.
    pub from: usize,
    /// Called node.
    pub to: usize,
    /// Line of the call site in the caller's file.
    pub line: usize,
}

/// A call that resolved to nothing in the workspace (std, vendored deps,
/// constructors in pattern position, closures).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExternalCall {
    /// Calling node.
    pub from: usize,
    /// Called identifier as written.
    pub name: String,
    /// Line of the call site.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Function nodes, in worklist-then-source order.
    pub nodes: Vec<Node>,
    /// Resolved edges, sorted and deduplicated.
    pub edges: Vec<Edge>,
    /// Unresolved calls, sorted and deduplicated (totality: every
    /// extracted call is either here or in `edges`).
    pub externals: Vec<ExternalCall>,
    /// Forward adjacency: `callees[n]` = nodes `n` calls.
    pub callees: Vec<Vec<usize>>,
    /// Reverse adjacency: `callers[n]` = nodes calling `n`.
    pub callers: Vec<Vec<usize>>,
    /// Per-file allow-pragma tables (`file -> line -> rule ids`), carried
    /// along for the dataflow anchors and the suppression audit.
    pub allows: BTreeMap<String, BTreeMap<usize, BTreeSet<String>>>,
}

/// Method names so common in `std` that a dotted call is almost certainly
/// a collection/iterator/string method, not the one workspace fn that
/// happens to share the name. The workspace-unique fallback for dotted
/// calls skips these, and so does same-file resolution unless the receiver
/// is `self` (a type calling its *own* `next` is a real edge). Without
/// this, `line.split(',')` resolves to `BacklogUnion::split` and
/// `(0..p).map(..)` in the mapper's file to `ListScheduler::map`,
/// poisoning parse and hot paths with false panic and allocation chains.
const STD_DOTTED_METHODS: &[&str] = &[
    "next",
    "split",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "take",
    "join",
    "find",
    "last",
    "first",
    "clear",
    "extend",
    "contains",
    "len",
    "is_empty",
    "parse",
    "clone",
    "send",
    "recv",
    "write",
    "read",
    "flush",
    "iter",
    "map",
    "filter",
    "all",
    "any",
    "collect",
    "sum",
    "min",
    "max",
    "abs",
    "sort",
    "reverse",
    "get_or_init",
    "lock",
    "wait",
    "run",
];

/// True when `file` plausibly defines module `q` (`…/q.rs` or `…/q/…`).
fn file_matches_module(file: &str, q: &str) -> bool {
    file.ends_with(&format!("/{q}.rs"))
        || file.contains(&format!("/{q}/"))
        || file == format!("{q}.rs")
}

impl CallGraph {
    /// Builds the graph over every file's facts. Input order fixes node
    /// order; the driver passes files sorted, so the result is
    /// deterministic for a given file set.
    pub fn build(files: &[FileFacts]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut allows = BTreeMap::new();
        for ff in files {
            if !ff.allows.is_empty() {
                allows.insert(ff.file.clone(), ff.allows.clone());
            }
            for fact in &ff.fns {
                nodes.push(Node {
                    fact: fact.clone(),
                    file: ff.file.clone(),
                    krate: ff.krate.clone(),
                });
            }
        }

        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(n.fact.name.as_str()).or_default().push(i);
        }

        let mut edges: Vec<Edge> = Vec::new();
        let mut externals: Vec<ExternalCall> = Vec::new();
        for from in 0..nodes.len() {
            let caller_file = nodes[from].file.clone();
            let caller_krate = nodes[from].krate.clone();
            for call in nodes[from].fact.calls.clone() {
                let empty = Vec::new();
                let candidates = by_name.get(call.name.as_str()).unwrap_or(&empty);
                let targets: Vec<usize> = if call.qualified {
                    match &call.qualifier {
                        Some(q) => {
                            let by_owner: Vec<usize> = candidates
                                .iter()
                                .copied()
                                .filter(|&t| nodes[t].fact.owner.as_deref() == Some(q))
                                .collect();
                            if !by_owner.is_empty() {
                                by_owner
                            } else {
                                // Module-path qualifier: `bounds::lower_bound`.
                                candidates
                                    .iter()
                                    .copied()
                                    .filter(|&t| {
                                        nodes[t].fact.owner.is_none()
                                            && file_matches_module(&nodes[t].file, q)
                                    })
                                    .collect()
                            }
                        }
                        // `<T as Trait>::f(…)` — qualifier unreadable.
                        None => Vec::new(),
                    }
                } else if call.dotted {
                    // A std-named method on any receiver but `self` is
                    // taken for the std one: `(0..n).map(..)` in a file
                    // that defines a `map` is an iterator adapter.
                    let std_name = STD_DOTTED_METHODS.contains(&call.name.as_str());
                    let same_file: Vec<usize> = if std_name && !call.self_receiver {
                        Vec::new()
                    } else {
                        candidates
                            .iter()
                            .copied()
                            .filter(|&t| nodes[t].file == caller_file)
                            .collect()
                    };
                    if !same_file.is_empty() {
                        same_file
                    } else if candidates.len() == 1 && !std_name {
                        candidates.clone()
                    } else {
                        Vec::new()
                    }
                } else {
                    let same_file: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&t| nodes[t].file == caller_file)
                        .collect();
                    if !same_file.is_empty() {
                        same_file
                    } else {
                        let same_crate: Vec<usize> = candidates
                            .iter()
                            .copied()
                            .filter(|&t| caller_krate.is_some() && nodes[t].krate == caller_krate)
                            .collect();
                        if !same_crate.is_empty() {
                            same_crate
                        } else {
                            candidates.clone()
                        }
                    }
                };
                if targets.is_empty() {
                    externals.push(ExternalCall {
                        from,
                        name: call.name.clone(),
                        line: call.line,
                    });
                } else {
                    for to in targets {
                        edges.push(Edge {
                            from,
                            to,
                            line: call.line,
                        });
                    }
                }
            }
        }
        edges.sort();
        edges.dedup();
        externals.sort();
        externals.dedup();

        let mut callees = vec![Vec::new(); nodes.len()];
        let mut callers = vec![Vec::new(); nodes.len()];
        for e in &edges {
            if !callees[e.from].contains(&e.to) {
                callees[e.from].push(e.to);
            }
            if !callers[e.to].contains(&e.from) {
                callers[e.to].push(e.from);
            }
        }

        CallGraph {
            nodes,
            edges,
            externals,
            callees,
            callers,
            allows,
        }
    }

    /// Deterministic text rendering: same file set → byte-identical dump.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let f = &n.fact;
            let mut flags = Vec::new();
            if f.hot_path {
                flags.push("hot");
            }
            if f.panic_root {
                flags.push("root");
            }
            if f.parse_path {
                flags.push("parse");
            }
            if f.sink {
                flags.push("sink");
            }
            let _ = writeln!(
                out,
                "node {i} {}:{} {} [{}] panic={} alloc={} nondet={} index={}",
                n.file,
                f.line,
                n.qualified_name(),
                flags.join(","),
                f.panic_sites.len(),
                f.alloc_sites.len(),
                f.nondet_sites.len(),
                f.index_sites,
            );
        }
        for e in &self.edges {
            let _ = writeln!(out, "edge {} -> {} line={}", e.from, e.to, e.line);
        }
        for x in &self.externals {
            let _ = writeln!(out, "ext {} {} line={}", x.from, x.name, x.line);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_source;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let facts: Vec<FileFacts> = files
            .iter()
            .map(|(f, s)| scan_source(f, s, false).facts)
            .collect();
        CallGraph::build(&facts)
    }

    #[test]
    fn free_calls_resolve_same_file_first() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        // top -> a::helper only, not b::helper.
        assert_eq!(
            g.edges,
            vec![Edge {
                from: 0,
                to: 1,
                line: 1
            }]
        );
        assert!(g.externals.is_empty());
    }

    #[test]
    fn free_calls_fall_back_to_same_crate_then_workspace() {
        let g = graph(&[
            ("crates/a/src/main.rs", "fn top() { helper(); }\n"),
            ("crates/a/src/util.rs", "fn helper() {}\n"),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        assert_eq!(
            g.edges,
            vec![Edge {
                from: 0,
                to: 1,
                line: 1
            }]
        );
        let g = graph(&[
            ("crates/a/src/main.rs", "fn top() { helper(); }\n"),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
            ("crates/c/src/lib.rs", "fn helper() {}\n"),
        ]);
        // Ambiguous across crates: conservative — both candidates.
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn qualified_calls_match_impl_owner_or_module_file() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { Pool::spawn(); bounds::lower(); Unknown::f(); }\n",
            ),
            (
                "crates/a/src/pool.rs",
                "impl Pool {\n    fn spawn() {}\n}\n",
            ),
            ("crates/a/src/bounds.rs", "fn lower() {}\n"),
        ]);
        assert_eq!(
            g.edges,
            vec![
                Edge {
                    from: 0,
                    to: 1,
                    line: 1
                },
                Edge {
                    from: 0,
                    to: 2,
                    line: 1
                },
            ]
        );
        assert_eq!(g.externals.len(), 1);
        assert_eq!(g.externals[0].name, "f");
    }

    #[test]
    fn dotted_calls_resolve_only_unique_or_same_file() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "impl A {\n    fn run(&self) { self.step(); self.helper(); }\n    fn step(&self) {}\n}\n",
            ),
            ("crates/b/src/lib.rs", "impl B {\n    fn step(&self) {}\n}\nfn helper() {}\n"),
        ]);
        // `self.step()` has a same-file candidate → resolves there only;
        // `self.helper()` is unique workspace-wide → resolves cross-file.
        assert!(g.edges.contains(&Edge {
            from: 0,
            to: 1,
            line: 2
        }));
        assert!(g.edges.contains(&Edge {
            from: 0,
            to: 3,
            line: 2
        }));
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn dotted_std_method_names_never_take_the_unique_fallback() {
        // `line.split(',')` must not resolve to the one workspace fn named
        // `split` in another file; a type calling its own `split` still
        // resolves same-file.
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn parse_row(line: &str) { line.split(','); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Union {\n    fn split(&self) { self.split(); }\n}\n",
            ),
        ]);
        assert_eq!(
            g.edges,
            vec![Edge {
                from: 1,
                to: 1,
                line: 2
            }]
        );
        assert!(g.externals.iter().any(|x| x.from == 0 && x.name == "split"));
    }

    #[test]
    fn iterator_adapters_never_resolve_to_a_same_file_method_of_that_name() {
        // The file defines a `map` method; `(0..n).map(..)` in a hot-path fn
        // beside it is the iterator adapter, not that method.
        let g = graph(&[(
            "crates/a/src/mapper.rs",
            "impl Mapper {\n    fn map(&self) { let v = vec![1]; }\n}\n\
             // lint:hot-path\nfn hot(n: u32) { (0..n).map(|q| q); }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert!(g.externals.iter().any(|x| x.from == 1 && x.name == "map"));
    }

    #[test]
    fn a_std_named_method_on_self_still_resolves_same_file() {
        let g = graph(&[(
            "crates/a/src/mapper.rs",
            "impl Mapper {\n    fn map(&self) {}\n    fn run(&self) { self.map(); }\n}\n",
        )]);
        assert_eq!(
            g.edges,
            vec![Edge {
                from: 1,
                to: 0,
                line: 3
            }]
        );
    }

    #[test]
    fn all_and_any_never_take_the_unique_fallback() {
        // The workspace's only `all` and `any` live in another file; slice
        // and iterator calls of those names must not resolve to them.
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn check(xs: &[u32]) { xs.iter().all(|&x| x > 0); xs.iter().any(|&x| x > 1); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Successors {\n    fn all(&self) {}\n    fn any(&self) {}\n}\n",
            ),
        ]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        let names: Vec<&str> = g
            .externals
            .iter()
            .filter(|x| x.from == 0)
            .map(|x| x.name.as_str())
            .collect();
        assert!(
            names.contains(&"all") && names.contains(&"any"),
            "{names:?}"
        );
    }

    #[test]
    fn unresolved_calls_are_reported_external_not_dropped() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top(f: &dyn Fn()) { std_thing(); f(); }\n",
        )]);
        let names: Vec<&str> = g.externals.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["f", "std_thing"]);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn dump_is_deterministic_and_complete() {
        let files = [
            (
                "crates/a/src/lib.rs",
                "// lint:hot-path\nfn hot() { helper(); }\nfn helper() { let v = vec![1]; }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn parse_x(s: &str) { s.parse::<u32>().unwrap(); }\n",
            ),
        ];
        let d1 = graph(&files).dump();
        let d2 = graph(&files).dump();
        assert_eq!(d1, d2);
        assert!(d1.contains("node 0 crates/a/src/lib.rs:2 hot [hot]"));
        assert!(d1.contains("alloc=1"));
        assert!(d1.contains("[parse] panic=1"));
        assert!(d1.contains("edge 0 -> 1"));
    }
}
