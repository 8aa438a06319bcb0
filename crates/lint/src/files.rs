//! Line-anchored lints for the project's text artifacts: `*.ptg` graphs
//! and `*.platform` clusters.
//!
//! Unlike the strict parsers in `sim::formats` and `platform::file` — which
//! stop at the first error — these lints are *lenient*: they keep scanning
//! after a bad line so a single run reports every problem in a file, each
//! anchored to the line that caused it.

use crate::findings::Finding;
use crate::rules;

/// Lints a PTG text file: parse errors, degenerate tasks, out-of-range
/// edges, cycles (anchored at the edge that closes them), duplicate edges
/// and orphan tasks.
pub fn lint_ptg_file(file: &str, input: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    // (line, flop, alpha) per task, in definition order.
    let mut tasks: Vec<(usize, f64, f64)> = Vec::new();
    // (line, from, to) per syntactically valid edge.
    let mut edges: Vec<(usize, usize, usize)> = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let malformed = |out: &mut Vec<Finding>, what: &str| {
            out.push(Finding::new(
                &rules::PTG_PARSE,
                file,
                Some(line_no),
                format!("{what}: {line:?}"),
            ));
        };
        match parts.next() {
            Some("task") => {
                let name = parts.next();
                let flop = parts.next().and_then(|s| s.parse::<f64>().ok());
                let alpha = parts.next().and_then(|s| s.parse::<f64>().ok());
                let (Some(name), Some(flop), Some(alpha)) = (name, flop, alpha) else {
                    malformed(&mut out, "task needs a name and two numbers");
                    continue;
                };
                if parts.next().is_some() {
                    malformed(&mut out, "trailing fields after task directive");
                    continue;
                }
                let task = ptg::Task {
                    name: name.to_string(),
                    flop,
                    alpha,
                };
                if let Err(msg) = task.validate() {
                    out.push(Finding::new(
                        &rules::PTG_DEGENERATE_TASK,
                        file,
                        Some(line_no),
                        msg,
                    ));
                }
                // Degenerate tasks still occupy an id, so later edges to
                // them are not spurious range errors.
                tasks.push((line_no, flop, alpha));
            }
            Some("edge") => {
                let from = parts.next().and_then(|s| s.parse::<usize>().ok());
                let to = parts.next().and_then(|s| s.parse::<usize>().ok());
                let (Some(from), Some(to)) = (from, to) else {
                    malformed(&mut out, "edge needs two task ids");
                    continue;
                };
                if parts.next().is_some() {
                    malformed(&mut out, "trailing fields after edge directive");
                    continue;
                }
                edges.push((line_no, from, to));
            }
            _ => malformed(&mut out, "unknown directive"),
        }
    }

    if tasks.is_empty() {
        out.push(Finding::new(
            &rules::PTG_PARSE,
            file,
            Some(1),
            "file defines no tasks",
        ));
        return out;
    }

    // Edge semantics: range, self-cycles, duplicates, then cycles — each
    // anchored at the edge that introduces the problem. Edges are added to
    // the adjacency incrementally in file order; an edge whose target
    // already reaches its source closes a cycle.
    let n = tasks.len();
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut touched = vec![false; n];
    let mut seen = std::collections::HashSet::new();
    for &(line_no, from, to) in &edges {
        if from >= n || to >= n {
            out.push(Finding::new(
                &rules::PTG_EDGE_RANGE,
                file,
                Some(line_no),
                format!("edge {from} -> {to}: only tasks 0..{n} are defined"),
            ));
            continue;
        }
        touched[from] = true;
        touched[to] = true;
        if from == to {
            out.push(Finding::new(
                &rules::PTG_CYCLE,
                file,
                Some(line_no),
                format!("edge {from} -> {to} is a self-cycle"),
            ));
            continue;
        }
        if !seen.insert((from, to)) {
            out.push(Finding::new(
                &rules::PTG_DUPLICATE_EDGE,
                file,
                Some(line_no),
                format!("edge {from} -> {to} repeats an earlier edge"),
            ));
            continue;
        }
        if reaches(&adjacency, to, from) {
            out.push(Finding::new(
                &rules::PTG_CYCLE,
                file,
                Some(line_no),
                format!("edge {from} -> {to} closes a dependency cycle"),
            ));
            continue; // keep the graph acyclic for later checks
        }
        adjacency[from].push(to);
    }

    if n >= 2 {
        for (i, &(line_no, _, _)) in tasks.iter().enumerate() {
            if !touched[i] {
                out.push(Finding::new(
                    &rules::PTG_ORPHAN,
                    file,
                    Some(line_no),
                    format!("task {i} has no edges in a {n}-task graph"),
                ));
            }
        }
    }
    out
}

/// Depth-first reachability over the incrementally built adjacency.
fn reaches(adjacency: &[Vec<usize>], from: usize, to: usize) -> bool {
    let mut stack = vec![from];
    let mut visited = vec![false; adjacency.len()];
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        if !visited[v] {
            visited[v] = true;
            stack.extend(adjacency[v].iter().copied());
        }
    }
    false
}

/// Lints a platform file: every parse/domain error of
/// [`platform::file::parse_platform`], line-anchored where the parser
/// reports a line, plus the single-processor degeneracy smell.
pub fn lint_platform_file(file: &str, input: &str) -> Vec<Finding> {
    use platform::file::PlatformFileError as E;
    match platform::file::parse_platform(input) {
        Ok(cluster) => {
            if cluster.processors == 1 {
                let line = input
                    .lines()
                    .position(|l| l.trim_start().starts_with("processors"))
                    .map(|idx| idx + 1);
                return vec![Finding::new(
                    &rules::PLATFORM_DEGENERATE,
                    file,
                    line,
                    "single-processor platform: every moldable schedule degenerates to \
                     a sequential one",
                )];
            }
            Vec::new()
        }
        Err(e) => {
            let line = match &e {
                E::Malformed { line, .. }
                | E::UnknownKey { line, .. }
                | E::BadValue { line, .. }
                | E::Duplicate { line, .. } => Some(*line),
                E::Missing(_) => None,
            };
            vec![Finding::new(
                &rules::PLATFORM_PARSE,
                file,
                line,
                e.to_string(),
            )]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|x| x.rule.as_str()).collect()
    }

    #[test]
    fn clean_ptg_has_no_findings() {
        let text = "# demo\ntask a 1e9 0.1\ntask b 2e9 0.2\nedge 0 1\n";
        assert_eq!(lint_ptg_file("g.ptg", text), vec![]);
    }

    #[test]
    fn cycle_is_anchored_at_the_closing_edge() {
        let text = "task a 1e9 0\ntask b 1e9 0\ntask c 1e9 0\n\
                    edge 0 1\nedge 1 2\nedge 2 0\n";
        let f = lint_ptg_file("g.ptg", text);
        assert_eq!(rules_of(&f), vec!["ptg-cycle"]);
        assert_eq!(f[0].line, Some(6));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let f = lint_ptg_file("g.ptg", "task a 1e9 0\ntask b 1e9 0\nedge 0 0\nedge 0 1\n");
        assert_eq!(rules_of(&f), vec!["ptg-cycle"]);
        assert_eq!(f[0].line, Some(3));
    }

    #[test]
    fn duplicate_edge_is_anchored_at_the_repeat() {
        let text = "task a 1e9 0\ntask b 1e9 0\nedge 0 1\nedge 0 1\n";
        let f = lint_ptg_file("g.ptg", text);
        assert_eq!(rules_of(&f), vec!["ptg-duplicate-edge"]);
        assert_eq!(f[0].line, Some(4));
    }

    #[test]
    fn orphan_and_range_and_degenerate_are_detected() {
        let text = "task a 1e9 0\ntask b 0 0.5\ntask c 1e9 0\nedge 0 2\nedge 0 9\n";
        let f = lint_ptg_file("g.ptg", text);
        assert_eq!(
            rules_of(&f),
            vec!["ptg-degenerate-task", "ptg-edge-range", "ptg-orphan"]
        );
        assert_eq!(f[0].line, Some(2));
        assert_eq!(f[1].line, Some(5));
        assert_eq!(f[2].line, Some(2), "orphan anchored at task b's line");
    }

    #[test]
    fn malformed_lines_do_not_stop_the_scan() {
        let text = "node a 1 0\ntask a 1e9 0.1\ntask b x 0.1\nedge 0\n";
        let f = lint_ptg_file("g.ptg", text);
        assert_eq!(rules_of(&f), vec!["ptg-parse", "ptg-parse", "ptg-parse"]);
        assert_eq!(
            f.iter().map(|x| x.line).collect::<Vec<_>>(),
            vec![Some(1), Some(3), Some(4)]
        );
    }

    #[test]
    fn empty_ptg_is_reported() {
        let f = lint_ptg_file("g.ptg", "# nothing\n");
        assert_eq!(rules_of(&f), vec!["ptg-parse"]);
    }

    #[test]
    fn single_task_graph_has_no_orphan() {
        assert_eq!(lint_ptg_file("g.ptg", "task a 1e9 0\n"), vec![]);
    }

    #[test]
    fn platform_errors_and_degeneracy() {
        assert_eq!(
            lint_platform_file("c.platform", "processors 4\nspeed_gflops 2.5\n"),
            vec![]
        );
        let f = lint_platform_file("c.platform", "processors many\nspeed_gflops 1\n");
        assert_eq!(rules_of(&f), vec!["platform-parse"]);
        assert_eq!(f[0].line, Some(1));
        let f = lint_platform_file("c.platform", "speed_gflops 1\n");
        assert_eq!(rules_of(&f), vec!["platform-parse"]);
        assert_eq!(f[0].line, None);
        let f = lint_platform_file("c.platform", "# tiny\nprocessors 1\nspeed_gflops 1\n");
        assert_eq!(rules_of(&f), vec!["platform-degenerate"]);
        assert_eq!(f[0].line, Some(2));
    }
}
