//! Source-invariant lint (Family B): a hand-rolled Rust token scanner
//! enforcing project invariants over `crates/*/src`.
//!
//! No `syn` lives under `vendor/`, and none is needed: the rules only
//! require a lexer that is exact about what is *code* — it skips string
//! and char literals, line and (nested) block comments, and raw strings —
//! plus enough structure tracking to know the current function, whether
//! the item is under `#[cfg(test)]`/`#[test]`, and where attributes end.
//!
//! Two comment pragmas steer the scanner:
//!
//! * `// lint:allow(rule-id, ...)` — suppresses those rules on the same
//!   line (trailing comment) or the directly following line (standalone
//!   comment). Every suppression is an audited exception.
//! * `// lint:hot-path` — marks the *next* `fn` as allocation-free: any
//!   allocating call inside it is reported by `src-hot-path-alloc`, and a
//!   `StatsRecorder::…` construction by `src-hot-path-recorder` (hot
//!   paths must take a generic `&impl Recorder` so the no-op flavour
//!   compiles out).

use crate::findings::Finding;
use crate::rules;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One lexed token: identifiers and single punctuation characters.
/// Literals, comments and whitespace never reach the scanner.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(char),
}

/// Lexer output: the token stream plus the pragma side tables.
struct Lexed<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    /// `line -> rule ids` from `// lint:allow(...)` comments.
    allows: HashMap<usize, HashSet<String>>,
    /// Lines of `// lint:hot-path` pragmas, in order.
    hot_paths: Vec<usize>,
    /// Lines of `// lint:panic-root` pragmas, in order.
    panic_roots: Vec<usize>,
}

fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut allows: HashMap<usize, HashSet<String>> = HashMap::new();
    let mut hot_paths = Vec::new();
    let mut panic_roots = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
                parse_pragma(
                    src[i + 2..end].trim(),
                    line,
                    &mut allows,
                    &mut hot_paths,
                    &mut panic_roots,
                );
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comments, counting newlines.
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    match (bytes[i], bytes.get(i + 1)) {
                        (b'/', Some(b'*')) => {
                            depth += 1;
                            i += 2;
                        }
                        (b'*', Some(b'/')) => {
                            depth -= 1;
                            i += 2;
                        }
                        (b'\n', _) => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            '"' => i = skip_string(bytes, i, &mut line),
            '\'' => {
                // Char literal or lifetime. A char literal is either an
                // escape ('\…') or exactly one char before the closing
                // quote; everything else ('a in <'a>, 'static) is a
                // lifetime — only the quote itself is consumed.
                if bytes.get(i + 1) == Some(&b'\\') {
                    i += 2; // opening quote + backslash
                    if i < bytes.len() {
                        i += 1; // the escaped character
                    }
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1; // \u{…} payloads
                    }
                    i += 1; // closing quote
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let ident = &src[start..i];
                // String prefixes: r"…", r#"…"#, b"…", br#"…"#.
                let is_raw = matches!(ident, "r" | "b" | "br" | "rb");
                if is_raw && i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'#') {
                    i = skip_raw_string(bytes, i, &mut line);
                } else {
                    toks.push((Tok::Ident(ident), line));
                }
            }
            _ if c.is_ascii_digit() => {
                // Numbers (including suffixes like 1e9, 0xff, 3u32) carry
                // no rule signal; dots stay separate tokens so `x.0.expect`
                // still lexes its `.` before `expect`.
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
            }
            _ if c.is_whitespace() => i += 1,
            _ => {
                toks.push((Tok::Punct(c), line));
                i += 1;
            }
        }
    }
    Lexed {
        toks,
        allows,
        hot_paths,
        panic_roots,
    }
}

/// Skips a regular string literal starting at the opening quote.
fn skip_string(bytes: &[u8], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string; `i` points at the first `#` or `"` after the `r`
/// prefix.
fn skip_raw_string(bytes: &[u8], mut i: usize, line: &mut usize) -> usize {
    let mut hashes = 0;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b'"' {
        return i; // `r#ident` raw identifier, not a string
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
        } else if bytes[i] == b'"' && bytes[i + 1..].iter().take(hashes).all(|&b| b == b'#') {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Parses `lint:allow(...)` / `lint:hot-path` / `lint:panic-root` out of a
/// line comment body.
fn parse_pragma(
    comment: &str,
    line: usize,
    allows: &mut HashMap<usize, HashSet<String>>,
    hot_paths: &mut Vec<usize>,
    panic_roots: &mut Vec<usize>,
) {
    let Some(rest) = comment.strip_prefix("lint:") else {
        return;
    };
    // Trailing prose after the pragma is encouraged — every suppression
    // should say why (`// lint:allow(x) -- reason`).
    if rest == "hot-path" || rest.starts_with("hot-path ") {
        hot_paths.push(line);
    } else if rest == "panic-root" || rest.starts_with("panic-root ") {
        panic_roots.push(line);
    } else if let Some(args) = rest
        .strip_prefix("allow(")
        .and_then(|a| a.find(')').map(|close| &a[..close]))
    {
        let entry = allows.entry(line).or_default();
        for id in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            entry.insert(id.to_string());
        }
    }
}

/// True for function names the unwrap rule treats as user-input parse
/// paths.
fn is_parse_path(name: &str) -> bool {
    name == "from_str"
        || name.starts_with("parse")
        || name.starts_with("read_")
        || name.starts_with("load_")
}

/// Method names whose calls allocate (used by `src-hot-path-alloc`).
const ALLOC_METHODS: &[&str] = &["to_string", "to_vec", "to_owned", "collect"];
/// Types whose constructors allocate.
const ALLOC_TYPES: &[&str] = &[
    "Box", "Vec", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];

/// Types whose mention in a function's signature or body marks it as a
/// deterministic-artifact *sink* for the determinism-taint propagation:
/// these produce RunReport counters, convergence traces or online event
/// traces.
const SINK_TYPES: &[&str] = &["ConvergenceTrace", "RunReport", "OnlineEvent"];
/// Method names that iterate a collection (used to spot `HashMap`/`HashSet`
/// iteration, which yields nondeterministic order).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];
/// Identifiers that look like calls (`name(`) but never are.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "let", "else",
    "Some", "Ok", "Err", "None", "Self",
];

/// One call made inside a function body (pass-1 fact; resolved in pass 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called identifier (`bar` in `foo.bar(…)` / `Foo::bar(…)`).
    pub name: String,
    /// `Foo` in `Foo::bar(…)`; `Self::` is rewritten to the enclosing impl
    /// owner at extraction time.
    pub qualifier: Option<String>,
    /// True when the name was preceded by `::` (even if the qualifying
    /// token was not a plain identifier, e.g. `<T as Trait>::bar(…)`).
    pub qualified: bool,
    /// True for method-call syntax `recv.bar(…)`.
    pub dotted: bool,
    /// True for a method call on `self` itself: `self.bar(…)`.
    pub self_receiver: bool,
    /// Line of the call site.
    pub line: usize,
}

/// One interesting source location inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Line of the site.
    pub line: usize,
    /// Human-readable description, e.g. `panic!`, `.unwrap()`,
    /// `Instant::now()`, `vec!`.
    pub what: String,
}

/// Everything pass 1 knows about one function.
#[derive(Debug, Clone, Default)]
pub struct FnFact {
    /// Function name as written after `fn`.
    pub name: String,
    /// Enclosing `impl` block's self type, if any.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Marked `// lint:hot-path`: must stay allocation-free.
    pub hot_path: bool,
    /// Marked `// lint:panic-root`: a typed-error boundary (EvalPool worker
    /// rings) from which no panic may be reachable.
    pub panic_root: bool,
    /// Name matches the user-input parse-path convention
    /// (`from_str`/`parse*`/`read_*`/`load_*`).
    pub parse_path: bool,
    /// References a deterministic-artifact type (see `SINK_TYPES`) in its
    /// signature or body, or is a method of one.
    pub sink: bool,
    /// Every call made in the body, in source order.
    pub calls: Vec<CallSite>,
    /// `panic!` / `.unwrap()` / `.expect(…)` sites in the body.
    pub panic_sites: Vec<Site>,
    /// Allocating calls in the body (`vec!`, `Box::new`, `.collect()`, …).
    pub alloc_sites: Vec<Site>,
    /// Nondeterminism sources in the body (clocks, env, hash iteration).
    pub nondet_sites: Vec<Site>,
    /// Count of indexing expressions (`xs[i]`); extracted but deliberately
    /// excluded from panic-reachability (see DESIGN §15 ambiguity limits).
    pub index_sites: usize,
}

/// Pass-1 facts for one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Path the file was scanned under.
    pub file: String,
    /// `lint` for `crates/lint/src/…`; `None` outside `crates/`.
    pub krate: Option<String>,
    /// Facts for every non-test function, in source order.
    pub fns: Vec<FnFact>,
    /// Every `lint:allow` pragma in the file, deterministically ordered:
    /// `line -> rule ids`. Input to the suppression audit.
    pub allows: BTreeMap<usize, BTreeSet<String>>,
}

/// Output of [`scan_source`]: per-line findings plus the facts and the
/// allow-pragma usage ledger that pass 2 extends.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Per-line findings (same set `lint_source` returns).
    pub findings: Vec<Finding>,
    /// Extracted facts for pass 2.
    pub facts: FileFacts,
    /// `(pragma line, rule id)` pairs that suppressed a finding or removed
    /// a fact in this pass.
    pub used_allows: BTreeSet<(usize, String)>,
}

/// Crate name from a workspace-relative path (`crates/<name>/…`).
pub fn crate_of(file: &str) -> Option<String> {
    let mut parts = file.split(['/', '\\']);
    while let Some(p) = parts.next() {
        if p == "crates" {
            return parts.next().map(str::to_string);
        }
    }
    None
}

/// A function currently being scanned.
struct FnFrame {
    name: String,
    /// Brace depth *outside* the body; the frame pops when depth returns
    /// here.
    depth: usize,
    /// Line of the `fn` keyword.
    line: usize,
    owner: Option<String>,
    /// Created inside a `#[cfg(test)]`/`#[test]` region: no fact is kept.
    in_test: bool,
    hot_path: bool,
    panic_root: bool,
    sink: bool,
    calls: Vec<CallSite>,
    panic_sites: Vec<Site>,
    alloc_sites: Vec<Site>,
    nondet_sites: Vec<Site>,
    index_sites: usize,
    /// Locals bound to a `HashMap`/`HashSet` in this body (`let m = …`).
    hash_locals: HashSet<String>,
}

/// Shared mutable scan state: findings out, pragma-usage ledger, and the
/// allow table consulted by both.
struct Ctx<'a> {
    file: &'a str,
    allows: &'a HashMap<usize, HashSet<String>>,
    findings: Vec<Finding>,
    used: BTreeSet<(usize, String)>,
}

impl Ctx<'_> {
    /// Pragma line allowing `id` at `line` (same line or the line above).
    fn allow_line(&self, line: usize, id: &str) -> Option<usize> {
        [line, line.saturating_sub(1)]
            .into_iter()
            .find(|l| self.allows.get(l).is_some_and(|ids| ids.contains(id)))
    }

    fn emit(&mut self, rule: &'static crate::rules::Rule, line: usize, message: String) {
        if let Some(l) = self.allow_line(line, rule.id) {
            self.used.insert((l, rule.id.to_string()));
        } else {
            self.findings
                .push(Finding::new(rule, self.file, Some(line), message));
        }
    }

    /// True when any of `ids` is allowed at `line`; marks the pragma used.
    /// Used to drop *facts* (panic/nondet/alloc sites) at their source.
    fn fact_allowed(&mut self, line: usize, ids: &[&str]) -> bool {
        let mut hit = false;
        for id in ids {
            if let Some(l) = self.allow_line(line, id) {
                self.used.insert((l, id.to_string()));
                hit = true;
            }
        }
        hit
    }
}

/// `let`-binding tracker: records locals initialised from `HashMap`/
/// `HashSet` so their iteration can be flagged as order-nondeterministic.
enum LetSt {
    Idle,
    WaitName,
    Active { name: String, hashy: bool },
}

/// Lints one Rust source file. `timing_exempt` is set for the crates whose
/// whole point is wall-clock measurement (`obs`, `bench`).
pub fn lint_source(file: &str, src: &str, timing_exempt: bool) -> Vec<Finding> {
    scan_source(file, src, timing_exempt).findings
}

/// Scans one Rust source file: emits the per-line findings *and* extracts
/// the per-function facts pass 2 builds the workspace call graph from.
/// A `lint:allow` on the same line (trailing comment) or directly above
/// (standalone comment) suppresses a finding; for the dataflow rules it
/// also removes the underlying fact at its source (a suppressed panic /
/// clock / allocation site never enters the propagation).
pub fn scan_source(file: &str, src: &str, timing_exempt: bool) -> ScanResult {
    let lexed = lex(src);
    let toks = &lexed.toks;
    // Lines holding a `*_seconds` identifier: the wall-clock-reporting
    // escape hatch for the determinism-taint propagation.
    let seconds_lines: HashSet<usize> = toks
        .iter()
        .filter_map(|(t, l)| match t {
            Tok::Ident(id) if id.ends_with("_seconds") || *id == "seconds" => Some(*l),
            _ => None,
        })
        .collect();
    let mut ctx = Ctx {
        file,
        allows: &lexed.allows,
        findings: Vec::new(),
        used: BTreeSet::new(),
    };
    let mut facts: Vec<FnFact> = Vec::new();

    let mut depth = 0usize;
    let mut fns: Vec<FnFrame> = Vec::new();
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut pending_fn: Option<FnFrame> = None;
    let mut pending_impl: Option<String> = None;
    let mut pending_test = false;
    let mut skip_above: Option<usize> = None; // test region: skip while depth > this
    let mut hot_pragmas = lexed.hot_paths.iter().copied().peekable();
    let mut root_pragmas = lexed.panic_roots.iter().copied().peekable();
    let mut let_st = LetSt::Idle;

    let mut i = 0;
    while i < toks.len() {
        let (tok, line) = &toks[i];
        let in_test = skip_above.is_some();
        match tok {
            Tok::Punct('#') => {
                // Attribute: #[...] or #![...]; scan to the matching ']'.
                let mut j = i + 1;
                if matches!(toks.get(j), Some((Tok::Punct('!'), _))) {
                    j += 1;
                }
                if matches!(toks.get(j), Some((Tok::Punct('['), _))) {
                    let mut brackets = 0usize;
                    let mut has_test = false;
                    let mut negated = false;
                    while let Some((t, _)) = toks.get(j) {
                        match t {
                            Tok::Punct('[') => brackets += 1,
                            Tok::Punct(']') => {
                                brackets -= 1;
                                if brackets == 0 {
                                    break;
                                }
                            }
                            Tok::Ident("test") => has_test = true,
                            Tok::Ident("not") => negated = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    // #[test], #[cfg(test)], #[cfg_attr(test, …)] mark the
                    // next item as test code; #[cfg(not(test))] does not.
                    if has_test && !negated {
                        pending_test = true;
                    }
                    i = j + 1;
                    continue;
                }
            }
            Tok::Punct('{') => {
                if pending_test && skip_above.is_none() {
                    skip_above = Some(depth);
                    pending_test = false;
                }
                if let Some(mut frame) = pending_fn.take() {
                    frame.in_test = skip_above.is_some();
                    fns.push(frame);
                }
                if let Some(owner) = pending_impl.take() {
                    impls.push((owner, depth));
                }
                depth += 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if skip_above == Some(depth) {
                    skip_above = None;
                }
                while impls.last().is_some_and(|(_, d)| *d >= depth) {
                    impls.pop();
                }
                while fns.last().is_some_and(|f| f.depth >= depth) {
                    let f = fns.pop().expect("checked above");
                    finish_frame(f, &mut facts, &mut ctx);
                }
            }
            Tok::Punct(';') => {
                // A `;` before any body cancels pending items (trait method
                // declarations, `#[cfg(test)] use …;`).
                pending_fn = None;
                pending_impl = None;
                pending_test = false;
            }
            Tok::Ident("fn") => {
                if let Some((Tok::Ident(name), _)) = toks.get(i + 1) {
                    let mut hot = false;
                    while hot_pragmas.peek().is_some_and(|&p| p <= *line) {
                        hot_pragmas.next();
                        hot = true;
                    }
                    let mut root = false;
                    while root_pragmas.peek().is_some_and(|&p| p <= *line) {
                        root_pragmas.next();
                        root = true;
                    }
                    pending_fn = Some(FnFrame {
                        name: name.to_string(),
                        depth,
                        line: *line,
                        owner: impls.last().map(|(o, _)| o.clone()),
                        in_test,
                        hot_path: hot,
                        panic_root: root,
                        sink: false,
                        calls: Vec::new(),
                        panic_sites: Vec::new(),
                        alloc_sites: Vec::new(),
                        nondet_sites: Vec::new(),
                        index_sites: 0,
                        hash_locals: HashSet::new(),
                    });
                }
            }
            Tok::Ident("impl") if pending_fn.is_none() && fns.is_empty() => {
                // Item-position `impl` block: find the self type — the last
                // angle-depth-0 path segment, reset at `for` (trait impls),
                // stopping at `where`/`{`. `impl Trait` in fn signatures
                // never reaches here: a fn frame or pending fn is live.
                let mut owner: Option<&str> = None;
                let mut angle = 0usize;
                let mut j = i + 1;
                while let Some((t, _)) = toks.get(j) {
                    match t {
                        Tok::Punct('{' | ';') if angle == 0 => break,
                        Tok::Punct('<') => angle += 1,
                        // `->` inside fn-pointer generics is not a close.
                        Tok::Punct('>')
                            if !matches!(toks.get(j - 1), Some((Tok::Punct('-'), _))) =>
                        {
                            angle = angle.saturating_sub(1);
                        }
                        Tok::Ident("for") if angle == 0 => owner = None,
                        Tok::Ident("where") if angle == 0 => break,
                        Tok::Ident(id) if angle == 0 => owner = Some(id),
                        _ => {}
                    }
                    j += 1;
                }
                pending_impl = owner.map(str::to_string);
            }
            Tok::Ident("panic")
                if !in_test && matches!(toks.get(i + 1), Some((Tok::Punct('!'), _))) =>
            {
                if fns.last().is_some_and(|f| is_parse_path(&f.name)) {
                    let fname = fns.last().expect("checked above").name.clone();
                    ctx.emit(
                        &rules::SRC_UNWRAP_PARSE,
                        *line,
                        format!("panic! in parse path fn {fname}"),
                    );
                }
                if fns.last().is_some() && !ctx.fact_allowed(*line, &["src-panic-reach"]) {
                    fns.last_mut()
                        .expect("checked above")
                        .panic_sites
                        .push(Site {
                            line: *line,
                            what: "panic!".to_string(),
                        });
                }
            }
            Tok::Ident(name @ ("unwrap" | "expect")) if !in_test => {
                let dotted = i > 0 && matches!(toks[i - 1].0, Tok::Punct('.'));
                let called = matches!(toks.get(i + 1), Some((Tok::Punct('('), _)));
                if dotted && called {
                    if fns.last().is_some_and(|f| is_parse_path(&f.name)) {
                        let fname = fns.last().expect("checked above").name.clone();
                        ctx.emit(
                            &rules::SRC_UNWRAP_PARSE,
                            *line,
                            format!(".{name}() in parse path fn {fname}"),
                        );
                    }
                    // write!(…).unwrap() / writeln!(…).expect(…): walk back
                    // over the macro's balanced parens to its name.
                    if let Some(mac) = write_macro_before(toks, i - 1) {
                        ctx.emit(
                            &rules::SRC_WRITE_UNWRAP,
                            *line,
                            format!("{mac}!(…).{name}() — propagate the fmt::Result instead"),
                        );
                    }
                    if fns.last().is_some() && !ctx.fact_allowed(*line, &["src-panic-reach"]) {
                        fns.last_mut()
                            .expect("checked above")
                            .panic_sites
                            .push(Site {
                                line: *line,
                                what: format!(".{name}()"),
                            });
                    }
                }
            }
            Tok::Ident(t @ ("Instant" | "SystemTime"))
                if !in_test
                    && !timing_exempt
                    && matches!(toks.get(i + 1), Some((Tok::Punct(':'), _)))
                    && matches!(toks.get(i + 2), Some((Tok::Punct(':'), _)))
                    && matches!(toks.get(i + 3), Some((Tok::Ident("now"), _))) =>
            {
                ctx.emit(
                    &rules::SRC_TIMING,
                    *line,
                    format!("{t}::now() outside the obs/bench crates"),
                );
                // Taint source, unless it feeds a `*_seconds` reporting
                // field or carries the timing escape hatch.
                if fns.last().is_some()
                    && !seconds_lines.contains(line)
                    && !ctx.fact_allowed(*line, &["src-timing", "src-determinism-taint"])
                {
                    fns.last_mut()
                        .expect("checked above")
                        .nondet_sites
                        .push(Site {
                            line: *line,
                            what: format!("{t}::now()"),
                        });
                }
            }
            Tok::Ident("env")
                if !in_test
                    && matches!(toks.get(i + 1), Some((Tok::Punct(':'), _)))
                    && matches!(toks.get(i + 2), Some((Tok::Punct(':'), _)))
                    && matches!(
                        toks.get(i + 3),
                        Some((Tok::Ident("var" | "vars" | "var_os"), _))
                    ) =>
            {
                let in_fn = fns.last().is_some();
                if in_fn && !ctx.fact_allowed(*line, &["src-determinism-taint"]) {
                    fns.last_mut()
                        .expect("checked above")
                        .nondet_sites
                        .push(Site {
                            line: *line,
                            what: "env read".to_string(),
                        });
                }
            }
            Tok::Ident("thread")
                if !in_test
                    && matches!(toks.get(i + 1), Some((Tok::Punct(':'), _)))
                    && matches!(toks.get(i + 2), Some((Tok::Punct(':'), _)))
                    && matches!(toks.get(i + 3), Some((Tok::Ident("current"), _))) =>
            {
                let in_fn = fns.last().is_some();
                if in_fn && !ctx.fact_allowed(*line, &["src-determinism-taint"]) {
                    fns.last_mut()
                        .expect("checked above")
                        .nondet_sites
                        .push(Site {
                            line: *line,
                            what: "thread::current()".to_string(),
                        });
                }
            }
            _ => {}
        }

        // `let`-binding tracker (feeds hash_locals; sees every token).
        let_st = match (let_st, tok) {
            (_, Tok::Ident("let")) => LetSt::WaitName,
            (LetSt::WaitName, Tok::Ident("mut")) => LetSt::WaitName,
            (LetSt::WaitName, Tok::Ident(name)) => LetSt::Active {
                name: name.to_string(),
                hashy: false,
            },
            (LetSt::WaitName, Tok::Punct(_)) => LetSt::Idle,
            (LetSt::Active { name, .. }, Tok::Ident("HashMap" | "HashSet")) => {
                LetSt::Active { name, hashy: true }
            }
            (LetSt::Active { name, hashy }, Tok::Punct(';')) => {
                if hashy {
                    if let Some(f) = fns.last_mut() {
                        f.hash_locals.insert(name);
                    }
                }
                LetSt::Idle
            }
            (LetSt::Active { .. }, Tok::Punct('{' | '}')) => LetSt::Idle,
            (st, _) => st,
        };

        // Fact extraction independent of the rule arms above: sink markers,
        // allocation sites (every fn — pass 2 propagates them into hot
        // paths), hash-iteration order, call edges, indexing.
        if let Tok::Ident(name) = *tok {
            let next_bang = matches!(toks.get(i + 1), Some((Tok::Punct('!'), _)));
            let prev_dot = i > 0 && matches!(toks[i - 1].0, Tok::Punct('.'));
            let after_fn = i > 0 && matches!(toks[i - 1].0, Tok::Ident("fn"));
            let path_ctor = ALLOC_TYPES.contains(&name)
                && matches!(toks.get(i + 1), Some((Tok::Punct(':'), _)))
                && matches!(toks.get(i + 2), Some((Tok::Punct(':'), _)))
                && matches!(
                    toks.get(i + 3),
                    Some((Tok::Ident("new" | "with_capacity" | "from"), _))
                );

            // A deterministic-artifact type in the signature (pending fn)
            // or body marks the function as a taint sink.
            if SINK_TYPES.contains(&name) {
                if let Some(pf) = pending_fn.as_mut() {
                    pf.sink = true;
                } else if let Some(f) = fns.last_mut() {
                    f.sink = true;
                }
            }

            let is_alloc = (matches!(name, "vec" | "format") && next_bang)
                || (prev_dot && ALLOC_METHODS.contains(&name))
                || path_ctor;
            if is_alloc && !in_test && fns.last().is_some() {
                if !ctx.fact_allowed(*line, &["src-hot-path-alloc-transitive"]) {
                    fns.last_mut()
                        .expect("checked above")
                        .alloc_sites
                        .push(Site {
                            line: *line,
                            what: name.to_string(),
                        });
                }
                if fns.last().is_some_and(|f| f.hot_path) {
                    ctx.emit(
                        &rules::SRC_HOT_PATH_ALLOC,
                        *line,
                        format!(
                            "allocating call `{name}` inside hot-path fn {}",
                            fns.last().map(|f| f.name.as_str()).unwrap_or("?")
                        ),
                    );
                }
            }
            // A hot-path fn must take its recorder as `&R: Recorder` so
            // the no-op flavour compiles out — constructing the concrete
            // `StatsRecorder` inline defeats that and allocates.
            if name == "StatsRecorder"
                && !in_test
                && fns.last().is_some_and(|f| f.hot_path)
                && matches!(toks.get(i + 1), Some((Tok::Punct(':'), _)))
                && matches!(toks.get(i + 2), Some((Tok::Punct(':'), _)))
            {
                ctx.emit(
                    &rules::SRC_HOT_PATH_RECORDER,
                    *line,
                    format!(
                        "StatsRecorder constructed inside hot-path fn {} — \
                         take a `&impl Recorder` parameter instead",
                        fns.last().map(|f| f.name.as_str()).unwrap_or("?")
                    ),
                );
            }

            // Iterating a HashMap/HashSet local: order nondeterminism.
            if !in_test && ITER_METHODS.contains(&name) && prev_dot && i >= 2 {
                if let Tok::Ident(recv) = toks[i - 2].0 {
                    if fns.last().is_some_and(|f| f.hash_locals.contains(recv))
                        && !ctx.fact_allowed(*line, &["src-determinism-taint"])
                    {
                        fns.last_mut()
                            .expect("checked above")
                            .nondet_sites
                            .push(Site {
                                line: *line,
                                what: format!("{recv}.{name}() — HashMap/HashSet iteration order"),
                            });
                    }
                }
            }
            if name == "in" && !in_test {
                // `for k in &m {` with m a hash local (the `.iter()` form is
                // caught above).
                let mut j = i + 1;
                while matches!(
                    toks.get(j),
                    Some((Tok::Punct('&'), _)) | Some((Tok::Ident("mut"), _))
                ) {
                    j += 1;
                }
                if let Some((Tok::Ident(v), _)) = toks.get(j) {
                    if matches!(toks.get(j + 1), Some((Tok::Punct('{'), _)))
                        && fns.last().is_some_and(|f| f.hash_locals.contains(*v))
                        && !ctx.fact_allowed(*line, &["src-determinism-taint"])
                    {
                        fns.last_mut()
                            .expect("checked above")
                            .nondet_sites
                            .push(Site {
                                line: *line,
                                what: format!("for … in {v} — HashMap/HashSet iteration order"),
                            });
                    }
                }
            }

            // Call edge (direct `name(…)` or turbofish `name::<…>(…)`).
            if !in_test
                && !after_fn
                && !NOT_CALLS.contains(&name)
                && call_paren_after(toks, i)
                && fns.last().is_some()
            {
                let qualified = i >= 2
                    && matches!(toks[i - 1].0, Tok::Punct(':'))
                    && matches!(toks[i - 2].0, Tok::Punct(':'));
                let mut qualifier = if qualified && i >= 3 {
                    match toks[i - 3].0 {
                        Tok::Ident(q) => Some(q.to_string()),
                        _ => None, // `<T as Trait>::name(…)` — unresolvable
                    }
                } else {
                    None
                };
                if qualifier.as_deref() == Some("Self") {
                    qualifier = fns.last().and_then(|f| f.owner.clone());
                }
                fns.last_mut().expect("checked above").calls.push(CallSite {
                    name: name.to_string(),
                    qualifier,
                    qualified,
                    dotted: prev_dot,
                    self_receiver: prev_dot
                        && i >= 2
                        && matches!(toks[i - 2].0, Tok::Ident("self")),
                    line: *line,
                });
            }
        } else if matches!(tok, Tok::Punct('['))
            && !in_test
            && i > 0
            && matches!(toks[i - 1].0, Tok::Ident(_) | Tok::Punct(')' | ']'))
        {
            if let Some(f) = fns.last_mut() {
                f.index_sites += 1;
            }
        }
        i += 1;
    }
    // Unbalanced braces never pop the remaining frames; drain them so the
    // body-scoped rules still report and the facts survive (balanced files
    // never reach this).
    for f in fns.drain(..).rev() {
        finish_frame(f, &mut facts, &mut ctx);
    }

    let allows = lexed
        .allows
        .iter()
        .map(|(l, ids)| (*l, ids.iter().cloned().collect::<BTreeSet<_>>()))
        .collect();
    ScanResult {
        findings: ctx.findings,
        facts: FileFacts {
            file: file.to_string(),
            krate: crate_of(file),
            fns: facts,
            allows,
        },
        used_allows: ctx.used,
    }
}

/// Pops one fn frame: fires the body-scoped rules and records its fact.
fn finish_frame(f: FnFrame, facts: &mut Vec<FnFact>, ctx: &mut Ctx<'_>) {
    if !f.in_test {
        let sink = f.sink || f.owner.as_deref().is_some_and(|o| SINK_TYPES.contains(&o));
        // Fn-level exemption: an allow on the declaration line clears the
        // whole fn's allocation facts (for e.g. a build-once-and-cache fn
        // whose allocations hot paths never see in steady state).
        let alloc_sites = if !f.alloc_sites.is_empty()
            && ctx.fact_allowed(f.line, &[rules::SRC_HOT_PATH_ALLOC_TRANSITIVE.id])
        {
            Vec::new()
        } else {
            f.alloc_sites
        };
        facts.push(FnFact {
            parse_path: is_parse_path(&f.name),
            name: f.name,
            owner: f.owner,
            line: f.line,
            hot_path: f.hot_path,
            panic_root: f.panic_root,
            sink,
            calls: f.calls,
            panic_sites: f.panic_sites,
            alloc_sites,
            nondet_sites: f.nondet_sites,
            index_sites: f.index_sites,
        });
    }
}

/// True when identifier token `i` is directly called: `name(` or the
/// turbofish form `name::<…>(`.
fn call_paren_after(toks: &[(Tok<'_>, usize)], i: usize) -> bool {
    match toks.get(i + 1) {
        Some((Tok::Punct('('), _)) => true,
        Some((Tok::Punct(':'), _)) => {
            if !matches!(toks.get(i + 2), Some((Tok::Punct(':'), _)))
                || !matches!(toks.get(i + 3), Some((Tok::Punct('<'), _)))
            {
                return false;
            }
            let mut angle = 0usize;
            let mut j = i + 3;
            while let Some((t, _)) = toks.get(j) {
                match t {
                    Tok::Punct('<') => angle += 1,
                    // `->` inside fn-pointer generics is not a close.
                    Tok::Punct('>') if !matches!(toks.get(j - 1), Some((Tok::Punct('-'), _))) => {
                        angle = angle.saturating_sub(1);
                        if angle == 0 {
                            return matches!(toks.get(j + 1), Some((Tok::Punct('('), _)));
                        }
                    }
                    _ => {}
                }
                j += 1;
                if j > i + 64 {
                    return false; // runaway: not a turbofish
                }
            }
            false
        }
        _ => false,
    }
}

/// If the token before `close_dot` (a `.`) is the `)` closing a
/// `write!(…)` / `writeln!(…)` macro call, returns the macro name.
fn write_macro_before<'a>(toks: &[(Tok<'a>, usize)], dot: usize) -> Option<&'a str> {
    if dot == 0 || !matches!(toks[dot - 1].0, Tok::Punct(')')) {
        return None;
    }
    let mut depth = 0usize;
    let mut j = dot - 1;
    loop {
        match toks[j].0 {
            Tok::Punct(')') => depth += 1,
            Tok::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    if j >= 2
        && matches!(toks[j - 1].0, Tok::Punct('!'))
        && matches!(toks[j - 2].0, Tok::Ident("write" | "writeln"))
    {
        match toks[j - 2].0 {
            Tok::Ident(name) => Some(name),
            Tok::Punct(_) => None,
        }
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<(String, usize)> {
        lint_source("x.rs", src, false)
            .into_iter()
            .map(|f| (f.rule, f.line.unwrap_or(0)))
            .collect()
    }

    #[test]
    fn unwrap_in_parse_fn_is_flagged_outside_tests() {
        let src = r#"
fn parse_config(s: &str) -> u32 {
    s.parse().unwrap()
}
fn render(x: u32) -> String {
    maybe(x).unwrap()
}
"#;
        assert_eq!(findings(src), vec![("src-unwrap-parse".to_string(), 3)]);
    }

    #[test]
    fn expect_and_panic_in_parse_paths() {
        let src = "fn from_str(s: &str) { s.parse().expect(\"n\"); }\n\
                   fn load_file(p: &str) { panic!(\"missing {p}\"); }\n";
        assert_eq!(
            findings(src),
            vec![
                ("src-unwrap-parse".to_string(), 1),
                ("src-unwrap-parse".to_string(), 2)
            ]
        );
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_skipped() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn parse_helper(s: &str) -> u32 { s.parse().unwrap() }
}
#[test]
fn parses() { parse_number("7").unwrap(); }
fn parse_number(s: &str) -> Option<u32> { s.parse().ok() }
"#;
        assert_eq!(findings(src), vec![]);
    }

    #[test]
    fn cfg_test_on_a_use_does_not_skip_the_next_item() {
        let src =
            "#[cfg(test)]\nuse std::fmt;\nfn parse_x(s: &str) { s.parse::<u32>().unwrap(); }\n";
        assert_eq!(findings(src), vec![("src-unwrap-parse".to_string(), 3)]);
    }

    #[test]
    fn timing_rule_and_exemption() {
        let src = "fn tick() { let t = Instant::now(); let s = SystemTime::now(); }\n";
        assert_eq!(
            findings(src),
            vec![("src-timing".to_string(), 1), ("src-timing".to_string(), 1)]
        );
        assert_eq!(lint_source("x.rs", src, true), vec![]);
    }

    #[test]
    fn write_unwrap_chain_is_flagged_anywhere() {
        let src = "fn render(out: &mut String) {\n    writeln!(out, \"x {}\", 1).unwrap();\n\
                       write!(out, \"y\").expect(\"fmt\");\n}\n";
        assert_eq!(
            findings(src),
            vec![
                ("src-write-unwrap".to_string(), 2),
                ("src-write-unwrap".to_string(), 3)
            ]
        );
    }

    #[test]
    fn strings_comments_and_lifetimes_hide_tokens() {
        let src = r##"
fn parse_docs<'a>(s: &'a str) -> &'a str {
    // s.parse().unwrap() in a comment
    /* nested /* writeln!(x).unwrap() */ block */
    let _c = 'x';
    let _e = '\n';
    let raw = r#"Instant::now() . unwrap ( ) "#;
    let plain = "panic!(\"no\")";
    s
}
"##;
        assert_eq!(findings(src), vec![]);
    }

    #[test]
    fn allow_pragma_suppresses_same_and_next_line() {
        let src = "fn parse_a(s: &str) { s.parse::<u32>().unwrap() /* keep */; } // lint:allow(src-unwrap-parse)\n\
                   fn parse_b(s: &str) {\n    // lint:allow(src-unwrap-parse)\n    s.parse::<u32>().unwrap();\n}\n\
                   fn parse_c(s: &str) { s.parse::<u32>().unwrap(); } // lint:allow(other-rule)\n";
        assert_eq!(findings(src), vec![("src-unwrap-parse".to_string(), 6)]);
    }

    #[test]
    fn hot_path_pragma_flags_allocations_in_the_next_fn_only() {
        let src = r#"
// lint:hot-path
fn inner_kernel(xs: &mut [u32]) {
    let v = vec![1, 2];
    let s = String::new();
    let t = x.to_string();
    let b = Box::new(3);
    let c: Vec<u32> = xs.iter().copied().collect();
}
fn relaxed() -> Vec<u32> {
    vec![1]
}
"#;
        let got = findings(src);
        assert_eq!(
            got.iter().map(|(r, _)| r.as_str()).collect::<Vec<_>>(),
            vec!["src-hot-path-alloc"; 5]
        );
        assert_eq!(
            got.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn hot_path_pragma_flags_stats_recorder_construction() {
        let src = r#"
// lint:hot-path
fn inner_kernel(xs: &[f64]) -> f64 {
    let rec = StatsRecorder::new();
    rec.add("evals", 1);
    xs.iter().sum()
}
fn setup() -> StatsRecorder {
    StatsRecorder::new()
}
fn generic(rec: &StatsRecorder) {
    rec.add("ok", 1);
}
"#;
        assert_eq!(
            findings(src),
            vec![("src-hot-path-recorder".to_string(), 4)]
        );
    }

    #[test]
    fn nested_fn_pops_back_to_the_outer_frame() {
        let src = r#"
fn parse_outer(s: &str) {
    fn helper() -> u32 { 7 }
    s.parse::<u32>().unwrap();
}
"#;
        assert_eq!(findings(src), vec![("src-unwrap-parse".to_string(), 4)]);
    }

    #[test]
    fn raw_identifiers_and_byte_strings_lex() {
        let src = "fn parse_r(s: &str) { let r#type = b\"bytes\"; let _ = br#\"raw\"#; s.parse::<u32>().unwrap(); }\n";
        assert_eq!(findings(src), vec![("src-unwrap-parse".to_string(), 1)]);
    }

    // ---- pass-1 fact extraction --------------------------------------

    fn facts(src: &str) -> FileFacts {
        scan_source("crates/demo/src/x.rs", src, false).facts
    }

    #[test]
    fn facts_record_calls_with_owner_and_qualifier() {
        let src = r#"
impl Mapper {
    fn plan(&self, g: &Ptg) -> f64 {
        let lb = bounds::lower_bound(g);
        Self::refine(lb);
        self.finish(lb)
    }
}
fn free_call() {
    helper::<u32>(1);
}
"#;
        let f = facts(src);
        assert_eq!(f.krate.as_deref(), Some("demo"));
        assert_eq!(f.fns.len(), 2);
        let plan = &f.fns[0];
        assert_eq!(plan.name, "plan");
        assert_eq!(plan.owner.as_deref(), Some("Mapper"));
        let calls: Vec<(&str, Option<&str>, bool)> = plan
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qualifier.as_deref(), c.dotted))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("lower_bound", Some("bounds"), false),
                ("refine", Some("Mapper"), false), // Self:: rewritten
                ("finish", None, true),
            ]
        );
        // Turbofish call is still a call.
        assert_eq!(f.fns[1].calls.len(), 1);
        assert_eq!(f.fns[1].calls[0].name, "helper");
    }

    #[test]
    fn facts_record_panic_sites_and_panic_root_pragma() {
        let src = r#"
// lint:panic-root
fn worker_loop(rx: &Receiver) {
    step().unwrap();
}
fn step() -> Result<(), PoolError> {
    panic!("boom");
}
fn quiet() -> u32 { 7 }
"#;
        let f = facts(src);
        assert!(f.fns[0].panic_root);
        assert_eq!(f.fns[0].panic_sites.len(), 1);
        assert_eq!(f.fns[0].panic_sites[0].what, ".unwrap()");
        assert!(!f.fns[1].panic_root);
        assert_eq!(f.fns[1].panic_sites[0].what, "panic!");
        assert!(f.fns[2].panic_sites.is_empty());
    }

    #[test]
    fn allow_at_site_removes_the_fact_and_is_marked_used() {
        let src = r#"
fn guarded() {
    maybe().unwrap(); // lint:allow(src-panic-reach) -- contained by catch_unwind
}
"#;
        let r = scan_source("x.rs", src, false);
        assert!(r.facts.fns[0].panic_sites.is_empty());
        assert!(r.used_allows.contains(&(3, "src-panic-reach".to_string())));
    }

    #[test]
    fn nondet_sites_with_seconds_escape_and_allow() {
        let src = r#"
fn trace_epoch() {
    let t0 = Instant::now(); // lint:allow(src-timing) -- phase accounting
    let wall_seconds = Instant::now(); // lint:allow(src-timing)
    let id = thread::current().id();
    let home = env::var("HOME");
}
"#;
        let r = scan_source("x.rs", src, false);
        let f = &r.facts.fns[0];
        // Both clock reads escape (allow + _seconds); thread/env stay.
        let whats: Vec<&str> = f.nondet_sites.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec!["thread::current()", "env read"]);
        // The timing findings themselves are suppressed and audited.
        assert!(r.findings.is_empty());
        assert!(r.used_allows.contains(&(3, "src-timing".to_string())));
    }

    #[test]
    fn timing_exempt_crates_contribute_no_clock_taint() {
        let src = "fn measure() { let t = Instant::now(); }
";
        let r = scan_source("crates/obs/src/x.rs", src, true);
        assert!(r.findings.is_empty());
        assert!(r.facts.fns[0].nondet_sites.is_empty());
    }

    #[test]
    fn hash_iteration_is_a_nondet_site() {
        let src = r#"
fn tally(xs: &[u32]) -> u32 {
    let mut seen = HashMap::new();
    let ordered = BTreeMap::new();
    let mut total = 0;
    for k in &seen {
        total += k;
    }
    for v in &ordered {
        total += v;
    }
    total + seen.keys().count() as u32
}
"#;
        let f = facts(src);
        let whats: Vec<&str> = f.fns[0]
            .nondet_sites
            .iter()
            .map(|s| s.what.as_str())
            .collect();
        assert_eq!(
            whats,
            vec![
                "for … in seen — HashMap/HashSet iteration order",
                "seen.keys() — HashMap/HashSet iteration order",
            ]
        );
    }

    #[test]
    fn alloc_sites_recorded_for_all_fns_not_just_hot() {
        let src = r#"
fn relaxed() -> Vec<u32> {
    let mut v = Vec::new();
    v.push(1);
    let s = format!("x");
    xs.iter().copied().collect()
}
"#;
        let f = facts(src);
        let whats: Vec<&str> = f.fns[0]
            .alloc_sites
            .iter()
            .map(|s| s.what.as_str())
            .collect();
        assert_eq!(whats, vec!["Vec", "format", "collect"]);
        // No finding: the fn is not hot.
        assert!(scan_source("x.rs", src, false).findings.is_empty());
    }

    #[test]
    fn fn_level_allow_clears_all_alloc_facts_of_the_fn() {
        let src = r#"
// lint:allow(src-hot-path-alloc-transitive) -- builds once, then cached
fn build_cache() -> Vec<u32> {
    let mut v = Vec::new();
    v.extend(0..4);
    v.to_vec()
}
"#;
        let res = scan_source("x.rs", src, false);
        assert!(res.facts.fns[0].alloc_sites.is_empty());
        assert!(res
            .used_allows
            .contains(&(2, "src-hot-path-alloc-transitive".to_string())));
    }

    #[test]
    fn sink_marker_from_signature_body_and_owner() {
        let src = r#"
fn build_trace(gens: usize) -> ConvergenceTrace {
    walk(gens)
}
impl RunReport {
    fn bump(&mut self) {}
}
fn unrelated() {}
"#;
        let f = facts(src);
        assert!(f.fns[0].sink);
        assert!(f.fns[1].sink); // owner is a sink type
        assert!(!f.fns[2].sink);
    }

    #[test]
    fn test_fns_produce_no_facts() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn helper() { panic!("test only"); }
}
fn real() {}
"#;
        let f = facts(src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
    }

    #[test]
    fn index_sites_counted() {
        let src = "fn pick(xs: &[u32], i: usize) -> u32 { xs[i] + xs[0] }\n";
        assert_eq!(facts(src).fns[0].index_sites, 2);
    }

    #[test]
    fn keywords_and_macros_are_not_call_edges() {
        let src = r#"
fn flow(x: u32) -> u32 {
    if check(x) { return x; }
    let y = match x { 0 => Some(1), _ => None };
    vec![1, 2].len() as u32
}
"#;
        let names: Vec<String> = facts(src).fns[0]
            .calls
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(names, vec!["check", "len"]);
    }
}
