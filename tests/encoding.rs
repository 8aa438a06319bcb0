//! Every Rust source and Markdown file of the repository is clean UTF-8:
//! none carries text that was decoded as Latin-1 and encoded to UTF-8 a
//! second time, which stores `—` as U+00E2 U+0080 U+0094 and `§` as
//! U+00C2 U+00A7, and makes a format string print the garbage.

use std::path::{Path, PathBuf};

/// Directories whose files the repository does not write by hand.
const SKIPPED_DIRS: [&str; 3] = ["target", "vendor", ".git"];

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIPPED_DIRS.contains(&name) {
                collect(&path, out);
            }
        } else if name.ends_with(".rs") || name.ends_with(".md") {
            out.push(path);
        }
    }
}

/// True when `text` holds a C1 control (U+0080–U+009F) or U+00C2 before
/// U+00A0–U+00BF: the marks of a doubly encoded character.
fn mangled(text: &str) -> bool {
    let mut prev = ' ';
    text.chars().any(|c| {
        let hit = ('\u{80}'..='\u{9f}').contains(&c)
            || (prev == '\u{c2}' && ('\u{a0}'..='\u{bf}').contains(&c));
        prev = c;
        hit
    })
}

#[test]
fn no_source_or_markdown_file_holds_double_encoded_text() {
    assert!(mangled("\u{e2}\u{80}\u{94}") && mangled("\u{c2}\u{a7}") && !mangled("—§σ₁−"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect(root, &mut files);
    files.sort();
    assert!(
        files.iter().any(|f| f.ends_with("src/lib.rs")),
        "the walk found no sources"
    );
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("{} is not UTF-8: {e}", file.display()));
        let markdown = file.extension().is_some_and(|e| e == "md");
        for (i, line) in text.lines().enumerate() {
            // A Markdown document may quote a mangled sequence inside an
            // inline code span; its prose may not.
            let mut prose = line.split('`').step_by(if markdown { 2 } else { 1 });
            if prose.any(mangled) {
                let rel = file.strip_prefix(root).expect("under the root");
                hits.push(format!("{}:{}", rel.display(), i + 1));
            }
        }
    }
    assert!(hits.is_empty(), "double-encoded UTF-8 at {hits:?}");
}
