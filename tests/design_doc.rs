//! DESIGN.md is a map, not a second copy of the design: each subsystem's
//! design lives in the module docs of its code, where `cargo doc -D
//! warnings` resolves every link. These checks keep the map from growing
//! back into a copy, and keep change history out of both.

use std::fs;
use std::path::{Path, PathBuf};

/// DESIGN.md keeps the paper, the substitutions, the crate inventory, the
/// protocol-reading decisions and one linked line per subsystem.
const DESIGN_MAX_LINES: usize = 450;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line` names a change by number: `PR` as a word, a space, a
/// digit.
fn names_a_change(line: &str) -> bool {
    line.match_indices("PR ").any(|(at, _)| {
        let word_start = line[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric());
        let digit_follows = line[at + 3..].starts_with(|c: char| c.is_ascii_digit());
        word_start && digit_follows
    })
}

#[test]
fn the_change_marker_matches_only_a_numbered_change() {
    assert!(names_a_change("landed in PR 12"));
    assert!(names_a_change("(PR 7)"));
    assert!(!names_a_change("SPR 5, PR review, PRs 3"));
}

#[test]
fn design_md_is_a_map_and_no_design_doc_names_a_change() {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let lines = design.lines().count();
    assert!(
        lines <= DESIGN_MAX_LINES,
        "DESIGN.md has {lines} lines, more than {DESIGN_MAX_LINES}: a subsystem's \
         design belongs in the module docs of its code"
    );

    let mut offenders: Vec<String> = design
        .lines()
        .enumerate()
        .filter(|(_, line)| names_a_change(line))
        .map(|(n, line)| format!("DESIGN.md:{}: {line}", n + 1))
        .collect();
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    assert!(!files.is_empty(), "no sources found under crates/*/src");
    for file in &files {
        let text = fs::read_to_string(file).expect("source file");
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("//!") && names_a_change(line) {
                let rel = file.strip_prefix(root()).unwrap_or(file);
                offenders.push(format!("{}:{}: {}", rel.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "change history belongs in CHANGES.md, not in the design:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn every_file_design_md_links_exists() {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let mut checked = 0;
    for (n, line) in design.lines().enumerate() {
        for (at, _) in line.match_indices("](") {
            let rest = &line[at + 2..];
            let target = &rest[..rest.find(')').expect("a link closes on its line")];
            if target.contains("://") || target.starts_with('#') {
                continue;
            }
            let path = target.split('#').next().unwrap_or(target);
            assert!(
                root().join(path).exists(),
                "DESIGN.md:{}: links {target}, which does not exist",
                n + 1
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "DESIGN.md links no module");
}
