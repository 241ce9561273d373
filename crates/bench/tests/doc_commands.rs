//! The reader-facing docs name only targets that exist.
//!
//! Every `--bin`, `--bench` and `--example` name that `README.md`,
//! `EXPERIMENTS.md` or `DESIGN.md` tells a reader to run must be a target
//! of some workspace crate: a `src/bin/*.rs` file or a `[[bin]]`, a
//! `[[bench]]`, or an `[[example]]` table. A command whose target was
//! deleted or renamed fails here instead of in a reader's terminal.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "EXPERIMENTS.md", "DESIGN.md"];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(flag, name)` for every `--bin NAME`, `--bench NAME` and
/// `--example NAME` in `text`; line breaks between flag and name are
/// whitespace like any other.
fn commands(text: &str) -> Vec<(String, String)> {
    let is_name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut tokens = text.split_whitespace();
    let mut out = Vec::new();
    while let Some(token) = tokens.next() {
        let flag = token.trim_start_matches('`');
        if !matches!(flag, "--bin" | "--bench" | "--example") {
            continue;
        }
        let Some(next) = tokens.next() else { break };
        let name: String = next
            .trim_start_matches('`')
            .chars()
            .take_while(|&c| is_name_char(c))
            .collect();
        if !name.is_empty() && !name.starts_with('-') {
            out.push((flag.to_string(), name));
        }
    }
    out
}

/// Every target a workspace crate declares, keyed `(flag, name)`.
fn targets(root: &Path) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates directory");
    for krate in crates.map(|e| e.expect("dir entry").path()) {
        if let Ok(bins) = std::fs::read_dir(krate.join("src/bin")) {
            for bin in bins.map(|e| e.expect("dir entry").path()) {
                if bin.extension().is_some_and(|x| x == "rs") {
                    let stem = bin.file_stem().expect("file stem").to_string_lossy();
                    out.insert(("--bin".to_string(), stem.into_owned()));
                }
            }
        }
        let manifest = krate.join("Cargo.toml");
        if !manifest.exists() {
            continue;
        }
        let mut table = None;
        for line in read(&manifest).lines().map(str::trim) {
            if line.starts_with('[') {
                table = match line {
                    "[[bin]]" => Some("--bin"),
                    "[[bench]]" => Some("--bench"),
                    "[[example]]" => Some("--example"),
                    _ => None,
                };
            } else if let (Some(flag), Some(value)) = (table, line.strip_prefix("name")) {
                let name = value.trim_start().trim_start_matches('=').trim();
                out.insert((flag.to_string(), name.trim_matches('"').to_string()));
            }
        }
    }
    out
}

#[test]
fn every_documented_target_exists() {
    let root = workspace_root();
    let known = targets(&root);
    let mut missing = Vec::new();
    let mut seen = 0;
    for doc in DOCS {
        for (flag, name) in commands(&read(&root.join(doc))) {
            seen += 1;
            if !known.contains(&(flag.clone(), name.clone())) {
                missing.push(format!("{doc}: {flag} {name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name missing targets: {missing:#?}"
    );
    // The figure bins, the benches and the examples are all named somewhere.
    assert!(seen >= 20, "only {seen} commands found");
}
