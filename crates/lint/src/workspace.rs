//! Deterministic workspace file walker.
//!
//! Collects every `.rs` file, `Cargo.toml` and `Cargo.lock` the lint pass
//! should see, in sorted order so diagnostics are stable across machines,
//! and skips any `target/` directory, dot directories and
//! `crates/lint/tests/fixtures/` (deliberately-bad snippets that must never
//! count as workspace findings). `vendor/` (offline stand-ins, not ours to
//! lint) is collected for R9's tombstones only.

use std::fs;
use std::path::{Path, PathBuf};

/// A source file handed to the scanner: workspace-relative path + content.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// `/`-separated path relative to the workspace root.
    pub path: String,
    /// Full file text.
    pub text: String,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target"];

/// Path prefixes (workspace-relative) excluded from linting.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures"];

/// Walks the workspace rooted at `root` and returns all lintable sources,
/// sorted by path. IO errors on individual files are skipped (the linter
/// must not fail on an unreadable editor temp file); an unreadable root is
/// an error.
pub fn collect(root: &Path) -> Result<Vec<SourceFile>, String> {
    if !root.join("Cargo.toml").exists() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            walk(root, &path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            if let Ok(text) = fs::read_to_string(&path) {
                out.push(SourceFile { path: rel, text });
            }
        }
    }
}

/// Workspace-relative `/`-separated path.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_own_workspace_sorted_and_filtered() {
        // The lint crate lives at crates/lint, so the workspace root is two
        // levels up from its manifest dir.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let files = collect(&root).expect("collect");
        assert!(files.iter().any(|f| f.path == "crates/lint/src/lexer.rs"));
        assert!(files.iter().any(|f| f.path.starts_with("crates/radio/src/")));
        assert!(files.iter().any(|f| f.path == "crates/lint/Cargo.toml"));
        assert!(files.iter().any(|f| f.path == "vendor/rand/Cargo.toml"));
        assert!(
            !files
                .iter()
                .any(|f| f.path.starts_with("crates/lint/tests/fixtures")),
            "fixture corpus must not count as workspace findings"
        );
        let mut sorted = files.iter().map(|f| f.path.clone()).collect::<Vec<_>>();
        sorted.sort();
        assert_eq!(
            sorted,
            files.iter().map(|f| f.path.clone()).collect::<Vec<_>>(),
            "walk order must be deterministic"
        );
    }
}
