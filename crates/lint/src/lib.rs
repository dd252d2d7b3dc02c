//! # sonic-lint
//!
//! Workspace static-analysis pass enforcing the SONIC repo's hand-shake
//! invariants — the conventions the whole correctness story rests on but
//! that `clippy` cannot express:
//!
//! * **R1 `no-alloc`** — functions named `*_into` (and any marked
//!   `// lint: no-alloc`) are the allocation-free hot paths of the modem
//!   and codec; they may not call `Vec::new`, `vec!`, `.push`, `.collect`,
//!   `.to_vec`, `.clone`, `Box::new` or `format!`.
//! * **R2 `reference-parity`** — every fast path `foo` with a kept
//!   `foo_reference` twin must be exercised together with it in at least
//!   one test/property file (the bit-identity contract of PRs 1–3).
//! * **R3 `determinism`** — `Instant::now`, `SystemTime`, `thread_rng`
//!   and hash-ordered containers (`HashMap`/`HashSet`) are banned in
//!   `sonic-sim`, `sonic-radio::faults` and `sonic-core::server`: every
//!   result there must be a pure function of the experiment seed.
//! * **R4 `panic-free`** — `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   `todo!` are banned in non-test code of the decode chain (`modem`,
//!   `fec`, `image`, `radio`, `core::reassembly`): a corrupt frame
//!   degrades the page, it must never kill the receiver.
//! * **R5 `unit-hygiene`** — magic sample-rate/subcarrier literals
//!   (`228_000`, `57_000`, `44_100`, …) must come from named constants.
//! * **R6 `safety-comment`** — any `unsafe` block requires a
//!   `// SAFETY:` line (the crates also `#![forbid(unsafe_code)]`).
//!
//! Diagnostics carry `file:line:rule` and a machine-readable `--json`
//! mode. Any finding fails the run: fix it, or `// lint: allow` it with a
//! justification. See DESIGN.md §9 for the rule rationale and the
//! `// lint:` annotation grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod graph;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use graph::{CallGraph, GraphStats};
pub use rules::{analyze, Finding, Rule};
pub use workspace::SourceFile;

use std::path::Path;

/// Scans a set of in-memory sources and returns sorted findings. This is
/// the core entry point the CLI, the fixture tests and the self-run test
/// all share; paths decide rule scope, so fixtures pass virtual paths.
pub fn lint_sources(sources: &[SourceFile]) -> Vec<Finding> {
    let scanned: Vec<scan::ScannedFile> = sources
        .iter()
        .map(|s| scan::scan(&s.path, &s.text))
        .collect();
    rules::analyze(&scanned)
}

/// Walks the workspace at `root` and lints everything in scope.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let sources = workspace::collect(root)?;
    Ok(lint_sources(&sources))
}

/// Walks the workspace at `root` and builds the call graph only (the
/// `--graph-stats` mode).
pub fn graph_workspace(root: &Path) -> Result<CallGraph, String> {
    let sources = workspace::collect(root)?;
    let scanned: Vec<scan::ScannedFile> = sources
        .iter()
        .map(|s| scan::scan(&s.path, &s.text))
        .collect();
    Ok(graph::build(&scanned))
}

/// Renders one finding as the canonical `file:line: id [slug] message` line.
pub fn format_finding(f: &Finding) -> String {
    format!(
        "{}:{}: {} [{}] {}",
        f.file,
        f.line,
        f.rule.id(),
        f.rule.slug(),
        f.message
    )
}

/// Renders findings as a JSON array for `--json` mode.
pub fn findings_to_json(findings: &[Finding]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        let chain = if f.chain.is_empty() {
            String::new()
        } else {
            let items: Vec<String> = f.chain.iter().map(|c| json_str(c)).collect();
            format!(", \"chain\": [{}]", items.join(", "))
        };
        let _ = write!(
            s,
            "  {{ \"file\": {}, \"line\": {}, \"rule\": {}, \"slug\": {}, \"key\": {}, \"message\": {}{} }}",
            json_str(&f.file),
            f.line,
            json_str(f.rule.id()),
            json_str(f.rule.slug()),
            json_str(&f.key),
            json_str(&f.message),
            chain
        );
        s.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    s
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
