//! Workspace self-run: linting the real tree must produce zero findings.
//! This is the same gate CI runs via `cargo run -p sonic-lint --
//! --workspace`, wired into `cargo test` so a violation fails fast and
//! locally.

use sonic_lint::lint_workspace;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_has_zero_findings() {
    let findings = lint_workspace(&workspace_root()).expect("lint workspace");
    assert!(
        findings.is_empty(),
        "lint findings (fix each, or `// lint: allow` it with a justification):\n{}",
        findings
            .iter()
            .map(sonic_lint::format_finding)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_run_is_deterministic() {
    let root = workspace_root();
    let a = lint_workspace(&root).expect("first run");
    let b = lint_workspace(&root).expect("second run");
    assert_eq!(a, b, "two runs over the same tree must agree exactly");
}

#[test]
fn real_wire_protocol_is_total() {
    // R7 self-check: every variant of the real `net::proto` enums must sit
    // on both the encode and decode paths and be named by a round-trip
    // test. This is the CI step that keeps a newly added wire message from
    // shipping half-implemented.
    let root = workspace_root();
    let findings = lint_workspace(&root).expect("lint workspace");
    let r7: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == sonic_lint::Rule::WireTotality)
        .collect();
    assert!(
        r7.is_empty(),
        "wire-protocol totality violations:\n{}",
        r7.iter()
            .map(|f| sonic_lint::format_finding(f))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn call_graph_resolves_the_workspace() {
    // The interprocedural pass is only as good as its graph: it must see a
    // four-digit node count and resolve a substantial share of call sites,
    // or the transitive rules are silently vacuous.
    let root = workspace_root();
    let g = sonic_lint::graph_workspace(&root).expect("graph workspace");
    assert!(g.stats.nodes > 500, "only {} nodes", g.stats.nodes);
    assert!(g.stats.edges > 1000, "only {} edges", g.stats.edges);
    assert!(
        g.stats.resolved_calls > g.stats.call_sites / 4,
        "resolved {} of {} call sites",
        g.stats.resolved_calls,
        g.stats.call_sites
    );
}
