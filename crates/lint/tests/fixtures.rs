//! Fixture-driven self-tests: every rule must produce its exact
//! diagnostics (rule id + line) on the known-bad corpus under
//! `tests/fixtures/`, and stay quiet on the known-good parts.
//!
//! Fixture files are fed to the linter under *virtual* workspace paths so
//! the path-scoped rules (R3 determinism, R4 panic-free, R5 unit-hygiene)
//! arm exactly as they would in the real tree. The fixtures directory is
//! excluded from the workspace walker, so none of this counts as a real
//! finding.

use sonic_lint::{lint_sources, Rule, SourceFile};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// (rule, line, key) triples for every diagnostic of one run.
fn triples(virtual_path: &str, name: &str) -> Vec<(Rule, u32, String)> {
    let src = SourceFile {
        path: virtual_path.to_string(),
        text: fixture(name),
    };
    lint_sources(&[src])
        .into_iter()
        .map(|f| (f.rule, f.line, f.key))
        .collect()
}

#[test]
fn r1_no_alloc_exact_diagnostics() {
    let got = triples("crates/dsp/src/fixture.rs", "r1_no_alloc.rs");
    let want = vec![
        (Rule::NoAlloc, 5, "Vec::new".to_string()),
        (Rule::NoAlloc, 6, "vec!".to_string()),
        (Rule::NoAlloc, 7, ".extend".to_string()),
        (Rule::NoAlloc, 12, ".collect".to_string()),
        (Rule::NoAlloc, 13, "format!".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r2_reference_parity_exact_diagnostics() {
    let got = triples("crates/modem/src/fixture.rs", "r2_reference_parity.rs");
    let want = vec![
        (Rule::ReferenceParity, 10, "equalize".to_string()),
        (Rule::ReferenceParity, 21, "window".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r2_parity_satisfied_by_joint_test_file() {
    let lib = SourceFile {
        path: "crates/modem/src/fixture.rs".to_string(),
        text: fixture("r2_reference_parity.rs"),
    };
    let tests = SourceFile {
        path: "crates/modem/tests/parity.rs".to_string(),
        text: "#[test]\nfn twins() {\n  equalize(&mut []); equalize_reference(&mut []);\n  assert_eq!(window(&[]), window_reference(&[]));\n}\n"
            .to_string(),
    };
    assert!(lint_sources(&[lib, tests]).is_empty());
}

#[test]
fn r3_determinism_exact_diagnostics() {
    let got = triples("crates/sim/src/fixture.rs", "r3_determinism.rs");
    let want = vec![
        (Rule::Determinism, 4, "HashMap".to_string()),
        (Rule::Determinism, 5, "SystemTime".to_string()),
        (Rule::Determinism, 7, "HashMap".to_string()),
        (Rule::Determinism, 9, "Instant::now".to_string()),
        (Rule::Determinism, 10, "SystemTime".to_string()),
        (Rule::Determinism, 11, "thread_rng".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r3_covers_tiered_store_module() {
    // The disk artifact store lives under `crates/core/src/server/` and is
    // therefore in R3's deterministic scope: same-seed runs must leave
    // byte-identical on-disk state, so hasher order and wall clocks are
    // banned from it. A store-shaped fixture must light up line by line…
    let got = triples("crates/core/src/server/store.rs", "r3_store_determinism.rs");
    let want = vec![
        (Rule::Determinism, 3, "HashMap".to_string()),
        (Rule::Determinism, 4, "SystemTime".to_string()),
        (Rule::Determinism, 7, "HashMap".to_string()),
        (Rule::Determinism, 12, "Instant::now".to_string()),
        (Rule::Determinism, 14, "SystemTime".to_string()),
        (Rule::Determinism, 17, "thread_rng".to_string()),
    ];
    assert_eq!(got, want);

    // …and the real store module must stay silent under the same rule.
    let real = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../core/src/server/store.rs");
    let src = SourceFile {
        path: "crates/core/src/server/store.rs".to_string(),
        text: std::fs::read_to_string(&real)
            .unwrap_or_else(|e| panic!("store module unreadable: {e}")),
    };
    let findings = lint_sources(&[src]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r3_covers_scenario_and_terrain_modules() {
    // The country-scale scenario engine and its terrain live under
    // `crates/sim/src/` and are therefore in R3's deterministic scope:
    // same-seed runs must render byte-identical reports at any worker
    // count, so hash-ordered containers, wall clocks and unseeded RNGs
    // are banned. An engine-shaped fixture must light up line by line
    // under both virtual paths…
    let want = vec![
        (Rule::Determinism, 4, "HashMap".to_string()),
        (Rule::Determinism, 4, "HashSet".to_string()),
        (Rule::Determinism, 7, "HashMap".to_string()),
        (Rule::Determinism, 8, "HashSet".to_string()),
        (Rule::Determinism, 13, "Instant::now".to_string()),
        (Rule::Determinism, 16, "thread_rng".to_string()),
        (Rule::Determinism, 20, "SystemTime".to_string()),
    ];
    let engine = triples(
        "crates/sim/src/scenario/engine.rs",
        "r3_scenario_determinism.rs",
    );
    assert_eq!(engine, want);
    let terrain = triples("crates/sim/src/terrain.rs", "r3_scenario_determinism.rs");
    assert_eq!(terrain, want);

    // …and the real modules must stay silent under the same rule.
    for rel in [
        "src/scenario/engine.rs",
        "src/scenario/population.rs",
        "src/scenario/aggregate.rs",
        "src/scenario/mod.rs",
        "src/terrain.rs",
    ] {
        let real = Path::new(env!("CARGO_MANIFEST_DIR")).join("../sim").join(rel);
        let src = SourceFile {
            path: format!("crates/sim/{rel}"),
            text: std::fs::read_to_string(&real)
                .unwrap_or_else(|e| panic!("{rel} unreadable: {e}")),
        };
        let findings = lint_sources(&[src]);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

#[test]
fn r3_out_of_scope_is_silent() {
    // Same nondeterministic code outside sim/faults/server: not our rule.
    let got = triples("crates/pagegen/src/fixture.rs", "r3_determinism.rs");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r3_covers_framed_transport_modules() {
    // The framed transport and RPC layer live under `crates/core/src/net/`
    // and are in R3's deterministic scope: link fates, retry timers and
    // chunk arrival order must be pure functions of (seed, sim-time) so
    // same-seed chaos runs replay byte-identically. A transport-shaped
    // fixture must light up line by line under both virtual paths…
    let want = vec![
        (Rule::Determinism, 3, "HashMap".to_string()),
        (Rule::Determinism, 4, "SystemTime".to_string()),
        (Rule::Determinism, 7, "HashMap".to_string()),
        (Rule::Determinism, 12, "Instant::now".to_string()),
        (Rule::Determinism, 13, "SystemTime".to_string()),
        (Rule::Determinism, 15, "thread_rng".to_string()),
    ];
    let transport = triples("crates/core/src/net/transport.rs", "r3_net_determinism.rs");
    assert_eq!(transport, want);
    let rpc = triples("crates/core/src/net/rpc.rs", "r3_net_determinism.rs");
    assert_eq!(rpc, want);

    // …and the real net modules must stay silent under the same rule.
    for rel in [
        "src/net/codec.rs",
        "src/net/mod.rs",
        "src/net/proto.rs",
        "src/net/rpc.rs",
        "src/net/transport.rs",
    ] {
        let real = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core").join(rel);
        let src = SourceFile {
            path: format!("crates/core/{rel}"),
            text: std::fs::read_to_string(&real)
                .unwrap_or_else(|e| panic!("{rel} unreadable: {e}")),
        };
        let findings = lint_sources(&[src]);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

#[test]
fn r3_covers_the_receive_path() {
    // The reassembler and the client decide which page an over-budget
    // reassembler evicts and in what order pending pages are listed: the
    // chaos soak replays them from a seed, so hasher order is banned there
    // too. The transport fixture lights up under both virtual paths…
    let want = vec![
        (Rule::Determinism, 3, "HashMap".to_string()),
        (Rule::Determinism, 4, "SystemTime".to_string()),
        (Rule::Determinism, 7, "HashMap".to_string()),
        (Rule::Determinism, 12, "Instant::now".to_string()),
        (Rule::Determinism, 13, "SystemTime".to_string()),
        (Rule::Determinism, 15, "thread_rng".to_string()),
    ];
    for path in ["crates/core/src/reassembly.rs", "crates/core/src/client/mod.rs"] {
        assert_eq!(triples(path, "r3_net_determinism.rs"), want, "{path}");
    }

    // …and the real modules stay silent under every rule.
    for rel in [
        "src/reassembly.rs",
        "src/client/mod.rs",
        "src/client/cache.rs",
        "src/client/browser.rs",
    ] {
        let real = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core").join(rel);
        let src = SourceFile {
            path: format!("crates/core/{rel}"),
            text: std::fs::read_to_string(&real)
                .unwrap_or_else(|e| panic!("{rel} unreadable: {e}")),
        };
        let findings = lint_sources(&[src]);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

#[test]
fn r4_panic_free_exact_diagnostics() {
    let got = triples("crates/fec/src/fixture.rs", "r4_panic_free.rs");
    let want = vec![
        (Rule::PanicFree, 5, ".unwrap".to_string()),
        (Rule::PanicFree, 7, "panic!".to_string()),
        (Rule::PanicFree, 9, ".expect".to_string()),
        (Rule::PanicFree, 11, "unreachable!".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r4_decode_chain_scope_includes_reassembly_only_for_core() {
    let src = fixture("r4_panic_free.rs");
    let in_scope = lint_sources(&[SourceFile {
        path: "crates/core/src/reassembly.rs".to_string(),
        text: src.clone(),
    }]);
    assert_eq!(in_scope.len(), 4);
    let out_of_scope = lint_sources(&[SourceFile {
        path: "crates/core/src/server/mod.rs".to_string(),
        text: src,
    }]);
    assert!(out_of_scope.iter().all(|f| f.rule != Rule::PanicFree));
}

#[test]
fn r4_covers_net_and_cluster_modules() {
    // The wire codec parses attacker-shaped bytes and the coordinator folds
    // responses from crashed sites: both must degrade (resync, mark the
    // site Down) instead of panicking, so `crates/core/src/net/` and the
    // cluster coordinator are in R4's panic-free scope. A fold-shaped
    // fixture must light up line by line under both virtual paths…
    let want = vec![
        (Rule::PanicFree, 5, ".unwrap".to_string()),
        (Rule::PanicFree, 7, "panic!".to_string()),
        (Rule::PanicFree, 9, ".expect".to_string()),
        (Rule::PanicFree, 11, "unreachable!".to_string()),
    ];
    let codec = triples("crates/core/src/net/codec.rs", "r4_cluster_panic_free.rs");
    assert_eq!(codec, want);
    let cluster = triples(
        "crates/core/src/server/cluster.rs",
        "r4_cluster_panic_free.rs",
    );
    assert_eq!(cluster, want);

    // Only the coordinator is in R4 scope under `server/`; its siblings
    // answer to R3 alone.
    let sibling = lint_sources(&[SourceFile {
        path: "crates/core/src/server/cache.rs".to_string(),
        text: fixture("r4_cluster_panic_free.rs"),
    }]);
    assert!(sibling.iter().all(|f| f.rule != Rule::PanicFree));

    // …and the real coordinator must stay silent under the same rule.
    let real = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/server/cluster.rs");
    let src = SourceFile {
        path: "crates/core/src/server/cluster.rs".to_string(),
        text: std::fs::read_to_string(&real)
            .unwrap_or_else(|e| panic!("cluster module unreadable: {e}")),
    };
    let findings = lint_sources(&[src]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r5_unit_hygiene_exact_diagnostics() {
    let got = triples("crates/radio/src/fixture.rs", "r5_unit_hygiene.rs");
    let want = vec![
        (Rule::UnitHygiene, 7, "228000".to_string()),
        (Rule::UnitHygiene, 8, "19000".to_string()),
        (Rule::UnitHygiene, 9, "44100".to_string()),
        (Rule::UnitHygiene, 14, "1187.5".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r6_safety_comment_exact_diagnostics() {
    let got = triples("crates/dsp/src/fixture.rs", "r6_safety_comment.rs");
    let want = vec![
        (Rule::SafetyComment, 4, "unsafe".to_string()),
        (Rule::SafetyComment, 7, "unsafe".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r6_flags_std_arch_simd_kernels() {
    // The shape of the real `sonic-dsp::simd` kernels: `#[target_feature]`
    // unsafe fns wrapping `std::arch` intrinsics. Both the bare decl (line
    // 6) and the bare intrinsic block (line 9) must be flagged; the
    // SAFETY-tagged twin below them must stay quiet.
    let got = triples("crates/dsp/src/fixture.rs", "r6_simd_intrinsics.rs");
    let want = vec![
        (Rule::SafetyComment, 6, "unsafe".to_string()),
        (Rule::SafetyComment, 9, "unsafe".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn every_rule_has_at_least_two_fixture_diagnostics() {
    // The acceptance bar: ≥ 2 distinct diagnostics per rule across the
    // fixture corpus.
    let all = [
        triples("crates/dsp/src/fixture.rs", "r1_no_alloc.rs"),
        triples("crates/modem/src/fixture.rs", "r2_reference_parity.rs"),
        triples("crates/sim/src/fixture.rs", "r3_determinism.rs"),
        triples("crates/fec/src/fixture.rs", "r4_panic_free.rs"),
        triples("crates/radio/src/fixture.rs", "r5_unit_hygiene.rs"),
        triples("crates/dsp/src/fixture.rs", "r6_safety_comment.rs"),
        triples("crates/core/src/net/proto.rs", "r7_wire_totality.rs"),
        triples("crates/core/src/net/fixture.rs", "r8_lossy_cast.rs"),
    ];
    for (rule, batch) in [
        Rule::NoAlloc,
        Rule::ReferenceParity,
        Rule::Determinism,
        Rule::PanicFree,
        Rule::UnitHygiene,
        Rule::SafetyComment,
        Rule::WireTotality,
        Rule::LossyCast,
    ]
    .iter()
    .zip(&all)
    {
        let n = batch.iter().filter(|(r, _, _)| r == rule).count();
        assert!(n >= 2, "rule {:?} has {n} fixture diagnostics, need ≥ 2", rule);
    }
}

/// Full findings for a set of (virtual path, fixture) pairs — the
/// transitive fixtures need the chain, not just (rule, line, key).
fn full(sources: &[(&str, &str)]) -> Vec<sonic_lint::Finding> {
    let srcs: Vec<SourceFile> = sources
        .iter()
        .map(|(path, name)| SourceFile {
            path: path.to_string(),
            text: fixture(name),
        })
        .collect();
    lint_sources(&srcs)
}

#[test]
fn r1_transitive_exact_chain() {
    let got = full(&[("crates/dsp/src/fixture.rs", "r1_transitive.rs")]);
    assert_eq!(got.len(), 1, "{got:?}");
    let f = &got[0];
    assert_eq!(f.rule, Rule::NoAlloc);
    assert_eq!(f.line, 7, "root call-site line");
    assert_eq!(f.chain, ["mix_into", "shape", "scale", "grow", "Vec::new"]);
    assert_eq!(f.key, "mix_into→shape→scale→grow→Vec::new");
    // `vetted_into` makes the identical call under an edge-breaking allow:
    // no second finding may exist for it.
    assert!(!got.iter().any(|f| f.key.starts_with("vetted_into")));
}

#[test]
fn r3_transitive_chain_crosses_crates() {
    let got = full(&[
        ("crates/sim/src/fixture.rs", "r3_transitive_root.rs"),
        ("crates/dsp/src/helper_fixture.rs", "r3_transitive_helper.rs"),
    ]);
    assert_eq!(got.len(), 1, "{got:?}");
    let f = &got[0];
    assert_eq!(f.rule, Rule::Determinism);
    assert_eq!(f.file, "crates/sim/src/fixture.rs");
    assert_eq!(f.line, 9);
    assert_eq!(f.chain, ["schedule", "jitter", "thread_rng"]);
    // The helper itself is out of lexical scope: no finding may blame it
    // directly.
    assert!(got.iter().all(|f| f.file != "crates/dsp/src/helper_fixture.rs"));
}

#[test]
fn r4_transitive_chain_reaches_nested_helper() {
    let got = full(&[
        ("crates/fec/src/fixture.rs", "r4_transitive_root.rs"),
        ("crates/sms/src/helper_fixture.rs", "r4_transitive_helper.rs"),
    ]);
    assert_eq!(got.len(), 1, "{got:?}");
    let f = &got[0];
    assert_eq!(f.rule, Rule::PanicFree);
    assert_eq!(f.file, "crates/fec/src/fixture.rs");
    assert_eq!(f.line, 8);
    assert_eq!(f.chain, ["decode_page", "pick", "head", ".unwrap"]);
}

#[test]
fn r7_wire_totality_exact_diagnostics() {
    // `Ping` is covered on all three axes; `Fetch` lacks round-trip
    // evidence; `Stop` lacks the decode path; `Nack` the encode path.
    let got = triples("crates/core/src/net/proto.rs", "r7_wire_totality.rs");
    let want = vec![
        (Rule::WireTotality, 8, "Cmd::Fetch:round-trip".to_string()),
        (Rule::WireTotality, 9, "Cmd::Stop:decode".to_string()),
        (Rule::WireTotality, 9, "Cmd::Stop:round-trip".to_string()),
        (Rule::WireTotality, 10, "Cmd::Nack:encode".to_string()),
        (Rule::WireTotality, 10, "Cmd::Nack:round-trip".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r7_out_of_scope_enum_is_silent() {
    // The same enum anywhere but `net/proto.rs` is not a wire type.
    let got = triples("crates/core/src/page.rs", "r7_wire_totality.rs");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r8_lossy_cast_exact_diagnostics() {
    // Flagged: the `.len()` chain, the declared-`u64` identifier, the
    // oversized literal. Silent: mask/modulo proofs, fitting literals and
    // the `// lint: checked-cast` escape hatch.
    let got = triples("crates/core/src/net/fixture.rs", "r8_lossy_cast.rs");
    let want = vec![
        (Rule::LossyCast, 12, "usize as u32".to_string()),
        (Rule::LossyCast, 13, "u64 as u32".to_string()),
        (Rule::LossyCast, 20, "literal as u8".to_string()),
    ];
    assert_eq!(got, want);
}

#[test]
fn r8_out_of_scope_is_silent() {
    let got = triples("crates/sim/src/fixture.rs", "r8_lossy_cast.rs");
    assert!(got.iter().all(|(r, _, _)| *r != Rule::LossyCast), "{got:?}");
}

#[test]
fn r8_real_wire_and_fec_modules_are_silent() {
    // The annotated real modules must stay quiet under R8.
    for (dir, rel) in [
        ("../core", "src/net/codec.rs"),
        ("../core", "src/net/proto.rs"),
        ("../fec", "src/viterbi.rs"),
    ] {
        let real = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir).join(rel);
        let src = SourceFile {
            path: format!("crates/{}/{rel}", dir.trim_start_matches("../")),
            text: std::fs::read_to_string(&real)
                .unwrap_or_else(|e| panic!("{rel} unreadable: {e}")),
        };
        let findings = lint_sources(&[src]);
        assert!(
            findings.iter().all(|f| f.rule != Rule::LossyCast),
            "{rel}: {findings:?}"
        );
    }
}

#[test]
fn allow_directive_suppresses_fixture_finding() {
    let src = "pub fn f() -> f64 {\n    // lint: allow(unit-hygiene) — justified in this fixture\n    228_000.0\n}\n";
    let got = lint_sources(&[SourceFile {
        path: "crates/radio/src/fixture.rs".to_string(),
        text: src.to_string(),
    }]);
    assert!(got.is_empty(), "{got:?}");
}
