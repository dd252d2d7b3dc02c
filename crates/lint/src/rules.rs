//! The SONIC invariant rules (DESIGN.md §9 and §15): eight here, and R9's
//! table in [`crate::tombstone`].
//!
//! | id | slug             | invariant                                           |
//! |----|------------------|-----------------------------------------------------|
//! | R1 | no-alloc         | `*_into` / `// lint: no-alloc` fns never allocate,  |
//! |    |                  | directly **or through any reachable callee**        |
//! | R2 | reference-parity | `foo`/`foo_reference` twins share a parity test     |
//! | R3 | determinism      | no wall clock / thread_rng / hash-order in sim,     |
//! |    |                  | fault injection, the broadcast server or the        |
//! |    |                  | receive path — nor in any helper those scopes reach |
//! | R4 | panic-free       | no unwrap/expect/panic in the decode chain, nor in  |
//! |    |                  | any helper the decode chain reaches                 |
//! | R5 | unit-hygiene     | magic Hz/rate literals only behind named constants  |
//! | R6 | safety-comment   | every `unsafe` carries a `// SAFETY:` line          |
//! | R7 | wire-totality    | every `net::proto` message variant is encoded,      |
//! |    |                  | decoded, and named in a round-trip test             |
//! | R8 | lossy-cast       | truncating/wrapping `as` casts in `net`, every      |
//! |    |                  | air/disk/SMS writer, `fec` and `dsp::simd` need     |
//! |    |                  | `// lint: checked-cast`                             |
//! | R9 | tombstone        | deleted designs stay deleted (one table of scope,   |
//! |    |                  | banned pattern, reason)                             |
//!
//! R1/R3/R4 run twice: lexically (the construct itself, inside the scoped
//! file or fn) and **transitively** over the [`crate::graph`] call graph —
//! a violation anywhere in the reachable non-test callee set flags the
//! root, and the diagnostic prints the full call chain
//! (`mix_into → shape → scale → grow → Vec::new`, the `r1_transitive`
//! fixture's) so it is actionable.

use crate::graph::{self, CallGraph};
use crate::lexer::{Token, TokenKind};
use crate::scan::ScannedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Rule identity; order is the R1–R9 numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1 — allocation banned in hot-path functions (transitive).
    NoAlloc,
    /// R2 — `foo` / `foo_reference` must be exercised together by a test.
    ReferenceParity,
    /// R3 — nondeterminism sources banned in sim/faults/server (transitive).
    Determinism,
    /// R4 — panicking constructs banned in the decode chain (transitive).
    PanicFree,
    /// R5 — magic sample-rate/subcarrier literals must be named constants.
    UnitHygiene,
    /// R6 — `unsafe` requires a `// SAFETY:` comment.
    SafetyComment,
    /// R7 — wire-protocol totality: every `net::proto` variant must appear
    /// on the encode path, the decode path, and in a round-trip test.
    WireTotality,
    /// R8 — lossy `as` casts in wire/FEC/SIMD code need justification.
    LossyCast,
    /// R9 — a deleted design's pattern is back in its scope.
    Tombstone,
}

impl Rule {
    /// Short id, `R1`–`R9`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoAlloc => "R1",
            Rule::ReferenceParity => "R2",
            Rule::Determinism => "R3",
            Rule::PanicFree => "R4",
            Rule::UnitHygiene => "R5",
            Rule::SafetyComment => "R6",
            Rule::WireTotality => "R7",
            Rule::LossyCast => "R8",
            Rule::Tombstone => "R9",
        }
    }

    /// Human slug used in diagnostics and `// lint: allow(...)`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::NoAlloc => "no-alloc",
            Rule::ReferenceParity => "reference-parity",
            Rule::Determinism => "determinism",
            Rule::PanicFree => "panic-free",
            Rule::UnitHygiene => "unit-hygiene",
            Rule::SafetyComment => "safety-comment",
            Rule::WireTotality => "wire-totality",
            Rule::LossyCast => "lossy-cast",
            Rule::Tombstone => "tombstone",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Line-independent identity of the finding. Lexical findings key on
    /// the offending token/fn name; transitive findings key on the full
    /// call chain (`render_into→helper→Vec::new`), which names the path to
    /// break.
    pub key: String,
    /// Human-readable message (transitive messages embed the chain).
    pub message: String,
    /// Call chain for transitive findings, root first, sink construct
    /// last; empty for purely lexical findings.
    pub chain: Vec<String>,
}

/// Allocation constructs banned in no-alloc fns (R1): `Type::method` paths.
const R1_PATHS: &[(&str, &str)] = &[("Vec", "new"), ("Vec", "with_capacity"), ("Box", "new")];
/// R1: banned macro invocations.
const R1_MACROS: &[&str] = &["vec", "format"];
/// R1: banned method calls (`.name(` or `.name::<…>(`).
const R1_METHODS: &[&str] = &["push", "collect", "to_vec", "clone", "to_owned", "extend"];

/// Idents banned outright in deterministic scopes (R3).
const R3_IDENTS: &[&str] = &["HashMap", "HashSet", "SystemTime", "thread_rng"];

/// Panicking macros banned in the decode chain (R4).
const R4_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Panicking methods banned in the decode chain (R4).
const R4_METHODS: &[&str] = &["unwrap", "expect"];

/// Magic SONIC unit literals (Hz, bps, rates) that must come from a named
/// constant (R5). Values compared numerically after separator stripping, so
/// `228_000`, `228000` and `228_000.0` all match.
const R5_MAGIC: &[f64] = &[
    228_000.0, // MPX composite rate
    57_000.0,  // RDS subcarrier
    38_000.0,  // stereo DSB subcarrier
    23_000.0,  // stereo band lower edge
    53_000.0,  // stereo band upper edge
    19_000.0,  // stereo pilot
    15_000.0,  // mono band top
    44_100.0,  // audio rate
    75_000.0,  // FM deviation
    1_187.5,   // RDS bit rate
];

/// Paths (prefix or exact) in scope for R3 determinism.
fn r3_in_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/")
        || path == "crates/radio/src/faults.rs"
        || path.starts_with("crates/core/src/server/")
        || path.starts_with("crates/core/src/net/")
        || path == "crates/core/src/reassembly.rs"
        || path.starts_with("crates/core/src/client/")
}

/// Paths in scope for R4 panic-freedom (the decode chain).
fn r4_in_scope(path: &str) -> bool {
    path.starts_with("crates/modem/src/")
        || path.starts_with("crates/fec/src/")
        || path.starts_with("crates/image/src/")
        || path.starts_with("crates/radio/src/")
        || path == "crates/core/src/reassembly.rs"
        || path.starts_with("crates/core/src/net/")
        || path == "crates/core/src/server/cluster.rs"
}

/// Paths in scope for R5 unit hygiene (library source of every crate).
fn r5_in_scope(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// Paths in scope for R7 wire totality (the wire protocol definition).
fn r7_in_scope(path: &str) -> bool {
    path.ends_with("net/proto.rs")
}

/// Paths in scope for R8 lossy-cast hygiene: the wire boundary, every
/// writer of air, disk or SMS bytes, the FEC math and the SIMD kernels —
/// the places where a silent truncation corrupts data instead of crashing.
fn r8_in_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/net/")
        || matches!(
            path,
            "crates/core/src/page.rs"
                | "crates/core/src/frame.rs"
                | "crates/core/src/chunker.rs"
                | "crates/core/src/server/store.rs"
                | "crates/image/src/clickmap.rs"
                | "crates/image/src/strip.rs"
        )
        || path.starts_with("crates/sms/src/")
        || path.starts_with("crates/fec/src/")
        || path == "crates/dsp/src/simd.rs"
        || path.starts_with("crates/dsp/src/simd/")
}

/// Runs all eight rules over the scanned files and returns sorted findings.
/// `// lint: allow(...)` suppressions are already honoured. The
/// interprocedural pass (transitive R1/R3/R4, R7) builds the call graph
/// internally; use [`crate::graph::build`] directly for `--graph-stats`.
pub fn analyze(files: &[ScannedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        rule_no_alloc(f, &mut out);
        rule_determinism(f, &mut out);
        rule_panic_free(f, &mut out);
        rule_unit_hygiene(f, &mut out);
        rule_safety_comment(f, &mut out);
        rule_lossy_cast(f, &mut out);
    }
    rule_reference_parity(files, &mut out);
    let g = graph::build(files);
    rule_transitive(files, &g, &mut out);
    rule_wire_totality(files, &g, &mut out);
    out.retain(|fi| {
        let file = files.iter().find(|f| f.path == fi.file);
        !file.map(|f| f.allowed(fi.rule.id(), fi.rule.slug(), fi.line)).unwrap_or(false)
    });
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.key).cmp(&(&b.file, b.line, b.rule, &b.key))
    });
    out
}

fn push_finding(out: &mut Vec<Finding>, f: &ScannedFile, line: u32, rule: Rule, key: &str, msg: String) {
    out.push(Finding {
        file: f.path.clone(),
        line,
        rule,
        key: key.to_string(),
        message: msg,
        chain: Vec::new(),
    });
}

/// One ident token with its neighbours in the stream being scanned: the
/// whole file for the lexical rules, one fn body for the transitive pass.
/// The R1/R3/R4 constructs are matched here and only here.
struct At<'a> {
    tok: &'a Token,
    prev_is_dot: bool,
    next: Option<&'a Token>,
    next2: Option<&'a Token>,
}

impl<'a> At<'a> {
    /// Token `i` of `f`, neighbours from the file's token stream.
    fn in_file(f: &'a ScannedFile, i: usize) -> Self {
        At {
            tok: &f.tokens[i],
            prev_is_dot: i > 0 && f.tokens[i - 1].is_punct("."),
            next: f.tokens.get(i + 1),
            next2: f.tokens.get(i + 2),
        }
    }

    /// Entry `k` of a fn body's token indices, neighbours from the body.
    fn in_body(f: &'a ScannedFile, toks: &[usize], k: usize) -> Self {
        At {
            tok: &f.tokens[toks[k]],
            prev_is_dot: k > 0 && f.tokens[toks[k - 1]].is_punct("."),
            next: toks.get(k + 1).map(|&j| &f.tokens[j]),
            next2: toks.get(k + 2).map(|&j| &f.tokens[j]),
        }
    }

    fn next_is(&self, punct: &str) -> bool {
        self.next.is_some_and(|t| t.is_punct(punct))
    }

    /// R1: `vec!` / `format!`, `Vec::new` / `Vec::with_capacity` /
    /// `Box::new`, `.push(` / `.collect(` / `.collect::<…>(` / `.clone()` …
    fn alloc(&self) -> Option<String> {
        let t = self.tok.text.as_str();
        if R1_MACROS.contains(&t) && self.next_is("!") {
            return Some(format!("{t}!"));
        }
        if self.next_is("::") {
            if let Some(m) = self.next2.filter(|m| {
                m.kind == TokenKind::Ident && R1_PATHS.iter().any(|(ty, me)| *ty == t && *me == m.text)
            }) {
                return Some(format!("{t}::{}", m.text));
            }
        }
        (self.prev_is_dot && R1_METHODS.contains(&t) && (self.next_is("(") || self.next_is("::")))
            .then(|| format!(".{t}"))
    }

    /// R3: hash-ordered containers, wall clocks, thread RNG, `Instant::now`.
    fn det(&self) -> Option<String> {
        let t = self.tok.text.as_str();
        if R3_IDENTS.contains(&t) {
            return Some(t.to_string());
        }
        (t == "Instant" && self.next_is("::") && self.next2.is_some_and(|m| m.is_ident("now")))
            .then(|| "Instant::now".to_string())
    }

    /// R4: `panic!`-family macros, `.unwrap(` / `.expect(`.
    fn panics(&self) -> Option<String> {
        let t = self.tok.text.as_str();
        if R4_MACROS.contains(&t) && self.next_is("!") {
            return Some(format!("{t}!"));
        }
        (self.prev_is_dot && R4_METHODS.contains(&t) && self.next_is("(")).then(|| format!(".{t}"))
    }
}

/// R1: walk tokens inside no-alloc fns, match allocation constructs.
fn rule_no_alloc(f: &ScannedFile, out: &mut Vec<Finding>) {
    for (i, tok) in f.tokens.iter().enumerate() {
        let ctx = &f.ctx[i];
        if !ctx.fn_no_alloc || ctx.in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        let Some(key) = At::in_file(f, i).alloc() else {
            continue;
        };
        let fname = ctx.fn_name.as_deref().unwrap_or("?");
        let msg = if key.starts_with('.') {
            format!("`{key}(…)` may allocate inside no-alloc fn `{fname}`")
        } else {
            format!("`{key}` allocates inside no-alloc fn `{fname}`")
        };
        push_finding(out, f, tok.line, Rule::NoAlloc, &key, msg);
    }
}

/// R2: every non-test `foo_reference` with a `foo` twin must appear together
/// with `foo` in at least one test/property region somewhere in the
/// workspace.
fn rule_reference_parity(files: &[ScannedFile], out: &mut Vec<Finding>) {
    // All non-test fn definitions by name.
    let mut defs: BTreeMap<&str, (&ScannedFile, u32)> = BTreeMap::new();
    for f in files {
        for d in &f.fns {
            if !d.in_test {
                defs.entry(d.name.as_str()).or_insert((f, d.line));
            }
        }
    }
    // Per-file set of identifiers appearing in test regions.
    let mut test_idents: Vec<BTreeSet<&str>> = Vec::with_capacity(files.len());
    for f in files {
        let mut set = BTreeSet::new();
        for (i, tok) in f.tokens.iter().enumerate() {
            if tok.kind == TokenKind::Ident && f.ctx[i].in_test {
                set.insert(tok.text.as_str());
            }
        }
        test_idents.push(set);
    }
    for (name, (f, line)) in &defs {
        let Some(base) = name.strip_suffix("_reference") else {
            continue;
        };
        if !defs.contains_key(base) {
            continue; // no twin — e.g. a test helper that happens to match
        }
        let paired = test_idents
            .iter()
            .any(|set| set.contains(name) && set.contains(base));
        if !paired {
            push_finding(out, f, *line, Rule::ReferenceParity, base,
                format!("`{base}` and `{name}` are never exercised together in any test/property file"));
        }
    }
}

/// R3: wall clocks, thread RNG and hash-ordered containers banned in the
/// deterministic scopes.
fn rule_determinism(f: &ScannedFile, out: &mut Vec<Finding>) {
    if !r3_in_scope(&f.path) {
        return;
    }
    for (i, tok) in f.tokens.iter().enumerate() {
        if f.ctx[i].in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        let Some(key) = At::in_file(f, i).det() else {
            continue;
        };
        let hint = match key.as_str() {
            "HashMap" => "use BTreeMap: iteration order must not depend on the hasher",
            "HashSet" => "use BTreeSet: iteration order must not depend on the hasher",
            "SystemTime" => "use simulated time: results must be a pure function of the seed",
            "Instant::now" => "wall-clock reads break seeded reproducibility",
            _ => "use a seeded RNG threaded from the experiment seed",
        };
        push_finding(out, f, tok.line, Rule::Determinism, &key,
            format!("`{key}` in deterministic scope — {hint}"));
    }
}

/// R4: unwrap/expect/panic-family banned in decode-chain production code.
fn rule_panic_free(f: &ScannedFile, out: &mut Vec<Finding>) {
    if !r4_in_scope(&f.path) {
        return;
    }
    for (i, tok) in f.tokens.iter().enumerate() {
        if f.ctx[i].in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        let Some(key) = At::in_file(f, i).panics() else {
            continue;
        };
        let msg = if key.ends_with('!') {
            format!("`{key}` in the decode chain — degrade with a typed error instead of dying")
        } else {
            format!("`{key}(…)` in the decode chain — propagate the error, a corrupt frame must not kill the receiver")
        };
        push_finding(out, f, tok.line, Rule::PanicFree, &key, msg);
    }
}

/// R5: magic unit literals outside `const`/`static` definitions.
fn rule_unit_hygiene(f: &ScannedFile, out: &mut Vec<Finding>) {
    if !r5_in_scope(&f.path) {
        return;
    }
    for (i, tok) in f.tokens.iter().enumerate() {
        if f.ctx[i].in_test || tok.kind != TokenKind::Number {
            continue;
        }
        let Some(v) = parse_number(&tok.text) else {
            continue;
        };
        if !R5_MAGIC.contains(&v) {
            continue;
        }
        if in_const_definition(f, i) {
            continue;
        }
        let key = normalize_number(&tok.text);
        push_finding(out, f, tok.line, Rule::UnitHygiene, &key,
            format!("magic unit literal `{}` — use the named constant (AUDIO_RATE, MPX_RATE, PILOT_HZ, …)", tok.text));
    }
}

/// R6: `unsafe` without a `// SAFETY:` comment within the 3 preceding lines.
fn rule_safety_comment(f: &ScannedFile, out: &mut Vec<Finding>) {
    for tok in f.tokens.iter() {
        if tok.kind != TokenKind::Ident || tok.text != "unsafe" {
            continue;
        }
        let covered = f
            .safety_comment_lines
            .iter()
            .any(|&l| l <= tok.line && l + 3 >= tok.line);
        if !covered {
            push_finding(out, f, tok.line, Rule::SafetyComment, "unsafe",
                "`unsafe` without a `// SAFETY:` comment on the preceding lines".to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// Interprocedural pass: transitive R1/R3/R4, R7 wire totality
// ---------------------------------------------------------------------------

/// The first banned construct of each kind found in one fn body
/// (construct key + line). Computed per graph node; `// lint: allow(...)`
/// at the sink suppresses every chain through it.
#[derive(Debug, Default)]
struct Sinks {
    alloc: Option<(String, u32)>,
    det: Option<(String, u32)>,
    panics: Option<(String, u32)>,
}

/// Scans one node's body for R1/R3/R4 sink constructs, ignoring scope (the
/// transitive pass decides scope at the *root*).
fn body_sinks(f: &ScannedFile, toks: &[usize]) -> Sinks {
    let mut s = Sinks::default();
    for k in 0..toks.len() {
        let at = At::in_body(f, toks, k);
        let line = at.tok.line;
        if at.tok.kind != TokenKind::Ident {
            continue;
        }
        if s.alloc.is_none() && !f.allowed("R1", "no-alloc", line) {
            s.alloc = at.alloc().map(|key| (key, line));
        }
        if s.det.is_none() && !f.allowed("R3", "determinism", line) {
            s.det = at.det().map(|key| (key, line));
        }
        if s.panics.is_none() && !f.allowed("R4", "panic-free", line) {
            s.panics = at.panics().map(|key| (key, line));
        }
    }
    s
}

/// Transitive R1/R3/R4 over the call graph. For each rule: roots are the
/// nodes the lexical rule scopes to, sinks are nodes (outside that lexical
/// scope — those are already flagged directly) whose bodies contain a
/// banned construct. A reverse BFS from the sinks records, per node, the
/// next hop toward the *nearest* sink; each root edge into the marked set
/// becomes one finding whose key and message carry the full chain.
fn rule_transitive(files: &[ScannedFile], g: &CallGraph, out: &mut Vec<Finding>) {
    let sinks: Vec<Sinks> = (0..g.fns.len())
        .map(|i| body_sinks(&files[g.fns[i].file], &g.body_tokens(files, i)))
        .collect();

    // Reverse adjacency once for all three rules, keeping call-site lines:
    // a `// lint: allow(<rule>)` on the call line *breaks the edge* for
    // that rule, so one suppression at a vetted call kills every chain
    // through it, not just the finding at one root.
    let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); g.fns.len()];
    for (u, es) in g.edges.iter().enumerate() {
        for e in es {
            rev[e.to].push((u, e.line));
        }
    }

    type SinkGet = fn(&Sinks) -> Option<&(String, u32)>;
    type Pred = fn(&str, &crate::graph::FnNode) -> bool;
    let specs: [(Rule, SinkGet, Pred, Pred, &str); 3] = [
        (
            Rule::NoAlloc,
            |s| s.alloc.as_ref(),
            |_path, n| n.no_alloc,
            |_path, n| n.no_alloc,
            "allocates",
        ),
        (
            Rule::Determinism,
            |s| s.det.as_ref(),
            |path, _n| r3_in_scope(path),
            |path, _n| r3_in_scope(path),
            "is nondeterministic",
        ),
        (
            Rule::PanicFree,
            |s| s.panics.as_ref(),
            |path, _n| r4_in_scope(path),
            |path, _n| r4_in_scope(path),
            "can panic",
        ),
    ];

    for (rule, sink_of, is_root, lexically_covered, verb) in specs {
        // mark[v] = Some(next hop toward the nearest sink); the sink node
        // itself has next == v.
        let mut mark: Vec<Option<usize>> = vec![None; g.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for (v, s) in sinks.iter().enumerate() {
            let path = &files[g.fns[v].file].path;
            if sink_of(s).is_some() && !lexically_covered(path, &g.fns[v]) {
                mark[v] = Some(v);
                queue.push_back(v);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &(u, line) in &rev[v] {
                if mark[u].is_none()
                    && !files[g.fns[u].file].allowed(rule.id(), rule.slug(), line)
                {
                    mark[u] = Some(v);
                    queue.push_back(u);
                }
            }
        }

        for (r, node) in g.fns.iter().enumerate() {
            let path = &files[node.file].path;
            if !is_root(path, node) {
                continue;
            }
            let mut seen_targets: BTreeSet<usize> = BTreeSet::new();
            for e in &g.edges[r] {
                if mark[e.to].is_none()
                    || files[node.file].allowed(rule.id(), rule.slug(), e.line)
                    || !seen_targets.insert(e.to)
                {
                    continue;
                }
                // Walk the successor pointers to the sink.
                let mut chain: Vec<String> = vec![node.display()];
                let mut cur = e.to;
                let mut sink_key = String::new();
                for _ in 0..g.fns.len() {
                    chain.push(g.fns[cur].display());
                    let next = match mark[cur] {
                        Some(n) => n,
                        None => break,
                    };
                    if next == cur {
                        if let Some((key, _)) = sink_of(&sinks[cur]) {
                            sink_key = key.clone();
                        }
                        break;
                    }
                    cur = next;
                }
                if sink_key.is_empty() {
                    continue;
                }
                chain.push(sink_key);
                let key = chain.join("→");
                let msg = format!(
                    "`{}` reaches `{}` which {} via {}",
                    node.display(),
                    chain[chain.len() - 2],
                    verb,
                    chain.join(" → "),
                );
                out.push(Finding {
                    file: files[node.file].path.clone(),
                    line: e.line,
                    rule,
                    key,
                    message: msg,
                    chain,
                });
            }
        }
    }
}

/// R7: every non-test enum variant declared in `net/proto.rs` must appear
/// in a fn body reachable from an `encode*` entry point, in one reachable
/// from a `decode*` entry point, and be named in at least one round-trip
/// test (a test region that also names an encode and a decode entry).
fn rule_wire_totality(files: &[ScannedFile], g: &CallGraph, out: &mut Vec<Finding>) {
    for (fi, f) in files.iter().enumerate() {
        if !r7_in_scope(&f.path) {
            continue;
        }
        let enc_entries = g.fns_in_file(fi, |n| n.name.starts_with("encode"));
        let dec_entries = g.fns_in_file(fi, |n| n.name.starts_with("decode"));
        let enc_names: BTreeSet<&str> =
            enc_entries.iter().map(|&i| g.fns[i].name.as_str()).collect();
        let dec_names: BTreeSet<&str> =
            dec_entries.iter().map(|&i| g.fns[i].name.as_str()).collect();

        let idents_reachable = |seeds: &[usize]| -> BTreeSet<String> {
            let reach = g.reachable_from(seeds);
            let mut set = BTreeSet::new();
            for (v, ok) in reach.iter().enumerate() {
                if !ok {
                    continue;
                }
                let vf = &files[g.fns[v].file];
                for i in g.body_tokens(files, v) {
                    if vf.tokens[i].kind == TokenKind::Ident {
                        set.insert(vf.tokens[i].text.clone());
                    }
                }
            }
            set
        };
        let enc_set = idents_reachable(&enc_entries);
        let dec_set = idents_reachable(&dec_entries);

        // Round-trip evidence: idents of test regions in files whose test
        // regions also name an encode entry and a decode entry.
        let mut rt_idents: BTreeSet<&str> = BTreeSet::new();
        for tf in files {
            let mut set: BTreeSet<&str> = BTreeSet::new();
            for (i, tok) in tf.tokens.iter().enumerate() {
                if tok.kind == TokenKind::Ident && tf.ctx[i].in_test {
                    set.insert(tok.text.as_str());
                }
            }
            if enc_names.iter().any(|n| set.contains(n))
                && dec_names.iter().any(|n| set.contains(n))
            {
                rt_idents.extend(set);
            }
        }

        for e in &f.enums {
            if e.in_test {
                continue;
            }
            for (v, vline) in &e.variants {
                let variant = format!("{}::{}", e.name, v);
                if !enc_set.contains(v) {
                    push_finding(out, f, *vline, Rule::WireTotality,
                        &format!("{variant}:encode"),
                        format!("wire variant `{variant}` never appears on the encode path — a peer can receive what this node cannot send"));
                }
                if !dec_set.contains(v) {
                    push_finding(out, f, *vline, Rule::WireTotality,
                        &format!("{variant}:decode"),
                        format!("wire variant `{variant}` never appears on the decode path — receiving it will fail as an unknown message"));
                }
                if !rt_idents.contains(v.as_str()) {
                    push_finding(out, f, *vline, Rule::WireTotality,
                        &format!("{variant}:round-trip"),
                        format!("wire variant `{variant}` is not named in any encode/decode round-trip test"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R8: lossy-cast hygiene
// ---------------------------------------------------------------------------

/// Integer width in bits for source-side classification (floats mapped to
/// their mantissa-relevant width separately).
fn int_bits(ty: &str) -> Option<u32> {
    Some(match ty {
        "u8" | "i8" => 8,
        "u16" | "i16" => 16,
        "u32" | "i32" => 32,
        "u64" | "i64" | "usize" | "isize" => 64,
        "u128" | "i128" => 128,
        _ => return None,
    })
}

/// Cast targets R8 cares about (narrow enough to truncate something the
/// codebase actually produces).
fn narrow_target(ty: &str) -> bool {
    matches!(ty, "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "f32")
}

/// Max value exactly representable in the target (for literal/mask proofs).
fn target_max(ty: &str) -> Option<u128> {
    Some(match ty {
        "u8" => u8::MAX as u128,
        "u16" => u16::MAX as u128,
        "u32" => u32::MAX as u128,
        "i8" => i8::MAX as u128,
        "i16" => i16::MAX as u128,
        "i32" => i32::MAX as u128,
        "f32" => 1 << 24,
        _ => return None,
    })
}

/// Can a value of source type `src` lose information when cast to `tgt`?
fn cast_is_lossy(src: &str, tgt: &str) -> bool {
    if src == tgt {
        return false;
    }
    match (src, tgt) {
        ("f64", "f32") => true,
        ("f64" | "f32", _) => true, // float → narrow int truncates
        (_, "f32") => int_bits(src).map(|b| b > 24).unwrap_or(false),
        _ => match (int_bits(src), int_bits(tgt)) {
            (Some(s), Some(t)) => s > t,
            _ => false,
        },
    }
}

/// Parses an integer literal (decimal/hex/octal/binary, `_` separators,
/// type suffix) to its value.
fn parse_int_literal(text: &str) -> Option<u128> {
    let s: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = s.strip_prefix("0x") {
        (h, 16)
    } else if let Some(o) = s.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = s.strip_prefix("0b") {
        (b, 2)
    } else {
        (s.as_str(), 10)
    };
    let digits: String = digits
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .take_while(|c| c.is_digit(radix))
        .collect();
    if digits.is_empty() {
        return None;
    }
    u128::from_str_radix(&digits, radix).ok()
}

/// R8: `as` casts to narrow targets in wire/FEC/SIMD code. Lexical-only
/// type recovery: a cast is flagged when the *source* is provably wide —
/// a `.len()`/`.capacity()` chain (usize), an identifier whose type is
/// declared in the enclosing fn, an oversized literal — and stays silent
/// when the source type cannot be recovered (documented precision
/// trade-off, DESIGN.md §15). `// lint: checked-cast` suppresses.
fn rule_lossy_cast(f: &ScannedFile, out: &mut Vec<Finding>) {
    if !r8_in_scope(&f.path) {
        return;
    }
    // Local type environment: `name : prim` pairs anywhere in the file
    // (fn params, let bindings, struct fields — all count as evidence).
    let toks: Vec<usize> = (0..f.tokens.len())
        .filter(|&i| {
            !matches!(
                f.tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let tok = |k: usize| toks.get(k).map(|&i| &f.tokens[i]);
    let mut env: BTreeMap<&str, &str> = BTreeMap::new();
    for k in 0..toks.len() {
        if let (Some(name), Some(colon), Some(ty)) = (tok(k), tok(k + 1), tok(k + 2)) {
            if name.kind == TokenKind::Ident
                && colon.is_punct(":")
                && ty.kind == TokenKind::Ident
                && int_bits(&ty.text).is_some()
                && !matches!(tok(k + 3), Some(t) if t.is_punct("<") || t.is_punct("::"))
            {
                env.insert(name.text.as_str(), ty.text.as_str());
            }
        }
    }

    // Lookaround-heavy scan: `k` indexes neighbors in both directions.
    #[allow(clippy::needless_range_loop)]
    for k in 0..toks.len() {
        let Some(t) = tok(k) else { continue };
        if !(t.is_ident("as")) || f.ctx[toks[k]].in_test {
            continue;
        }
        let Some(tgt) = tok(k + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if !narrow_target(&tgt.text) {
            continue;
        }
        let tgt_ty = tgt.text.as_str();
        let line = t.line;

        let Some(prev) = (k > 0).then(|| tok(k - 1)).flatten() else {
            continue;
        };

        let (src_desc, lossy) = match prev.kind {
            TokenKind::Number => {
                if prev.text.contains('.') {
                    // Decimal literal to f32 — representable enough.
                    continue;
                }
                match (parse_int_literal(&prev.text), target_max(tgt_ty)) {
                    (Some(v), Some(max)) if v <= max => continue,
                    (Some(_), _) => ("literal".to_string(), true),
                    _ => continue,
                }
            }
            TokenKind::Ident => {
                let field = k >= 2 && tok(k - 2).map(|t| t.is_punct(".")).unwrap_or(false);
                if field {
                    continue; // field type unknown
                }
                match env.get(prev.text.as_str()) {
                    Some(src) if cast_is_lossy(src, tgt_ty) => ((*src).to_string(), true),
                    _ => continue,
                }
            }
            TokenKind::Punct if prev.text == ")" => {
                // Walk back to the matching `(`.
                let mut depth = 1i32;
                let mut j = k - 1;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match tok(j) {
                        Some(t) if t.is_punct(")") => depth += 1,
                        Some(t) if t.is_punct("(") => depth -= 1,
                        _ => {}
                    }
                }
                if depth != 0 {
                    continue;
                }
                // `.len()` / `.capacity()` — usize at the wire boundary.
                let callee = (j >= 1).then(|| tok(j - 1)).flatten();
                let before = (j >= 2).then(|| tok(j - 2)).flatten();
                let is_len_chain = callee
                    .map(|c| c.is_ident("len") || c.is_ident("capacity"))
                    .unwrap_or(false)
                    && before.map(|b| b.is_punct(".")).unwrap_or(false);
                if is_len_chain {
                    ("usize".to_string(), cast_is_lossy("usize", tgt_ty))
                } else if callee.map(|c| c.kind == TokenKind::Ident).unwrap_or(false) {
                    continue; // some other call — return type unknown
                } else {
                    // Parenthesized expression: wide when it contains a
                    // known-wide identifier or a `.len()`/`.capacity()`
                    // chain; an in-range `& MASK` / `% MOD` at top level
                    // is accepted as a range proof.
                    let mut proof = false;
                    let mut wide: Option<String> = None;
                    let mut d = 0i32;
                    for m in j + 1..k - 1 {
                        let Some(t) = tok(m) else { continue };
                        if t.is_punct("(") {
                            d += 1;
                        } else if t.is_punct(")") {
                            d -= 1;
                        } else if d == 0
                            && (t.is_punct("&") || t.is_punct("%"))
                            && tok(m + 1).map(|n| n.kind == TokenKind::Number).unwrap_or(false)
                            && (m > j + 1
                                && tok(m - 1)
                                    .map(|p| {
                                        p.kind == TokenKind::Ident
                                            || p.kind == TokenKind::Number
                                            || p.is_punct(")")
                                            || p.is_punct("]")
                                    })
                                    .unwrap_or(false))
                        {
                            let bound = tok(m + 1).and_then(|n| parse_int_literal(&n.text));
                            if let (Some(b), Some(max)) = (bound, target_max(tgt_ty)) {
                                let fits = if t.is_punct("%") {
                                    b <= max.saturating_add(1)
                                } else {
                                    b <= max
                                };
                                if fits {
                                    proof = true;
                                }
                            }
                        } else if t.kind == TokenKind::Ident && wide.is_none() {
                            let after_dot =
                                m > j + 1 && tok(m - 1).map(|p| p.is_punct(".")).unwrap_or(false);
                            let called = tok(m + 1).map(|n| n.is_punct("(")).unwrap_or(false);
                            if after_dot && called && (t.text == "len" || t.text == "capacity") {
                                wide = Some("usize".to_string());
                            } else if !after_dot && !called {
                                if let Some(src) = env.get(t.text.as_str()) {
                                    if cast_is_lossy(src, tgt_ty) {
                                        wide = Some((*src).to_string());
                                    }
                                }
                            }
                        }
                    }
                    if proof {
                        continue;
                    }
                    match wide {
                        Some(src) => (src, true),
                        None => continue, // opaque — type unknown, stay silent
                    }
                }
            }
            _ => continue,
        };

        if !lossy {
            continue;
        }
        push_finding(out, f, line, Rule::LossyCast,
            &format!("{src_desc} as {tgt_ty}"),
            format!("`{src_desc} as {tgt_ty}` can truncate — add `// lint: checked-cast — <why>` after verifying the range"));
    }
}

/// Walks back from a magic literal looking for `const`/`static`, stopping at
/// statement/block boundaries. Covers multi-line const declarations and
/// const tables (`const EDGES: &[f64] = &[19_000.0, 23_000.0, …];`).
fn in_const_definition(f: &ScannedFile, idx: usize) -> bool {
    let mut steps = 0usize;
    let mut i = idx;
    while i > 0 && steps < 64 {
        i -= 1;
        let t = &f.tokens[i];
        if t.kind == TokenKind::LineComment || t.kind == TokenKind::BlockComment {
            continue; // comments don't bound the declaration
        }
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return false;
        }
        if t.is_ident("const") || t.is_ident("static") {
            return true;
        }
        steps += 1;
    }
    false
}

/// Parses a numeric literal to f64: strips `_` separators and any type
/// suffix; returns None for hex/octal/binary (never unit literals).
fn parse_number(text: &str) -> Option<f64> {
    let s: String = text.chars().filter(|&c| c != '_').collect();
    if s.starts_with("0x") || s.starts_with("0o") || s.starts_with("0b") {
        return None;
    }
    // Strip a type suffix (`f64`, `u32`, …): cut at the first alphabetic
    // char that is not an exponent `e`/`E` followed by digits/sign.
    let bytes: Vec<char> = s.chars().collect();
    let mut end = bytes.len();
    for (i, &c) in bytes.iter().enumerate() {
        if c.is_alphabetic() {
            if (c == 'e' || c == 'E')
                && bytes
                    .get(i + 1)
                    .map(|&n| n.is_ascii_digit() || n == '+' || n == '-')
                    .unwrap_or(false)
            {
                continue;
            }
            end = i;
            break;
        }
    }
    s[..s.char_indices().nth(end).map(|(b, _)| b).unwrap_or(s.len())]
        .parse::<f64>()
        .ok()
}

/// Canonical key for a magic literal: underscores stripped,
/// trailing `.0` dropped (`228_000.0` → `228000`).
fn normalize_number(text: &str) -> String {
    let s: String = text.chars().filter(|&c| c != '_').collect();
    let s = s.trim_end_matches(|c: char| c.is_alphabetic()).to_string();
    match s.strip_suffix(".0") {
        Some(head) => head.to_string(),
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        analyze(&[scan(path, src)])
    }

    #[test]
    fn r1_flags_alloc_in_into_fn() {
        let src = "fn render_into(out: &mut Vec<u8>) {\n let v = Vec::new();\n let w = vec![0u8; 4];\n}";
        let f = findings("crates/x/src/lib.rs", src);
        let keys: Vec<&str> = f.iter().map(|x| x.key.as_str()).collect();
        assert!(keys.contains(&"Vec::new"));
        assert!(keys.contains(&"vec!"));
    }

    #[test]
    fn r1_ignores_plain_fns_and_tests() {
        let src = "fn normal() { let v = Vec::new(); }\n#[cfg(test)]\nmod t {\n fn x_into(o: &mut V) { o.push(1); }\n}";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r3_only_fires_in_scope() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert_eq!(findings("crates/sim/src/foo.rs", src).len(), 3);
        assert!(findings("crates/dsp/src/foo.rs", src).is_empty());
    }

    #[test]
    fn r4_methods_need_dot() {
        // A fn *named* unwrap, or an ident `expect` without `.`, is fine.
        let src = "fn unwrap() {}\nfn g() { let expect = 3; h(expect); }";
        assert!(findings("crates/fec/src/foo.rs", src).is_empty());
        let bad = "fn g(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(findings("crates/fec/src/foo.rs", bad).len(), 1);
    }

    #[test]
    fn r5_allows_const_definitions() {
        let good = "pub const MPX_RATE: f64 = 228_000.0;\npub const RDS_BPS: f64 =\n    1_187.5;";
        assert!(findings("crates/radio/src/lib.rs", good).is_empty());
        let bad = "fn f() -> f64 { 228_000.0 }";
        let f = findings("crates/radio/src/lib.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].key, "228000");
    }

    #[test]
    fn r6_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(findings("crates/x/src/lib.rs", bad).len(), 1);
        let good = "fn f(p: *const u8) -> u8 {\n // SAFETY: caller guarantees p is valid\n unsafe { *p }\n}";
        assert!(findings("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "fn f() -> f64 {\n // lint: allow(unit-hygiene)\n 228_000.0\n}";
        assert!(findings("crates/radio/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r2_needs_joint_test() {
        let lib = scan(
            "crates/x/src/lib.rs",
            "pub fn fast(x: u8) -> u8 { x }\npub fn fast_reference(x: u8) -> u8 { x }",
        );
        let f = analyze(&[lib]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ReferenceParity);

        let lib = scan(
            "crates/x/src/lib.rs",
            "pub fn fast(x: u8) -> u8 { x }\npub fn fast_reference(x: u8) -> u8 { x }",
        );
        let test = scan(
            "crates/x/tests/parity.rs",
            "#[test]\nfn parity() { assert_eq!(fast(1), fast_reference(1)); }",
        );
        assert!(analyze(&[lib, test]).is_empty());
    }
}
