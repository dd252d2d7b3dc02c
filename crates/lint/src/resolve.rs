//! Call-site resolution: `use`-aware suffix matching against the symbol
//! table.
//!
//! Precision/soundness trade-off (see DESIGN.md §15): with no type
//! information, resolution must choose between missing edges (unsound for
//! the transitive rules — a violation two hops away goes unseen) and
//! inventing edges (noisy — diagnostics blame chains that cannot execute).
//! This module leans *sound*: when several same-named candidates survive
//! the filters below, the call resolves to **all** of them, and the noise
//! is paid for with explicit `// lint: allow(...)` justifications at the
//! few affected call sites. The filters, in order:
//!
//! 1. `Type::name(…)` — candidates whose `impl`/`trait` owner is `Type`
//!    (`Self::name` uses the caller's own owner).
//! 2. `module::name(…)` / imported names — the call path, prefixed by any
//!    matching `use` import, must suffix-match the candidate's module path.
//! 3. Free calls — same-file candidates beat same-crate candidates beat
//!    the global name match.
//! 4. `.name(…)` method calls — every owned candidate with that name
//!    whose owner type the caller's file can *name* (defined in the same
//!    file or crate, or imported), since the receiver's type is unknown.
//!    `self.name(…)` prefers the caller's own impl.

use crate::graph::{CallSite, FnNode};
use crate::lexer::TokenKind;
use crate::scan::ScannedFile;
use std::collections::BTreeMap;

/// Per-file import map: local name → full path segments as written
/// (`Frame` → `["crate", "frame", "Frame"]`).
pub type Imports = BTreeMap<String, Vec<String>>;

/// Parses the `use` declarations of one file. Handles multi-segment
/// paths, `as` renames, nested `{…}` groups and `self` inside groups;
/// glob imports are ignored (they carry no name to match on).
pub fn parse_imports(f: &ScannedFile) -> Imports {
    let toks: Vec<&crate::lexer::Token> = f
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut out = Imports::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("use") {
            let end = toks[i..]
                .iter()
                .position(|t| t.is_punct(";"))
                .map(|p| i + p)
                .unwrap_or(toks.len());
            parse_use_tree(&toks[i + 1..end], &mut Vec::new(), &mut out);
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Recursive descent over one `use` tree (tokens between `use` and `;`).
fn parse_use_tree(toks: &[&crate::lexer::Token], base: &mut Vec<String>, out: &mut Imports) {
    let entry_len = base.len();
    let mut i = 0usize;
    let mut last: Option<String> = None;
    while i < toks.len() {
        let t = toks[i];
        if t.kind == TokenKind::Ident && t.text != "as" {
            last = Some(t.text.clone());
            i += 1;
        } else if t.is_punct("::") {
            if let Some(seg) = last.take() {
                base.push(seg);
            }
            i += 1;
        } else if t.is_punct("{") {
            // Group: split the matching-brace window on top-level commas
            // and recurse, restoring the accumulated base path each time.
            let group_len = base.len();
            let mut depth = 1usize;
            let mut j = i + 1;
            let mut item_start = j;
            while j < toks.len() {
                if toks[j].is_punct("{") {
                    depth += 1;
                } else if toks[j].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_punct(",") && depth == 1 {
                    parse_use_tree(&toks[item_start..j], base, out);
                    base.truncate(group_len);
                    item_start = j + 1;
                }
                j += 1;
            }
            parse_use_tree(&toks[item_start..j.min(toks.len())], base, out);
            base.truncate(entry_len);
            return;
        } else if t.kind == TokenKind::Ident && t.text == "as" {
            // `path as alias`
            if let Some(alias) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                if let Some(orig) = last.take() {
                    let mut full = base.clone();
                    full.push(orig);
                    out.insert(alias.text.clone(), full);
                }
            }
            i += 2;
        } else {
            // `*` glob or stray punct — nothing to record.
            i += 1;
        }
    }
    if let Some(name) = last {
        if name == "self" {
            // `use a::b::{self}` — binds the module name itself.
            if let Some(modname) = base.last().cloned() {
                out.insert(modname, base.clone());
            }
        } else {
            let mut full = base.clone();
            full.push(name.clone());
            out.insert(name, full);
        }
    }
}

/// Resolves call sites against the symbol table.
pub struct Resolver<'a> {
    fns: &'a [FnNode],
    by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    imports: Vec<Imports>,
}

impl<'a> Resolver<'a> {
    /// Builds the resolver (parses every file's imports once).
    pub fn new(
        files: &'a [ScannedFile],
        fns: &'a [FnNode],
        by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    ) -> Self {
        let imports = files.iter().map(parse_imports).collect();
        Resolver {
            fns,
            by_name,
            imports,
        }
    }

    /// Target node indices for one call site (empty = external/unresolved).
    pub fn resolve(&self, call: &CallSite, caller: &FnNode) -> Vec<usize> {
        let name = match call.path.last() {
            Some(n) => n.as_str(),
            None => return Vec::new(),
        };
        let cands = match self.by_name.get(name) {
            Some(c) => c.as_slice(),
            None => return Vec::new(),
        };

        if call.is_method {
            let owned: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].owner.is_some())
                .collect();
            // `self.name(…)` inside an impl resolves within that impl when
            // it defines the method — the receiver type is actually known.
            if call.recv.as_deref() == Some("self") {
                if let Some(owner) = &caller.owner {
                    let own: Vec<usize> = owned
                        .iter()
                        .copied()
                        .filter(|&i| {
                            self.fns[i].owner.as_deref() == Some(owner)
                                && self.fns[i].file == caller.file
                        })
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            // A method call can only hit a workspace type the caller's
            // file can name: defined in the same file or crate, or
            // imported. `.get(…)` on a plain slice must not resolve to a
            // distant `Raster::get` three crates away.
            let imports = &self.imports[caller.file];
            let nameable: Vec<usize> = owned
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &self.fns[i];
                    f.file == caller.file
                        || f.module.first() == caller.module.first()
                        || f.owner
                            .as_deref()
                            .is_some_and(|o| imports.contains_key(o))
                })
                .collect();
            return prefer_near(&nameable, self.fns, caller);
        }

        if call.path.len() >= 2 {
            let qual = &call.path[call.path.len() - 2];
            // `Self::name` — the caller's own impl block.
            if qual == "Self" {
                if let Some(owner) = &caller.owner {
                    let own: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| self.fns[i].owner.as_deref() == Some(owner))
                        .collect();
                    return prefer_near(&own, self.fns, caller);
                }
                return Vec::new();
            }
            // `Type::name` — owner match, import-refined when ambiguous.
            let owned: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].owner.as_deref() == Some(qual.as_str()))
                .collect();
            if !owned.is_empty() {
                if owned.len() > 1 {
                    if let Some(p) = self.imports[caller.file].get(qual) {
                        let module_part = &p[..p.len().saturating_sub(1)];
                        let refined: Vec<usize> = owned
                            .iter()
                            .copied()
                            .filter(|&i| suffix_match(&self.fns[i].module, module_part, caller))
                            .collect();
                        if !refined.is_empty() {
                            return prefer_near(&refined, self.fns, caller);
                        }
                    }
                }
                return prefer_near(&owned, self.fns, caller);
            }
            // `module::name` — the written path (import-expanded at its
            // head) must suffix-match the candidate's module path.
            let mut want: Vec<String> = call.path[..call.path.len() - 1].to_vec();
            if let Some(p) = self.imports[caller.file].get(&want[0]) {
                let mut expanded = p.clone();
                expanded.extend_from_slice(&want[1..]);
                want = expanded;
            }
            let matched: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    self.fns[i].owner.is_none()
                        && suffix_match(&self.fns[i].module, &want, caller)
                })
                .collect();
            return prefer_near(&matched, self.fns, caller);
        }

        // Free call. An import of exactly this name pins the module.
        if let Some(p) = self.imports[caller.file].get(name) {
            let module_part = &p[..p.len().saturating_sub(1)];
            let matched: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    self.fns[i].owner.is_none()
                        && suffix_match(&self.fns[i].module, module_part, caller)
                })
                .collect();
            if !matched.is_empty() {
                return prefer_near(&matched, self.fns, caller);
            }
        }
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fns[i].owner.is_none())
            .collect();
        prefer_near(&free, self.fns, caller)
    }
}

/// Does the written path (`want`, possibly starting with
/// `crate`/`self`/`super`) suffix-match a candidate's module path?
fn suffix_match(module: &[String], want: &[String], caller: &FnNode) -> bool {
    let mut want: Vec<&str> = want.iter().map(String::as_str).collect();
    // Normalize a leading crate/self/super against the *caller's* module.
    match want.first().copied() {
        Some("crate") => {
            want.remove(0);
            if module.first() != caller.module.first() {
                return false;
            }
        }
        Some("self") => {
            want.remove(0);
            if module != caller.module {
                return false;
            }
        }
        Some("super") => {
            want.remove(0);
            let parent = &caller.module[..caller.module.len().saturating_sub(1)];
            if !module.starts_with(parent) {
                return false;
            }
        }
        _ => {}
    }
    if want.is_empty() {
        return true;
    }
    if want.len() > module.len() {
        return false;
    }
    module[module.len() - want.len()..]
        .iter()
        .zip(want.iter())
        .all(|(m, w)| m == w)
}

/// Narrows a candidate set by proximity: same file beats same crate beats
/// everything; within the chosen tier all candidates are kept
/// (conservative fan-out for trait methods).
fn prefer_near(cands: &[usize], fns: &[FnNode], caller: &FnNode) -> Vec<usize> {
    if cands.len() <= 1 {
        return cands.to_vec();
    }
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| fns[i].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| fns[i].module.first() == caller.module.first())
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn imports_of(src: &str) -> Imports {
        parse_imports(&scan("crates/x/src/lib.rs", src))
    }

    #[test]
    fn simple_use_paths_parse() {
        let imp = imports_of("use sonic_fec::viterbi::decode_soft;\nuse crate::frame::Frame;");
        assert_eq!(
            imp.get("decode_soft").map(Vec::as_slice),
            Some(["sonic_fec".to_string(), "viterbi".into(), "decode_soft".into()].as_slice())
        );
        assert_eq!(
            imp.get("Frame").map(Vec::as_slice),
            Some(["crate".to_string(), "frame".into(), "Frame".into()].as_slice())
        );
    }

    #[test]
    fn grouped_and_renamed_imports_parse() {
        let imp = imports_of(
            "use crate::net::{proto, codec::encode_frame as enc, transport::{self, Conn}};",
        );
        assert_eq!(
            imp.get("proto").map(Vec::as_slice),
            Some(["crate".to_string(), "net".into(), "proto".into()].as_slice())
        );
        assert_eq!(
            imp.get("enc").map(Vec::as_slice),
            Some(
                ["crate".to_string(), "net".into(), "codec".into(), "encode_frame".into()]
                    .as_slice()
            )
        );
        assert_eq!(
            imp.get("transport").map(Vec::as_slice),
            Some(["crate".to_string(), "net".into(), "transport".into()].as_slice())
        );
        assert_eq!(
            imp.get("Conn").map(Vec::as_slice),
            Some(
                ["crate".to_string(), "net".into(), "transport".into(), "Conn".into()].as_slice()
            )
        );
    }

    #[test]
    fn globs_are_ignored() {
        let imp = imports_of("use crate::prelude::*;");
        assert!(imp.is_empty());
    }
}
