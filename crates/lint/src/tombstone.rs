//! R9 `tombstone`: designs the tree deleted on purpose, kept dead by one
//! table of (scope, banned pattern, reason) read over the tree's text —
//! every `.rs` file, `Cargo.toml` and `Cargo.lock`, the vendored stand-ins
//! included.
//!
//! A pattern is `|`-separated alternatives of literal text in which `*`
//! stands for a run of identifier characters and `\b` for a word boundary;
//! it matches within one line. A scope is a path prefix (`*` for one
//! directory name), file-name suffixes and an exempt prefix. Tombstones
//! take no `// lint: allow`: a design that comes back deletes its entry.

use crate::rules::{Finding, Rule};
use crate::workspace::SourceFile;

/// One deleted design and where it must not come back.
#[derive(Debug, Clone, Copy)]
pub struct Tombstone {
    /// Path prefix of the files it reads; `*` stands for one directory.
    pub under: &'static str,
    /// `|`-separated file-name suffixes it reads; empty for every file.
    pub files: &'static str,
    /// Path prefix exempt from it; empty for none.
    pub except: &'static str,
    /// The banned text (see the module docs); also the finding's key.
    pub pattern: &'static str,
    /// Why it stays deleted.
    pub reason: &'static str,
}

/// This file names every pattern, so no entry reads it.
const TABLE_FILE: &str = "crates/lint/src/tombstone.rs";

const MANIFESTS: &str = "Cargo.toml|Cargo.lock";

/// The table.
pub const TOMBSTONES: &[Tombstone] = &[
    Tombstone {
        under: "",
        files: MANIFESTS,
        except: "benchmark/",
        pattern: "parking_lot|crossbeam|criterion",
        reason: "core runs on one thread and sim's pool is std: no lock or channel crate; the bench harness is std: no criterion",
    },
    Tombstone {
        under: "crates/",
        files: "",
        except: "",
        pattern: "RenderCache",
        reason: "no second page cache around the artifact ladder",
    },
    Tombstone {
        under: "crates/",
        files: ".rs",
        except: "crates/core/src/server/render.rs",
        pattern: "hour_version(",
        reason: "only server::render stamps a content version; a request airs the build the ladder holds",
    },
    Tombstone {
        under: "",
        files: ".rs",
        except: "",
        pattern: r"fn refresh_request\b",
        reason: "a request is pipeline::refresh_page on the carousel's tier, not a path of its own",
    },
    Tombstone {
        under: "crates/core/src/",
        files: ".rs",
        except: "",
        pattern: "to_le_bytes|from_le_bytes",
        reason: "core's air, disk and wire formats are big-endian",
    },
    Tombstone {
        under: "crates/*/src/",
        files: ".rs",
        except: "crates/image/src/bitio.rs",
        pattern: r"struct Cursor\b|struct *Reader\b",
        reason: "one byte reader: bitio::ByteReader",
    },
    Tombstone {
        under: "",
        files: ".rs",
        except: "",
        pattern: r"fn base_id\b",
        reason: "the repair planner keys by the on-air id, never by a URL base id",
    },
    Tombstone {
        under: "",
        files: ".rs",
        except: "",
        pattern: r"trait ArtifactTier\b",
        reason: "one artifact cache type: ArtifactCache with an optional disk tier",
    },
    Tombstone {
        under: "",
        files: ".rs",
        except: "",
        pattern: r"struct TieredCache\b",
        reason: "one artifact cache type: ArtifactCache with an optional disk tier",
    },
    Tombstone {
        under: "",
        files: ".rs",
        except: "",
        pattern: r"fn apply_baseband\b|fn with_faults\b",
        reason: "scheduled faults act at frame level only, with no sample-level twin",
    },
    Tombstone {
        under: "",
        files: ".rs",
        except: "",
        pattern: r"\bFmThenAcoustic\b|struct CableChannel\b",
        reason: "each radio hop has one path: no FM-then-acoustic chain, no cable struct",
    },
    Tombstone {
        under: "crates/core/src/",
        files: ".rs",
        except: "",
        pattern: "from_be_bytes([",
        reason: "no byte field in core is assembled by hand from indexed bytes: bitio::ByteReader reads it",
    },
    Tombstone {
        under: "crates/",
        files: "",
        except: "",
        pattern: r"SONIC_FIG|SONIC_RSSI|SONIC_ABL|fn env_or\b",
        reason: "the paper's experiments run at one size each, Config::default(): no environment knob",
    },
];

/// Appends a finding for every line of `sources` an entry bans.
pub fn check(sources: &[SourceFile], out: &mut Vec<Finding>) {
    for s in sources.iter().filter(|s| s.path != TABLE_FILE) {
        for t in TOMBSTONES.iter().filter(|t| t.covers(&s.path)) {
            for (line, text) in (1..).zip(s.text.lines()) {
                if let Some(hit) = t.find(text) {
                    out.push(Finding {
                        file: s.path.clone(),
                        line,
                        rule: Rule::Tombstone,
                        key: t.pattern.to_string(),
                        message: format!("`{hit}` is deleted here: {}", t.reason),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }
}

impl Tombstone {
    /// Whether the entry reads the file at `path`.
    fn covers(&self, path: &str) -> bool {
        let under = match self.under.split_once('*') {
            None => path.starts_with(self.under),
            Some((head, tail)) => path
                .strip_prefix(head)
                .and_then(|rest| rest.find('/').map(|slash| &rest[slash..]))
                .is_some_and(|rest| rest.starts_with(tail)),
        };
        under
            && (self.files.is_empty() || self.files.split('|').any(|f| path.ends_with(f)))
            && (self.except.is_empty() || !path.starts_with(self.except))
    }

    /// The first text of `line` an alternative matches.
    fn find<'a>(&self, line: &'a str) -> Option<&'a str> {
        self.pattern.split('|').find_map(|alt| {
            (0..=line.len())
                .filter(|&at| line.is_char_boundary(at))
                .find_map(|at| {
                    match_at(alt.as_bytes(), line.as_bytes(), at).map(|end| &line[at..end])
                })
        })
    }
}

/// The end of a match of `pat` in `text` from `at`, backtracking over `*`.
fn match_at(pat: &[u8], text: &[u8], at: usize) -> Option<usize> {
    let word = |i: usize| {
        text.get(i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
    };
    match pat {
        [] => Some(at),
        [b'\\', b'b', rest @ ..] => {
            let boundary = (at > 0 && word(at - 1)) != word(at);
            boundary.then(|| match_at(rest, text, at)).flatten()
        }
        [b'*', rest @ ..] => {
            let end = (at..).find(|&i| !word(i)).unwrap_or(at);
            (at..=end).rev().find_map(|e| match_at(rest, text, e))
        }
        [c, rest @ ..] => (text.get(at) == Some(c))
            .then(|| match_at(rest, text, at + 1))
            .flatten(),
    }
}
