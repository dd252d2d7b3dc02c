//! `sonic-lint` CLI.
//!
//! ```text
//! cargo run -p sonic-lint -- --workspace                     # CI gate: report all
//! cargo run -p sonic-lint -- --workspace --json              # machine mode
//! cargo run -p sonic-lint -- --workspace --graph-stats       # call-graph health
//! ```
//!
//! Exit codes: 0 no findings (or `--graph-stats`), 1 any finding, 2
//! usage/IO error.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use sonic_lint::{findings_to_json, format_finding, lint_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: bool,
    graph_stats: bool,
}

const USAGE: &str = "usage: sonic-lint --workspace [--root DIR] [--json] [--graph-stats]";

fn parse_args() -> Result<Options, String> {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut graph_stats = false;
    let mut workspace = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--graph-stats" => graph_stats = true,
            "--root" => {
                root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ))
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !workspace {
        return Err(format!("--workspace is required\n{USAGE}"));
    }
    let root = root
        .or_else(|| std::env::current_dir().ok())
        .ok_or("cannot determine working directory")?;
    Ok(Options {
        root,
        json,
        graph_stats,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.graph_stats {
        let g = match sonic_lint::graph_workspace(&opts.root) {
            Ok(g) => g,
            Err(msg) => {
                eprintln!("sonic-lint: {msg}");
                return ExitCode::from(2);
            }
        };
        let s = &g.stats;
        println!("sonic-lint call graph:");
        println!("  nodes            {}", s.nodes);
        println!("  edges            {}", s.edges);
        println!("  call sites       {}", s.call_sites);
        println!("  resolved         {}", s.resolved_calls);
        println!("  ambiguous        {}", s.ambiguous_calls);
        println!("  external/unknown {}", s.unresolved_calls);
        return ExitCode::SUCCESS;
    }

    let findings = match lint_workspace(&opts.root) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("sonic-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", findings_to_json(&findings));
    } else {
        for f in &findings {
            println!("{}", format_finding(f));
        }
        eprintln!("sonic-lint: {} finding(s)", findings.len());
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("sonic-lint: fix each finding, or `// lint: allow` it with a justification");
        ExitCode::FAILURE
    }
}
