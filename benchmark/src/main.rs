//! One page's trip through SONIC, timed end to end and layer by layer, on
//! four named workloads. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! sonic-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! sonic-benchmark [--seed N] [--seconds S] [--runs R] [--trace] [--smoke] [--out FILE]
//!                                                                 all four, each in a fresh child
//! sonic-benchmark --check A.json B.json                           compare two result files
//! sonic-benchmark --contract                                      print BENCHMARK.json
//! ```

mod alloc;
mod check;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::Kind;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Args, Outcome, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `benchmark/out`, fixed when the benchmark is built: it is built and run in
/// the same checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Print every computed metric in the result line, not just the
    /// contract's set for this kind of run.
    full: bool,
    runs: usize,
    out: Option<PathBuf>,
    check: Option<(PathBuf, PathBuf)>,
    contract: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        full: false,
        runs: 1,
        out: None,
        check: None,
        contract: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => cli.out = Some(value("a file")?.into()),
            "--check" => cli.check = Some((value("two files")?.into(), value("two files")?.into())),
            // The driver says `--trace 0|1`; by hand a bare `--trace` will do.
            "--trace" => {
                cli.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.smoke = true,
            "--full" => cli.full = true,
            "--contract" => cli.contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The result line: the contract's four keys, with the metrics of `kinds`.
/// The driver wants every listed metric on every workload, so one its
/// workload has nothing to say about reads 0 (per-layer metrics only: every
/// end-to-end one is defined on every workload); `kinds: None` is the
/// by-hand form, every metric the run computed and no filler.
fn result_json(outcome: &Outcome, kinds: Option<&[Kind]>) -> Json {
    let metrics = metrics::DEFS
        .iter()
        .filter(|d| kinds.is_none_or(|k| k.contains(&d.kind)))
        .filter_map(|d| {
            let value = match outcome.values.iter().find(|v| v.name == d.name) {
                Some(v) => v.value,
                None if kinds.is_some() => 0.0,
                None => return None,
            };
            Some((
                d.name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            ))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One workload in this process. Prints every metric by name with unit and
/// sample count, then the result line.
fn run_one(cli: &Cli, workload: Workload) -> ExitCode {
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: out_dir(),
    };
    let outcome = workloads::run(&args);
    for v in &outcome.values {
        let unit = metrics::def(v.name).map_or("?", |d| d.unit);
        println!(
            "{:<13} {:<32} {:>16.6} {:<9} n={}",
            workload.name(),
            v.name,
            v.value,
            unit,
            v.samples
        );
    }
    for failure in &outcome.failures {
        println!("{:<13} FAILED {failure}", workload.name());
    }
    if let Some(trace) = &outcome.trace {
        let path = args.out_dir.join(format!("trace-{}.json", workload.name()));
        let doc = Json::obj([
            ("workload", Json::str(workload.name())),
            ("seed", Json::Num(cli.seed as f64)),
            ("spans", trace.clone()),
        ]);
        if let Err(e) = std::fs::write(&path, doc.to_line()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = if cli.full {
        result_json(&outcome, None)
    } else if cli.trace {
        result_json(&outcome, Some(&[Kind::User, Kind::Layer]))
    } else {
        result_json(&outcome, Some(&[Kind::EndToEnd]))
    };
    println!("{}", line.to_line());
    // A wrong output is a result, not a crash: the line above says
    // `"correct": false` and the exit code stays 0 for the driver. By hand
    // (`--full`, as `run.sh` without `--workload` runs it) it is an error.
    if cli.full && outcome.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs `workload` in a fresh child of this executable; returns its result
/// line, or `None` if it crashed.
fn run_child(cli: &Cli, workload: Workload, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--full");
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().expect("spawn a child of this executable");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    let kinds: &[Kind] = if trace {
        &[Kind::Layer]
    } else {
        &[Kind::EndToEnd, Kind::User]
    };
    for row in table.lines() {
        let name = row.split_whitespace().nth(1).unwrap_or("");
        if row.contains(" FAILED ") || metrics::def(name).is_some_and(|d| kinds.contains(&d.kind)) {
            println!("{row}");
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Json::parse(line)
        .ok()
        .filter(|j| j.get("metrics").is_some())
}

fn metric_of(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// All four workloads, each in a fresh child, `runs` times; writes the result
/// file `--check` reads.
fn run_all(cli: &Cli) -> ExitCode {
    /// Re-runs of a workload whose single thread got less than its share of
    /// a core: that run measured the neighbours, not the program.
    const RERUNS_WHEN_CONTENDED: usize = 2;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for run in 0..cli.runs {
        for workload in Workload::ALL {
            let mut result = None;
            for attempt in 0..=RERUNS_WHEN_CONTENDED {
                result = run_child(cli, workload, false);
                let contended = result
                    .as_ref()
                    .is_some_and(|r| metric_of(r, "run.contended") > 0.0);
                if !contended {
                    break;
                }
                println!(
                    "{:<13} contended (cpu_frac {:.2}), attempt {} of {}",
                    workload.name(),
                    result
                        .as_ref()
                        .map_or(0.0, |r| metric_of(r, "run.cpu_frac")),
                    attempt + 1,
                    RERUNS_WHEN_CONTENDED + 1,
                );
            }
            let traced = cli.trace.then(|| run_child(cli, workload, true)).flatten();
            if let (Some(plain), Some(traced)) = (&result, &traced) {
                let (a, b) = (metric_of(plain, "unit_xrt"), metric_of(traced, "unit_xrt"));
                println!(
                    "{:<13} unit_xrt traced against untraced: {:+.1} %",
                    workload.name(),
                    (b / a - 1.0) * 100.0
                );
            }
            for (result, trace) in [(result, false), (traced, true)] {
                if trace && !cli.trace {
                    continue;
                }
                let Some(result) = result else {
                    println!(
                        "{:<13} CRASHED (trace {})",
                        workload.name(),
                        u8::from(trace)
                    );
                    all_correct = false;
                    continue;
                };
                all_correct &= result.get("correct") == Some(&Json::Bool(true));
                runs.push(Json::obj([
                    ("workload", Json::str(workload.name())),
                    ("run", Json::Num(run as f64)),
                    ("trace", Json::Bool(trace)),
                    ("result", result),
                ]));
            }
        }
    }
    let doc = Json::obj([
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("smoke", Json::Bool(cli.smoke)),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&path, doc.to_line()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results written to {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("some outputs were wrong: see FAILED above");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cli.contract {
        println!("{}", metrics::contract().to_line());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.check {
        return check::run(a, b);
    }
    match cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli),
    }
}
