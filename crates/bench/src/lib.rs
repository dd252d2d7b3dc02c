//! # sonic-bench
//!
//! Five `harness = false` bench targets live in `benches/`, all written on
//! the harness in this file and on nothing else: it owns the clock, the
//! gates, the JSON and the exit code.
//!
//! * `paper` runs every experiment of the paper's evaluation
//!   (`sonic_sim::experiments`) and reports each number as a named row
//!   (`BENCH_paper.json`; EXPERIMENTS.md maps rows to figures and claims).
//! * `perf_rx`, `perf_codec`, `perf_broadcast_cache`, `perf_natsim` say what
//!   `benchmark/` (one page's whole trip) cannot: fast vs reference vs
//!   forced-scalar per kernel, the image codec's stages, the cache/store
//!   day, the scenario engine's budgets.
//!
//! ## The harness contract
//!
//! A target builds one [`Report`] from its arguments (`--smoke` is the only
//! one), adds rows, and ends with [`Report::finish`]:
//!
//! * [`Report::row`] — a number with a unit; never judged.
//! * [`Report::timing`] — a [`Timing`] (median, MAD and minimum over N
//!   samples, from [`time`], or [`Timing::of`] over [`sample`]s a target
//!   took itself), in seconds; never judged.
//! * [`Report::gate`] — a number judged against a [`Bound`]. Gates are
//!   in-process ratios, stated budgets or the paper's shape claims,
//!   **enforced in a full run only**: a smoke run's inputs are too small
//!   for them to mean anything, so there the row reads `info`.
//! * [`Report::check`] — a yes/no correctness fact (two paths agree, a
//!   memory budget holds). Enforced in **every** run, smoke included.
//!
//! `finish` prints the verdict, writes `BENCH_<tag>.json` at the repository
//! root **only in a full run** — a smoke run never touches a committed
//! number — and exits non-zero if any enforced row failed.
//!
//! Every gate value in a `perf_*` target was derived the same way: at least
//! five full runs on the host the JSON names (listed in CHANGES.md), gate =
//! 0.8 × the worst ratio observed, so no gate sits inside its own spread.
//!
//! ## The one JSON schema
//!
//! ```text
//! {
//!   "bench": "perf_rx", "smoke": false,
//!   "host": "vm", "os": "linux/x86_64", "cores": 2,
//!   "backend": "avx2", "commit": "<40 hex | unknown>",
//!   "rows": [
//!     { "name": "...", "value": 1.5, "unit": "x", "verdict": "info" },
//!     { "name": "...", "value": 0.01, "unit": "s", "mad": 0.001, "min": 0.009,
//!       "samples": 5, "verdict": "info" },
//!     { "name": "...", "value": 3.2, "unit": "x", "at_least": 2.4, "verdict": "PASS" },
//!     { "name": "...", "value": 1, "unit": "bool", "verdict": "PASS" }
//!   ],
//!   "pass": true
//! }
//! ```
//!
//! `commit` is read from `.git` (`HEAD`, then the ref it names, loose or
//! packed); a tree with uncommitted changes reads as the commit under it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median, median absolute deviation and minimum of N timed samples, in
/// seconds per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median sample.
    pub median_s: f64,
    /// Median of the samples' absolute deviations from the median.
    pub mad_s: f64,
    /// Fastest sample.
    pub min_s: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs at least one value");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

impl Timing {
    /// Summarises samples a target collected itself (e.g. per-cycle times
    /// that come out of one function two at a time).
    ///
    /// # Panics
    /// On an empty slice.
    pub fn of(samples_s: &[f64]) -> Timing {
        let median_s = median(samples_s);
        let dev: Vec<f64> = samples_s.iter().map(|s| (s - median_s).abs()).collect();
        Timing {
            median_s,
            mad_s: median(&dev),
            min_s: samples_s.iter().copied().fold(f64::INFINITY, f64::min),
            samples: samples_s.len(),
        }
    }
}

/// Runs `f` once and returns its result with the wall time it took, in
/// seconds: the stopwatch for work too long to repeat.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One sample: `iters` back-to-back calls of `f`, in seconds per call.
pub fn sample(iters: usize, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    let ((), s) = timed(|| (0..iters).for_each(|_| f()));
    s / iters as f64
}

/// Takes `samples` [`sample`]s of `f`, after one untimed call that fills
/// caches and finishes lazy set-up.
pub fn time(samples: usize, iters: usize, mut f: impl FnMut()) -> Timing {
    f();
    let per_iter: Vec<f64> = (0..samples.max(1)).map(|_| sample(iters, &mut f)).collect();
    Timing::of(&per_iter)
}

/// What a gated value is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be at most this.
    AtMost(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(b) => value >= b,
            Bound::AtMost(b) => value <= b,
        }
    }

    /// (JSON key, comparison sign, limit).
    fn parts(self) -> (&'static str, &'static str, f64) {
        match self {
            Bound::AtLeast(b) => ("at_least", ">=", b),
            Bound::AtMost(b) => ("at_most", "<=", b),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Info,
    Pass,
    Fail,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Info => "info",
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
        }
    }
}

struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    timing: Option<Timing>,
    bound: Option<Bound>,
    verdict: Verdict,
}

/// Where and on what a report's numbers were taken.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stamp {
    host: String,
    os: String,
    cores: usize,
    backend: String,
    commit: String,
}

impl Stamp {
    fn here() -> Stamp {
        let host = std::fs::read_to_string("/etc/hostname").unwrap_or_default();
        let host = host.trim();
        Stamp {
            host: if host.is_empty() { "unknown" } else { host }.to_string(),
            os: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            backend: sonic_dsp::simd::backend().name().to_string(),
            commit: git_commit(&repo_root().join(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The commit `HEAD` points at, read from the files under `git_dir`.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// The shortest plain decimal that parses back to `v` (whole numbers print
/// whole); `null` for NaN and infinities, which JSON has no number for.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seconds at a readable scale for the table.
fn human_s(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// One bench target's results: rows in the order they were added, the
/// stamp, and whether the run is a smoke run.
pub struct Report {
    bench: &'static str,
    tag: &'static str,
    smoke: bool,
    stamp: Stamp,
    rows: Vec<Row>,
}

impl Report {
    /// The report of bench target `bench`, whose full runs are committed as
    /// `BENCH_<tag>.json`. `--smoke` among the process arguments makes it a
    /// smoke run.
    pub fn from_args(bench: &'static str, tag: &'static str) -> Report {
        let smoke = std::env::args().any(|a| a == "--smoke");
        let report = Report::new(bench, tag, smoke, Stamp::here());
        println!(
            "{bench}: {} run on {} ({}, {} cores), backend {}, commit {}",
            if smoke { "smoke" } else { "full" },
            report.stamp.host,
            report.stamp.os,
            report.stamp.cores,
            report.stamp.backend,
            report.stamp.commit,
        );
        report
    }

    fn new(bench: &'static str, tag: &'static str, smoke: bool, stamp: Stamp) -> Report {
        Report {
            bench,
            tag,
            smoke,
            stamp,
            rows: Vec::new(),
        }
    }

    /// True in a smoke run: targets shrink their inputs on it.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        timing: Option<Timing>,
        bound: Option<Bound>,
        verdict: Verdict,
    ) {
        let mut line = match timing {
            Some(t) => format!(
                "{name:<40} {:>12}  (mad {}, min {}, n={})",
                human_s(t.median_s),
                human_s(t.mad_s),
                human_s(t.min_s),
                t.samples
            ),
            None => format!("{name:<40} {:>12} {unit}", num(value)),
        };
        if let Some(bound) = bound {
            let (_, sign, limit) = bound.parts();
            line.push_str(&format!("  (need {sign} {})", num(limit)));
        }
        println!("{line}  [{}]", verdict.name());
        self.rows.push(Row {
            name: name.to_string(),
            value,
            unit,
            timing,
            bound,
            verdict,
        });
    }

    /// Records a number that is reported and never judged.
    pub fn row(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, None, None, Verdict::Info);
    }

    /// Records a timing (its median is the row's value, in seconds).
    pub fn timing(&mut self, name: &str, t: Timing) {
        self.push(name, t.median_s, "s", Some(t), None, Verdict::Info);
    }

    /// Records a number held to `bound` — in a full run. A smoke run keeps
    /// the bound in the row and reads `info`.
    pub fn gate(&mut self, name: &str, value: f64, unit: &'static str, bound: Bound) {
        let verdict = match (self.smoke, bound.holds(value)) {
            (true, _) => Verdict::Info,
            (false, true) => Verdict::Pass,
            (false, false) => Verdict::Fail,
        };
        self.push(name, value, unit, None, Some(bound), verdict);
    }

    /// Records a correctness fact; `false` fails the run, smoke or not.
    pub fn check(&mut self, name: &str, ok: bool) {
        let verdict = if ok { Verdict::Pass } else { Verdict::Fail };
        self.push(name, f64::from(u8::from(ok)), "bool", None, None, verdict);
    }

    /// True while no enforced row has failed.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Fail)
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = format!(
                    "\"name\": {}, \"value\": {}, \"unit\": {}",
                    json_str(&r.name),
                    num(r.value),
                    json_str(r.unit)
                );
                if let Some(t) = r.timing {
                    fields.push_str(&format!(
                        ", \"mad\": {}, \"min\": {}, \"samples\": {}",
                        num(t.mad_s),
                        num(t.min_s),
                        t.samples
                    ));
                }
                if let Some(bound) = r.bound {
                    let (key, _, limit) = bound.parts();
                    fields.push_str(&format!(", \"{key}\": {}", num(limit)));
                }
                format!("    {{ {fields}, \"verdict\": {} }}", json_str(r.verdict.name()))
            })
            .collect();
        format!(
            "{{\n  \"bench\": {},\n  \"smoke\": {},\n  \"host\": {},\n  \"os\": {},\n  \
             \"cores\": {},\n  \"backend\": {},\n  \"commit\": {},\n  \"rows\": [\n{}\n  ],\n  \
             \"pass\": {}\n}}\n",
            json_str(self.bench),
            self.smoke,
            json_str(&self.stamp.host),
            json_str(&self.stamp.os),
            self.stamp.cores,
            json_str(&self.stamp.backend),
            json_str(&self.stamp.commit),
            rows.join(",\n"),
            self.pass(),
        )
    }

    /// Prints the verdict and, in a full run, writes the JSON to `path`.
    /// Returns whether the run passed.
    fn finish_at(&self, path: &Path) -> bool {
        println!();
        if self.smoke {
            println!("smoke run: {} left as committed", path.display());
        } else {
            match std::fs::write(path, self.to_json()) {
                Ok(()) => println!("results written to {}", path.display()),
                Err(e) => println!("could not write {}: {e}", path.display()),
            }
        }
        let pass = self.pass();
        println!(
            "{}: {}",
            self.bench,
            if pass {
                "all acceptance checks PASS"
            } else {
                "some acceptance checks FAILED"
            }
        );
        pass
    }

    /// Ends the target: verdict, `BENCH_<tag>.json` at the repository root
    /// (full runs only), exit code 1 if an enforced row failed.
    pub fn finish(self) -> ! {
        let path = repo_root().join(format!("BENCH_{}.json", self.tag));
        std::process::exit(if self.finish_at(&path) { 0 } else { 1 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> Stamp {
        Stamp {
            host: "test\"host".to_string(),
            os: "linux/x86_64".to_string(),
            cores: 2,
            backend: "avx2".to_string(),
            commit: "0123abcd".to_string(),
        }
    }

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sonic-bench-{}-{name}", std::process::id()))
    }

    #[test]
    fn timing_is_median_mad_and_min_of_the_samples() {
        // Sorted: 1 2 4 7 100 — the outlier moves neither median nor MAD.
        let t = Timing::of(&[7.0, 1.0, 100.0, 4.0, 2.0]);
        assert_eq!(t.median_s, 4.0);
        assert_eq!(t.mad_s, 3.0); // deviations 3 2 0 3 96 → sorted 0 2 3 3 96
        assert_eq!(t.min_s, 1.0);
        assert_eq!(t.samples, 5);
        // An even count takes the mean of the middle pair, for both.
        let t = Timing::of(&[1.0, 2.0, 4.0, 9.0]);
        assert_eq!(t.median_s, 3.0);
        assert_eq!(t.mad_s, 1.5); // deviations 2 1 1 6 → sorted 1 1 2 6
    }

    #[test]
    fn time_takes_the_asked_number_of_samples_after_one_warm_up_call() {
        let mut calls = 0;
        let t = time(3, 2, || calls += 1);
        assert_eq!(calls, 1 + 3 * 2);
        assert_eq!(t.samples, 3);
        assert!(t.min_s <= t.median_s);
    }

    #[test]
    fn a_fixed_report_renders_to_the_one_schema() {
        let mut r = Report::new("perf_test", "test", false, stamp());
        r.row("pages", 100.0, "count");
        r.timing(
            "decode",
            Timing {
                median_s: 0.0125,
                mad_s: 0.00025,
                min_s: 0.012,
                samples: 5,
            },
        );
        r.gate("speedup", 3.8291234, "x", Bound::AtLeast(3.0));
        r.gate("overhead", 0.2, "frac", Bound::AtMost(0.15));
        r.check("paths_agree", true);
        let expected = r#"{
  "bench": "perf_test",
  "smoke": false,
  "host": "test\"host",
  "os": "linux/x86_64",
  "cores": 2,
  "backend": "avx2",
  "commit": "0123abcd",
  "rows": [
    { "name": "pages", "value": 100, "unit": "count", "verdict": "info" },
    { "name": "decode", "value": 0.0125, "unit": "s", "mad": 0.00025, "min": 0.012, "samples": 5, "verdict": "info" },
    { "name": "speedup", "value": 3.8291234, "unit": "x", "at_least": 3, "verdict": "PASS" },
    { "name": "overhead", "value": 0.2, "unit": "frac", "at_most": 0.15, "verdict": "FAIL" },
    { "name": "paths_agree", "value": 1, "unit": "bool", "verdict": "PASS" }
  ],
  "pass": false
}
"#;
        assert_eq!(r.to_json(), expected);
    }

    #[test]
    fn a_written_row_parses_back_to_the_same_f64() {
        let values = [8000.0 / 16016.0, 1.0 / 3.0, 0.1, 2.0f64.sqrt() * 1e-9, 123_456_789.123, 3.0, -0.0, 8.97, 1e20];
        let mut r = Report::new("perf_test", "test", false, stamp());
        for (k, &v) in values.iter().enumerate() {
            r.row(&format!("v{k}"), v, "x");
        }
        let json = r.to_json();
        for (k, &v) in values.iter().enumerate() {
            let field = format!("\"name\": \"v{k}\", \"value\": ");
            let at = json.find(&field).expect("row written") + field.len();
            let text = &json[at..at + json[at..].find(',').expect("more fields")];
            let back: f64 = text.parse().expect("a JSON number");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} written as {text}");
        }
        assert_eq!(num(8000.0 / 16016.0), "0.4995004995004995");
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn a_failing_gate_fails_a_full_run_and_is_info_in_smoke() {
        let mut full = Report::new("perf_test", "test", false, stamp());
        full.gate("speedup", 1.0, "x", Bound::AtLeast(2.0));
        assert!(!full.pass());
        assert!(full.to_json().contains("\"verdict\": \"FAIL\""));

        let mut smoke = Report::new("perf_test", "test", true, stamp());
        smoke.gate("speedup", 1.0, "x", Bound::AtLeast(2.0));
        assert!(smoke.pass());
        assert!(smoke.to_json().contains("\"at_least\": 2, \"verdict\": \"info\""));
        // A check is a correctness fact: smoke does not excuse it.
        smoke.check("paths_agree", false);
        assert!(!smoke.pass());
    }

    #[test]
    fn a_smoke_finish_leaves_the_committed_file_alone_and_a_full_one_replaces_it() {
        let path = scratch("finish.json");
        let committed = b"{ \"committed\": true }\n\x00not even text";
        std::fs::write(&path, committed).expect("write");

        let mut smoke = Report::new("perf_test", "test", true, stamp());
        smoke.row("pages", 6.0, "count");
        assert!(smoke.finish_at(&path));
        assert_eq!(std::fs::read(&path).expect("read"), committed);

        let mut full = Report::new("perf_test", "test", false, stamp());
        full.row("pages", 100.0, "count");
        assert!(full.finish_at(&path));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), full.to_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_is_read_from_a_loose_ref_a_packed_ref_or_a_detached_head() {
        let dir = scratch("git");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(git_commit(&dir), None, "no .git reads as unknown");

        std::fs::create_dir_all(dir.join("refs/heads")).expect("mkdir");
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").expect("write");
        std::fs::write(dir.join("packed-refs"), "# pack-refs\nbbbb refs/heads/other\naaaa refs/heads/main\n")
            .expect("write");
        assert_eq!(git_commit(&dir).as_deref(), Some("aaaa"));

        std::fs::write(dir.join("refs/heads/main"), "cccc\n").expect("write");
        assert_eq!(git_commit(&dir).as_deref(), Some("cccc"), "a loose ref wins");

        std::fs::write(dir.join("HEAD"), "dddd\n").expect("write");
        assert_eq!(git_commit(&dir).as_deref(), Some("dddd"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_stamp_of_this_process_has_every_field() {
        let s = Stamp::here();
        assert!(!s.host.is_empty() && !s.os.is_empty() && !s.backend.is_empty() && !s.commit.is_empty());
        assert!(s.cores >= 1);
    }
}
