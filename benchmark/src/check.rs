//! `--check A.json B.json`: each bounded metric's own bound applied to two
//! result files, one row per workload × metric.
//!
//! * `regressed`: B's median is worse than A's by more than the bound.
//! * `unresolved`: it is not, but the runs of one file spread (first to third
//!   quartile over the median) wider than the bound, so "no worse" cannot be
//!   told from noise — unless every run of B reads better than every run of A.
//! * `ok` otherwise.

use crate::json::Json;
use crate::metrics::{Better, Bound, DEFS};
use crate::stats::{median, quartile_spread};
use crate::workloads::Workload;
use std::path::Path;
use std::process::ExitCode;

#[derive(PartialEq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric from its values in the two files.
pub fn judge(better: Better, bound: Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let (allowed, spread_allowed) = match bound {
        Bound::Rel(share) => (share * ma.abs(), Some(share)),
        Bound::Abs(amount) => (amount, None),
        Bound::Exact => (0.0, None),
    };
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    let Some(share) = spread_allowed else {
        return Verdict::Ok;
    };
    let every_b_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if quartile_spread(a).max(quartile_spread(b)) > share && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The untraced runs of `workload` in a result file: one value per run.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace") == Some(&Json::Bool(false))
        })
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<26} {:>14} {:>14} {:<9} {:>5} {:>5}  verdict",
        "workload", "metric", "A median", "B median", "unit", "nA", "nB"
    );
    let mut regressed = 0;
    for workload in Workload::ALL {
        for def in DEFS {
            let Some(bound) = def.bound else { continue };
            let (va, vb) = (
                values(&a, workload.name(), def.name),
                values(&b, workload.name(), def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(def.better, bound, &va, &vb);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<13} {:<26} {:>14.6} {:>14.6} {:<9} {:>5} {:>5}  {}",
                workload.name(),
                def.name,
                median(&va),
                median(&vb),
                def.unit,
                va.len(),
                vb.len(),
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    if regressed > 0 {
        println!("{regressed} metric(s) regressed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timing_within_its_bound_is_ok_and_beyond_it_regressed() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(
                Better::Lower,
                Bound::Rel(0.10),
                &a,
                &[10.5, 10.6, 10.4, 10.5]
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                Better::Lower,
                Bound::Rel(0.10),
                &a,
                &[11.5, 11.6, 11.4, 11.5]
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, Bound::Rel(0.10), &a, &[8.5, 8.6, 8.4, 8.5]),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            judge(Better::Lower, Bound::Rel(0.10), &noisy, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                Better::Lower,
                Bound::Rel(0.10),
                &noisy,
                &[5.0, 6.0, 7.0, 7.5]
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_and_absolute_bounds() {
        assert_eq!(
            judge(Better::Lower, Bound::Exact, &[3.0], &[3.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, Bound::Exact, &[3.0], &[3.0000001]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, Bound::Abs(0.1), &[40.0], &[39.95]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, Bound::Abs(0.1), &[40.0], &[39.8]),
            Verdict::Regressed
        );
    }
}
