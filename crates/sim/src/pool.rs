//! Deterministic worker pool for experiment fan-out.
//!
//! The paper's evaluation sweeps many independent receivers (RSSI points ×
//! repetitions, distances × repetitions, pages × loss rates). Each job is a
//! pure function of its inputs — the channel RNG is seeded per job — so they
//! can run on any thread in any order without changing a single result.
//! [`run_ordered`] fans a job list over a pool of scoped workers connected by
//! **bounded** crossbeam channels (a slow consumer stalls the feeder instead
//! of letting results pile up), and a sequence-tagged reorder buffer yields
//! the outputs in job order. The returned vector is therefore identical to
//! `jobs.into_iter().map(f)` no matter how many workers run — seed-stable
//! parallelism, not racy speedup.

use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::BTreeMap;

/// Default worker count: `SONIC_SIM_WORKERS` if set, else the machine's
/// available parallelism. A value of 1 disables threading entirely.
pub fn default_workers() -> usize {
    std::env::var("SONIC_SIM_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Runs `f` over every job on `workers` threads, returning the results in
/// job order. Equivalent to `jobs.into_iter().map(f).collect()` for pure
/// `f`; worker count changes only the wall-clock time.
pub fn run_ordered<I, O, F>(jobs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let total = jobs.len();
    let workers = workers.max(1).min(total.max(1));
    if workers == 1 {
        return jobs.into_iter().map(f).collect();
    }

    // Bounded queues: the feeder stalls when workers fall behind, and the
    // workers stall when the sink does, so in-flight memory stays O(workers).
    let depth = workers * 2;
    let (job_tx, job_rx) = bounded::<(usize, I)>(depth);
    let (out_tx, out_rx) = bounded::<(usize, O)>(depth);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx: Receiver<(usize, I)> = job_rx.clone();
            let out_tx: Sender<(usize, O)> = out_tx.clone();
            let f = &f;
            scope.spawn(move || {
                for (seq, job) in job_rx {
                    if out_tx.send((seq, f(job))).is_err() {
                        return;
                    }
                }
            });
        }
        // The scope keeps the clones alive inside the workers; drop ours so
        // the channels close once the feeder finishes and workers drain.
        drop(job_rx);
        drop(out_tx);

        scope.spawn(move || {
            for (seq, job) in jobs.into_iter().enumerate() {
                if job_tx.send((seq, job)).is_err() {
                    return;
                }
            }
        });

        // Reorder sink: emit strictly by sequence number.
        let mut pending: BTreeMap<usize, O> = BTreeMap::new();
        let mut out: Vec<O> = Vec::with_capacity(total);
        let mut next = 0usize;
        for (seq, o) in out_rx {
            pending.insert(seq, o);
            while let Some(v) = pending.remove(&next) {
                out.push(v);
                next += 1;
            }
        }
        assert!(pending.is_empty(), "worker pool lost results");
        assert_eq!(out.len(), total, "worker pool lost results");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_for_any_worker_count() {
        let jobs: Vec<u64> = (0..97).collect();
        let want: Vec<u64> = jobs.iter().map(|&x| x.wrapping_mul(2654435761) >> 7).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_ordered(jobs.clone(), workers, |x| x.wrapping_mul(2654435761) >> 7);
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_job_lists() {
        assert!(run_ordered(Vec::<u8>::new(), 4, |x| x).is_empty());
        assert_eq!(run_ordered(vec![7u8], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_job_costs_still_come_back_in_order() {
        // Early jobs sleep longest so completion order inverts input order.
        let jobs: Vec<u64> = (0..16).collect();
        let got = run_ordered(jobs, 8, |x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
