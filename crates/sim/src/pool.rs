//! Deterministic worker pool for experiment fan-out.
//!
//! The paper's evaluation sweeps many independent receivers (RSSI points ×
//! repetitions, distances × repetitions, pages × loss rates). Each job is a
//! pure function of its inputs — the channel RNG is seeded per job — so they
//! can run on any thread in any order without changing a single result.
//! [`run_ordered`] fans a job list over scoped `std` workers that claim
//! `(index, job)` pairs from one shared iterator, and puts each result into
//! the slot of its index. The returned vector is therefore identical to
//! `jobs.into_iter().map(f)` no matter how many workers run — seed-stable
//! parallelism, not racy speedup. This is the only place the workspace
//! spawns threads.

use std::sync::Mutex;

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

    // Workers claim the next `(index, job)` under a lock held for that one
    // `next()`, never across `f`, and hand back what they ran; the results
    // land in their jobs' slots after the join.
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut out: Vec<Option<O>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let claimed = queue.lock().expect("`next()` does not panic").next();
                        let Some((i, job)) = claimed else { break };
                        done.push((i, f(job)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, o) in handle.join().expect("a job panicked") {
                out[i] = Some(o);
            }
        }
    });
    out.into_iter().map(|o| o.expect("every job ran")).collect()
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
