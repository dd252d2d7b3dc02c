//! Broadcast backlog simulation (Figure 4c).
//!
//! "Evolution over time of the amount of data to be broadcasted as a
//! function of transmission rates and number of webpages." Every hour each
//! corpus page is re-rendered; if its content changed, its bytes join the
//! backlog. The transmitter drains at the configured rate. The paper's
//! claims to reproduce: at 10 kbps the backlog rarely reaches zero but stays
//! bounded; 20/40 kbps drain to zero periodically; N=200 at 20 kbps behaves
//! like N=100 at 10 kbps.

use sonic_pagegen::{Corpus, PageId};

/// One backlog trace.
#[derive(Debug, Clone)]
pub struct BacklogTrace {
    /// Backlog in bytes sampled at the *end* of each hour.
    pub hourly_backlog: Vec<f64>,
    /// Total bytes enqueued over the run.
    pub total_enqueued: f64,
    /// Hours where the backlog hit zero.
    pub idle_hours: usize,
}

/// Runs the hour-by-hour backlog recurrence.
///
/// `pages` is the broadcast catalog (N=100 uses the whole corpus; N=200
/// duplicates it, modeling a second 25-site region on the same frequency),
/// and `bytes(page, hour)` the broadcast size of the version live then.
pub fn simulate(
    corpus: &Corpus,
    pages: &[PageId],
    bytes: impl Fn(PageId, u64) -> f64,
    rate_bps: f64,
    hours: u64,
) -> BacklogTrace {
    let drain_per_hour = rate_bps * 3600.0 / 8.0;
    let mut backlog = 0.0f64;
    let mut trace = Vec::with_capacity(hours as usize);
    let mut total = 0.0f64;
    let mut idle = 0usize;
    for hour in 0..hours {
        // New content this hour.
        for &id in pages {
            let fresh = hour == 0 || corpus.changed(id, hour - 1, hour);
            if fresh {
                let b = bytes(id, hour);
                backlog += b;
                total += b;
            }
        }
        // Drain.
        backlog = (backlog - drain_per_hour).max(0.0);
        if backlog == 0.0 {
            idle += 1;
        }
        trace.push(backlog);
    }
    BacklogTrace {
        hourly_backlog: trace,
        total_enqueued: total,
        idle_hours: idle,
    }
}

/// Mean inflow rate in bits/second implied by the corpus churn and sizes.
pub fn mean_inflow_bps(
    corpus: &Corpus,
    pages: &[PageId],
    bytes: impl Fn(PageId, u64) -> f64,
    hours: u64,
) -> f64 {
    let mut total = 0.0;
    for hour in 1..hours {
        for &id in pages {
            if corpus.changed(id, hour - 1, hour) {
                total += bytes(id, hour);
            }
        }
    }
    total * 8.0 / ((hours - 1) as f64 * 3600.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every page version the same size.
    fn flat_sizes(bytes: f64) -> impl Fn(PageId, u64) -> f64 {
        move |_, _| bytes
    }

    fn setup() -> (Corpus, Vec<PageId>) {
        let c = Corpus::standard();
        let pages = c.pages();
        (c, pages)
    }

    #[test]
    fn higher_rate_drains_more() {
        let (c, pages) = setup();
        let sizes = flat_sizes(150_000.0);
        let slow = simulate(&c, &pages, &sizes, 10_000.0, 48);
        let fast = simulate(&c, &pages, sizes, 40_000.0, 48);
        let peak = |t: &BacklogTrace| {
            t.hourly_backlog
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
        };
        assert!(peak(&slow) > peak(&fast));
        assert!(fast.idle_hours > slow.idle_hours);
    }

    #[test]
    fn backlog_is_bounded_not_divergent() {
        let (c, pages) = setup();
        let sizes = flat_sizes(150_000.0);
        let t = simulate(&c, &pages, sizes, 10_000.0, 96);
        // "SONIC is scalable, meaning that the amount of data to be sent
        // does not grow indefinitely": second-half peak ≈ first-half peak.
        let half = t.hourly_backlog.len() / 2;
        let peak1 = t.hourly_backlog[..half].iter().copied().fold(0.0f64, f64::max);
        let peak2 = t.hourly_backlog[half..].iter().copied().fold(0.0f64, f64::max);
        assert!(peak2 < peak1 * 1.5 + 1.0, "diverging: {peak1} -> {peak2}");
    }

    #[test]
    fn double_catalog_doubles_inflow() {
        let (c, pages) = setup();
        let sizes = flat_sizes(100_000.0);
        let single = mean_inflow_bps(&c, &pages, &sizes, 48);
        let doubled: Vec<PageId> = pages.iter().chain(pages.iter()).copied().collect();
        let double = mean_inflow_bps(&c, &doubled, sizes, 48);
        assert!((double / single - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inflow_sits_in_the_figure_4c_regime() {
        // The paper's core Fig 4c observation: at 10 kbps the queue almost
        // never empties (daytime inflow exceeds 10 kbps) while 20–40 kbps
        // drain. With the nightly content freeze the 24 h average must land
        // just below 10 kbps (bounded) with daytime peaks above it.
        let (c, pages) = setup();
        // ~330 KB is the measured mean size of *changed* pages (changes are
        // dominated by the tall news landing pages; cf. Fig 4b tails).
        let sizes = flat_sizes(330_000.0);
        let inflow = mean_inflow_bps(&c, &pages, sizes, 48);
        assert!(
            inflow > 7_000.0 && inflow < 13_000.0,
            "inflow {inflow} bps out of band"
        );
        // Daytime-only inflow exceeds the 10 kbps drain.
        let mut day_bytes = 0.0;
        for hour in 30..40 {
            for &id in &pages {
                if c.changed(id, hour - 1, hour) {
                    day_bytes += 330_000.0;
                }
            }
        }
        let day_bps = day_bytes * 8.0 / (10.0 * 3600.0);
        assert!(day_bps > 10_000.0, "daytime inflow {day_bps} bps");
    }
}
