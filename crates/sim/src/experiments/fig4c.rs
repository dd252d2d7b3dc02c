//! Figure 4(c): broadcast backlog over time vs. rate and catalog size.
//!
//! Series: (10 kbps, N=100), (20 kbps, N=100), (40 kbps, N=100),
//! (20 kbps, N=200). Claims: 10 kbps rarely reaches zero but stays bounded;
//! 20/40 kbps drain; N=200@20 kbps ≈ N=100@10 kbps.

use super::sizes::{SizeConfig, SizeTable};
use crate::broadcast::{mean_inflow_bps, simulate, BacklogTrace};
use sonic_pagegen::{Corpus, PageId};

/// One plotted series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// Transmission rate in bits/second.
    pub rate_bps: u64,
    /// Catalog size (100 = the standard corpus, 200 = doubled).
    pub n_pages: usize,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Simulated hours (paper plots 48 h of its 72 h of data).
    pub hours: u64,
    /// Series to simulate.
    pub series: Vec<Series>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hours: 48,
            series: vec![
                Series { rate_bps: 10_000, n_pages: 100 },
                Series { rate_bps: 20_000, n_pages: 100 },
                Series { rate_bps: 40_000, n_pages: 100 },
                Series { rate_bps: 20_000, n_pages: 200 },
            ],
        }
    }
}

/// Full result.
#[derive(Debug)]
pub struct Fig4cResult {
    /// (series, trace) pairs.
    pub traces: Vec<(Series, BacklogTrace)>,
    /// Mean content inflow of the N=100 catalog in bps.
    pub inflow_bps_n100: f64,
}

/// Builds the N-page catalog by cycling the corpus (N=200 duplicates the
/// standard corpus, modeling a second region's 100 pages sharing the
/// frequency).
fn catalog(corpus: &Corpus, n: usize) -> Vec<PageId> {
    let base = corpus.pages();
    base.iter().cycle().take(n).copied().collect()
}

/// Runs the figure on the paper's operating point (Q10/PH10k) read off
/// `sizes`, which must cover it over `cfg.hours`.
pub fn run_experiment(cfg: &Config, sizes: &SizeTable) -> Fig4cResult {
    let corpus = sizes.corpus();
    let bytes = |id, hour| sizes.bytes(SizeConfig::paper_default(), id, hour);
    let inflow = mean_inflow_bps(corpus, &catalog(corpus, 100), bytes, cfg.hours);
    let traces = cfg
        .series
        .iter()
        .map(|&s| {
            let pages = catalog(corpus, s.n_pages);
            (s, simulate(corpus, &pages, bytes, s.rate_bps as f64, cfg.hours))
        })
        .collect();
    Fig4cResult {
        traces,
        inflow_bps_n100: inflow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig4b;
    use crate::experiments::sizes::tests::{small_table, TEST_HOURS_4B, TEST_HOURS_4C};

    /// Shape check on the one-site corpus; the bench runs the full figure.
    #[test]
    fn rates_order_the_backlog() {
        let cfg = Config {
            hours: TEST_HOURS_4C,
            ..Default::default()
        };
        let res = run_experiment(&cfg, small_table());
        let get = |rate: u64, n: usize| -> &BacklogTrace {
            &res.traces
                .iter()
                .find(|(s, _)| s.rate_bps == rate && s.n_pages == n)
                .expect("series")
                .1
        };
        let peak = |t: &BacklogTrace| t.hourly_backlog.iter().copied().fold(0.0f64, f64::max);
        let t10 = get(10_000, 100);
        let t20 = get(20_000, 100);
        let t40 = get(40_000, 100);
        let t20x2 = get(20_000, 200);
        assert!(peak(t10) >= peak(t20) && peak(t20) >= peak(t40), "rates must order peaks");
        // Doubling the catalog at 20 kbps looks like 10 kbps at N=100.
        assert!(
            t20x2.idle_hours <= t20.idle_hours,
            "N=200 must idle less than N=100 at the same rate"
        );
        // 40 kbps should reach zero at least sometimes.
        assert!(t40.idle_hours > 0, "40 kbps must drain");
    }

    /// Fig 4(c)'s sizes over Fig 4(b)'s hours are Fig 4(b)'s Q10/PH10k
    /// samples: both figures read one table.
    #[test]
    fn backlog_enqueues_fig4b_samples() {
        let table = small_table();
        let corpus = table.corpus();
        let b = fig4b::run_experiment(
            &fig4b::Config {
                hours: TEST_HOURS_4B,
                configs: vec![SizeConfig::paper_default()],
            },
            table,
        );
        // Samples run page by page, hour by hour; the catalog cycles the pages.
        let samples = &b.curves[0].sizes_bytes;
        let pages = corpus.pages();
        let mut enqueued = 0.0;
        for k in 0..100 {
            let id = pages[k % pages.len()];
            for hour in 0..TEST_HOURS_4B {
                if hour == 0 || corpus.changed(id, hour - 1, hour) {
                    enqueued += samples[(k % pages.len()) * TEST_HOURS_4B as usize + hour as usize];
                }
            }
        }
        let c = run_experiment(&Config { hours: TEST_HOURS_4B, ..Default::default() }, table);
        let (s, t) = &c.traces[0];
        assert_eq!((s.rate_bps, s.n_pages), (10_000, 100));
        assert_eq!(t.total_enqueued, enqueued);
    }
}
