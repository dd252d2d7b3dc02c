//! Figure 4(c): broadcast backlog over time vs. rate and catalog size.
//!
//! Series: (10 kbps, N=100), (20 kbps, N=100), (40 kbps, N=100),
//! (20 kbps, N=200). Claims: 10 kbps rarely reaches zero but stays bounded;
//! 20/40 kbps drain; N=200@20 kbps ≈ N=100@10 kbps.

use super::sizes::{calibration_factor, sizes_from_corpus, SizeConfig};
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
    /// Render scale for the size measurements.
    pub scale: f64,
    /// Series to simulate.
    pub series: Vec<Series>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hours: 48,
            scale: 0.08,
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
    /// Calibration factor used for sizes.
    pub calibration: f64,
}

/// Builds the N-page catalog (N=200 duplicates the corpus, modeling a
/// second region's 100 pages sharing the frequency).
fn catalog(corpus: &Corpus, n: usize) -> Vec<PageId> {
    let base = corpus.pages();
    base.iter().cycle().take(n).copied().collect()
}

/// Runs the figure.
pub fn run_experiment(cfg: &Config) -> Fig4cResult {
    let corpus = Corpus::standard();
    let size_cfg = SizeConfig::paper_default();
    let calibration = calibration_factor(&corpus, cfg.scale, size_cfg, 3);
    let pages100 = catalog(&corpus, 100);
    let sizes = sizes_from_corpus(&corpus, &pages100, cfg.hours, cfg.scale, size_cfg, calibration);
    let inflow = mean_inflow_bps(&corpus, &pages100, &sizes, cfg.hours);

    let traces = cfg
        .series
        .iter()
        .map(|&s| {
            let pages = catalog(&corpus, s.n_pages);
            let trace = simulate(&corpus, &pages, &sizes, s.rate_bps as f64, cfg.hours);
            (s, trace)
        })
        .collect();
    Fig4cResult {
        traces,
        inflow_bps_n100: inflow,
        calibration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced-scale shape check; the bench runs the full figure.
    #[test]
    fn rates_order_the_backlog() {
        let cfg = Config {
            hours: 24,
            scale: 0.08,
            ..Default::default()
        };
        let res = run_experiment(&cfg);
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
}
