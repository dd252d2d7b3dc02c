//! Figure 4(b): CDF of rendered-webpage image sizes vs. quality and crop.
//!
//! "CDF of the size of images (WebP) of rendered webpages, assuming
//! variable image quality (Q) and pixel height (PH)." Paper curves:
//! (Q10, PH10k), (Q10, PH None), (Q50, PH10k), (Q90, PH10k). Claims to
//! reproduce: at Q10 most pages < 200 KB vs ~700 KB at Q90; the 10k-px crop
//! saves ~100 KB for 75 % of pages; CDF tails ≈ 2× the 90th percentile.

use super::sizes::{SizeConfig, SizeTable};
use crate::stats;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hourly snapshots (paper: 72 over three days).
    pub hours: u64,
    /// The (Q, PH) curves.
    pub configs: Vec<SizeConfig>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hours: 8,
            configs: vec![
                SizeConfig { quality: 10, pixel_height: Some(10_000) },
                SizeConfig { quality: 10, pixel_height: None },
                SizeConfig { quality: 50, pixel_height: Some(10_000) },
                SizeConfig { quality: 90, pixel_height: Some(10_000) },
            ],
        }
    }
}

/// One curve's samples (full-scale bytes).
#[derive(Debug, Clone)]
pub struct Curve {
    /// The (Q, PH) point.
    pub config: SizeConfig,
    /// One size per (page, hour) sample.
    pub sizes_bytes: Vec<f64>,
}

impl Curve {
    /// Percentile in bytes.
    pub fn percentile(&self, p: f64) -> f64 {
        stats::percentile(&self.sizes_bytes, p)
    }
}

/// Full experiment result.
#[derive(Debug)]
pub struct Fig4bResult {
    /// One curve per (Q, PH).
    pub curves: Vec<Curve>,
}

/// Reads each curve off `sizes`: one sample per corpus page per hourly
/// snapshot. The table must cover every curve over `cfg.hours`.
pub fn run_experiment(cfg: &Config, sizes: &SizeTable) -> Fig4bResult {
    let pages = sizes.corpus().pages();
    let curves = cfg
        .configs
        .iter()
        .map(|&config| Curve {
            config,
            sizes_bytes: pages
                .iter()
                .flat_map(|&id| (0..cfg.hours).map(move |hour| sizes.bytes(config, id, hour)))
                .collect(),
        })
        .collect();
    Fig4bResult { curves }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::experiments::sizes::tests::{small_table, TEST_HOURS_4B};

    /// Shape check on the one-site corpus; the bench runs the full figure.
    #[test]
    fn q_and_ph_order_the_curves() {
        let cfg = Config {
            hours: TEST_HOURS_4B,
            ..Default::default()
        };
        let res = run_experiment(&cfg, small_table());
        let median = |q: u8, ph: Option<usize>| -> f64 {
            res.curves
                .iter()
                .find(|c| c.config.quality == q && c.config.pixel_height == ph)
                .expect("curve")
                .percentile(50.0)
        };
        let q10 = median(10, Some(10_000));
        let q50 = median(50, Some(10_000));
        let q90 = median(90, Some(10_000));
        let q10_full = median(10, None);
        assert!(q10 < q50 && q50 < q90, "{q10} {q50} {q90}");
        assert!(q10_full >= q10, "crop can only shrink");
        // Paper: Q10 mostly under 200 KB, Q90 ≈ 700 KB typical. On one
        // site just require the right order of magnitude.
        assert!(q10 > 5_000.0 && q10 < 600_000.0, "q10 median {q10}");
        assert!(q90 / q10 > 2.0, "Q90/Q10 ratio {}", q90 / q10);
    }
}
