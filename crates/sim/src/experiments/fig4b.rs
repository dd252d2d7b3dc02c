//! Figure 4(b): CDF of rendered-webpage image sizes vs. quality and crop.
//!
//! "CDF of the size of images (WebP) of rendered webpages, assuming
//! variable image quality (Q) and pixel height (PH)." Paper curves:
//! (Q10, PH10k), (Q10, PH None), (Q50, PH10k), (Q90, PH10k). Claims to
//! reproduce: at Q10 most pages < 200 KB vs ~700 KB at Q90; the 10k-px crop
//! saves ~100 KB for 75 % of pages; CDF tails ≈ 2× the 90th percentile.

use super::sizes::{calibration_factor, measure_scaled, SizeConfig};
use crate::{pool, stats};
use sonic_pagegen::Corpus;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Render scale (sizes are extrapolated to full scale).
    pub scale: f64,
    /// Hourly snapshots (paper: 72 over three days).
    pub hours: u64,
    /// The (Q, PH) curves.
    pub configs: Vec<SizeConfig>,
    /// Pages used to measure the calibration factor.
    pub calibration_samples: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: super::env_or("SONIC_FIG4B_SCALE", 0.12),
            hours: super::env_or("SONIC_FIG4B_HOURS", 8),
            configs: vec![
                SizeConfig { quality: 10, pixel_height: Some(10_000) },
                SizeConfig { quality: 10, pixel_height: None },
                SizeConfig { quality: 50, pixel_height: Some(10_000) },
                SizeConfig { quality: 90, pixel_height: Some(10_000) },
            ],
            calibration_samples: 3,
        }
    }
}

/// One curve's samples (full-scale-equivalent bytes).
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
    /// The measured extrapolation calibration factor.
    pub calibration: f64,
    /// Render scale used.
    pub scale: f64,
}

/// Runs the figure over the standard corpus.
pub fn run_experiment(cfg: &Config) -> Fig4bResult {
    let corpus = Corpus::standard();
    let base = SizeConfig::paper_default();
    let calibration = calibration_factor(&corpus, cfg.scale, base, cfg.calibration_samples);
    let extrapolate = calibration / (cfg.scale * cfg.scale);
    let mut curves: Vec<Curve> = cfg
        .configs
        .iter()
        .map(|&c| Curve {
            config: c,
            sizes_bytes: Vec::new(),
        })
        .collect();

    // One job per page (renders dominate): its sizes per config, hour by hour.
    let per_page = pool::run_ordered(corpus.pages(), pool::default_workers(), |id| {
        let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); cfg.configs.len()];
        for hour in 0..cfg.hours {
            // Only measure fresh versions; carry sizes across
            // unchanged hours like the paper's hourly snapshots.
            let fresh = hour == 0 || corpus.changed(id, hour - 1, hour);
            for (k, &sc) in cfg.configs.iter().enumerate() {
                if fresh {
                    let b = measure_scaled(&corpus, id, hour, cfg.scale, sc) * extrapolate;
                    per_cfg[k].push(b);
                } else if let Some(&prev) = per_cfg[k].last() {
                    per_cfg[k].push(prev);
                }
            }
        }
        per_cfg
    });
    for per_cfg in per_page {
        for (k, sizes) in per_cfg.into_iter().enumerate() {
            curves[k].sizes_bytes.extend(sizes);
        }
    }

    Fig4bResult {
        curves,
        calibration,
        scale: cfg.scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced-scale shape check; the bench runs the full figure.
    #[test]
    fn q_and_ph_order_the_curves() {
        let cfg = Config {
            scale: 0.1,
            hours: 2,
            calibration_samples: 1,
            ..Default::default()
        };
        let res = run_experiment(&cfg);
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
        // Paper: Q10 mostly under 200 KB, Q90 ≈ 700 KB typical. At this
        // tiny scale just require the right order of magnitude.
        assert!(q10 > 5_000.0 && q10 < 600_000.0, "q10 median {q10}");
        assert!(q90 / q10 > 2.0, "Q90/Q10 ratio {}", q90 / q10);
    }
}
