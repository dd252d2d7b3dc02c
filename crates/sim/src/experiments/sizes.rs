//! Shared size measurement: corpus page → SWP ("WebP") bytes.
//!
//! Pages are rendered at a reduced scale and the encoded size extrapolated
//! to full scale with a measured calibration factor (a handful of pages are
//! rendered at both scales and compared). Experiments report the factor so
//! the extrapolation is auditable.

use crate::broadcast::CachedSizes;
use sonic_image::codec;
use sonic_pagegen::{Corpus, PageId};
use std::collections::BTreeMap;

/// Quality/crop configuration matching the paper's (Q, PH) axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeConfig {
    /// WebP-style quality (0–95).
    pub quality: u8,
    /// Pixel-height crop at full scale (None = full page).
    pub pixel_height: Option<usize>,
}

impl SizeConfig {
    /// The paper's operating point: Q=10, PH=10k.
    pub fn paper_default() -> Self {
        SizeConfig {
            quality: 10,
            pixel_height: Some(10_000),
        }
    }
}

/// Measures one page version's encoded size at `scale`, in bytes (scaled
/// resolution — not yet extrapolated).
pub fn measure_scaled(corpus: &Corpus, id: PageId, hour: u64, scale: f64, cfg: SizeConfig) -> f64 {
    let rendered = corpus.render(id, hour, scale);
    let raster = match cfg.pixel_height {
        Some(ph) => rendered.raster.crop_height(((ph as f64) * scale) as usize),
        None => rendered.raster,
    };
    codec::encode(&raster, cfg.quality).len() as f64
}

/// Measures the full-scale/naive-extrapolation calibration factor on
/// `n_samples` pages: `factor = full_bytes / (scaled_bytes / scale²)`.
pub fn calibration_factor(corpus: &Corpus, scale: f64, cfg: SizeConfig, n_samples: usize) -> f64 {
    if (scale - 1.0).abs() < 1e-9 {
        return 1.0;
    }
    let pages = corpus.pages();
    let mut ratio_sum = 0.0;
    let mut n = 0usize;
    for id in pages.into_iter().take(n_samples) {
        let full = measure_scaled(corpus, id, 0, 1.0, cfg);
        let scaled = measure_scaled(corpus, id, 0, scale, cfg);
        let naive = scaled / (scale * scale);
        if naive > 0.0 {
            ratio_sum += full / naive;
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        ratio_sum / n as f64
    }
}

/// Builds a full-scale-equivalent size cache for the backlog simulation:
/// each page's size is measured once per content version (sizes repeat
/// until the page changes).
pub fn sizes_from_corpus(
    corpus: &Corpus,
    pages: &[PageId],
    hours: u64,
    scale: f64,
    cfg: SizeConfig,
    calibration: f64,
) -> CachedSizes {
    let mut map = BTreeMap::new();
    let extrapolate = calibration / (scale * scale);
    let mut total = 0.0f64;
    let mut count = 0usize;
    for &id in pages {
        let mut last_bytes = 0.0f64;
        for hour in 0..hours {
            let fresh = hour == 0 || corpus.changed(id, hour - 1, hour);
            if fresh {
                last_bytes = measure_scaled(corpus, id, hour, scale, cfg) * extrapolate;
                total += last_bytes;
                count += 1;
            }
            map.insert((id.site, id.page, hour), last_bytes);
        }
    }
    let default_bytes = if count > 0 { total / count as f64 } else { 150_000.0 };
    CachedSizes {
        map,
        default_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_orders_sizes() {
        let c = Corpus::small(2);
        let id = PageId { site: 0, page: 1 };
        let q10 = measure_scaled(
            &c,
            id,
            0,
            0.15,
            SizeConfig {
                quality: 10,
                pixel_height: None,
            },
        );
        let q90 = measure_scaled(
            &c,
            id,
            0,
            0.15,
            SizeConfig {
                quality: 90,
                pixel_height: None,
            },
        );
        assert!(q90 > q10 * 1.5, "q10 {q10} q90 {q90}");
    }

    #[test]
    fn crop_reduces_size_for_tall_pages() {
        let c = Corpus::small(1); // rank 1 = news, tall landing page
        let id = PageId { site: 0, page: 0 };
        let full = measure_scaled(
            &c,
            id,
            0,
            0.15,
            SizeConfig {
                quality: 10,
                pixel_height: None,
            },
        );
        let cropped = measure_scaled(
            &c,
            id,
            0,
            0.15,
            SizeConfig {
                quality: 10,
                pixel_height: Some(5_000),
            },
        );
        assert!(cropped < full, "cropped {cropped} full {full}");
    }

    #[test]
    fn size_cache_repeats_until_change() {
        let c = Corpus::small(3);
        let pages = [PageId { site: 2, page: 0 }];
        let sizes = sizes_from_corpus(&c, &pages, 4, 0.1, SizeConfig::paper_default(), 1.0);
        let b0 = sizes.bytes(pages[0], 0);
        assert!(b0 > 0.0);
        for h in 1..4 {
            let b = sizes.bytes(pages[0], h);
            if !c.changed(pages[0], h - 1, h) {
                assert_eq!(b, sizes.bytes(pages[0], h - 1), "hour {h}");
            }
            assert!(b > 0.0);
        }
    }

    #[test]
    fn calibration_factor_is_near_unity() {
        // Naive area extrapolation should be within ~3x of truth; the factor
        // corrects the residual.
        let c = Corpus::small(2);
        let f = calibration_factor(&c, 0.25, SizeConfig::paper_default(), 1);
        assert!(f > 0.2 && f < 5.0, "factor {f}");
    }
}
