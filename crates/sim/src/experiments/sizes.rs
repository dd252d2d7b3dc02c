//! One full-scale size table: corpus page version → SWP ("WebP") bytes.
//!
//! Figures 4(b) and 4(c) read their page sizes from one [`SizeTable`]. It
//! renders every page version once at full scale and encodes it with the
//! SWP codec (`image::codec::encode`) once per (Q, PH) curve that covers
//! the hour the version appeared. A version is keyed by that hour, so an
//! hour in which the page did not change reads the previous version's
//! bytes. The build fans one job per version over `sim::pool`, so every
//! entry is the same at any worker count.

use crate::pool;
use sonic_image::codec;
use sonic_pagegen::{Corpus, PageId};
use std::collections::BTreeMap;

/// Quality/crop configuration matching the paper's (Q, PH) axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeConfig {
    /// WebP-style quality (0–95).
    pub quality: u8,
    /// Pixel-height crop (None = full page).
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

/// Every page version's SWP bytes at full scale, per (Q, PH) curve.
#[derive(Debug)]
pub struct SizeTable {
    corpus: Corpus,
    /// Each curve and the hours `0..hours` it covers.
    curves: Vec<(SizeConfig, u64)>,
    /// Per version, keyed by (page, the hour it appeared): its bytes on
    /// each curve, `None` on a curve that ends before that hour.
    versions: BTreeMap<(PageId, u64), Vec<Option<f64>>>,
}

impl SizeTable {
    /// Measures every version of every `corpus` page for each `(curve,
    /// hours)`; a curve named twice covers the longer span.
    pub fn build(corpus: Corpus, wants: &[(SizeConfig, u64)]) -> SizeTable {
        let mut curves: Vec<(SizeConfig, u64)> = Vec::new();
        for &(c, hours) in wants {
            match curves.iter_mut().find(|(have, _)| *have == c) {
                Some(curve) => curve.1 = curve.1.max(hours),
                None => curves.push((c, hours)),
            }
        }
        let span = curves.iter().map(|&(_, hours)| hours).max().unwrap_or(0);
        let fresh: Vec<(PageId, u64)> = corpus
            .pages()
            .into_iter()
            .flat_map(|id| (0..span).map(move |hour| (id, hour)))
            .filter(|&(id, hour)| hour == 0 || corpus.changed(id, hour - 1, hour))
            .collect();
        let measured = pool::run_ordered(fresh.clone(), pool::default_workers(), |(id, hour)| {
            let raster = corpus.render(id, hour, 1.0).raster;
            let mut encoded: Vec<((u8, usize), f64)> = Vec::new();
            curves
                .iter()
                .map(|&(c, hours)| {
                    (hour < hours).then(|| {
                        // A crop at or past the page's foot leaves the raster
                        // as it is, so the cropped and uncropped curves share
                        // one encode.
                        let full = raster.height();
                        let key = (c.quality, c.pixel_height.map_or(full, |ph| ph.min(full)));
                        if let Some(&(_, b)) = encoded.iter().find(|(k, _)| *k == key) {
                            return b;
                        }
                        let b = codec::encode(&raster.crop_height(key.1), key.0).len() as f64;
                        encoded.push((key, b));
                        b
                    })
                })
                .collect()
        });
        SizeTable {
            corpus,
            curves,
            versions: fresh.into_iter().zip(measured).collect(),
        }
    }

    /// The corpus the table measures.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// SWP bytes of page `id` at `hour` on `curve`: the version live then.
    ///
    /// # Panics
    /// If the table was not built for `curve` over `hour`.
    pub fn bytes(&self, curve: SizeConfig, id: PageId, hour: u64) -> f64 {
        let k = self
            .curves
            .iter()
            .position(|&(c, hours)| c == curve && hour < hours)
            .expect("the table covers this curve at this hour");
        let (_, sizes) = self
            .versions
            .range((id, 0)..=(id, hour))
            .next_back()
            .expect("every page has a version at hour 0");
        sizes[k].expect("a version is encoded on every curve that covers its hour")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Fig 4(b)'s four curves over [`TEST_HOURS_4B`] and the paper's
    /// operating point over [`TEST_HOURS_4C`], on the one-site corpus;
    /// built once for every test of the table and both figures.
    pub(crate) fn small_table() -> &'static SizeTable {
        static TABLE: OnceLock<SizeTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            let fig4b = crate::experiments::fig4b::Config::default().configs;
            let mut wants: Vec<_> = fig4b.into_iter().map(|c| (c, TEST_HOURS_4B)).collect();
            wants.push((SizeConfig::paper_default(), TEST_HOURS_4C));
            SizeTable::build(Corpus::small(1), &wants)
        })
    }
    pub(crate) const TEST_HOURS_4B: u64 = 2;
    pub(crate) const TEST_HOURS_4C: u64 = 24;

    #[test]
    fn entry_is_a_full_scale_render_cropped_and_encoded() {
        let t = small_table();
        let cropped_q10 = SizeConfig::paper_default();
        let uncropped = SizeConfig { quality: 10, pixel_height: None };
        for id in t.corpus().pages() {
            let fresh = |&h: &u64| h == 0 || t.corpus().changed(id, h - 1, h);
            for hour in (0..TEST_HOURS_4B).filter(fresh) {
                let raster = t.corpus().render(id, hour, 1.0).raster;
                let cropped = codec::encode(&raster.crop_height(10_000), 10).len() as f64;
                assert_eq!(t.bytes(cropped_q10, id, hour), cropped, "{id:?} h{hour}");
                let whole = codec::encode(&raster, 10).len() as f64;
                assert_eq!(t.bytes(uncropped, id, hour), whole, "{id:?} h{hour}");
            }
        }
    }

    #[test]
    fn quality_and_crop_order_the_sizes() {
        let t = small_table();
        let uncropped = SizeConfig { quality: 10, pixel_height: None };
        let q90 = SizeConfig { quality: 90, pixel_height: Some(10_000) };
        let mut crop_binds = false;
        for id in t.corpus().pages() {
            let q10 = t.bytes(SizeConfig::paper_default(), id, 0);
            assert!(t.bytes(q90, id, 0) > q10 * 1.5, "{id:?}");
            assert!(t.bytes(uncropped, id, 0) >= q10, "{id:?}");
            crop_binds |= t.bytes(uncropped, id, 0) > q10;
        }
        assert!(crop_binds, "some page is taller than the crop");
    }

    #[test]
    fn unchanged_hours_carry_the_version() {
        let t = small_table();
        let c = SizeConfig::paper_default();
        let mut carried = 0;
        for id in t.corpus().pages() {
            assert!(t.bytes(c, id, 0) > 0.0);
            for h in 1..TEST_HOURS_4C {
                if !t.corpus().changed(id, h - 1, h) {
                    assert_eq!(t.bytes(c, id, h), t.bytes(c, id, h - 1), "{id:?} hour {h}");
                    carried += 1;
                }
            }
        }
        assert!(carried > 0, "some hour leaves a page unchanged");
    }

    #[test]
    #[should_panic(expected = "covers this curve")]
    fn an_hour_past_the_curve_is_refused() {
        let q90 = SizeConfig { quality: 90, pixel_height: Some(10_000) };
        small_table().bytes(q90, PageId { site: 0, page: 0 }, TEST_HOURS_4B);
    }
}
