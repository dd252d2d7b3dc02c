//! Property tests for the content-addressed broadcast artifact path: a
//! delta-built artifact (strip-level re-encode against a cached basis)
//! must be bit-identical to a cold full re-encode of the mutated raster,
//! for any raster and any set of column mutations.

use proptest::prelude::*;
use sonic_core::chunker::page_to_frames;
use sonic_core::frame::Frame;
use sonic_core::page::SimplifiedPage;
use sonic_core::server::cache::ArtifactCache;
use sonic_core::server::pipeline::{refresh_page, CarouselSlot};
use sonic_core::server::render::RenderedContent;
use sonic_image::clickmap::ClickMap;
use sonic_image::raster::{Raster, Rgb};
use sonic_image::strip;
use sonic_pagegen::PageId;

/// Deterministic noisy raster (LCG fill) so failures reproduce from the
/// proptest seed alone.
fn raster_from_seed(w: usize, h: usize, seed: u32) -> Raster {
    let mut img = Raster::new(w, h);
    let mut s = seed | 1;
    for y in 0..h {
        for x in 0..w {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = (s >> 24) as u8;
            img.set(x, y, Rgb::new(v, v.wrapping_add(90), v ^ 0x3C));
        }
    }
    img
}

/// Applies strip-level mutations: for each (column, row, delta) entry,
/// perturbs one pixel in that column. Duplicate columns are fine.
fn mutate_columns(img: &mut Raster, edits: &[(usize, usize, u8)]) {
    let (w, h) = (img.width(), img.height());
    for &(c, r, d) in edits {
        let (x, y) = (c % w, r % h);
        let p = img.get(x, y);
        // Guaranteed change: flip at least one channel bit.
        img.set(x, y, Rgb::new(p.r ^ (d | 1), p.g.wrapping_add(d), p.b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The warm path — [`strip::encode_delta_prehashed`] against the previous strips,
    /// [`SimplifiedPage::from_parts`], re-chunk — produces strips, page id
    /// and frames identical to building the mutated raster cold, across
    /// random rasters and random column mutations (including the empty
    /// mutation set).
    #[test]
    fn delta_encoded_page_matches_cold_rebuild(
        w in 8usize..40,
        h in 16usize..96,
        seed in any::<u32>(),
        edits in proptest::collection::vec(
            (0usize..64, 0usize..64, any::<u8>()), 0..6),
    ) {
        let (url, version, ttl) = ("https://prop.pk/", 7u16, 6u16);
        let base = raster_from_seed(w, h, seed);
        let mut mutated = base.clone();
        mutate_columns(&mut mutated, &edits);

        // Basis page (the "previous hour" in the cache).
        let (strips0, hashes0) = (strip::encode(&base), strip::column_hashes(&base));
        let page0 = SimplifiedPage::from_parts(
            url, strips0, ClickMap::default(), version, ttl);

        // Warm path: strip delta against the basis.
        let d = strip::encode_delta_prehashed(
            &mutated, &page0.strips, &hashes0, strip::column_hashes(&mutated));
        prop_assert_eq!(d.reused + d.reencoded, w, "one verdict per column");
        let page1 = SimplifiedPage::from_parts(
            url, d.strips, ClickMap::default(), version, ttl);

        // Cold path: full re-encode of the mutated raster.
        let cold = SimplifiedPage::from_raster(
            url, &mutated, ClickMap::default(), version, ttl);

        prop_assert_eq!(&page1.strips.strips, &cold.strips.strips);
        prop_assert_eq!(page1.page_id, cold.page_id);
        prop_assert_eq!(page_to_frames(&page1), page_to_frames(&cold));

        // No mutations ⇒ everything is reused outright.
        if edits.is_empty() {
            prop_assert_eq!(d.reencoded, 0);
        }
    }

    /// The incremental carousel's delta slot is a bit-exact subset of a
    /// cold full rebuild: the cached artifact (next revolution's delta
    /// basis and the repair source) matches the cold artifact frame for
    /// frame, and the slot's frames are exactly the cold sequence filtered
    /// to the meta bracket plus changed columns. The ladder makes no audio.
    #[test]
    fn carousel_delta_slot_matches_cold_rebuild(
        w in 8usize..32,
        h in 16usize..64,
        seed in any::<u32>(),
        edits in proptest::collection::vec(
            (0usize..64, 0usize..64, any::<u8>()), 0..5),
    ) {
        let id = PageId { site: 3, page: 1 };
        let base = raster_from_seed(w, h, seed);
        let mut mutated = base.clone();
        mutate_columns(&mut mutated, &edits);
        // Same version/ttl both hours: the content (not the clock) is what
        // changes, so an empty edit set legitimately airs nothing.
        let content = |raster: &Raster| RenderedContent {
            url: "https://prop.pk/carousel".into(),
            raster: raster.clone(),
            clickmap: ClickMap::default(),
            version: 9,
            ttl_hours: 6,
        };

        // Warm: prime at hour 0, then the mutated revolution at hour 1.
        let mut warm = ArtifactCache::unbounded();
        let item0 = refresh_page(&mut warm, id, 0xA0, 0, || content(&base));
        prop_assert!(matches!(item0.slot, CarouselSlot::Full));
        let item1 = refresh_page(&mut warm, id, 0xA1, 1, || content(&mutated));

        // Cold: the mutated content built with no prior state.
        let mut cold_cache = ArtifactCache::unbounded();
        let cold = refresh_page(&mut cold_cache, id, 0xA1, 1, || content(&mutated));
        prop_assert!(matches!(cold.slot, CarouselSlot::Full));

        let changed = strip::diff_columns(
            &strip::column_hashes(&base), &strip::column_hashes(&mutated));

        // The cached artifact — next hour's basis and what repair requests
        // serve — matches the cold build whichever way the page rode.
        prop_assert_eq!(&*item1.artifact.frames, &*cold.artifact.frames);
        prop_assert!(item1.artifact.audio.is_empty() && cold.artifact.audio.is_empty());
        match &item1.slot {
            // Only legitimate when no column actually changed.
            CarouselSlot::Unchanged => prop_assert!(changed.is_empty()),
            CarouselSlot::Delta { frames, audio, changed_columns } => {
                prop_assert_eq!(*changed_columns, changed.len());
                // The slot's frames are exactly the cold sequence filtered
                // to meta frames plus changed columns' chunks.
                let expected: Vec<Frame> = cold
                    .artifact
                    .frames
                    .iter()
                    .filter(|f| match f {
                        Frame::Meta { .. } => true,
                        Frame::Strip { column, .. } => changed.contains(column),
                    })
                    .cloned()
                    .collect();
                prop_assert_eq!(&**frames, &expected);
                prop_assert!(audio.is_empty());
            }
            CarouselSlot::Full => prop_assert!(false, "a delta basis existed"),
        }
    }
}
