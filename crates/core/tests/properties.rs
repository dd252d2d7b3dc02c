//! Property tests for the content-addressed broadcast artifact path: a
//! delta-spliced artifact (strip-level re-encode + burst-level audio
//! splice against a cached basis) must be bit-identical to a cold full
//! re-encode of the mutated raster, for any raster and any set of column
//! mutations.

use proptest::prelude::*;
use sonic_core::chunker::page_to_frames;
use sonic_core::frame::Frame;
use sonic_core::link;
use sonic_core::page::SimplifiedPage;
use sonic_core::server::cache::ArtifactCache;
use sonic_core::server::pipeline::{refresh_page, CarouselSlot};
use sonic_core::server::render::RenderedContent;
use sonic_image::clickmap::ClickMap;
use sonic_image::raster::{Raster, Rgb};
use sonic_image::strip;
use sonic_modem::profile::Profile;
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

fn assert_audio_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "audio length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "sample {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full warm path — [`strip::encode_delta`] against the previous
    /// strips, [`SimplifiedPage::from_parts`], re-chunk, and
    /// [`link::modulate_spliced`] against the previous audio + burst table —
    /// produces frames and audio bit-identical to building the mutated
    /// raster cold, across random rasters and random column mutations
    /// (including the empty mutation set).
    #[test]
    fn delta_spliced_artifact_matches_cold_rebuild(
        w in 8usize..40,
        h in 16usize..96,
        seed in any::<u32>(),
        edits in proptest::collection::vec(
            (0usize..64, 0usize..64, any::<u8>()), 0..6),
    ) {
        let profile = Profile::sonic_10k();
        let (url, version, ttl) = ("https://prop.pk/", 7u16, 6u16);
        let base = raster_from_seed(w, h, seed);
        let mut mutated = base.clone();
        mutate_columns(&mut mutated, &edits);

        // Basis artifact (the "previous hour" in the cache).
        let (strips0, hashes0) = strip::encode_with_hashes(&base);
        let page0 = SimplifiedPage::from_parts(
            url, strips0, ClickMap::default(), version, ttl);
        let frames0 = page_to_frames(&page0);
        let (audio0, table0) = link::modulate_with_table(&profile, &frames0);

        // Warm path: strip delta + burst splice against the basis.
        let d = strip::encode_delta(&mutated, &page0.strips, &hashes0);
        prop_assert_eq!(d.reused + d.reencoded, w, "one verdict per column");
        let page1 = SimplifiedPage::from_parts(
            url, d.strips, ClickMap::default(), version, ttl);
        let frames1 = page_to_frames(&page1);
        let spliced = link::modulate_spliced(&profile, &frames1, &audio0, &table0);

        // Cold path: full re-encode of the mutated raster.
        let cold = SimplifiedPage::from_raster(
            url, &mutated, ClickMap::default(), version, ttl);
        let frames_cold = page_to_frames(&cold);
        let audio_cold = link::modulate(&profile, &frames_cold);

        prop_assert_eq!(&page1.strips.strips, &cold.strips.strips);
        prop_assert_eq!(page1.page_id, cold.page_id);
        prop_assert_eq!(&frames1, &frames_cold);
        assert_audio_bits_eq(&spliced.audio, &audio_cold);

        // The splice's own table must describe the new audio exactly: a
        // second splice against it with zero changes reuses every burst.
        let again = link::modulate_spliced(
            &profile, &frames1, &spliced.audio, &spliced.table);
        prop_assert_eq!(again.modulated, 0, "identical frames: all bursts reused");
        assert_audio_bits_eq(&again.audio, &audio_cold);

        // No mutations ⇒ everything is reused outright.
        if edits.is_empty() {
            prop_assert_eq!(d.reencoded, 0);
            prop_assert_eq!(spliced.modulated, 0);
        }
    }

    /// The incremental carousel's delta slot is a bit-exact subset of a
    /// cold full rebuild: the cached artifact (next revolution's delta
    /// basis and the repair source) matches the cold artifact frame-for-
    /// frame and sample-for-sample, the slot's frames are exactly the cold
    /// sequence filtered to the meta bracket plus changed columns, and the
    /// slot's audio equals a direct modulation of those frames. A
    /// frames-only refresh of the same two hours gives the same slot kind
    /// and frames, and no audio.
    #[test]
    fn carousel_delta_slot_matches_cold_rebuild(
        w in 8usize..32,
        h in 16usize..64,
        seed in any::<u32>(),
        edits in proptest::collection::vec(
            (0usize..64, 0usize..64, any::<u8>()), 0..5),
    ) {
        let profile = Profile::sonic_10k();
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
        let item0 = refresh_page(
            &mut warm, id, 0xA0, 0, Some(&profile), || content(&base));
        prop_assert!(matches!(item0.slot, CarouselSlot::Full));
        let item1 = refresh_page(
            &mut warm, id, 0xA1, 1, Some(&profile), || content(&mutated));

        // Cold: the mutated content built with no prior state.
        let mut cold_cache = ArtifactCache::unbounded();
        let cold = refresh_page(
            &mut cold_cache, id, 0xA1, 1, Some(&profile), || content(&mutated));
        prop_assert!(matches!(cold.slot, CarouselSlot::Full));

        // Frames-only: the same two hours with no profile.
        let mut silent = ArtifactCache::unbounded();
        let _ = refresh_page(&mut silent, id, 0xA0, 0, None, || content(&base));
        let silent1 = refresh_page(&mut silent, id, 0xA1, 1, None, || content(&mutated));
        prop_assert_eq!(&*silent1.artifact.frames, &*item1.artifact.frames);
        prop_assert!(!silent1.artifact.has_audio());
        match (&silent1.slot, &item1.slot) {
            (CarouselSlot::Unchanged, CarouselSlot::Unchanged) => {}
            (
                CarouselSlot::Delta { frames: sf, audio: sa, changed_columns: sc },
                CarouselSlot::Delta { frames, changed_columns, .. },
            ) => {
                prop_assert_eq!(&**sf, &**frames);
                prop_assert_eq!(sc, changed_columns);
                prop_assert!(sa.is_empty(), "no profile, no slot audio");
            }
            (s, a) => prop_assert!(false, "frames-only slot {s:?} vs audio slot {a:?}"),
        }

        let changed = strip::diff_columns(
            &strip::column_hashes(&base), &strip::column_hashes(&mutated));

        match &item1.slot {
            CarouselSlot::Unchanged => {
                // Only legitimate when no column actually changed; the
                // cached artifact already equals the cold build bit for bit.
                prop_assert!(changed.is_empty());
                prop_assert_eq!(&*item1.artifact.frames, &*cold.artifact.frames);
                assert_audio_bits_eq(&item1.artifact.audio, &cold.artifact.audio);
            }
            CarouselSlot::Delta { frames, audio, changed_columns } => {
                prop_assert_eq!(*changed_columns, changed.len());
                // The cached artifact — what next hour splices against and
                // what repair requests serve — matches the cold build.
                prop_assert_eq!(&*item1.artifact.frames, &*cold.artifact.frames);
                assert_audio_bits_eq(&item1.artifact.audio, &cold.artifact.audio);
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
                // And the slot's audio is a pure modulation of them.
                let direct = link::modulate(&profile, frames);
                assert_audio_bits_eq(audio, &direct);
            }
            CarouselSlot::Full => prop_assert!(false, "a delta basis existed"),
        }
    }
}
