//! Golden digests of what the server's hourly refresh produces.
//!
//! A three-hour day over `Corpus::small(2)` at scale 0.05, starting at hour
//! 6 (the corpus freezes overnight): every page-hour's carousel slot and
//! cached artifact is pinned as FNV-64 digests of `Frame::encode` bytes and
//! `f32::to_bits` words, so a refactor of the refresh path that moves one
//! frame byte or one audio ulp — or classifies a page differently — fails
//! here. The digests were taken while the audio refresh and the carousel
//! refresh were still two functions that produced the same artifacts — the
//! fact that let them become one — and have not been edited since.

use sonic::core::frame::Frame;
use sonic::core::server::cache::{Artifact, ArtifactCache};
use sonic::core::server::pipeline::{
    refresh_carousel, refresh_frames_only, CarouselItem, CarouselSlot, PageJob,
};
use sonic::core::server::render::Renderer;
use sonic::image::hash::Fnv64;
use sonic::modem::Profile;
use sonic::pagegen::Corpus;

const START_HOUR: u64 = 6;
const HOURS: u64 = 3;

fn digest_frames(frames: &[Frame]) -> u64 {
    let mut h = Fnv64::new();
    for f in frames {
        h.write(&f.encode());
    }
    h.finish()
}

fn digest_f32(samples: &[f32]) -> u64 {
    let mut h = Fnv64::new();
    for s in samples {
        h.write(&s.to_bits().to_le_bytes());
    }
    h.finish()
}

fn renderer() -> Renderer {
    Renderer::new(Corpus::small(2), 0.05)
}

fn jobs_at(renderer: &Renderer, hour: u64) -> Vec<PageJob> {
    renderer
        .corpus()
        .pages()
        .into_iter()
        .map(|id| PageJob { id, hour })
        .collect()
}

/// The day through the carousel refresh, one cache carried across it.
fn carousel_day(renderer: &Renderer, profile: &Profile) -> Vec<CarouselItem> {
    let mut cache = ArtifactCache::unbounded();
    (START_HOUR..START_HOUR + HOURS)
        .flat_map(|hour| refresh_carousel(renderer, &mut cache, &jobs_at(renderer, hour), profile).0)
        .collect()
}

/// The day through the frames-only refresh.
fn frames_only_day(renderer: &Renderer) -> Vec<Artifact> {
    let mut cache = ArtifactCache::unbounded();
    (START_HOUR..START_HOUR + HOURS)
        .flat_map(|hour| refresh_frames_only(renderer, &mut cache, &jobs_at(renderer, hour)))
        .collect()
}

/// One page-hour: slot kind (`U`nchanged / `D`elta / `F`ull), changed
/// columns, then the digests of the slot's frames and audio and of the
/// artifact's frames and audio. An unchanged slot airs nothing, so its slot
/// digests are those of the empty stream.
type Row = (char, usize, u64, u64, u64, u64);

fn row(item: &CarouselItem) -> Row {
    let (kind, changed, frames, audio): (char, usize, &[Frame], &[f32]) = match &item.slot {
        CarouselSlot::Unchanged => ('U', 0, &[], &[]),
        CarouselSlot::Full => ('F', 0, &item.artifact.frames, &item.artifact.audio),
        CarouselSlot::Delta {
            frames,
            audio,
            changed_columns,
        } => ('D', *changed_columns, frames, audio),
    };
    (
        kind,
        changed,
        digest_frames(frames),
        digest_f32(audio),
        digest_frames(&item.artifact.frames),
        digest_f32(&item.artifact.audio),
    )
}

/// The day's 8 pages × 3 hours, in refresh order. Hour 6 is the cold build;
/// at hours 7 and 8 the two news landing pages (and, at 8, one more) change
/// and every changed page's delta spans all 54 columns — the corpus swaps
/// full-width sections — so each delta slot is its artifact.
#[rustfmt::skip]
const GOLDEN: [Row; 24] = [
    ('F', 0, 0x19bd_a41c_4c66_2f68, 0xb8d3_2d25_07f5_12e3, 0x19bd_a41c_4c66_2f68, 0xb8d3_2d25_07f5_12e3),
    ('F', 0, 0x6535_ca48_e96d_03bc, 0x1d88_d84d_8da8_7804, 0x6535_ca48_e96d_03bc, 0x1d88_d84d_8da8_7804),
    ('F', 0, 0x1904_cc83_01bc_2a49, 0x230d_702e_f327_488f, 0x1904_cc83_01bc_2a49, 0x230d_702e_f327_488f),
    ('F', 0, 0xf656_8005_b1c2_a4e9, 0x0f8d_0eae_4d34_c9b5, 0xf656_8005_b1c2_a4e9, 0x0f8d_0eae_4d34_c9b5),
    ('F', 0, 0xc36f_0ef6_051f_b4c8, 0x5e3d_bbfd_3fae_0f15, 0xc36f_0ef6_051f_b4c8, 0x5e3d_bbfd_3fae_0f15),
    ('F', 0, 0x3b91_2e5a_b031_fda3, 0x82fd_bf0a_0555_39f4, 0x3b91_2e5a_b031_fda3, 0x82fd_bf0a_0555_39f4),
    ('F', 0, 0xe5bc_6075_d1b6_63af, 0x18e1_ca7f_0eef_994d, 0xe5bc_6075_d1b6_63af, 0x18e1_ca7f_0eef_994d),
    ('F', 0, 0x788b_6307_854f_8c45, 0x85ef_efc4_5452_7624, 0x788b_6307_854f_8c45, 0x85ef_efc4_5452_7624),
    ('D', 54, 0xbbd6_ef99_2598_b465, 0x3503_5f3d_f3be_5026, 0xbbd6_ef99_2598_b465, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x6535_ca48_e96d_03bc, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x1904_cc83_01bc_2a49, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0xf656_8005_b1c2_a4e9, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0xc940_7034_801b_3be1, 0xc0f2_64ad_6ec5_da48, 0xc940_7034_801b_3be1, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x3b91_2e5a_b031_fda3, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0xe5bc_6075_d1b6_63af, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x788b_6307_854f_8c45, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0xb736_9f69_33b8_f566, 0x759d_e2ba_631a_fec9, 0xb736_9f69_33b8_f566, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0x40e4_3366_bcb5_b9b9, 0xcd13_0874_77b7_d5ff, 0x40e4_3366_bcb5_b9b9, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x1904_cc83_01bc_2a49, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0xf656_8005_b1c2_a4e9, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0x0adb_cad7_a910_0a6c, 0x2188_cc31_7df8_69a1, 0x0adb_cad7_a910_0a6c, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x3b91_2e5a_b031_fda3, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0xe5bc_6075_d1b6_63af, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x788b_6307_854f_8c45, 0xcbf2_9ce4_8422_2325),
];

#[test]
fn carousel_day_slots_and_artifacts_are_pinned() {
    let r = renderer();
    let items = carousel_day(&r, &Profile::sonic_10k());
    assert_eq!(items.len(), GOLDEN.len());
    for (i, (item, want)) in items.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(row(item), *want, "page-hour {i} ({:?}) moved", item.id);
    }
}

#[test]
fn frames_only_day_is_pinned() {
    // The same frames as the pinned artifacts, and no audio.
    let frames_only = frames_only_day(&renderer());
    assert_eq!(frames_only.len(), GOLDEN.len());
    for (i, (a, want)) in frames_only.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(digest_frames(&a.frames), want.4, "page-hour {i}: frames-only frames moved");
        assert!(a.audio.is_empty(), "page-hour {i}: frames-only refresh made audio");
    }
}
