//! Golden digests of what the server's hourly refresh produces.
//!
//! A three-hour day over `Corpus::small(2)` at scale 0.05, starting at hour
//! 6 (the corpus freezes overnight): every page-hour's carousel slot and
//! cached artifact is pinned as FNV-64 digests of `Frame::encode` bytes and
//! `f32::to_bits` words, so a refactor of the refresh path that moves one
//! frame byte or one audio ulp — or classifies a page differently — fails
//! here. The digests were taken while the audio refresh and the carousel
//! refresh were still two functions that produced the same artifacts — the
//! fact that let them become one. The audio columns were re-pinned once,
//! when the transmitter moved to the receiver's FFT and oscillator; the
//! kind, changed-column and frame columns have not been edited since.

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
    ('F', 0, 0x19bd_a41c_4c66_2f68, 0xfdaf_79c9_35ea_a23a, 0x19bd_a41c_4c66_2f68, 0xfdaf_79c9_35ea_a23a),
    ('F', 0, 0x6535_ca48_e96d_03bc, 0x133e_9173_8ee2_9e36, 0x6535_ca48_e96d_03bc, 0x133e_9173_8ee2_9e36),
    ('F', 0, 0x1904_cc83_01bc_2a49, 0x09f7_a80c_da65_e6cc, 0x1904_cc83_01bc_2a49, 0x09f7_a80c_da65_e6cc),
    ('F', 0, 0xf656_8005_b1c2_a4e9, 0x4f68_868c_a5cb_3e78, 0xf656_8005_b1c2_a4e9, 0x4f68_868c_a5cb_3e78),
    ('F', 0, 0xc36f_0ef6_051f_b4c8, 0x3d34_2a43_9814_629b, 0xc36f_0ef6_051f_b4c8, 0x3d34_2a43_9814_629b),
    ('F', 0, 0x3b91_2e5a_b031_fda3, 0xdc6c_948d_e3bb_faf2, 0x3b91_2e5a_b031_fda3, 0xdc6c_948d_e3bb_faf2),
    ('F', 0, 0xe5bc_6075_d1b6_63af, 0xea03_5ed7_390c_9f48, 0xe5bc_6075_d1b6_63af, 0xea03_5ed7_390c_9f48),
    ('F', 0, 0x788b_6307_854f_8c45, 0xed3e_fcf0_6334_6bed, 0x788b_6307_854f_8c45, 0xed3e_fcf0_6334_6bed),
    ('D', 54, 0xbbd6_ef99_2598_b465, 0x52bf_53e7_9fda_e05a, 0xbbd6_ef99_2598_b465, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x6535_ca48_e96d_03bc, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x1904_cc83_01bc_2a49, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0xf656_8005_b1c2_a4e9, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0xc940_7034_801b_3be1, 0x9f9e_2e10_2419_b0e2, 0xc940_7034_801b_3be1, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x3b91_2e5a_b031_fda3, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0xe5bc_6075_d1b6_63af, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x788b_6307_854f_8c45, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0xb736_9f69_33b8_f566, 0xe1f4_d79d_9d30_167a, 0xb736_9f69_33b8_f566, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0x40e4_3366_bcb5_b9b9, 0xe578_ed01_ec77_ba8f, 0x40e4_3366_bcb5_b9b9, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0x1904_cc83_01bc_2a49, 0xcbf2_9ce4_8422_2325),
    ('U', 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325, 0xf656_8005_b1c2_a4e9, 0xcbf2_9ce4_8422_2325),
    ('D', 54, 0x0adb_cad7_a910_0a6c, 0xa4ca_6b97_51e9_1b57, 0x0adb_cad7_a910_0a6c, 0xcbf2_9ce4_8422_2325),
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
