//! The disk tier under the refresh ladder: invisible to what a refresh
//! returns, and read at most once per page.

use sonic_core::chunker::page_to_frames;
use sonic_core::link;
use sonic_core::server::cache::{share_store, ArtifactCache, ArtifactTier, TieredCache};
use sonic_core::server::pipeline::{
    refresh_carousel, refresh_frames_only, CarouselItem, CarouselSlot, PageJob,
};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_modem::profile::Profile;
use sonic_pagegen::Corpus;
use std::path::{Path, PathBuf};

/// Self-cleaning test directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("sonic-tiers-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_tier(dir: &Path) -> TieredCache {
    let store = share_store(ArtifactStore::open(dir, u64::MAX).expect("store io"));
    TieredCache::with_store(ArtifactCache::unbounded(), store)
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

fn assert_audio_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "audio length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "sample {i}");
    }
}

fn assert_items_identical(a: &[CarouselItem], b: &[CarouselItem], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}");
        assert_eq!(*x.artifact.frames, *y.artifact.frames, "{what}: {:?}", x.id);
        assert_audio_bits_eq(&x.artifact.audio, &y.artifact.audio);
        match (&x.slot, &y.slot) {
            (CarouselSlot::Unchanged, CarouselSlot::Unchanged)
            | (CarouselSlot::Full, CarouselSlot::Full) => {}
            (
                CarouselSlot::Delta { frames: xf, audio: xa, changed_columns: xc },
                CarouselSlot::Delta { frames: yf, audio: ya, changed_columns: yc },
            ) => {
                assert_eq!(xc, yc, "{what}: {:?}", x.id);
                assert_eq!(**xf, **yf, "{what}: {:?}", x.id);
                assert_audio_bits_eq(xa, ya);
            }
            (s, t) => panic!("{what}: {:?} rides as {s:?} vs {t:?}", x.id),
        }
    }
}

/// A three-hour day (from hour 6: the corpus freezes overnight) through a
/// cache tier that `reopen` may replace before every hour.
fn day<T: ArtifactTier>(mut tier: T, reopen: impl Fn(T) -> T) -> Vec<CarouselItem> {
    let r = renderer();
    let profile = Profile::sonic_10k();
    let mut items = Vec::new();
    for hour in 6..9 {
        tier = reopen(tier);
        items.extend(refresh_carousel(&r, &mut tier, &jobs_at(&r, hour), &profile).0);
    }
    items
}

#[test]
fn disk_tier_is_invisible_to_the_result() {
    let bare_ram = day(ArtifactCache::unbounded(), |t| t);
    assert!(bare_ram
        .iter()
        .any(|i| matches!(i.slot, CarouselSlot::Delta { .. })));
    assert!(bare_ram[8..]
        .iter()
        .any(|i| matches!(i.slot, CarouselSlot::Unchanged)));

    let over_empty_store = TempDir::new("empty");
    let tiered = day(open_tier(&over_empty_store.0), |t| t);
    assert_items_identical(&bare_ram, &tiered, "RAM over an empty store");

    // Every hour starts from the files alone: unchanged pages and delta
    // bases both come back by promotion.
    let restarted_hourly = TempDir::new("reopen");
    let reopened = day(open_tier(&restarted_hourly.0), |t| {
        drop(t);
        open_tier(&restarted_hourly.0)
    });
    assert_items_identical(&bare_ram, &reopened, "store reopened before every hour");
}

#[test]
fn audio_refresh_over_a_frames_only_store_loads_each_page_once() {
    let r = renderer();
    let profile = Profile::sonic_10k();
    let jobs = jobs_at(&r, 6);
    let dir = TempDir::new("frames-only");
    let _ = refresh_frames_only(&r, &mut open_tier(&dir.0), &jobs);

    // Fresh RAM, same hour, audio wanted: the stored entry matches on the
    // first rung but has no audio, so it is refused there and again on the
    // raster rung, then serves as the delta basis — one load for all three.
    let mut tier = open_tier(&dir.0);
    let (items, stats) = refresh_carousel(&r, &mut tier, &jobs, &profile);
    assert_eq!(tier.ram.stats.disk_promotions, jobs.len() as u64);
    assert_eq!(stats.unchanged, 0, "a frames-only entry never answers an audio refresh");
    assert_eq!(tier.ram.stats.misses, 0, "the stored strips are the delta basis");
    for (item, job) in items.iter().zip(&jobs) {
        let frames = page_to_frames(&r.render(job.id, job.hour).into_page());
        assert_eq!(*item.artifact.frames, frames);
        assert_audio_bits_eq(&item.artifact.audio, &link::modulate(&profile, &frames));
    }
}
