//! The tiers under the refresh ladder: the disk tier is invisible to what a
//! refresh returns, and neither tier ever holds audio.

use sonic_core::frame::FRAME_SIZE;
use sonic_core::link;
use sonic_core::server::cache::{share_store, ArtifactCache, SharedArtifactStore};
use sonic_core::server::pipeline::{refresh_carousel, CarouselItem, CarouselSlot, PageJob};
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

fn open_store(dir: &Path) -> SharedArtifactStore {
    share_store(ArtifactStore::open(dir, u64::MAX).expect("store io"))
}

fn open_tier(dir: &Path) -> ArtifactCache {
    ArtifactCache::with_store(ArtifactCache::unbounded(), open_store(dir))
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
/// cache that `reopen` may replace before every hour. Returns the day's
/// items and the cache as the last hour left it.
fn day(
    mut tier: ArtifactCache,
    reopen: impl Fn(ArtifactCache) -> ArtifactCache,
) -> (Vec<CarouselItem>, ArtifactCache) {
    let r = renderer();
    let profile = Profile::sonic_10k();
    let mut items = Vec::new();
    for hour in 6..9 {
        tier = reopen(tier);
        items.extend(refresh_carousel(&r, &mut tier, &jobs_at(&r, hour), &profile).0);
    }
    (items, tier)
}

#[test]
fn disk_tier_is_invisible_to_the_result() {
    let (bare_ram, _) = day(ArtifactCache::unbounded(), |t| t);
    assert!(bare_ram
        .iter()
        .any(|i| matches!(i.slot, CarouselSlot::Delta { .. })));
    assert!(bare_ram[8..]
        .iter()
        .any(|i| matches!(i.slot, CarouselSlot::Unchanged)));

    let over_empty_store = TempDir::new("empty");
    let (tiered, _) = day(open_tier(&over_empty_store.0), |t| t);
    assert_items_identical(&bare_ram, &tiered, "RAM over an empty store");

    // Every hour starts from the files alone: unchanged pages and delta
    // bases both come back by promotion.
    let restarted_hourly = TempDir::new("reopen");
    let (reopened, _) = day(open_tier(&restarted_hourly.0), |t| {
        drop(t);
        open_tier(&restarted_hourly.0)
    });
    assert_items_identical(&bare_ram, &reopened, "store reopened before every hour");
}

#[test]
fn no_tier_holds_audio_and_every_aired_slot_is_its_frames_modulated() {
    let r = renderer();
    let profile = Profile::sonic_10k();
    let dir = TempDir::new("no-audio");
    let store = open_store(&dir.0);
    let tier = ArtifactCache::with_store(ArtifactCache::unbounded(), store.clone());
    let (items, tier) = day(tier, |t| t);

    // What aired is `link::modulate` of the slot's frames, on the item the
    // caller got and nowhere else.
    for item in &items {
        match &item.slot {
            CarouselSlot::Unchanged => assert!(item.artifact.audio.is_empty()),
            CarouselSlot::Full => assert_audio_bits_eq(
                &item.artifact.audio,
                &link::modulate(&profile, &item.artifact.frames),
            ),
            CarouselSlot::Delta { frames, audio, .. } => {
                assert!(item.artifact.audio.is_empty());
                assert_audio_bits_eq(audio, &link::modulate(&profile, frames));
            }
        }
    }

    // Neither tier kept any of it, and the RAM tier accounts for exactly
    // what it holds: frames, strips, URL and the column-hash index.
    let mut held = 0;
    for job in jobs_at(&r, 8) {
        let (in_ram, hashes) = tier.delta_basis(job.id).expect("resident");
        assert!(in_ram.audio.is_empty(), "{:?}: audio in the RAM tier", job.id);
        held += in_ram.frames.len() * FRAME_SIZE
            + in_ram.page.strips.total_bytes()
            + in_ram.page.url.len()
            + hashes.len() * 8;
        let on_disk = store.borrow_mut().load(job.id).expect("stored");
        assert!(on_disk.artifact.audio.is_empty(), "{:?}: audio on disk", job.id);
        assert_eq!(*on_disk.artifact.frames, *in_ram.frames);
    }
    assert_eq!(tier.bytes(), held);

    // Restart into the same hour: every page comes back from the files,
    // nothing airs, nothing is modulated.
    drop((tier, store));
    let mut tier = open_tier(&dir.0);
    let jobs = jobs_at(&r, 8);
    let (items, stats) = refresh_carousel(&r, &mut tier, &jobs, &profile);
    assert_eq!(stats.unchanged, jobs.len());
    assert_eq!(tier.stats.disk_promotions, jobs.len() as u64);
    assert_eq!(tier.stats.misses + tier.stats.delta_hits, 0);
    assert!(items.iter().all(|i| i.artifact.audio.is_empty()));
}
