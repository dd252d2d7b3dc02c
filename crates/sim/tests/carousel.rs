//! The corpus-churn carousel and the warm restart, end to end.
//!
//! * `run_delta_carousel` — hour-by-hour corpus churn where changed pages
//!   air only their delta frames (meta bracket + changed columns). The
//!   synthetic corpus swaps full-width sections, so a changed page's delta
//!   covers every column — the air win in this regime is the unchanged
//!   pages airing nothing, and the report proves the delta path never costs
//!   more than a full carousel.
//! * `run_warm_restart` — builds an hour's corpus into a disk-backed
//!   [`ArtifactStore`], drops every in-RAM handle, reopens the store from
//!   its index log, and refreshes again: every page must be served by
//!   promotion from disk, not re-rendered.

use sonic_core::server::cache::{share_store, ArtifactCache};
use sonic_core::server::pipeline::{refresh_carousel, PageJob};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_image::raster::Raster;
use sonic_modem::profile::Profile;
use sonic_pagegen::Corpus;
use sonic_sim::carousel::{air_and_verify, DeltaCarouselReport};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Runs `hours` carousel revolutions (after a cold build at `start_hour`)
/// over the whole corpus at `scale`, verifying every receiver decode.
/// Synthetic corpora freeze content overnight — start at hour ≥ 6 to see
/// churn.
fn run_delta_carousel(
    corpus: Corpus,
    scale: f64,
    start_hour: u64,
    hours: u64,
) -> DeltaCarouselReport {
    let renderer = Renderer::new(corpus, scale);
    let profile = Profile::sonic_10k();
    let mut cache = ArtifactCache::unbounded();
    let pages = renderer.corpus().pages();
    let mut report = DeltaCarouselReport {
        pages: pages.len(),
        hours,
        ..DeltaCarouselReport::default()
    };
    // Receiver-side prior rasters, keyed by URL (what a client caches).
    let mut client: BTreeMap<String, Raster> = BTreeMap::new();
    for hour in start_hour..=start_hour + hours {
        let jobs: Vec<PageJob> = pages.iter().map(|&id| PageJob { id, hour }).collect();
        let (items, stats) = refresh_carousel(&renderer, &mut cache, &jobs, &profile);
        let warm = hour > start_hour;
        if warm {
            report.full_slots += stats.full_slots;
            report.delta_slots += stats.delta_slots;
            report.unchanged += stats.unchanged;
        }
        air_and_verify(&items, &mut client, &mut report, warm);
    }
    report
}

/// What a warm restart did versus the cold boot that seeded it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct WarmRestartReport {
    /// Pages refreshed in each phase.
    pages: usize,
    /// Cold misses in the boot phase (every page, on an empty store).
    cold_misses: u64,
    /// Pages served by disk promotion after the restart — must equal
    /// `pages` for a clean store.
    promoted: u64,
    /// Misses after the restart — must be 0.
    warm_misses: u64,
    /// Entries in the reopened store's index.
    store_entries: usize,
    /// Live blob bytes in the reopened store.
    store_bytes: u64,
}

/// Cold-boots an hour's corpus into a disk store at `dir`, drops all RAM
/// state, reopens the store (index-log rebuild) and refreshes the same
/// hour again through a fresh RAM tier.
fn run_warm_restart(
    corpus: Corpus,
    scale: f64,
    hour: u64,
    dir: &Path,
    byte_budget: u64,
) -> io::Result<WarmRestartReport> {
    let renderer = Renderer::new(corpus, scale);
    let profile = Profile::sonic_10k();
    let jobs: Vec<PageJob> = renderer
        .corpus()
        .pages()
        .iter()
        .map(|&id| PageJob { id, hour })
        .collect();
    let mut report = WarmRestartReport {
        pages: jobs.len(),
        ..WarmRestartReport::default()
    };

    // Phase 1: cold boot onto an empty store.
    {
        let store = share_store(ArtifactStore::open(dir, byte_budget)?);
        let mut tiered = ArtifactCache::with_store(ArtifactCache::unbounded(), store);
        let _ = refresh_carousel(&renderer, &mut tiered, &jobs, &profile);
        report.cold_misses = tiered.stats.misses;
    } // RAM tier and store handle drop here: nothing survives but the files.

    // Phase 2: reopen from the index log; refresh must promote, not render.
    let store = share_store(ArtifactStore::open(dir, byte_budget)?);
    {
        let s = store.borrow();
        report.store_entries = s.len();
        report.store_bytes = s.live_bytes();
    }
    let mut tiered = ArtifactCache::with_store(ArtifactCache::unbounded(), store);
    let _ = refresh_carousel(&renderer, &mut tiered, &jobs, &profile);
    report.promoted = tiered.stats.disk_promotions;
    report.warm_misses = tiered.stats.misses;
    Ok(report)
}

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("sonic-sim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn corpus_churn_decodes_clean_and_never_costs_more() {
    let report = run_delta_carousel(Corpus::small(4), 0.05, 6, 3);
    assert_eq!(report.decode_mismatches, 0);
    assert!(report.delta_slots > 0, "no delta slots: {report:?}");
    assert!(report.unchanged > 0);
    assert!(report.air_bytes_incremental <= report.air_bytes_full_carousel);
    // Deterministic: same inputs, same report.
    let again = run_delta_carousel(Corpus::small(4), 0.05, 6, 3);
    assert_eq!(report, again);
}

#[test]
fn warm_restart_promotes_everything() {
    let dir = TempDir::new("warm");
    let report = run_warm_restart(Corpus::small(3), 0.05, 6, &dir.0, u64::MAX).expect("store io");
    assert_eq!(report.cold_misses, report.pages as u64);
    assert_eq!(report.promoted, report.pages as u64);
    assert_eq!(report.warm_misses, 0);
    assert_eq!(report.store_entries, report.pages);
    assert!(report.store_bytes > 0);
}
