//! The ticker carousel harness and the receiver check it shares.
//!
//! * [`run_ticker_carousel`] — seeded partial-width updates (a ticker or
//!   sidebar column band changes, the rest of the page is untouched): the
//!   regime where column-granular deltas cut air bytes outright and
//!   receivers patch the un-aired columns from their cached prior raster.
//!   `perf_broadcast_cache` times it.
//! * [`air_and_verify`] — airs one revolution and checks every receiver
//!   decode. The corpus-churn loop in `crates/sim/tests/carousel.rs` uses
//!   it too.
//!
//! Every receiver decode goes through the production [`Reassembler`] and is
//! verified pixel-identical to a lossless decode of the server's artifact.
//! Everything is deterministic: logical hours drive versioning, mutation
//! patterns come from a seeded LCG, maps are `BTreeMap`, and no wall clock
//! is consulted — timing belongs to the bench harness, not this module.

use sonic_core::reassembly::{Reassembler, ReassemblerConfig};
use sonic_core::server::cache::ArtifactCache;
use sonic_core::server::pipeline::{carousel_stats, refresh_page, CarouselItem, CarouselSlot};
use sonic_core::server::render::RenderedContent;
use sonic_core::server::scheduler::BroadcastScheduler;
use sonic_image::hash::Fnv64;
use sonic_image::raster::{Raster, Rgb};
use sonic_image::strip;
use sonic_pagegen::Corpus;
use std::collections::BTreeMap;

/// What an incremental carousel run did, and whether every receiver decode
/// matched the server's artifacts. Same inputs ⇒ same report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaCarouselReport {
    /// Revolutions simulated after the cold build.
    pub hours: u64,
    /// Pages in the catalog.
    pub pages: usize,
    /// Full-page slots aired (cold builds: genuinely new content).
    pub full_slots: usize,
    /// Delta slots aired (changed pages with a cached basis).
    pub delta_slots: usize,
    /// Page-revolutions where nothing aired (unchanged).
    pub unchanged: usize,
    /// Air bytes a naive carousel would spend (full frames for every
    /// changed page).
    pub air_bytes_full_carousel: usize,
    /// Air bytes the incremental carousel actually spent.
    pub air_bytes_incremental: usize,
    /// Receiver decodes that did not match the server artifact — must be 0.
    pub decode_mismatches: usize,
    /// Columns receivers patched from their cached prior rasters.
    pub columns_patched: usize,
}

/// Airs one revolution's slots through a [`BroadcastScheduler`], reassembles
/// every aired page with the production receiver, patches deliberately
/// un-aired columns from the client's prior rasters and verifies each
/// result against a lossless decode of the server artifact. Air bytes are
/// added to `report` only when `count_air` (not on a cold build).
pub fn air_and_verify(
    items: &[CarouselItem],
    client: &mut BTreeMap<String, Raster>,
    report: &mut DeltaCarouselReport,
    count_air: bool,
) {
    let mut sched = BroadcastScheduler::new(10_000.0);
    for item in items {
        match &item.slot {
            CarouselSlot::Unchanged => {}
            CarouselSlot::Full => {
                sched.enqueue_prechunked(
                    item.artifact.page.clone(),
                    item.artifact.frames.clone(),
                    0.0,
                );
            }
            CarouselSlot::Delta { frames, .. } => {
                sched.enqueue_delta(item.artifact.page.clone(), frames.clone(), 0.0);
            }
        }
    }
    let mut rx = Reassembler::with_config(ReassemblerConfig {
        max_bytes: usize::MAX / 2,
        max_pages: usize::MAX / 2,
        page_deadline_s: f64::INFINITY,
    });
    loop {
        let frames = sched.advance(60.0);
        if frames.is_empty() {
            break;
        }
        for f in frames {
            rx.push_at(f, 0.0);
        }
    }
    for item in items {
        let aired_frames = match &item.slot {
            CarouselSlot::Unchanged => None,
            CarouselSlot::Full => Some(item.artifact.frames.len()),
            CarouselSlot::Delta { frames, .. } => Some(frames.len()),
        };
        let Some(aired) = aired_frames else { continue };
        if count_air {
            report.air_bytes_full_carousel +=
                item.artifact.frames.len() * sonic_core::frame::FRAME_SIZE;
            report.air_bytes_incremental += aired * sonic_core::frame::FRAME_SIZE;
        }
        let Some(Ok(mut page)) = rx.take(item.artifact.page.page_id) else {
            report.decode_mismatches += 1;
            continue;
        };
        // Columns the carousel deliberately did not air are wholly lost
        // at the receiver; its cached prior raster fills them.
        if let Some(prior) = client.get(&page.url) {
            report.columns_patched += page.patch_from_prior(prior);
        }
        let reference = strip::decode(&item.artifact.page.strips);
        if page.raster != reference
            || page.url != item.artifact.page.url
            || page.version != item.artifact.page.version
        {
            report.decode_mismatches += 1;
        }
        client.insert(page.url.clone(), page.raster);
    }
}

/// A deterministic LCG step (the repo's test-randomness idiom).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(1103515245).wrapping_add(12345)
}

/// Runs `hours` ticker-style revolutions: each hour a seeded half of the
/// catalog gets a vertical band of `frac · width` columns overwritten (a
/// ticker/sidebar update) while every other column is untouched. Changed
/// pages therefore take delta slots that skip the unchanged columns — the
/// partial-width regime the incremental carousel is built for.
pub fn run_ticker_carousel(
    corpus: Corpus,
    scale: f64,
    hours: u64,
    frac: f64,
) -> DeltaCarouselReport {
    let mut cache = ArtifactCache::unbounded();
    let ids = corpus.pages();
    let mut report = DeltaCarouselReport {
        pages: ids.len(),
        hours,
        ..DeltaCarouselReport::default()
    };
    // Server-side current page state: raster + a content revision counter
    // (ticker updates accumulate; an untouched page keeps its last state).
    let mut state: BTreeMap<(usize, usize), (RenderedContent, u64)> = BTreeMap::new();
    for &id in &ids {
        let r = corpus.render(id, 0, scale);
        state.insert(
            (id.site, id.page),
            (
                RenderedContent {
                    url: r.url,
                    raster: r.raster,
                    clickmap: r.clickmap,
                    version: 0,
                    ttl_hours: 24,
                },
                0,
            ),
        );
    }
    let mut client: BTreeMap<String, Raster> = BTreeMap::new();
    for rev in 0..=hours {
        let mut items = Vec::with_capacity(ids.len());
        for &id in &ids {
            let slot = state
                .get_mut(&(id.site, id.page))
                .unwrap_or_else(|| unreachable!("state seeded for every page"));
            let (content, revision) = slot;
            let nonce = lcg(lcg(rev ^ ((id.site as u64) << 17) ^ ((id.page as u64) << 5)));
            if rev > 0 && nonce.is_multiple_of(2) {
                // Overwrite a wrapped band of columns with hour-seeded noise.
                let w = content.raster.width();
                let h = content.raster.height();
                let band = ((w as f64 * frac) as usize).max(1);
                let off = (lcg(nonce) % w as u64) as usize;
                for i in 0..band {
                    let x = (off + i) % w;
                    for y in 0..h {
                        let v = lcg(nonce ^ ((x as u64) << 32) ^ y as u64);
                        content.raster.set(
                            x,
                            y,
                            Rgb::new((v >> 8) as u8, (v >> 16) as u8, (v >> 24) as u8),
                        );
                    }
                }
                *revision += 1;
                content.version = (*revision % u16::MAX as u64) as u16;
            }
            let lh = Fnv64::new()
                .write(content.url.as_bytes())
                .write_u64(*revision)
                .finish();
            let rendered = content.clone();
            items.push(refresh_page(&mut cache, id, lh, rev, move || rendered));
        }
        if rev > 0 {
            let stats = carousel_stats(&items);
            report.full_slots += stats.full_slots;
            report.delta_slots += stats.delta_slots;
            report.unchanged += stats.unchanged;
        }
        air_and_verify(&items, &mut client, &mut report, rev > 0);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticker_carousel_saves_air_and_patches_from_prior() {
        let report = run_ticker_carousel(Corpus::small(3), 0.05, 3, 0.2);
        assert_eq!(report.decode_mismatches, 0);
        assert!(report.delta_slots > 0, "no delta slots: {report:?}");
        assert!(
            report.air_bytes_incremental * 2 < report.air_bytes_full_carousel,
            "expected >2x air savings: {report:?}"
        );
        assert!(report.columns_patched > 0);
        let again = run_ticker_carousel(Corpus::small(3), 0.05, 3, 0.2);
        assert_eq!(report, again);
    }
}
