//! The server's refresh path: one page at a time through the artifact
//! cache, render → strip encode → chunk only where the content moved.
//!
//! "The SONIC server produces a simplified version of the webpage, either
//! from its cache … or by directly accessing it" (§3.1), once per page per
//! hour and once per SMS that asks. [`refresh_page`] is that step and the
//! only place it is written: the hash ladder that decides how little work a
//! page needs, the delta or cold build, and the store into every cache tier.
//! What is cached is the simplified page and its frames, never a waveform:
//! [`refresh_carousel`] is [`refresh_page`], then [`link::modulate`] of
//! exactly the frames the slot airs; [`refresh_frames_only`] is the same
//! loop without the second step; an SMS `GET` is [`refresh_page`] on the
//! server's artifact tier, and an `ASK` is `refresh_answer`. A request airs
//! exactly the build the ladder holds, under the id the carousel already
//! uses: the page's TTL is the client's to keep (its reassembler forgets a
//! finalized id when its cached copy expires), and only `server::render`
//! stamps a version.

use crate::chunker::page_to_frames;
use crate::frame::Frame;
use crate::link;
use crate::page::SimplifiedPage;
use crate::server::cache::{Artifact, ArtifactCache, ArtifactTier};
use crate::server::render::{RenderedContent, Renderer};
use sonic_image::hash::{fnv1a64, Fnv64};
use sonic_image::strip;
use sonic_modem::profile::Profile;
use sonic_pagegen::PageId;
use sonic_sms::queries::Query;
use std::sync::Arc;

/// One render request: a corpus page at an hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageJob {
    /// Corpus page to render.
    pub id: PageId,
    /// Render hour (drives versioning).
    pub hour: u64,
}

/// How one page rides the current carousel revolution.
#[derive(Debug, Clone)]
pub enum CarouselSlot {
    /// The page's layout or raster is unchanged since the cached build —
    /// nothing is broadcast this revolution.
    Unchanged,
    /// Genuinely new content (no usable delta basis): the page gets a
    /// full-page slot with its complete frame sequence.
    Full,
    /// The page changed but a prior version is cached: only the meta
    /// bracket plus the changed columns' chunks are broadcast.
    Delta {
        /// The delta frame subset (meta frames + changed columns' chunks),
        /// each bit-identical to its counterpart in the full sequence.
        frames: Arc<Vec<Frame>>,
        /// `link::modulate(profile, frames)` on an item
        /// [`refresh_carousel`] returns; empty from [`refresh_page`].
        audio: Arc<Vec<f32>>,
        /// How many columns changed (0 is valid: meta-only version bump).
        changed_columns: usize,
    },
}

/// One page's outcome from [`refresh_page`].
#[derive(Debug, Clone)]
pub struct CarouselItem {
    /// The page's corpus key.
    pub id: PageId,
    /// The up-to-date artifact (the full frame sequence — the next
    /// revolution's delta basis and the repair path's source).
    pub artifact: Artifact,
    /// What, if anything, goes on air for this page.
    pub slot: CarouselSlot,
}

/// Aggregate accounting for one carousel revolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarouselStats {
    /// Jobs processed.
    pub pages: usize,
    /// Pages that were byte-identical to the cached build.
    pub unchanged: usize,
    /// Pages given a full-page slot.
    pub full_slots: usize,
    /// Pages given a delta slot.
    pub delta_slots: usize,
    /// Frames across all full slots.
    pub full_frames: usize,
    /// Frames across all delta slots.
    pub delta_frames: usize,
    /// Columns re-broadcast across all delta slots.
    pub columns_changed: usize,
    /// Total columns across all delta-slotted pages.
    pub columns_total: usize,
}

/// Render-input content address: the layout hash folded with the device
/// scaling factor (the raster is a pure function of both).
pub(crate) fn layout_hash_scaled(renderer: &Renderer, id: PageId, hour: u64) -> u64 {
    let lh = renderer.corpus().layout(id, hour).content_hash();
    let mut h = Fnv64::new();
    h.write_u64(lh).write_u64(renderer.scale().to_bits());
    h.finish()
}

/// One rung's lookup: the RAM tier first; on a miss the tier below is asked
/// to promote `id` if the hashes it stored pass `stored_ok`, and RAM is
/// asked again.
fn ram_then_below<R>(
    tier: &mut impl ArtifactTier,
    id: PageId,
    stored_ok: impl Fn(u64, u64) -> bool,
    lookup: impl Fn(&mut ArtifactCache) -> Option<R>,
) -> Option<R> {
    if let Some(found) = lookup(tier.ram()) {
        return Some(found);
    }
    if !tier.promote_if(id, stored_ok) {
        return None;
    }
    lookup(tier.ram())
}

/// Selects the delta frame subset: the full meta bracket plus every chunk
/// of a changed column. Chunk sequences stay intact per column (a column is
/// rebroadcast whole, from seq 0), so the receiver's longest-prefix
/// reassembly accepts them without a new wire format.
fn delta_frame_subset(frames: &[Frame], changed: &[u16]) -> Vec<Frame> {
    let mut is_changed = Vec::new();
    for &c in changed {
        let c = c as usize;
        if c >= is_changed.len() {
            is_changed.resize(c + 1, false);
        }
        is_changed[c] = true;
    }
    frames
        .iter()
        .filter(|f| match f {
            Frame::Meta { .. } => true,
            Frame::Strip { column, .. } => {
                is_changed.get(*column as usize).copied().unwrap_or(false)
            }
        })
        .cloned()
        .collect()
}

/// Runs one page through the artifact cache, rendering lazily, and says how
/// it rides this revolution. The cheapest sound path wins:
///
/// 1. **Layout hit** — `layout_hash` is the content address of the *render
///    input*: if it equals the cached entry's, the raster is known to be
///    bit-identical without rendering, `render` is never called and the
///    cached artifact is reused verbatim, keeping its original version (and
///    therefore page id and frames). Slot: [`CarouselSlot::Unchanged`].
/// 2. **Raster hit** — the layout hash moved but the rendered pixels (and
///    the click map / TTL / URL that ride in the meta frames) did not:
///    reuse as above, after refreshing the stored layout hash.
/// 3. **Delta** — a cached prior with the same dimensions: only dirty
///    strips re-encode ([`strip::encode_delta_prehashed`]). The page takes
///    the content's version exactly like the cold path, so the artifact is
///    bit-identical to a cold build of the same inputs; it keeps the
///    **full** frame sequence (next hour's delta basis, the repair path's
///    source) while the slot carries just the meta bracket plus the changed
///    columns' chunks. Slot: [`CarouselSlot::Delta`].
/// 4. **Cold** — no usable basis: render output is strip-encoded and
///    chunked from scratch. Slot: [`CarouselSlot::Full`].
///
/// Each rung asks the RAM tier, then whatever `tier` keeps below it. No
/// audio is made here: the item's `artifact.audio` and a delta slot's
/// `audio` are empty.
pub fn refresh_page(
    tier: &mut impl ArtifactTier,
    id: PageId,
    layout_hash: u64,
    hour: u64,
    render: impl FnOnce() -> RenderedContent,
) -> CarouselItem {
    let unchanged = |artifact| CarouselItem {
        id,
        artifact,
        slot: CarouselSlot::Unchanged,
    };
    if let Some(a) = ram_then_below(
        tier,
        id,
        |stored_layout, _| stored_layout == layout_hash,
        |ram| ram.get_if_layout(id, layout_hash),
    ) {
        return unchanged(a);
    }
    let content = render();
    // The pixels are hashed exactly once: the per-column index serves the
    // whole-raster address, the dirty-strip diff, and the next refresh's
    // delta basis.
    let new_hashes = strip::column_hashes(&content.raster);
    let (width, height) = (content.raster.width(), content.raster.height());
    let rh = strip::raster_hash_from(width, height, &new_hashes);
    if let Some(a) = ram_then_below(
        tier,
        id,
        |_, stored_raster| stored_raster == rh,
        |ram| {
            ram.get_if_raster(
                id,
                rh,
                layout_hash,
                &content.url,
                &content.clickmap,
                content.ttl_hours,
            )
        },
    ) {
        return unchanged(a);
    }
    let basis = ram_then_below(tier, id, |_, _| true, |ram| ram.delta_basis(id))
        .filter(|(prev, _)| prev.page.strips.width == width && prev.page.strips.height == height);

    let stats = &mut tier.ram().stats;
    let (strips, col_hashes, changed) = match &basis {
        Some((prev, prev_hashes)) => {
            let d = strip::encode_delta_prehashed(
                &content.raster,
                &prev.page.strips,
                prev_hashes,
                new_hashes,
            );
            stats.strips_reused += d.reused as u64;
            stats.strips_reencoded += d.reencoded as u64;
            stats.delta_hits += 1;
            let changed = strip::diff_columns(prev_hashes, &d.hashes);
            (d.strips, d.hashes, Some(changed))
        }
        None => {
            stats.misses += 1;
            (strip::encode(&content.raster), new_hashes, None)
        }
    };
    let page = Arc::new(SimplifiedPage::from_parts(
        &content.url,
        strips,
        content.clickmap,
        content.version,
        content.ttl_hours,
    ));
    let artifact = Artifact {
        frames: Arc::new(page_to_frames(&page)),
        page,
        audio: Arc::default(),
    };
    let slot = match changed {
        Some(changed) => CarouselSlot::Delta {
            // Every column changed: the delta is the full sequence, shared
            // rather than copied.
            frames: if changed.len() == width {
                artifact.frames.clone()
            } else {
                Arc::new(delta_frame_subset(&artifact.frames, &changed))
            },
            audio: Arc::default(),
            changed_columns: changed.len(),
        },
        None => CarouselSlot::Full,
    };
    tier.store(
        id,
        layout_hash,
        rh,
        Arc::new(col_hashes),
        artifact.clone(),
        hour,
    );
    CarouselItem { id, artifact, slot }
}

/// [`refresh_page`] for a corpus page: the layout hash and the lazy render
/// both come from `renderer`.
fn refresh_job(renderer: &Renderer, tier: &mut impl ArtifactTier, job: PageJob) -> CarouselItem {
    let lh = layout_hash_scaled(renderer, job.id, job.hour);
    refresh_page(tier, job.id, lh, job.hour, || {
        renderer.render(job.id, job.hour)
    })
}

/// [`refresh_page`] for the answer to a search/chat query, in `answers` —
/// a RAM-only cache, since answers never enter the store. An answer's render
/// is a pure function of engine, query text and scale, so their hash is its
/// layout hash; its key is the hash of the result URL it airs under (two
/// texts that share a URL share a slot, and the ladder tells them apart).
pub(crate) fn refresh_answer(
    renderer: &Renderer,
    answers: &mut ArtifactCache,
    query: &Query,
    hour: u64,
) -> Artifact {
    let mut lh = Fnv64::new();
    lh.write(query.engine.token().as_bytes())
        .write(&[0])
        .write(query.text.as_bytes())
        .write_u64(renderer.scale().to_bits());
    let id = PageId {
        site: fnv1a64(query.result_url().as_bytes()) as usize,
        page: 0,
    };
    refresh_page(answers, id, lh.finish(), hour, || {
        renderer.answer(query, hour)
    })
    .artifact
}

/// One carousel revolution: every job through [`refresh_page`], in job
/// order, then [`link::modulate`] of exactly the frames each slot airs —
/// into `artifact.audio` of a [`CarouselSlot::Full`] item (where the frozen
/// `benchmark/` reads it) and into a [`CarouselSlot::Delta`]'s own `audio`.
/// An unchanged page airs nothing and gets no audio. Plus the revolution's
/// [`CarouselStats`].
pub fn refresh_carousel(
    renderer: &Renderer,
    tier: &mut impl ArtifactTier,
    jobs: &[PageJob],
    profile: &Profile,
) -> (Vec<CarouselItem>, CarouselStats) {
    let items: Vec<CarouselItem> = jobs
        .iter()
        .map(|&job| {
            let mut item = refresh_job(renderer, tier, job);
            match &mut item.slot {
                CarouselSlot::Unchanged => {}
                CarouselSlot::Full => {
                    item.artifact.audio = Arc::new(link::modulate(profile, &item.artifact.frames));
                }
                CarouselSlot::Delta { frames, audio, .. } => {
                    *audio = Arc::new(link::modulate(profile, frames));
                }
            }
            item
        })
        .collect();
    let stats = carousel_stats(&items);
    (items, stats)
}

/// Every job through [`refresh_page`], in job order: the up-to-date
/// artifacts (what the popular-page push enqueues).
pub fn refresh_frames_only(
    renderer: &Renderer,
    tier: &mut impl ArtifactTier,
    jobs: &[PageJob],
) -> Vec<Artifact> {
    jobs.iter()
        .map(|&job| refresh_job(renderer, tier, job).artifact)
        .collect()
}

/// Folds a revolution's [`CarouselItem`]s into its [`CarouselStats`].
pub fn carousel_stats(items: &[CarouselItem]) -> CarouselStats {
    let mut stats = CarouselStats {
        pages: items.len(),
        ..CarouselStats::default()
    };
    for item in items {
        match &item.slot {
            CarouselSlot::Unchanged => stats.unchanged += 1,
            CarouselSlot::Full => {
                stats.full_slots += 1;
                stats.full_frames += item.artifact.frames.len();
            }
            CarouselSlot::Delta {
                frames,
                changed_columns,
                ..
            } => {
                stats.delta_slots += 1;
                stats.delta_frames += frames.len();
                stats.columns_changed += changed_columns;
                stats.columns_total += item.artifact.page.strips.width;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_pagegen::Corpus;

    fn renderer() -> Renderer {
        Renderer::new(Corpus::small(3), 0.05)
    }

    fn jobs() -> Vec<PageJob> {
        // Mix sites, pages and hours so artifacts differ.
        vec![
            PageJob {
                id: PageId { site: 0, page: 0 },
                hour: 1,
            },
            PageJob {
                id: PageId { site: 1, page: 1 },
                hour: 2,
            },
            PageJob {
                id: PageId { site: 2, page: 0 },
                hour: 3,
            },
            PageJob {
                id: PageId { site: 0, page: 2 },
                hour: 1,
            },
            PageJob {
                id: PageId { site: 1, page: 0 },
                hour: 7,
            },
            PageJob {
                id: PageId { site: 2, page: 3 },
                hour: 9,
            },
        ]
    }

    /// What "bit-identical to a cold build" means: render, strip-encode and
    /// chunk run back to back with no cache anywhere.
    fn assert_is_cold_build(a: &Artifact, r: &Renderer, job: PageJob) {
        let c = r.render(job.id, job.hour);
        let page = SimplifiedPage::from_raster(&c.url, &c.raster, c.clickmap, c.version, c.ttl_hours);
        assert_eq!(a.page.page_id, page.page_id);
        assert_eq!(a.page.meta_blob(), page.meta_blob());
        assert_eq!(a.page.strips.strips, page.strips.strips);
        assert_eq!(*a.frames, page_to_frames(&page));
    }

    #[test]
    fn cold_refresh_is_bit_identical_to_serial_pipeline() {
        let r = renderer();
        let jobs = jobs();
        let profile = Profile::sonic_10k();
        let mut cache = ArtifactCache::unbounded();
        let (warm, stats) = refresh_carousel(&r, &mut cache, &jobs, &profile);
        assert_eq!(stats.full_slots, jobs.len(), "cold cache: every page is a miss");
        assert_eq!(cache.stats.misses, jobs.len() as u64);
        for (item, &job) in warm.iter().zip(&jobs) {
            assert_is_cold_build(&item.artifact, &r, job);
        }
    }

    #[test]
    fn repeat_refresh_reuses_artifacts_verbatim() {
        let r = renderer();
        let jobs = jobs();
        let profile = Profile::sonic_10k();
        let mut cache = ArtifactCache::unbounded();
        let (first, _) = refresh_carousel(&r, &mut cache, &jobs, &profile);
        let (second, stats) = refresh_carousel(&r, &mut cache, &jobs, &profile);
        assert_eq!(stats.unchanged, jobs.len());
        assert_eq!(stats.full_slots + stats.delta_slots, 0);
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.artifact.frames, &b.artifact.frames), "shared, not copied");
        }
    }

    #[test]
    fn hourly_refresh_reuses_unchanged_pages_and_rebuilds_changed() {
        let r = renderer();
        let corpus = r.corpus();
        let jobs_h: Vec<PageJob> = corpus
            .pages()
            .into_iter()
            .map(|id| PageJob { id, hour: 12 })
            .collect();
        let jobs_h1: Vec<PageJob> = jobs_h.iter().map(|j| PageJob { hour: 13, ..*j }).collect();
        let mut cache = ArtifactCache::unbounded();
        let profile = Profile::sonic_10k();
        let (first, _) = refresh_carousel(&r, &mut cache, &jobs_h, &profile);
        let (second, stats) = refresh_carousel(&r, &mut cache, &jobs_h1, &profile);
        let changed: Vec<bool> = jobs_h
            .iter()
            .map(|j| corpus.changed(j.id, 12, 13))
            .collect();
        let n_changed = changed.iter().filter(|&&c| c).count();
        assert!(n_changed > 0, "hour 12→13 must change something");
        assert_eq!(stats.unchanged, jobs_h.len() - n_changed);
        assert_eq!(stats.delta_slots + stats.full_slots, n_changed);
        for (((a, b), &ch), &job) in first.iter().zip(&second).zip(&changed).zip(&jobs_h1) {
            if ch {
                // Rebuilt at the new hour: bit-identical to a cold build.
                assert_is_cold_build(&b.artifact, &r, job);
            } else {
                // Unchanged: the very same artifact, old version included.
                assert!(Arc::ptr_eq(&a.artifact.page, &b.artifact.page));
                assert!(Arc::ptr_eq(&a.artifact.frames, &b.artifact.frames));
            }
        }
    }

    #[test]
    fn a_frames_only_cache_answers_a_carousel_refresh() {
        let r = renderer();
        let jobs = &jobs()[..2];
        let mut cache = ArtifactCache::unbounded();
        let built = refresh_frames_only(&r, &mut cache, jobs);
        assert!(built.iter().all(|a| a.audio.is_empty()));
        // Who filled the cache does not matter: there is one kind of entry.
        let (items, stats) = refresh_carousel(&r, &mut cache, jobs, &Profile::sonic_10k());
        assert_eq!(stats.unchanged, jobs.len());
        assert_eq!(cache.stats.full_hits, jobs.len() as u64);
        for (item, a) in items.iter().zip(&built) {
            assert!(Arc::ptr_eq(&item.artifact.frames, &a.frames));
        }
    }
}
