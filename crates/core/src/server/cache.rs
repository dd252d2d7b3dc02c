//! The server's cache: content-addressed page artifacts, in RAM and on disk.
//!
//! "The SONIC server produces a simplified version of the webpage, either
//! from its cache, e.g., if recently requested by another user, or by
//! directly accessing it" (§3.1). One kind of entry serves the hourly
//! carousel, an SMS page request and a search/chat answer alike; what decides
//! reuse is the content address (`pipeline::refresh_page`) and nothing else.
//! A build's TTL rides in its meta frames for the client to keep: a cached
//! build is served whatever its age, under the id it was built with.

use crate::frame::{Frame, FRAME_SIZE};
use crate::page::SimplifiedPage;
use sonic_image::clickmap::ClickMap;
use sonic_pagegen::PageId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// What the server keeps of one page: the simplified page and its frames,
/// `Arc`-shared so the cache, every transmitter's scheduler and the caller
/// can hold the same bytes without copying.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The simplified page (strip-coded screenshot + metadata).
    pub page: Arc<SimplifiedPage>,
    /// The page's link-frame sequence.
    pub frames: Arc<Vec<Frame>>,
    /// Not part of the artifact: audio is made for the slot that airs, and
    /// no tier caches or stores it. The field is here only because the
    /// frozen `benchmark/` reads a full-page slot's audio from it —
    /// `pipeline::refresh_carousel` fills it on the item it returns for a
    /// [`CarouselSlot::Full`](crate::server::pipeline::CarouselSlot::Full);
    /// it is empty everywhere else (RAM tier, disk, Unchanged and Delta
    /// items, frames-only refreshes).
    pub audio: Arc<Vec<f32>>,
}

impl Artifact {
    /// Approximate resident bytes (frames + strips + metadata).
    pub fn resident_bytes(&self) -> usize {
        self.frames.len() * FRAME_SIZE + self.page.strips.total_bytes() + self.page.url.len()
    }
}

/// One cached artifact plus the content addresses that decide reuse.
#[derive(Debug)]
struct ArtifactEntry {
    artifact: Artifact,
    /// Hash of the render *inputs* (layout ⊕ scale): equal hash ⇒ the
    /// raster is bit-identical without rendering it.
    layout_hash: u64,
    /// Hash of the rendered raster: catches "layout hash changed but the
    /// pixels happen to be the same" (e.g. a seed that redraws identically).
    raster_hash: u64,
    /// Per-column raster hashes for dirty-strip diffing.
    column_hashes: Arc<Vec<u64>>,
    /// LRU clock value of the last touch.
    last_used: u64,
    /// Cached [`Artifact::resident_bytes`] + hash-index overhead.
    bytes: usize,
}

/// Counters the acceptance bench and Figure 4c reporting read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Refreshes served verbatim (layout or raster hash matched).
    pub full_hits: u64,
    /// Refreshes that re-encoded only dirty strips against a cached basis.
    pub delta_hits: u64,
    /// Refreshes built cold.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Columns spliced from a cached encode during delta refreshes.
    pub strips_reused: u64,
    /// Columns re-encoded during delta refreshes.
    pub strips_reencoded: u64,
    /// RAM misses served by promoting an artifact from the disk tier.
    pub disk_promotions: u64,
}

/// Content-addressed broadcast artifact cache (the tentpole of the warm
/// refresh path).
///
/// Keyed by corpus [`PageId`]; each entry holds the page's strips and
/// frames plus the content addresses — layout hash, raster hash, per-column
/// hashes — that let a refresh decide between three paths without
/// re-running the pipeline:
///
/// 1. **Full hit**: layout hash (or raster hash) unchanged ⇒ the artifact
///    is reused verbatim, old version and all.
/// 2. **Delta hit**: same dimensions, some columns changed ⇒ only dirty
///    strips re-encode (see `pipeline::refresh_page`).
/// 3. **Miss**: cold build, bit-identical to the uncached pipeline.
///
/// Eviction is LRU over a resident-byte budget: every touch bumps a logical
/// clock, and inserts evict least-recently-used entries until the new total
/// fits.
#[derive(Debug)]
pub struct ArtifactCache {
    entries: BTreeMap<PageId, ArtifactEntry>,
    byte_budget: usize,
    bytes: usize,
    clock: u64,
    /// Reuse counters, bumped by the lookups here and by
    /// `pipeline::refresh_page` once it knows which path a page took.
    pub stats: ArtifactCacheStats,
}

impl ArtifactCache {
    /// Cache bounded to `byte_budget` resident artifact bytes.
    pub fn new(byte_budget: usize) -> Self {
        ArtifactCache {
            entries: BTreeMap::new(),
            byte_budget,
            bytes: 0,
            clock: 0,
            stats: ArtifactCacheStats::default(),
        }
    }

    /// Cache with no byte bound (benchmarks, small corpora).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Resident artifact bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Cached page count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn touch(entries: &mut BTreeMap<PageId, ArtifactEntry>, clock: &mut u64, id: PageId) {
        *clock += 1;
        if let Some(e) = entries.get_mut(&id) {
            e.last_used = *clock;
        }
    }

    /// Full-reuse lookup by render-input hash. Counts a full hit on
    /// success (the miss/delta counters are bumped by the refresh driver
    /// once it knows which path it took).
    pub fn get_if_layout(&mut self, id: PageId, layout_hash: u64) -> Option<Artifact> {
        let e = self.entries.get(&id)?;
        if e.layout_hash != layout_hash {
            return None;
        }
        let artifact = e.artifact.clone();
        Self::touch(&mut self.entries, &mut self.clock, id);
        self.stats.full_hits += 1;
        Some(artifact)
    }

    /// Full-reuse lookup by raster hash, for when the layout hash moved but
    /// the pixels did not. Everything that reaches the client must match —
    /// raster, click map, TTL, URL — because the click map and TTL ride in
    /// the meta frames. On success the entry's layout hash is refreshed so
    /// the next refresh takes the cheaper [`Self::get_if_layout`] path.
    pub fn get_if_raster(
        &mut self,
        id: PageId,
        raster_hash: u64,
        layout_hash: u64,
        url: &str,
        clickmap: &ClickMap,
        ttl_hours: u16,
    ) -> Option<Artifact> {
        let e = self.entries.get_mut(&id)?;
        let p = &e.artifact.page;
        if e.raster_hash != raster_hash
            || p.url != url
            || p.clickmap != *clickmap
            || p.ttl_hours != ttl_hours
        {
            return None;
        }
        e.layout_hash = layout_hash;
        let artifact = e.artifact.clone();
        Self::touch(&mut self.entries, &mut self.clock, id);
        self.stats.full_hits += 1;
        Some(artifact)
    }

    /// The cached basis a delta re-encode splices against: the previous
    /// artifact and its per-column raster hashes.
    pub fn delta_basis(&self, id: PageId) -> Option<(Artifact, Arc<Vec<u64>>)> {
        let e = self.entries.get(&id)?;
        Some((e.artifact.clone(), e.column_hashes.clone()))
    }

    /// Inserts (or replaces) a page's artifact, then evicts LRU entries
    /// until the byte budget holds. The freshly inserted entry is never
    /// evicted by its own insert.
    pub fn insert(
        &mut self,
        id: PageId,
        layout_hash: u64,
        raster_hash: u64,
        column_hashes: Arc<Vec<u64>>,
        artifact: Artifact,
    ) {
        let bytes = artifact.resident_bytes() + column_hashes.len() * 8;
        self.clock += 1;
        if let Some(old) = self.entries.insert(
            id,
            ArtifactEntry {
                artifact,
                layout_hash,
                raster_hash,
                column_hashes,
                last_used: self.clock,
                bytes,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_budget(Some(id));
    }

    /// Evicts least-recently-used entries until `bytes <= byte_budget`,
    /// sparing `keep` (the entry that triggered the eviction).
    fn evict_to_budget(&mut self, keep: Option<PageId>) {
        while self.bytes > self.byte_budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = self.entries.remove(&victim) {
                self.bytes -= e.bytes;
                self.stats.evictions += 1;
            }
        }
    }
}

/// One disk tier shared by N schedulers/refresh drivers — the "one store
/// instead of N caches" handle. The coordinator and its site nodes run on
/// one thread, so sharing is `Rc<RefCell<_>>`; every borrow is one store
/// call long.
pub type SharedArtifactStore = Rc<RefCell<crate::server::store::ArtifactStore>>;

/// Wraps an opened store into the shared handle [`TieredCache::with_store`]
/// takes.
pub fn share_store(store: crate::server::store::ArtifactStore) -> SharedArtifactStore {
    Rc::new(RefCell::new(store))
}

/// What differs between the cache tiers `pipeline::refresh_page` runs over:
/// the RAM-only [`ArtifactCache`] and [`TieredCache`] (RAM over the disk
/// store). Every lookup is answered by the RAM tier; a tier with something
/// below it can promote an entry into RAM and writes inserts through. The
/// order in which the two are asked is the refresh ladder's business and is
/// written there, once.
pub trait ArtifactTier {
    /// The RAM tier (the refresh counters live in its `stats`).
    fn ram(&mut self) -> &mut ArtifactCache;

    /// Loads `id` from below the RAM tier into it, if an entry is stored
    /// there and its `(layout hash, raster hash)` pass `stored_ok`. Whether
    /// an entry was promoted. RAM alone has nothing below it.
    fn promote_if(&mut self, _id: PageId, _stored_ok: impl Fn(u64, u64) -> bool) -> bool {
        false
    }

    /// Writes an insert through to below the RAM tier.
    fn persist(
        &mut self,
        _id: PageId,
        _layout_hash: u64,
        _raster_hash: u64,
        _column_hashes: &[u64],
        _artifact: &Artifact,
        _hour: u64,
    ) {
    }

    /// Inserts (or replaces) a page's artifact in every tier.
    fn store(
        &mut self,
        id: PageId,
        layout_hash: u64,
        raster_hash: u64,
        column_hashes: Arc<Vec<u64>>,
        artifact: Artifact,
        hour: u64,
    ) {
        self.persist(id, layout_hash, raster_hash, &column_hashes, &artifact, hour);
        self.ram()
            .insert(id, layout_hash, raster_hash, column_hashes, artifact);
    }
}

impl ArtifactTier for ArtifactCache {
    fn ram(&mut self) -> &mut ArtifactCache {
        self
    }
}

/// RAM LRU over the persistent disk store. A disk hit deserializes once,
/// re-chunks the page and promotes the `Arc`-shared artifact into the RAM
/// tier, which is what makes restarts warm. Store writes ride every
/// insert (content-dedup keeps them cheap); store I/O errors are counted,
/// never propagated — the RAM tier alone keeps the refresh correct.
#[derive(Debug)]
pub struct TieredCache {
    /// The RAM tier (stats live here, including `disk_promotions`).
    pub ram: ArtifactCache,
    disk: SharedArtifactStore,
}

impl TieredCache {
    /// RAM tier over a shared disk store.
    pub fn with_store(ram: ArtifactCache, store: SharedArtifactStore) -> Self {
        TieredCache { ram, disk: store }
    }
}

impl ArtifactTier for TieredCache {
    fn ram(&mut self) -> &mut ArtifactCache {
        &mut self.ram
    }

    fn promote_if(&mut self, id: PageId, stored_ok: impl Fn(u64, u64) -> bool) -> bool {
        let loaded = {
            let mut store = self.disk.borrow_mut();
            match store.entry_meta(id) {
                Some((layout, raster, _)) if stored_ok(layout, raster) => store.load(id),
                _ => None,
            }
        };
        let Some(loaded) = loaded else { return false };
        self.ram.insert(
            id,
            loaded.layout_hash,
            loaded.raster_hash,
            loaded.column_hashes,
            loaded.artifact,
        );
        self.ram.stats.disk_promotions += 1;
        true
    }

    fn persist(
        &mut self,
        id: PageId,
        layout_hash: u64,
        raster_hash: u64,
        column_hashes: &[u64],
        artifact: &Artifact,
        hour: u64,
    ) {
        let mut store = self.disk.borrow_mut();
        if store
            .put(id, layout_hash, raster_hash, column_hashes, artifact, hour)
            .is_err()
        {
            // The RAM tier alone keeps the refresh correct; the store
            // just loses this entry's persistence.
            store.stats.io_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_image::clickmap::ClickMap;
    use sonic_image::raster::Raster;

    fn artifact(url: &str, height: usize) -> Artifact {
        let p = Arc::new(SimplifiedPage::from_raster(
            url,
            &Raster::new(6, height),
            ClickMap::default(),
            0,
            2,
        ));
        let frames = Arc::new(crate::chunker::page_to_frames(&p));
        Artifact {
            page: p,
            frames,
            audio: Arc::default(),
        }
    }

    fn pid(site: usize) -> PageId {
        PageId { site, page: 0 }
    }

    #[test]
    fn layout_hit_requires_matching_hash() {
        let mut c = ArtifactCache::unbounded();
        let a = artifact("https://a.pk/", 40);
        c.insert(pid(0), 111, 222, Arc::new(vec![1; 6]), a);
        assert!(c.get_if_layout(pid(0), 111).is_some());
        assert!(c.get_if_layout(pid(0), 999).is_none());
        assert!(c.get_if_layout(pid(1), 111).is_none());
        assert_eq!(c.stats.full_hits, 1);
    }

    #[test]
    fn raster_hit_checks_meta_and_refreshes_layout_hash() {
        let mut c = ArtifactCache::unbounded();
        let a = artifact("https://a.pk/", 40);
        let cm = a.page.clickmap.clone();
        let ttl = a.page.ttl_hours;
        c.insert(pid(0), 111, 222, Arc::new(vec![1; 6]), a);
        // Layout hash moved, raster identical: hit, and the layout hash is
        // refreshed so the next lookup hits the cheap path.
        let hit = c.get_if_raster(pid(0), 222, 333, "https://a.pk/", &cm, ttl);
        assert!(hit.is_some());
        assert!(c.get_if_layout(pid(0), 333).is_some());
        // Any meta mismatch refuses the hit (meta rides in the frames).
        assert!(c.get_if_raster(pid(0), 222, 444, "https://b.pk/", &cm, ttl).is_none());
        assert!(c.get_if_raster(pid(0), 222, 444, "https://a.pk/", &cm, ttl + 1).is_none());
        assert!(c.get_if_raster(pid(0), 999, 444, "https://a.pk/", &cm, ttl).is_none());
    }

    #[test]
    fn delta_basis_returns_cached_state() {
        let mut c = ArtifactCache::unbounded();
        let hashes = Arc::new(vec![7u64; 6]);
        c.insert(pid(0), 1, 2, hashes.clone(), artifact("u", 30));
        let (a, h) = c.delta_basis(pid(0)).expect("cached");
        assert!(Arc::ptr_eq(&h, &hashes));
        assert_eq!(a.page.url, "u");
        assert!(c.delta_basis(pid(1)).is_none());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let a0 = artifact("a", 200);
        let budget = 2 * (a0.resident_bytes() + 6 * 8) + 64;
        let mut c = ArtifactCache::new(budget);
        c.insert(pid(0), 1, 1, Arc::new(vec![0; 6]), a0);
        c.insert(pid(1), 2, 2, Arc::new(vec![0; 6]), artifact("b", 200));
        // Touch page 0 so page 1 is the LRU victim.
        assert!(c.get_if_layout(pid(0), 1).is_some());
        c.insert(pid(2), 3, 3, Arc::new(vec![0; 6]), artifact("c", 200));
        assert_eq!(c.stats.evictions, 1);
        assert!(c.get_if_layout(pid(0), 1).is_some(), "recently used survives");
        assert!(c.get_if_layout(pid(1), 2).is_none(), "LRU evicted");
        assert!(c.get_if_layout(pid(2), 3).is_some(), "new entry survives");
        assert!(c.bytes() <= budget);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut c = ArtifactCache::unbounded();
        c.insert(pid(0), 1, 1, Arc::new(vec![0; 6]), artifact("a", 100));
        let after_first = c.bytes();
        c.insert(pid(0), 2, 2, Arc::new(vec![0; 6]), artifact("a", 100));
        assert_eq!(c.bytes(), after_first, "replacement must not accumulate");
        assert_eq!(c.len(), 1);
    }
}
