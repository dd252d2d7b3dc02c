//! Crash-safety and determinism tests for the persistent tiered artifact
//! store: put/load identity, seeded corruption of the index log recovering
//! exactly the CRC-valid prefix, blobs that pass their CRC and are not
//! blobs, same-seed byte-identical on-disk state, and live-byte budget
//! eviction; and the page-metadata decoders every blob (and every page on
//! air) is read through, under random pages and hostile bytes.

use proptest::prelude::*;
use sonic_core::chunker::page_to_frames;
use sonic_core::page::SimplifiedPage;
use sonic_core::server::cache::{share_store, Artifact, ArtifactCache, TieredCache};
use sonic_core::server::pipeline::{refresh_frames_only, PageJob};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::{ArtifactStore, RECORD_LEN};
use sonic_fec::crc32;
use sonic_image::clickmap::{ClickMap, ClickRegion};
use sonic_image::raster::{Raster, Rgb};
use sonic_image::strip::{self, StripImage};
use sonic_pagegen::{Corpus, PageId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of bytes requested, so a test can say
/// how much one call allocated whatever the other test threads are doing.
struct Counting;

fn note(size: usize) {
    // A thread that is tearing down has no counter left; nothing measures it.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + size));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state
// and, being a const-initialised `Cell<usize>`, never allocates itself.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: (contract) the caller passes a layout of non-zero size.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: (contract) `ptr` came from this allocator with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block this allocator hands out came from `System`
        // with the same layout, so `System` may free it.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: (contract) `ptr` came from this allocator with `layout`, and
    // `new_size` is non-zero and does not overflow when rounded up.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live `System` block (see
        // `dealloc`); `new_size` is the caller's, forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Self-cleaning test directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "sonic-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(1103515245).wrapping_add(12345)
}

/// Deterministic raster from a seed (LCG fill).
fn raster_from_seed(w: usize, h: usize, seed: u64) -> Raster {
    let mut img = Raster::new(w, h);
    let mut s = seed | 1;
    for y in 0..h {
        for x in 0..w {
            s = lcg(s);
            let v = (s >> 32) as u8;
            img.set(x, y, Rgb::new(v, v.wrapping_add(61), v ^ 0xA5));
        }
    }
    img
}

/// Builds an artifact (page, frames) plus its column-hash index, exactly
/// like the cold refresh path.
fn artifact_from_seed(seed: u64) -> (Artifact, Vec<u64>) {
    let raster = raster_from_seed(12 + (seed % 7) as usize, 40, seed);
    let hashes = strip::column_hashes(&raster);
    let page = Arc::new(SimplifiedPage::from_raster(
        &format!("https://store.pk/{seed}"),
        &raster,
        ClickMap::default(),
        (seed % 100) as u16,
        6,
    ));
    let frames = Arc::new(page_to_frames(&page));
    (
        Artifact {
            page,
            frames,
            audio: Arc::default(),
        },
        hashes,
    )
}

fn id(n: u64) -> PageId {
    PageId {
        site: (n / 8) as usize,
        page: (n % 8) as usize,
    }
}

/// One valid index record for `blob` at offset 0 of `blobs.dat`, in the
/// layout `store.rs` documents (69 bytes, big-endian, CRC last).
fn index_record(id: PageId, layout_hash: u64, raster_hash: u64, blob: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_LEN);
    rec.extend_from_slice(b"SID2");
    rec.push(1); // insert
    rec.extend_from_slice(&(id.site as u32).to_be_bytes());
    rec.extend_from_slice(&(id.page as u32).to_be_bytes());
    rec.extend_from_slice(&layout_hash.to_be_bytes());
    rec.extend_from_slice(&raster_hash.to_be_bytes());
    rec.extend_from_slice(&0u64.to_be_bytes()); // hour
    rec.extend_from_slice(&0u64.to_be_bytes()); // offset
    rec.extend_from_slice(&(blob.len() as u64).to_be_bytes());
    rec.extend_from_slice(&0xB10Bu64.to_be_bytes()); // blob key: any
    rec.extend_from_slice(&crc32(blob).to_be_bytes());
    let crc = crc32(&rec);
    rec.extend_from_slice(&crc.to_be_bytes());
    assert_eq!(rec.len(), RECORD_LEN);
    rec
}

/// A store directory holding exactly `blob` for `id`, behind an index
/// record whose CRC matches it: what a crash cannot produce but another
/// program version, or a disk, can.
fn plant(dir: &Path, id: PageId, layout_hash: u64, raster_hash: u64, blob: &[u8]) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("blobs.dat"), blob).unwrap();
    std::fs::write(dir.join("index.log"), index_record(id, layout_hash, raster_hash, blob)).unwrap();
}

/// The blob bytes `put` writes for one artifact.
fn blob_of(art: &Artifact, hashes: &[u64], tag: &str) -> Vec<u8> {
    let dir = TempDir::new(tag);
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    store.put(id(0), 1, 2, hashes, art, 0).unwrap();
    std::fs::read(dir.path().join("blobs.dat")).unwrap()
}

#[test]
fn put_load_roundtrip_is_identical() {
    let dir = TempDir::new("roundtrip");
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    let (art, hashes) = artifact_from_seed(42);
    let wrote = store.put(id(0), 11, 22, &hashes, &art, 6).unwrap();
    assert!(wrote, "first put must append a blob");

    let got = store.load(id(0)).expect("entry is live");
    assert_eq!(got.layout_hash, 11);
    assert_eq!(got.raster_hash, 22);
    assert_eq!(got.hour, 6);
    assert_eq!(&*got.column_hashes, &hashes);
    assert_eq!(got.artifact.page.url, art.page.url);
    assert_eq!(got.artifact.page.version, art.page.version);
    assert_eq!(got.artifact.page.strips.strips, art.page.strips.strips);
    assert_eq!(got.artifact.page.page_id, art.page.page_id);
    assert_eq!(&*got.artifact.frames, &*art.frames, "frames recompute");
    assert!(got.artifact.audio.is_empty());

    // Reopen and load again: the log replays to the same state.
    drop(store);
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.stats.recovered_entries, 1);
    assert_eq!(store.stats.truncated_index_bytes, 0);
    let again = store.load(id(0)).expect("entry survived reopen");
    assert_eq!(&*again.column_hashes, &hashes);
    assert_eq!(&*again.artifact.frames, &*art.frames);
}

#[test]
fn identical_content_is_written_once() {
    let dir = TempDir::new("dedupe");
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    let (art, hashes) = artifact_from_seed(7);
    assert!(store.put(id(0), 1, 2, &hashes, &art, 0).unwrap());
    let before = store.blob_file_bytes();
    // Same content under another page id: index record only, no new blob.
    assert!(!store.put(id(1), 1, 2, &hashes, &art, 0).unwrap());
    assert_eq!(store.blob_file_bytes(), before);
    assert_eq!(store.stats.blob_reuses, 1);
    // Exact re-put under the same id and addresses: complete no-op.
    let log_len = std::fs::metadata(dir.path().join("index.log")).unwrap().len();
    assert!(!store.put(id(0), 1, 2, &hashes, &art, 0).unwrap());
    assert_eq!(
        std::fs::metadata(dir.path().join("index.log")).unwrap().len(),
        log_len,
        "no-op put must not grow the log"
    );
}

#[test]
fn same_seed_runs_produce_byte_identical_store_state() {
    let dir_a = TempDir::new("bytes-a");
    let dir_b = TempDir::new("bytes-b");
    for dir in [dir_a.path(), dir_b.path()] {
        let mut store = ArtifactStore::open(dir, u64::MAX).unwrap();
        for n in 0..6u64 {
            let (art, hashes) = artifact_from_seed(100 + n);
            store
                .put(id(n), lcg(n), lcg(lcg(n)), &hashes, &art, n)
                .unwrap();
        }
        // One refresh of an existing page, same order both runs.
        let (art, hashes) = artifact_from_seed(999);
        store.put(id(2), 5, 6, &hashes, &art, 7).unwrap();
    }
    for file in ["blobs.dat", "index.log"] {
        let a = std::fs::read(dir_a.path().join(file)).unwrap();
        let b = std::fs::read(dir_b.path().join(file)).unwrap();
        assert_eq!(a, b, "{file} must be byte-identical across same-seed runs");
    }
}

#[test]
fn eviction_holds_live_byte_budget_in_lru_order() {
    let dir = TempDir::new("evict");
    // Budget sized to roughly two artifacts.
    let (probe, probe_hashes) = artifact_from_seed(1);
    let mut sizing = ArtifactStore::open(dir.path().join("sizing"), u64::MAX).unwrap();
    sizing.put(id(0), 0, 0, &probe_hashes, &probe, 0).unwrap();
    let one = sizing.live_bytes();
    drop(sizing);

    let budget = one * 5 / 2;
    let mut store = ArtifactStore::open(dir.path().join("real"), budget).unwrap();
    for n in 0..4u64 {
        let (art, hashes) = artifact_from_seed(n + 1);
        store.put(id(n), n, n, &hashes, &art, n).unwrap();
        assert!(
            store.live_bytes() <= budget || store.len() == 1,
            "budget must hold after every put"
        );
    }
    assert!(store.stats.evictions > 0, "four puts must overflow the budget");
    // LRU: the oldest pages went first, the newest survived.
    assert!(store.load(id(3)).is_some(), "newest entry must survive");
    assert!(store.load(id(0)).is_none(), "oldest entry must be evicted");

    // Reopen replays the evictions too.
    let survivors = store.len();
    drop(store);
    let store = ArtifactStore::open(dir.path().join("real"), budget).unwrap();
    assert_eq!(store.len(), survivors);
    assert!(store.live_bytes() <= budget);
}

#[test]
fn corrupt_blob_fails_load_without_panicking() {
    let dir = TempDir::new("blobcrc");
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    let (art, hashes) = artifact_from_seed(13);
    store.put(id(0), 1, 2, &hashes, &art, 0).unwrap();
    drop(store);

    // Flip one byte in the middle of the blob file.
    let blob_path = dir.path().join("blobs.dat");
    let mut bytes = std::fs::read(&blob_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&blob_path, &bytes).unwrap();

    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    assert!(store.load(id(0)).is_none(), "corrupt blob must not decode");
    assert_eq!(store.stats.corrupt_blobs, 1);
    assert_eq!(store.len(), 0, "corrupt entry is dropped");
}

/// A blob in the format before this one (`"SOL2"`: little-endian, with the
/// page metadata in a layout of its own), as that version wrote it.
fn previous_format_blob(art: &Artifact, hashes: &[u64]) -> Vec<u8> {
    let p = &art.page;
    let mut blob = b"SOL2".to_vec();
    for field in [p.version, p.ttl_hours, p.url.len() as u16] {
        blob.extend_from_slice(&field.to_le_bytes());
    }
    blob.extend_from_slice(p.url.as_bytes());
    blob.extend_from_slice(&(p.strips.width as u32).to_le_bytes());
    blob.extend_from_slice(&(p.strips.height as u32).to_le_bytes());
    for strip in &p.strips.strips {
        blob.extend_from_slice(&(strip.len() as u32).to_le_bytes());
        blob.extend_from_slice(strip);
    }
    let clickmap = p.clickmap.encode();
    blob.extend_from_slice(&(clickmap.len() as u32).to_le_bytes());
    blob.extend_from_slice(&clickmap);
    blob.extend_from_slice(&(hashes.len() as u32).to_le_bytes());
    for h in hashes {
        blob.extend_from_slice(&h.to_le_bytes());
    }
    blob
}

/// `index_record` in the format before this one: little-endian, `"SIDX"`.
fn previous_format_index_record(id: PageId, layout_hash: u64, raster_hash: u64, blob: &[u8]) -> Vec<u8> {
    let mut rec = b"SIDX".to_vec();
    rec.push(1); // insert
    rec.extend_from_slice(&(id.site as u32).to_le_bytes());
    rec.extend_from_slice(&(id.page as u32).to_le_bytes());
    for field in [layout_hash, raster_hash, 0, 0, blob.len() as u64, 0xB10B] {
        rec.extend_from_slice(&field.to_le_bytes());
    }
    rec.extend_from_slice(&crc32(blob).to_le_bytes());
    let crc = crc32(&rec);
    rec.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(rec.len(), RECORD_LEN);
    rec
}

#[test]
fn previous_format_store_is_dropped_entry_by_entry_and_rebuilt() {
    let r = Renderer::new(Corpus::small(1), 0.05);
    let job = PageJob { id: PageId { site: 0, page: 0 }, hour: 6 };
    let open_tier = |dir: &Path| {
        let store = share_store(ArtifactStore::open(dir, u64::MAX).unwrap());
        (TieredCache::with_store(ArtifactCache::unbounded(), store.clone()), store)
    };

    // The addresses and content this page is stored under today.
    let fresh = TempDir::new("prev-fresh");
    let (mut tier, store) = open_tier(fresh.path());
    let built = refresh_frames_only(&r, &mut tier, &[job]).pop().unwrap();
    let (layout_hash, raster_hash, _) = store.borrow().entry_meta(job.id).unwrap();
    let hashes = store.borrow_mut().load(job.id).unwrap().column_hashes;

    // The same page as the previous version left it on disk.
    let dir = TempDir::new("prev-planted");
    let old = previous_format_blob(&built, &hashes);
    plant(dir.path(), job.id, layout_hash, raster_hash, &old);
    let (mut tier, store) = open_tier(dir.path());
    assert_eq!(store.borrow().len(), 1, "the index record itself is valid");

    // The first rung finds the layout hash it wants, loads, and is refused.
    let rebuilt = refresh_frames_only(&r, &mut tier, &[job]).pop().unwrap();
    assert_eq!(store.borrow().stats.corrupt_blobs, 1);
    assert_eq!(tier.ram.stats.disk_promotions, 0);
    assert_eq!(tier.ram.stats.misses, 1, "rebuilt cold, not from the old strips");
    assert_eq!(*rebuilt.frames, *built.frames);

    // ... and the rebuild took the entry's place.
    let mut store = store.borrow_mut();
    assert_eq!(store.len(), 1);
    assert!(store.blob_file_bytes() > old.len() as u64, "appended after the old blob");
    assert_eq!(*store.load(job.id).expect("overwritten").artifact.frames, *built.frames);

    // A store the previous version wrote whole, blob and index: the log's
    // first record has the old framing, so the scan stops there, both
    // files are truncated, and the page is rebuilt cold.
    let whole = TempDir::new("prev-whole");
    std::fs::create_dir_all(whole.path()).unwrap();
    std::fs::write(whole.path().join("blobs.dat"), &old).unwrap();
    let old_record = previous_format_index_record(job.id, layout_hash, raster_hash, &old);
    std::fs::write(whole.path().join("index.log"), old_record).unwrap();
    let (mut tier, store) = open_tier(whole.path());
    let stats = store.borrow().stats;
    assert_eq!(store.borrow().len(), 0, "nothing is read in the old framing");
    assert_eq!(stats.truncated_index_bytes, RECORD_LEN as u64);
    assert_eq!(stats.truncated_blob_bytes, old.len() as u64);
    let rebuilt = refresh_frames_only(&r, &mut tier, &[job]).pop().unwrap();
    assert_eq!(tier.ram.stats.misses, 1, "rebuilt cold");
    assert_eq!(*rebuilt.frames, *built.frames);
    let mut store = store.borrow_mut();
    assert_eq!(store.len(), 1);
    assert_eq!(*store.load(job.id).expect("rebuilt").artifact.frames, *built.frames);
}

#[test]
fn bytes_after_the_last_section_refuse_the_blob() {
    let (art, hashes) = artifact_from_seed(5);
    let mut blob = blob_of(&art, &hashes, "trailing-src");
    let dir = TempDir::new("trailing");
    plant(dir.path(), id(0), 1, 2, &blob);
    assert!(ArtifactStore::open(dir.path(), u64::MAX).unwrap().load(id(0)).is_some());

    blob.push(0);
    plant(dir.path(), id(0), 1, 2, &blob);
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    assert!(store.load(id(0)).is_none());
    assert_eq!((store.stats.corrupt_blobs, store.len()), (1, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corrupting or truncating `index.log` at a random offset never
    /// panics, and reopening recovers exactly the CRC-valid record prefix:
    /// every record before the damage replays, everything after is
    /// truncated away, and every surviving entry still loads the strips and
    /// column hashes that were put.
    #[test]
    fn reopen_recovers_exactly_the_crc_valid_prefix(
        seed in any::<u64>(),
        n_puts in 2usize..6,
        damage_at in any::<u64>(),
        flip in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let dir = TempDir::new(&format!("crash-{seed}-{n_puts}"));
        let mut reference = Vec::new();
        {
            let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
            for n in 0..n_puts as u64 {
                let (art, hashes) = artifact_from_seed(lcg(seed) ^ n);
                store.put(id(n), lcg(n ^ seed), lcg(n), &hashes, &art, n).unwrap();
                reference.push((art.page.strips.strips.clone(), hashes));
            }
        }

        let log_path = dir.path().join("index.log");
        let mut log = std::fs::read(&log_path).unwrap();
        prop_assert_eq!(log.len(), n_puts * RECORD_LEN, "unbounded store: insert records only");
        let at = (damage_at % log.len() as u64) as usize;
        if truncate {
            log.truncate(at);
        } else {
            log[at] ^= flip | 1;
        }
        std::fs::write(&log_path, &log).unwrap();

        // Records strictly before the damaged offset are intact; the
        // damaged record and everything after must be dropped (a bad CRC
        // stops the scan — records after it are unreachable by design).
        let intact = at / RECORD_LEN;
        let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
        prop_assert_eq!(store.len(), intact);
        prop_assert_eq!(store.stats.recovered_entries, intact as u64);
        prop_assert_eq!(
            std::fs::metadata(&log_path).unwrap().len(),
            (intact * RECORD_LEN) as u64,
            "torn tail truncated to the valid prefix"
        );
        for n in 0..intact as u64 {
            let got = store.load(id(n));
            let got = got.expect("intact-prefix entry must load");
            let (strips, hashes) = &reference[n as usize];
            prop_assert_eq!(&got.artifact.page.strips.strips, strips);
            prop_assert_eq!(&*got.column_hashes, hashes);
        }
        for n in intact as u64..n_puts as u64 {
            prop_assert!(store.load(id(n)).is_none(), "post-damage entries are gone");
        }

        // The store stays writable after recovery.
        let (art, hashes) = artifact_from_seed(seed ^ 0xDEAD);
        store.put(id(90), 1, 2, &hashes, &art, 9).unwrap();
        prop_assert_eq!(store.len(), intact + 1);
    }

}

/// Offsets of the blob's count and length fields (the layout `store.rs`
/// documents): the metadata length, then inside the metadata the width,
/// height, URL length and click-map region count, then every strip's length.
fn count_fields(art: &Artifact) -> Vec<usize> {
    let meta = 4 + 4;
    let mut fields = vec![4, meta, meta + 2, meta + 10, meta + 12 + art.page.url.len()];
    let mut at = meta + art.page.meta_blob().len();
    for strip in &art.page.strips.strips {
        fields.push(at);
        at += 4 + strip.len();
    }
    fields
}

/// Plants `blob` behind a matching CRC and loads it: whatever the bytes,
/// `load` does not panic, asks the allocator for no more than a small
/// multiple of the blob's length, and either returns a consistent artifact
/// or counts and drops the entry.
fn load_planted(blob: &[u8], tag: &str) {
    let dir = TempDir::new(tag);
    plant(dir.path(), id(0), 1, 2, blob);
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();

    let before = REQUESTED.with(Cell::get);
    let got = store.load(id(0));
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(
        requested <= 16 * blob.len() + 4096,
        "{requested} bytes requested for a {}-byte blob",
        blob.len()
    );
    match got {
        Some(got) => {
            assert_eq!(store.len(), 1);
            assert_eq!(got.column_hashes.len(), got.artifact.page.strips.width);
            assert_eq!(*got.artifact.frames, page_to_frames(&got.artifact.page));
        }
        None => {
            assert_eq!(store.stats.corrupt_blobs, 1);
            assert_eq!(store.len(), 0);
        }
    }
}

#[test]
fn a_blown_up_count_field_allocates_nothing_for_it() {
    let (art, hashes) = artifact_from_seed(77);
    let blob = blob_of(&art, &hashes, "counts-src");
    for field in count_fields(&art) {
        // The largest u32, and the largest width the decoder accepts.
        for huge in [u32::MAX, u32::from(u16::MAX)] {
            let mut blown = blob.clone();
            blown[field..field + 4].copy_from_slice(&huge.to_le_bytes());
            load_planted(&blown, "counts");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A real blob truncated or with a bit flipped, or plain byte soup
    /// after the magic, behind a matching CRC.
    #[test]
    fn any_bytes_behind_a_matching_crc_load_or_are_dropped_cheaply(
        seed in any::<u64>(),
        kind in 0u8..3,
        at in any::<u64>(),
        flip in any::<u8>(),
        soup in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let (art, hashes) = artifact_from_seed(seed);
        let mut blob = blob_of(&art, &hashes, &format!("soup-src-{seed}"));
        let byte = (at % blob.len() as u64) as usize;
        match kind {
            0 => blob.truncate(byte),
            1 => blob[byte] ^= flip | 1,
            _ => {
                blob.truncate(4);
                blob.extend_from_slice(&soup);
            }
        }
        load_planted(&blob, &format!("soup-{seed}-{kind}"));
    }
}

/// Random click-map regions: corners, sizes and a target of up to 60
/// characters, some of them two bytes long in UTF-8.
type Regions = Vec<(u16, u16, u16, u16, String)>;

fn regions_strategy() -> impl Strategy<Value = Regions> {
    proptest::collection::vec(
        (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>(), "[a-z0-9./:?=é-ü]{0,60}"),
        0..8,
    )
}

/// A page with the given metadata; the strips are irrelevant to it.
fn meta_page(url: &str, width: usize, height: usize, ttl: u16, version: u16, regions: Regions) -> SimplifiedPage {
    let clickmap = ClickMap {
        regions: regions
            .into_iter()
            .map(|(x, y, w, h, target)| ClickRegion { x, y, w, h, target })
            .collect(),
    };
    let strips = StripImage { width, height, strips: Vec::new() };
    SimplifiedPage::from_parts(url, strips, clickmap, version, ttl)
}

/// Runs both metadata decoders on `bytes`: neither may panic or ask the
/// allocator for more than a small multiple of the input, and whatever
/// parses re-encodes to a prefix of the input (the decoders ignore what
/// follows the click map, and accept nothing else).
fn decode_meta_bytes(bytes: &[u8]) {
    let before = REQUESTED.with(Cell::get);
    let meta = SimplifiedPage::parse_meta(bytes);
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(requested <= 8 * bytes.len(), "parse_meta: {requested} B for {} B", bytes.len());
    if let Some((width, height, ttl, version, url, clickmap)) = meta {
        let regions = clickmap
            .regions
            .into_iter()
            .map(|r| (r.x, r.y, r.w, r.h, r.target))
            .collect();
        let again = meta_page(&url, width, height, ttl, version, regions).meta_blob();
        assert!(bytes.starts_with(&again), "parse_meta accepted a non-canonical blob");
    }

    let before = REQUESTED.with(Cell::get);
    let clickmap = ClickMap::decode(bytes);
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(requested <= 8 * bytes.len(), "ClickMap::decode: {requested} B for {} B", bytes.len());
    if let Some(clickmap) = clickmap {
        assert!(bytes.starts_with(&clickmap.encode()), "ClickMap::decode accepted a non-canonical map");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `meta_blob` → `parse_meta` and `encode` → `ClickMap::decode` give
    /// back every field of a random page.
    #[test]
    fn meta_blob_round_trips_for_random_pages(
        url in "[a-z0-9./:?=é-ü]{0,80}",
        width in 1usize..=65_535,
        height in 1usize..=4_000_000_000,
        ttl in any::<u16>(),
        version in any::<u16>(),
        regions in regions_strategy(),
    ) {
        let page = meta_page(&url, width, height, ttl, version, regions);
        prop_assert_eq!(
            SimplifiedPage::parse_meta(&page.meta_blob()),
            Some((width, height, ttl, version, url, page.clickmap.clone()))
        );
        prop_assert_eq!(ClickMap::decode(&page.clickmap.encode()), Some(page.clickmap));
    }

    /// A random page's metadata truncated, with a bit flipped, or replaced
    /// by byte soup: both decoders stay total and cheap.
    #[test]
    fn meta_decoders_are_total_on_hostile_bytes(
        url in "[a-z0-9./:?=é-ü]{0,80}",
        regions in regions_strategy(),
        kind in 0u8..3,
        at in any::<u64>(),
        flip in any::<u8>(),
        soup in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut bytes = meta_page(&url, 1080, 2400, 24, 7, regions).meta_blob();
        let byte = (at % bytes.len() as u64) as usize;
        match kind {
            0 => bytes.truncate(byte),
            1 => bytes[byte] ^= flip | 1,
            _ => bytes = soup,
        }
        decode_meta_bytes(&bytes);
        // The click map alone, as it sits after the URL.
        let clickmap_at = (12 + url.len()).min(bytes.len());
        decode_meta_bytes(&bytes[clickmap_at..]);
    }
}
