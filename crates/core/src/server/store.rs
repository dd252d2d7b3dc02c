//! Persistent tiered artifact store: the disk tier under the RAM
//! [`ArtifactCache`](crate::server::cache::ArtifactCache).
//!
//! Two append-only files live in the store directory:
//!
//! * `blobs.dat` — write-once blob data. A blob is one serialized artifact
//!   (the page's on-air metadata blob, per-column strip bytes, column
//!   hashes) — kilobytes, never a waveform. Blobs are content-addressed by
//!   an FNV-64 of their bytes: a `put` whose blob already exists reuses the
//!   existing span and writes nothing to the data file.
//! * `index.log` — fixed-size CRC-framed records, one per mutation
//!   (insert or evict). The in-memory entry map is a pure fold over the
//!   record sequence, so reopening replays the log.
//!
//! Both files are big-endian and read through [`ByteReader`], like every
//! other decoder of outside bytes.
//!
//! **Crash safety** is scan-and-truncate: on open the log is read
//! sequentially and stops at the first record that is short, has a bad
//! magic, fails its CRC, or points past the end of the data file (a torn
//! blob tail). Everything before that point — exactly the CRC-valid
//! prefix — is recovered; the torn tail of both files is truncated so the
//! next append starts clean.
//!
//! **Determinism**: entries live in a `BTreeMap`, eviction order is the
//! replayed LRU clock, and nothing reads a wall clock — versions are keyed
//! by the logical broadcast hour the caller passes in. Two same-seed runs
//! produce byte-identical `blobs.dat` + `index.log`.
//!
//! Frames are *not* stored: `page_to_frames` is a pure function of the
//! page, so [`load`](ArtifactStore::load) recomputes them — cheaper than
//! the disk bytes they would cost. Audio is not stored either: it is made
//! for the slot that airs (`pipeline::refresh_carousel`).

use crate::chunker::page_to_frames;
use crate::page::SimplifiedPage;
use crate::server::cache::Artifact;
use sonic_fec::crc32;
use sonic_image::bitio::ByteReader;
use sonic_image::hash::Fnv64;
use sonic_image::strip::StripImage;
use sonic_pagegen::PageId;
use std::collections::BTreeMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Index record framing: `"SID2"`. `"SIDX"` framed the little-endian
/// records before; a log in it stops the scan at its first record, so the
/// store opens empty and is rebuilt.
const RECORD_MAGIC: u32 = u32::from_be_bytes(*b"SID2");
/// Blob framing magic (first field of every serialized artifact): `"SOL3"`.
/// `"SOL2"` was the little-endian format with its own copy of the page
/// metadata, and `"SOLB"` the one before that also carried audio and burst
/// spans; a blob in either is refused at `load` and rebuilt.
const BLOB_MAGIC: u32 = u32::from_be_bytes(*b"SOL3");
/// Fixed index record size in bytes (magic..record CRC inclusive).
pub const RECORD_LEN: usize = 69;

/// Record kinds.
const KIND_INSERT: u8 = 1;
const KIND_EVICT: u8 = 2;

/// One live entry of the store's index.
#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    layout_hash: u64,
    raster_hash: u64,
    hour: u64,
    offset: u64,
    len: u64,
    blob_key: u64,
    blob_crc: u32,
    last_used: u64,
}

/// An artifact loaded from the disk tier, with the content addresses the
/// RAM tier needs to re-index it.
#[derive(Debug)]
pub struct StoredArtifact {
    /// The reconstructed artifact (frames recomputed).
    pub artifact: Artifact,
    /// Per-column raster hashes (the delta-diff index).
    pub column_hashes: Arc<Vec<u64>>,
    /// Layout hash the entry was stored under.
    pub layout_hash: u64,
    /// Raster hash the entry was stored under.
    pub raster_hash: u64,
    /// Logical hour the artifact was built.
    pub hour: u64,
}

/// Store counters (bench + soak diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `put` calls that appended a new blob.
    pub inserts: u64,
    /// `put` calls whose blob already existed (write-once dedupe).
    pub blob_reuses: u64,
    /// Entries evicted to hold the byte budget.
    pub evictions: u64,
    /// Successful `load`s.
    pub loads: u64,
    /// Blobs dropped on load because their bytes failed the stored CRC or
    /// did not decode.
    pub corrupt_blobs: u64,
    /// I/O errors swallowed by the tiered fast path (entry kept in RAM).
    pub io_errors: u64,
    /// Entries recovered by the rebuild-on-open scan.
    pub recovered_entries: u64,
    /// Torn index-log bytes truncated on open.
    pub truncated_index_bytes: u64,
    /// Torn blob bytes truncated on open.
    pub truncated_blob_bytes: u64,
}

/// Disk-backed write-once artifact store. See the module docs for the file
/// formats and crash-safety rules.
#[derive(Debug)]
pub struct ArtifactStore {
    data: std::fs::File,
    index: std::fs::File,
    entries: BTreeMap<PageId, StoreEntry>,
    /// blob key → (offset, len, crc, live refcount). Write-once dedupe and
    /// live-byte accounting over distinct blobs.
    blobs: BTreeMap<u64, (u64, u64, u32, u32)>,
    /// Next append offset in `blobs.dat`.
    append_off: u64,
    byte_budget: u64,
    clock: u64,
    /// Counters.
    pub stats: StoreStats,
}

impl ArtifactStore {
    /// Opens (creating if absent) the store in `dir`, bounded to
    /// `byte_budget` live blob bytes, replaying and crash-repairing the
    /// index log.
    pub fn open(dir: impl AsRef<Path>, byte_budget: u64) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let data = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("blobs.dat"))?;
        let index = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("index.log"))?;
        let mut store = ArtifactStore {
            data,
            index,
            entries: BTreeMap::new(),
            blobs: BTreeMap::new(),
            append_off: 0,
            byte_budget,
            clock: 0,
            stats: StoreStats::default(),
        };
        store.rebuild()?;
        Ok(store)
    }

    /// Scan + CRC-validate the index log, fold the valid prefix into the
    /// entry map, truncate both torn tails.
    fn rebuild(&mut self) -> io::Result<()> {
        let data_len = self.data.seek(SeekFrom::End(0))?;
        self.index.seek(SeekFrom::Start(0))?;
        let mut log = Vec::new();
        self.index.read_to_end(&mut log)?;

        let mut valid = 0usize;
        while let Some(rec) = log.get(valid..valid + RECORD_LEN) {
            let Some((kind, id, mut entry)) = read_record(rec) else {
                break;
            };
            match kind {
                KIND_INSERT => {
                    if entry.offset.saturating_add(entry.len) > data_len {
                        break; // record outlived its torn blob
                    }
                    entry.last_used = self.clock;
                    self.clock += 1;
                    self.apply_insert(id, entry);
                    self.append_off = self.append_off.max(entry.offset + entry.len);
                }
                KIND_EVICT => {
                    self.remove_entry(id);
                }
                _ => break,
            }
            valid += RECORD_LEN;
        }
        self.stats.recovered_entries = self.entries.len() as u64;
        self.stats.truncated_index_bytes = (log.len() - valid) as u64;
        if valid < log.len() {
            self.index.set_len(valid as u64)?;
        }
        if self.append_off < data_len {
            self.stats.truncated_blob_bytes = data_len - self.append_off;
            self.data.set_len(self.append_off)?;
        }
        self.index.seek(SeekFrom::End(0))?;
        Ok(())
    }

    fn apply_insert(&mut self, id: PageId, entry: StoreEntry) {
        if let Some(old) = self.entries.insert(id, entry) {
            self.deref_blob(old.blob_key);
        }
        let slot = self
            .blobs
            .entry(entry.blob_key)
            .or_insert((entry.offset, entry.len, entry.blob_crc, 0));
        slot.3 += 1;
    }

    fn remove_entry(&mut self, id: PageId) -> bool {
        match self.entries.remove(&id) {
            Some(e) => {
                self.deref_blob(e.blob_key);
                true
            }
            None => false,
        }
    }

    /// Drops one reference. A dead blob keeps its file bytes (write-once)
    /// and its map entry, so a later put of the same content still reuses
    /// the span; it just no longer counts against the live budget.
    fn deref_blob(&mut self, key: u64) {
        if let Some(slot) = self.blobs.get_mut(&key) {
            slot.3 = slot.3.saturating_sub(1);
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of blobs referenced by at least one live entry.
    pub fn live_bytes(&self) -> u64 {
        self.blobs
            .values()
            .filter(|(_, _, _, refs)| *refs > 0)
            .map(|(_, len, _, _)| *len)
            .sum()
    }

    /// Total bytes appended to `blobs.dat` (live + dead).
    pub fn blob_file_bytes(&self) -> u64 {
        self.append_off
    }

    /// The content addresses of a live entry, without touching the data
    /// file: `(layout_hash, raster_hash, hour)`.
    pub fn entry_meta(&self, id: PageId) -> Option<(u64, u64, u64)> {
        self.entries
            .get(&id)
            .map(|e| (e.layout_hash, e.raster_hash, e.hour))
    }

    /// Inserts (or refreshes) an artifact. Content-identical blobs are
    /// written once: a `put` whose serialized bytes already live in the
    /// data file appends only a 69-byte index record. Returns whether new
    /// blob bytes hit the disk.
    pub fn put(
        &mut self,
        id: PageId,
        layout_hash: u64,
        raster_hash: u64,
        column_hashes: &[u64],
        artifact: &Artifact,
        hour: u64,
    ) -> io::Result<bool> {
        let blob = encode_blob(artifact, column_hashes);
        let blob_key = {
            let mut h = Fnv64::new();
            h.write(&blob).write_u64(blob.len() as u64);
            h.finish()
        };
        let blob_crc = crc32(&blob);

        // No-op fast path: the same content is already indexed under the
        // same addresses — do not grow the log.
        if let Some(e) = self.entries.get(&id) {
            if e.blob_key == blob_key && e.layout_hash == layout_hash && e.raster_hash == raster_hash
            {
                return Ok(false);
            }
        }

        let (offset, len, wrote) = match self.blobs.get(&blob_key) {
            Some(&(off, len, _, _)) => {
                self.stats.blob_reuses += 1;
                (off, len, false)
            }
            None => {
                let off = self.append_off;
                self.data.seek(SeekFrom::Start(off))?;
                self.data.write_all(&blob)?;
                self.append_off = off + blob.len() as u64;
                self.stats.inserts += 1;
                (off, blob.len() as u64, true)
            }
        };

        let entry = StoreEntry {
            layout_hash,
            raster_hash,
            hour,
            offset,
            len,
            blob_key,
            blob_crc,
            last_used: self.clock,
        };
        self.clock += 1;
        self.write_record(KIND_INSERT, id, &entry)?;
        self.apply_insert(id, entry);
        self.evict_to_budget(Some(id))?;
        Ok(wrote)
    }

    /// Loads a live entry's artifact, validating the blob CRC. A blob that
    /// fails it, or passes and does not decode (another format's magic, a
    /// malformed section), drops the entry (counted in `corrupt_blobs`) and
    /// returns `None` — the caller rebuilds cold.
    pub fn load(&mut self, id: PageId) -> Option<StoredArtifact> {
        let entry = *self.entries.get(&id)?;
        let mut blob = vec![0u8; entry.len as usize];
        let read = self
            .data
            .seek(SeekFrom::Start(entry.offset))
            .and_then(|_| self.data.read_exact(&mut blob));
        let decoded = match read {
            Ok(()) if crc32(&blob) == entry.blob_crc => decode_blob(&blob),
            _ => None,
        };
        let Some((artifact, column_hashes)) = decoded else {
            self.stats.corrupt_blobs += 1;
            self.remove_entry(id);
            return None;
        };
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_used = self.clock;
        }
        self.stats.loads += 1;
        Some(StoredArtifact {
            artifact,
            column_hashes: Arc::new(column_hashes),
            layout_hash: entry.layout_hash,
            raster_hash: entry.raster_hash,
            hour: entry.hour,
        })
    }

    fn write_record(&mut self, kind: u8, id: PageId, entry: &StoreEntry) -> io::Result<()> {
        let mut rec = Vec::with_capacity(RECORD_LEN);
        rec.extend_from_slice(&RECORD_MAGIC.to_be_bytes());
        rec.push(kind);
        for v in [id.site as u32, id.page as u32] {
            rec.extend_from_slice(&v.to_be_bytes());
        }
        for v in [
            entry.layout_hash,
            entry.raster_hash,
            entry.hour,
            entry.offset,
            entry.len,
            entry.blob_key,
        ] {
            rec.extend_from_slice(&v.to_be_bytes());
        }
        rec.extend_from_slice(&entry.blob_crc.to_be_bytes());
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_be_bytes());
        debug_assert_eq!(rec.len(), RECORD_LEN);
        self.index.write_all(&rec)
    }

    /// Evicts LRU entries (appending evict records) until the live-byte
    /// budget holds, sparing `keep`.
    fn evict_to_budget(&mut self, keep: Option<PageId>) -> io::Result<()> {
        while self.live_bytes() > self.byte_budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (*k, *e));
            let Some((vid, ventry)) = victim else { break };
            self.write_record(KIND_EVICT, vid, &ventry)?;
            self.remove_entry(vid);
            self.stats.evictions += 1;
        }
        Ok(())
    }
}

/// Reads one index record: its kind, page and entry (`last_used` 0).
/// `None` if the magic or the record CRC is wrong.
fn read_record(rec: &[u8]) -> Option<(u8, PageId, StoreEntry)> {
    let mut r = ByteReader::new(rec);
    if r.u32()? != RECORD_MAGIC {
        return None;
    }
    let kind = r.u8()?;
    let id = PageId {
        site: r.u32()? as usize,
        page: r.u32()? as usize,
    };
    let entry = StoreEntry {
        layout_hash: r.u64()?,
        raster_hash: r.u64()?,
        hour: r.u64()?,
        offset: r.u64()?,
        len: r.u64()?,
        blob_key: r.u64()?,
        blob_crc: r.u32()?,
        last_used: 0,
    };
    let crc_ok = r.u32()? == crc32(rec.get(..RECORD_LEN - 4)?);
    crc_ok.then_some((kind, id, entry))
}

/// Serializes an artifact's page (its frames are a pure function of it)
/// plus the per-column hash index: the magic, the page's on-air metadata
/// blob behind its length, each column's strip bytes behind its length,
/// then one hash per column.
fn encode_blob(artifact: &Artifact, column_hashes: &[u64]) -> Vec<u8> {
    let p = &artifact.page;
    let meta = p.meta_blob();
    let mut out = Vec::new();
    out.extend_from_slice(&BLOB_MAGIC.to_be_bytes());
    for section in std::iter::once(&meta).chain(&p.strips.strips) {
        out.extend_from_slice(&(section.len() as u32).to_be_bytes());
        out.extend_from_slice(section);
    }
    for &h in column_hashes {
        out.extend_from_slice(&h.to_be_bytes());
    }
    out
}

/// Deserializes a blob back into an artifact (frames recomputed) and its
/// column-hash index. Total: any malformed blob yields `None`, and nothing
/// is allocated for a count the remaining bytes could not hold.
fn decode_blob(blob: &[u8]) -> Option<(Artifact, Vec<u64>)> {
    let mut r = ByteReader::new(blob);
    if r.u32()? != BLOB_MAGIC {
        return None;
    }
    let meta_len = r.u32()? as usize;
    let (width, height, ttl_hours, version, url, clickmap) =
        SimplifiedPage::parse_meta(r.take(meta_len)?)?;
    // Every strip costs at least its 4-byte length.
    let mut strips = Vec::with_capacity(width.min(r.remaining() / 4));
    for _ in 0..width {
        let len = r.u32()? as usize;
        strips.push(r.take(len)?.to_vec());
    }
    // One hash per column, or the delta encode has nothing to diff against;
    // `width` strips were read, so `width` is bounded by the blob's length.
    let mut column_hashes = Vec::with_capacity(width);
    for _ in 0..width {
        column_hashes.push(r.u64()?);
    }
    if r.remaining() != 0 {
        return None;
    }
    let page = Arc::new(SimplifiedPage::from_parts(
        &url,
        StripImage {
            width,
            height,
            strips,
        },
        clickmap,
        version,
        ttl_hours,
    ));
    let frames = Arc::new(page_to_frames(&page));
    Some((
        Artifact {
            page,
            frames,
            audio: Arc::default(),
        },
        column_hashes,
    ))
}
