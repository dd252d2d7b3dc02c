//! Frames → page (receive side of §3.3).
//!
//! Tracks per-column chunk arrival; a column's usable data is its longest
//! *prefix* of consecutive chunks (the strip coding is a sequential entropy
//! stream, so a chunk after a gap is undecodable). Missing pixels become a
//! loss mask that feeds nearest-neighbor interpolation.

use crate::frame::Frame;
use crate::page::SimplifiedPage;
use sonic_image::clickmap::ClickMap;
use sonic_image::interpolate::LossMask;
use sonic_image::raster::Raster;
use sonic_image::strip::{decode_partial, StripImage};
use std::collections::{BTreeMap, VecDeque};

/// In-progress reception of one page.
#[derive(Debug, Default)]
pub struct PageAssembly {
    meta_parts: BTreeMap<u16, Vec<u8>>,
    meta_total: Option<u16>,
    /// column → (seq → (payload, last)).
    columns: BTreeMap<u16, BTreeMap<u16, (Vec<u8>, bool)>>,
    frames_seen: usize,
    /// Payload bytes buffered (for the reassembler's byte budget).
    bytes: usize,
    /// CRC-failed frames attributed to this page (per-page loss map input).
    crc_failed: usize,
    /// Stream time of the first frame (deadline accounting).
    first_at: f64,
    /// Stream time of the latest frame (LRU accounting).
    last_at: f64,
}

/// What a page is still missing, derived from the per-page loss map.
///
/// Strip columns are sequential entropy streams, so a chunk after a gap is
/// undecodable: the entire repair need of a column is captured by the first
/// sequence number missing from its consecutive prefix. This is what makes
/// the SMS NACK compact — one `(column, from_seq)` pair per damaged column.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MissingReport {
    /// The metadata region is incomplete (dimensions/URL unknown).
    pub meta: bool,
    /// Damaged columns as `(column, first missing chunk seq)`.
    pub columns: Vec<(u16, u16)>,
}

impl MissingReport {
    /// Whether nothing is missing.
    pub fn is_complete(&self) -> bool {
        !self.meta && self.columns.is_empty()
    }
}

/// A fully (or partially) reassembled page plus reception stats.
#[derive(Debug)]
pub struct ReceivedPage {
    /// Reconstructed (pre-interpolation) screenshot.
    pub raster: Raster,
    /// Pixels that were lost in flight.
    pub mask: LossMask,
    /// Page metadata.
    pub url: String,
    /// Click map.
    pub clickmap: ClickMap,
    /// Cache TTL hours.
    pub ttl_hours: u16,
    /// Content version.
    pub version: u16,
    /// Fraction of expected strip frames that never arrived.
    pub frame_loss: f64,
}

impl ReceivedPage {
    /// Fills wholly-lost columns from a cached prior version of the page —
    /// how a client that already holds version N renders a delta broadcast
    /// of version N+1: the delta burst carries only the changed columns, so
    /// every untouched column arrives as a total loss and is patched here
    /// instead of interpolated.
    ///
    /// Only columns with *no* received pixels are patched (a partially
    /// received column is new content and must win). Dimension mismatch
    /// patches nothing. Returns the number of columns patched.
    pub fn patch_from_prior(&mut self, prior: &Raster) -> usize {
        if prior.width() != self.raster.width() || prior.height() != self.raster.height() {
            return 0;
        }
        let (w, h) = (self.raster.width(), self.raster.height());
        let mut patched = 0usize;
        for x in 0..w {
            let whole_column_lost = (0..h).all(|y| self.mask.is_lost(x, y));
            if !whole_column_lost {
                continue;
            }
            for y in 0..h {
                self.raster.set(x, y, prior.get(x, y));
                self.mask.set_received(x, y);
            }
            patched += 1;
        }
        patched
    }
}

/// Why finalization failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssemblyError {
    /// The metadata region is incomplete — dimensions unknown.
    MetaIncomplete,
    /// Metadata arrived but does not parse.
    MetaCorrupt,
}

impl std::fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyError::MetaIncomplete => write!(f, "assembly: metadata incomplete"),
            AssemblyError::MetaCorrupt => write!(f, "assembly: metadata corrupt"),
        }
    }
}

impl std::error::Error for AssemblyError {}

impl PageAssembly {
    /// Creates an empty assembly.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one frame (of this page; caller routes by page id).
    pub fn push(&mut self, frame: Frame) {
        self.push_at(frame, 0.0);
    }

    /// Ingests one frame observed at stream time `now_s` (seconds).
    pub fn push_at(&mut self, frame: Frame, now_s: f64) {
        if self.frames_seen == 0 {
            self.first_at = now_s;
        }
        self.last_at = self.last_at.max(now_s);
        self.frames_seen += 1;
        match frame {
            Frame::Meta {
                seq, total, payload, ..
            } => {
                self.meta_total = Some(total);
                if let std::collections::btree_map::Entry::Vacant(e) = self.meta_parts.entry(seq) {
                    self.bytes += payload.len();
                    e.insert(payload);
                }
            }
            Frame::Strip {
                column,
                seq,
                last,
                payload,
                ..
            } => {
                if let std::collections::btree_map::Entry::Vacant(e) =
                    self.columns.entry(column).or_default().entry(seq)
                {
                    self.bytes += payload.len();
                    e.insert((payload, last));
                }
            }
        }
    }

    /// Records a CRC-failed frame attributed to this page (the receiver knows
    /// which page's burst it was listening to even when the payload is
    /// unreadable). Feeds the per-page loss statistics.
    pub fn note_bad_frame(&mut self, now_s: f64) {
        self.last_at = self.last_at.max(now_s);
        self.crc_failed += 1;
    }

    /// Whether the metadata region is complete.
    pub fn meta_complete(&self) -> bool {
        match self.meta_total {
            Some(t) => (0..t).all(|s| self.meta_parts.contains_key(&s)),
            None => false,
        }
    }

    /// Payload bytes buffered by this assembly.
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// CRC-failed frames attributed to this page.
    pub fn crc_failed(&self) -> usize {
        self.crc_failed
    }

    /// Stream time of the first frame received for this page.
    pub fn first_seen_at(&self) -> f64 {
        self.first_at
    }

    /// Stream time of the most recent activity on this page.
    pub fn last_seen_at(&self) -> f64 {
        self.last_at
    }

    /// The page fields of the joined metadata region (see
    /// [`SimplifiedPage::parse_meta`]): `MetaIncomplete` until every part
    /// has arrived, `MetaCorrupt` if the joined parts do not parse.
    fn meta(&self) -> Result<(usize, usize, u16, u16, String, ClickMap), AssemblyError> {
        if !self.meta_complete() {
            return Err(AssemblyError::MetaIncomplete);
        }
        let mut blob = Vec::new();
        for part in self.meta_parts.values() {
            blob.extend_from_slice(part);
        }
        SimplifiedPage::parse_meta(&blob).ok_or(AssemblyError::MetaCorrupt)
    }

    /// Derives the page's missing-chunk ranges (the loss map → NACK input).
    ///
    /// Per column the report holds the first chunk seq missing from the
    /// consecutive prefix; wholly-lost columns appear as `(col, 0)` when the
    /// metadata (and thus the page width) is known.
    pub fn missing_ranges(&self) -> MissingReport {
        let meta = self.meta();
        let mut report = MissingReport {
            meta: matches!(meta, Err(AssemblyError::MetaIncomplete)),
            columns: Vec::new(),
        };
        let width = meta.ok().map(|(w, ..)| w as u16);
        if width.is_none() && self.columns.is_empty() {
            return report; // nothing known yet beyond the missing meta
        }
        let max_col = width
            .map(|w| w.saturating_sub(1))
            .unwrap_or_else(|| self.columns.keys().copied().max().unwrap_or(0));
        for col in 0..=max_col {
            let (mut next, mut complete) = (0u16, false);
            for (_, last) in self.columns.get(&col).into_iter().flat_map(column_prefix) {
                next += 1;
                complete = *last;
            }
            if !complete {
                report.columns.push((col, next));
            }
        }
        report
    }

    /// Finalizes into a page; call when the broadcast of this page ended.
    pub fn finalize(&self) -> Result<ReceivedPage, AssemblyError> {
        let (width, height, ttl_hours, version, url, clickmap) = self.meta()?;

        // Per column: longest consecutive prefix of chunks.
        let mut strips = Vec::with_capacity(width);
        let mut received = Vec::with_capacity(width);
        let mut expected_frames = 0usize;
        let mut got_frames = 0usize;
        for col in 0..width as u16 {
            let mut bytes = Vec::new();
            if let Some(chunks) = self.columns.get(&col) {
                for (payload, _) in column_prefix(chunks) {
                    bytes.extend_from_slice(payload);
                    got_frames += 1;
                }
                // Expected count: if we saw the last chunk anywhere, its seq
                // tells us; otherwise estimate from the highest seen seq.
                let exp = chunks
                    .iter()
                    .find(|(_, (_, last))| *last)
                    .map(|(s, _)| *s as usize + 1)
                    .unwrap_or(*chunks.keys().next_back().unwrap_or(&0) as usize + 1);
                expected_frames += exp;
            } else {
                // Whole column lost: we cannot know its frame count; assume
                // the page-average chunk density of one (lower bound).
                expected_frames += 1;
            }
            received.push(bytes.len());
            strips.push(bytes);
        }

        let strip_img = StripImage {
            width,
            height,
            strips,
        };
        let (raster, mask) = decode_partial(&strip_img, &received);
        let frame_loss = if expected_frames > 0 {
            1.0 - got_frames as f64 / expected_frames as f64
        } else {
            0.0
        };
        Ok(ReceivedPage {
            raster,
            mask,
            url,
            clickmap,
            ttl_hours,
            version,
            frame_loss: frame_loss.clamp(0.0, 1.0),
        })
    }
}

/// A column's usable chunks: the consecutive prefix from seq 0, up to and
/// including the `last` chunk if it arrived in that prefix.
fn column_prefix(
    chunks: &BTreeMap<u16, (Vec<u8>, bool)>,
) -> impl Iterator<Item = &(Vec<u8>, bool)> {
    let mut done = false;
    (0u16..).map_while(move |seq| {
        let chunk = chunks.get(&seq).filter(|_| !done)?;
        done = chunk.1;
        Some(chunk)
    })
}

/// Memory and liveness policy for the [`Reassembler`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReassemblerConfig {
    /// Total payload-byte budget across all in-progress pages.
    pub max_bytes: usize,
    /// Max concurrently-tracked pages.
    pub max_pages: usize,
    /// Seconds after a page's first frame before [`Reassembler::poll_expired`]
    /// reports it for forced (possibly degraded) finalization.
    pub page_deadline_s: f64,
}

/// Finalized page ids remembered (FIFO) so late frames for an
/// already-finalized page — e.g. a repair burst arriving after the
/// deadline forced the page out — cannot re-open an assembly and
/// re-enter the NACK-eligible set while the client still holds the page.
const MAX_FINALIZED_IDS: usize = 64;

impl Default for ReassemblerConfig {
    fn default() -> Self {
        // 4 MiB ≈ a handful of full screenshots in flight; a phone-class
        // budget. 900 s is three carousel periods at the paper's page sizes.
        ReassemblerConfig {
            max_bytes: 4 << 20,
            max_pages: 16,
            page_deadline_s: 900.0,
        }
    }
}

/// Routes frames of many pages to their assemblies, under a byte/page
/// budget: on a lossy carousel pages whose broadcast we missed the end of
/// would otherwise accumulate forever. Least-recently-active assemblies are
/// evicted first; [`Reassembler::poll_expired`] names pages past their
/// deadline so the caller can force-finalize them through interpolation
/// repair instead of waiting for frames that will never come.
#[derive(Debug, Default)]
pub struct Reassembler {
    pages: BTreeMap<u32, PageAssembly>,
    /// Successfully finalized page ids with the stream time their cached
    /// copy expires, FIFO-bounded by `MAX_FINALIZED_IDS`. Page ids embed
    /// the content version, so an id never legitimately returns with
    /// different content: frames of it that arrive while the copy lives
    /// are stragglers to ignore. Once the copy has expired the client no
    /// longer has the page, and the same id on air is a re-air to receive.
    finalized: VecDeque<(u32, f64)>,
    /// Budget policy.
    pub config: ReassemblerConfig,
    /// Assemblies discarded to stay under budget (diagnostics).
    pub evicted_pages: usize,
    /// Frames ignored because their page was already finalized.
    pub late_frames: usize,
}

impl Reassembler {
    /// Creates an empty reassembler with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty reassembler with an explicit budget.
    pub fn with_config(config: ReassemblerConfig) -> Self {
        Reassembler {
            config,
            ..Self::default()
        }
    }

    /// Ingests a frame observed at stream time `now_s`, then enforces the
    /// byte/page budget (never evicting the page just touched). Frames of
    /// a finalized page are dropped until its cached copy expires: a late
    /// repair burst must not re-open the assembly, or the page would expire
    /// a second time and NACK a repair it no longer needs. A frame at or
    /// after the expiry drops the tombstone and opens a fresh assembly.
    pub fn push_at(&mut self, frame: Frame, now_s: f64) {
        let id = frame.page_id();
        if let Some(i) = self.finalized.iter().position(|&(f, _)| f == id) {
            if now_s < self.finalized[i].1 {
                self.late_frames += 1;
                return;
            }
            self.finalized.remove(i);
        }
        self.pages.entry(id).or_default().push_at(frame, now_s);
        self.enforce_budget(id);
    }

    /// Whether `page_id` holds a tombstone: it was successfully finalized
    /// (and is thus out of the NACK-eligible set), and no frame of it has
    /// arrived since its cached copy expired.
    pub fn is_finalized(&self, page_id: u32) -> bool {
        self.finalized.iter().any(|&(id, _)| id == page_id)
    }

    /// Attributes a CRC-failed frame to `page_id` (the page whose burst the
    /// receiver was tuned to when the frame died).
    pub fn note_bad_frame(&mut self, page_id: u32, now_s: f64) {
        if let Some(a) = self.pages.get_mut(&page_id) {
            a.note_bad_frame(now_s);
        }
    }

    /// Finalizes and removes one page. A successful finalize (clean or
    /// degraded) tombstones the id so straggler frames cannot resurrect
    /// it, for as long as the client keeps the page. That is counted in
    /// whole hours, as [`PageCache`](crate::client::cache::PageCache)
    /// counts it: the tombstone lapses at the start of hour
    /// `⌊last frame / 3600⌋ + max(ttl_hours, 1)`, the hour a copy stored
    /// in the last frame's hour expires. A failed finalize tombstones
    /// nothing — the client will re-request the page and must be able to
    /// receive the rebroadcast under the same id.
    pub fn take(&mut self, page_id: u32) -> Option<Result<ReceivedPage, AssemblyError>> {
        let assembly = self.pages.remove(&page_id)?;
        let result = assembly.finalize();
        if let Ok(page) = &result {
            let hour = (assembly.last_seen_at() / 3600.0).floor();
            let expires_s = (hour + f64::from(page.ttl_hours.max(1))) * 3600.0;
            self.finalized.push_back((page_id, expires_s));
            if self.finalized.len() > MAX_FINALIZED_IDS {
                self.finalized.pop_front();
            }
        }
        Some(result)
    }

    /// Read access to one in-progress assembly (loss map, stats).
    pub fn assembly(&self, page_id: u32) -> Option<&PageAssembly> {
        self.pages.get(&page_id)
    }

    /// Ids of all in-progress pages, ascending.
    pub fn page_ids(&self) -> Vec<u32> {
        self.pages.keys().copied().collect()
    }

    /// Number of in-progress pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no page is in progress.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total payload bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.pages.values().map(|a| a.buffered_bytes()).sum()
    }

    /// Pages whose deadline has lapsed at `now_s`: the caller should
    /// [`Reassembler::take`] each and finalize degraded (the paper's
    /// behaviour — interpolate across what never arrived) rather than hold
    /// the page open forever.
    pub fn poll_expired(&self, now_s: f64) -> Vec<u32> {
        self.pages
            .iter()
            .filter(|(_, a)| now_s - a.first_seen_at() > self.config.page_deadline_s)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Evicts least-recently-active assemblies until both budgets hold;
    /// of pages last active at the same time (every frame of a burst is
    /// stamped alike) the lowest id goes first. `protect` (the page just
    /// touched) is evicted only if it is the sole page and still violates
    /// the byte budget on its own.
    fn enforce_budget(&mut self, protect: u32) {
        while self.pages.len() > self.config.max_pages
            || self.buffered_bytes() > self.config.max_bytes
        {
            let victim = self
                .pages
                .iter()
                .filter(|(&id, _)| id != protect)
                .min_by(|a, b| a.1.last_at.total_cmp(&b.1.last_at))
                .map(|(&id, _)| id);
            let Some(victim) = victim else {
                // Only the protected page remains; drop it if it alone
                // busts the byte budget, else the page budget is satisfied.
                if self.buffered_bytes() > self.config.max_bytes {
                    self.pages.remove(&protect);
                    self.evicted_pages += 1;
                }
                return;
            };
            self.pages.remove(&victim);
            self.evicted_pages += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::page_to_frames;
    use sonic_image::clickmap::ClickMap;
    use sonic_image::raster::{Raster, Rgb};
    use sonic_image::strip;

    fn page(w: usize, h: usize) -> SimplifiedPage {
        let mut img = Raster::new(w, h);
        img.fill_rect(0, h / 4, w, h / 4, Rgb::new(30, 90, 160));
        for x in (0..w).step_by(3) {
            img.set(x, h - 1, Rgb::BLACK);
        }
        SimplifiedPage::from_raster("https://r.pk/", &img, ClickMap::default(), 2, 6)
    }

    fn lossless_reference(p: &SimplifiedPage) -> Raster {
        strip::decode(&p.strips)
    }

    #[test]
    fn lossless_reassembly_matches_strip_decode() {
        let p = page(16, 40);
        let mut asm = PageAssembly::new();
        for f in page_to_frames(&p) {
            asm.push(f);
        }
        let got = asm.finalize().expect("complete page");
        assert_eq!(got.url, "https://r.pk/");
        assert_eq!(got.version, 2);
        assert!(got.frame_loss.abs() < 1e-9);
        assert_eq!(got.mask.loss_rate(), 0.0);
        assert_eq!(got.raster, lossless_reference(&p));
    }

    /// A page busy enough that every column needs several 86-byte chunks.
    fn noisy_page(w: usize, h: usize) -> SimplifiedPage {
        let mut img = Raster::new(w, h);
        let mut x = 99u32;
        for yy in 0..h {
            for xx in 0..w {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                img.set(xx, yy, Rgb::new((x >> 16) as u8, (x >> 8) as u8, x as u8));
            }
        }
        SimplifiedPage::from_raster("https://noisy.pk/", &img, ClickMap::default(), 3, 6)
    }

    #[test]
    fn lost_strip_frame_loses_column_suffix_only() {
        let p = noisy_page(10, 300);
        let frames = page_to_frames(&p);
        let mut asm = PageAssembly::new();
        let mut dropped_col = None;
        for f in frames {
            if dropped_col.is_none() {
                if let Frame::Strip { column, seq, .. } = &f {
                    if *seq == 1 {
                        dropped_col = Some(*column);
                        continue; // drop this frame
                    }
                }
            }
            asm.push(f);
        }
        let col = dropped_col.expect("a multi-chunk column exists") as usize;
        let got = asm.finalize().expect("meta intact");
        assert!(got.frame_loss > 0.0);
        // Lost pixels confined to that column.
        for x in 0..10 {
            let lost_rows = (0..300).filter(|&y| got.mask.is_lost(x, y)).count();
            if x == col {
                assert!(lost_rows > 0, "column {col} must lose its suffix");
            } else {
                assert_eq!(lost_rows, 0, "column {x} must be intact");
            }
        }
    }

    #[test]
    fn meta_loss_fails_assembly() {
        let p = page(6, 20);
        let mut asm = PageAssembly::new();
        for f in page_to_frames(&p) {
            if matches!(f, Frame::Meta { .. }) {
                continue;
            }
            asm.push(f);
        }
        assert_eq!(asm.finalize().unwrap_err(), AssemblyError::MetaIncomplete);
    }

    #[test]
    fn repeated_meta_survives_single_copy_loss() {
        let p = page(6, 20);
        let mut asm = PageAssembly::new();
        let mut dropped_first_meta = false;
        for f in page_to_frames(&p) {
            if !dropped_first_meta && matches!(f, Frame::Meta { .. }) {
                dropped_first_meta = true;
                continue; // first copy lost; the repeat saves us
            }
            asm.push(f);
        }
        assert!(asm.finalize().is_ok());
    }

    #[test]
    fn reassembler_routes_concurrent_pages() {
        let p1 = page(6, 20);
        let img2 = Raster::filled(5, 10, Rgb::new(1, 2, 3));
        let p2 = SimplifiedPage::from_raster("https://x.pk/", &img2, ClickMap::default(), 1, 1);
        let mut r = Reassembler::new();
        // Interleave the two pages' frames.
        let f1 = page_to_frames(&p1);
        let f2 = page_to_frames(&p2);
        let mut it1 = f1.into_iter();
        let mut it2 = f2.into_iter();
        loop {
            match (it1.next(), it2.next()) {
                (None, None) => break,
                (a, b) => {
                    if let Some(f) = a {
                        r.push_at(f, 0.0);
                    }
                    if let Some(f) = b {
                        r.push_at(f, 0.0);
                    }
                }
            }
        }
        let got1 = r.take(p1.page_id).expect("p1").expect("ok");
        let got2 = r.take(p2.page_id).expect("p2").expect("ok");
        assert_eq!(got1.url, "https://r.pk/");
        assert_eq!(got2.url, "https://x.pk/");
        assert!(r.is_empty());
    }

    #[test]
    fn byte_budget_evicts_least_recently_active_page() {
        let mut r = Reassembler::with_config(ReassemblerConfig {
            max_bytes: 3_000,
            max_pages: 64,
            page_deadline_s: 1e9,
        });
        // Three pages, ~frames interleaved with distinct activity times.
        let pages: Vec<SimplifiedPage> = (0..3)
            .map(|i| {
                let mut img = Raster::new(8, 120);
                let mut x = 7u32 + i;
                for yy in 0..120 {
                    for xx in 0..8 {
                        x = x.wrapping_mul(1103515245).wrapping_add(12345);
                        img.set(xx, yy, Rgb::new((x >> 16) as u8, (x >> 8) as u8, x as u8));
                    }
                }
                SimplifiedPage::from_raster(&format!("https://p{i}.pk/"), &img, ClickMap::default(), 1, 1)
            })
            .collect();
        for (i, p) in pages.iter().enumerate() {
            for f in page_to_frames(p) {
                r.push_at(f, i as f64 * 10.0);
            }
        }
        assert!(
            r.buffered_bytes() <= 3_000,
            "budget violated: {}",
            r.buffered_bytes()
        );
        assert!(r.evicted_pages > 0);
        // The most recently active page must have survived.
        assert!(r.assembly(pages[2].page_id).is_some(), "LRU evicts oldest");
    }

    #[test]
    fn page_budget_caps_tracked_pages() {
        let mut r = Reassembler::with_config(ReassemblerConfig {
            max_pages: 2,
            ..ReassemblerConfig::default()
        });
        for i in 0..5u32 {
            let img = Raster::filled(4, 8, Rgb::new(i as u8, 0, 0));
            let p = SimplifiedPage::from_raster(&format!("https://q{i}.pk/"), &img, ClickMap::default(), 1, 1);
            for f in page_to_frames(&p) {
                r.push_at(f, i as f64);
            }
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.evicted_pages, 3);
    }

    #[test]
    fn a_tie_in_last_activity_evicts_the_lowest_id_in_every_reassembler() {
        let pages: Vec<SimplifiedPage> = (0..3)
            .map(|i| {
                let img = Raster::filled(4, 8, Rgb::new(i, 0, 0));
                SimplifiedPage::from_raster(&format!("https://t{i}.pk/"), &img, ClickMap::default(), 0, 1)
            })
            .collect();
        let (a, b) = (pages[0].page_id, pages[1].page_id);
        let survivors: Vec<Vec<u32>> = (0..32)
            .map(|_| {
                let mut r = Reassembler::with_config(ReassemblerConfig {
                    max_pages: 2,
                    ..ReassemblerConfig::default()
                });
                for (p, t) in pages.iter().zip([0.0, 0.0, 1.0]) {
                    for f in page_to_frames(p) {
                        r.push_at(f, t);
                    }
                }
                assert_eq!(r.evicted_pages, 1);
                r.page_ids()
            })
            .collect();
        let mut want = vec![a.max(b), pages[2].page_id];
        want.sort_unstable();
        assert!(survivors.iter().all(|s| *s == want), "{survivors:?}");
    }

    #[test]
    fn deadline_reports_stale_pages_for_forced_finalize() {
        let mut r = Reassembler::with_config(ReassemblerConfig {
            page_deadline_s: 100.0,
            ..ReassemblerConfig::default()
        });
        let p = page(6, 20);
        for f in page_to_frames(&p) {
            r.push_at(f, 5.0);
        }
        assert!(r.poll_expired(50.0).is_empty());
        assert_eq!(r.poll_expired(200.0), vec![p.page_id]);
        // Forced finalize of a complete page succeeds (degraded allowed in
        // general; here lossless).
        assert!(r.take(p.page_id).expect("tracked").is_ok());
        assert!(r.poll_expired(200.0).is_empty());
    }

    #[test]
    fn missing_ranges_capture_column_prefix_breaks() {
        let p = noisy_page(10, 300);
        let mut asm = PageAssembly::new();
        let mut dropped_col = None;
        for f in page_to_frames(&p) {
            if dropped_col.is_none() {
                if let Frame::Strip { column, seq, .. } = &f {
                    if *seq == 1 {
                        dropped_col = Some(*column);
                        continue;
                    }
                }
            }
            asm.push(f);
        }
        let col = dropped_col.expect("multi-chunk column");
        let report = asm.missing_ranges();
        assert!(!report.meta);
        assert_eq!(report.columns, vec![(col, 1)], "repair need is (col, from_seq)");
        assert!(!report.is_complete());

        // A complete page reports nothing missing.
        let mut full = PageAssembly::new();
        for f in page_to_frames(&p) {
            full.push(f);
        }
        assert!(full.missing_ranges().is_complete());
    }

    #[test]
    fn missing_ranges_flag_lost_meta_and_whole_columns() {
        let p = page(6, 20);
        let mut asm = PageAssembly::new();
        for f in page_to_frames(&p) {
            match &f {
                Frame::Meta { .. } => continue,
                Frame::Strip { column: 2, .. } => continue,
                _ => asm.push(f),
            }
        }
        let report = asm.missing_ranges();
        assert!(report.meta, "meta fully lost");
        assert!(
            report.columns.contains(&(2, 0)),
            "wholly-lost known column reported from seq 0: {:?}",
            report.columns
        );
    }

    #[test]
    fn finalized_page_ignores_late_repair_frames() {
        let mut r = Reassembler::with_config(ReassemblerConfig {
            page_deadline_s: 100.0,
            ..ReassemblerConfig::default()
        });
        let p = noisy_page(10, 300);
        let frames = page_to_frames(&p);
        // Broadcast misses one frame; the deadline forces a degraded
        // finalize (meta intact, one column truncated).
        for f in frames.iter().skip(1).cloned() {
            r.push_at(f, 5.0);
        }
        assert_eq!(r.poll_expired(200.0), vec![p.page_id]);
        assert!(r.take(p.page_id).expect("tracked").is_ok());
        assert!(r.is_finalized(p.page_id));
        // A late repair burst for the page arrives after finalization: it
        // must not re-open the assembly or re-enter the expiry set.
        for f in frames.iter().take(3).cloned() {
            r.push_at(f, 210.0);
        }
        assert!(r.is_empty(), "late frames must not resurrect the page");
        assert_eq!(r.late_frames, 3);
        assert!(r.poll_expired(10_000.0).is_empty(), "nothing to NACK again");
    }

    #[test]
    fn a_tombstone_lives_as_long_as_the_cached_copy() {
        let mut r = Reassembler::new();
        let p = page(6, 20); // TTL 6 h
        let frames = page_to_frames(&p);
        for f in frames.iter().cloned() {
            r.push_at(f, 1800.0);
        }
        assert!(r.take(p.page_id).expect("tracked").is_ok());
        // The copy, stored in hour 0, expires at the start of hour 6.
        let expires_s = 6.0 * 3600.0;
        // A straggler while the client still holds the page is ignored.
        r.push_at(frames[0].clone(), expires_s - 1.0);
        assert!(r.is_empty());
        assert_eq!(r.late_frames, 1);
        // Once the copy has expired, the same id on air is a re-air: a
        // fresh assembly opens, finalizes, and is tombstoned anew.
        for f in frames.iter().cloned() {
            r.push_at(f, expires_s);
        }
        assert_eq!(r.late_frames, 1);
        assert!(r.take(p.page_id).expect("re-aired").is_ok());
        r.push_at(frames[0].clone(), expires_s + 1.0);
        assert!(r.is_empty());
        assert_eq!(r.late_frames, 2);
    }

    #[test]
    fn failed_finalize_leaves_page_receivable_again() {
        let mut r = Reassembler::new();
        let p = page(6, 20);
        let frames = page_to_frames(&p);
        // Only strip frames arrive: finalize fails (no meta)…
        for f in frames.iter().filter(|f| matches!(f, Frame::Strip { .. })) {
            r.push_at(f.clone(), 1.0);
        }
        assert!(r.take(p.page_id).expect("tracked").is_err());
        assert!(!r.is_finalized(p.page_id), "failures are not tombstoned");
        // …so the rebroadcast under the same id is received in full.
        for f in frames {
            r.push_at(f, 50.0);
        }
        assert!(r.take(p.page_id).expect("retracked").is_ok());
        assert!(r.is_finalized(p.page_id));
    }

    #[test]
    fn finalized_id_memory_is_bounded_fifo() {
        let mut r = Reassembler::new();
        let mut ids = Vec::new();
        for i in 0..MAX_FINALIZED_IDS as u32 + 2 {
            let img = Raster::filled(4, 8, Rgb::new(i as u8 + 1, 0, 0));
            let p = SimplifiedPage::from_raster(&format!("https://t{i}.pk/"), &img, ClickMap::default(), 1, 1);
            for f in page_to_frames(&p) {
                r.push_at(f, 0.0);
            }
            assert!(r.take(p.page_id).expect("tracked").is_ok());
            ids.push(p.page_id);
        }
        assert!(
            !r.is_finalized(ids[0]) && !r.is_finalized(ids[1]),
            "oldest tombstones age out"
        );
        assert!(ids[2..].iter().all(|&id| r.is_finalized(id)));
    }

    #[test]
    fn bad_frames_feed_per_page_stats() {
        let mut r = Reassembler::new();
        let p = page(6, 20);
        let frames = page_to_frames(&p);
        r.push_at(frames[0].clone(), 1.0);
        r.note_bad_frame(p.page_id, 2.0);
        r.note_bad_frame(p.page_id, 3.0);
        let asm = r.assembly(p.page_id).expect("tracked");
        assert_eq!(asm.crc_failed(), 2);
        assert_eq!(asm.last_seen_at(), 3.0);
        // Bad frames for untracked pages are ignored, not panics.
        r.note_bad_frame(999, 1.0);
    }

    #[test]
    fn duplicate_frames_are_idempotent() {
        let p = page(8, 24);
        let mut asm = PageAssembly::new();
        for f in page_to_frames(&p) {
            asm.push(f.clone());
            asm.push(f);
        }
        let got = asm.finalize().expect("ok");
        assert_eq!(got.raster, lossless_reference(&p));
    }
}
