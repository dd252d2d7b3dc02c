//! Per-transmitter broadcast scheduler.
//!
//! Pages queue FIFO; the transmitter drains the queue at its configured
//! bit rate, emitting link frames whose airtime is accounted at
//! `FRAME_SIZE · 8 / rate` seconds each. `eta_for` backs the SMS ACK's
//! "estimate on when the page will be received" and the backlog counter is
//! what Figure 4(c) plots.

use crate::frame::{Frame, FRAME_SIZE};
use crate::page::SimplifiedPage;
use std::collections::VecDeque;
use std::sync::Arc;

/// What a queue entry carries for its page — the delta-carousel slotting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// The complete frame sequence of the page.
    Full,
    /// Only the page's changed columns (plus meta), diffed against the
    /// version clients already hold.
    Delta,
    /// A targeted NACK-repair burst (subset of columns/ranges).
    Repair,
}

/// One queued entry.
///
/// The frame sequence is `Arc`-shared: the artifact cache enqueues the
/// same pre-chunked frames into every transmitter's scheduler without
/// copying payload bytes (frames are only cloned one at a time as they
/// are emitted). Only the page *id* is kept — a cluster site fed raw
/// frames over the wire has no page object at all.
#[derive(Debug)]
struct Queued {
    page_id: u32,
    /// Pre-chunked frames (shared); `next` is the emission cursor.
    frames: Arc<Vec<Frame>>,
    next: usize,
    /// Remaining airtime bytes.
    remaining_bytes: usize,
    /// Whether this entry is a full page, a carousel delta or a repair.
    kind: SlotKind,
}

/// FIFO broadcast scheduler at a fixed rate.
#[derive(Debug)]
pub struct BroadcastScheduler {
    rate_bps: f64,
    queue: VecDeque<Queued>,
    /// Fractional frame budget carried between `advance` calls.
    budget_bytes: f64,
    /// Maintained sum of `remaining_bytes` over the queue, so
    /// [`backlog_bytes`](Self::backlog_bytes) is O(1) for the monitoring
    /// paths that poll it every tick.
    backlog_bytes: usize,
    /// Total bytes ever transmitted.
    pub transmitted_bytes: u64,
    /// Queue entries fully drained over the scheduler's lifetime. The
    /// cluster control plane reports this in health responses and uses it
    /// as the carousel resume slot after a site restart.
    pub completed_pages: u64,
}

impl BroadcastScheduler {
    /// Creates a scheduler at `rate_bps` payload rate.
    ///
    /// # Panics
    /// Panics if the rate is not positive.
    pub fn new(rate_bps: f64) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        BroadcastScheduler {
            rate_bps,
            queue: VecDeque::new(),
            budget_bytes: 0.0,
            backlog_bytes: 0,
            transmitted_bytes: 0,
            completed_pages: 0,
        }
    }

    /// Configured rate.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Bytes waiting to be broadcast. O(1): maintained on enqueue/advance.
    pub fn backlog_bytes(&self) -> usize {
        self.backlog_bytes
    }

    /// Pages waiting to be broadcast. O(1).
    pub fn backlog_pages(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a page with its frames as the artifact cache chunked them
    /// (the same `Arc`s go to every transmitter) and returns the ETA in
    /// seconds until its broadcast completes.
    ///
    /// Dedupes by page id: a re-push of an unchanged page — same url and
    /// version, hence same id and identical frames — returns the existing
    /// entry's ETA instead of doubling the backlog. A full page also
    /// supersedes any not-yet-started delta or
    /// repair burst for the same page id (it is a superset of both), so a
    /// NACK repair queued the same tick cannot double-schedule the page.
    pub fn enqueue_prechunked(
        &mut self,
        page: Arc<SimplifiedPage>,
        frames: Arc<Vec<Frame>>,
        now_s: f64,
    ) -> f64 {
        self.enqueue_frames(page.page_id, SlotKind::Full, frames, now_s)
    }

    /// Enqueues only a page's delta frames (meta + changed columns) — the
    /// incremental carousel slot. Any queued entry for the same page id
    /// (full, delta or repair) already covers at least this content's
    /// airtime, so the enqueue dedupes against all of them.
    pub fn enqueue_delta(
        &mut self,
        page: Arc<SimplifiedPage>,
        delta_frames: Arc<Vec<Frame>>,
        now_s: f64,
    ) -> f64 {
        self.enqueue_frames(page.page_id, SlotKind::Delta, delta_frames, now_s)
    }

    /// Enqueues an explicit frame sequence under a bare page id — the wire
    /// path (a cluster site handed a `PushFrames` RPC has frames and an id
    /// but no page object) and the targeted repair burst. A full slot
    /// dedupes against a queued full and supersedes not-yet-started
    /// delta/repair entries; a delta dedupes against any queued entry; a
    /// repair dedupes against queued full/repair entries (a full page serves
    /// it for free, a repair coalesces) but not against a delta, whose
    /// columns are the hour's dirty set, not the client's loss set.
    pub fn enqueue_frames(
        &mut self,
        page_id: u32,
        kind: SlotKind,
        frames: Arc<Vec<Frame>>,
        _now_s: f64,
    ) -> f64 {
        let existing = match kind {
            SlotKind::Full => self.eta_kind_for(page_id, SlotKind::Full),
            SlotKind::Delta => self.eta_if_queued(page_id),
            SlotKind::Repair => self
                .eta_kind_for(page_id, SlotKind::Full)
                .or_else(|| self.eta_kind_for(page_id, SlotKind::Repair)),
        };
        if let Some(eta) = existing {
            return eta;
        }
        if kind == SlotKind::Full {
            self.remove_superseded(page_id);
        }
        if frames.is_empty() {
            return self.backlog_bytes as f64 * 8.0 / self.rate_bps;
        }
        let remaining_bytes = frames.len() * FRAME_SIZE;
        self.backlog_bytes += remaining_bytes;
        self.queue.push_back(Queued {
            page_id,
            frames,
            next: 0,
            remaining_bytes,
            kind,
        });
        self.backlog_bytes as f64 * 8.0 / self.rate_bps
    }

    /// Drops not-yet-started delta/repair entries for `page_id` — a full
    /// page being enqueued covers both. Entries mid-emission are left to
    /// finish (their already-aired frames are idempotent on receivers).
    fn remove_superseded(&mut self, page_id: u32) {
        let backlog = &mut self.backlog_bytes;
        self.queue.retain(|q| {
            let drop = q.page_id == page_id && q.kind != SlotKind::Full && q.next == 0;
            if drop {
                *backlog -= q.remaining_bytes;
            }
            !drop
        });
    }

    /// ETA through a queue position (inclusive).
    fn eta_through(&self, pos: usize) -> f64 {
        let bytes: usize = self
            .queue
            .iter()
            .take(pos + 1)
            .map(|q| q.remaining_bytes)
            .sum();
        bytes as f64 * 8.0 / self.rate_bps
    }

    /// ETA of a page already in the queue, any entry kind (the dedupe path).
    fn eta_if_queued(&self, page_id: u32) -> Option<f64> {
        let pos = self.queue.iter().position(|q| q.page_id == page_id)?;
        Some(self.eta_through(pos))
    }

    /// ETA of a queued entry of a specific kind.
    fn eta_kind_for(&self, page_id: u32, kind: SlotKind) -> Option<f64> {
        let pos = self
            .queue
            .iter()
            .position(|q| q.page_id == page_id && q.kind == kind)?;
        Some(self.eta_through(pos))
    }

    /// ETA in seconds for a queued url (None if not queued).
    pub fn eta_for(&self, page_id: u32) -> Option<f64> {
        self.eta_if_queued(page_id)
    }

    /// ETA of a queued *full-page* entry. Repair planning uses this: only a
    /// full page is guaranteed to cover an arbitrary NACK range, so neither
    /// a delta slot nor another repair should count as already-served.
    pub fn eta_full_for(&self, page_id: u32) -> Option<f64> {
        self.eta_kind_for(page_id, SlotKind::Full)
    }

    /// Whether a repair burst for `page_id` is already queued.
    pub fn repair_queued(&self, page_id: u32) -> bool {
        self.eta_kind_for(page_id, SlotKind::Repair).is_some()
    }

    /// Advances time by `dt` seconds, emitting the frames that fit in the
    /// rate budget (page ids attached so receivers can track boundaries).
    pub fn advance(&mut self, dt: f64) -> Vec<Frame> {
        self.budget_bytes += self.rate_bps * dt / 8.0;
        let mut out = Vec::new();
        while self.budget_bytes >= FRAME_SIZE as f64 {
            let Some(front) = self.queue.front_mut() else {
                // Idle: budget does not accumulate while there is nothing to
                // send (a radio cannot bank silence for later).
                self.budget_bytes = 0.0;
                break;
            };
            let frame = front.frames[front.next].clone();
            front.next += 1;
            front.remaining_bytes -= FRAME_SIZE;
            self.backlog_bytes -= FRAME_SIZE;
            self.budget_bytes -= FRAME_SIZE as f64;
            self.transmitted_bytes += FRAME_SIZE as u64;
            out.push(frame);
            if front.next == front.frames.len() {
                self.queue.pop_front();
                self.completed_pages += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_image::clickmap::ClickMap;
    use sonic_image::raster::{Raster, Rgb};

    fn page(url: &str, h: usize) -> SimplifiedPage {
        let mut img = Raster::new(8, h);
        img.fill_rect(0, 0, 8, h / 2, Rgb::new(5, 5, 5));
        SimplifiedPage::from_raster(url, &img, ClickMap::default(), 0, 1)
    }

    /// Chunks `page` and enqueues it as a full-page slot.
    fn enqueue_page(s: &mut BroadcastScheduler, page: SimplifiedPage, now_s: f64) -> f64 {
        let frames = Arc::new(crate::chunker::page_to_frames(&page));
        s.enqueue_prechunked(Arc::new(page), frames, now_s)
    }

    #[test]
    fn drains_at_configured_rate() {
        let mut s = BroadcastScheduler::new(8_000.0); // 1000 B/s
        enqueue_page(&mut s, page("a", 100), 0.0);
        let total = s.backlog_bytes();
        let frames = s.advance(1.0);
        assert_eq!(frames.len(), 10, "1000 B/s = 10 frames/s");
        assert_eq!(s.backlog_bytes(), total - 10 * FRAME_SIZE);
    }

    #[test]
    fn eta_reflects_queue_position() {
        let mut s = BroadcastScheduler::new(8_000.0);
        let eta_a = enqueue_page(&mut s, page("a", 50), 0.0);
        let p_b = page("b", 50);
        let id_b = p_b.page_id;
        let eta_b = enqueue_page(&mut s, p_b, 0.0);
        assert!(eta_b > eta_a, "b is behind a");
        assert!((s.eta_for(id_b).expect("queued") - eta_b).abs() < 1e-9);
    }

    #[test]
    fn duplicate_enqueue_is_deduplicated() {
        let mut s = BroadcastScheduler::new(8_000.0);
        enqueue_page(&mut s, page("a", 60), 0.0);
        let before = s.backlog_bytes();
        enqueue_page(&mut s, page("a", 60), 1.0);
        assert_eq!(s.backlog_bytes(), before, "no duplicate queue entry");
        assert_eq!(s.backlog_pages(), 1);
    }

    #[test]
    fn idle_budget_does_not_accumulate() {
        let mut s = BroadcastScheduler::new(8_000.0);
        assert!(s.advance(100.0).is_empty());
        enqueue_page(&mut s, page("a", 40), 100.0);
        // Only the new dt's budget applies.
        let frames = s.advance(0.1);
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn emits_all_frames_exactly_once() {
        let mut s = BroadcastScheduler::new(80_000.0);
        let p = page("a", 30);
        let want = crate::chunker::page_to_frames(&p);
        enqueue_page(&mut s, p, 0.0);
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(s.advance(0.05));
        }
        assert_eq!(got.len(), want.len());
        assert_eq!(s.backlog_bytes(), 0);
        assert_eq!(s.transmitted_bytes as usize, want.len() * FRAME_SIZE);
    }

    #[test]
    fn maintained_backlog_counter_matches_queue_scan() {
        let mut s = BroadcastScheduler::new(80_000.0);
        let check = |s: &BroadcastScheduler| {
            let scanned: usize = s.queue.iter().map(|q| q.remaining_bytes).sum();
            assert_eq!(s.backlog_bytes(), scanned);
            assert_eq!(s.backlog_pages(), s.queue.len());
        };
        check(&s);
        enqueue_page(&mut s, page("a", 60), 0.0);
        check(&s);
        enqueue_page(&mut s, page("b", 100), 0.0);
        check(&s);
        enqueue_page(&mut s, page("a", 60), 0.0); // duplicate: no change
        check(&s);
        for _ in 0..200 {
            s.advance(0.05);
            check(&s);
        }
        assert_eq!(s.backlog_bytes(), 0);
        assert_eq!(s.backlog_pages(), 0);
    }

    #[test]
    fn prechunked_enqueue_shares_frames_and_dedupes() {
        let mut s = BroadcastScheduler::new(80_000.0);
        let p = Arc::new(page("a", 50));
        let frames = Arc::new(crate::chunker::page_to_frames(&p));
        let eta = s.enqueue_prechunked(p.clone(), frames.clone(), 0.0);
        assert!(eta > 0.0);
        assert_eq!(s.backlog_bytes(), frames.len() * FRAME_SIZE);
        // Re-push of the same page version: dedup, backlog unchanged.
        let eta2 = s.enqueue_prechunked(p.clone(), frames.clone(), 1.0);
        assert!((eta2 - eta).abs() < 1e-9);
        assert_eq!(s.backlog_pages(), 1);
        // Everything drains in order and matches the shared frame sequence.
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(s.advance(0.05));
        }
        assert_eq!(got, *frames);
        assert_eq!(s.backlog_bytes(), 0);
    }

    #[test]
    fn empty_frame_list_is_ignored() {
        let mut s = BroadcastScheduler::new(8_000.0);
        let p = Arc::new(page("a", 40));
        s.enqueue_prechunked(p, Arc::new(Vec::new()), 0.0);
        assert_eq!(s.backlog_pages(), 0);
        assert!(s.advance(10.0).is_empty());
    }

    #[test]
    fn full_page_supersedes_queued_repair_burst() {
        let mut s = BroadcastScheduler::new(80_000.0);
        let p = Arc::new(page("a", 60));
        let all = Arc::new(crate::chunker::page_to_frames(&p));
        let repair: Arc<Vec<Frame>> = Arc::new(all.iter().take(3).cloned().collect());
        s.enqueue_frames(p.page_id, SlotKind::Repair, repair.clone(), 0.0);
        assert_eq!(s.backlog_pages(), 1);
        // Same tick, the full page arrives: the repair entry is dropped, not
        // double-scheduled.
        s.enqueue_prechunked(p.clone(), all.clone(), 0.0);
        assert_eq!(s.backlog_pages(), 1);
        assert_eq!(s.backlog_bytes(), all.len() * FRAME_SIZE);
        // And the full entry now serves later repairs for free.
        assert!(s.eta_full_for(p.page_id).is_some());
        let before = s.backlog_bytes();
        s.enqueue_frames(p.page_id, SlotKind::Repair, repair, 1.0);
        assert_eq!(s.backlog_bytes(), before);
    }

    #[test]
    fn repair_enqueues_coalesce_but_delta_does_not_serve_them() {
        let mut s = BroadcastScheduler::new(80_000.0);
        let p = Arc::new(page("a", 60));
        let all = crate::chunker::page_to_frames(&p);
        let delta: Arc<Vec<Frame>> = Arc::new(all.iter().take(4).cloned().collect());
        let repair: Arc<Vec<Frame>> = Arc::new(all.iter().skip(4).take(3).cloned().collect());
        s.enqueue_delta(p.clone(), delta.clone(), 0.0);
        assert!(s.eta_full_for(p.page_id).is_none(), "delta is not a full slot");
        // A repair for ranges the delta may not carry still schedules.
        s.enqueue_frames(p.page_id, SlotKind::Repair, repair.clone(), 0.0);
        assert_eq!(s.backlog_pages(), 2);
        assert!(s.repair_queued(p.page_id));
        // A second repair for the same page coalesces.
        let before = s.backlog_bytes();
        s.enqueue_frames(p.page_id, SlotKind::Repair, repair, 1.0);
        assert_eq!(s.backlog_bytes(), before);
        assert_eq!(s.backlog_pages(), 2);
    }

    #[test]
    fn delta_enqueue_dedupes_against_any_queued_entry_and_drains_in_order() {
        let mut s = BroadcastScheduler::new(80_000.0);
        let p = Arc::new(page("a", 60));
        let all = Arc::new(crate::chunker::page_to_frames(&p));
        let delta: Arc<Vec<Frame>> = Arc::new(all.iter().take(5).cloned().collect());
        let eta = s.enqueue_delta(p.clone(), delta.clone(), 0.0);
        assert!(eta > 0.0);
        assert_eq!(s.backlog_bytes(), delta.len() * FRAME_SIZE);
        // Re-push of the delta dedupes.
        let eta2 = s.enqueue_delta(p.clone(), delta.clone(), 1.0);
        assert!((eta2 - eta).abs() < 1e-9);
        assert_eq!(s.backlog_pages(), 1);
        // With a full entry queued, a delta for the same page is covered.
        let q = Arc::new(page("b", 60));
        let q_frames = Arc::new(crate::chunker::page_to_frames(&q));
        s.enqueue_prechunked(q.clone(), q_frames.clone(), 2.0);
        let before = s.backlog_bytes();
        s.enqueue_delta(q.clone(), delta.clone(), 2.0);
        assert_eq!(s.backlog_bytes(), before);
        // Everything drains FIFO: the delta frames, then the full page's.
        let mut got = Vec::new();
        for _ in 0..400 {
            got.extend(s.advance(0.05));
        }
        let want: Vec<Frame> = delta.iter().chain(q_frames.iter()).cloned().collect();
        assert_eq!(got, want);
        assert_eq!(s.backlog_bytes(), 0);
    }

    #[test]
    fn fractional_budget_carries_over() {
        let mut s = BroadcastScheduler::new(8_000.0);
        enqueue_page(&mut s, page("a", 100), 0.0);
        // 0.05 s = 50 B: no frame yet; the next 0.05 s completes one.
        assert!(s.advance(0.05).is_empty());
        assert_eq!(s.advance(0.05).len(), 1);
    }
}
