//! Length-prefixed wire framing: `[len: u32][crc: u32][payload]`.
//!
//! `len` counts payload bytes only; `crc` is the CRC-32 of the payload.
//! Both prefix words are big-endian. The decoder treats its input as an
//! untrusted byte *stream*: arbitrary splits, truncations and bit flips
//! must never produce a panic or a phantom frame — a damaged prefix is
//! walked off one byte at a time until the stream re-locks on a valid
//! frame (`resyncs` counts the events, `skipped_bytes` the cost).
//!
//! Mid-resync every offset whose length word is plausible is a candidate
//! whose payload CRC must be checked. Hashing each candidate from scratch
//! costs O(buffer × candidate length); the decoder instead keeps CRC-32
//! prefixes of its buffer every 64 bytes (`CRC_STRIDE`) and derives a
//! candidate's CRC from two of them (`crc32_suffix`), so a resync costs
//! O(buffer) hashing plus O(log length) per candidate.

use sonic_fec::crc32::{crc32, crc32_extend, crc32_suffix};
use sonic_image::bitio::{ByteReader, ByteWriter};
use std::collections::VecDeque;

/// Bytes of framing prefix per wire frame (`len` + `crc`).
pub const WIRE_HEADER: usize = 8;

/// Upper bound on a single wire payload. Anything larger than this in a
/// length prefix is treated as stream damage, not a frame to wait for —
/// the bound is what keeps a corrupted length word from stalling the
/// decoder (and its buffer) forever.
pub const MAX_WIRE_PAYLOAD: usize = 1 << 20;

/// Bytes between the decoder's CRC prefix entries. One 4-byte entry per
/// 64 buffered bytes keeps the table at 1/16 of the buffer it indexes,
/// and a lookup hashes at most 63 bytes past its entry.
const CRC_STRIDE: usize = 64;

/// Appends one encoded wire frame for `payload` to `out`. Panics past
/// [`MAX_WIRE_PAYLOAD`], a length the decoder skips as damage.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let mut w = ByteWriter::new(out);
    let len = w.bounded_u32(payload.len(), MAX_WIRE_PAYLOAD);
    assert!(len.is_ok(), "wire payload refused: {len:?}");
    w.u32(crc32(payload)).bytes(payload);
}

/// One encoded wire frame as an owned buffer.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WIRE_HEADER + payload.len());
    encode_frame(payload, &mut out);
    out
}

/// Decoder counters (soak assertions and link diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// CRC-valid frames emitted.
    pub frames: u64,
    /// Times the decoder lost lock and began scanning byte-by-byte.
    pub resyncs: u64,
    /// Bytes discarded while scanning for the next valid frame.
    pub skipped_bytes: u64,
    /// Candidate frames dropped on CRC mismatch.
    pub crc_failures: u64,
    /// Bytes run through the CRC-32 kernel: in sync, each candidate
    /// payload once; mid-resync, the prefix table's strides plus at most
    /// two sub-stride tails per candidate.
    pub hashed_bytes: u64,
}

/// Incremental decoder over an adversarial byte stream.
///
/// Feed arbitrary chunks with [`feed`](Self::feed); pull frames with
/// [`next_frame`](Self::next_frame). Buffered bytes are bounded by
/// `MAX_WIRE_PAYLOAD + WIRE_HEADER` plus the largest single `feed` chunk:
/// the decoder either consumes, emits or skips — it never waits on more
/// than one plausible frame.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted periodically, not per byte).
    head: usize,
    /// Counters.
    pub stats: DecoderStats,
    /// Whether the scan position is mid-resync (so a run of skipped bytes
    /// counts as one resync event, not one per byte).
    scanning: bool,
    /// CRC prefixes of `buf` for resync candidates; emptied when
    /// [`compact`](Self::compact) moves `buf`.
    prefixes: CrcPrefixes,
}

/// CRC-32 prefixes of the decoder's buffer at a stride of [`CRC_STRIDE`]
/// bytes from `base`. Entries wholly before the decoder's head are dropped
/// on lookup, so the table holds at most `buffered / CRC_STRIDE + 2`
/// entries.
#[derive(Debug, Default)]
struct CrcPrefixes {
    /// Index in `buf` at which every prefix starts.
    base: usize,
    /// Stride index of `crcs[0]`.
    first: usize,
    /// `crcs[j]` is the CRC of `buf[base..base + CRC_STRIDE·(first + j)]`.
    crcs: VecDeque<u32>,
}

impl CrcPrefixes {
    /// The CRC of `buf[base..at]`, for `head ≤ at ≤ buf.len()`: extends
    /// the table to `at`'s stride, then hashes the under-a-stride rest.
    /// Adds every byte it hashes to `hashed`.
    fn crc_to(&mut self, buf: &[u8], head: usize, at: usize, hashed: &mut u64) -> u32 {
        if self.crcs.is_empty() || (head - self.base) / CRC_STRIDE >= self.first + self.crcs.len() {
            // No entry at or past the head's stride: start over at the head.
            self.base = head;
            self.first = 0;
            self.crcs.clear();
            self.crcs.push_back(crc32(&[]));
        }
        while self.first < (head - self.base) / CRC_STRIDE {
            self.crcs.pop_front();
            self.first += 1;
        }
        let k = (at - self.base) / CRC_STRIDE;
        let mut end = self.first + self.crcs.len() - 1;
        let mut crc = self.crcs.back().copied().unwrap_or(0);
        while end < k {
            let from = self.base + CRC_STRIDE * end;
            crc = crc32_extend(crc, &buf[from..from + CRC_STRIDE]);
            self.crcs.push_back(crc);
            end += 1;
            *hashed += CRC_STRIDE as u64;
        }
        let from = self.base + CRC_STRIDE * k;
        *hashed += (at - from) as u64;
        crc32_extend(self.crcs[k - self.first], &buf[from..at])
    }
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes to the stream buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Drops the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.head > 4096 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
            self.prefixes.crcs.clear();
        }
    }

    /// Skips one byte of damaged stream.
    fn skip_byte(&mut self) {
        if !self.scanning {
            self.scanning = true;
            self.stats.resyncs += 1;
        }
        self.head += 1;
        self.stats.skipped_bytes += 1;
    }

    /// Abandons the current in-sync wait and begins scanning from the next
    /// byte. Endpoint watchdogs call this when bytes have sat undecoded
    /// past a stall horizon: the pending length prefix then belongs to a
    /// frame whose tail was torn in flight and will never arrive, and
    /// waiting on it would swallow every later frame (a decoder livelock).
    /// A no-op on an empty buffer; if the suspect frame's bytes do arrive
    /// later after all, only that one frame is lost to the scan.
    pub fn force_resync(&mut self) {
        if self.buffered() > 0 {
            self.skip_byte();
        }
    }

    /// Decodes the next CRC-valid frame, or `None` when the buffered
    /// stream holds no complete frame (more bytes may still arrive).
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        loop {
            let at = self.head;
            let mut header = ByteReader::new(&self.buf[at..]);
            let (Some(len), Some(want)) = (header.u32(), header.u32()) else {
                return None; // fewer than WIRE_HEADER bytes buffered
            };
            let len = len as usize;
            let avail = self.buf.len() - at;
            if len > MAX_WIRE_PAYLOAD {
                // Implausible length: a damaged prefix, not a frame.
                self.skip_byte();
                continue;
            }
            if avail < WIRE_HEADER + len {
                if self.scanning {
                    // Mid-resync a "plausible" length word is just damage
                    // that happens to read small; waiting on it could stall
                    // behind bytes that never come while valid frames sit
                    // deeper in the buffer. Keep scanning.
                    self.skip_byte();
                    continue;
                }
                return None; // in sync: the frame's bytes are still in flight
            }
            let (from, to) = (at + WIRE_HEADER, at + WIRE_HEADER + len);
            let got = if self.scanning && len >= 2 * CRC_STRIDE {
                let hashed = &mut self.stats.hashed_bytes;
                let crc_a = self.prefixes.crc_to(&self.buf, at, from, hashed);
                let crc_ab = self.prefixes.crc_to(&self.buf, at, to, hashed);
                crc32_suffix(crc_ab, crc_a, len)
            } else {
                self.stats.hashed_bytes += len as u64;
                crc32(&self.buf[from..to])
            };
            if got != want {
                self.stats.crc_failures += 1;
                self.skip_byte();
                continue;
            }
            let frame = self.buf[from..to].to_vec();
            self.head += WIRE_HEADER + len;
            self.scanning = false;
            self.stats.frames += 1;
            self.compact();
            return Some(frame);
        }
    }

    /// Drains every decodable frame currently buffered.
    pub fn drain_frames(&mut self) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| self.next_frame()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(payloads: &[&[u8]]) -> Vec<u8> {
        let mut s = Vec::new();
        for p in payloads {
            encode_frame(p, &mut s);
        }
        s
    }

    #[test]
    fn round_trips_frames_across_arbitrary_splits() {
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 1 + i as usize * 7]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let bytes = stream(&refs);
        for split in 1..bytes.len().min(64) {
            let mut d = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in bytes.chunks(split) {
                d.feed(chunk);
                got.extend(d.drain_frames());
            }
            assert_eq!(got, payloads, "split={split}");
            assert_eq!(d.stats.resyncs, 0);
            assert_eq!(d.buffered(), 0);
        }
    }

    #[test]
    fn empty_payload_frames_are_legal() {
        let bytes = stream(&[b"", b"x", b""]);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert_eq!(d.drain_frames(), vec![b"".to_vec(), b"x".to_vec(), b"".to_vec()]);
    }

    #[test]
    fn bit_flip_in_payload_resyncs_to_next_frame() {
        let bytes = {
            let mut b = stream(&[b"victim-frame-payload", b"survivor"]);
            b[WIRE_HEADER + 3] ^= 0x40; // damage frame 1's payload
            b
        };
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        let got = d.drain_frames();
        assert_eq!(got, vec![b"survivor".to_vec()]);
        assert_eq!(d.stats.resyncs, 1);
        assert!(d.stats.crc_failures >= 1);
        assert!(d.stats.skipped_bytes > 0);
    }

    #[test]
    fn truncated_tail_yields_the_valid_prefix() {
        let bytes = stream(&[b"one", b"two", b"three"]);
        for cut in 0..bytes.len() {
            let mut d = FrameDecoder::new();
            d.feed(&bytes[..cut]);
            let got = d.drain_frames();
            let whole: Vec<Vec<u8>> =
                [b"one".to_vec(), b"two".to_vec(), b"three".to_vec()].to_vec();
            assert!(got.len() <= whole.len());
            assert_eq!(got, whole[..got.len()].to_vec(), "cut={cut}");
        }
    }

    #[test]
    fn implausible_length_prefix_does_not_stall() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd len
        bytes.extend_from_slice(&[0u8; 4]);
        encode_frame(b"after-garbage", &mut bytes);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert_eq!(d.drain_frames(), vec![b"after-garbage".to_vec()]);
        assert!(d.stats.skipped_bytes >= 8);
    }

    #[test]
    fn pure_garbage_is_skipped_without_frames() {
        let mut d = FrameDecoder::new();
        let junk: Vec<u8> = (0..997u32).map(|i| (i * 31 % 251) as u8).collect();
        d.feed(&junk);
        assert!(d.drain_frames().is_empty());
        assert_eq!(d.stats.frames, 0);
    }

    #[test]
    fn buffer_compacts_after_consuming_large_prefix() {
        let big = vec![7u8; 9000];
        let mut d = FrameDecoder::new();
        d.feed(&frame_bytes(&big));
        assert_eq!(d.next_frame().map(|f| f.len()), Some(9000));
        d.feed(&frame_bytes(b"tiny"));
        assert_eq!(d.next_frame(), Some(b"tiny".to_vec()));
        assert!(d.buf.len() < 9000, "consumed prefix must be dropped");
    }

    /// A payload at `MAX_WIRE_PAYLOAD` encodes and decodes; one byte more
    /// is refused by the writer, as the decoder would skip it as damage.
    #[test]
    fn payload_at_and_past_the_wire_bound() {
        let at = vec![5u8; MAX_WIRE_PAYLOAD];
        let mut d = FrameDecoder::new();
        d.feed(&frame_bytes(&at));
        assert_eq!(d.next_frame(), Some(at));
        let past = vec![5u8; MAX_WIRE_PAYLOAD + 1];
        assert!(std::panic::catch_unwind(|| frame_bytes(&past)).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Whatever payloads are framed come back, in order, whole.
        #[test]
        fn framed_payloads_decode_to_themselves(
            payloads in proptest::collection::vec(proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300), 0..6),
        ) {
            let mut bytes = Vec::new();
            for p in &payloads {
                encode_frame(p, &mut bytes);
            }
            let mut d = FrameDecoder::new();
            d.feed(&bytes);
            proptest::prop_assert_eq!(d.drain_frames(), payloads);
        }
    }
}
