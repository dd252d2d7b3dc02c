//! Property tests for the wire frame codec under adversarial byte streams.
//!
//! The decoder's contract: fed *any* byte stream — well-formed frames cut
//! at arbitrary chunk boundaries, truncated mid-frame, bit-flipped in
//! flight, or interleaved with garbage — it emits only frames that were
//! genuinely encoded in the stream (never a forged payload), keeps them in
//! order, accounts for every loss in its stats, and never panics. Every
//! property drives [`FrameDecoder`] through `feed`/`drain_frames` exactly
//! the way a transport endpoint does.

use proptest::prelude::*;
use sonic_core::net::codec::{
    encode_frame, frame_bytes, DecoderStats, FrameDecoder, MAX_WIRE_PAYLOAD, WIRE_HEADER,
};
use sonic_fec::crc32;

/// The decoder before its CRC prefix table, kept as the oracle: the same
/// scan, but every resync candidate's payload is hashed from scratch, so a
/// resync costs O(buffer × candidate length). `stats.hashed_bytes` counts
/// that cost.
#[derive(Default)]
struct ReferenceDecoder {
    buf: Vec<u8>,
    head: usize,
    stats: DecoderStats,
    scanning: bool,
}

impl ReferenceDecoder {
    fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    fn compact(&mut self) {
        if self.head > 4096 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    fn skip_byte(&mut self) {
        if !self.scanning {
            self.scanning = true;
            self.stats.resyncs += 1;
        }
        self.head += 1;
        self.stats.skipped_bytes += 1;
    }

    fn force_resync(&mut self) {
        if self.buf.len() > self.head {
            self.skip_byte();
        }
    }

    fn next_frame(&mut self) -> Option<Vec<u8>> {
        loop {
            let avail = self.buf.len() - self.head;
            if avail < WIRE_HEADER {
                return None;
            }
            let at = self.head;
            let word = |i: usize| {
                u32::from_be_bytes([
                    self.buf[i],
                    self.buf[i + 1],
                    self.buf[i + 2],
                    self.buf[i + 3],
                ])
            };
            let (len, want) = (word(at) as usize, word(at + 4));
            if len > MAX_WIRE_PAYLOAD {
                self.skip_byte();
                continue;
            }
            if avail < WIRE_HEADER + len {
                if self.scanning {
                    self.skip_byte();
                    continue;
                }
                return None;
            }
            let payload = &self.buf[at + WIRE_HEADER..at + WIRE_HEADER + len];
            self.stats.hashed_bytes += len as u64;
            if crc32(payload) != want {
                self.stats.crc_failures += 1;
                self.skip_byte();
                continue;
            }
            let frame = payload.to_vec();
            self.head += WIRE_HEADER + len;
            self.scanning = false;
            self.stats.frames += 1;
            self.compact();
            return Some(frame);
        }
    }
}

/// Stats with the CRC cost masked out: the one counter the two decoders
/// are meant to differ on.
fn decisions(stats: DecoderStats) -> DecoderStats {
    DecoderStats {
        hashed_bytes: 0,
        ..stats
    }
}

/// Runs both decoders over `bytes` fed in chunks cycling through `splits`,
/// calling `force_resync` on both before draining the feeds listed in
/// `resync_at`; asserts after every call that they emitted the same frame
/// and hold the same stats and buffer. Returns both decoders' final stats.
fn decode_against_reference(
    bytes: &[u8],
    splits: &[usize],
    resync_at: &[usize],
) -> (DecoderStats, DecoderStats) {
    let (mut d, mut r) = (FrameDecoder::new(), ReferenceDecoder::default());
    let (mut at, mut feed) = (0, 0);
    while at < bytes.len() {
        let end = (at + splits[feed % splits.len()].max(1)).min(bytes.len());
        d.feed(&bytes[at..end]);
        r.feed(&bytes[at..end]);
        if resync_at.contains(&feed) {
            d.force_resync();
            r.force_resync();
            assert_eq!(
                decisions(d.stats),
                decisions(r.stats),
                "force_resync at feed {feed}"
            );
        }
        loop {
            let (got, want) = (d.next_frame(), r.next_frame());
            assert_eq!(got, want, "feed {feed}, bytes ..{end}");
            assert_eq!(
                decisions(d.stats),
                decisions(r.stats),
                "feed {feed}, bytes ..{end}"
            );
            assert_eq!(d.buffered(), r.buf.len() - r.head);
            if got.is_none() {
                break;
            }
        }
        at = end;
        feed += 1;
    }
    (d.stats, r.stats)
}

/// `n` bytes from a xorshift seeded with `seed`; with `small` set, every
/// byte is 0–3, so most 4-byte windows read as plausible lengths.
fn filler(seed: u64, n: usize, small: bool) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if small {
                (x >> 32) as u8 & 3
            } else {
                (x >> 32) as u8
            }
        })
        .collect()
}

/// One stretch of an adversarial stream: `kind` picks a valid frame, a
/// frame torn short, opaque garbage, small-valued garbage (plausible
/// lengths everywhere) or a zero run (every 8 zero bytes are a valid empty
/// frame, since `crc32("") == 0`).
fn segment(kind: u8, size: usize, seed: u64, out: &mut Vec<u8>) {
    match kind {
        0 | 1 => encode_frame(&filler(seed, size, seed & 2 == 0), out),
        2 => {
            let frame = frame_bytes(&filler(seed, size, seed & 2 == 0));
            out.extend_from_slice(&frame[..(seed as usize) % frame.len()]);
        }
        3 => out.extend(filler(seed, size % 300, false).into_iter().map(|b| b | 1)),
        4 => out.extend(filler(seed, size % 700, true)),
        _ => out.resize(out.len() + size % 48, 0),
    }
}

/// Encodes `payloads` back-to-back into one wire stream.
fn stream(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut s = Vec::new();
    for p in payloads {
        encode_frame(p, &mut s);
    }
    s
}

/// Feeds `bytes` to a fresh decoder in chunks whose sizes cycle through
/// `splits`, returning every decoded frame.
fn decode_chunked(bytes: &[u8], splits: &[usize]) -> (Vec<Vec<u8>>, FrameDecoder) {
    let mut d = FrameDecoder::new();
    let mut got = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < bytes.len() {
        let step = splits.get(i % splits.len()).copied().unwrap_or(1).max(1);
        let end = (at + step).min(bytes.len());
        d.feed(&bytes[at..end]);
        got.extend(d.drain_frames());
        at = end;
        i += 1;
    }
    (got, d)
}

/// Arbitrary payload vectors: a mix of empty, tiny and chunk-sized.
fn payloads_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..12)
}

/// Garbage that cannot embed or start a plausible frame: with every byte
/// nonzero, any 4-byte window read as a big-endian length is ≥ 2^24 and
/// therefore rejected as implausible (`MAX_WIRE_PAYLOAD` is 2^20). This
/// isolates the resync-walk behaviour from the separate "plausible length
/// stalls until the watchdog fires" behaviour, which is tested on its own.
fn opaque_junk(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(1u8..=255, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame sequence survives any chunking of the byte stream: the
    /// decoder re-emits the payloads exactly, in order, with no resyncs
    /// and nothing left buffered.
    #[test]
    fn round_trip_any_split(
        payloads in payloads_strategy(),
        splits in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let bytes = stream(&payloads);
        let (got, d) = decode_chunked(&bytes, &splits);
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(d.stats.resyncs, 0);
        prop_assert_eq!(d.buffered(), 0);
    }

    /// Truncating the stream anywhere yields exactly the frames whose
    /// bytes fully arrived — a prefix of the original sequence, never a
    /// phantom and never a reordering.
    #[test]
    fn truncation_yields_a_prefix(
        payloads in payloads_strategy(),
        cut_frac in 0.0f64..1.0,
        splits in proptest::collection::vec(1usize..64, 1..4),
    ) {
        let bytes = stream(&payloads);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let (got, _) = decode_chunked(&bytes[..cut], &splits);
        prop_assert!(got.len() <= payloads.len());
        prop_assert_eq!(&got[..], &payloads[..got.len()]);
    }

    /// A single bit flip anywhere in the stream never forges a frame: the
    /// decoder's output is an in-order subsequence of the sent payloads,
    /// and any loss leaves evidence — a CRC failure, skipped bytes, or
    /// bytes stalled in the buffer awaiting the watchdog.
    #[test]
    fn bit_flip_never_forges_a_frame(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120), 1..8),
        flip_at_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
        splits in proptest::collection::vec(1usize..48, 1..4),
    ) {
        let mut bytes = stream(&payloads);
        let at = ((bytes.len() - 1) as f64 * flip_at_frac) as usize;
        bytes[at] ^= 1 << flip_bit;
        let (got, d) = decode_chunked(&bytes, &splits);
        // Every decoded frame is literally one of the sent payloads, and
        // the survivors appear in send order (the flip can destroy frames,
        // never fabricate or mutate one).
        let mut cursor = 0;
        for f in &got {
            let pos = payloads[cursor..].iter().position(|p| p == f);
            prop_assert!(pos.is_some(), "decoder emitted a forged frame: {f:?}");
            cursor += pos.unwrap() + 1;
        }
        // Loss is accounted for, not silent: either stats show the damage
        // or the damaged frame's bytes are still stalled in the buffer
        // (the in-sync wait the endpoint watchdog exists to break).
        if got.len() < payloads.len() {
            prop_assert!(
                d.stats.crc_failures > 0
                    || d.stats.skipped_bytes > 0
                    || d.buffered() > 0,
                "frames lost with no evidence: {:?}", d.stats
            );
        }
    }

    /// Opaque garbage injected between two valid frames is walked off
    /// byte-by-byte: both real frames decode, the skip cost equals the
    /// junk length, and the whole excursion counts as one resync. Fed in
    /// one shot — under chunked feeds the scan may reach `b`'s header
    /// before `b`'s tail arrives and deliberately sacrifice it
    /// (mid-resync, a plausible-but-incomplete candidate is skipped, not
    /// waited on; that anti-livelock trade is exercised below).
    #[test]
    fn garbage_between_frames_is_skipped(
        junk in opaque_junk(1..200),
        a in proptest::collection::vec(any::<u8>(), 0..100),
        b in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut bytes = frame_bytes(&a);
        bytes.extend_from_slice(&junk);
        encode_frame(&b, &mut bytes);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        let got = d.drain_frames();
        prop_assert_eq!(got, vec![a, b]);
        prop_assert_eq!(d.stats.skipped_bytes, junk.len() as u64);
        prop_assert_eq!(d.stats.resyncs, 1);
    }

    /// The same injection under arbitrary chunked feeds: `a` always
    /// decodes, nothing is forged, and at worst `b` alone is sacrificed
    /// to the mid-resync scan — with the loss visible in the stats.
    #[test]
    fn garbage_between_frames_chunked_loses_at_most_the_successor(
        junk in opaque_junk(1..200),
        a in proptest::collection::vec(any::<u8>(), 0..100),
        // Opaque so a sacrificed `b` can't shrink toward an embedded
        // valid frame (8 zero bytes encode an empty frame).
        b in opaque_junk(0..100),
        splits in proptest::collection::vec(1usize..32, 1..4),
    ) {
        let mut bytes = frame_bytes(&a);
        bytes.extend_from_slice(&junk);
        encode_frame(&b, &mut bytes);
        let (got, d) = decode_chunked(&bytes, &splits);
        prop_assert!(!got.is_empty() && got.len() <= 2);
        prop_assert_eq!(&got[0], &a);
        if got.len() == 2 {
            prop_assert_eq!(&got[1], &b);
        }
        prop_assert!(d.stats.skipped_bytes >= junk.len() as u64);
        prop_assert_eq!(d.stats.resyncs, 1);
    }

    /// Arbitrary garbage (zeros allowed) never yields a frame that was
    /// not genuinely encoded in the stream: anything emitted must
    /// re-encode to a byte window actually present in the input. (An
    /// 8-zero-byte run *is* a valid empty frame — `crc32("") == 0` — so
    /// "no frames ever" would be the wrong property.)
    #[test]
    fn pure_garbage_never_forges(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
        splits in proptest::collection::vec(1usize..32, 1..4),
    ) {
        let (got, d) = decode_chunked(&junk, &splits);
        for f in &got {
            let enc = frame_bytes(f);
            prop_assert!(
                junk.windows(enc.len()).any(|w| w == enc.as_slice()),
                "emitted frame not present in the stream: {f:?}"
            );
        }
        prop_assert_eq!(d.stats.frames, got.len() as u64);
    }

    /// `force_resync` (the stall watchdog's lever) recovers cleanly from a
    /// torn opaque prefix: after the watchdog fires, freshly fed frames
    /// all decode — none are eaten by the abandoned partial frame.
    #[test]
    fn force_resync_recovers_fresh_traffic(
        torn in opaque_junk(0..64),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..80), 1..6),
    ) {
        let mut d = FrameDecoder::new();
        // A torn partial frame sits undecoded...
        d.feed(&torn);
        prop_assert!(d.drain_frames().is_empty());
        // ...the watchdog gives up on it...
        d.force_resync();
        prop_assert!(d.drain_frames().is_empty());
        // ...then clean traffic resumes and must fully decode: every byte
        // of the torn prefix is implausible as a length, so the resync
        // scan walks off all of it and re-locks exactly at the first
        // fresh frame boundary.
        let bytes = stream(&payloads);
        d.feed(&bytes);
        prop_assert_eq!(d.drain_frames(), payloads);
        prop_assert_eq!(d.buffered(), 0);
    }

    /// The decoder with its CRC prefix table makes every decision the
    /// from-scratch reference makes — same frames, same stats, same
    /// buffered bytes after every call — on streams mixing valid frames,
    /// torn frames, garbage and zero runs, then bit-flipped, with chunks
    /// dropped and the tail truncated, fed in random splits with
    /// `force_resync` at random feeds.
    #[test]
    fn decoder_matches_the_reference_scan(
        segments in proptest::collection::vec((0u8..6, 0usize..2500, any::<u64>()), 1..16),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), 0u8..8), 0..4),
        drops in proptest::collection::vec((any::<prop::sample::Index>(), 1usize..200), 0..3),
        cut_frac in 0.6f64..1.0,
        splits in proptest::collection::vec(1usize..1500, 1..6),
        resyncs in proptest::collection::vec(0usize..40, 0..4),
    ) {
        let mut bytes = Vec::new();
        for &(kind, size, seed) in &segments {
            segment(kind, size, seed, &mut bytes);
        }
        for (at, len) in drops {
            if !bytes.is_empty() {
                let at = at.index(bytes.len());
                bytes.drain(at..(at + len).min(bytes.len()));
            }
        }
        for (at, bit) in flips {
            if !bytes.is_empty() {
                let at = at.index(bytes.len());
                bytes[at] ^= 1 << bit;
            }
        }
        bytes.truncate((bytes.len() as f64 * cut_frac) as usize);
        decode_against_reference(&bytes, &splits, &resyncs);
    }
}

/// 256 KiB where one offset in three reads a plausible 4–16 KiB length
/// that fits the buffer and never matches its CRC word (the other offsets
/// read lengths ≥ 2^20 or 2^24, implausible). The reference hashes every
/// candidate's payload, ~10 KiB per offset; the decoder with its prefix
/// table hashes each byte into the table about once, plus at most two
/// 63-byte tails per candidate — and skips exactly the same bytes.
#[test]
fn resync_hashing_is_linear_on_a_stream_of_plausible_lengths() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let bytes: Vec<u8> = (0..(256 << 10) / 3)
        .flat_map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            [0, 0, 16 + (x >> 58) as u8]
        })
        .collect();
    let fed = bytes.len() as u64;
    for split in [bytes.len(), 1500] {
        let (new, reference) = decode_against_reference(&bytes, &[split], &[]);
        assert_eq!(new.frames, 0);
        assert_eq!(
            new.skipped_bytes,
            fed - 7,
            "everything but a sub-header tail"
        );
        assert!(
            new.hashed_bytes <= 3 * fed + 2 * 63 * new.crc_failures,
            "table strides plus two tails per candidate: {new:?}"
        );
        assert!(new.hashed_bytes <= 64 * fed, "{new:?}");
        if split == bytes.len() {
            // Fed at once, every candidate fits: the quadratic case.
            assert!(new.crc_failures > 80_000, "{new:?}");
            assert!(reference.hashed_bytes > 1000 * fed, "{reference:?}");
        }
    }
}
