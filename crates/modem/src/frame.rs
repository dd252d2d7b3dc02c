//! PHY frame assembly and recovery.
//!
//! A PHY frame carries one opaque payload (the link layer above stacks its
//! own 100-byte SONIC frames inside). Wire format:
//!
//! ```text
//! header symbol (BPSK, conv-coded): magic(4b) | payload_len(12b) | crc16(16b)
//! payload symbols: FecPipeline(profile.fec) over the payload bytes
//! ```
//!
//! The 12-bit length field caps a PHY payload at 4095 bytes — plenty, since
//! the link layer never aggregates more than a few dozen 100-byte frames per
//! burst.

use crate::constellation::Modulation;
use crate::ofdm::demodulator::{BurstScanner, Frontend};
use crate::ofdm::modulator::ModulatorScratch;
use crate::ofdm::{Demodulator, Modulator};
use crate::profile::Profile;
use sonic_fec::code_spec::FecError;
use sonic_fec::{bits::bits_to_bytes, FecPipeline};
use std::cell::RefCell;

/// Maximum payload bytes per PHY frame (12-bit length field).
pub const MAX_PAYLOAD: usize = 4095;

/// 4-bit magic marking a SONIC PHY header.
const MAGIC: u8 = 0xA;

/// Errors produced while recovering a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhyError {
    /// Header did not decode to a valid magic + CRC.
    HeaderCorrupt,
    /// Header fine, but the payload FEC could not repair the damage.
    PayloadUnrecoverable,
    /// The buffer ended before the full payload was received.
    Truncated,
}

impl std::fmt::Display for PhyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhyError::HeaderCorrupt => write!(f, "phy: header corrupt"),
            PhyError::PayloadUnrecoverable => write!(f, "phy: payload unrecoverable"),
            PhyError::Truncated => write!(f, "phy: burst truncated"),
        }
    }
}

impl std::error::Error for PhyError {}

/// One recovered frame (or the reason it was lost) plus its position.
#[derive(Debug, Clone)]
pub struct DemodFrame {
    /// Audio sample index where the burst's preamble began, as the
    /// receiver's timing places it (to within a baseband sample: four audio
    /// samples, see [`crate::ofdm::demodulator::audio_sample`]).
    pub start_sample: usize,
    /// Recovered payload or the failure mode.
    pub payload: Result<Vec<u8>, PhyError>,
}

/// CRC-16-CCITT (poly 0x1021, init 0xFFFF) for the PHY header.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Builds the 4 header bytes, 32 bits: magic(4) | len(12) | crc16(16).
fn header_bytes(payload_len: usize) -> [u8; 4] {
    assert!(payload_len <= MAX_PAYLOAD, "payload too large: {payload_len}");
    let word: u16 = ((MAGIC as u16) << 12) | payload_len as u16;
    let [w0, w1] = word.to_be_bytes();
    let [c0, c1] = crc16(&[w0, w1]).to_be_bytes();
    [w0, w1, c0, c1]
}

/// Parses header bits back into a payload length.
fn parse_header(bits: &[u8]) -> Option<usize> {
    if bits.len() < 32 {
        return None;
    }
    let bytes = bits_to_bytes(&bits[..32]);
    let word = u16::from_be_bytes([bytes[0], bytes[1]]);
    let crc = u16::from_be_bytes([bytes[2], bytes[3]]);
    if crc16(&word.to_be_bytes()) != crc {
        return None;
    }
    if (word >> 12) as u8 != MAGIC {
        return None;
    }
    Some((word & 0x0FFF) as usize)
}

/// Header bits are protected by the inner convolutional code only (they must
/// decode before we know the payload length, so they cannot share the
/// payload's RS blocks).
fn header_coded_bits(payload_len: usize) -> Vec<u8> {
    sonic_fec::conv::encode_bytes(&header_bytes(payload_len))
}

fn header_decode(soft: &[f32]) -> Option<usize> {
    // 32 info bits + 8 tail = 80 coded bits.
    let coded = 80.min(soft.len());
    if coded < 80 {
        return None;
    }
    let bits = sonic_fec::viterbi::decode_soft(&soft[..80], 32);
    parse_header(&bits)
}

/// Audio samples [`FrameCodec::push`] hands down the chain at a time: the
/// block, its I/Q planes and its baseband together stay within a phone's L1
/// or L2 cache, and the baseband window is trimmed once a block. Not
/// observable in what is decoded.
const PUSH_BLOCK: usize = 4_096;

/// What the framer is waiting for from the open burst.
#[derive(Debug, Clone, Copy)]
enum Rx {
    /// No burst open.
    Burst,
    /// The header symbol of the burst that began at `start`.
    Header { start: usize },
    /// `symbols_left` more payload symbols of a `payload_len`-byte frame.
    Payload {
        start: usize,
        payload_len: usize,
        symbols_left: usize,
    },
}

/// Reusable PHY codec for one profile.
///
/// Owns the modulator, demodulator, FEC pipeline and all working memory, so
/// repeated calls pay none of the per-call setup of the free functions'
/// original implementations. A codec modulates the same bits whatever it
/// modulated before: its scratch is overwritten, never read.
///
/// The receive side is one push-shaped chain — audio →
/// [`Frontend`] → [`BurstScanner`] → header → [`FecPipeline::decode_soft`] →
/// [`DemodFrame`] — that takes the stream [`push`](Self::push) by push and
/// reports each burst as its last symbol arrives, holding one burst's soft
/// bits and a block of baseband however long the stream runs.
/// [`demodulate`](Self::demodulate) is one push and a
/// [`flush`](Self::flush); it recovers the same frames as
/// [`demodulate_frames_reference`] (whose direct-form baseband differs by
/// rounding, ~1e-7 relative).
#[derive(Debug)]
pub struct FrameCodec {
    modulator: Modulator,
    demodulator: Demodulator,
    fec: FecPipeline,
    mod_scratch: ModulatorScratch,
    frontend: Frontend,
    scanner: BurstScanner,
    rx: Rx,
    hdr_soft: Vec<f32>,
    soft: Vec<f32>,
}

impl FrameCodec {
    /// Builds a codec (validates the profile).
    pub fn new(profile: &Profile) -> Self {
        let demodulator = Demodulator::new(profile.clone());
        FrameCodec {
            modulator: Modulator::new(profile.clone()),
            fec: FecPipeline::new(profile.fec),
            mod_scratch: ModulatorScratch::new(profile),
            frontend: demodulator.frontend(),
            scanner: BurstScanner::new(&demodulator),
            demodulator,
            rx: Rx::Burst,
            hdr_soft: Vec::new(),
            soft: Vec::new(),
        }
    }

    /// The profile this codec implements.
    pub fn profile(&self) -> &Profile {
        self.modulator.profile()
    }

    /// Modulates one payload into audio samples.
    ///
    /// # Panics
    /// Panics if `payload.len() > MAX_PAYLOAD`.
    pub fn modulate(&mut self, payload: &[u8]) -> Vec<f32> {
        let mut audio = Vec::new();
        self.modulate_into(payload, &mut audio);
        audio
    }

    /// [`modulate`](Self::modulate), appended to `audio`: a caller that
    /// strings bursts together writes each straight into its stream.
    /// Between the internal scratch and a caller-reused `audio`, steady-state
    /// modulation does no allocation beyond table growth.
    ///
    /// # Panics
    /// Panics if `payload.len() > MAX_PAYLOAD`.
    pub fn modulate_into(&mut self, payload: &[u8], audio: &mut Vec<f32>) {
        // lint: allow(no-alloc) — per-frame header bits; the conv encoder's API returns owned bits
        let header = header_coded_bits(payload.len());
        // lint: allow(no-alloc) — per-frame coded buffer; FecPipeline::encode returns owned bytes by design
        let coded = self.fec.encode(payload);
        self.modulator
            .modulate_bits_into(&header, &coded, &mut self.mod_scratch, audio);
    }

    /// Takes the next `audio` of the stream — a capture callback's worth or
    /// a whole page — and appends to `out` every burst whose last symbol it
    /// completes, in order: its payload, or the [`PhyError`] that lost it.
    ///
    /// `start_sample` counts from the first sample pushed since the codec
    /// was built or last [`flush`](Self::flush)ed. Between bursts a push
    /// allocates nothing.
    // lint: no-alloc
    pub fn push(&mut self, audio: &[f32], out: &mut Vec<DemodFrame>) {
        for block in audio.chunks(PUSH_BLOCK) {
            // lint: allow(no-alloc) — `Frontend::push`, itself no-alloc, not `Vec::push`
            self.frontend.push(block, self.scanner.baseband());
            self.scan(false, out);
        }
    }

    /// Ends the stream: decodes what the windows clamped to its end
    /// complete, reports a burst the stream ended inside as
    /// [`PhyError::Truncated`], and leaves the codec at the start of a new
    /// stream.
    pub fn flush(&mut self, out: &mut Vec<DemodFrame>) {
        self.scan(true, out);
        self.frontend = self.demodulator.frontend();
        self.scanner.reset(&self.demodulator);
        self.rx = Rx::Burst;
    }

    /// Scans an audio buffer and recovers every PHY frame in it: one
    /// [`push`](Self::push), then [`flush`](Self::flush).
    ///
    /// Returns one entry per detected burst, in order. Bursts whose header
    /// or payload could not be recovered are reported with their
    /// [`PhyError`] so loss-rate experiments can count them.
    pub fn demodulate(&mut self, audio: &[f32]) -> Vec<DemodFrame> {
        let mut out = Vec::new();
        self.push(audio, &mut out);
        self.flush(&mut out);
        out
    }

    /// Works through the baseband that has arrived: per burst, the header
    /// symbol, then as many payload symbols as the header announces, then
    /// the FEC chain. Returns where the scanner runs out of samples; if the
    /// stream has `ended` there, an open burst is cut off.
    fn scan(&mut self, ended: bool, out: &mut Vec<DemodFrame>) {
        let demod = &self.demodulator;
        let profile = demod.profile();
        let scanner = &mut self.scanner;
        let mut close = |scanner: &mut BurstScanner, start_sample, payload| {
            // lint: allow(no-alloc) — one entry per burst, into the caller's list
            out.push(DemodFrame {
                start_sample,
                payload,
            });
            scanner.end_burst(demod);
            Rx::Burst
        };
        loop {
            self.rx = match self.rx {
                Rx::Burst => match scanner.open_burst(demod, ended) {
                    Some(start) => Rx::Header { start },
                    None => return,
                },
                Rx::Header { start } => {
                    self.hdr_soft.clear();
                    // lint: allow(no-alloc) — in a burst: one symbol's soft bits into a buffer that keeps its capacity
                    let arrived = scanner.next_symbol(demod, Modulation::Bpsk, &mut self.hdr_soft);
                    if !arrived {
                        if ended {
                            close(scanner, start, Err(PhyError::Truncated));
                        }
                        return;
                    }
                    // lint: allow(no-alloc) — per burst: the header's Viterbi pass returns owned bits
                    match header_decode(&self.hdr_soft) {
                        Some(payload_len) => {
                            let symbols_left = profile
                                .fec
                                .coded_bits_len(payload_len)
                                .div_ceil(profile.bits_per_symbol());
                            self.soft.clear();
                            self.soft.reserve(symbols_left * profile.bits_per_symbol());
                            Rx::Payload {
                                start,
                                payload_len,
                                symbols_left,
                            }
                        }
                        // The search resumes past this burst's overhead symbols.
                        None => close(scanner, start, Err(PhyError::HeaderCorrupt)),
                    }
                }
                Rx::Payload {
                    start,
                    payload_len,
                    symbols_left: 0,
                } => {
                    self.soft.truncate(profile.fec.coded_bits_len(payload_len));
                    // lint: allow(no-alloc) — per burst: the FEC chain returns the owned payload
                    let payload = self.fec.decode_soft(&self.soft, payload_len).map_err(
                        |(FecError::Unrecoverable | FecError::LengthMismatch)| {
                            PhyError::PayloadUnrecoverable
                        },
                    );
                    close(scanner, start, payload)
                }
                Rx::Payload {
                    start,
                    payload_len,
                    symbols_left,
                } => {
                    // lint: allow(no-alloc) — in a burst: appends within the capacity reserved at its header
                    let arrived = scanner.next_symbol(demod, profile.modulation, &mut self.soft);
                    if !arrived {
                        if ended {
                            close(scanner, start, Err(PhyError::Truncated));
                        }
                        return;
                    }
                    Rx::Payload {
                        start,
                        payload_len,
                        symbols_left: symbols_left - 1,
                    }
                }
            };
        }
    }
}

thread_local! {
    /// Codecs cached per profile so the free functions amortize plan
    /// construction and scratch memory across calls.
    static CODECS: RefCell<Vec<FrameCodec>> = const { RefCell::new(Vec::new()) };
}

fn with_codec<R>(profile: &Profile, f: impl FnOnce(&mut FrameCodec) -> R) -> R {
    CODECS.with(|cell| {
        let mut codecs = cell.borrow_mut();
        let idx = match codecs.iter().position(|c| c.profile() == profile) {
            Some(i) => i,
            None => {
                codecs.push(FrameCodec::new(profile));
                codecs.len() - 1
            }
        };
        f(&mut codecs[idx])
    })
}

/// Modulates one payload into audio samples with the given profile.
///
/// Uses a thread-local [`FrameCodec`] cache keyed by profile; output is
/// bit-identical to a fresh [`FrameCodec`]'s.
///
/// # Panics
/// Panics if `payload.len() > MAX_PAYLOAD`.
pub fn modulate_frame(profile: &Profile, payload: &[u8]) -> Vec<f32> {
    with_codec(profile, |codec| codec.modulate(payload))
}

/// [`modulate_frame`] appended to a caller's buffer, via the same
/// thread-local [`FrameCodec`] cache.
///
/// # Panics
/// Panics if `payload.len() > MAX_PAYLOAD`.
pub fn modulate_frame_into(profile: &Profile, payload: &[u8], audio: &mut Vec<f32>) {
    with_codec(profile, |codec| codec.modulate_into(payload, audio))
}

/// Exact sample count [`modulate_frame`] produces for a payload of
/// `payload_len` bytes: the frame body ([`Profile::frame_samples`]) plus
/// the cyclic-prefix ramp guards the modulator adds at both ends.
///
/// Knowing the length without modulating lets a caller that concatenates
/// bursts size its buffer once.
pub fn modulated_samples(profile: &Profile, payload_len: usize) -> usize {
    profile.frame_samples(payload_len) + 2 * profile.cp_len
}

/// Scans an audio buffer and recovers every PHY frame in it.
///
/// Returns one entry per detected burst, in order. Bursts whose header or
/// payload could not be recovered are reported with their [`PhyError`] so
/// loss-rate experiments can count them. Uses a thread-local [`FrameCodec`]
/// cache keyed by profile.
pub fn demodulate_frames(profile: &Profile, audio: &[f32]) -> Vec<DemodFrame> {
    with_codec(profile, |codec| codec.demodulate(audio))
}

/// Executable specification of [`demodulate_frames`]: a fresh codec per call
/// and the direct-form baseband conversion at the audio rate, every fourth
/// sample kept ([`Demodulator::to_baseband_reference`]), in place of the
/// [`Frontend`]; the burst scan over that baseband is shared.
pub fn demodulate_frames_reference(profile: &Profile, audio: &[f32]) -> Vec<DemodFrame> {
    let mut codec = FrameCodec::new(profile);
    *codec.scanner.baseband() = codec.demodulator.to_baseband_reference(audio);
    let mut out = Vec::new();
    codec.scan(true, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize, seed: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(57).wrapping_add(seed)).collect()
    }

    #[test]
    fn crc16_known_vector() {
        // CCITT-FALSE check value for "123456789".
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn header_roundtrip() {
        for len in [0usize, 1, 100, 2048, MAX_PAYLOAD] {
            let coded = header_coded_bits(len);
            let soft: Vec<f32> = coded.iter().map(|&b| if b == 1 { 1.0 } else { -1.0 }).collect();
            assert_eq!(header_decode(&soft), Some(len), "len {len}");
        }
    }

    #[test]
    fn header_rejects_noise() {
        let soft: Vec<f32> = (0..92).map(|i| if i % 3 == 0 { 0.8 } else { -0.6 }).collect();
        assert_eq!(header_decode(&soft), None);
    }

    #[test]
    fn frame_roundtrip_clean_channel() {
        let p = Profile::sonic_10k();
        let data = payload(1000, 3);
        let audio = modulate_frame(&p, &data);
        let frames = demodulate_frames(&p, &audio);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload.as_ref().expect("decoded"), &data);
    }

    #[test]
    fn frame_roundtrip_audible7k() {
        let p = Profile::audible_7k();
        let data = payload(500, 9);
        let audio = modulate_frame(&p, &data);
        let frames = demodulate_frames(&p, &audio);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload.as_ref().expect("decoded"), &data);
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let p = Profile::sonic_10k();
        let a = payload(300, 1);
        let b = payload(150, 2);
        let mut audio = modulate_frame(&p, &a);
        audio.extend(std::iter::repeat_n(0.0, 2000));
        audio.extend(modulate_frame(&p, &b));
        let frames = demodulate_frames(&p, &audio);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload.as_ref().expect("first"), &a);
        assert_eq!(frames[1].payload.as_ref().expect("second"), &b);
    }

    #[test]
    fn truncated_burst_reported() {
        let p = Profile::sonic_10k();
        let data = payload(2000, 7);
        let audio = modulate_frame(&p, &data);
        let cut = &audio[..audio.len() / 2];
        let frames = demodulate_frames(&p, cut);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, Err(PhyError::Truncated));
    }

    #[test]
    fn noise_only_buffer_yields_nothing() {
        let p = Profile::sonic_10k();
        let mut x = 99u32;
        let noise: Vec<f32> = (0..40_000)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                0.3 * (((x >> 16) as f32 / 32768.0) - 1.0)
            })
            .collect();
        assert!(demodulate_frames(&p, &noise).is_empty());
    }

    #[test]
    fn attenuated_frame_still_decodes() {
        let p = Profile::sonic_10k();
        let data = payload(800, 5);
        let audio: Vec<f32> = modulate_frame(&p, &data).iter().map(|&x| x * 0.02).collect();
        let frames = demodulate_frames(&p, &audio);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload.as_ref().expect("decoded"), &data);
    }

    #[test]
    fn a_carrier_three_hertz_off_still_decodes() {
        let p = Profile::sonic_10k();
        let data = payload(1000, 8);
        for offset in [-3.0, 3.0] {
            let tx = Profile {
                center_freq: p.center_freq + offset,
                ..p.clone()
            };
            let frames = demodulate_frames(&p, &modulate_frame(&tx, &data));
            assert_eq!(frames.len(), 1, "{offset} Hz");
            assert_eq!(frames[0].payload.as_ref().expect("decoded"), &data, "{offset} Hz");
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversize_payload_rejected() {
        let p = Profile::sonic_10k();
        let _ = modulate_frame(&p, &vec![0u8; MAX_PAYLOAD + 1]);
    }

    #[test]
    fn reused_codec_modulates_as_a_fresh_one() {
        for p in [Profile::sonic_10k(), Profile::audible_7k()] {
            let mut codec = FrameCodec::new(&p);
            for (n, seed) in [(0usize, 0u8), (1, 4), (333, 8), (1000, 12)] {
                let data = payload(n, seed);
                let reused = codec.modulate(&data);
                let free = modulate_frame(&p, &data);
                let fresh = FrameCodec::new(&p).modulate(&data);
                assert_eq!(reused.len(), fresh.len(), "len {n}");
                for (i, (a, b)) in reused.iter().zip(&fresh).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "len {n} sample {i}");
                }
                assert_eq!(free, fresh, "free fn, len {n}");
            }
        }
    }

    #[test]
    fn modulated_samples_predicts_actual_audio_length() {
        for p in [Profile::sonic_10k(), Profile::audible_7k()] {
            for n in [0usize, 1, 86, 100, 1000, 4000] {
                let audio = modulate_frame(&p, &payload(n, 17));
                assert_eq!(audio.len(), modulated_samples(&p, n), "profile {:?} len {n}", p.name);
            }
        }
    }

    #[test]
    fn modulate_frame_into_appends() {
        let p = Profile::sonic_10k();
        let data = payload(321, 6);
        let mut buf = vec![7.0f32; 10]; // what the buffer held stays in front
        modulate_frame_into(&p, &data, &mut buf);
        assert_eq!(buf[..10], [7.0; 10]);
        assert_eq!(buf[10..], modulate_frame(&p, &data));
    }

    #[test]
    fn cached_demodulate_matches_reference() {
        let p = Profile::sonic_10k();
        let a = payload(300, 21);
        let b = payload(777, 22);
        let mut audio = modulate_frame(&p, &a);
        audio.extend(std::iter::repeat_n(0.0, 1500));
        audio.extend(modulate_frame(&p, &b));
        // Also exercise the truncated-tail path.
        let cut = audio.len() - p.symbol_len();
        for slice in [&audio[..], &audio[..cut]] {
            let mut codec = FrameCodec::new(&p);
            let fast = codec.demodulate(slice);
            let reference = demodulate_frames_reference(&p, slice);
            assert_eq!(fast.len(), reference.len());
            for (x, y) in fast.iter().zip(&reference) {
                assert_eq!(x.start_sample, y.start_sample);
                assert_eq!(x.payload, y.payload);
            }
            assert_eq!(demodulate_frames(&p, slice).len(), reference.len());
        }
    }

    #[test]
    fn pushed_in_capture_chunks_reports_each_burst_as_it_completes() {
        let p = Profile::sonic_10k();
        let a = payload(400, 1);
        let b = payload(250, 2);
        let mut audio = vec![0.0f32; 10_000];
        audio.extend(modulate_frame(&p, &a));
        let first_ends = audio.len();
        audio.extend(std::iter::repeat_n(0.0, 30_000));
        audio.extend(modulate_frame(&p, &b));

        let mut codec = FrameCodec::new(&p);
        let mut got = Vec::new();
        for (i, chunk) in audio.chunks(4096).enumerate() {
            codec.push(chunk, &mut got);
            // A burst is out within a chunk of its last symbol (the wait is
            // the low-pass's group delay), not at the flush.
            let heard = (i + 1) * 4096;
            if heard < first_ends - p.cp_len {
                assert!(got.is_empty(), "after {heard} samples");
            } else if heard >= first_ends + 4096 {
                assert!(!got.is_empty(), "after {heard} samples");
            }
        }
        codec.flush(&mut got);
        let whole = demodulate_frames(&p, &audio);
        assert_eq!(got.len(), 2);
        for (x, y) in got.iter().zip(&whole) {
            assert_eq!((x.start_sample, &x.payload), (y.start_sample, &y.payload));
        }
        assert_eq!(got[0].payload.as_ref().expect("first"), &a);
        assert_eq!(got[1].payload.as_ref().expect("second"), &b);
        // Positions count from the start of the stream: the lead, the
        // modulator's guard and the low-pass delay.
        let at = got[0].start_sample;
        assert!(at >= 10_000 && at < 10_000 + p.symbol_len(), "at {at}");
    }

    #[test]
    fn flush_fails_a_dangling_burst_and_starts_a_new_stream() {
        let p = Profile::sonic_10k();
        let audio = modulate_frame(&p, &payload(900, 4));
        let mut codec = FrameCodec::new(&p);
        let mut got = Vec::new();
        // The capture ends mid-burst: the tail never arrives.
        codec.push(&audio[..audio.len() / 2], &mut got);
        assert!(got.is_empty(), "half a burst must not decode");
        codec.flush(&mut got);
        assert_eq!(got.len(), 1, "the dangling burst must surface as a loss");
        assert_eq!(got[0].payload, Err(PhyError::Truncated));
        // The codec is at sample 0 of a new stream.
        let b = payload(300, 5);
        let next = modulate_frame(&p, &b);
        got.clear();
        codec.push(&next, &mut got);
        codec.flush(&mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload.as_ref().expect("decoded"), &b);
        assert_eq!(got[0].start_sample, demodulate_frames(&p, &next)[0].start_sample);
    }

    #[test]
    fn a_dropout_costs_its_burst_and_not_the_next() {
        // A tuner dropout chops a burst mid-payload and replaces the tail
        // with silence. The header said how many symbols to read: the
        // receiver reads them, fails the FEC, and searches on from there.
        let p = Profile::sonic_10k();
        let b = payload(200, 7);
        let chopped = modulate_frame(&p, &payload(700, 6));
        let mut audio = chopped[..chopped.len() / 3].to_vec();
        audio.extend(std::iter::repeat_n(0.0f32, chopped.len()));
        audio.extend(modulate_frame(&p, &b));
        let mut codec = FrameCodec::new(&p);
        let mut got = Vec::new();
        for chunk in audio.chunks(4096) {
            codec.push(chunk, &mut got);
        }
        codec.flush(&mut got);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, Err(PhyError::PayloadUnrecoverable));
        assert_eq!(got[1].payload.as_ref().expect("second burst decodes"), &b);
    }

    #[test]
    fn silence_holds_no_more_than_a_few_blocks() {
        let p = Profile::sonic_10k();
        let mut codec = FrameCodec::new(&p);
        let mut got = Vec::new();
        for _ in 0..100 {
            codec.push(&vec![0.0f32; 50_000], &mut got);
        }
        assert!(got.is_empty());
        assert!(codec.scanner.baseband().len() <= PUSH_BLOCK);
    }

    #[test]
    fn codec_reuse_across_mixed_calls_stays_consistent() {
        let p = Profile::sonic_10k();
        let mut codec = FrameCodec::new(&p);
        // Interleave modulate/demodulate so every scratch buffer is reused
        // with different lengths in between.
        for (n, seed) in [(900usize, 1u8), (10, 2), (450, 3)] {
            let data = payload(n, seed);
            let audio = codec.modulate(&data);
            let fresh = FrameCodec::new(&p).modulate(&data);
            assert_eq!(audio, fresh, "modulate len {n}");
            let frames = codec.demodulate(&audio);
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].payload.as_ref().expect("decoded"), &data);
        }
    }
}
