//! GGwave-style multi-tone FSK baseline modem.
//!
//! Section 2 of the paper cites GGwave at "up to 128 bps over short
//! distances" using frequency-shift keying. This module reproduces that
//! baseline: 16-FSK (4 bits/symbol) at 32 baud = 128 bps raw, tones spaced
//! 46.875 Hz starting at 1875 Hz, detected per symbol window with Goertzel.
//! Frames carry a sync pattern, one length byte and a CRC-32 trailer.

use sonic_dsp::goertzel;
use sonic_fec::crc32;
use std::f64::consts::TAU;

/// FSK modem parameters.
#[derive(Debug, Clone)]
pub struct FskConfig {
    /// Audio sample rate.
    pub sample_rate: f64,
    /// Samples per symbol (sample_rate / baud).
    pub symbol_len: usize,
    /// Base tone frequency in Hz.
    pub base_freq: f64,
    /// Tone spacing in Hz.
    pub spacing: f64,
    /// Number of tones (16 ⇒ 4 bits/symbol).
    pub tones: usize,
}

impl Default for FskConfig {
    fn default() -> Self {
        FskConfig::ggwave_like()
    }
}

impl FskConfig {
    /// The 128 bps GGwave-like configuration.
    pub fn ggwave_like() -> Self {
        FskConfig {
            sample_rate: 48_000.0,
            symbol_len: 1_500, // 32 baud
            base_freq: 1_875.0,
            spacing: 46.875 * 4.0, // four Goertzel bins apart for separability
            tones: 16,
        }
    }

    /// Bits per symbol (log2 of tone count).
    pub fn bits_per_symbol(&self) -> usize {
        self.tones.trailing_zeros() as usize
    }

    /// Raw bit rate.
    pub fn raw_rate_bps(&self) -> f64 {
        self.bits_per_symbol() as f64 * self.sample_rate / self.symbol_len as f64
    }

    fn tone_freq(&self, idx: usize) -> f64 {
        self.base_freq + idx as f64 * self.spacing
    }

    fn tone_table(&self) -> Vec<f64> {
        (0..self.tones).map(|i| self.tone_freq(i)).collect()
    }
}

/// Sync pattern symbols prepended to each frame (tone indices).
const SYNC: [usize; 4] = [0, 15, 0, 15];

/// Modulates `payload` (≤ 255 bytes) into audio samples.
///
/// # Panics
/// Panics if the payload exceeds 255 bytes (single length byte).
pub fn modulate(cfg: &FskConfig, payload: &[u8]) -> Vec<f32> {
    assert!(payload.len() <= 255, "FSK frame carries at most 255 bytes");
    let mut frame = Vec::with_capacity(payload.len() + 5);
    frame.push(payload.len() as u8);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_be_bytes());

    let bps = cfg.bits_per_symbol();
    let mut symbols: Vec<usize> = SYNC.to_vec();
    let mut acc = 0usize;
    let mut nbits = 0usize;
    for &b in &frame {
        for i in (0..8).rev() {
            acc = (acc << 1) | ((b >> i) & 1) as usize;
            nbits += 1;
            if nbits == bps {
                symbols.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
    }
    if nbits > 0 {
        symbols.push(acc << (bps - nbits));
    }

    let mut audio = Vec::with_capacity((symbols.len() + 1) * cfg.symbol_len);
    for &s in &symbols {
        let f = cfg.tone_freq(s);
        for t in 0..cfg.symbol_len {
            // Short raised-cosine edges avoid clicks between tones.
            let edge = 64.min(cfg.symbol_len / 4);
            let w = if t < edge {
                0.5 - 0.5 * (std::f64::consts::PI * t as f64 / edge as f64).cos()
            } else if t >= cfg.symbol_len - edge {
                let k = cfg.symbol_len - 1 - t;
                0.5 - 0.5 * (std::f64::consts::PI * k as f64 / edge as f64).cos()
            } else {
                1.0
            };
            audio.push((0.5 * w * (TAU * f * t as f64 / cfg.sample_rate).sin()) as f32);
        }
    }
    // Trailing guard so a slightly-late sync refinement never pushes the last
    // symbol window past the buffer.
    audio.extend(std::iter::repeat_n(0.0, cfg.symbol_len / 2));
    audio
}

/// Errors from the FSK demodulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FskError {
    /// No sync pattern found.
    NoSync,
    /// CRC mismatch after decoding.
    BadCrc,
    /// Buffer ended mid-frame.
    Truncated,
}

/// Demodulates the first FSK frame found in `audio`.
pub fn demodulate(cfg: &FskConfig, audio: &[f32]) -> Result<Vec<u8>, FskError> {
    let tones = cfg.tone_table();
    let l = cfg.symbol_len;
    if audio.len() < l * (SYNC.len() + 2) {
        return Err(FskError::NoSync);
    }

    // Find sync: slide in quarter-symbol hops, then refine.
    let hop = l / 4;
    let mut sync_at = None;
    'outer: for start in (0..audio.len() - l * SYNC.len()).step_by(hop) {
        for (k, &want) in SYNC.iter().enumerate() {
            let w = &audio[start + k * l..start + (k + 1) * l];
            if goertzel::strongest(w, cfg.sample_rate, &tones) != want {
                continue 'outer;
            }
        }
        // Refine: maximize the summed power of all sync symbols at their
        // expected tones (single-symbol scoring drifts into the edge taper).
        let mut best = (start, f32::MIN);
        let hi = (start + hop).min(audio.len() - l * SYNC.len());
        for cand in start.saturating_sub(hop)..hi {
            let p: f32 = SYNC
                .iter()
                .enumerate()
                .map(|(k, &want)| {
                    goertzel::power(
                        &audio[cand + k * l..cand + (k + 1) * l],
                        cfg.sample_rate,
                        tones[want],
                    )
                })
                .sum();
            if p > best.1 {
                best = (cand, p);
            }
        }
        sync_at = Some(best.0);
        break;
    }
    let Some(start) = sync_at else {
        return Err(FskError::NoSync);
    };

    let bps = cfg.bits_per_symbol();
    let mut cursor = start + SYNC.len() * l;
    let read_symbol = |cursor: &mut usize| -> Option<usize> {
        if *cursor + l > audio.len() {
            return None;
        }
        let s = goertzel::strongest(&audio[*cursor..*cursor + l], cfg.sample_rate, &tones);
        *cursor += l;
        Some(s)
    };

    // Length byte = 8/bps symbols.
    let syms_per_byte = 8 / bps;
    let read_byte = |cursor: &mut usize| -> Option<u8> {
        let mut b = 0usize;
        for _ in 0..syms_per_byte {
            b = (b << bps) | read_symbol(cursor)?;
        }
        Some(b as u8)
    };

    let len = read_byte(&mut cursor).ok_or(FskError::Truncated)? as usize;
    let mut payload = Vec::with_capacity(len);
    for _ in 0..len {
        payload.push(read_byte(&mut cursor).ok_or(FskError::Truncated)?);
    }
    let mut crc_bytes = [0u8; 4];
    for c in crc_bytes.iter_mut() {
        *c = read_byte(&mut cursor).ok_or(FskError::Truncated)?;
    }
    if crc32(&payload) != u32::from_be_bytes(crc_bytes) {
        return Err(FskError::BadCrc);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_ggwave_class() {
        let cfg = FskConfig::ggwave_like();
        assert!((cfg.raw_rate_bps() - 128.0).abs() < 1.0, "{}", cfg.raw_rate_bps());
    }

    #[test]
    fn clean_roundtrip() {
        let cfg = FskConfig::ggwave_like();
        let payload = b"hello radio".to_vec();
        let audio = modulate(&cfg, &payload);
        assert_eq!(demodulate(&cfg, &audio), Ok(payload));
    }

    #[test]
    fn roundtrip_with_leading_silence_and_noise() {
        let cfg = FskConfig::ggwave_like();
        let payload = vec![0xC3, 0x00, 0xFF, 0x42];
        let mut audio = vec![0.0f32; 7_000];
        audio.extend(modulate(&cfg, &payload));
        // Mild deterministic noise.
        let mut x = 5u32;
        for v in audio.iter_mut() {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            *v += 0.02 * (((x >> 16) as f32 / 32768.0) - 1.0);
        }
        assert_eq!(demodulate(&cfg, &audio), Ok(payload));
    }

    #[test]
    fn silence_gives_no_sync() {
        let cfg = FskConfig::ggwave_like();
        assert_eq!(demodulate(&cfg, &vec![0.0; 60_000]), Err(FskError::NoSync));
    }

    #[test]
    fn truncation_detected() {
        let cfg = FskConfig::ggwave_like();
        let audio = modulate(&cfg, b"0123456789abcdef");
        let cut = &audio[..audio.len() * 2 / 3];
        match demodulate(&cfg, cut) {
            Err(FskError::Truncated) | Err(FskError::NoSync) | Err(FskError::BadCrc) => {}
            Ok(_) => panic!("truncated frame must not decode"),
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let cfg = FskConfig::ggwave_like();
        let audio = modulate(&cfg, &[]);
        assert_eq!(demodulate(&cfg, &audio), Ok(vec![]));
    }
}
