//! GGwave-style multi-tone FSK baseline transmitter.
//!
//! Section 2 of the paper cites GGwave at "up to 128 bps over short
//! distances" using frequency-shift keying. This module reproduces that
//! baseline's transmitter: 16-FSK (4 bits/symbol) at 32 baud = 128 bps raw,
//! tones spaced 187.5 Hz starting at 1875 Hz. Frames carry a sync pattern,
//! one length byte and a CRC-32 trailer.

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
    // Trailing guard of half a symbol, so a receiver whose sync lands late
    // never reads its last symbol window past the buffer.
    audio.extend(std::iter::repeat_n(0.0, cfg.symbol_len / 2));
    audio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_ggwave_class() {
        let cfg = FskConfig::ggwave_like();
        assert!((cfg.raw_rate_bps() - 128.0).abs() < 1.0, "{}", cfg.raw_rate_bps());
    }
}
