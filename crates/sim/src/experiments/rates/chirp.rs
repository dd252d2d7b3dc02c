//! Chirp-signalling baseline transmitter.
//!
//! The related-work section cites chirp-based aerial acoustic systems at
//! ~16 bps ([Lee et al., INFOCOM'15]). Chirps trade rate for extreme
//! robustness: a matched filter against up/down chirps decides each bit, so
//! the system works far below 0 dB SNR. One bit per chirp at 16 baud = 16 bps.

use std::f64::consts::PI;

/// Chirp modem parameters.
#[derive(Debug, Clone)]
pub struct ChirpConfig {
    /// Audio sample rate.
    pub sample_rate: f64,
    /// Samples per chirp (sample_rate / baud).
    pub chirp_len: usize,
    /// Sweep start frequency (Hz).
    pub f_lo: f64,
    /// Sweep end frequency (Hz).
    pub f_hi: f64,
}

impl Default for ChirpConfig {
    fn default() -> Self {
        ChirpConfig {
            sample_rate: 48_000.0,
            chirp_len: 3_000, // 16 baud
            f_lo: 2_000.0,
            f_hi: 6_000.0,
        }
    }
}

impl ChirpConfig {
    /// Raw bit rate (1 bit per chirp).
    pub fn raw_rate_bps(&self) -> f64 {
        self.sample_rate / self.chirp_len as f64
    }

    /// Generates the up-chirp (bit 1) template.
    pub fn up_chirp(&self) -> Vec<f32> {
        self.chirp(false)
    }

    /// Generates the down-chirp (bit 0) template.
    pub fn down_chirp(&self) -> Vec<f32> {
        self.chirp(true)
    }

    fn chirp(&self, down: bool) -> Vec<f32> {
        let n = self.chirp_len;
        let (f0, f1) = if down { (self.f_hi, self.f_lo) } else { (self.f_lo, self.f_hi) };
        let k = (f1 - f0) / (n as f64 / self.sample_rate);
        (0..n)
            .map(|i| {
                let t = i as f64 / self.sample_rate;
                let phase = 2.0 * PI * (f0 * t + 0.5 * k * t * t);
                // Hann envelope keeps the spectrum tight.
                let w = 0.5 - 0.5 * (2.0 * PI * i as f64 / n as f64).cos();
                (0.5 * w * phase.sin()) as f32
            })
            .collect()
    }
}

/// Modulates bytes as one chirp per bit (MSB first).
pub fn modulate(cfg: &ChirpConfig, payload: &[u8]) -> Vec<f32> {
    let up = cfg.up_chirp();
    let down = cfg.down_chirp();
    let mut audio = Vec::with_capacity(payload.len() * 8 * cfg.chirp_len);
    for &b in payload {
        for i in (0..8).rev() {
            let bit = (b >> i) & 1;
            audio.extend_from_slice(if bit == 1 { &up } else { &down });
        }
    }
    audio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_sixteen_bps() {
        assert!((ChirpConfig::default().raw_rate_bps() - 16.0).abs() < 0.1);
    }

    #[test]
    fn up_and_down_templates_are_near_orthogonal() {
        let cfg = ChirpConfig::default();
        let up = cfg.up_chirp();
        let down = cfg.down_chirp();
        let cross: f64 = up.iter().zip(&down).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let auto: f64 = up.iter().map(|&a| (a as f64) * (a as f64)).sum();
        // Up/down chirps over the same band are not perfectly orthogonal
        // (finite time-bandwidth product); ~0.08 measured, demand < 0.15.
        assert!(cross.abs() / auto < 0.15, "cross/auto {}", cross.abs() / auto);
    }
}
