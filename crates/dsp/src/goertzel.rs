//! Goertzel single-bin DFT.
//!
//! The radio tests and examples measure tone levels at a handful of known
//! frequencies; Goertzel computes one bin in O(n) without a full FFT.

use std::f64::consts::TAU;

/// Computes the power of `signal` at frequency `freq` (Hz) for sample rate `fs`.
///
/// Returns `|X(f)|²` normalized by the block length so results are comparable
/// across block sizes.
pub fn power(signal: &[f32], fs: f64, freq: f64) -> f32 {
    if signal.is_empty() {
        return 0.0;
    }
    let omega = TAU * freq / fs;
    let coeff = 2.0 * omega.cos();
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for &x in signal {
        let s0 = x as f64 + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    let power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
    (power / (signal.len() as f64 * signal.len() as f64)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f32> {
        (0..n).map(|i| (TAU * f * i as f64 / fs).sin() as f32).collect()
    }

    #[test]
    fn detects_matching_tone() {
        let fs = 48000.0;
        let sig = tone(fs, 3000.0, 480);
        let on = power(&sig, fs, 3000.0);
        let off = power(&sig, fs, 5000.0);
        assert!(on > 50.0 * off, "on={on} off={off}");
    }

    #[test]
    fn empty_signal_is_zero_power() {
        assert_eq!(power(&[], 48000.0, 1000.0), 0.0);
    }

    #[test]
    fn power_scales_with_amplitude() {
        let fs = 8000.0;
        let a: Vec<f32> = tone(fs, 1000.0, 800);
        let b: Vec<f32> = a.iter().map(|x| x * 2.0).collect();
        let pa = power(&a, fs, 1000.0);
        let pb = power(&b, fs, 1000.0);
        assert!((pb / pa - 4.0).abs() < 0.1);
    }
}
