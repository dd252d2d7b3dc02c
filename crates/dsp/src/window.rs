//! Window functions for spectral shaping.
//!
//! The FIR designs taper their windowed sinc with a Hamming window; the OFDM
//! transmitter applies a short raised-cosine edge taper to reduce
//! out-of-band splatter into the rest of the FM mono band.

use std::f64::consts::PI;

/// Hamming window of length `n`: `0.54 − 0.46·cos(2πi/(n−1))`, and `[1.0]`
/// for `n == 1`.
pub fn hamming(n: usize) -> Vec<f32> {
    if n == 1 {
        return vec![1.0];
    }
    let m = n.saturating_sub(1) as f64;
    (0..n)
        .map(|i| (0.54 - 0.46 * (2.0 * PI * i as f64 / m).cos()) as f32)
        .collect()
}

/// Raised-cosine edge ramp of length `n` rising from 0 to 1.
///
/// Used to taper the first/last samples of each OFDM burst so key-on clicks
/// do not splatter across the audio band.
pub fn raised_cosine_edge(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = PI * (i as f64 + 0.5) / n as f64;
            (0.5 - 0.5 * x.cos()) as f32
        })
        // lint: allow(no-alloc) — ramp table; callers cache it, rebuilt only on burst-length change
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_endpoints_are_nonzero() {
        let w = hamming(64);
        assert!((w[0] - 0.08).abs() < 1e-3);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(hamming(0).is_empty());
        assert_eq!(hamming(1), vec![1.0]);
    }

    #[test]
    fn edge_ramp_is_monotone() {
        let r = raised_cosine_edge(32);
        for pair in r.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        assert!(r[0] > 0.0 && r[31] < 1.0);
    }
}
