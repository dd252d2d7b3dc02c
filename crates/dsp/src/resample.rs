//! Rational resampling.
//!
//! The radio substrate runs at 228 kHz while the audio modem runs at
//! 44.1 kHz; this module converts between arbitrary rational rates with a
//! windowed-sinc polyphase kernel. The same engine, given its taps, is the
//! OFDM receiver's decimating I/Q low-pass.

use crate::fir::design_lowpass;
use crate::simd;

/// Greatest common divisor (Euclid).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Polyphase rational resampler converting `from_rate` → `to_rate`.
#[derive(Debug, Clone)]
pub struct Resampler {
    /// Upsampling factor L.
    up: usize,
    /// Downsampling factor M.
    down: usize,
    /// Polyphase filter bank, `up` phases of `taps_per_phase` coefficients
    /// one after the other, each stored oldest-sample-first so each output
    /// is a forward dot product against a contiguous input window:
    /// `bank[p · taps_per_phase + k]` multiplies the window sample
    /// `taps_per_phase − 1 − k` steps behind the newest.
    bank: Vec<f32>,
    /// Last `taps_per_phase − 1` input samples (oldest first), carried
    /// between blocks.
    tail: Vec<f32>,
    /// Linearized window scratch: `tail ++ input` for the current block.
    ext: Vec<f32>,
    /// Output phase accumulator.
    phase: usize,
}

impl Resampler {
    /// Creates a resampler between two integer rates.
    ///
    /// `quality` sets the prototype filter length (taps ≈ quality × max(L,M)),
    /// 32 is a good default.
    ///
    /// # Panics
    /// Panics if either rate is zero.
    pub fn new(from_rate: usize, to_rate: usize, quality: usize) -> Self {
        assert!(from_rate > 0 && to_rate > 0, "rates must be positive");
        let g = gcd(from_rate, to_rate);
        let up = to_rate / g;
        let down = from_rate / g;
        // The prototype must be ~quality × max(L, M) taps long (at the
        // upsampled rate) or the transition band scales with the *larger*
        // factor and eats into the passband when decimating.
        let taps_per_phase = quality.max(4) * down.div_ceil(up).max(1);
        let total = taps_per_phase * up;
        // Cut at the narrower of the two Nyquists, in units of the upsampled rate.
        let cutoff = 0.45 / up.max(down) as f64;
        let mut proto = design_lowpass(total, cutoff);
        for c in &mut proto {
            *c *= up as f32; // compensate zero-stuffing loss
        }
        Self::polyphase(&proto, up, down, 0)
    }

    /// Decimates by `factor` through the FIR `taps`: of the filter's
    /// outputs it computes only those at inputs `first`, `first + factor`,
    /// `first + 2·factor`, … of the stream, each one lane-split dot product
    /// ([`simd::dot_reference`]'s sum) of the taps against the window of
    /// inputs ending there. The tail carries
    /// across calls, so however the stream is cut the outputs are the same
    /// bits.
    ///
    /// # Panics
    /// Panics if `taps` is empty or `first >= factor`.
    pub fn decimator(taps: &[f32], factor: usize, first: usize) -> Self {
        assert!(first < factor, "first kept output {first} must precede the {factor}th input");
        Self::polyphase(taps, 1, factor, first)
    }

    /// Splits `proto` (at the rate upsampled by `up`) into its `up` phases.
    fn polyphase(proto: &[f32], up: usize, down: usize, phase: usize) -> Self {
        let taps_per_phase = proto.len().div_ceil(up);
        let mut bank = vec![0.0f32; taps_per_phase * up];
        for (i, &c) in proto.iter().enumerate() {
            // Reversed tap order (oldest-first) so `process_into` reads each
            // window as one contiguous forward slice.
            bank[(i % up) * taps_per_phase + taps_per_phase - 1 - i / up] = c;
        }
        Resampler {
            up,
            down,
            bank,
            tail: vec![0.0; taps_per_phase - 1],
            ext: Vec::new(),
            phase,
        }
    }

    /// The exact rational ratio `(L, M)` in lowest terms.
    pub fn ratio(&self) -> (usize, usize) {
        (self.up, self.down)
    }

    /// Resamples a block, appending outputs to `out`.
    pub fn process_into(&mut self, input: &[f32], out: &mut Vec<f32>) {
        // On the virtual upsampled clock each input is `up` ticks and an
        // output fires every `down` ticks, the first `phase` ticks into this
        // block: the output at tick `τ` is phase `τ % up` of the filter over
        // the window ending at input `τ / up`. Counting them up front sizes
        // the output region exactly — no amortized growth in the streaming
        // path.
        let ticks = input.len() * self.up;
        let count = ticks.saturating_sub(self.phase).div_ceil(self.down);
        let start = out.len();
        out.resize(start + count, 0.0);
        if input.is_empty() {
            return;
        }
        // Linearize the delay line once per block instead of rotating a
        // history buffer per sample: with `ext = tail ++ input`, the window
        // ending at `input[i]` is the contiguous slice `ext[i..i + T]`
        // (oldest first), matching the reversed tap order built in `new`.
        // The whole block is then one dispatched kernel call.
        let m = self.tail.len();
        self.ext.resize(m + input.len(), 0.0);
        self.ext[..m].copy_from_slice(&self.tail);
        self.ext[m..].copy_from_slice(input);
        simd::polyphase(&self.bank, self.up, self.down, &self.ext, self.phase, &mut out[start..]);
        self.phase = self.phase + count * self.down - ticks;
        // The last T − 1 samples of this block seed the next window.
        self.tail.copy_from_slice(&self.ext[self.ext.len() - m..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f32> {
        (0..n).map(|i| (TAU * f * i as f64 / fs).sin() as f32).collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
    }

    #[test]
    fn output_length_matches_ratio() {
        let mut r = Resampler::new(48000, 44100, 16);
        let mut out = Vec::new();
        r.process_into(&vec![0.0; 48000], &mut out);
        let expect = 44100.0;
        assert!((out.len() as f64 - expect).abs() < 50.0, "got {}", out.len());
    }

    #[test]
    fn upsample_preserves_tone_level() {
        let mut r = Resampler::new(44100, 88200, 32);
        let sig = tone(44100.0, 1000.0, 44100);
        let mut out = Vec::new();
        r.process_into(&sig, &mut out);
        let level = rms(&out[4000..out.len() - 4000]);
        assert!((level - std::f32::consts::FRAC_1_SQRT_2).abs() < 0.05, "rms={level}");
    }

    #[test]
    fn downsample_preserves_tone_level() {
        let mut r = Resampler::new(96000, 48000, 32);
        let sig = tone(96000.0, 1000.0, 96000);
        let mut out = Vec::new();
        r.process_into(&sig, &mut out);
        let level = rms(&out[4000..out.len() - 4000]);
        assert!((level - std::f32::consts::FRAC_1_SQRT_2).abs() < 0.05, "rms={level}");
    }

    #[test]
    fn rational_ratio_is_reduced() {
        let r = Resampler::new(480000, 48000, 8);
        assert_eq!(r.ratio(), (1, 10));
        let r = Resampler::new(44100, 48000, 8);
        assert_eq!(r.ratio(), (160, 147));
    }

    #[test]
    fn decimator_keeps_every_factorth_direct_form_output_at_any_cut() {
        let taps = design_lowpass(101, 0.06);
        let sig: Vec<f32> = (0..5_000)
            .map(|i| (i * 7_919 % 2_003) as f32 / 1_001.5 - 1.0)
            .collect();
        let mut fir = crate::fir::Fir::new(taps.clone());
        let direct: Vec<f32> = sig.iter().map(|&x| fir.push(x)).collect();
        let run = |cuts: &[usize]| {
            let mut d = Resampler::decimator(&taps, 4, 2);
            let mut out = Vec::new();
            let mut from = 0;
            for &cut in cuts.iter().chain([&sig.len()]) {
                d.process_into(&sig[from..cut], &mut out);
                from = cut;
            }
            out
        };
        let whole = run(&[]);
        assert_eq!(whole.len(), 1_250);
        for (m, y) in whole.iter().enumerate() {
            assert!((y - direct[4 * m + 2]).abs() < 1e-5, "output {m}");
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for cuts in [&[1usize, 2, 3, 997][..], &[50, 51, 4_001], &[2_500]] {
            assert_eq!(bits(&run(cuts)), bits(&whole), "cuts {cuts:?}");
        }
    }

    /// Each output of a stream cut in two at every point is
    /// [`simd::dot_reference`] of its phase over its window of the
    /// zero-started input: on the radio's 32-tap upsampler, its 192-tap
    /// downsampler and a decimator shaped like the modem's (101 taps, not a
    /// multiple of eight). The cuts end blocks inside groups of eight
    /// outputs and between them.
    #[test]
    fn polyphase_blocks_match_dot_reference_at_every_cut() {
        let cases = [
            (Resampler::new(44_100, 228_000, 32), 32, 120),
            (Resampler::new(228_000, 44_100, 32), 192, 900),
            (Resampler::decimator(&design_lowpass(101, 0.06), 4, 2), 101, 300),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (fresh, taps, len) in cases {
            let (up, down) = fresh.ratio();
            assert_eq!(fresh.bank.len(), up * taps);
            let sig: Vec<f32> = (0..len).map(|i| (i * 7_919 % 2_003) as f32 / 1_001.5 - 1.0).collect();
            let mut padded = vec![0.0f32; taps - 1];
            padded.extend_from_slice(&sig);
            let want: Vec<f32> = (fresh.phase..len * up)
                .step_by(down)
                .map(|tick| {
                    let (i, p) = (tick / up, tick % up);
                    simd::dot_reference(&fresh.bank[p * taps..][..taps], &padded[i..][..taps])
                })
                .collect();
            for cut in 0..=len {
                let mut r = fresh.clone();
                let mut out = Vec::new();
                r.process_into(&sig[..cut], &mut out);
                r.process_into(&sig[cut..], &mut out);
                assert_eq!(bits(&out), bits(&want), "{taps} taps, cut at {cut}");
            }
        }
    }

    #[test]
    fn identity_rate_passes_signal() {
        let mut r = Resampler::new(48000, 48000, 32);
        let sig = tone(48000.0, 2000.0, 9600);
        let mut out = Vec::new();
        r.process_into(&sig, &mut out);
        assert_eq!(out.len(), sig.len());
        // Aside from the filter delay, energy should match.
        assert!((rms(&out[2000..]) - rms(&sig[2000..])).abs() < 0.05);
    }
}
