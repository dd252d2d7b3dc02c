//! FIR filter design and streaming application.
//!
//! Filters are designed with the windowed-sinc method (Hamming window),
//! which is plenty for the roll-offs the FM multiplexer and the
//! acoustic channel models need. Two ways to apply one: the direct form
//! ([`Fir`], one sample at a time, `O(taps)` per sample — the oracle the
//! fast paths are tested against) and FFT overlap-save ([`OverlapSave`], the
//! MPX decomposer's long real band selects and the acoustic hop's speaker). A filter whose output is decimated runs as a polyphase
//! [`crate::resample::Resampler`] instead, which computes only the outputs it
//! keeps. Streaming state is kept in the filter so the radio pipeline can
//! process audio in arbitrary block sizes.

use crate::plan::FirPlan;
use crate::split::SplitC32;
use crate::window::hamming;
use std::f64::consts::PI;
use std::sync::Arc;

/// Designs a linear-phase low-pass FIR with `taps` coefficients.
///
/// `cutoff` is the -6 dB point as a fraction of the sample rate (0..0.5).
/// Odd tap counts are recommended so the group delay is an integer number of
/// samples (`(taps-1)/2`).
///
/// # Panics
/// Panics if `taps == 0` or `cutoff` is outside `(0, 0.5)`.
pub fn design_lowpass(taps: usize, cutoff: f64) -> Vec<f32> {
    assert!(taps > 0, "need at least one tap");
    assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must be in (0, 0.5), got {cutoff}");
    let m = (taps - 1) as f64 / 2.0;
    let window = hamming(taps);
    let mut h: Vec<f32> = (0..taps)
        .map(|i| {
            let t = i as f64 - m;
            let sinc = if t.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * t).sin() / (PI * t)
            };
            sinc as f32 * window[i]
        })
        .collect();
    // Normalize to unity DC gain.
    let sum: f32 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

/// Designs a band-pass FIR centered between `low` and `high` (fractions of
/// the sample rate) by subtracting two low-passes.
///
/// # Panics
/// Panics unless `0 < low < high < 0.5`.
pub fn design_bandpass(taps: usize, low: f64, high: f64) -> Vec<f32> {
    assert!(low > 0.0 && high > low && high < 0.5, "need 0 < low < high < 0.5");
    let lp_high = design_lowpass(taps, high);
    let lp_low = design_lowpass(taps, low);
    lp_high
        .iter()
        .zip(&lp_low)
        .map(|(h, l)| h - l)
        .collect()
}

/// A streaming direct-form FIR filter with internal history.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f32>,
    /// Circular history of the most recent `taps.len()` inputs.
    history: Vec<f32>,
    pos: usize,
}

impl Fir {
    /// Wraps a coefficient vector in a streaming filter.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f32>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        Fir {
            taps,
            history: vec![0.0; n],
            pos: 0,
        }
    }

    /// Filters one sample: taps newest-first, accumulated in tap order.
    #[inline]
    pub fn push(&mut self, x: f32) -> f32 {
        let n = self.taps.len();
        self.history[self.pos] = x;
        let mut acc = 0.0f32;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += t * self.history[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filters a block in place, one [`push`](Self::push) per sample.
    pub fn process(&mut self, buf: &mut [f32]) {
        for v in buf.iter_mut() {
            *v = self.push(*v);
        }
    }
}

/// Picks the overlap-save FFT size for a tap count: the block length
/// (`fft − taps + 1`) stays at least ~3× the tap count so the two
/// transforms amortize well.
pub(crate) fn overlap_save_fft_size(taps: usize) -> usize {
    (4 * taps).next_power_of_two().max(128)
}

/// Overlap-save frames transformed per batched FFT sweep: enough to amortize
/// the per-batch bookkeeping while keeping the frame scratch around L2-sized.
const BATCH: usize = 8;

/// Streaming FFT overlap-save convolution of a real signal through one
/// [`FirPlan`]: the one fast FIR engine.
///
/// The frames are complex split planes and the taps are real, so a frame's
/// two planes convolve independently: each frame packs two *consecutive*
/// blocks, the first in the real plane and the second in the imaginary
/// plane, halving the transform count. Per batch of frames the loop is
/// gather → forward transform → tap-spectrum multiply → inverse transform →
/// scatter. Against the direct form ([`Fir::process`]) the output differs
/// only by FFT rounding (relative error ~1e-6) while the cost per sample
/// drops from `O(taps)` to `O(log taps)`.
///
/// Plans are shared (`Arc`), so an engine is cheap to build per call; the
/// `taps − 1` sample tail carries across [`process`](Self::process) calls
/// for callers that stream. A stream cut into calls at multiples of two
/// [`FirPlan::block`]s comes out bit-identical to one call over all of it,
/// because every FFT frame then holds the same samples; cut anywhere else
/// the frames shift, and the output is the same filter with different
/// rounding (an ulp on most samples). Users: the MPX decomposer's band
/// selects, its mono low-pass fed in such chunks, and the acoustic hop's
/// speaker band.
#[derive(Debug, Clone)]
pub struct OverlapSave {
    plan: Arc<FirPlan>,
    /// The `taps − 1` most recent inputs (streaming history).
    tail: Vec<f32>,
    /// `tail ++ input`; every frame is a contiguous window of it.
    ext: Vec<f32>,
    /// Spectra of up to [`BATCH`] frames.
    frames: SplitC32,
}

impl OverlapSave {
    /// Builds an engine over a shared plan, starting from silence.
    pub fn new(plan: Arc<FirPlan>) -> Self {
        let taps = plan.taps_len();
        OverlapSave {
            plan,
            tail: vec![0.0; taps - 1],
            ext: Vec::new(),
            frames: SplitC32::new(),
        }
    }

    /// Filters `input`, appending its `input.len()` output samples to `out`.
    pub fn process(&mut self, input: &[f32], out: &mut Vec<f32>) {
        let total = input.len();
        let fresh = out.len();
        out.resize(fresh + total, 0.0);
        let m = self.tail.len();
        let fft = self.plan.fft();
        let n = fft.len();
        let block = self.plan.block();
        let step = 2 * block;
        self.ext.clear();
        self.ext.extend_from_slice(&self.tail);
        self.ext.extend_from_slice(input);
        let mut p = 0usize;
        while p < total {
            // Every frame but the signal's last takes a full `step` of new
            // samples, so frame `f` of this batch starts at `p + f·step`.
            let nb = (total - p).div_ceil(step).min(BATCH);
            let new = |f: usize| {
                let start = p + f * step;
                start..start + step.min(total - start)
            };
            self.frames.resize(nb * n);
            let planes = self.frames.re.chunks_exact_mut(n).zip(self.frames.im.chunks_exact_mut(n));
            for (f, (re, im)) in planes.enumerate() {
                // Block A = the frame's first `a` new samples, block B the
                // rest; each plane gets its block behind the `m` samples
                // that precede it. An empty block B still carries its
                // history: the planes share one transform, so what rides in
                // `im` shapes the rounding of `re`.
                let window = &self.ext[new(f).start..new(f).end + m];
                let a = (window.len() - m).min(block);
                re[..m + a].copy_from_slice(&window[..m + a]);
                re[m + a..].fill(0.0);
                let b_end = window.len() - a;
                im[..b_end].copy_from_slice(&window[a..]);
                im[b_end..].fill(0.0);
            }
            fft.forward_batch(&mut self.frames);
            self.plan.apply_spectrum(&mut self.frames);
            fft.inverse_batch(&mut self.frames);
            let planes = self.frames.re.chunks_exact(n).zip(self.frames.im.chunks_exact(n));
            for (f, (re, im)) in planes.enumerate() {
                // The first `m` outputs of each plane are circular-wrap
                // garbage; the block's new samples follow.
                let r = new(f);
                let frame_out = &mut out[fresh + r.start..fresh + r.end];
                let (a, b) = frame_out.split_at_mut(r.len().min(block));
                a.copy_from_slice(&re[m..m + a.len()]);
                b.copy_from_slice(&im[m..m + b.len()]);
            }
            p += nb * step;
        }
        self.tail.copy_from_slice(&self.ext[total..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measures filter magnitude response at a normalized frequency by
    /// running a tone through it and comparing RMS.
    fn gain_at(taps: &[f32], freq: f64) -> f32 {
        let mut fir = Fir::new(taps.to_vec());
        let n = 4096;
        let mut out_energy = 0.0f64;
        let mut in_energy = 0.0f64;
        for i in 0..n {
            let x = (2.0 * PI * freq * i as f64).sin() as f32;
            let y = fir.push(x);
            if i > taps.len() {
                in_energy += (x as f64) * (x as f64);
                out_energy += (y as f64) * (y as f64);
            }
        }
        (out_energy / in_energy).sqrt() as f32
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let h = design_lowpass(101, 0.1);
        assert!(gain_at(&h, 0.02) > 0.95, "passband should be ~1");
        assert!(gain_at(&h, 0.25) < 0.01, "stopband should be ~0");
    }

    #[test]
    fn lowpass_unity_dc_gain() {
        let h = design_lowpass(63, 0.2);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bandpass_rejects_both_sides() {
        let h = design_bandpass(201, 0.15, 0.25);
        assert!(gain_at(&h, 0.2) > 0.9, "center of band should pass");
        assert!(gain_at(&h, 0.05) < 0.02, "below band should be rejected");
        assert!(gain_at(&h, 0.35) < 0.02, "above band should be rejected");
    }

    #[test]
    fn fir_impulse_response_replays_taps() {
        let taps = vec![0.5, -0.25, 0.125];
        let mut fir = Fir::new(taps.clone());
        let got: Vec<f32> = (0..3)
            .map(|i| fir.push(if i == 0 { 1.0 } else { 0.0 }))
            .collect();
        assert_eq!(got, taps);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_bad_cutoff() {
        let _ = design_lowpass(11, 0.6);
    }

    /// Deterministic pseudo-random signal for equivalence tests.
    fn noise(n: usize, seed: u32) -> Vec<f32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                ((x >> 16) as f32 / 32768.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn overlap_save_cut_at_frame_multiples_is_bit_identical_to_one_call() {
        let plan = FirPlan::shared(&design_lowpass(101, 0.17));
        let frame = 2 * plan.block();
        let sig = noise(20 * frame + 123, 5);
        let run = |cuts: &[usize]| {
            let mut engine = OverlapSave::new(Arc::clone(&plan));
            let mut out = Vec::new();
            let mut from = 0;
            for &cut in cuts.iter().chain([&sig.len()]) {
                engine.process(&sig[from..cut], &mut out);
                from = cut;
            }
            out
        };
        let whole = run(&[]);
        // Past a batch of frames, mid-batch and back to back.
        assert_eq!(run(&[frame, 3 * frame, 4 * frame, 15 * frame]), whole);
        // A cut anywhere else is the same filter, rounded differently.
        let ragged = run(&[frame / 2]);
        assert_ne!(ragged, whole);
        for (a, b) in ragged.iter().zip(&whole) {
            assert!((*a - *b).abs() < 1e-5);
        }
    }

    #[test]
    fn overlap_save_matches_direct_form() {
        for taps_len in [1usize, 3, 64, 101, 257] {
            let taps = if taps_len == 1 {
                vec![0.7]
            } else {
                design_lowpass(taps_len, 0.17)
            };
            let sig = noise(2000, taps_len as u32);
            let mut want = sig.clone();
            Fir::new(taps.clone()).process(&mut want);
            let mut got = Vec::new();
            OverlapSave::new(FirPlan::shared(&taps)).process(&sig, &mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 1e-4, "taps {taps_len} sample {i}: {g} vs {w}");
            }
        }
    }
}
