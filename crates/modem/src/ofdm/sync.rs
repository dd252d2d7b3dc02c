//! Burst detection: Schmidl-Cox coarse timing + correlation fine timing.
//!
//! The preamble symbol only has even subcarriers active, so its time-domain
//! body consists of two identical halves. The classic Schmidl-Cox metric
//!
//! ```text
//! M(d) = |P(d)|² / R(d)²,   P(d) = Σ r*(d+m)·r(d+m+L/2),   R(d) = Σ |r(d+m+L/2)|²
//! ```
//!
//! is computed with O(1) sliding updates, giving O(N) scanning over arbitrary
//! audio. A threshold crossing yields a coarse position; a cross-correlation
//! against the known preamble waveform within a small window pins the symbol
//! boundary to the baseband sample (four audio samples: what is left over is
//! a timing offset inside the cyclic prefix, a linear phase across the
//! carriers that the training symbols' channel estimate takes out). The
//! angle of `P` also estimates the carrier frequency offset, which the
//! demodulator removes before the FFT.
//!
//! The search is resumable: a [`Detector`] holds `(d, P, R)` and is handed
//! whatever baseband exists so far. Where the next step needs samples that
//! have not arrived it returns `None` with its sums untouched, and the next
//! call carries on from the same `d` with the same arithmetic in the same
//! order — so a stream cut anywhere detects what the whole buffer would.

use super::carriers::CarrierPlan;
use sonic_dsp::C32;

/// Result of a successful burst detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncPoint {
    /// Stream (baseband) sample index of the first sample of the preamble
    /// symbol's cyclic prefix.
    pub start: usize,
    /// Estimated carrier frequency offset in radians per baseband sample.
    pub cfo: f32,
    /// Peak value of the timing metric (0..1, for diagnostics).
    pub metric: f32,
}

/// The sliding sums `(P, R)` of the metric at one position.
fn sums_at(samples: &[C32], half: usize) -> (C32, f32) {
    let (mut p, mut r) = (C32::ZERO, 0.0f32);
    for (a, b) in samples[..half].iter().zip(&samples[half..2 * half]) {
        p += a.mul_conj(*b).conj();
        r += b.norm_sq();
    }
    (p, r)
}

/// Accumulator lanes of [`correlate`]: element `i` goes to lane `i mod 8`
/// and the lanes are summed in order at the end. Eight lanes, not one
/// running sum: the burst starts `golden_air` pins were found in this order.
const LANES: usize = 8;

/// Correlates a candidate body `a` against the preamble `b`:
/// `(Σ a[i]·conj(b[i]), Σ |a[i]|²)`, in [`LANES`] accumulators.
fn correlate(a: &[C32], b: &[C32]) -> (C32, f32) {
    let mut acc_re = [0.0f32; LANES];
    let mut acc_im = [0.0f32; LANES];
    let mut en = [0.0f32; LANES];
    for (i, (&x, &h)) in a.iter().zip(b).enumerate() {
        let l = i % LANES;
        acc_re[l] += x.re * h.re + x.im * h.im;
        acc_im[l] += x.im * h.re - x.re * h.im;
        en[l] += x.re * x.re + x.im * x.im;
    }
    reduce_lanes(&acc_re, &acc_im, &en)
}

/// Sums each quantity's lanes in lane order.
fn reduce_lanes(acc_re: &[f32; LANES], acc_im: &[f32; LANES], en: &[f32; LANES]) -> (C32, f32) {
    let mut r = 0.0f32;
    let mut i = 0.0f32;
    let mut e = 0.0f32;
    for l in 0..LANES {
        r += acc_re[l];
        i += acc_im[l];
        e += en[l];
    }
    (C32::new(r, i), e)
}

/// A suspended search for the next burst: the position `d` and the sliding
/// sums there.
#[derive(Debug, Clone, Copy)]
pub struct Detector {
    /// Cyclic prefix, in the samples searched.
    cp: usize,
    d: usize,
    /// `(P(d), R(d))`, or `None` while the sums are still to be built.
    sums: Option<(C32, f32)>,
    /// Samples of the stream that must exist before the sums at `d` are
    /// built — or, once the stream has ended, for the search to go on.
    need: usize,
}

impl Detector {
    /// A search from stream sample `from` for bursts whose symbols are
    /// `plan.fft_size()` samples behind a `cp`-sample prefix.
    pub fn at(plan: &CarrierPlan, cp: usize, from: usize) -> Self {
        Detector {
            cp,
            d: from,
            sums: None,
            need: from + plan.fft_size() + cp + 1,
        }
    }

    /// The position the search has reached; no sample before it is read
    /// again.
    pub fn position(&self) -> usize {
        self.d
    }

    /// Carries the search on over `window`, the baseband from stream sample
    /// `base` to the newest one.
    ///
    /// Returns the next burst whose metric plateau rises above `threshold`
    /// (the receiver passes 0.35; pure noise stays below ~0.1), or `None`
    /// when the search has run out of samples. While the stream is live
    /// (`ended` false) that means "call again with more": every step waits
    /// until the samples it would read in the whole stream are all there.
    /// Once it has `ended` the windows are clamped to what exists and `None`
    /// means there is no further burst.
    pub fn detect(
        &mut self,
        plan: &CarrierPlan,
        window: &[C32],
        base: usize,
        ended: bool,
        threshold: f32,
    ) -> Option<SyncPoint> {
        let l = plan.fft_size();
        let half = l / 2;
        let cp = self.cp;
        let total = base + window.len();
        let reference = plan.preamble_body.as_slice();
        let ref_energy = plan.preamble_energy;

        loop {
            if total < self.need {
                return None;
            }
            let from = self.d - base;
            let (mut p, mut r) = match self.sums {
                Some(sums) => sums,
                None => sums_at(&window[from..], half),
            };
            // Position `d` is examined once `d + l + 1` is a sample of the
            // stream, and reads up to `d + l` to slide on.
            let last = total - l - 1;
            let mut crossing = None;
            let mut slid = 0;
            for ((x0, xh), xl) in window[from..last - base]
                .iter()
                .zip(&window[from + half..])
                .zip(&window[from + l..])
            {
                let metric = if r > 1e-9 { p.norm_sq() / (r * r) } else { 0.0 };
                if metric > threshold {
                    crossing = Some(metric);
                    break;
                }
                // Slide by one sample.
                p -= x0.mul_conj(*xh).conj();
                p += xh.mul_conj(*xl).conj();
                r -= xh.norm_sq();
                r += xl.norm_sq();
                slid += 1;
            }
            self.d += slid;
            self.sums = Some((p, r));
            let d = self.d;
            // Coarse hit: search the correlation peak in a window around d.
            // The threshold crossing happens on the metric's rising edge just
            // before the CP-long plateau, so the true CP start lies within
            // [d - cp, d + 2·cp] — all of which must have arrived, unless the
            // stream is over and the window stops where the stream does.
            let metric = crossing?;
            if !ended && total < d + 3 * cp + l {
                return None;
            }
            let win_lo = d.saturating_sub(cp);
            let win_hi = (d + 2 * cp).min(total.saturating_sub(l + cp));
            let mut best = None::<(usize, f32)>;
            for cand in win_lo..=win_hi {
                // Correlate the *body* (skip CP) against the reference:
                // Σ x·conj(h) and Σ |x|² in one sweep.
                let body = &window[cand + cp - base..cand + cp + l - base];
                let (acc, energy) = correlate(body, reference);
                let score = if energy > 1e-9 {
                    acc.norm_sq() / (energy * ref_energy)
                } else {
                    0.0
                };
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((cand, score));
                }
            }
            // The window is never empty, but stay total: an empty window
            // scores 0.0 and falls through to the false-alarm path.
            let (start, score) = best.unwrap_or((win_lo, 0.0));
            if score > 0.1 {
                // CFO from the Schmidl-Cox phase: Δφ over half a symbol.
                let cfo = p.arg() / half as f32;
                return Some(SyncPoint { start, cfo, metric });
            }
            // False alarm (e.g. tonal interference): skip past this plateau
            // and rebuild the sums there, once that position is examinable.
            self.d = d + cp.max(1);
            self.sums = None;
            self.need = self.d + l + 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofdm::demodulator::{audio_sample, Demodulator, DECIMATION, GROUP_DELAY};
    use crate::ofdm::modulator::Modulator;
    use crate::profile::Profile;

    fn to_baseband(profile: &Profile, audio: &[f32]) -> Vec<C32> {
        Demodulator::new(profile.clone()).to_baseband(audio)
    }

    /// The receiver's carrier plan, in the decimated grid.
    fn plan(profile: &Profile) -> CarrierPlan {
        CarrierPlan::with_fft_size(profile, profile.fft_size / DECIMATION)
    }

    /// One-shot search of a whole buffer from `from`.
    fn detect(
        profile: &Profile,
        baseband: &[C32],
        from: usize,
        threshold: f32,
    ) -> Option<SyncPoint> {
        let plan = plan(profile);
        let mut detector = Detector::at(&plan, profile.cp_len / DECIMATION, from);
        detector.detect(&plan, baseband, 0, true, threshold)
    }

    /// `start`, in audio samples, within a baseband sample of `want`.
    fn assert_near(start: usize, want: usize) {
        let at = audio_sample(start);
        assert!(at.abs_diff(want) <= DECIMATION, "start {at} want {want}");
    }

    #[test]
    fn detects_burst_at_known_offset() {
        let m = Modulator::new(Profile::sonic_10k());
        let p = m.profile().clone();
        let audio = m.modulate_bits(&[1; 80], &vec![0u8; p.bits_per_symbol()]);
        // Prepend silence so the burst starts at a known sample.
        for lead in [5000usize, 5001, 5002, 5003] {
            let mut signal = vec![0.0f32; lead];
            signal.extend_from_slice(&audio);
            let bb = to_baseband(&p, &signal);
            let sp = detect(&p, &bb, 0, 0.4).expect("must detect");
            // Burst audio begins with cp_len guard zeros, then the preamble
            // CP; the baseband LPF shifts everything by its group delay.
            assert_near(sp.start, lead + p.cp_len + GROUP_DELAY);
            assert!(sp.cfo.abs() < 0.01, "cfo {}", sp.cfo);
        }
    }

    #[test]
    fn no_detection_in_noise() {
        let p = Profile::sonic_10k();
        // Deterministic pseudo-noise.
        let mut x = 1u32;
        let noise: Vec<f32> = (0..20000)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                ((x >> 16) as f32 / 32768.0) - 1.0
            })
            .collect();
        let bb = to_baseband(&p, &noise);
        assert!(detect(&p, &bb, 0, 0.5).is_none());
    }

    #[test]
    fn no_detection_in_silence() {
        let p = Profile::sonic_10k();
        let bb = vec![C32::ZERO; 30000 / DECIMATION];
        assert!(detect(&p, &bb, 0, 0.4).is_none());
    }

    #[test]
    fn detects_second_burst_after_first() {
        let m = Modulator::new(Profile::sonic_10k());
        let p = m.profile().clone();
        let burst = m.modulate_bits(&[0; 80], &vec![1u8; p.bits_per_symbol()]);
        let mut signal = vec![0.0f32; 1000];
        signal.extend_from_slice(&burst);
        signal.extend(std::iter::repeat_n(0.0, 3001));
        let second_at = signal.len();
        signal.extend_from_slice(&burst);
        let bb = to_baseband(&p, &signal);
        let first = detect(&p, &bb, 0, 0.4).expect("first");
        assert_near(first.start, 1000 + p.cp_len + GROUP_DELAY);
        let next_from = first.start + p.symbol_len() / DECIMATION * 5;
        let second = detect(&p, &bb, next_from, 0.4).expect("second");
        assert_near(second.start, second_at + p.cp_len + GROUP_DELAY);
    }
}
