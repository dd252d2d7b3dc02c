//! OFDM burst demodulator.
//!
//! Pipeline per burst: down-convert → Schmidl-Cox detect → CFO derotate →
//! channel estimate from the two training symbols → per-symbol FFT →
//! one-tap equalization → pilot common-phase-error correction → max-log soft
//! demap. The caller (the PHY framer) decides how many payload symbols to
//! read based on the decoded header.

use super::carriers::CarrierPlan;
use super::sync::{detect, SyncPoint};
use crate::constellation::{demap_soft_batch, Modulation};
use crate::profile::Profile;
use sonic_dsp::fir::{design_lowpass, Fir, OverlapSave};
use sonic_dsp::osc::{downconvert, Nco, PhasorTable};
use sonic_dsp::plan::{FftPlan, FirPlan};
use sonic_dsp::split::SplitC32;
use sonic_dsp::C32;
use std::sync::Arc;

/// Taps of the image-rejection low-pass applied after downconversion.
///
/// Mixing a real passband signal down leaves an image at −2·f_c; without
/// this filter the image corrupts both the Schmidl-Cox metric and the
/// equalizer. Linear phase ⇒ a constant [`GROUP_DELAY`] sample shift.
const LPF_TAPS: usize = 101;

/// Group delay (samples) introduced by the baseband low-pass.
pub const GROUP_DELAY: usize = (LPF_TAPS - 1) / 2;

/// Applies `e^{-j(phase0 + n·step)}` to `window[n]` with an incremental
/// phasor: one complex multiply per sample instead of a libm sincos,
/// renormalized every 64 samples so f32 drift stays ~1e-6 over a symbol.
fn derotate_window(window: &mut [C32], phase0: f64, step: f64) {
    let stepper = C32::from_angle(-step);
    let mut rot = C32::from_angle(-phase0);
    for (n, v) in window.iter_mut().enumerate() {
        *v *= rot;
        rot *= stepper;
        if n & 63 == 63 {
            rot = rot.normalize();
        }
    }
}

/// Reusable demodulator for one profile.
#[derive(Debug)]
pub struct Demodulator {
    profile: Profile,
    plan: CarrierPlan,
    /// Planned split-plane FFT for the per-symbol forward transforms; its
    /// butterflies run through the runtime-dispatched SIMD kernels and are
    /// bit-identical to [`Fft::forward`].
    fft_plan: FftPlan,
    /// Shared overlap-save plan for the baseband low-pass, built once so
    /// every [`to_baseband`](Self::to_baseband) call reuses the taps FFT.
    lpf_plan: Arc<FirPlan>,
    lpf_taps: Vec<f32>,
}

/// Demodulated symbols of one burst, produced lazily symbol-by-symbol.
#[derive(Debug)]
pub struct BurstReader<'a, 'b> {
    demod: &'a Demodulator,
    baseband: &'b [C32],
    /// Channel estimate per logical carrier.
    channel: Vec<C32>,
    /// Index into `baseband` of the next symbol's CP start.
    cursor: usize,
    /// Sample position (in the original buffer) where the burst started.
    pub burst_start: usize,
    /// Sync diagnostics.
    pub sync: SyncPoint,
    /// Reused FFT window (avoids a per-symbol allocation).
    sym_buf: Vec<C32>,
    /// Reused split-plane FFT buffer for the SIMD transform path.
    split_buf: SplitC32,
    /// Reused gathered-carrier buffer (avoids a per-symbol allocation).
    vals_buf: Vec<C32>,
    /// Reused data-carrier axis planes for the batched soft demapper.
    data_re: Vec<f32>,
    /// Imaginary-axis twin of `data_re`.
    data_im: Vec<f32>,
    /// Reused per-data-carrier soft-output weights.
    weights: Vec<f32>,
    /// Reused working memory for [`demap_soft_batch`].
    axis_buf: Vec<f32>,
}

impl Demodulator {
    /// Creates a demodulator (validates the profile).
    pub fn new(profile: Profile) -> Self {
        let plan = CarrierPlan::new(&profile);
        // Pass the occupied band with margin, stop well before the −2·f_c image.
        let cutoff = ((profile.bandwidth() / 2.0 + 600.0) / profile.sample_rate).min(0.45);
        let lpf_taps = design_lowpass(LPF_TAPS, cutoff);
        let fft_plan = FftPlan::new(profile.fft_size);
        let lpf_plan = FirPlan::shared(&lpf_taps);
        Demodulator {
            profile,
            plan,
            fft_plan,
            lpf_plan,
            lpf_taps,
        }
    }

    /// The profile this demodulator implements.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Down-converts an audio buffer to complex baseband and rejects the
    /// −2·f_c mixing image. The output is delayed by [`GROUP_DELAY`] samples.
    ///
    /// Allocating convenience over [`to_baseband_with`](Self::to_baseband_with)
    /// (fresh phasor table and buffers per call); same samples.
    pub fn to_baseband(&self, audio: &[f32]) -> Vec<C32> {
        let mut phasors = PhasorTable::new(self.profile.sample_rate, self.profile.center_freq);
        let (mut mixed, mut out) = (Vec::new(), Vec::new());
        self.to_baseband_with(audio, &mut phasors, &mut mixed, &mut out);
        out
    }

    /// Original direct-form baseband conversion (live oscillator, two
    /// per-sample real FIRs); kept as the executable specification for the
    /// overlap-save path.
    pub fn to_baseband_reference(&self, audio: &[f32]) -> Vec<C32> {
        let mut nco = Nco::new(self.profile.sample_rate, self.profile.center_freq);
        let mut mixed = Vec::with_capacity(audio.len());
        downconvert(&mut nco, audio, &mut mixed);
        let mut fir_re = Fir::new(self.lpf_taps.clone());
        let mut fir_im = Fir::new(self.lpf_taps.clone());
        mixed
            .iter()
            .map(|v| C32::new(fir_re.push(v.re), fir_im.push(v.im)))
            .collect()
    }

    /// The receive path's baseband conversion, with cached oscillator
    /// phasors and reused buffers: `out` receives the baseband, `mixed` is
    /// working memory.
    ///
    /// The low-pass runs through the FFT overlap-save engine
    /// ([`OverlapSave`] over I/Q): one complex filter replaces the original
    /// pair of per-sample real FIRs. Output matches
    /// [`to_baseband_reference`](Self::to_baseband_reference) to within FFT
    /// rounding (~1e-6 relative), far below the noise floor of any channel
    /// the sync and equalizer can survive.
    pub fn to_baseband_with(
        &self,
        audio: &[f32],
        phasors: &mut PhasorTable,
        mixed: &mut Vec<C32>,
        out: &mut Vec<C32>,
    ) {
        mixed.clear();
        phasors.downconvert(audio, mixed);
        out.clear();
        OverlapSave::new(vec![Arc::clone(&self.lpf_plan)])
            .process(mixed, std::slice::from_mut(out));
    }

    /// Searches pre-converted baseband from sample `from` for the next burst;
    /// on success prepares the channel estimate and returns a reader
    /// positioned at the header symbol. CFO is compensated lazily per symbol
    /// window.
    pub fn open_burst_baseband<'a, 'b>(
        &'a self,
        baseband: &'b [C32],
        from: usize,
    ) -> Option<BurstReader<'a, 'b>> {
        let sync = detect(&self.profile, &self.plan, baseband, from, 0.35)?;

        let sym = self.profile.symbol_len();
        let n = self.profile.fft_size;
        let cp = self.profile.cp_len;
        // Symbols: 0 preamble, 1..=2 training, 3 header, 4.. payload.
        let t1 = sync.start + sym;
        let t2 = t1 + sym;
        if baseband.len() < t2 + sym {
            return None;
        }

        let derotate = |window: &mut [C32], abs_start: usize| {
            if sync.cfo.abs() > 1e-7 {
                let phase0 = (abs_start - sync.start) as f64 * sync.cfo as f64;
                derotate_window(window, phase0, sync.cfo as f64);
            }
        };

        // FFT windows start a quarter-CP early: small timing errors and
        // filter tails then fall inside the cyclic prefix instead of
        // spilling ISI into the window. The resulting linear phase is part
        // of the channel estimate and cancels in equalization.
        let backoff = cp / 4;
        let mut channel = vec![C32::ZERO; self.plan.bins.len()];
        let mut buf: Vec<C32> = Vec::with_capacity(n);
        let mut split = SplitC32::new();
        let mut vals: Vec<C32> = Vec::with_capacity(self.plan.bins.len());
        for &t in &[t1, t2] {
            let s = t + cp - backoff;
            buf.clear();
            buf.extend_from_slice(&baseband[s..s + n]);
            derotate(&mut buf, s);
            // Split-plane FFT: bit-identical to `Fft::forward`, with the
            // butterflies running through the dispatched SIMD kernels.
            split.copy_from_interleaved(&buf);
            self.fft_plan.forward_split(&mut split.re, &mut split.im);
            self.plan.gather_split_into(&split.re, &split.im, &mut vals);
            for (h, (y, x)) in channel.iter_mut().zip(vals.iter().zip(&self.plan.training)) {
                *h += *y / *x;
            }
        }
        for h in channel.iter_mut() {
            *h = h.scale(0.5 / (self.profile.fft_size as f32).sqrt());
        }
        // Guard against dead carriers (channel nulls): floor the magnitude.
        // Soft outputs are additionally weighted by |h|² in `next_symbol`,
        // so a floored carrier contributes near-zero confidence (an erasure)
        // instead of amplified noise.
        let avg: f32 =
            channel.iter().map(|h| h.abs()).sum::<f32>() / channel.len().max(1) as f32;
        let floor = (avg * 0.05).max(1e-6);
        for h in channel.iter_mut() {
            if h.abs() < floor {
                *h = C32::new(floor, 0.0);
            }
        }

        Some(BurstReader {
            demod: self,
            baseband,
            channel,
            cursor: t2 + sym,
            burst_start: sync.start,
            sync,
            sym_buf: buf,
            split_buf: split,
            vals_buf: vals,
            data_re: Vec::new(),
            data_im: Vec::new(),
            weights: Vec::new(),
            axis_buf: Vec::new(),
        })
    }
}

impl BurstReader<'_, '_> {
    /// Sample index just past the last symbol consumed so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Whether another whole symbol is available in the buffer.
    pub fn has_symbol(&self) -> bool {
        self.cursor + self.demod.profile.symbol_len() <= self.baseband.len()
    }

    /// Demodulates the next symbol with the given modulation, appending one
    /// equalized soft value per data bit to `soft`. Returns `false` when the
    /// buffer is exhausted.
    pub fn next_symbol(&mut self, modulation: Modulation, soft: &mut Vec<f32>) -> bool {
        if !self.has_symbol() {
            return false;
        }
        let p = &self.demod.profile;
        let plan = &self.demod.plan;
        let cp = p.cp_len;
        let n = p.fft_size;
        let norm = 1.0 / (n as f32).sqrt();
        // Same quarter-CP back-off as the channel estimator (phases cancel).
        let s = self.cursor + cp - cp / 4;
        let buf = &mut self.sym_buf;
        buf.clear();
        buf.extend_from_slice(&self.baseband[s..s + n]);
        if self.sync.cfo.abs() > 1e-7 {
            let phase0 = (s - self.burst_start) as f64 * self.sync.cfo as f64;
            derotate_window(buf, phase0, self.sync.cfo as f64);
        }
        // Split-plane FFT (bit-identical to `Fft::forward`, SIMD butterflies).
        self.split_buf.copy_from_interleaved(buf);
        self.demod
            .fft_plan
            .forward_split(&mut self.split_buf.re, &mut self.split_buf.im);
        let vals = &mut self.vals_buf;
        plan.gather_split_into(&self.split_buf.re, &self.split_buf.im, vals);
        for v in vals.iter_mut() {
            *v = v.scale(norm);
        }
        // Equalize.
        for (v, h) in vals.iter_mut().zip(&self.channel) {
            *v = *v / *h;
        }
        // Common phase error from pilots.
        let mut acc = C32::ZERO;
        for (k, &idx) in plan.pilot_idx.iter().enumerate() {
            acc += vals[idx].mul_conj(plan.pilot_values[k]);
        }
        if acc.abs() > 1e-9 {
            let rot = acc.normalize().conj();
            for v in vals.iter_mut() {
                *v *= rot;
            }
        }
        // Matched-filter weighting: scale each carrier's soft bits by its
        // channel power relative to the mean, so faded carriers act like
        // erasures for the Viterbi decoder instead of confident garbage.
        let mean_h2: f32 = self.channel.iter().map(|h| h.norm_sq()).sum::<f32>()
            / self.channel.len().max(1) as f32;
        // Batched demap: gather the data carriers into axis planes and
        // sweep all of them through the SIMD demapper in one call.
        let d = plan.data_idx.len();
        self.data_re.clear();
        self.data_re.resize(d, 0.0);
        self.data_im.clear();
        self.data_im.resize(d, 0.0);
        self.weights.clear();
        self.weights.resize(d, 0.0);
        for (c, &idx) in plan.data_idx.iter().enumerate() {
            self.data_re[c] = vals[idx].re;
            self.data_im[c] = vals[idx].im;
            self.weights[c] = (self.channel[idx].norm_sq() / mean_h2.max(1e-12)).min(4.0);
        }
        demap_soft_batch(
            modulation,
            &self.data_re,
            &self.data_im,
            &self.weights,
            &mut self.axis_buf,
            soft,
        );
        self.cursor += p.symbol_len();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Modulation;
    use crate::ofdm::modulator::Modulator;

    /// End-to-end symbol path over a clean channel.
    fn roundtrip_soft(profile: Profile, payload_bits: &[u8]) -> Vec<f32> {
        let m = Modulator::new(profile.clone());
        let header: Vec<u8> = (0..80).map(|i| (i % 2) as u8).collect();
        let audio = m.modulate_bits(&header, payload_bits);
        let d = Demodulator::new(profile.clone());
        let bb = d.to_baseband(&audio);
        let mut reader = d.open_burst_baseband(&bb, 0).expect("burst detected");
        // Header symbol first.
        let mut hdr_soft = Vec::new();
        assert!(reader.next_symbol(Modulation::Bpsk, &mut hdr_soft));
        for (k, s) in hdr_soft.iter().take(80).enumerate() {
            assert_eq!(*s > 0.0, header[k] == 1, "header bit {k}");
        }
        let per_sym = profile.bits_per_symbol();
        let n_syms = payload_bits.len().div_ceil(per_sym);
        let mut soft = Vec::new();
        for _ in 0..n_syms {
            assert!(reader.next_symbol(profile.modulation, &mut soft));
        }
        soft
    }

    fn pattern(n: usize) -> Vec<u8> {
        let mut x = 0xDEADu32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 1) as u8
            })
            .collect()
    }

    #[test]
    fn clean_channel_recovers_all_bits_qpsk() {
        let p = Profile::audible_7k();
        let bits = pattern(p.bits_per_symbol() * 5);
        let soft = roundtrip_soft(p, &bits);
        for (i, (&b, &s)) in bits.iter().zip(&soft).enumerate() {
            assert_eq!(s > 0.0, b == 1, "bit {i}");
        }
    }

    #[test]
    fn clean_channel_recovers_all_bits_qam64() {
        let p = Profile::sonic_10k();
        let bits = pattern(p.bits_per_symbol() * 5);
        let soft = roundtrip_soft(p, &bits);
        for (i, (&b, &s)) in bits.iter().zip(&soft).enumerate() {
            assert_eq!(s > 0.0, b == 1, "bit {i}");
        }
    }

    #[test]
    fn survives_attenuation_and_delay() {
        let profile = Profile::sonic_10k();
        let m = Modulator::new(profile.clone());
        let bits = pattern(profile.bits_per_symbol() * 3);
        let header: Vec<u8> = vec![1; 80];
        let audio = m.modulate_bits(&header, &bits);
        // 0.05× attenuation plus 777 samples of delay.
        let mut rx = vec![0.0f32; 777];
        rx.extend(audio.iter().map(|&x| x * 0.05));
        let d = Demodulator::new(profile.clone());
        let bb = d.to_baseband(&rx);
        let mut reader = d.open_burst_baseband(&bb, 0).expect("detected");
        let mut hdr = Vec::new();
        assert!(reader.next_symbol(Modulation::Bpsk, &mut hdr));
        for (k, s) in hdr.iter().take(80).enumerate() {
            assert!(*s > 0.0, "header bit {k} flipped");
        }
        let mut soft = Vec::new();
        for _ in 0..3 {
            assert!(reader.next_symbol(profile.modulation, &mut soft));
        }
        for (i, (&b, &s)) in bits.iter().zip(&soft).enumerate() {
            assert_eq!(s > 0.0, b == 1, "bit {i}");
        }
    }

    #[test]
    fn overlap_save_baseband_matches_reference() {
        let p = Profile::sonic_10k();
        let m = Modulator::new(p.clone());
        let bits = pattern(p.bits_per_symbol() * 4);
        let audio = m.modulate_bits(&[1; 80], &bits);
        let d = Demodulator::new(p);
        let fast = d.to_baseband(&audio);
        let slow = d.to_baseband_reference(&audio);
        assert_eq!(fast.len(), slow.len());
        let mut err = 0.0f64;
        let mut pow = 0.0f64;
        for (a, b) in fast.iter().zip(&slow) {
            err += (*a - *b).norm_sq() as f64;
            pow += b.norm_sq() as f64;
        }
        let rel = (err / pow.max(1e-30)).sqrt();
        assert!(rel < 1e-4, "relative RMS {rel}");
    }

    #[test]
    fn open_burst_fails_on_silence() {
        let d = Demodulator::new(Profile::sonic_10k());
        let bb = d.to_baseband(&vec![0.0; 50_000]);
        assert!(d.open_burst_baseband(&bb, 0).is_none());
    }
}
