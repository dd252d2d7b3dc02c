//! OFDM burst demodulator.
//!
//! Pipeline: down-convert, low-pass and decimate by [`DECIMATION`] →
//! Schmidl-Cox detect → CFO derotate → channel estimate from the two
//! training symbols → per-symbol FFT → one-tap equalization → pilot
//! common-phase-error correction → max-log soft demap. Everything after the
//! front end runs at a quarter of the audio rate, with symbols of
//! `fft_size / 4` samples behind a `cp_len / 4` prefix: the active carriers
//! span ±2.07 kHz, well inside the 5.5 kHz Nyquist of 11 025 Hz, and keep
//! their offsets (±48 bins) in the smaller FFT.
//!
//! All of it is push-shaped: the [`Frontend`] turns whatever audio has
//! arrived into baseband, and the [`BurstScanner`] works through a window of
//! that baseband, suspending wherever its next step needs samples that are
//! not there yet. The caller (the PHY framer) decides how many payload
//! symbols to read based on the decoded header.

use super::carriers::CarrierPlan;
use super::sync::{Detector, SyncPoint};
use crate::constellation::{demap_soft_batch, Modulation};
use crate::profile::Profile;
use sonic_dsp::fir::{design_lowpass, Fir};
use sonic_dsp::osc::{downconvert, Nco, PeriodicOsc};
use sonic_dsp::plan::FftPlan;
use sonic_dsp::resample::Resampler;
use sonic_dsp::split::SplitC32;
use sonic_dsp::C32;
use std::f64::consts::{SQRT_2, TAU};

/// Taps of the image-rejection low-pass applied after downconversion.
///
/// Mixing a real passband signal down leaves an image at −2·f_c; without
/// this filter the image corrupts both the Schmidl-Cox metric and the
/// equalizer, and decimating would fold it onto the band. Linear phase ⇒ a
/// constant [`GROUP_DELAY`] sample shift.
const LPF_TAPS: usize = 101;

/// Group delay (audio samples) introduced by the baseband low-pass.
pub const GROUP_DELAY: usize = (LPF_TAPS - 1) / 2;

/// Audio samples per baseband sample.
pub const DECIMATION: usize = 4;

/// The audio sample baseband sample 0 is taken at; baseband sample `m` is
/// audio sample `DECIMATION·m + PHASE`. A burst is a `cp_len` guard and
/// whole symbols, all multiples of 4 samples, and the low-pass delays it by
/// 50 = 4·12 + 2, so a burst that starts on a multiple of 4 has every
/// symbol boundary on a kept sample.
pub const PHASE: usize = 2;

/// The audio sample of baseband sample `m`.
pub fn audio_sample(m: usize) -> usize {
    DECIMATION * m + PHASE
}

/// Schmidl-Cox metric above which the scanner takes a closer look.
const SYNC_THRESHOLD: f32 = 0.35;

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

/// The plans of one profile's receiver: everything that does not change
/// from sample to sample.
#[derive(Debug)]
pub struct Demodulator {
    profile: Profile,
    /// The carriers in the `fft_size / DECIMATION`-point grid.
    plan: CarrierPlan,
    /// Cyclic prefix in baseband samples.
    cp: usize,
    /// Planned split-plane FFT for the per-symbol forward transforms.
    fft_plan: FftPlan,
    lpf_taps: Vec<f32>,
    /// A new [`Frontend`]'s state, cloned per stream.
    frontend: Frontend,
}

impl Demodulator {
    /// Creates a demodulator.
    ///
    /// # Panics
    /// Panics if the profile is invalid (see [`Profile::validate`]).
    pub fn new(profile: Profile) -> Self {
        let fft_size = profile.fft_size / DECIMATION;
        let plan = CarrierPlan::with_fft_size(&profile, fft_size);
        // Pass the occupied band with margin, stop well before the −2·f_c image.
        let cutoff = ((profile.bandwidth() / 2.0 + 600.0) / profile.sample_rate).min(0.45);
        let lpf_taps = design_lowpass(LPF_TAPS, cutoff);
        // Mixing then filtering, y[n] = e^{−jωn}·Σ h[k]·e^{jωk}·√2·x[n−k]:
        // the low-pass shifted up to the carrier runs on the audio itself,
        // one real filter per plane, and the kept outputs are rotated down.
        let w = TAU * profile.center_freq / profile.sample_rate;
        let decimator = |part: fn(f64) -> f64| {
            let taps: Vec<f32> = lpf_taps
                .iter()
                .enumerate()
                .map(|(k, &h)| (SQRT_2 * f64::from(h) * part(w * k as f64)) as f32)
                .collect();
            Resampler::decimator(&taps, DECIMATION, PHASE)
        };
        let osc = PeriodicOsc::new(profile.sample_rate, profile.center_freq);
        let frontend = Frontend {
            lpf: [decimator(f64::cos), decimator(f64::sin)],
            osc: osc.decimated(DECIMATION, PHASE),
            planes: [Vec::new(), Vec::new()],
        };
        Demodulator {
            cp: profile.cp_len / DECIMATION,
            fft_plan: FftPlan::new(fft_size),
            profile,
            plan,
            lpf_taps,
            frontend,
        }
    }

    /// The profile this demodulator implements.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Baseband samples per symbol, cyclic prefix included.
    fn symbol_len(&self) -> usize {
        self.plan.fft_size() + self.cp
    }

    /// A burst search from baseband sample `from`.
    fn detector(&self, from: usize) -> Detector {
        Detector::at(&self.plan, self.cp, from)
    }

    /// A front end at the start of a stream.
    pub fn frontend(&self) -> Frontend {
        self.frontend.clone()
    }

    /// Down-converts an audio buffer to complex baseband, rejects the
    /// −2·f_c mixing image and keeps every [`DECIMATION`]th sample from
    /// [`PHASE`] on. The output is delayed by [`GROUP_DELAY`] audio samples.
    ///
    /// One push through a fresh [`Frontend`].
    pub fn to_baseband(&self, audio: &[f32]) -> Vec<C32> {
        let mut out = Vec::with_capacity(audio.len() / DECIMATION + 1);
        self.frontend().push(audio, &mut out);
        out
    }

    /// Original direct-form baseband conversion (live oscillator, two
    /// per-sample real FIRs at the audio rate, every [`DECIMATION`]th output
    /// kept); the executable specification for the [`Frontend`].
    pub fn to_baseband_reference(&self, audio: &[f32]) -> Vec<C32> {
        let mut nco = Nco::new(self.profile.sample_rate, self.profile.center_freq);
        let mut mixed = Vec::with_capacity(audio.len());
        downconvert(&mut nco, audio, &mut mixed);
        let mut fir_re = Fir::new(self.lpf_taps.clone());
        let mut fir_im = Fir::new(self.lpf_taps.clone());
        let mut out = Vec::with_capacity(audio.len() / DECIMATION + 1);
        for (n, v) in mixed.iter().enumerate() {
            let y = C32::new(fir_re.push(v.re), fir_im.push(v.im));
            if n % DECIMATION == PHASE {
                out.push(y);
            }
        }
        out
    }
}

/// The streaming front of the receive chain: audio in, low-passed complex
/// baseband at a quarter of the audio rate out, with state that does not
/// grow with the stream.
///
/// The low-pass is a polyphase decimator per plane ([`Resampler::decimator`]
/// over the audio, with the taps shifted up to the carrier): it computes
/// only the outputs it keeps, each one dot product over a window of the
/// audio, and the oscillator — one period of the carrier at the kept
/// samples — rotates them down to baseband. Equal to the reference's mix
/// and pair of per-sample real FIRs within rounding (~1e-7 relative). The
/// decimators carry their last 100 samples across pushes and read nothing
/// else, so however the audio is cut into pushes, the baseband is the same
/// bits.
#[derive(Debug, Clone)]
pub struct Frontend {
    /// The I and Q decimators.
    lpf: [Resampler; 2],
    osc: PeriodicOsc,
    /// Reused I and Q outputs of one push.
    planes: [Vec<f32>; 2],
}

impl Frontend {
    /// Takes the next `audio` of the stream and appends its baseband to
    /// `out`.
    // lint: no-alloc
    pub fn push(&mut self, audio: &[f32], out: &mut Vec<C32>) {
        for (lpf, plane) in self.lpf.iter_mut().zip(&mut self.planes) {
            plane.clear();
            lpf.process_into(audio, plane);
        }
        let start = out.len();
        out.resize(start + self.planes[0].len(), C32::ZERO);
        let [i, q] = &self.planes;
        for ((o, &i), &q) in out[start..].iter_mut().zip(i).zip(q) {
            *o = C32::new(i, q) * self.osc.advance().conj();
        }
    }
}

/// Where the scanner is in the stream.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Between bursts, looking for a preamble.
    Search(Detector),
    /// Synchronized; the two training symbols have not both arrived.
    Training(SyncPoint),
    /// Channel estimated; `cursor` is the stream sample where the next
    /// symbol's cyclic prefix starts.
    Symbols { sync: SyncPoint, cursor: usize },
}

/// The resumable burst scanner: finds bursts in a baseband stream and
/// demodulates their symbols as the samples arrive.
///
/// It owns a window of the stream — [`baseband`](Self::baseband) is its
/// growing end — and a position in it. Each step (the Schmidl-Cox sums, the
/// fine-timing window, the training pair, one symbol) runs when every sample
/// it reads has arrived, and otherwise leaves the scanner as it was and
/// reports "not yet"; what lies behind the position is dropped. The steps
/// are the whole-buffer receiver's, in its order, on the same samples, so
/// where the stream is cut does not show in what comes out. Only the end of
/// the stream changes a step: then windows stop where the samples do, and a
/// burst whose symbols never came is cut off.
#[derive(Debug)]
pub struct BurstScanner {
    /// Baseband from stream sample `base` to the newest.
    window: Vec<C32>,
    base: usize,
    stage: Stage,
    /// Channel estimate per logical carrier.
    channel: Vec<C32>,
    /// Reused FFT window.
    sym_buf: Vec<C32>,
    /// Reused split-plane buffer for the per-symbol FFT.
    split_buf: SplitC32,
    /// Reused gathered-carrier buffer.
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

impl BurstScanner {
    /// A scanner at the start of a stream.
    pub fn new(demod: &Demodulator) -> Self {
        let carriers = demod.plan.bins.len();
        BurstScanner {
            window: Vec::new(),
            base: 0,
            stage: Stage::Search(demod.detector(0)),
            channel: vec![C32::ZERO; carriers],
            sym_buf: Vec::with_capacity(demod.plan.fft_size()),
            split_buf: SplitC32::new(),
            vals_buf: Vec::with_capacity(carriers),
            data_re: Vec::new(),
            data_im: Vec::new(),
            weights: Vec::new(),
            axis_buf: Vec::new(),
        }
    }

    /// The growing end of the baseband window: append the stream's next
    /// samples here, then call [`open_burst`](Self::open_burst) or
    /// [`next_symbol`](Self::next_symbol) again.
    pub fn baseband(&mut self) -> &mut Vec<C32> {
        &mut self.window
    }

    /// Forgets the stream: the next baseband appended is stream sample 0.
    pub fn reset(&mut self, demod: &Demodulator) {
        self.window.clear();
        self.base = 0;
        self.stage = Stage::Search(demod.detector(0));
    }

    /// Samples of the stream received so far.
    fn total(&self) -> usize {
        self.base + self.window.len()
    }

    /// Drops the baseband behind the position, which no step reads again
    /// (fine timing tries burst starts up to a cyclic prefix back, but
    /// correlates the symbol body, which lies ahead). Runs where the scanner
    /// suspends, and only once the dead part is half the window, so a sample
    /// is moved at most once however small the pushes.
    fn trim(&mut self) {
        let position = match self.stage {
            Stage::Search(detector) => detector.position(),
            Stage::Training(sync) => sync.start,
            Stage::Symbols { cursor, .. } => cursor,
        };
        let dead = position.saturating_sub(self.base);
        if dead >= self.window.len().div_ceil(2) {
            self.window.drain(..dead);
            self.base += dead;
        }
    }

    /// Carries on to the next burst. On reaching one, estimates its channel
    /// from the training pair and returns the audio sample where its
    /// preamble began ([`audio_sample`] of the baseband one); the scanner
    /// then stands at the header symbol.
    ///
    /// `None` while the stream is live means the samples ran out first: call
    /// again after appending more. Once the stream has `ended` it means
    /// there is no further burst with its training symbols whole.
    pub fn open_burst(&mut self, demod: &Demodulator, ended: bool) -> Option<usize> {
        let sym = demod.symbol_len();
        loop {
            match self.stage {
                Stage::Search(ref mut detector) => {
                    let found = detector.detect(
                        &demod.plan,
                        &self.window,
                        self.base,
                        ended,
                        SYNC_THRESHOLD,
                    );
                    let Some(sync) = found else {
                        self.trim();
                        return None;
                    };
                    self.stage = Stage::Training(sync);
                }
                Stage::Training(sync) => {
                    // Symbols: 0 preamble, 1..=2 training, 3 header, 4.. payload.
                    let header = sync.start + 3 * sym;
                    if self.total() < header {
                        self.trim();
                        return None;
                    }
                    self.estimate_channel(demod, sync);
                    self.stage = Stage::Symbols {
                        sync,
                        cursor: header,
                    };
                    return Some(audio_sample(sync.start));
                }
                Stage::Symbols { sync, .. } => return Some(audio_sample(sync.start)),
            }
        }
    }

    /// Leaves the burst: the search for the next one starts where the last
    /// symbol read ended.
    pub fn end_burst(&mut self, demod: &Demodulator) {
        if let Stage::Symbols { cursor, .. } = self.stage {
            self.stage = Stage::Search(demod.detector(cursor));
        }
    }

    /// Transforms the symbol whose cyclic prefix starts at stream sample
    /// `at` of the burst synchronized by `sync`: CFO-derotated FFT window
    /// into `vals_buf`, one value per logical carrier.
    fn transform(&mut self, demod: &Demodulator, sync: SyncPoint, at: usize) {
        let cp = demod.cp;
        // FFT windows start a quarter-CP early: small timing errors and
        // filter tails then fall inside the cyclic prefix instead of
        // spilling ISI into the window. The resulting linear phase is part
        // of the channel estimate and cancels in equalization.
        let s = at + cp - cp / 4;
        let buf = &mut self.sym_buf;
        buf.clear();
        buf.extend_from_slice(&self.window[s - self.base..s - self.base + demod.plan.fft_size()]);
        if sync.cfo.abs() > 1e-7 {
            let phase0 = (s - sync.start) as f64 * sync.cfo as f64;
            derotate_window(buf, phase0, sync.cfo as f64);
        }
        self.split_buf.copy_from_interleaved(buf);
        demod
            .fft_plan
            .forward_split(&mut self.split_buf.re, &mut self.split_buf.im);
        demod
            .plan
            .gather_split_into(&self.split_buf.re, &self.split_buf.im, &mut self.vals_buf);
    }

    /// Averages the two training symbols after `sync` into the per-carrier
    /// channel estimate.
    fn estimate_channel(&mut self, demod: &Demodulator, sync: SyncPoint) {
        let sym = demod.symbol_len();
        self.channel.fill(C32::ZERO);
        for t in [sync.start + sym, sync.start + 2 * sym] {
            self.transform(demod, sync, t);
            for (h, (y, x)) in self
                .channel
                .iter_mut()
                .zip(self.vals_buf.iter().zip(&demod.plan.training))
            {
                *h += *y / *x;
            }
        }
        for h in self.channel.iter_mut() {
            *h = h.scale(0.5 / (demod.plan.fft_size() as f32).sqrt());
        }
        // Guard against dead carriers (channel nulls): floor the magnitude.
        // Soft outputs are additionally weighted by |h|² in `next_symbol`,
        // so a floored carrier contributes near-zero confidence (an erasure)
        // instead of amplified noise.
        let avg: f32 = self.channel.iter().map(|h| h.abs()).sum::<f32>()
            / self.channel.len().max(1) as f32;
        let floor = (avg * 0.05).max(1e-6);
        for h in self.channel.iter_mut() {
            if h.abs() < floor {
                *h = C32::new(floor, 0.0);
            }
        }
    }

    /// Demodulates the open burst's next symbol with the given modulation,
    /// appending one equalized soft value per data bit to `soft`.
    ///
    /// Returns `false`, with nothing consumed, when no burst is open or the
    /// whole symbol has not arrived: call again after appending more — or,
    /// if the stream has ended, count the burst as cut off.
    pub fn next_symbol(
        &mut self,
        demod: &Demodulator,
        modulation: Modulation,
        soft: &mut Vec<f32>,
    ) -> bool {
        let Stage::Symbols { sync, cursor } = self.stage else {
            return false;
        };
        let plan = &demod.plan;
        let sym = demod.symbol_len();
        if self.total() < cursor + sym {
            self.trim();
            return false;
        }
        self.transform(demod, sync, cursor);
        let norm = 1.0 / (plan.fft_size() as f32).sqrt();
        let vals = &mut self.vals_buf;
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
        self.stage = Stage::Symbols {
            sync,
            cursor: cursor + sym,
        };
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
        let mut reader = BurstScanner::new(&d);
        *reader.baseband() = d.to_baseband(&audio);
        reader.open_burst(&d, true).expect("burst detected");
        // Header symbol first.
        let mut hdr_soft = Vec::new();
        assert!(reader.next_symbol(&d, Modulation::Bpsk, &mut hdr_soft));
        for (k, s) in hdr_soft.iter().take(80).enumerate() {
            assert_eq!(*s > 0.0, header[k] == 1, "header bit {k}");
        }
        let per_sym = profile.bits_per_symbol();
        let n_syms = payload_bits.len().div_ceil(per_sym);
        let mut soft = Vec::new();
        for _ in 0..n_syms {
            assert!(reader.next_symbol(&d, profile.modulation, &mut soft));
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
        let mut reader = BurstScanner::new(&d);
        *reader.baseband() = d.to_baseband(&rx);
        assert!(reader.open_burst(&d, true).is_some(), "detected");
        let mut hdr = Vec::new();
        assert!(reader.next_symbol(&d, Modulation::Bpsk, &mut hdr));
        for (k, s) in hdr.iter().take(80).enumerate() {
            assert!(*s > 0.0, "header bit {k} flipped");
        }
        let mut soft = Vec::new();
        for _ in 0..3 {
            assert!(reader.next_symbol(&d, profile.modulation, &mut soft));
        }
        for (i, (&b, &s)) in bits.iter().zip(&soft).enumerate() {
            assert_eq!(s > 0.0, b == 1, "bit {i}");
        }
    }

    #[test]
    fn decimating_baseband_matches_reference() {
        let p = Profile::sonic_10k();
        let m = Modulator::new(p.clone());
        let bits = pattern(p.bits_per_symbol() * 4);
        let audio = m.modulate_bits(&[1; 80], &bits);
        let d = Demodulator::new(p);
        let fast = d.to_baseband(&audio);
        let slow = d.to_baseband_reference(&audio);
        assert_eq!(fast.len(), (audio.len() - PHASE).div_ceil(DECIMATION));
        assert_eq!(fast.len(), slow.len());
        let mut err = 0.0f64;
        let mut pow = 0.0f64;
        for (a, b) in fast.iter().zip(&slow) {
            err += (*a - *b).norm_sq() as f64;
            pow += b.norm_sq() as f64;
        }
        let rel = (err / pow.max(1e-30)).sqrt();
        assert!(rel < 1e-6, "relative RMS {rel}");
    }

    #[test]
    fn open_burst_fails_on_silence() {
        let d = Demodulator::new(Profile::sonic_10k());
        let mut scanner = BurstScanner::new(&d);
        *scanner.baseband() = d.to_baseband(&vec![0.0; 50_000]);
        assert!(scanner.open_burst(&d, true).is_none());
    }
}
