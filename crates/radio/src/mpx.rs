//! FM stereo multiplex composer/decomposer (Figure 2 of the paper).
//!
//! Composite layout at the 228 kHz rate:
//!
//! ```text
//! 0–15 kHz   mono (L+R)            — SONIC's data band lives here (9.2 kHz)
//! 19 kHz     stereo pilot
//! 23–53 kHz  stereo difference (L−R), DSB-SC on 38 kHz
//! 57 kHz     RDS subcarrier (1187.5 bps)
//! ```
//!
//! Pre-emphasis (50 µs) is applied to the audio channels before matrixing
//! and undone by the decomposer, exactly as a real exciter/tuner pair does —
//! this is what gives the 9.2 kHz data carrier its favourable post-detection
//! SNR despite FM's triangular noise spectrum.

use crate::{rds, AUDIO_RATE, MPX_RATE, PILOT_HZ, STEREO_SUB_HZ};
use sonic_dsp::fir::{design_bandpass, design_lowpass, Fir, OverlapSave};
use sonic_dsp::iir::{Deemphasis, Preemphasis};
use sonic_dsp::plan::FirPlan;
use sonic_dsp::resample::Resampler;
use sonic_dsp::simd::{self, Block};
use std::f64::consts::TAU;
use std::sync::Arc;

/// Modulation levels (fractions of peak deviation).
mod level {
    /// Mono (or L+R) channel.
    pub const MONO: f32 = 0.80;
    /// 19 kHz pilot tone.
    pub const PILOT: f32 = 0.09;
    /// Stereo difference channel.
    pub const STEREO: f32 = 0.80;
    /// RDS subcarrier.
    pub const RDS: f32 = 0.05;
}

/// Input to the composer.
#[derive(Debug, Clone, Default)]
pub struct MpxInput {
    /// Mono program + data audio at 44.1 kHz (required).
    pub mono: Vec<f32>,
    /// Optional stereo difference (L−R) at 44.1 kHz, same length as `mono`.
    pub stereo_diff: Option<Vec<f32>>,
    /// Optional RDS bit stream (1187.5 bps).
    pub rds_bits: Option<Vec<u8>>,
}

/// Builds the 228 kHz composite from audio channels and RDS bits.
///
/// The composite is summed in place over the upsampled mono, in one
/// [`simd::vectorized`] call.
pub fn compose(input: &MpxInput) -> Vec<f32> {
    let n_out_hint = input.mono.len() * (MPX_RATE / AUDIO_RATE) as usize + 64;

    // Pre-emphasize then upsample the mono channel.
    let mut mono = input.mono.clone();
    Preemphasis::new(AUDIO_RATE, 50e-6).process(&mut mono);
    let mut up = Resampler::new(AUDIO_RATE as usize, MPX_RATE as usize, 32);
    let mut composite = Vec::with_capacity(n_out_hint);
    up.process_into(&mono, &mut composite);

    let stereo_up = input.stereo_diff.as_ref().map(|d| {
        assert_eq!(d.len(), input.mono.len(), "stereo diff length mismatch");
        let mut diff = d.clone();
        Preemphasis::new(AUDIO_RATE, 50e-6).process(&mut diff);
        let mut up = Resampler::new(AUDIO_RATE as usize, MPX_RATE as usize, 32);
        let mut out = Vec::with_capacity(n_out_hint);
        up.process_into(&diff, &mut out);
        out
    });

    let rds_wave = input
        .rds_bits
        .as_ref()
        .map(|bits| rds::modulate_subcarrier(bits, 1.0));

    simd::vectorized(Composite {
        signal: &mut composite,
        stereo: stereo_up.as_deref(),
        rds: rds_wave.as_deref(),
    });
    composite
}

/// The composite loop: the upsampled mono in `signal` becomes the clamped
/// composite, sample by sample, with the stereo pair and the RDS
/// subcarrier when they are on air.
struct Composite<'a> {
    signal: &'a mut [f32],
    stereo: Option<&'a [f32]>,
    rds: Option<&'a [f32]>,
}

impl Block for Composite<'_> {
    #[inline(always)]
    fn run(self) {
        let Composite { signal, stereo, rds } = self;
        let mono_gain = if stereo.is_some() {
            level::MONO * 0.5
        } else {
            level::MONO
        };
        for (i, x) in signal.iter_mut().enumerate() {
            // The `0.0 +` start maps −0 to +0.
            let mut s = 0.0f32;
            s += mono_gain * *x;
            if let Some(diff) = stereo {
                let t = i as f64;
                let sub = (TAU * STEREO_SUB_HZ * t / MPX_RATE).cos() as f32;
                s += level::PILOT * (TAU * PILOT_HZ * t / MPX_RATE).sin() as f32;
                s += level::STEREO * 0.5 * diff.get(i).copied().unwrap_or(0.0) * sub;
            }
            if let Some(rds) = rds {
                s += level::RDS * rds.get(i).copied().unwrap_or(0.0);
            }
            *x = s.clamp(-1.0, 1.0);
        }
    }
}

/// Output of the decomposer.
#[derive(Debug, Clone)]
pub struct MpxOutput {
    /// Recovered mono audio at 44.1 kHz (de-emphasized).
    pub mono: Vec<f32>,
    /// Raw RDS bits sliced from the 57 kHz subcarrier (empty when absent).
    pub rds_bits: Vec<u8>,
    /// Recovered stereo difference at 44.1 kHz when a pilot was detected.
    pub stereo_diff: Option<Vec<f32>>,
}

/// Number of taps in every band-select filter of the decomposer.
const BAND_TAPS: usize = 257;

/// The decomposer's fixed band-select filters, indexable into
/// [`band_filters`]'s cache.
#[derive(Debug, Clone, Copy)]
enum Band {
    /// 0–16 kHz mono low-pass (also the post-mix stereo low-pass).
    MonoLp = 0,
    /// 18–20 kHz pilot band-pass.
    PilotBp = 1,
    /// 22–54 kHz stereo-difference band-pass.
    StereoBp = 2,
    /// 36–40 kHz regenerated-carrier band-pass (squared pilot).
    CarrierBp = 3,
    /// 54.5–59.5 kHz RDS band-pass.
    RdsBp = 4,
}

/// Filter designs plus shared overlap-save plans for every [`Band`].
struct BandFilters {
    taps: [Vec<f32>; 5],
    plans: [Arc<FirPlan>; 5],
}

/// All band designs are fixed by the MPX layout, so the windowed-sinc
/// designs and their overlap-save FFT plans are built once per process and
/// shared by every decompose call (and every receiver thread).
fn band_filters() -> &'static BandFilters {
    use std::sync::OnceLock;
    static CACHE: OnceLock<BandFilters> = OnceLock::new();
    CACHE.get_or_init(|| {
        let taps = [
            design_lowpass(BAND_TAPS, 16_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 18_000.0 / MPX_RATE, 20_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 22_000.0 / MPX_RATE, 54_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 36_000.0 / MPX_RATE, 40_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 54_500.0 / MPX_RATE, 59_500.0 / MPX_RATE),
        ];
        let plans = taps.each_ref().map(|t| FirPlan::shared(t));
        BandFilters { taps, plans }
    })
}

/// One band-select filter, either the fast overlap-save engine or the
/// direct form the decomposer originally used. The two differ only by FFT
/// rounding (~1e-6 relative); both stream, and both give the same bits at
/// every cut the decomposer makes.
enum BandFilter {
    Fast(OverlapSave),
    Direct(Fir),
}

impl BandFilter {
    fn new(band: Band, fast: bool) -> Self {
        let f = band_filters();
        if fast {
            BandFilter::Fast(OverlapSave::new(Arc::clone(&f.plans[band as usize])))
        } else {
            BandFilter::Direct(Fir::new(f.taps[band as usize].clone()))
        }
    }

    /// Filters `input`, appending its outputs to `out`.
    fn process(&mut self, input: &[f32], out: &mut Vec<f32>) {
        match self {
            BandFilter::Fast(engine) => engine.process(input, out),
            BandFilter::Direct(fir) => {
                let start = out.len();
                out.extend_from_slice(input);
                fir.process(&mut out[start..]);
            }
        }
    }
}

/// Selects one band out of a whole signal.
fn band_select(signal: &[f32], band: Band, fast: bool) -> Vec<f32> {
    let mut out = Vec::with_capacity(signal.len());
    BandFilter::new(band, fast).process(signal, &mut out);
    out
}

/// Composite samples per chunk of the mono path: 16 overlap-save steps of
/// two [`FirPlan::block`]s, 16 × 3 584 = 57 344 samples, a quarter second.
fn mono_chunk() -> usize {
    16 * 2 * band_filters().plans[Band::MonoLp as usize].block()
}

/// Low-passes a 228 kHz signal to the mono band, converts it to 44.1 kHz and
/// de-emphasizes it. The low-pass is fed a chunk at a time, each a whole
/// number of overlap-save steps, so the output is the bits of one call over
/// the whole signal while the 228 kHz band never exists whole.
fn to_audio(signal: &[f32], fast: bool) -> Vec<f32> {
    let chunk = mono_chunk();
    let mut low = BandFilter::new(Band::MonoLp, fast);
    let mut down = Resampler::new(MPX_RATE as usize, AUDIO_RATE as usize, 32);
    let mut band = Vec::with_capacity(chunk.min(signal.len()));
    let mut audio = Vec::with_capacity(signal.len() / 5);
    for piece in signal.chunks(chunk) {
        band.clear();
        low.process(piece, &mut band);
        down.process_into(&band, &mut audio);
    }
    Deemphasis::new(AUDIO_RATE, 50e-6).process(&mut audio);
    audio
}

/// Composite samples per period of the 19 kHz pilot (`MPX_RATE / 19 kHz`).
const PILOT_PERIOD: usize = 12;

/// Amplitude of the composite's 19 kHz line: the signal folded by the
/// pilot's period (`f64` sums), then that period's first DFT bin. A pilot
/// reads its level (0.09 on a clean link, 0.088 at −86 dB); discriminator
/// noise and the mono, stereo and RDS services average out (0.0002–0.0003
/// with no pilot at −70 to −86 dB).
fn pilot_line(composite: &[f32]) -> f64 {
    let mut fold = [0.0f64; PILOT_PERIOD];
    let periods = composite.chunks_exact(PILOT_PERIOD);
    for period in periods.clone() {
        for (acc, &x) in fold.iter_mut().zip(period) {
            *acc += x as f64;
        }
    }
    let count = periods.len().max(1) as f64;
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (k, &acc) in fold.iter().enumerate() {
        let th = TAU * k as f64 / PILOT_PERIOD as f64;
        re += acc * th.cos();
        im -= acc * th.sin();
    }
    2.0 * (re * re + im * im).sqrt() / (PILOT_PERIOD as f64 * count)
}

/// Composite samples the RDS detector decodes (half a second, ≈ 5.7
/// groups).
const RDS_PROBE: usize = MPX_RATE as usize / 2;

/// RDS is on air when a group with all four checkwords right decodes from
/// the composite's first [`RDS_PROBE`] samples. Noise passes one 26-bit
/// block's check with probability 2⁻¹⁰, a whole group with 2⁻⁴⁰.
fn rds_on_air(composite: &[f32], fast: bool) -> bool {
    let probe = &composite[..composite.len().min(RDS_PROBE)];
    let bits = rds::demodulate_subcarrier(&band_select(probe, Band::RdsBp, fast));
    !rds::decode_groups(&bits).is_empty()
}

/// Splits a 228 kHz composite back into its services.
///
/// This is the fast receive path: every 257-tap band filter runs through the
/// FFT overlap-save engine ([`OverlapSave`]) instead of the direct form, and
/// the 44.1 kHz conversions stay in the polyphase [`Resampler`], which only
/// computes taps at the decimated output rate. Only what is on air is
/// filtered: the mono path always, the stereo branch when the composite has
/// a 19 kHz line (`pilot_line`), the RDS band when a valid group decodes
/// from its first half second. Output matches [`decompose_reference`] to
/// within FFT rounding (~1e-6 relative — property tests bound the RMS error
/// and check the frame-loss curve is unchanged).
pub fn decompose(composite: &[f32]) -> MpxOutput {
    decompose_impl(composite, true)
}

/// Direct-form reference decomposer (the original implementation), kept as
/// the executable specification for the fast path. It makes the same
/// presence decisions.
pub fn decompose_reference(composite: &[f32]) -> MpxOutput {
    decompose_impl(composite, false)
}

fn decompose_impl(composite: &[f32], fast: bool) -> MpxOutput {
    // --- mono path: LPF 16 kHz, downsample, de-emphasize ---
    let mono = to_audio(composite, fast);

    // --- stereo difference, when a pilot is on air ---
    // The level the band-power test this replaces used, 20 % of the
    // pilot's power, as an amplitude of its line.
    let has_pilot = pilot_line(composite) > (level::PILOT as f64) * 0.2f64.sqrt();
    let stereo_diff = has_pilot.then(|| {
        let pilot = band_select(composite, Band::PilotBp, fast);
        let band = band_select(composite, Band::StereoBp, fast);
        // Regenerate 38 kHz by squaring the pilot (classic receiver trick):
        // sin²(ωt) = (1 − cos 2ωt)/2 ⇒ bandpass at 38 kHz gives −cos(2ωt)/2.
        let squared: Vec<f32> = pilot.iter().map(|&p| p * p).collect();
        let sq = band_select(&squared, Band::CarrierBp, fast);
        // Normalize the regenerated carrier to unit amplitude.
        let carrier_rms =
            (sq.iter().map(|&x| x * x).sum::<f32>() / sq.len().max(1) as f32).sqrt();
        let norm = if carrier_rms > 1e-9 {
            std::f32::consts::FRAC_1_SQRT_2 / carrier_rms
        } else {
            0.0
        };
        // The pilot path runs through two 257-tap FIRs (pilot BP, then the
        // 38 kHz BP after squaring) = 256 samples of delay, while the stereo
        // band passed only one (128). Delay the band by the difference or
        // the product term lands 120° out of phase at 38 kHz.
        let extra_delay = 128usize;
        // Mix: diff·cos(2ω)·cos(2ω) = diff/2 + diff·cos(4ω)/2; LPF keeps diff/2.
        let mixed: Vec<f32> = sq
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let b = if i >= extra_delay { band[i - extra_delay] } else { 0.0 };
                -2.0 * b * c * norm * 2.0 / level::STEREO
            })
            .collect();
        to_audio(&mixed, fast)
    });

    // --- RDS, when a group decodes ---
    let rds_bits = if rds_on_air(composite, fast) {
        rds::demodulate_subcarrier(&band_select(composite, Band::RdsBp, fast))
    } else {
        Vec::new()
    };

    MpxOutput {
        mono,
        rds_bits,
        stereo_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, n: usize, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / AUDIO_RATE).sin() as f32)
            .collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
    }

    /// Correlation-based gain between a reference tone and a recovered one,
    /// tolerant of the pipeline's group delay.
    fn tone_level(signal: &[f32], f: f64) -> f32 {
        2.0 * sonic_dsp::goertzel::power(signal, AUDIO_RATE, f).sqrt()
    }

    #[test]
    fn mono_roundtrip_preserves_tone() {
        let mono = tone(9_200.0, 44_100, 0.5);
        let comp = compose(&MpxInput {
            mono: mono.clone(),
            ..Default::default()
        });
        let out = decompose(&comp);
        let skip = 4000;
        let got = tone_level(&out.mono[skip..], 9_200.0);
        // Composite path applies level::MONO then recovers; compare shape.
        let want = 0.5 * level::MONO;
        assert!((got - want).abs() / want < 0.15, "got {got} want {want}");
    }

    #[test]
    fn mono_only_has_no_pilot_or_stereo() {
        let comp = compose(&MpxInput {
            mono: tone(1_000.0, 22_050, 0.5),
            ..Default::default()
        });
        let out = decompose(&comp);
        assert!(out.stereo_diff.is_none());
        assert!(out.rds_bits.is_empty());
    }

    #[test]
    fn rds_survives_the_multiplex() {
        let g = rds::Group([0x54A8, 0x0408, 0x2020, 0x4849]);
        let mut bits = Vec::new();
        for _ in 0..4 {
            bits.extend(rds::encode_group(&g));
        }
        let n_audio = (bits.len() * rds::SAMPLES_PER_BIT) / 5 + 4410;
        let comp = compose(&MpxInput {
            mono: tone(800.0, n_audio, 0.4),
            rds_bits: Some(bits),
            ..Default::default()
        });
        let out = decompose(&comp);
        let groups = rds::decode_groups(&out.rds_bits);
        assert!(!groups.is_empty(), "no RDS groups recovered");
        assert!(groups.iter().all(|got| *got == g));
    }

    #[test]
    fn stereo_difference_roundtrips() {
        let mono = tone(1_000.0, 66_150, 0.4);
        let diff = tone(2_500.0, 66_150, 0.3);
        let comp = compose(&MpxInput {
            mono: mono.clone(),
            stereo_diff: Some(diff.clone()),
            ..Default::default()
        });
        let out = decompose(&comp);
        let rec = out.stereo_diff.expect("pilot must be detected");
        let skip = 8000;
        let got = tone_level(&rec[skip..], 2_500.0);
        // Stereo path halves the diff level at compose (0.5·STEREO); the
        // decomposer rescales by 2/STEREO, so expect ≈ the original 0.3.
        assert!((got - 0.3).abs() < 0.08, "stereo diff level {got}");
        // Mono leak into the stereo channel should be small.
        let leak = tone_level(&rec[skip..], 1_000.0);
        assert!(leak < 0.1, "mono leak {leak}");
    }

    /// Bits of `groups` copies of one RDS group.
    fn rds_groups(groups: usize) -> Vec<u8> {
        rds::encode_group(&rds::Group([0x54A8, 0x0408, 0x2020, 0x4849])).repeat(groups)
    }

    #[test]
    fn fast_decompose_matches_reference() {
        // All services on air so every band filter (including the stereo
        // branch with its squared-pilot 38 kHz regeneration) runs.
        let comp = compose(&MpxInput {
            mono: tone(1_000.0, 44_100, 0.4),
            stereo_diff: Some(tone(2_500.0, 44_100, 0.3)),
            rds_bits: Some(rds_groups(8)),
        });
        let fast = decompose(&comp);
        let slow = decompose_reference(&comp);

        let rel_rms = |a: &[f32], b: &[f32]| -> f64 {
            assert_eq!(a.len(), b.len());
            let mut err = 0.0f64;
            let mut pow = 0.0f64;
            for (x, y) in a.iter().zip(b) {
                err += ((x - y) as f64).powi(2);
                pow += (*y as f64).powi(2);
            }
            (err / pow.max(1e-30)).sqrt()
        };
        assert!(rel_rms(&fast.mono, &slow.mono) < 1e-4, "mono diverged");
        let fd = fast.stereo_diff.expect("fast pilot");
        let sd = slow.stereo_diff.expect("reference pilot");
        assert!(rel_rms(&fd, &sd) < 1e-4, "stereo diff diverged");
        assert!(!fast.rds_bits.is_empty(), "RDS on air");
        assert_eq!(fast.rds_bits, slow.rds_bits, "RDS bits must be identical");
    }

    #[test]
    fn pilot_line_reads_the_pilot_level_and_nothing_else() {
        let mono = tone(9_200.0, 44_100, 0.5);
        let bare = compose(&MpxInput {
            mono: mono.clone(),
            rds_bits: Some(rds_groups(12)),
            ..Default::default()
        });
        assert!(pilot_line(&bare) < 1e-3, "no pilot: {}", pilot_line(&bare));
        let stereo = compose(&MpxInput {
            mono,
            stereo_diff: Some(tone(2_500.0, 44_100, 0.3)),
            rds_bits: Some(rds_groups(12)),
        });
        let line = pilot_line(&stereo);
        assert!((line - level::PILOT as f64).abs() < 2e-3, "pilot: {line}");
        assert_eq!(pilot_line(&[]), 0.0);
    }

    /// Pattern bits that are no RDS group: a band-power detector saw the
    /// subcarrier; the checkwords do not.
    #[test]
    fn rds_without_a_valid_group_is_not_on_air() {
        let comp = compose(&MpxInput {
            mono: tone(1_000.0, 44_100, 0.4),
            rds_bits: Some([1, 0, 1, 1, 0, 0, 1, 0].repeat(100)),
            ..Default::default()
        });
        assert!(decompose(&comp).rds_bits.is_empty());
        assert!(decompose_reference(&comp).rds_bits.is_empty());
    }

    /// The mono path's chunks do not show: at lengths around and past the
    /// chunk size, `decompose`'s mono is one whole-buffer pass of the
    /// low-pass, the resampler and the de-emphasis.
    #[test]
    fn mono_chunks_are_the_whole_buffer_pass() {
        let chunk = mono_chunk();
        let long = tone(7_300.0, (3 * chunk + 77) / 5 + 10, 0.6);
        let comp = compose(&MpxInput {
            mono: long,
            ..Default::default()
        });
        for len in [chunk - 1, chunk, chunk + 1, 3 * chunk + 77] {
            let comp = &comp[..len];
            let band = band_select(comp, Band::MonoLp, true);
            let mut whole = Vec::new();
            Resampler::new(MPX_RATE as usize, AUDIO_RATE as usize, 32).process_into(&band, &mut whole);
            Deemphasis::new(AUDIO_RATE, 50e-6).process(&mut whole);
            let got = decompose(comp).mono;
            assert_eq!(got.len(), whole.len(), "length {len}");
            assert!(
                got.iter().zip(&whole).all(|(a, b)| a.to_bits() == b.to_bits()),
                "length {len}"
            );
        }
    }

    #[test]
    fn composite_is_bounded() {
        let comp = compose(&MpxInput {
            mono: tone(5_000.0, 44_100, 1.0),
            stereo_diff: Some(tone(3_000.0, 44_100, 1.0)),
            rds_bits: Some([1, 0, 1, 1, 0, 0, 1, 0].repeat(32)),
        });
        assert!(comp.iter().all(|&x| x.abs() <= 1.0));
        assert!(rms(&comp) > 0.05);
    }
}
