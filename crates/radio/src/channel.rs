//! Channel models.
//!
//! Three hops matter in the paper's evaluation. The **cable** hop (audio
//! jack or the phone's integrated tuner, Fig 4a's zero-loss "Cable" bar)
//! delivers the demodulated audio bit-exact, so it needs no model: the
//! receiver reads the audio as it is. The other two are modelled here:
//!
//! * **RF** — transmitter → tuner: constant-envelope FM plus AWGN whose
//!   level relative to the carrier is exactly the RSSI/noise-floor gap
//!   (the §4 "Variable RSSI" experiment);
//! * **acoustic** — radio loudspeaker → phone microphone over the air: the
//!   dominant loss source of Fig 4a, modeled with distance-dependent
//!   attenuation, the loudspeaker's high-frequency directivity roll-off,
//!   early reflections, alignment jitter and ambient noise.
//!
//! Both are functions of `(seed, absolute sample index)`: every random value
//! is SplitMix64 ([`mix`]) of the channel's key and a counter, and the
//! per-link parameters (fade rate and phase, misalignment, HF jitter) are
//! drawn once, in `new`. A second `transmit` call continues the stream the
//! first one started.

use crate::faults::{mix, unit_f64};
use sonic_dsp::fir::{design_bandpass, OverlapSave};
use sonic_dsp::math;
use sonic_dsp::simd::{self, Block};
use sonic_dsp::{FirPlan, C32};
use std::f64::consts::TAU;
use std::ops::Range;

/// Counter lanes of a channel's draws: sample `i`'s two Box-Muller uniforms,
/// one draw per impulse-burst slot, and the parameters drawn in `new`.
const U1: u64 = 0;
const U2: u64 = 1;
const SLOT: u64 = 2;
const PARAM: u64 = 3;

/// A channel's key: the seed hashed with the channel's tag *before* a
/// counter is XORed in. With `seed ^ counter` every small seed would draw
/// the same values over any power-of-two prefix, only permuted.
fn key(seed: u64, tag: u64) -> u64 {
    mix(seed ^ tag)
}

/// Draw `n` of `lane` under `key`: uniform in [0, 1).
#[inline(always)]
fn draw(key: u64, n: u64, lane: u64) -> f64 {
    unit_f64(mix(key ^ (n << 2 | lane)))
}

/// Sample `i`'s unit-variance Gaussian pair: Box-Muller on its two uniforms
/// (`u1` in (0, 1], so its log is finite), with the branch-free [`math`]
/// kernels in place of libm (the same `f32`s).
#[inline(always)]
fn gaussian(key: u64, i: u64) -> (f32, f32) {
    let r = (-2.0 * math::ln(1.0 - draw(key, i, U1))).sqrt();
    let (sin, cos) = math::sin_cos(TAU * draw(key, i, U2));
    ((r * cos) as f32, (r * sin) as f32)
}

/// The samples `first..first + len` of a stream split where the absolute
/// index crosses a multiple of `size`: `(block number, range in the call)`.
fn blocks(first: u64, len: usize, size: u64) -> impl Iterator<Item = (u64, Range<usize>)> {
    let end = first + len as u64;
    let at = move |i: u64| (i.clamp(first, end) - first) as usize;
    (first / size..end.div_ceil(size)).map(move |b| (b, at(b * size)..at((b + 1) * size)))
}

/// Samples the RF channel holds its fade for: 4.5 ms, over which the fade
/// moves < 0.01 dB.
const BLOCK: u64 = 1_024;

/// Receiver noise floor (dB, same scale as RSSI). It puts the unfaded FM
/// chain's threshold at the paper's §4 boundary, −90 dB (EXPERIMENTS.md §4
/// has the measurement). The `paper` target's `rssi.*` rows and the seed
/// judge's `trip_fm` table in CHANGES.md are the figures with the fade;
/// `benchmark/README.md`'s cliff was measured on an earlier noise and fade.
const NOISE_FLOOR_DB: f64 = -93.0;

/// Peak of the carrier's slow fade, in dB either side of the RSSI. The
/// paper's §4 boundaries bound it: at the sweep's input level the unfaded
/// chain decodes every burst from −89 dB up and none from −90.5 dB down
/// (EXPERIMENTS.md §4), so a link at −85 dB stays clean through its dips
/// and one at −92 dB stays dead through its peaks.
const FADE_DB: f64 = 1.5;

/// RF hop at complex baseband: attenuation is folded into the
/// carrier-to-noise ratio, which is what the FM discriminator actually sees.
///
/// The carrier level wobbles slowly (± `FADE_DB` at 0.02–0.08 Hz, from a
/// phase drawn per link) around the nominal RSSI — real signal strength is
/// never static — which is what turns the FM threshold into a band of
/// fluctuating frame loss (the paper's "between 2 and 15 %") instead of a
/// binary cliff.
#[derive(Debug, Clone)]
pub struct RfChannel {
    /// Noise standard deviation per quadrature, against the unit carrier.
    sigma: f32,
    key: u64,
    fade_hz: f64,
    fade_phase: f64,
    /// Absolute index of the next sample.
    next: u64,
}

impl RfChannel {
    /// Creates an RF channel at a given RSSI (dB).
    pub fn new(rssi_db: f64, seed: u64) -> Self {
        let key = key(seed, 0x5246_5F4E_4F49_5345);
        let noise_power = 10f64.powf((NOISE_FLOOR_DB - rssi_db) / 10.0);
        RfChannel {
            sigma: (noise_power / 2.0).sqrt() as f32,
            key,
            fade_hz: 0.02 + draw(key, 0, PARAM) * 0.06,
            fade_phase: draw(key, 1, PARAM) * TAU,
            next: 0,
        }
    }

    /// Applies the channel to FM complex baseband (unit envelope in, noisy
    /// unit-ish envelope out).
    ///
    /// A fade block at a time: its gain once, from the block's first
    /// absolute sample, then the faded carrier plus Box-Muller noise in one
    /// [`simd::vectorized`] call.
    pub fn transmit(&mut self, baseband: &[C32]) -> Vec<C32> {
        let mut out = vec![C32::ZERO; baseband.len()];
        for (b, r) in blocks(self.next, baseband.len(), BLOCK) {
            let t = (b * BLOCK) as f64 / crate::MPX_RATE;
            let fade_db = FADE_DB * (TAU * self.fade_hz * t + self.fade_phase).sin();
            simd::vectorized(Mix {
                first: self.next + r.start as u64,
                block: &baseband[r.clone()],
                gain: 10f32.powf(fade_db as f32 / 20.0),
                key: self.key,
                sigma: self.sigma,
                out: &mut out[r],
            });
        }
        self.next += baseband.len() as u64;
        out
    }
}

/// The RF channel over samples `first..`: the carrier at `gain` plus
/// `sigma` times each sample's Gaussian pair.
struct Mix<'a> {
    first: u64,
    block: &'a [C32],
    gain: f32,
    key: u64,
    sigma: f32,
    out: &'a mut [C32],
}

impl Block for Mix<'_> {
    #[inline(always)]
    fn run(self) {
        let Mix { first, block, gain, key, sigma, out } = self;
        for (k, (o, &x)) in out.iter_mut().zip(block).enumerate() {
            let (n1, n2) = gaussian(key, first.wrapping_add(k as u64));
            *o = x.scale(gain) + C32::new(n1 * sigma, n2 * sigma);
        }
    }
}

/// Ambient + microphone noise RMS (full band).
const NOISE_RMS: f32 = 0.0063;
/// Loudspeaker HF roll-off: cutoff in Hz at the reference 0.1 m …
const HF_CUTOFF_REF: f64 = 14_600.0;
/// … less this many Hz per metre (the speaker's directivity off-axis).
const HF_CUTOFF_SLOPE: f64 = 2_850.0;
/// Largest misalignment loss per link, in dB per metre of distance.
const MISALIGN_DB_PER_M: f64 = 3.0;
/// Early reflections inside the OFDM cyclic prefix (< 2.9 ms): delays in
/// samples (0.8 and 2.1 ms) and gains.
const ECHO1: usize = (0.0008 * crate::AUDIO_RATE) as usize;
const ECHO2: usize = (0.0021 * crate::AUDIO_RATE) as usize;
const E1: f32 = 0.22;
const E2: f32 = 0.10;
/// Impulse-burst slot: 0.12 s, each slot a burst of 4× noise with the
/// probability that makes 0.35 bursts a second.
const BURST_LEN: u64 = (0.12 * crate::AUDIO_RATE) as u64;
const BURST_P: f64 = 0.35 * BURST_LEN as f64 / crate::AUDIO_RATE;
/// Samples the acoustic fade holds for: 0.73 ms, over which a fade up to
/// 1.5 m deep (≤ 11 dB/s) moves < 0.01 dB.
const FADE_BLOCK: u64 = 32;

/// Speaker → air → microphone hop.
#[derive(Debug, Clone)]
pub struct AcousticChannel {
    /// Speaker-to-microphone distance in meters (0 disables the hop).
    distance_m: f64,
    key: u64,
    /// The loudspeaker's band with the link's gain folded into its taps.
    speaker: OverlapSave,
    /// The last [`ECHO2`] speaker outputs of the previous call.
    tail: Vec<f32>,
    fade_depth_db: f32,
    fade_hz: f64,
    fade_phase: f64,
    /// Absolute index of the next sample.
    next: u64,
}

impl AcousticChannel {
    /// Creates the acoustic hop at a given distance with the calibrated
    /// constants (see DESIGN.md §10 for the calibration targets).
    pub fn new(distance_m: f64, seed: u64) -> Self {
        let key = key(seed, 0x4143_4F55_5354_4943);
        let fs = crate::AUDIO_RATE;
        // Amplitude ∝ 1/d from the 0.1 m reference, less the link's
        // alignment jitter: users don't aim the phone.
        let nominal = (0.1 / distance_m.max(0.01)) as f32;
        let misalign_db = draw(key, 0, PARAM) * MISALIGN_DB_PER_M * distance_m;
        let gain = nominal * 10f32.powf(-(misalign_db as f32) / 20.0);
        // Loudspeaker band: HF cutoff shrinks with distance (directivity),
        // with per-link jitter; LF cutoff from the tiny driver.
        let jitter = (draw(key, 1, PARAM) - 0.5) * 800.0;
        let hf = (HF_CUTOFF_REF - HF_CUTOFF_SLOPE * distance_m + jitter).clamp(1_000.0, fs * 0.45);
        let taps: Vec<f32> = design_bandpass(201, 150.0 / fs, hf / fs)
            .iter()
            .map(|&t| t * gain)
            .collect();
        AcousticChannel {
            distance_m,
            key,
            speaker: OverlapSave::new(FirPlan::shared(&taps)),
            tail: vec![0.0; ECHO2],
            fade_depth_db: (0.8 + 2.2 * distance_m) as f32,
            fade_hz: 0.4 + draw(key, 2, PARAM) * 0.6,
            fade_phase: draw(key, 3, PARAM) * TAU,
            next: 0,
        }
    }

    /// Applies the hop to audio (44.1 kHz).
    ///
    /// Slow fading: a hand holding a phone over a radio is not static. A
    /// sinusoidal amplitude wobble (sub-Hz) whose depth grows with
    /// distance, plus occasional short ambient-noise bursts — this is what
    /// turns "marginal SNR" into *partial* frame loss instead of
    /// all-or-nothing transmissions.
    pub fn transmit(&mut self, audio: &[f32]) -> Vec<f32> {
        if self.distance_m <= 0.0 {
            return audio.to_vec();
        }
        // `heard[ECHO2 + k]` is the speaker's output for `audio[k]`.
        let mut heard = std::mem::take(&mut self.tail);
        self.speaker.process(audio, &mut heard);
        let mut out = Vec::with_capacity(audio.len());
        for (b, r) in blocks(self.next, audio.len(), FADE_BLOCK) {
            let t = (b * FADE_BLOCK) as f64 / crate::AUDIO_RATE;
            let wobble = (TAU * self.fade_hz * t + self.fade_phase).sin() as f32;
            // depth · (wobble − 1) / 2 dB, in [−depth, 0], as an amplitude.
            let fade = 10f32.powf(self.fade_depth_db * (wobble - 1.0) / 40.0);
            for k in r {
                let i = self.next + k as u64;
                let h = ECHO2 + k;
                let s = heard[h] + E1 * heard[h - ECHO1] + E2 * heard[h - ECHO2];
                let burst = draw(self.key, i / BURST_LEN, SLOT) < BURST_P;
                let (n, _) = gaussian(self.key, i);
                out.push(s * fade + NOISE_RMS * if burst { 4.0 } else { 1.0 } * n);
            }
        }
        self.tail = heard.split_off(heard.len() - ECHO2);
        self.next += audio.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn tone(n: usize, f: f64, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / crate::AUDIO_RATE).sin() as f32)
            .collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
    }

    fn bits(v: &[C32]) -> Vec<(u32, u32)> {
        v.iter().map(|x| (x.re.to_bits(), x.im.to_bits())).collect()
    }

    #[test]
    fn rf_noise_scales_with_rssi() {
        let carrier = vec![C32::new(1.0, 0.0); 20_000];
        let strong = RfChannel::new(-65.0, 1).transmit(&carrier);
        let weak = RfChannel::new(-95.0, 1).transmit(&carrier);
        let dev = |v: &[C32]| -> f32 {
            (v.iter().map(|x| (*x - C32::new(1.0, 0.0)).norm_sq()).sum::<f32>()
                / v.len() as f32)
                .sqrt()
        };
        let d_strong = dev(&strong);
        let d_weak = dev(&weak);
        // 30 dB RSSI difference ⇒ ~31.6× the noise amplitude; the slow
        // carrier fade adds a common floor to both, so just demand a
        // large gap dominated by the noise term.
        let ratio = d_weak / d_strong;
        assert!(ratio > 4.0, "ratio {ratio}");
        assert!(d_weak > 0.5, "weak channel must be noise-dominated: {d_weak}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Cut anywhere — inside a fade block, on its edge, into empty
        /// calls — the stream is the bits of one call.
        #[test]
        fn rf_stream_cut_anywhere_is_one_call(
            len in 0usize..3_500,
            cuts in proptest::collection::vec(0usize..3_500, 0..4),
            seed in any::<u64>(),
        ) {
            let x: Vec<C32> = (0..len)
                .map(|i| C32::new((i as f32 * 0.37).cos(), (i as f32 * 0.37).sin()))
                .collect();
            let whole = RfChannel::new(-86.0, seed).transmit(&x);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut channel = RfChannel::new(-86.0, seed);
            let mut pieces = Vec::new();
            let mut at = 0;
            for c in cuts.into_iter().chain([len]) {
                pieces.extend(channel.transmit(&x[at..c]));
                at = c;
            }
            prop_assert_eq!(bits(&pieces), bits(&whole));
        }
    }

    #[test]
    fn neighbouring_seeds_share_no_noise_sample() {
        // On a zero carrier the output is the noise alone; a sample is the
        // pair (re, im), so two independent draws repeat one with chance
        // ~1e-16.
        let noise = |seed| -> HashSet<(u32, u32)> {
            bits(&RfChannel::new(-80.0, seed).transmit(&vec![C32::ZERO; 1 << 16]))
                .into_iter()
                .collect()
        };
        for s in 1..=8u64 {
            let shared = noise(s).intersection(&noise(s + 1)).count();
            assert_eq!(shared, 0, "seeds {s} and {}", s + 1);
        }
    }

    #[test]
    fn fade_phases_spread_over_the_circle() {
        // Snippet 1's fader started every link at the same phase; here
        // seeds 1–64 land in every eighth of the turn.
        let mut octants = [0u32; 8];
        for seed in 1..=64 {
            let phase = RfChannel::new(-80.0, seed).fade_phase;
            assert!((0.0..TAU).contains(&phase));
            octants[(phase / TAU * 8.0) as usize] += 1;
        }
        assert!(octants.iter().all(|&n| n > 0), "{octants:?}");
    }

    #[test]
    fn acoustic_attenuates_with_distance() {
        let sig = tone(44_100, 9_200.0, 0.35);
        let r_near = rms(&AcousticChannel::new(0.1, 42).transmit(&sig));
        let r_far = rms(&AcousticChannel::new(1.0, 42).transmit(&sig));
        assert!(r_near > 2.0 * r_far, "near {r_near} far {r_far}");
    }

    #[test]
    fn acoustic_zero_distance_is_passthrough() {
        let sig = tone(500, 9200.0, 0.3);
        assert_eq!(AcousticChannel::new(0.0, 1).transmit(&sig), sig);
    }

    #[test]
    fn acoustic_noise_floor_present() {
        let silence = vec![0.0f32; 44_100];
        let out = AcousticChannel::new(0.5, 9).transmit(&silence);
        let r = rms(&out);
        assert!(r > 0.006 && r < 0.02, "noise rms {r}");
    }

    #[test]
    fn acoustic_hf_rolloff_grows_with_distance() {
        // A band-top tone (11.2 kHz) should fade faster than a band-bottom
        // tone (7.5 kHz) as distance pushes the speaker cutoff into the band.
        let hi = tone(44_100, 11_200.0, 0.35);
        let lo = tone(44_100, 7_500.0, 0.35);
        let g = |d: f64, s: &[f32], f: f64| {
            let out = AcousticChannel::new(d, 4).transmit(s);
            (sonic_dsp::goertzel::power(&out[2000..], crate::AUDIO_RATE, f)).sqrt()
        };
        let ratio_near = g(0.1, &hi, 11_200.0) / g(0.1, &lo, 7_500.0);
        let ratio_far = g(1.3, &hi, 11_200.0) / g(1.3, &lo, 7_500.0);
        assert!(
            ratio_far < ratio_near * 0.8,
            "near {ratio_near} far {ratio_far}"
        );
    }

    #[test]
    fn acoustic_is_deterministic_per_seed() {
        let sig = tone(4410, 9200.0, 0.35);
        let a = AcousticChannel::new(0.5, 123).transmit(&sig);
        let b = AcousticChannel::new(0.5, 123).transmit(&sig);
        assert_eq!(a, b);
    }

    #[test]
    fn acoustic_stream_continues_across_calls() {
        // Cut where the speaker's overlap-save frames hold the same samples
        // (two of its 824-sample blocks) the stream is the bits of one call.
        let sig = tone(6_000, 9200.0, 0.35);
        let whole = AcousticChannel::new(0.5, 7).transmit(&sig);
        let mut channel = AcousticChannel::new(0.5, 7);
        let mut pieces = channel.transmit(&sig[..1_648]);
        pieces.extend(channel.transmit(&sig[1_648..]));
        assert_eq!(pieces, whole);
    }
}
