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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sonic_dsp::fir::{design_bandpass, Fir};
use sonic_dsp::math;
use sonic_dsp::simd::{self, Block};
use sonic_dsp::C32;
use std::f64::consts::TAU;

/// Draws Box-Muller's two uniforms: `u1` clamped away from zero, then `u2`.
fn uniforms(rng: &mut StdRng) -> (f64, f64) {
    (rng.random::<f64>().max(1e-12), rng.random())
}

/// A unit-variance Gaussian pair from Box-Muller's uniforms, with the
/// branch-free [`math`] kernels in place of libm (the same `f32`s).
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> (f32, f32) {
    let r = (-2.0 * math::ln(u1)).sqrt();
    let (sin, cos) = math::sin_cos(TAU * u2);
    ((r * cos) as f32, (r * sin) as f32)
}

/// Generates a unit-variance Gaussian pair via Box-Muller.
fn gaussian(rng: &mut StdRng) -> (f32, f32) {
    let (u1, u2) = uniforms(rng);
    box_muller(u1, u2)
}

/// Samples the RF channel draws and converts per block.
const BLOCK: usize = 1_024;

/// RF hop at complex baseband: attenuation is folded into the
/// carrier-to-noise ratio, which is what the FM discriminator actually sees.
#[derive(Debug, Clone)]
pub struct RfChannel {
    /// Received signal strength reported by the tuner (dB).
    pub rssi_db: f64,
    /// Receiver noise floor (dB, same scale as RSSI).
    pub noise_floor_db: f64,
    rng: StdRng,
}

impl RfChannel {
    /// Default noise floor. With it the FM threshold is a cliff one dB
    /// wide, as `benchmark/README.md` measures it at `trip_fm`'s input
    /// level: 0 % of bursts lost at −84 dB, 7 % at −84.5 dB, 50 % at
    /// −86 dB.
    pub const DEFAULT_NOISE_FLOOR_DB: f64 = -93.0;

    /// Creates an RF channel at a given RSSI.
    pub fn new(rssi_db: f64, seed: u64) -> Self {
        RfChannel {
            rssi_db,
            noise_floor_db: Self::DEFAULT_NOISE_FLOOR_DB,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Applies the channel to FM complex baseband (unit envelope in, noisy
    /// unit-ish envelope out).
    ///
    /// The carrier level wobbles slowly (±2 dB, sub-Hz) around the nominal
    /// RSSI — real signal strength is never static — which is what turns
    /// the FM threshold into the paper's "fluctuating frame loss rate
    /// between 2 and 15 %" band instead of a binary cliff.
    ///
    /// A block at a time: the uniforms are drawn in the per-sample order
    /// (`u1`, `u2` per sample, after the two fade parameters), then the fade
    /// and the Box-Muller noise are computed over the block with the
    /// [`math`] kernels, in one [`simd::vectorized`] call.
    ///
    /// # Panics
    /// Panics if `baseband` has 2³² samples or more (the fade's sample
    /// index is a `u32`, which vectorises where a `usize` does not).
    pub fn transmit(&mut self, baseband: &[C32]) -> Vec<C32> {
        assert!(
            u32::try_from(baseband.len()).is_ok(),
            "{} samples: the fade index is a u32",
            baseband.len()
        );
        // Keep the carrier at unit amplitude and scale the noise: only the
        // ratio matters to the discriminator.
        let noise_power = 10f64.powf((self.noise_floor_db - self.rssi_db) / 10.0);
        let sigma = (noise_power / 2.0).sqrt() as f32;
        let fade_hz = 0.02 + self.rng.random::<f64>() * 0.06;
        let fade_phase = self.rng.random::<f64>() * TAU;
        let mut out = vec![C32::ZERO; baseband.len()];
        let mut u = [(0.0f64, 0.0f64); BLOCK];
        let mut gain = [0.0f32; BLOCK];
        for (b, (block, noisy)) in baseband.chunks(BLOCK).zip(out.chunks_mut(BLOCK)).enumerate() {
            let n = block.len();
            for u in &mut u[..n] {
                *u = uniforms(&mut self.rng);
            }
            simd::vectorized(Mix {
                block,
                // Below 2³², asserted above.
                first: (b * BLOCK) as u32,
                u: &u[..n],
                fade_hz,
                fade_phase,
                sigma,
                gain: &mut gain[..n],
                out: noisy,
            });
        }
        out
    }
}

/// The RF channel over one block starting at sample `first`: the carrier's
/// slow fade (±3 dB at `fade_hz` from `fade_phase`) as a gain per sample
/// into the scratch `gain`, then the faded carrier plus Box-Muller noise of
/// the uniforms `u` into `out`. All slices have the block's length.
struct Mix<'a> {
    block: &'a [C32],
    first: u32,
    u: &'a [(f64, f64)],
    fade_hz: f64,
    fade_phase: f64,
    sigma: f32,
    gain: &'a mut [f32],
    out: &'a mut [C32],
}

impl Block for Mix<'_> {
    #[inline(always)]
    fn run(self) {
        let Mix { block, first, u, fade_hz, fade_phase, sigma, gain, out } = self;
        let fade_depth_db = 3.0f64;
        // A bounded range: its steps carry no overflow check even where
        // overflow checks are on, so the loop vectorises there too.
        let end = first + gain.len() as u32;
        for (g, i) in gain.iter_mut().zip(first..end) {
            let (sin, _) = math::sin_cos(TAU * fade_hz * f64::from(i) / crate::MPX_RATE + fade_phase);
            *g = (fade_depth_db * sin) as f32 / 20.0;
        }
        for g in gain.iter_mut() {
            *g = 10f32.powf(*g);
        }
        for ((o, &x), (&g, &(u1, u2))) in out.iter_mut().zip(block).zip(gain.iter().zip(u)) {
            let (n1, n2) = box_muller(u1, u2);
            *o = x.scale(g) + C32::new(n1 * sigma, n2 * sigma);
        }
    }
}

/// Speaker → air → microphone hop.
#[derive(Debug, Clone)]
pub struct AcousticChannel {
    /// Speaker-to-microphone distance in meters (0 disables the hop).
    pub distance_m: f64,
    /// Ambient + microphone noise RMS (full band).
    pub noise_rms: f32,
    /// Distance-gain exponent (amplitude ~ (0.1/d)^exponent).
    pub gain_exponent: f64,
    /// Loudspeaker HF roll-off: cutoff in Hz at the reference 0.1 m.
    pub hf_cutoff_ref: f64,
    /// Cutoff reduction per meter (speaker directivity off-axis).
    pub hf_cutoff_slope: f64,
    /// Max per-transmission misalignment loss in dB (grows with distance).
    pub misalign_db_per_m: f64,
    rng: StdRng,
}

impl AcousticChannel {
    /// Creates the acoustic hop at a given distance with the calibrated
    /// defaults (see DESIGN.md §10 for the calibration targets).
    pub fn new(distance_m: f64, seed: u64) -> Self {
        AcousticChannel {
            distance_m,
            noise_rms: 0.0063,
            gain_exponent: 1.0,
            hf_cutoff_ref: 14_600.0,
            hf_cutoff_slope: 2_850.0,
            misalign_db_per_m: 3.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Average amplitude gain at the configured distance.
    pub fn nominal_gain(&self) -> f32 {
        if self.distance_m <= 0.0 {
            return 1.0;
        }
        (0.1 / self.distance_m.max(0.01)).powf(self.gain_exponent) as f32
    }

    /// Applies the hop to audio (44.1 kHz).
    pub fn transmit(&mut self, audio: &[f32]) -> Vec<f32> {
        if self.distance_m <= 0.0 {
            return audio.to_vec();
        }
        let fs = crate::AUDIO_RATE;

        // Per-transmission alignment jitter: users don't aim the phone.
        let misalign_db = self.rng.random::<f64>() * self.misalign_db_per_m * self.distance_m;
        let gain = self.nominal_gain() * 10f32.powf(-(misalign_db as f32) / 20.0);

        // Loudspeaker band: HF cutoff shrinks with distance (directivity),
        // with per-transmission jitter; LF cutoff from the tiny driver.
        let jitter = (self.rng.random::<f64>() - 0.5) * 800.0;
        let hf = (self.hf_cutoff_ref - self.hf_cutoff_slope * self.distance_m + jitter)
            .clamp(1_000.0, fs * 0.45);
        let lf = 150.0;
        let mut speaker = Fir::new(design_bandpass(201, lf / fs, hf / fs));

        // Early reflections inside the OFDM cyclic prefix (< 2.9 ms).
        let echo1 = (0.0008 * fs) as usize;
        let echo2 = (0.0021 * fs) as usize;
        let (e1, e2) = (0.22f32, 0.10f32);

        let mut direct: Vec<f32> = audio.iter().map(|&x| x * gain).collect();
        speaker.process(&mut direct);

        // Slow fading: a hand holding a phone over a radio is not static.
        // Sinusoidal amplitude wobble (sub-Hz) whose depth grows with
        // distance, plus occasional short ambient-noise bursts — this is
        // what turns "marginal SNR" into *partial* frame loss instead of
        // all-or-nothing transmissions.
        let fade_depth_db = (0.8 + 2.2 * self.distance_m) as f32;
        let fade_hz = 0.4 + self.rng.random::<f64>() * 0.6;
        let fade_phase = self.rng.random::<f64>() * TAU;
        let burst_per_s = 0.35;
        let burst_len = (0.12 * fs) as usize;
        let mut burst_left = 0usize;

        let mut out = Vec::with_capacity(direct.len());
        for i in 0..direct.len() {
            let mut s = direct[i];
            if i >= echo1 {
                s += e1 * direct[i - echo1];
            }
            if i >= echo2 {
                s += e2 * direct[i - echo2];
            }
            let fade_db = fade_depth_db
                * ((TAU * fade_hz * i as f64 / fs + fade_phase).sin() as f32
                    - 1.0)
                / 2.0; // in [-depth, 0]
            s *= 10f32.powf(fade_db / 20.0);
            if burst_left == 0 && self.rng.random::<f64>() < burst_per_s / fs {
                burst_left = burst_len;
            }
            let noise_scale = if burst_left > 0 {
                burst_left -= 1;
                4.0
            } else {
                1.0
            };
            let (n, _) = gaussian(&mut self.rng);
            out.push(s + self.noise_rms * noise_scale * n);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, f: f64, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / crate::AUDIO_RATE).sin() as f32)
            .collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
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
        // ±3 dB carrier fade adds a common floor to both, so just demand a
        // large gap dominated by the noise term.
        let ratio = d_weak / d_strong;
        assert!(ratio > 4.0, "ratio {ratio}");
        assert!(d_weak > 0.5, "weak channel must be noise-dominated: {d_weak}");
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
}
