//! Frequency modulation at complex baseband.
//!
//! The modulator integrates the composite signal into a phase and emits the
//! constant-envelope phasor `e^{jφ[n]}`; the demodulator is a quadrature
//! discriminator (`arg(x[n]·x*[n-1])`). Working at complex baseband (rather
//! than a real RF carrier) halves the sample rate for the same Carson
//! bandwidth while keeping the physics — including the threshold effect —
//! intact.
//!
//! Both directions work a block at a time, and each block is one
//! [`simd::vectorized`] call: the modulator's phasor conversion, and the
//! discriminator's two loops (`mul_conj_split`, then the polynomial
//! `atan2_scale`), are plain Rust loops compiled for AVX2 when the CPU has
//! it, with the same bits either way (DESIGN §11).

use crate::{FM_DEVIATION, MPX_RATE};
use sonic_dsp::math;
use sonic_dsp::simd::{self, Block};
use sonic_dsp::split::SplitC32;
use sonic_dsp::C32;
use std::f64::consts::TAU;

/// FM modulator: composite audio → unit-envelope complex baseband.
#[derive(Debug, Clone)]
pub struct FmModulator {
    /// Radians advanced per unit composite amplitude per sample.
    k: f64,
    phase: f64,
}

impl Default for FmModulator {
    fn default() -> Self {
        FmModulator::new(MPX_RATE, FM_DEVIATION)
    }
}

impl FmModulator {
    /// Creates a modulator for a composite rate and peak deviation.
    pub fn new(sample_rate: f64, deviation: f64) -> Self {
        FmModulator {
            k: TAU * deviation / sample_rate,
            phase: 0.0,
        }
    }

    /// Modulates a composite block (values nominally in [-1, 1]), appending
    /// complex baseband samples to `out`.
    ///
    /// A block at a time: the phase is integrated sample by sample into a
    /// scratch, then the block is converted to phasors by the branch-free
    /// [`math::sin_cos`], whose `f32` casts are libm's (`C32::from_angle`),
    /// in one [`simd::vectorized`] call.
    pub fn modulate_into(&mut self, composite: &[f32], out: &mut Vec<C32>) {
        let start = out.len();
        out.resize(start + composite.len(), C32::ZERO);
        let mut phases = [0.0f64; MOD_BLOCK];
        for (block, phasors) in composite.chunks(MOD_BLOCK).zip(out[start..].chunks_mut(MOD_BLOCK)) {
            for (p, &x) in phases.iter_mut().zip(block) {
                self.phase += self.k * x as f64;
                if self.phase > TAU {
                    self.phase -= TAU;
                } else if self.phase < -TAU {
                    self.phase += TAU;
                }
                *p = self.phase;
            }
            simd::vectorized(Phasors { phases: &phases, out: phasors });
        }
    }
}

/// The modulator's phasor conversion over one block: `out[i] = e^{j·phases[i]}`.
struct Phasors<'a> {
    phases: &'a [f64],
    out: &'a mut [C32],
}

impl Block for Phasors<'_> {
    #[inline(always)]
    fn run(self) {
        for (o, &p) in self.out.iter_mut().zip(self.phases) {
            let (sin, cos) = math::sin_cos(p);
            *o = C32::new(cos as f32, sin as f32);
        }
    }
}

/// Phases the modulator integrates before converting them to phasors.
const MOD_BLOCK: usize = 1_024;

/// Samples the discriminator's split-plane scratch holds.
const BLOCK: usize = 16_384;

/// FM demodulator: complex baseband → composite audio.
#[derive(Debug, Clone)]
pub struct FmDemodulator {
    inv_k: f64,
    prev: C32,
    /// Split-plane scratch for the quadrature products.
    scratch: SplitC32,
}

impl Default for FmDemodulator {
    fn default() -> Self {
        FmDemodulator::new(MPX_RATE, FM_DEVIATION)
    }
}

impl FmDemodulator {
    /// Creates a demodulator matching [`FmModulator::new`].
    pub fn new(sample_rate: f64, deviation: f64) -> Self {
        FmDemodulator {
            inv_k: sample_rate / (TAU * deviation),
            prev: C32::new(1.0, 0.0),
            scratch: SplitC32::new(),
        }
    }

    /// Demodulates a block, appending recovered composite samples to `out`.
    ///
    /// Fast path: the quadrature products `x[n]·x*[n-1]` go into a
    /// split-plane scratch buffer, then a polynomial `atan2` converts them
    /// to angles (error ≤ 1.2e-5 rad ≈ 6e-6 composite units — far below the
    /// discriminator's own noise floor). The libm-per-sample original is
    /// kept as [`FmDemodulator::demodulate_into_reference`].
    pub fn demodulate_into(&mut self, baseband: &[C32], out: &mut Vec<f32>) {
        let start = out.len();
        out.resize(start + baseband.len(), 0.0);
        self.scratch.resize(BLOCK.min(baseband.len()));
        // A block at a time, so the products stay in cache between the two
        // kernels and the scratch does not grow with the signal; `prev`
        // carries the discriminator across blocks as it does across calls.
        for (block, angles) in baseband.chunks(BLOCK).zip(out[start..].chunks_mut(BLOCK)) {
            let n = block.len();
            simd::vectorized(Discriminate {
                block,
                prev: self.prev,
                re: &mut self.scratch.re[..n],
                im: &mut self.scratch.im[..n],
                scale: self.inv_k as f32,
                out: angles,
            });
            self.prev = block[n - 1];
        }
    }

    /// Original per-sample discriminator using libm `atan2`; kept as the
    /// executable specification for [`FmDemodulator::demodulate_into`].
    pub fn demodulate_into_reference(&mut self, baseband: &[C32], out: &mut Vec<f32>) {
        for &x in baseband {
            let d = x.mul_conj(self.prev);
            self.prev = x;
            out.push((d.arg() as f64 * self.inv_k) as f32);
        }
    }
}

/// The discriminator over one block: the quadrature products of `block`
/// (its first against `prev`, the last sample of the block before) into the
/// split planes `re`, `im`, then their scaled angles into `out`. All slices
/// have the block's length.
struct Discriminate<'a> {
    block: &'a [C32],
    prev: C32,
    re: &'a mut [f32],
    im: &'a mut [f32],
    scale: f32,
    out: &'a mut [f32],
}

impl Block for Discriminate<'_> {
    #[inline(always)]
    fn run(self) {
        let Discriminate { block, prev, re, im, scale, out } = self;
        let n = block.len();
        let d0 = block[0].mul_conj(prev);
        re[0] = d0.re;
        im[0] = d0.im;
        mul_conj_split(&block[1..], &block[..n - 1], &mut re[1..], &mut im[1..]);
        atan2_scale(im, re, scale, out);
    }
}

/// Elementwise `a[i]·conj(b[i])` from interleaved inputs into split planes:
/// `(re, im) = (ar·br + ai·bi, ai·br − ar·bi)`, the arithmetic of
/// `C32::mul_conj`. All four slices have the same length.
#[inline(always)]
fn mul_conj_split(a: &[C32], b: &[C32], out_re: &mut [f32], out_im: &mut [f32]) {
    let n = a.len();
    let (b, out_re, out_im) = (&b[..n], &mut out_re[..n], &mut out_im[..n]);
    for i in 0..n {
        let (x, y) = (a[i], b[i]);
        out_re[i] = x.re * y.re + x.im * y.im;
        out_im[i] = x.im * y.re - x.re * y.im;
    }
}

/// Polynomial `atan` on `[-1, 1]` (Abramowitz & Stegun 4.4.49 form); its
/// maximum error evaluated in `f32` is 1.15e-5 rad, at |z| ≈ 0.395.
#[inline(always)]
fn fast_atan(z: f32) -> f32 {
    let z2 = z * z;
    z * (0.999_866 + z2 * (-0.330_299_5 + z2 * (0.180_141 + z2 * (-0.085_133 + 0.020_835_1 * z2))))
}

/// Branch-free `atan2` built on [`fast_atan`]; at most 1.17e-5 rad from
/// `f32::atan2` (`fast_atan2_tracks_libm_in_every_quadrant` holds it to
/// 1.2e-5 in all four quadrants and on the axes).
/// Returns 0 at the origin (the discriminator maps a dead carrier to
/// silence), and +π where libm returns −π (`y = −0`, `x < 0`): the same
/// angle.
#[inline(always)]
fn fast_atan2(y: f32, x: f32) -> f32 {
    use std::f32::consts::{FRAC_PI_2, PI};
    let ax = x.abs();
    let ay = y.abs();
    // Every `if` picks between values already computed (the origin's 0/0
    // is computed and dropped), so the block loop has no data-dependent
    // branch. Received FM has angles in every quadrant: the same arithmetic
    // with early-return branches ran 2–4× slower on `RfChannel` output at
    // −70 to −86 dB.
    let swap = ay > ax;
    let (num, den) = if swap { (ax, ay) } else { (ay, ax) };
    let p = fast_atan(num / den);
    let a = if swap { FRAC_PI_2 - p } else { p };
    let a = if x < 0.0 { PI - a } else { a };
    let a = if y < 0.0 { -a } else { a };
    if ax == 0.0 && ay == 0.0 {
        0.0
    } else {
        a
    }
}

/// `out[i] = fast_atan2(y[i], x[i]) · scale` over three equal-length planes.
#[inline(always)]
fn atan2_scale(y: &[f32], x: &[f32], scale: f32, out: &mut [f32]) {
    let n = y.len();
    let (x, out) = (&x[..n], &mut out[..n]);
    for i in 0..n {
        out[i] = fast_atan2(y[i], x[i]) * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / fs).sin() as f32)
            .collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
    }

    #[test]
    fn envelope_is_constant() {
        let mut m = FmModulator::default();
        let sig = tone(MPX_RATE, 9200.0, 10_000, 0.9);
        let mut bb = Vec::new();
        m.modulate_into(&sig, &mut bb);
        for v in &bb {
            assert!((v.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mod_demod_is_transparent() {
        let mut m = FmModulator::default();
        let mut d = FmDemodulator::default();
        let sig = tone(MPX_RATE, 5_000.0, 50_000, 0.7);
        let mut bb = Vec::new();
        m.modulate_into(&sig, &mut bb);
        let mut out = Vec::new();
        d.demodulate_into(&bb, &mut out);
        // Skip the first sample (discriminator warm-up), compare the rest.
        for (a, b) in sig.iter().zip(&out).skip(10) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn quiet_channel_demodulates_to_silence() {
        let mut m = FmModulator::default();
        let mut d = FmDemodulator::default();
        let mut bb = Vec::new();
        m.modulate_into(&vec![0.0; 5_000], &mut bb);
        let mut out = Vec::new();
        d.demodulate_into(&bb, &mut out);
        assert!(rms(&out[10..]) < 1e-4);
    }

    #[test]
    fn fast_discriminator_matches_reference() {
        // Noisy baseband exercises every quadrant of the atan2.
        let mut m = FmModulator::default();
        let sig = tone(MPX_RATE, 7_000.0, 30_000, 0.8);
        let mut bb = Vec::new();
        m.modulate_into(&sig, &mut bb);
        let mut x = 7u32;
        for v in bb.iter_mut() {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let n1 = ((x >> 16) as f32 / 32768.0) - 1.0;
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let n2 = ((x >> 16) as f32 / 32768.0) - 1.0;
            *v += C32::new(n1, n2).scale(0.4);
        }
        let mut fast = FmDemodulator::default();
        let mut refd = FmDemodulator::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        // Split feed checks the carried `prev` state too.
        fast.demodulate_into(&bb[..11_111], &mut a);
        fast.demodulate_into(&bb[11_111..], &mut a);
        refd.demodulate_into_reference(&bb, &mut b);
        assert_eq!(a.len(), b.len());
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 2e-4, "{u} vs {v}");
        }
    }

    #[test]
    fn fast_atan2_tracks_libm_in_every_quadrant() {
        use std::f32::consts::{FRAC_PI_2, PI};
        // Signed zeros: the origin is silence, and at y = −0, x < 0 the
        // polynomial says +π where libm says −π (one angle).
        for (y, x) in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)] {
            assert_eq!(fast_atan2(y, x), 0.0, "origin ({y}, {x})");
        }
        assert_eq!(fast_atan2(-0.0, -1.0), PI);
        assert_eq!(fast_atan2(0.0, -1.0), PI);
        assert_eq!(fast_atan2(-0.0, 1.0), 0.0);
        assert_eq!(fast_atan2(1.0, -0.0), FRAC_PI_2);
        assert_eq!(fast_atan2(-1.0, 0.0), -FRAC_PI_2);
        // A 401 × 401 grid over [−1, 1]² (both axes included) at three
        // magnitudes; the origin and y = −0 are the cases above.
        let mut worst = 0.0f32;
        for mag in [1e-20f32, 1.0, 1e20] {
            for i in -200..=200 {
                for j in -200..=200 {
                    let (y, x) = (mag * i as f32 / 200.0, mag * j as f32 / 200.0);
                    if y == 0.0 && x == 0.0 {
                        continue;
                    }
                    let err = (fast_atan2(y, x) - y.atan2(x)).abs();
                    assert!(err <= 1.2e-5, "atan2({y}, {x}): error {err} rad");
                    worst = worst.max(err);
                }
            }
        }
        // The grid reaches the polynomial's peak, so the bound is tight.
        assert!(worst > 1.1e-5, "worst error {worst} rad");
    }

    #[test]
    fn discriminator_blocks_do_not_show_in_the_output() {
        let mut bb = Vec::new();
        FmModulator::default().modulate_into(&tone(MPX_RATE, 3_000.0, 3 * BLOCK + 77, 0.6), &mut bb);
        let mut whole = Vec::new();
        FmDemodulator::default().demodulate_into(&bb, &mut whole);
        // Calls shorter than a block, cut nowhere near its multiples.
        let mut pieces = Vec::new();
        let mut d = FmDemodulator::default();
        for chunk in bb.chunks(1_001) {
            d.demodulate_into(chunk, &mut pieces);
        }
        assert_eq!(whole.len(), bb.len());
        assert!(whole.iter().zip(&pieces).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn strong_noise_breaks_demodulation() {
        // Below the FM threshold the discriminator produces clicks — the
        // recovered audio should be garbage, not a scaled copy.
        let mut m = FmModulator::default();
        let mut d = FmDemodulator::default();
        let sig = tone(MPX_RATE, 5_000.0, 20_000, 0.7);
        let mut bb = Vec::new();
        m.modulate_into(&sig, &mut bb);
        let mut x = 3u32;
        for v in bb.iter_mut() {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let n1 = ((x >> 16) as f32 / 32768.0) - 1.0;
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let n2 = ((x >> 16) as f32 / 32768.0) - 1.0;
            // Noise ~3 dB above the unit carrier.
            *v += C32::new(n1, n2).scale(1.2);
        }
        let mut out = Vec::new();
        d.demodulate_into(&bb, &mut out);
        let err: f32 = sig
            .iter()
            .zip(&out)
            .skip(10)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / (sig.len() - 10) as f32;
        assert!(err.sqrt() > 0.3, "residual too small: {}", err.sqrt());
    }
}
