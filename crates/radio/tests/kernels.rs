//! The FM hop's branch-free kernels (`sonic_dsp::math`) against libm, on the
//! inputs the hop feeds them.
//!
//! Every caller casts to `f32`, and there the kernels must give libm's bits:
//! that is what keeps the modulator's and the channels' outputs (and the
//! golden digests of them) where they were. In `f64` they are held to a
//! stated bound in ulps of libm's result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sonic_dsp::math::{ln, sin_cos};
use sonic_radio::faults::{mix, unit_f64};
use std::f64::consts::TAU;

/// Inputs drawn per case.
const DRAWS: usize = 1_000_000;

/// Largest `f64` error allowed against libm, in ulps of libm's result.
const MAX_ULPS: f64 = 1.0;

/// `|got − want|` in units of the spacing of `f64`s at `want`.
fn ulps(got: f64, want: f64) -> f64 {
    let spacing = f64::from_bits(want.abs().to_bits() + 1) - want.abs();
    (got - want).abs() / spacing
}

/// Worst `f64` error seen, and where.
#[derive(Default)]
struct Worst {
    ulps: f64,
    at: f64,
}

impl Worst {
    fn note(&mut self, got: f64, want: f64, at: f64) {
        let e = ulps(got, want);
        if e > self.ulps {
            *self = Worst { ulps: e, at };
        }
    }

    fn check(&self, what: &str) {
        assert!(
            self.ulps <= MAX_ULPS,
            "{what}: {} ulps at {:e}",
            self.ulps,
            self.at
        );
    }
}

/// Checks one angle: both casts to `f32` are libm's, both `f64`s within the
/// bound (noted in `worst`).
fn angle(x: f64, worst: &mut Worst) {
    let (s, c) = sin_cos(x);
    let (ws, wc) = (x.sin(), x.cos());
    assert_eq!(
        (s as f32).to_bits(),
        (ws as f32).to_bits(),
        "sin({x:e}) as f32"
    );
    assert_eq!(
        (c as f32).to_bits(),
        (wc as f32).to_bits(),
        "cos({x:e}) as f32"
    );
    worst.note(s, ws, x);
    worst.note(c, wc, x);
}

/// Box-Muller as the RF and acoustic channels compute it, once with the
/// kernels and once with libm: the two `f32` pairs must be the same bits.
fn box_muller(u1: f64, u2: f64, worst_ln: &mut Worst, worst_angle: &mut Worst) {
    let th = TAU * u2;
    let l = ln(u1);
    worst_ln.note(l, u1.ln(), u1);
    let (s, c) = sin_cos(th);
    worst_angle.note(s, th.sin(), th);
    worst_angle.note(c, th.cos(), th);
    let r = (-2.0 * l).sqrt();
    let want_r = (-2.0 * u1.ln()).sqrt();
    let got = ((r * c) as f32, (r * s) as f32);
    let want = ((want_r * th.cos()) as f32, (want_r * th.sin()) as f32);
    assert_eq!(
        (got.0.to_bits(), got.1.to_bits()),
        (want.0.to_bits(), want.1.to_bits()),
        "gaussian(u1 = {u1:e}, u2 = {u2:e})"
    );
}

#[test]
fn box_muller_noise_is_libms_bits() {
    let (mut worst_ln, mut worst_angle) = (Worst::default(), Worst::default());
    // Drawn as `RfChannel::transmit` draws them: SplitMix64 of a hashed key
    // and the counter `i << 2 | lane`, lanes 0 and 1 for sample `i`'s `u1`
    // (taken as `1 − u`, in (0, 1]) and `u2`.
    let key = mix(0x5EED);
    let uniform = |i: u64, lane: u64| unit_f64(mix(key ^ (i << 2 | lane)));
    for i in 0..DRAWS as u64 {
        box_muller(1.0 - uniform(i, 0), uniform(i, 1), &mut worst_ln, &mut worst_angle);
    }
    // The smallest `u1`, one, the largest uniform below one, a zero angle
    // and every eighth turn.
    let top = 1.0 - f64::EPSILON / 2.0;
    for u1 in [f64::EPSILON / 2.0, 0.5, top, 1.0] {
        for k in 0..8 {
            let u2 = k as f64 / 8.0;
            box_muller(u1, u2, &mut worst_ln, &mut worst_angle);
            box_muller(
                u1,
                f64::from_bits(u2.to_bits() + 1),
                &mut worst_ln,
                &mut worst_angle,
            );
        }
        box_muller(u1, top, &mut worst_ln, &mut worst_angle);
    }
    worst_ln.check("ln");
    worst_angle.check("sin/cos of TAU·u2");
}

#[test]
fn modulator_phasors_are_libms_bits() {
    let mut worst = Worst::default();
    // Integrated as `FmModulator::modulate_into` integrates them: full-scale
    // composite at the broadcast deviation, wrapped at ±TAU.
    let k = TAU * sonic_radio::FM_DEVIATION / sonic_radio::MPX_RATE;
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let mut phase = 0.0f64;
    for _ in 0..DRAWS {
        let x = (rng.random::<f64>() * 2.0 - 1.0) as f32;
        phase += k * x as f64;
        if phase > TAU {
            phase -= TAU;
        } else if phase < -TAU {
            phase += TAU;
        }
        angle(phase, &mut worst);
    }
    // Zero, ±TAU and every eighth turn in between, with their neighbours.
    for k in -8..=8 {
        let x = TAU * k as f64 / 8.0;
        for x in [
            x,
            f64::from_bits(x.to_bits() + 1),
            f64::from_bits(x.to_bits().wrapping_sub(1)),
        ] {
            if x.is_finite() {
                angle(x, &mut worst);
            }
        }
    }
    angle(-0.0, &mut worst);
    worst.check("modulator phase");
}
