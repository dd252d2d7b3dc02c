//! Branch-free `f64` sine/cosine and natural logarithm for block loops.
//!
//! libm's `sin`, `cos` and `ln` are calls the compiler cannot vectorise, and
//! the FM hop makes one or two of them per 228 kHz sample (the modulator's
//! phasor, the RF channel's Box-Muller noise). These are the classic fdlibm
//! algorithms — Cody-Waite reduction by π/2 with a compensated three-part
//! constant, then the `__kernel_sin` / `__kernel_cos` polynomials; for the
//! logarithm the `e_log` reduction to `[√2/2, √2]` and its `Lg1..Lg7`
//! polynomial — written with selects instead of branches and plain `*` / `+`
//! (never `mul_add`), so a loop over a slice vectorises and every backend
//! gives the same bits.
//!
//! Both stay within one ulp of libm (the tests in `sonic-radio` bound
//! them on the inputs the FM hop draws), which is far inside one `f32` ulp:
//! cast to `f32`, as every caller does, they give libm's bits.

// The constants are fdlibm's, digit for digit as published.
#![allow(clippy::excessive_precision)]

/// `2/π`.
const INV_PIO2: f64 = std::f64::consts::FRAC_2_PI;
/// `1.5 · 2⁵²`: adding it rounds an `f64` below 2⁵¹ to the nearest integer,
/// which then sits in the low bits of the sum.
const TOINT: f64 = 1.5 / f64::EPSILON;
/// The first 33 bits of π/2.
const PIO2_1: f64 = 1.570_796_326_734_125_614_17e+00;
/// The next 33 bits of π/2.
const PIO2_2: f64 = 6.077_100_506_303_965_976_60e-11;
/// π/2 − `PIO2_1` − `PIO2_2`.
const PIO2_2T: f64 = 2.022_266_248_795_950_631_54e-21;

/// The sine polynomial's coefficients on `[−π/4, π/4]`.
const S1: f64 = -1.666_666_666_666_663_243_48e-01;
const S2: f64 = 8.333_333_333_322_489_461_24e-03;
const S3: f64 = -1.984_126_982_985_794_931_34e-04;
const S4: f64 = 2.755_731_370_707_006_767_89e-06;
const S5: f64 = -2.505_076_025_340_686_341_95e-08;
const S6: f64 = 1.589_690_995_211_550_102_21e-10;

/// The cosine polynomial's coefficients on `[−π/4, π/4]`.
const C1: f64 = 4.166_666_666_666_660_190_37e-02;
const C2: f64 = -1.388_888_888_887_410_957_49e-03;
const C3: f64 = 2.480_158_728_947_672_941_78e-05;
const C4: f64 = -2.755_731_435_139_066_330_35e-07;
const C5: f64 = 2.087_572_321_298_174_827_90e-09;
const C6: f64 = -1.135_964_755_778_819_482_65e-11;

/// `(sin x, cos x)` for `|x| < 2¹⁹`.
///
/// `x = n·π/2 + y` with `n` the nearest integer to `x·2/π` and `y` carried as
/// a head and a tail (`|y| ≤ π/4`); the quadrant `n mod 4` then swaps and
/// negates the two polynomials. Outside the domain the reduction loses
/// bits; nothing in the stack gets near it.
#[inline(always)]
pub fn sin_cos(x: f64) -> (f64, f64) {
    let shifted = x * INV_PIO2 + TOINT;
    let quadrant = shifted.to_bits();
    let n = shifted - TOINT;
    // n·PIO2_1 and n·PIO2_2 are exact (33-bit constants, |n| < 2²⁰); the
    // tail of the second subtraction is recovered exactly.
    let r = x - n * PIO2_1;
    let w = n * PIO2_2;
    let head = r - w;
    let w = n * PIO2_2T - ((r - head) - w);
    let y = head - w;
    let y_tail = (head - y) - w;

    let z = y * y;
    let z2 = z * z;
    let v = z * y;
    let rs = S2 + z * (S3 + z * S4) + z * z2 * (S5 + z * S6);
    let sin_y = y - ((z * (0.5 * y_tail - v * rs) - y_tail) - v * S1);
    let rc = z * (C1 + z * (C2 + z * C3)) + z2 * z2 * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus_hz = 1.0 - hz;
    let cos_y = one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * rc - y * y_tail));

    // Quadrant n: sin x = (sin y, cos y, −sin y, −cos y)[n mod 4], and cos x
    // is the same table one quadrant on.
    let swap = quadrant & 1 == 1;
    let (s, c) = if swap { (cos_y, sin_y) } else { (sin_y, cos_y) };
    let sin_sign = (quadrant & 2) << 62;
    let cos_sign = (quadrant.wrapping_add(1) & 2) << 62;
    (
        f64::from_bits(s.to_bits() ^ sin_sign),
        f64::from_bits(c.to_bits() ^ cos_sign),
    )
}

/// `ln 2` in two parts: the head has enough trailing zeros that `k·LN2_HI`
/// is exact for every exponent `k`.
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;

/// The logarithm polynomial's coefficients in `s² = (f / (2 + f))²`.
const LG1: f64 = 6.666_666_666_666_735_130e-01;
const LG2: f64 = 3.999_999_999_940_941_908e-01;
const LG3: f64 = 2.857_142_874_366_239_149e-01;
const LG4: f64 = 2.222_219_843_214_978_396e-01;
const LG5: f64 = 1.818_357_216_161_805_012e-01;
const LG6: f64 = 1.531_383_769_920_937_332e-01;
const LG7: f64 = 1.479_819_860_511_658_591e-01;

/// `ln x` for positive normal `x` (subnormals, zero, infinities and NaN are
/// outside the domain and give garbage, not a panic).
///
/// `x = 2ᵏ·(1 + f)` with `1 + f` in `[√2/2, √2)`, then
/// `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))` with `s = f / (2 + f)`.
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    // The high word, moved so that its exponent field counts from √2/2.
    let hx = ((bits >> 32) as u32).wrapping_add(0x3ff0_0000 - 0x3fe6_a09e);
    let k = (hx >> 20) as i32 - 0x3ff;
    let hx = (hx & 0x000f_ffff) + 0x3fe6_a09e;
    let m = f64::from_bits(((hx as u64) << 32) | (bits & 0xffff_ffff));

    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let dk = k as f64;
    s * (hfsq + (t2 + t1)) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn exact_points() {
        assert_eq!(sin_cos(0.0), (0.0, 1.0));
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(2.0), std::f64::consts::LN_2);
        for x in [FRAC_PI_2, PI, TAU, -TAU, 1e-300, 3.0, -7.5] {
            let (s, c) = sin_cos(x);
            assert!((s - x.sin()).abs() <= 4e-16, "sin {x}");
            assert!((c - x.cos()).abs() <= 4e-16, "cos {x}");
        }
    }
}
