//! Minimal single-precision complex number type.
//!
//! The whole SONIC signal chain works on `f32` samples with `f64` twiddle
//! generation, which keeps buffers half the size of an `f64` pipeline while
//! leaving ~100 dB of numeric headroom — far beyond the channel SNRs the
//! system ever sees.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f32` real and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl C32 {
    /// Zero.
    pub const ZERO: C32 = C32 { re: 0.0, im: 0.0 };
    /// One (multiplicative identity).
    pub const ONE: C32 = C32 { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const J: C32 = C32 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        C32 { re, im }
    }

    /// Creates a unit-magnitude complex number `e^{j·theta}`.
    ///
    /// The angle is taken in `f64` so that long phase accumulators do not
    /// lose precision before the final conversion.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        C32 {
            re: theta.cos() as f32,
            im: theta.sin() as f32,
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C32 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²` (avoids the square root of [`C32::abs`]).
    #[inline]
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f32) -> Self {
        C32 {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `self / |self|`, or zero for the zero input.
    #[inline]
    pub fn normalize(self) -> Self {
        let m = self.abs();
        if m > 0.0 {
            self.scale(1.0 / m)
        } else {
            C32::ZERO
        }
    }

    /// `self * other.conj()` — the correlation kernel used by sync detectors.
    #[inline]
    pub fn mul_conj(self, other: Self) -> Self {
        C32 {
            re: self.re * other.re + self.im * other.im,
            im: self.im * other.re - self.re * other.im,
        }
    }
}

impl Add for C32 {
    type Output = C32;
    #[inline]
    fn add(self, rhs: C32) -> C32 {
        C32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C32 {
    #[inline]
    fn add_assign(&mut self, rhs: C32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C32 {
    type Output = C32;
    #[inline]
    fn sub(self, rhs: C32) -> C32 {
        C32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for C32 {
    #[inline]
    fn sub_assign(&mut self, rhs: C32) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for C32 {
    type Output = C32;
    #[inline]
    fn mul(self, rhs: C32) -> C32 {
        C32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for C32 {
    #[inline]
    fn mul_assign(&mut self, rhs: C32) {
        *self = *self * rhs;
    }
}

impl Mul<f32> for C32 {
    type Output = C32;
    #[inline]
    fn mul(self, rhs: f32) -> C32 {
        self.scale(rhs)
    }
}

impl Div for C32 {
    type Output = C32;
    #[inline]
    fn div(self, rhs: C32) -> C32 {
        let d = rhs.norm_sq();
        C32::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f32> for C32 {
    type Output = C32;
    #[inline]
    fn div(self, rhs: f32) -> C32 {
        self.scale(1.0 / rhs)
    }
}

impl Neg for C32 {
    type Output = C32;
    #[inline]
    fn neg(self) -> C32 {
        C32::new(-self.re, -self.im)
    }
}

impl Sum for C32 {
    fn sum<I: Iterator<Item = C32>>(iter: I) -> C32 {
        iter.fold(C32::ZERO, |a, b| a + b)
    }
}

impl From<f32> for C32 {
    #[inline]
    fn from(re: f32) -> Self {
        C32::new(re, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C32, b: C32) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = C32::new(1.5, -2.25);
        let b = C32::new(-0.5, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = C32::new(2.0, 3.0);
        let b = C32::new(-1.0, 0.5);
        // (2+3j)(-1+0.5j) = -2 + 1j - 3j + 1.5 j² = -3.5 - 2j
        assert!(close(a * b, C32::new(-3.5, -2.0)));
    }

    #[test]
    fn div_inverts_mul() {
        let a = C32::new(0.7, -1.3);
        let b = C32::new(2.0, 0.25);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn conj_negates_imaginary() {
        assert_eq!(C32::new(1.0, 2.0).conj(), C32::new(1.0, -2.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = C32::from_angle(0.7).scale(2.0);
        assert!((z.abs() - 2.0).abs() < 1e-6);
        assert!((z.arg() - 0.7).abs() < 1e-6);
    }

    #[test]
    fn from_angle_is_unit() {
        for k in 0..16 {
            let z = C32::from_angle(k as f64 * 0.5);
            assert!((z.abs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mul_conj_matches() {
        let a = C32::new(1.0, 2.0);
        let b = C32::new(3.0, -4.0);
        assert!(close(a.mul_conj(b), a * b.conj()));
    }

    #[test]
    fn normalize_zero_is_zero() {
        assert_eq!(C32::ZERO.normalize(), C32::ZERO);
    }

    #[test]
    fn sum_accumulates() {
        let v = [C32::new(1.0, 1.0), C32::new(2.0, -1.0)];
        let s: C32 = v.iter().copied().sum();
        assert!(close(s, C32::new(3.0, 0.0)));
    }
}
