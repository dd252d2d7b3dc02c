//! Interleaved iterative Cooley-Tukey FFT: radix-2 forward, radix-4 inverse.
//!
//! [`Fft`] has exactly two roles. Its [`inverse`](Fft::inverse) is the
//! transmit IFFT: one per OFDM symbol, radix-4 at the profiles' 1024 points.
//! Its [`forward`](Fft::forward) is the scalar oracle the planned
//! split-plane transform ([`crate::plan::FftPlan::forward_split`], which
//! does the receive and overlap-save work) is tested bit-identical against.
//!
//! The two are not folded into one: `FftPlan`'s inverse is radix-2, and
//! airing it instead of the radix-4 one moves the transmitted audio in the
//! last ulp — enough to change which bursts a marginal FM hop loses (on the
//! benchmark's `trip_fm` at seed 1: 11.31 → 11.17 s of air per page, 1.400
//! → 1.367 SMS per page). Same bits on air outranks one fewer type.
//!
//! The plan (permutations + twiddle table) is computed once in [`Fft::new`]
//! and reused. Sizes must be powers of two.

use crate::complex::C32;

/// A reusable FFT plan for a fixed power-of-two size.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Twiddles for the forward transform: `e^{-2πjk/n}` for `k < n/2`.
    twiddles: Vec<C32>,
    /// Conjugated twiddles for the inverse transform. Precomputing them
    /// keeps the butterfly inner loop branch-free; `conj` is exact, so the
    /// arithmetic is bit-identical to conjugating on the fly.
    inv_twiddles: Vec<C32>,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Base-4 digit-reversal permutation indices for the radix-4 inverse.
    /// Empty when `log2(n)` is odd (the inverse then runs radix-2).
    rev4: Vec<u32>,
}

impl Fft {
    /// Builds a plan for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "FFT size must be a power of two >= 2, got {n}");
        let mut twiddles = Vec::with_capacity(n / 2);
        for k in 0..n / 2 {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            twiddles.push(C32::from_angle(theta));
        }
        let inv_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let rev4 = if bits.is_multiple_of(2) {
            (0..n)
                .map(|i| digit4_reverse(i, bits / 2) as u32)
                .collect()
        } else {
            Vec::new()
        };
        Fft {
            n,
            twiddles,
            inv_twiddles,
            rev,
            rev4,
        }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; plans are at least 2 points. Present for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT: `X[k] = Σ x[t]·e^{-2πjkt/n}` (no scaling).
    ///
    /// # Panics
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [C32]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place inverse DFT, scaled by `1/n` so `inverse(forward(x)) == x`.
    ///
    /// Power-of-4 sizes (including the 1024-point OFDM transform) take the
    /// radix-4 path, which does ~25% fewer complex multiplies per pass.
    ///
    /// # Panics
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [C32]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        let log2 = self.n.trailing_zeros();
        if log2.is_multiple_of(2) {
            self.permute4(buf);
            self.inverse_radix4_butterflies(buf);
        } else {
            self.permute(buf);
            self.butterflies(buf, true);
        }
        let k = 1.0 / self.n as f32;
        for v in buf.iter_mut() {
            *v = v.scale(k);
        }
    }

    fn permute(&self, buf: &mut [C32]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    fn butterflies(&self, buf: &mut [C32], inverse: bool) {
        let n = self.n;
        let tw = if inverse {
            &self.inv_twiddles
        } else {
            &self.twiddles
        };
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                // Split at the block boundary so the two butterfly halves
                // index disjoint slices without bounds checks in the loop.
                let (lo, hi) = buf[start..start + len].split_at_mut(half);
                for (k, (a_ref, b_ref)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let w = tw[k * stride];
                    let a = *a_ref;
                    let b = *b_ref * w;
                    *a_ref = a + b;
                    *b_ref = a - b;
                }
            }
            len <<= 1;
        }
    }

    /// Base-4 digit reversal permutation (= bit reversal of digit pairs).
    fn permute4(&self, buf: &mut [C32]) {
        debug_assert_eq!(self.rev4.len(), self.n);
        for i in 0..self.n {
            let j = self.rev4[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    /// Inverse radix-4 butterflies: each pass merges two radix-2 stages and
    /// trades one complex multiply for the "free" rotation `+j·(b − d)`
    /// (`W_4^{-1} = +j`), so its rounding differs slightly from radix-2.
    fn inverse_radix4_butterflies(&self, buf: &mut [C32]) {
        let n = self.n;
        let tw = &self.inv_twiddles;

        // First stage (len = 4): every twiddle is unity, so skip the
        // multiplies entirely.
        for chunk in buf.chunks_exact_mut(4) {
            let (a, b, c, d) = (chunk[0], chunk[1], chunk[2], chunk[3]);
            let ac_p = a + c;
            let ac_m = a - c;
            let bd_p = b + d;
            let t = b - d;
            let bd_rot = C32::new(-t.im, t.re);
            chunk[0] = ac_p + bd_p;
            chunk[1] = ac_m + bd_rot;
            chunk[2] = ac_p - bd_p;
            chunk[3] = ac_m - bd_rot;
        }

        let mut len = 16;
        while len <= n {
            let quarter = len / 4;
            let stride = n / len;
            for chunk in buf.chunks_exact_mut(len) {
                // Split the block into its four quarters so the inner loop
                // indexes each without bounds checks.
                let (q0, rest) = chunk.split_at_mut(quarter);
                let (q1, rest) = rest.split_at_mut(quarter);
                let (q2, q3) = rest.split_at_mut(quarter);
                for k in 0..quarter {
                    let w1 = tw[k * stride];
                    // w2/w3 via table lookups (k*stride*2 < n/2 holds because
                    // len ≥ 4 ⇒ quarter*stride*2 = n/2 ⇒ k*stride*2 < n/2).
                    let w2 = tw[k * stride * 2];
                    let w3 = w1 * w2;
                    let a = q0[k];
                    let b = q1[k] * w1;
                    let c = q2[k] * w2;
                    let d = q3[k] * w3;
                    let ac_p = a + c;
                    let ac_m = a - c;
                    let bd_p = b + d;
                    let t = b - d;
                    let bd_rot = C32::new(-t.im, t.re);
                    q0[k] = ac_p + bd_p;
                    q1[k] = ac_m + bd_rot;
                    q2[k] = ac_p - bd_p;
                    q3[k] = ac_m - bd_rot;
                }
            }
            len <<= 2;
        }
    }
}

/// Reverses `digits` base-4 digits of `i`.
fn digit4_reverse(i: usize, digits: u32) -> usize {
    let mut x = i;
    let mut r = 0usize;
    for _ in 0..digits {
        r = (r << 2) | (x & 3);
        x >>= 2;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[C32]) -> Vec<C32> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = C32::ZERO;
                for (t, &v) in x.iter().enumerate() {
                    let theta = -2.0 * std::f64::consts::PI * (k * t % n) as f64 / n as f64;
                    acc += v * C32::from_angle(theta);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft_16() {
        let x: Vec<C32> = (0..16)
            .map(|i| C32::new((i as f32 * 0.37).sin(), (i as f32 * 0.91).cos()))
            .collect();
        let want = naive_dft(&x);
        let fft = Fft::new(16);
        let mut got = x.clone();
        fft.forward(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-4, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn roundtrip_1024() {
        let fft = Fft::new(1024);
        let x: Vec<C32> = (0..1024)
            .map(|i| C32::new((i as f32 * 0.01).sin(), (i as f32 * 0.02).cos()))
            .collect();
        let mut buf = x.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-4);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let fft = Fft::new(64);
        let mut buf = vec![C32::ZERO; 64];
        buf[0] = C32::ONE;
        fft.forward(&mut buf);
        for v in &buf {
            assert!((*v - C32::ONE).abs() < 1e-5);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 256;
        let k0 = 19;
        let fft = Fft::new(n);
        let mut buf: Vec<C32> = (0..n)
            .map(|t| C32::from_angle(2.0 * std::f64::consts::PI * k0 as f64 * t as f64 / n as f64))
            .collect();
        fft.forward(&mut buf);
        for (k, v) in buf.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f32).abs() < 1e-2);
            } else {
                assert!(v.abs() < 1e-2, "leak at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let fft = Fft::new(n);
        let x: Vec<C32> = (0..n).map(|i| C32::new((i as f32).sin(), 0.3)).collect();
        let time: f32 = x.iter().map(|v| v.norm_sq()).sum();
        let mut buf = x;
        fft.forward(&mut buf);
        let freq: f32 = buf.iter().map(|v| v.norm_sq()).sum::<f32>() / n as f32;
        assert!((time - freq).abs() / time < 1e-4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(100);
    }

    #[test]
    fn inverse_radix4_matches_conjugate_identity() {
        // inverse(x) == conj(forward(conj(x)))/n; the right side runs the
        // (radix-2) forward path, checking the radix-4 inverse butterflies.
        for n in [16usize, 64, 1024] {
            let x: Vec<C32> = (0..n)
                .map(|i| C32::new((i as f32 * 0.17).cos(), (i as f32 * 0.29).sin()))
                .collect();
            let fft = Fft::new(n);
            let mut got = x.clone();
            fft.inverse(&mut got);
            let mut want: Vec<C32> = x.iter().map(|v| v.conj()).collect();
            fft.forward(&mut want);
            let scale = (n as f32).sqrt();
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                let w = w.conj().scale(1.0 / n as f32);
                assert!((*g - w).abs() < 1e-4 * scale, "n={n} bin {k}: {g:?} vs {w:?}");
            }
        }
    }
}
