//! Planned transforms over structure-of-arrays buffers.
//!
//! [`FftPlan`] is the stack's one FFT: the transmitter's per-symbol inverse,
//! the receiver's per-symbol forward transform and the overlap-save frames.
//! The bit-reversal permutation and **per-stage contiguous twiddle tables**
//! (each twiddle evaluated from an `f64` angle) are computed once. Every
//! butterfly span of every stage is the plain scalar `butterfly_radix2`
//! below: stages 1–3, whose spans are 1, 2 and 4 butterflies long, run it as
//! one loop over their blocks at a constant length, and every later block is
//! one call of it. It is held to a direct `f64` DFT within a stated error
//! bound at every size from 2 to 2 048 points.
//!
//! The transmitter's symbols have 96 non-zero bins in 1 024. For such input,
//! [`FftPlan::inverse_sparse_unscaled`] takes the spectrum already written at
//! its bins' bit-reversed positions ([`SparseBins`]), so there is no
//! permutation pass, and it runs only the stage 1–3 blocks that a bin
//! reaches: a block whose inputs are all +0 outputs +0, so skipping it is
//! exact, and the output is [`FftPlan::inverse_split`]'s to the bit, before
//! the `1/n`.
//!
//! The butterfly and the overlap-save spectrum multiply (`cmul_in_place`) are
//! plain loops over equal-length split planes: a vector path for either moved
//! no benchmark workload (DESIGN §11).
//!
//! [`FirPlan`] is the shareable, immutable half of an overlap-save FIR: the
//! FFT plan plus the tap spectrum. Streaming state (history tail, frame
//! scratch) lives in [`crate::fir::OverlapSave`], so one plan can be cloned
//! behind an `Arc` across many receivers — the shape needed to demodulate
//! many simulated receivers per tick without re-planning.

use crate::complex::C32;
use crate::split::SplitC32;
use std::sync::Arc;

/// A reusable split-plane FFT plan for a fixed power-of-two size.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Per-stage contiguous forward twiddles; stage `s` (block length
    /// `2^{s+1}`) occupies `stage_off[s] .. stage_off[s] + 2^s`.
    fwd_re: Vec<f32>,
    fwd_im: Vec<f32>,
    /// Conjugated twiddles for the inverse transform.
    inv_re: Vec<f32>,
    inv_im: Vec<f32>,
    stage_off: Vec<usize>,
}

impl FftPlan {
    /// Builds a plan for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "FFT size must be a power of two >= 2, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect();
        let mut fwd_re = Vec::with_capacity(n - 1);
        let mut fwd_im = Vec::with_capacity(n - 1);
        let mut stage_off = Vec::with_capacity(bits as usize);
        let mut len = 2usize;
        while len <= n {
            stage_off.push(fwd_re.len());
            for k in 0..len / 2 {
                let theta = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                let w = C32::from_angle(theta);
                fwd_re.push(w.re);
                fwd_im.push(w.im);
            }
            len <<= 1;
        }
        let inv_re = fwd_re.clone();
        let inv_im = fwd_im.iter().map(|v| -v).collect();
        FftPlan {
            n,
            rev,
            fwd_re,
            fwd_im,
            inv_re,
            inv_im,
            stage_off,
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

    fn permute(&self, re: &mut [f32], im: &mut [f32]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
    }

    /// Every stage of the transform on planes already in bit-reversed order.
    ///
    /// Stages 1–3 (half-blocks of 1, 2 and 4) run as one loop over their
    /// blocks, each block the butterfly span at a constant length; with
    /// `sparse`, only the blocks its lists name. Later stages are one
    /// `butterfly_radix2` call per block.
    fn butterflies(&self, re: &mut [f32], im: &mut [f32], inverse: bool, sparse: Option<&SparseBins>) {
        let (tw_re, tw_im) = if inverse {
            (&self.inv_re, &self.inv_im)
        } else {
            (&self.fwd_re, &self.fwd_im)
        };
        for (s, &off) in self.stage_off.iter().enumerate() {
            let half = 1usize << s;
            let (wr, wi) = (&tw_re[off..off + half], &tw_im[off..off + half]);
            let live = sparse.and_then(|sp| sp.live.get(s)).map(Vec::as_slice);
            match half {
                1 => small_stage::<1>(re, im, wr, wi, live),
                2 => small_stage::<2>(re, im, wr, wi, live),
                4 => small_stage::<4>(re, im, wr, wi, live),
                _ => {
                    for (blk_re, blk_im) in re.chunks_exact_mut(2 * half).zip(im.chunks_exact_mut(2 * half)) {
                        let (a_re, b_re) = blk_re.split_at_mut(half);
                        let (a_im, b_im) = blk_im.split_at_mut(half);
                        butterfly_radix2(a_re, a_im, b_re, b_im, wr, wi);
                    }
                }
            }
        }
    }

    /// The blocks of stages 1–3 that input on `bins` reaches, and where
    /// those bins sit after the bit-reversal permutation: the plan of
    /// [`inverse_sparse_unscaled`](Self::inverse_sparse_unscaled) for every
    /// input that is zero off `bins`.
    ///
    /// # Panics
    /// Panics if a bin is not below [`len`](Self::len).
    pub fn sparse_bins(&self, bins: &[usize]) -> SparseBins {
        let pos: Vec<u32> = bins.iter().map(|&b| self.rev[b]).collect();
        let live = std::array::from_fn(|s| {
            let mut blocks: Vec<u32> = pos.iter().map(|&p| p >> (s + 1)).collect();
            blocks.sort_unstable();
            blocks.dedup();
            blocks
        });
        SparseBins { n: self.n, pos, live }
    }

    /// In-place forward DFT on split planes: `X[k] = Σ x[t]·e^{-2πjkt/n}` (no
    /// scaling).
    ///
    /// # Panics
    /// Panics if the planes are not exactly `len()` samples.
    pub fn forward_split(&self, re: &mut [f32], im: &mut [f32]) {
        assert!(
            re.len() == self.n && im.len() == self.n,
            "plane length must equal FFT size"
        );
        self.permute(re, im);
        self.butterflies(re, im, false, None);
    }

    /// In-place inverse DFT on split planes, scaled by `1/n` so that
    /// `inverse_split(forward_split(x)) == x` up to rounding.
    ///
    /// # Panics
    /// Panics if the planes are not exactly `len()` samples.
    pub fn inverse_split(&self, re: &mut [f32], im: &mut [f32]) {
        assert!(
            re.len() == self.n && im.len() == self.n,
            "plane length must equal FFT size"
        );
        self.permute(re, im);
        self.butterflies(re, im, true, None);
        let k = 1.0 / self.n as f32;
        for v in re.iter_mut() {
            *v *= k;
        }
        for v in im.iter_mut() {
            *v *= k;
        }
    }

    /// The inverse transform of input that the caller has written at its
    /// bins' bit-reversed positions ([`SparseBins::positions`]), every other
    /// sample +0, *without* the `1/n` scale: [`inverse_split`] of the same
    /// spectrum is this output times `1/n`, to the bit.
    ///
    /// There is no permutation pass, and the stage 1–3 blocks that no bin
    /// reaches are skipped: their inputs are all +0, and a butterfly on +0
    /// inputs outputs +0 whatever the sign of `b·w`, so skipping them is
    /// exact.
    ///
    /// [`inverse_split`]: Self::inverse_split
    ///
    /// # Panics
    /// Panics if the planes are not exactly `len()` samples or `sparse` was
    /// made for another size.
    pub fn inverse_sparse_unscaled(&self, re: &mut [f32], im: &mut [f32], sparse: &SparseBins) {
        assert!(
            re.len() == self.n && im.len() == self.n && sparse.n == self.n,
            "plane length and sparse plan must equal FFT size"
        );
        debug_assert!(
            {
                let mut live = sparse.live[0].iter().peekable();
                (0..self.n / 2).all(|b| {
                    live.next_if_eq(&&(b as u32)).is_some()
                        || re[2 * b..2 * b + 2].iter().chain(&im[2 * b..2 * b + 2]).all(|v| v.to_bits() == 0)
                })
            },
            "a block no bin reaches holds a sample other than +0"
        );
        self.butterflies(re, im, true, Some(sparse));
    }

    /// Forward-transforms `buf` as a batch of concatenated `len()`-point
    /// transforms — the one-operation shape for demodulating many receivers
    /// (or overlap-save frames) per tick.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of `len()`.
    pub fn forward_batch(&self, buf: &mut SplitC32) {
        assert!(
            buf.len().is_multiple_of(self.n),
            "batch length must be a multiple of the FFT size"
        );
        for start in (0..buf.len()).step_by(self.n) {
            let (re, im) = (&mut buf.re[start..start + self.n], &mut buf.im[start..start + self.n]);
            self.permute(re, im);
            self.butterflies(re, im, false, None);
        }
    }

    /// Inverse-transforms `buf` as a batch of concatenated `len()`-point
    /// transforms, each scaled by `1/n`.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of `len()`.
    pub fn inverse_batch(&self, buf: &mut SplitC32) {
        assert!(
            buf.len().is_multiple_of(self.n),
            "batch length must be a multiple of the FFT size"
        );
        for start in (0..buf.len()).step_by(self.n) {
            let (re, im) = (&mut buf.re[start..start + self.n], &mut buf.im[start..start + self.n]);
            self.inverse_split(re, im);
        }
    }
}

/// The immutable, shareable half of an overlap-save FIR: FFT plan + tap
/// spectrum. Wrap it in an [`Arc`] and hand clones to any number of
/// [`crate::fir::OverlapSave`] engines — planning (twiddles, tap FFT)
/// happens once per filter design instead of once per receiver.
#[derive(Debug, Clone)]
pub struct FirPlan {
    taps_len: usize,
    fft: FftPlan,
    /// FFT of the zero-padded taps, split planes.
    spec: SplitC32,
    /// New samples consumed per FFT frame (`fft − taps + 1`).
    block: usize,
}

impl FirPlan {
    /// Plans an overlap-save engine for a coefficient vector.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: &[f32]) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = crate::fir::overlap_save_fft_size(taps.len());
        let fft = FftPlan::new(n);
        let mut spec = SplitC32::zeroed(n);
        spec.re[..taps.len()].copy_from_slice(taps);
        fft.forward_split(&mut spec.re, &mut spec.im);
        FirPlan {
            taps_len: taps.len(),
            fft,
            spec,
            block: n - taps.len() + 1,
        }
    }

    /// Convenience: a plan already wrapped for sharing.
    pub fn shared(taps: &[f32]) -> Arc<Self> {
        Arc::new(FirPlan::new(taps))
    }

    /// Number of taps the plan was built for.
    #[inline]
    pub fn taps_len(&self) -> usize {
        self.taps_len
    }

    /// New samples consumed per FFT frame.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// The FFT plan (frame size = `fft().len()`).
    #[inline]
    pub fn fft(&self) -> &FftPlan {
        &self.fft
    }

    /// Group delay in samples for the linear-phase designs in `fir`.
    #[inline]
    pub fn delay(&self) -> usize {
        (self.taps_len - 1) / 2
    }

    /// Multiplies a batch of transformed frames by the tap spectrum in
    /// place (`frames.len()` must be a multiple of the frame size).
    pub fn apply_spectrum(&self, frames: &mut SplitC32) {
        let n = self.fft.len();
        assert!(frames.len().is_multiple_of(n), "frame batch length mismatch");
        for start in (0..frames.len()).step_by(n) {
            cmul_in_place(
                &mut frames.re[start..start + n],
                &mut frames.im[start..start + n],
                &self.spec.re,
                &self.spec.im,
            );
        }
    }
}

/// Where a fixed set of bins sits in an [`FftPlan`]'s bit-reversed input,
/// and which blocks of its first three stages that input reaches: made by
/// [`FftPlan::sparse_bins`], run by [`FftPlan::inverse_sparse_unscaled`].
#[derive(Debug, Clone)]
pub struct SparseBins {
    n: usize,
    /// Bit-reversed position of each bin, in the caller's order.
    pos: Vec<u32>,
    /// Per stage 1–3 (blocks of 2, 4 and 8 samples): the blocks holding at
    /// least one of `pos`, ascending.
    live: [Vec<u32>; 3],
}

impl SparseBins {
    /// The position at which bin `bins[i]` of [`FftPlan::sparse_bins`]' call
    /// is written, for each `i`.
    pub fn positions(&self) -> &[u32] {
        &self.pos
    }
}

/// The butterflies of one of the first stages, half-block `H`, on every
/// block or on the `live` ones: the same span as every other stage's, at a
/// length the compiler knows.
#[inline(always)]
fn small_stage<const H: usize>(re: &mut [f32], im: &mut [f32], wr: &[f32], wi: &[f32], live: Option<&[u32]>) {
    let blocks = re.len() / (2 * H);
    let mut block = |b: usize| {
        let (a_re, b_re) = re[2 * H * b..][..2 * H].split_at_mut(H);
        let (a_im, b_im) = im[2 * H * b..][..2 * H].split_at_mut(H);
        butterfly_radix2(a_re, a_im, b_re, b_im, &wr[..H], &wi[..H]);
    };
    match live {
        Some(live) => live.iter().for_each(|&b| block(b as usize)),
        None => (0..blocks).for_each(block),
    }
}

/// One radix-2 butterfly span on split planes: for each `k`,
/// `t = b[k]·w[k]; b[k] = a[k] − t; a[k] = a[k] + t`.
///
/// `a` and `b` are the two halves of one butterfly block; `tw` holds the
/// stage's contiguous twiddles. All six planes have the same length.
#[inline(always)]
fn butterfly_radix2(
    a_re: &mut [f32],
    a_im: &mut [f32],
    b_re: &mut [f32],
    b_im: &mut [f32],
    tw_re: &[f32],
    tw_im: &[f32],
) {
    let h = a_re.len();
    // Resliced to one length, so the compiler can drop the loop's bounds
    // checks.
    let (a_im, b_re, b_im) = (&mut a_im[..h], &mut b_re[..h], &mut b_im[..h]);
    let (tw_re, tw_im) = (&tw_re[..h], &tw_im[..h]);
    for k in 0..h {
        let tr = b_re[k] * tw_re[k] - b_im[k] * tw_im[k];
        let ti = b_re[k] * tw_im[k] + b_im[k] * tw_re[k];
        let ar = a_re[k];
        let ai = a_im[k];
        a_re[k] = ar + tr;
        a_im[k] = ai + ti;
        b_re[k] = ar - tr;
        b_im[k] = ai - ti;
    }
}

/// Elementwise complex multiply-in-place on split planes:
/// `a[i] *= b[i]` with `(re, im) = (ar·br − ai·bi, ar·bi + ai·br)`, the
/// arithmetic of `C32`'s `Mul`. All four planes have the same length.
fn cmul_in_place(a_re: &mut [f32], a_im: &mut [f32], b_re: &[f32], b_im: &[f32]) {
    let n = a_re.len();
    let (a_im, b_re, b_im) = (&mut a_im[..n], &b_re[..n], &b_im[..n]);
    for i in 0..n {
        let ar = a_re[i];
        let ai = a_im[i];
        a_re[i] = ar * b_re[i] - ai * b_im[i];
        a_im[i] = ar * b_im[i] + ai * b_re[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnoise(n: usize, seed: u32) -> Vec<C32> {
        let mut x = seed | 1;
        let mut f = || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 16) as f32 / 32768.0) - 1.0
        };
        (0..n).map(|_| C32::new(f(), f())).collect()
    }

    #[test]
    fn inverse_split_roundtrips_within_1e5_rms() {
        for n in [16usize, 256, 1024, 2048] {
            let x = cnoise(n, 7 * n as u32 + 3);
            let mut s = SplitC32::from_interleaved(&x);
            let plan = FftPlan::new(n);
            plan.forward_split(&mut s.re, &mut s.im);
            plan.inverse_split(&mut s.re, &mut s.im);
            let mut err = 0.0f64;
            let mut pwr = 0.0f64;
            for (i, v) in x.iter().enumerate() {
                err += ((s.re[i] - v.re) as f64).powi(2) + ((s.im[i] - v.im) as f64).powi(2);
                pwr += (v.re as f64).powi(2) + (v.im as f64).powi(2);
            }
            assert!((err / pwr).sqrt() < 1e-5, "n={n} rms {}", (err / pwr).sqrt());
        }
    }

    #[test]
    fn batch_matches_per_transform_loop() {
        let n = 64;
        let count = 5;
        let plan = FftPlan::new(n);
        let x = cnoise(n * count, 99);
        let mut batch = SplitC32::from_interleaved(&x);
        plan.forward_batch(&mut batch);
        plan.inverse_batch(&mut batch);
        for (t, chunk) in x.chunks(n).enumerate() {
            let mut one = SplitC32::from_interleaved(chunk);
            plan.forward_split(&mut one.re, &mut one.im);
            plan.inverse_split(&mut one.re, &mut one.im);
            for i in 0..n {
                assert_eq!(batch.re[t * n + i].to_bits(), one.re[i].to_bits(), "t={t} i={i}");
                assert_eq!(batch.im[t * n + i].to_bits(), one.im[i].to_bits(), "t={t} i={i}");
            }
        }
    }

    #[test]
    fn fir_plan_spectrum_matches_fft_of_padded_taps() {
        let taps: Vec<f32> = (0..101).map(|i| ((i as f32) * 0.1).sin()).collect();
        let plan = FirPlan::new(&taps);
        assert_eq!(plan.taps_len(), 101);
        assert_eq!(plan.delay(), 50);
        let n = plan.fft().len();
        assert_eq!(plan.block(), n - 101 + 1);
        let mut want = SplitC32::zeroed(n);
        want.re[..taps.len()].copy_from_slice(&taps);
        plan.fft().forward_split(&mut want.re, &mut want.im);
        let mut frames = SplitC32::zeroed(n);
        frames.re[0] = 1.0; // impulse: output = spectrum
        plan.fft().forward_split(&mut frames.re, &mut frames.im);
        plan.apply_spectrum(&mut frames);
        for i in 0..n {
            assert!((frames.re[i] - want.re[i]).abs() < 1e-5, "re[{i}]");
            assert!((frames.im[i] - want.im[i]).abs() < 1e-5, "im[{i}]");
        }
    }
}
