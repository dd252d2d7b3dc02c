//! Runtime-dispatched SIMD kernels for the DSP hot paths.
//!
//! Every kernel here comes in (up to) three implementations:
//!
//! * a **scalar twin** named `*_reference` — the executable specification,
//!   always compiled, and the only implementation on architectures without a
//!   vector path;
//! * an **AVX2** path (`x86_64`, selected at runtime via
//!   `is_x86_feature_detected!`);
//! * a **NEON** path (`aarch64`, selected at runtime via
//!   `is_aarch64_feature_detected!`).
//!
//! The vector paths are written to be **bit-exact** with their scalar twins:
//! they vectorize *across independent outputs* (or across split-plane lanes
//! with a pinned lane→element mapping), keep each output's accumulation
//! order identical to the scalar code, and use separate multiply/add
//! instructions (never FMA, which contracts rounding steps the scalar code
//! performs separately). That is what lets `SONIC_DSP_FORCE_SCALAR=1`
//! produce the same simulation results sample-for-sample — dispatch is a
//! performance knob, not a semantics knob (lint R3).
//!
//! Dispatch is decided once per process (cached in an atomic) from, in
//! order: an in-process override ([`force_scalar`], used by benches to
//! compare both paths in one run), the `SONIC_DSP_FORCE_SCALAR=1`
//! environment variable, and CPU feature detection.

use crate::complex::C32;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Scalar twins only (fallback, forced, or unsupported CPU).
    Scalar,
    /// AVX2 256-bit kernels (x86_64).
    Avx2,
    /// NEON 128-bit kernels (aarch64).
    Neon,
}

impl Backend {
    /// Short lowercase name for logs and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// 0 = not yet detected, 1 = scalar, 2 = avx2, 3 = neon.
static DETECTED: AtomicU8 = AtomicU8::new(0);
/// 0 = no override, 1 = force scalar (in-process, see [`force_scalar`]).
static FORCED: AtomicU8 = AtomicU8::new(0);

fn detect() -> Backend {
    if std::env::var("SONIC_DSP_FORCE_SCALAR").is_ok_and(|v| v == "1") {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Backend::Neon;
        }
    }
    Backend::Scalar
}

/// The backend every kernel in this module dispatches to.
///
/// Detection runs once and is cached; [`force_scalar`] overrides it at any
/// time (benches use this to time scalar vs SIMD in a single process).
pub fn backend() -> Backend {
    if FORCED.load(Ordering::Relaxed) == 1 {
        return Backend::Scalar;
    }
    match DETECTED.load(Ordering::Relaxed) {
        2 => Backend::Avx2,
        3 => Backend::Neon,
        1 => Backend::Scalar,
        _ => {
            let b = detect();
            DETECTED.store(
                match b {
                    Backend::Scalar => 1,
                    Backend::Avx2 => 2,
                    Backend::Neon => 3,
                },
                Ordering::Relaxed,
            );
            b
        }
    }
}

/// In-process dispatch override: `force_scalar(true)` routes every kernel to
/// its scalar twin until `force_scalar(false)`. Used by the `perf_rx` bench
/// and the parity tests; the `SONIC_DSP_FORCE_SCALAR=1` environment variable
/// is the equivalent process-wide switch.
pub fn force_scalar(on: bool) {
    FORCED.store(u8::from(on), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// FIR multiply-accumulate across outputs
// ---------------------------------------------------------------------------

/// Dense FIR dot products: `out[i] = Σ_k taps[k]·window[i + T − 1 − k]`
/// (taps newest-first over a linearized window, `T = taps.len()`).
///
/// `window.len()` must equal `out.len() + taps.len() − 1`. Bit-exact with
/// [`fir_mac_reference`]: the vector path runs 8 (AVX2) or 4 (NEON) outputs
/// side by side while each output still accumulates taps in scalar order.
pub fn fir_mac(taps: &[f32], window: &[f32], out: &mut [f32]) {
    assert_eq!(
        window.len(),
        out.len() + taps.len() - 1,
        "window must hold history + block"
    );
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { fir_mac_avx2(taps, window, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { fir_mac_neon(taps, window, out) },
        _ => fir_mac_reference(taps, window, out),
    }
}

/// Scalar twin of [`fir_mac`] (the executable specification).
pub fn fir_mac_reference(taps: &[f32], window: &[f32], out: &mut [f32]) {
    let t = taps.len();
    for (i, o) in out.iter_mut().enumerate() {
        let win = &window[i..i + t];
        let mut acc = 0.0f32;
        for (&c, &x) in taps.iter().zip(win.iter().rev()) {
            acc += c * x;
        }
        *o = acc;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn fir_mac_avx2(taps: &[f32], window: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let t = taps.len();
    let n8 = out.len() / 8 * 8;
    let wp = window.as_ptr();
    let mut i = 0;
    while i < n8 {
        let mut acc = _mm256_setzero_ps();
        // Output i+j (j < 8) needs window[(i+j) + t−1 − k]: one unaligned
        // contiguous load per tap covers all 8 lanes.
        for (k, &c) in taps.iter().enumerate() {
            let cv = _mm256_set1_ps(c);
            // SAFETY: i + t − 1 − k + 7 ≤ (n8 − 8) + t − 1 + 7 <
            // out.len() + t − 1 = window.len(), so the 8-float load is in
            // bounds.
            let xv = unsafe { _mm256_loadu_ps(wp.add(i + t - 1 - k)) };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(cv, xv));
        }
        // SAFETY: i + 7 < n8 ≤ out.len(), so the 8-float store is in bounds.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(i), acc) };
        i += 8;
    }
    fir_mac_reference(taps, &window[n8..], &mut out[n8..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn fir_mac_neon(taps: &[f32], window: &[f32], out: &mut [f32]) {
    use std::arch::aarch64::*;
    let t = taps.len();
    let n4 = out.len() / 4 * 4;
    let wp = window.as_ptr();
    let mut i = 0;
    while i < n4 {
        let mut acc = vdupq_n_f32(0.0);
        for (k, &c) in taps.iter().enumerate() {
            let cv = vdupq_n_f32(c);
            // SAFETY: i + t − 1 − k + 3 < out.len() + t − 1 = window.len().
            let xv = unsafe { vld1q_f32(wp.add(i + t - 1 - k)) };
            // Separate mul + add (not vfmaq) to stay bit-exact with scalar.
            acc = vaddq_f32(acc, vmulq_f32(cv, xv));
        }
        // SAFETY: i + 3 < n4 ≤ out.len().
        unsafe { vst1q_f32(out.as_mut_ptr().add(i), acc) };
        i += 4;
    }
    fir_mac_reference(taps, &window[n4..], &mut out[n4..]);
}

// ---------------------------------------------------------------------------
// Pointwise complex multiply on split planes (overlap-save spectrum product)
// ---------------------------------------------------------------------------

/// Elementwise complex multiply-in-place on split planes:
/// `a[i] *= b[i]` with `(re, im) = (ar·br − ai·bi, ar·bi + ai·br)`.
///
/// Bit-exact with [`cmul_in_place_reference`] (and with `C32`'s `Mul`).
pub fn cmul_in_place(a_re: &mut [f32], a_im: &mut [f32], b_re: &[f32], b_im: &[f32]) {
    let n = a_re.len();
    assert!(
        a_im.len() == n && b_re.len() == n && b_im.len() == n,
        "plane length mismatch"
    );
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { cmul_in_place_avx2(a_re, a_im, b_re, b_im) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { cmul_in_place_neon(a_re, a_im, b_re, b_im) },
        _ => cmul_in_place_reference(a_re, a_im, b_re, b_im),
    }
}

/// Scalar twin of [`cmul_in_place`].
pub fn cmul_in_place_reference(a_re: &mut [f32], a_im: &mut [f32], b_re: &[f32], b_im: &[f32]) {
    for i in 0..a_re.len() {
        let ar = a_re[i];
        let ai = a_im[i];
        a_re[i] = ar * b_re[i] - ai * b_im[i];
        a_im[i] = ar * b_im[i] + ai * b_re[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn cmul_in_place_avx2(a_re: &mut [f32], a_im: &mut [f32], b_re: &[f32], b_im: &[f32]) {
    use std::arch::x86_64::*;
    let n = a_re.len();
    let n8 = n / 8 * 8;
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ length of all four equal-length planes.
        unsafe {
            let ar = _mm256_loadu_ps(a_re.as_ptr().add(i));
            let ai = _mm256_loadu_ps(a_im.as_ptr().add(i));
            let br = _mm256_loadu_ps(b_re.as_ptr().add(i));
            let bi = _mm256_loadu_ps(b_im.as_ptr().add(i));
            let nr = _mm256_sub_ps(_mm256_mul_ps(ar, br), _mm256_mul_ps(ai, bi));
            let ni = _mm256_add_ps(_mm256_mul_ps(ar, bi), _mm256_mul_ps(ai, br));
            _mm256_storeu_ps(a_re.as_mut_ptr().add(i), nr);
            _mm256_storeu_ps(a_im.as_mut_ptr().add(i), ni);
        }
        i += 8;
    }
    cmul_in_place_reference(&mut a_re[n8..], &mut a_im[n8..], &b_re[n8..], &b_im[n8..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn cmul_in_place_neon(a_re: &mut [f32], a_im: &mut [f32], b_re: &[f32], b_im: &[f32]) {
    use std::arch::aarch64::*;
    let n = a_re.len();
    let n4 = n / 4 * 4;
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 3 < n4 ≤ length of all four equal-length planes.
        unsafe {
            let ar = vld1q_f32(a_re.as_ptr().add(i));
            let ai = vld1q_f32(a_im.as_ptr().add(i));
            let br = vld1q_f32(b_re.as_ptr().add(i));
            let bi = vld1q_f32(b_im.as_ptr().add(i));
            let nr = vsubq_f32(vmulq_f32(ar, br), vmulq_f32(ai, bi));
            let ni = vaddq_f32(vmulq_f32(ar, bi), vmulq_f32(ai, br));
            vst1q_f32(a_re.as_mut_ptr().add(i), nr);
            vst1q_f32(a_im.as_mut_ptr().add(i), ni);
        }
        i += 4;
    }
    cmul_in_place_reference(&mut a_re[n4..], &mut a_im[n4..], &b_re[n4..], &b_im[n4..]);
}

// ---------------------------------------------------------------------------
// Radix-2 FFT butterfly stage on split planes
// ---------------------------------------------------------------------------

/// One radix-2 butterfly span on split planes: for each `k`,
/// `t = b[k]·w[k]; b[k] = a[k] − t; a[k] = a[k] + t`.
///
/// `a` and `b` are the two halves of one butterfly block; `tw` holds the
/// stage's contiguous twiddles. Bit-exact with
/// [`butterfly_radix2_reference`].
pub fn butterfly_radix2(
    a_re: &mut [f32],
    a_im: &mut [f32],
    b_re: &mut [f32],
    b_im: &mut [f32],
    tw_re: &[f32],
    tw_im: &[f32],
) {
    let h = a_re.len();
    assert!(
        a_im.len() == h && b_re.len() == h && b_im.len() == h && tw_re.len() == h && tw_im.len() == h,
        "butterfly plane length mismatch"
    );
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { butterfly_radix2_avx2(a_re, a_im, b_re, b_im, tw_re, tw_im) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { butterfly_radix2_neon(a_re, a_im, b_re, b_im, tw_re, tw_im) },
        _ => butterfly_radix2_reference(a_re, a_im, b_re, b_im, tw_re, tw_im),
    }
}

/// Scalar twin of [`butterfly_radix2`].
pub fn butterfly_radix2_reference(
    a_re: &mut [f32],
    a_im: &mut [f32],
    b_re: &mut [f32],
    b_im: &mut [f32],
    tw_re: &[f32],
    tw_im: &[f32],
) {
    for k in 0..a_re.len() {
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn butterfly_radix2_avx2(
    a_re: &mut [f32],
    a_im: &mut [f32],
    b_re: &mut [f32],
    b_im: &mut [f32],
    tw_re: &[f32],
    tw_im: &[f32],
) {
    use std::arch::x86_64::*;
    let h = a_re.len();
    let h8 = h / 8 * 8;
    let mut k = 0;
    while k < h8 {
        // SAFETY: k + 7 < h8 ≤ length of all six equal-length planes.
        unsafe {
            let br = _mm256_loadu_ps(b_re.as_ptr().add(k));
            let bi = _mm256_loadu_ps(b_im.as_ptr().add(k));
            let wr = _mm256_loadu_ps(tw_re.as_ptr().add(k));
            let wi = _mm256_loadu_ps(tw_im.as_ptr().add(k));
            let tr = _mm256_sub_ps(_mm256_mul_ps(br, wr), _mm256_mul_ps(bi, wi));
            let ti = _mm256_add_ps(_mm256_mul_ps(br, wi), _mm256_mul_ps(bi, wr));
            let ar = _mm256_loadu_ps(a_re.as_ptr().add(k));
            let ai = _mm256_loadu_ps(a_im.as_ptr().add(k));
            _mm256_storeu_ps(a_re.as_mut_ptr().add(k), _mm256_add_ps(ar, tr));
            _mm256_storeu_ps(a_im.as_mut_ptr().add(k), _mm256_add_ps(ai, ti));
            _mm256_storeu_ps(b_re.as_mut_ptr().add(k), _mm256_sub_ps(ar, tr));
            _mm256_storeu_ps(b_im.as_mut_ptr().add(k), _mm256_sub_ps(ai, ti));
        }
        k += 8;
    }
    butterfly_radix2_reference(
        &mut a_re[h8..],
        &mut a_im[h8..],
        &mut b_re[h8..],
        &mut b_im[h8..],
        &tw_re[h8..],
        &tw_im[h8..],
    );
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn butterfly_radix2_neon(
    a_re: &mut [f32],
    a_im: &mut [f32],
    b_re: &mut [f32],
    b_im: &mut [f32],
    tw_re: &[f32],
    tw_im: &[f32],
) {
    use std::arch::aarch64::*;
    let h = a_re.len();
    let h4 = h / 4 * 4;
    let mut k = 0;
    while k < h4 {
        // SAFETY: k + 3 < h4 ≤ length of all six equal-length planes.
        unsafe {
            let br = vld1q_f32(b_re.as_ptr().add(k));
            let bi = vld1q_f32(b_im.as_ptr().add(k));
            let wr = vld1q_f32(tw_re.as_ptr().add(k));
            let wi = vld1q_f32(tw_im.as_ptr().add(k));
            let tr = vsubq_f32(vmulq_f32(br, wr), vmulq_f32(bi, wi));
            let ti = vaddq_f32(vmulq_f32(br, wi), vmulq_f32(bi, wr));
            let ar = vld1q_f32(a_re.as_ptr().add(k));
            let ai = vld1q_f32(a_im.as_ptr().add(k));
            vst1q_f32(a_re.as_mut_ptr().add(k), vaddq_f32(ar, tr));
            vst1q_f32(a_im.as_mut_ptr().add(k), vaddq_f32(ai, ti));
            vst1q_f32(b_re.as_mut_ptr().add(k), vsubq_f32(ar, tr));
            vst1q_f32(b_im.as_mut_ptr().add(k), vsubq_f32(ai, ti));
        }
        k += 4;
    }
    butterfly_radix2_reference(
        &mut a_re[h4..],
        &mut a_im[h4..],
        &mut b_re[h4..],
        &mut b_im[h4..],
        &tw_re[h4..],
        &tw_im[h4..],
    );
}

// ---------------------------------------------------------------------------
// FM discriminator product: a[i]·conj(b[i]) into split planes
// ---------------------------------------------------------------------------

/// Elementwise `a[i]·conj(b[i])` from interleaved inputs into split planes:
/// `(re, im) = (ar·br + ai·bi, ai·br − ar·bi)`.
///
/// The FM discriminator calls this with `b` = `a` delayed by one sample.
/// Bit-exact with [`mul_conj_split_reference`] (and with `C32::mul_conj`).
pub fn mul_conj_split(a: &[C32], b: &[C32], out_re: &mut [f32], out_im: &mut [f32]) {
    let n = a.len();
    assert!(
        b.len() == n && out_re.len() == n && out_im.len() == n,
        "mul_conj plane length mismatch"
    );
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { mul_conj_split_avx2(a, b, out_re, out_im) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { mul_conj_split_neon(a, b, out_re, out_im) },
        _ => mul_conj_split_reference(a, b, out_re, out_im),
    }
}

/// Scalar twin of [`mul_conj_split`].
pub fn mul_conj_split_reference(a: &[C32], b: &[C32], out_re: &mut [f32], out_im: &mut [f32]) {
    for i in 0..a.len() {
        let x = a[i];
        let y = b[i];
        out_re[i] = x.re * y.re + x.im * y.im;
        out_im[i] = x.im * y.re - x.re * y.im;
    }
}

/// Deinterleaves 8 complex samples (16 floats at `ptr`) into (re, im)
/// vectors.
///
/// # Safety
/// `ptr` must be valid for reading 16 `f32`s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` required by target_feature; contract documented above.
unsafe fn deinterleave8_avx2(
    ptr: *const f32,
) -> (std::arch::x86_64::__m256, std::arch::x86_64::__m256) {
    use std::arch::x86_64::*;
    // SAFETY: caller guarantees 16 readable floats at ptr.
    let (v0, v1) = unsafe { (_mm256_loadu_ps(ptr), _mm256_loadu_ps(ptr.add(8))) };
    // v0 = r0 i0 r1 i1 | r2 i2 r3 i3, v1 = r4 i4 r5 i5 | r6 i6 r7 i7.
    // shuffle picks (0,2) of each 128-bit lane: re = r0 r1 r4 r5 | r2 r3 r6 r7.
    let re = _mm256_shuffle_ps(v0, v1, 0b10_00_10_00);
    let im = _mm256_shuffle_ps(v0, v1, 0b11_01_11_01);
    let order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    (
        _mm256_permutevar8x32_ps(re, order),
        _mm256_permutevar8x32_ps(im, order),
    )
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn mul_conj_split_avx2(a: &[C32], b: &[C32], out_re: &mut [f32], out_im: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = a.len();
    let n8 = n / 8 * 8;
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ a.len() == b.len(); C32 is two f32s, so 8
        // complex samples are 16 readable floats; stores stay below n8 ≤
        // out plane lengths.
        unsafe {
            let (ar, ai) = deinterleave8_avx2(a.as_ptr().add(i).cast::<f32>());
            let (br, bi) = deinterleave8_avx2(b.as_ptr().add(i).cast::<f32>());
            let re = _mm256_add_ps(_mm256_mul_ps(ar, br), _mm256_mul_ps(ai, bi));
            let im = _mm256_sub_ps(_mm256_mul_ps(ai, br), _mm256_mul_ps(ar, bi));
            _mm256_storeu_ps(out_re.as_mut_ptr().add(i), re);
            _mm256_storeu_ps(out_im.as_mut_ptr().add(i), im);
        }
        i += 8;
    }
    mul_conj_split_reference(&a[n8..], &b[n8..], &mut out_re[n8..], &mut out_im[n8..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn mul_conj_split_neon(a: &[C32], b: &[C32], out_re: &mut [f32], out_im: &mut [f32]) {
    use std::arch::aarch64::*;
    let n = a.len();
    let n4 = n / 4 * 4;
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 3 < n4 ≤ a.len() == b.len(); C32 is two f32s, so
        // vld2q reads 8 valid floats and deinterleaves; stores stay below
        // n4 ≤ out plane lengths.
        unsafe {
            let av = vld2q_f32(a.as_ptr().add(i).cast::<f32>());
            let bv = vld2q_f32(b.as_ptr().add(i).cast::<f32>());
            let (ar, ai) = (av.0, av.1);
            let (br, bi) = (bv.0, bv.1);
            let re = vaddq_f32(vmulq_f32(ar, br), vmulq_f32(ai, bi));
            let im = vsubq_f32(vmulq_f32(ai, br), vmulq_f32(ar, bi));
            vst1q_f32(out_re.as_mut_ptr().add(i), re);
            vst1q_f32(out_im.as_mut_ptr().add(i), im);
        }
        i += 4;
    }
    mul_conj_split_reference(&a[n4..], &b[n4..], &mut out_re[n4..], &mut out_im[n4..]);
}

// ---------------------------------------------------------------------------
// Polynomial atan2 over split planes (discriminator angle extraction)
// ---------------------------------------------------------------------------

/// Polynomial `atan` on `[-1, 1]` (Abramowitz & Stegun 4.4.49 form),
/// max error ≈ 1e-5 rad. Shared by the scalar twin and the FM demodulator.
#[inline(always)]
pub fn fast_atan(z: f32) -> f32 {
    let z2 = z * z;
    z * (0.999_866
        + z2 * (-0.330_299_5 + z2 * (0.180_141 + z2 * (-0.085_133 + 0.020_835_1 * z2))))
}

/// Branch-light `atan2` built on [`fast_atan`]; max error ≈ 1e-5 rad.
/// Returns 0 at the origin (the discriminator maps a dead carrier to
/// silence).
#[inline(always)]
pub fn fast_atan2(y: f32, x: f32) -> f32 {
    use std::f32::consts::{FRAC_PI_2, PI};
    let ax = x.abs();
    let ay = y.abs();
    if ax == 0.0 && ay == 0.0 {
        return 0.0;
    }
    let mut a = if ay > ax {
        FRAC_PI_2 - fast_atan(ax / ay)
    } else {
        fast_atan(ay / ax)
    };
    if x < 0.0 {
        a = PI - a;
    }
    if y < 0.0 {
        a = -a;
    }
    a
}

/// `out[i] = fast_atan2(y[i], x[i]) · scale` over whole planes.
///
/// Bit-exact with [`atan2_scale_reference`]: the vector path evaluates the
/// same polynomial in the same order and resolves the quadrant branches
/// with blends over identical operands.
pub fn atan2_scale(y: &[f32], x: &[f32], scale: f32, out: &mut [f32]) {
    let n = y.len();
    assert!(x.len() == n && out.len() == n, "atan2 plane length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { atan2_scale_avx2(y, x, scale, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { atan2_scale_neon(y, x, scale, out) },
        _ => atan2_scale_reference(y, x, scale, out),
    }
}

/// Scalar twin of [`atan2_scale`].
pub fn atan2_scale_reference(y: &[f32], x: &[f32], scale: f32, out: &mut [f32]) {
    for i in 0..y.len() {
        out[i] = fast_atan2(y[i], x[i]) * scale;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn atan2_scale_avx2(y: &[f32], x: &[f32], scale: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = y.len();
    let n8 = n / 8 * 8;
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
    let zero = _mm256_setzero_ps();
    let pi = _mm256_set1_ps(std::f32::consts::PI);
    let pi2 = _mm256_set1_ps(std::f32::consts::FRAC_PI_2);
    let (c0, c1, c2, c3, c4) = (
        _mm256_set1_ps(0.999_866),
        _mm256_set1_ps(-0.330_299_5),
        _mm256_set1_ps(0.180_141),
        _mm256_set1_ps(-0.085_133),
        _mm256_set1_ps(0.020_835_1),
    );
    let sv = _mm256_set1_ps(scale);
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ length of the three equal-length planes.
        unsafe {
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let ax = _mm256_and_ps(xv, abs_mask);
            let ay = _mm256_and_ps(yv, abs_mask);
            // swap lanes compute FRAC_PI_2 − atan(ax/ay), others atan(ay/ax).
            let swap = _mm256_cmp_ps::<_CMP_GT_OQ>(ay, ax);
            let num = _mm256_blendv_ps(ay, ax, swap);
            let den = _mm256_blendv_ps(ax, ay, swap);
            let z = _mm256_div_ps(num, den);
            let z2 = _mm256_mul_ps(z, z);
            // Same Horner order as fast_atan: c3 + c4·z2, ×z2, +c2, ….
            let mut p = _mm256_add_ps(c3, _mm256_mul_ps(c4, z2));
            p = _mm256_add_ps(c2, _mm256_mul_ps(z2, p));
            p = _mm256_add_ps(c1, _mm256_mul_ps(z2, p));
            p = _mm256_add_ps(c0, _mm256_mul_ps(z2, p));
            let atan = _mm256_mul_ps(z, p);
            let mut a = _mm256_blendv_ps(atan, _mm256_sub_ps(pi2, atan), swap);
            let xneg = _mm256_cmp_ps::<_CMP_LT_OQ>(xv, zero);
            a = _mm256_blendv_ps(a, _mm256_sub_ps(pi, a), xneg);
            let yneg = _mm256_cmp_ps::<_CMP_LT_OQ>(yv, zero);
            a = _mm256_blendv_ps(a, _mm256_xor_ps(a, sign_mask), yneg);
            // Origin → exactly 0 (the scalar early-out).
            let origin = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_EQ_OQ>(ax, zero),
                _mm256_cmp_ps::<_CMP_EQ_OQ>(ay, zero),
            );
            a = _mm256_blendv_ps(a, zero, origin);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(a, sv));
        }
        i += 8;
    }
    atan2_scale_reference(&y[n8..], &x[n8..], scale, &mut out[n8..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn atan2_scale_neon(y: &[f32], x: &[f32], scale: f32, out: &mut [f32]) {
    use std::arch::aarch64::*;
    let n = y.len();
    let n4 = n / 4 * 4;
    let zero = vdupq_n_f32(0.0);
    let pi = vdupq_n_f32(std::f32::consts::PI);
    let pi2 = vdupq_n_f32(std::f32::consts::FRAC_PI_2);
    let (c0, c1, c2, c3, c4) = (
        vdupq_n_f32(0.999_866),
        vdupq_n_f32(-0.330_299_5),
        vdupq_n_f32(0.180_141),
        vdupq_n_f32(-0.085_133),
        vdupq_n_f32(0.020_835_1),
    );
    let sign_bit = vdupq_n_u32(0x8000_0000);
    let sv = vdupq_n_f32(scale);
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 3 < n4 ≤ length of the three equal-length planes.
        unsafe {
            let yv = vld1q_f32(y.as_ptr().add(i));
            let xv = vld1q_f32(x.as_ptr().add(i));
            let ax = vabsq_f32(xv);
            let ay = vabsq_f32(yv);
            let swap = vcgtq_f32(ay, ax);
            let num = vbslq_f32(swap, ax, ay);
            let den = vbslq_f32(swap, ay, ax);
            let z = vdivq_f32(num, den);
            let z2 = vmulq_f32(z, z);
            let mut p = vaddq_f32(c3, vmulq_f32(c4, z2));
            p = vaddq_f32(c2, vmulq_f32(z2, p));
            p = vaddq_f32(c1, vmulq_f32(z2, p));
            p = vaddq_f32(c0, vmulq_f32(z2, p));
            let atan = vmulq_f32(z, p);
            let mut a = vbslq_f32(swap, vsubq_f32(pi2, atan), atan);
            let xneg = vcltq_f32(xv, zero);
            a = vbslq_f32(xneg, vsubq_f32(pi, a), a);
            let yneg = vcltq_f32(yv, zero);
            let negated = vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(a), sign_bit));
            a = vbslq_f32(yneg, negated, a);
            let origin = vandq_u32(vceqq_f32(ax, zero), vceqq_f32(ay, zero));
            a = vbslq_f32(origin, zero, a);
            vst1q_f32(out.as_mut_ptr().add(i), vmulq_f32(a, sv));
        }
        i += 4;
    }
    atan2_scale_reference(&y[n4..], &x[n4..], scale, &mut out[n4..]);
}

// ---------------------------------------------------------------------------
// Correlation reduction: Σ a[i]·conj(b[i]) and Σ |a[i]|²
// ---------------------------------------------------------------------------

/// Number of independent accumulator lanes used by [`dot_mul_conj_energy`].
///
/// The sum is *defined* as a LANES-way split: element `i` of a full chunk
/// goes to lane `i mod LANES`, tail elements continue in lane order, and the
/// lanes are reduced sequentially at the end. Both the scalar twin and the
/// vector paths implement exactly this, so results are bit-identical across
/// backends (NEON accumulates pairs of 4-wide vectors to match).
pub const DOT_LANES: usize = 8;

/// Correlates `a` against `b`, returning `(Σ a[i]·conj(b[i]), Σ |a[i]|²)`
/// with the lane-split accumulation order described at [`DOT_LANES`].
pub fn dot_mul_conj_energy(a: &[C32], b: &[C32]) -> (C32, f32) {
    assert_eq!(a.len(), b.len(), "correlation length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { dot_mul_conj_energy_avx2(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { dot_mul_conj_energy_neon(a, b) },
        _ => dot_mul_conj_energy_reference(a, b),
    }
}

/// Scalar twin of [`dot_mul_conj_energy`].
pub fn dot_mul_conj_energy_reference(a: &[C32], b: &[C32]) -> (C32, f32) {
    let mut acc_re = [0.0f32; DOT_LANES];
    let mut acc_im = [0.0f32; DOT_LANES];
    let mut en = [0.0f32; DOT_LANES];
    for (i, (&x, &h)) in a.iter().zip(b).enumerate() {
        let l = i % DOT_LANES;
        acc_re[l] += x.re * h.re + x.im * h.im;
        acc_im[l] += x.im * h.re - x.re * h.im;
        en[l] += x.re * x.re + x.im * x.im;
    }
    reduce_lanes(&acc_re, &acc_im, &en)
}

/// Sequential lane reduction shared by every backend.
fn reduce_lanes(acc_re: &[f32; DOT_LANES], acc_im: &[f32; DOT_LANES], en: &[f32; DOT_LANES]) -> (C32, f32) {
    let mut r = 0.0f32;
    let mut i = 0.0f32;
    let mut e = 0.0f32;
    for l in 0..DOT_LANES {
        r += acc_re[l];
        i += acc_im[l];
        e += en[l];
    }
    (C32::new(r, i), e)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn dot_mul_conj_energy_avx2(a: &[C32], b: &[C32]) -> (C32, f32) {
    use std::arch::x86_64::*;
    let n = a.len();
    let n8 = n / 8 * 8;
    let mut vr = _mm256_setzero_ps();
    let mut vi = _mm256_setzero_ps();
    let mut ve = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ a.len() == b.len(); 8 complex samples are 16
        // readable floats each.
        unsafe {
            let (ar, ai) = deinterleave8_avx2(a.as_ptr().add(i).cast::<f32>());
            let (br, bi) = deinterleave8_avx2(b.as_ptr().add(i).cast::<f32>());
            vr = _mm256_add_ps(
                vr,
                _mm256_add_ps(_mm256_mul_ps(ar, br), _mm256_mul_ps(ai, bi)),
            );
            vi = _mm256_add_ps(
                vi,
                _mm256_sub_ps(_mm256_mul_ps(ai, br), _mm256_mul_ps(ar, bi)),
            );
            ve = _mm256_add_ps(
                ve,
                _mm256_add_ps(_mm256_mul_ps(ar, ar), _mm256_mul_ps(ai, ai)),
            );
        }
        i += 8;
    }
    let mut acc_re = [0.0f32; DOT_LANES];
    let mut acc_im = [0.0f32; DOT_LANES];
    let mut en = [0.0f32; DOT_LANES];
    // SAFETY: the arrays are 8 f32s, exactly one __m256 each.
    unsafe {
        _mm256_storeu_ps(acc_re.as_mut_ptr(), vr);
        _mm256_storeu_ps(acc_im.as_mut_ptr(), vi);
        _mm256_storeu_ps(en.as_mut_ptr(), ve);
    }
    // Tail elements continue the lane rotation exactly like the scalar twin.
    for (j, (&x, &h)) in a[n8..].iter().zip(&b[n8..]).enumerate() {
        let l = j % DOT_LANES;
        acc_re[l] += x.re * h.re + x.im * h.im;
        acc_im[l] += x.im * h.re - x.re * h.im;
        en[l] += x.re * x.re + x.im * x.im;
    }
    reduce_lanes(&acc_re, &acc_im, &en)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn dot_mul_conj_energy_neon(a: &[C32], b: &[C32]) -> (C32, f32) {
    use std::arch::aarch64::*;
    let n = a.len();
    let n8 = n / 8 * 8;
    // Two 4-wide accumulators per quantity model the 8 scalar lanes: lanes
    // 0..4 live in the first vector, 4..8 in the second.
    let mut vr0 = vdupq_n_f32(0.0);
    let mut vr1 = vdupq_n_f32(0.0);
    let mut vi0 = vdupq_n_f32(0.0);
    let mut vi1 = vdupq_n_f32(0.0);
    let mut ve0 = vdupq_n_f32(0.0);
    let mut ve1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ a.len() == b.len(); each vld2q reads 8 valid
        // floats (4 complex samples).
        unsafe {
            let a0 = vld2q_f32(a.as_ptr().add(i).cast::<f32>());
            let b0 = vld2q_f32(b.as_ptr().add(i).cast::<f32>());
            let a1 = vld2q_f32(a.as_ptr().add(i + 4).cast::<f32>());
            let b1 = vld2q_f32(b.as_ptr().add(i + 4).cast::<f32>());
            vr0 = vaddq_f32(vr0, vaddq_f32(vmulq_f32(a0.0, b0.0), vmulq_f32(a0.1, b0.1)));
            vr1 = vaddq_f32(vr1, vaddq_f32(vmulq_f32(a1.0, b1.0), vmulq_f32(a1.1, b1.1)));
            vi0 = vaddq_f32(vi0, vsubq_f32(vmulq_f32(a0.1, b0.0), vmulq_f32(a0.0, b0.1)));
            vi1 = vaddq_f32(vi1, vsubq_f32(vmulq_f32(a1.1, b1.0), vmulq_f32(a1.0, b1.1)));
            ve0 = vaddq_f32(ve0, vaddq_f32(vmulq_f32(a0.0, a0.0), vmulq_f32(a0.1, a0.1)));
            ve1 = vaddq_f32(ve1, vaddq_f32(vmulq_f32(a1.0, a1.0), vmulq_f32(a1.1, a1.1)));
        }
        i += 8;
    }
    let mut acc_re = [0.0f32; DOT_LANES];
    let mut acc_im = [0.0f32; DOT_LANES];
    let mut en = [0.0f32; DOT_LANES];
    // SAFETY: each half-array is 4 f32s, exactly one float32x4_t.
    unsafe {
        vst1q_f32(acc_re.as_mut_ptr(), vr0);
        vst1q_f32(acc_re.as_mut_ptr().add(4), vr1);
        vst1q_f32(acc_im.as_mut_ptr(), vi0);
        vst1q_f32(acc_im.as_mut_ptr().add(4), vi1);
        vst1q_f32(en.as_mut_ptr(), ve0);
        vst1q_f32(en.as_mut_ptr().add(4), ve1);
    }
    for (j, (&x, &h)) in a[n8..].iter().zip(&b[n8..]).enumerate() {
        let l = j % DOT_LANES;
        acc_re[l] += x.re * h.re + x.im * h.im;
        acc_im[l] += x.im * h.re - x.re * h.im;
        en[l] += x.re * x.re + x.im * x.im;
    }
    reduce_lanes(&acc_re, &acc_im, &en)
}

/// Real dot product `Σ a[i]·b[i]` with the lane-split accumulation order
/// described at [`DOT_LANES`]. Bit-exact with [`dot_reference`].
///
/// The polyphase resampler calls this once per output sample with one
/// reversed phase-tap vector against a contiguous input window.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { dot_avx2(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { dot_neon(a, b) },
        _ => dot_reference(a, b),
    }
}

/// Scalar twin of [`dot`].
pub fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; DOT_LANES];
    for (i, (&x, &h)) in a.iter().zip(b).enumerate() {
        acc[i % DOT_LANES] += x * h;
    }
    let mut s = 0.0f32;
    for lane in acc {
        s += lane;
    }
    s
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n8 = a.len() / 8 * 8;
    let mut v = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ a.len() == b.len(), so both 8-float loads are
        // in bounds.
        unsafe {
            let av = _mm256_loadu_ps(a.as_ptr().add(i));
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            v = _mm256_add_ps(v, _mm256_mul_ps(av, bv));
        }
        i += 8;
    }
    let mut acc = [0.0f32; DOT_LANES];
    // SAFETY: the array is 8 f32s, exactly one __m256.
    unsafe { _mm256_storeu_ps(acc.as_mut_ptr(), v) };
    // Tail elements continue the lane rotation exactly like the scalar twin.
    for (j, (&x, &h)) in a[n8..].iter().zip(&b[n8..]).enumerate() {
        acc[j % DOT_LANES] += x * h;
    }
    let mut s = 0.0f32;
    for lane in acc {
        s += lane;
    }
    s
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;
    let n8 = a.len() / 8 * 8;
    // Two 4-wide accumulators model the 8 scalar lanes: lanes 0..4 live in
    // the first vector, 4..8 in the second.
    let mut v0 = vdupq_n_f32(0.0);
    let mut v1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ a.len() == b.len(), so each 4-float load is
        // in bounds.
        unsafe {
            let a0 = vld1q_f32(a.as_ptr().add(i));
            let b0 = vld1q_f32(b.as_ptr().add(i));
            let a1 = vld1q_f32(a.as_ptr().add(i + 4));
            let b1 = vld1q_f32(b.as_ptr().add(i + 4));
            // Separate mul + add (not vfmaq) to stay bit-exact with scalar.
            v0 = vaddq_f32(v0, vmulq_f32(a0, b0));
            v1 = vaddq_f32(v1, vmulq_f32(a1, b1));
        }
        i += 8;
    }
    let mut acc = [0.0f32; DOT_LANES];
    // SAFETY: each half-array is 4 f32s, exactly one float32x4_t.
    unsafe {
        vst1q_f32(acc.as_mut_ptr(), v0);
        vst1q_f32(acc.as_mut_ptr().add(4), v1);
    }
    for (j, (&x, &h)) in a[n8..].iter().zip(&b[n8..]).enumerate() {
        acc[j % DOT_LANES] += x * h;
    }
    let mut s = 0.0f32;
    for lane in acc {
        s += lane;
    }
    s
}

// ---------------------------------------------------------------------------
// QAM per-axis soft demap
// ---------------------------------------------------------------------------

/// Per-axis square-QAM max-log soft metrics for a batch of received axis
/// values.
///
/// For each value `x` and each of `bits` gray-coded axis bits, computes
/// `min_{points with bit=0} (x−p)² − min_{points with bit=1} (x−p)²` over
/// the `m = 2^bits` axis points `p = (2·idx − (m−1))·norm`. Output is
/// bit-major: `out[bit·xs.len() + i]` is bit `bit` of value `i` (caller
/// applies per-carrier weight/scale). Bit-exact with
/// [`qam_axis_soft_reference`].
pub fn qam_axis_soft(xs: &[f32], bits: u32, norm: f32, out: &mut [f32]) {
    assert_eq!(
        out.len(),
        xs.len() * bits as usize,
        "soft output must be bits × values"
    );
    assert!((1..=5).contains(&bits), "axis bits must be in 1..=5");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { qam_axis_soft_avx2(xs, bits, norm, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON.
        Backend::Neon => unsafe { qam_axis_soft_neon(xs, bits, norm, out) },
        _ => qam_axis_soft_reference(xs, bits, norm, out),
    }
}

/// Scalar twin of [`qam_axis_soft`].
pub fn qam_axis_soft_reference(xs: &[f32], bits: u32, norm: f32, out: &mut [f32]) {
    let m = 1usize << bits;
    let stride = xs.len();
    for (i, &x) in xs.iter().enumerate() {
        let mut min0 = [f32::INFINITY; 5];
        let mut min1 = [f32::INFINITY; 5];
        for idx in 0..m {
            let v = (2.0 * idx as f32 - (m as f32 - 1.0)) * norm;
            let d = (x - v) * (x - v);
            let g = (idx ^ (idx >> 1)) as u32;
            for (bit, (m0, m1)) in min0.iter_mut().zip(min1.iter_mut()).take(bits as usize).enumerate() {
                if (g >> (bits - 1 - bit as u32)) & 1 == 0 {
                    if d < *m0 {
                        *m0 = d;
                    }
                } else if d < *m1 {
                    *m1 = d;
                }
            }
        }
        for bit in 0..bits as usize {
            out[bit * stride + i] = min0[bit] - min1[bit];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn qam_axis_soft_avx2(xs: &[f32], bits: u32, norm: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let m = 1usize << bits;
    let stride = xs.len();
    let n8 = stride / 8 * 8;
    let inf = _mm256_set1_ps(f32::INFINITY);
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n8 ≤ xs.len(); stores land at bit·stride + i + 7
        // < bits·stride = out.len().
        unsafe {
            let xv = _mm256_loadu_ps(xs.as_ptr().add(i));
            let mut min0 = [inf; 5];
            let mut min1 = [inf; 5];
            for idx in 0..m {
                let v = _mm256_set1_ps((2.0 * idx as f32 - (m as f32 - 1.0)) * norm);
                let dx = _mm256_sub_ps(xv, v);
                let d = _mm256_mul_ps(dx, dx);
                let g = (idx ^ (idx >> 1)) as u32;
                for bit in 0..bits as usize {
                    // min_ps(d, cur): for finite inputs identical to the
                    // scalar `if d < cur { cur = d }` update.
                    if (g >> (bits - 1 - bit as u32)) & 1 == 0 {
                        min0[bit] = _mm256_min_ps(d, min0[bit]);
                    } else {
                        min1[bit] = _mm256_min_ps(d, min1[bit]);
                    }
                }
            }
            for bit in 0..bits as usize {
                let soft = _mm256_sub_ps(min0[bit], min1[bit]);
                _mm256_storeu_ps(out.as_mut_ptr().add(bit * stride + i), soft);
            }
        }
        i += 8;
    }
    // Tail values: scalar twin on the remainder, writing at the same
    // bit-major offsets.
    let mut tail_out = vec![0.0f32; (stride - n8) * bits as usize];
    qam_axis_soft_reference(&xs[n8..], bits, norm, &mut tail_out);
    for bit in 0..bits as usize {
        let src = &tail_out[bit * (stride - n8)..(bit + 1) * (stride - n8)];
        out[bit * stride + n8..bit * stride + stride].copy_from_slice(src);
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available.
unsafe fn qam_axis_soft_neon(xs: &[f32], bits: u32, norm: f32, out: &mut [f32]) {
    use std::arch::aarch64::*;
    let m = 1usize << bits;
    let stride = xs.len();
    let n4 = stride / 4 * 4;
    let inf = vdupq_n_f32(f32::INFINITY);
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 3 < n4 ≤ xs.len(); stores land at bit·stride + i + 3
        // < bits·stride = out.len().
        unsafe {
            let xv = vld1q_f32(xs.as_ptr().add(i));
            let mut min0 = [inf; 5];
            let mut min1 = [inf; 5];
            for idx in 0..m {
                let v = vdupq_n_f32((2.0 * idx as f32 - (m as f32 - 1.0)) * norm);
                let dx = vsubq_f32(xv, v);
                let d = vmulq_f32(dx, dx);
                let g = (idx ^ (idx >> 1)) as u32;
                for bit in 0..bits as usize {
                    if (g >> (bits - 1 - bit as u32)) & 1 == 0 {
                        min0[bit] = vminq_f32(d, min0[bit]);
                    } else {
                        min1[bit] = vminq_f32(d, min1[bit]);
                    }
                }
            }
            for bit in 0..bits as usize {
                let soft = vsubq_f32(min0[bit], min1[bit]);
                vst1q_f32(out.as_mut_ptr().add(bit * stride + i), soft);
            }
        }
        i += 4;
    }
    let mut tail_out = vec![0.0f32; (stride - n4) * bits as usize];
    qam_axis_soft_reference(&xs[n4..], bits, norm, &mut tail_out);
    for bit in 0..bits as usize {
        let src = &tail_out[bit * (stride - n4)..(bit + 1) * (stride - n4)];
        out[bit * stride + n4..bit * stride + stride].copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize, seed: u32) -> Vec<f32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                ((x >> 16) as f32 / 32768.0) - 1.0
            })
            .collect()
    }

    fn cnoise(n: usize, seed: u32) -> Vec<C32> {
        let re = noise(n, seed);
        let im = noise(n, seed.wrapping_mul(7).wrapping_add(13));
        re.iter().zip(&im).map(|(&r, &i)| C32::new(r, i)).collect()
    }

    /// Lengths chosen to exercise empty, sub-vector, odd, and full-vector
    /// paths (plus unaligned offsets below).
    const LENS: [usize; 7] = [0, 1, 3, 7, 8, 31, 257];

    #[test]
    fn backend_name_is_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Neon.name(), "neon");
        let _ = backend();
    }

    #[test]
    fn fir_mac_matches_fir_mac_reference_bit_exactly() {
        for &n in &LENS {
            for taps_len in [1usize, 5, 32] {
                let taps = noise(taps_len, 3);
                // Offset 1 into a larger buffer = unaligned window start.
                let big = noise(n + taps_len, 11 + n as u32);
                let window = &big[1..];
                let mut got = vec![0.0f32; n];
                let mut want = vec![0.0f32; n];
                fir_mac(&taps, window, &mut got);
                fir_mac_reference(&taps, window, &mut want);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n} taps={taps_len}");
                }
            }
        }
    }

    #[test]
    fn dot_matches_dot_reference_bit_exactly() {
        for &n in &LENS {
            // Offset 1 into larger buffers = unaligned slice starts.
            let big_a = noise(n + 1, 41 + n as u32);
            let big_b = noise(n + 1, 43 + n as u32);
            let got = dot(&big_a[1..], &big_b[1..]);
            let want = dot_reference(&big_a[1..], &big_b[1..]);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn cmul_in_place_matches_cmul_in_place_reference_bit_exactly() {
        for &n in &LENS {
            let (br, bi) = (noise(n, 5), noise(n, 6));
            let mut gr = noise(n, 7);
            let mut gi = noise(n, 8);
            let mut wr = gr.clone();
            let mut wi = gi.clone();
            cmul_in_place(&mut gr, &mut gi, &br, &bi);
            cmul_in_place_reference(&mut wr, &mut wi, &br, &bi);
            for i in 0..n {
                assert_eq!(gr[i].to_bits(), wr[i].to_bits(), "re n={n} i={i}");
                assert_eq!(gi[i].to_bits(), wi[i].to_bits(), "im n={n} i={i}");
            }
        }
    }

    #[test]
    fn butterfly_radix2_matches_butterfly_radix2_reference_bit_exactly() {
        for &n in &LENS {
            let (tr, ti) = (noise(n, 21), noise(n, 22));
            let mut g = [noise(n, 31), noise(n, 32), noise(n, 33), noise(n, 34)];
            let mut w = g.clone();
            {
                let [ar, ai, br, bi] = &mut g;
                butterfly_radix2(ar, ai, br, bi, &tr, &ti);
            }
            {
                let [ar, ai, br, bi] = &mut w;
                butterfly_radix2_reference(ar, ai, br, bi, &tr, &ti);
            }
            for p in 0..4 {
                for i in 0..n {
                    assert_eq!(g[p][i].to_bits(), w[p][i].to_bits(), "plane {p} n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn mul_conj_split_matches_mul_conj_split_reference_bit_exactly() {
        for &n in &LENS {
            let big_a = cnoise(n + 1, 41);
            let big_b = cnoise(n + 1, 42);
            // Offset 1 = unaligned complex slice start.
            let (a, b) = (&big_a[1..], &big_b[1..]);
            let mut gr = vec![0.0f32; n];
            let mut gi = vec![0.0f32; n];
            let mut wr = vec![0.0f32; n];
            let mut wi = vec![0.0f32; n];
            mul_conj_split(a, b, &mut gr, &mut gi);
            mul_conj_split_reference(a, b, &mut wr, &mut wi);
            for i in 0..n {
                assert_eq!(gr[i].to_bits(), wr[i].to_bits(), "re n={n} i={i}");
                assert_eq!(gi[i].to_bits(), wi[i].to_bits(), "im n={n} i={i}");
            }
        }
    }

    #[test]
    fn atan2_scale_matches_atan2_scale_reference_bit_exactly() {
        for &n in &LENS {
            let mut y = noise(n, 51);
            let mut x = noise(n, 52);
            // Force the special lanes: origin, axes, negative halves.
            if n >= 8 {
                y[0] = 0.0;
                x[0] = 0.0;
                y[1] = 0.0;
                x[2] = 0.0;
                y[3] = -0.0;
                x[3] = -1.0;
                x[4] = -x[4].abs();
                y[5] = -y[5].abs();
            }
            let mut got = vec![0.0f32; n];
            let mut want = vec![0.0f32; n];
            atan2_scale(&y, &x, 0.37, &mut got);
            atan2_scale_reference(&y, &x, 0.37, &mut want);
            for i in 0..n {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dot_mul_conj_energy_matches_dot_mul_conj_energy_reference_bit_exactly() {
        for &n in &LENS {
            let big_a = cnoise(n + 1, 61);
            let big_b = cnoise(n + 1, 62);
            let (a, b) = (&big_a[1..], &big_b[1..]);
            let (gc, ge) = dot_mul_conj_energy(a, b);
            let (wc, we) = dot_mul_conj_energy_reference(a, b);
            assert_eq!(gc.re.to_bits(), wc.re.to_bits(), "n={n}");
            assert_eq!(gc.im.to_bits(), wc.im.to_bits(), "n={n}");
            assert_eq!(ge.to_bits(), we.to_bits(), "n={n}");
        }
    }

    #[test]
    fn qam_axis_soft_matches_qam_axis_soft_reference_bit_exactly() {
        for &n in &LENS {
            for bits in 1..=5u32 {
                let xs = noise(n, 70 + bits);
                let mut got = vec![0.0f32; n * bits as usize];
                let mut want = vec![0.0f32; n * bits as usize];
                qam_axis_soft(&xs, bits, 0.31, &mut got);
                qam_axis_soft_reference(&xs, bits, 0.31, &mut want);
                for i in 0..got.len() {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "n={n} bits={bits} i={i}");
                }
            }
        }
    }

    #[test]
    fn force_scalar_round_trips() {
        force_scalar(true);
        assert_eq!(backend(), Backend::Scalar);
        force_scalar(false);
        let _ = backend();
        // Kernels still agree after toggling.
        let a = cnoise(33, 91);
        let b = cnoise(33, 92);
        let with_dispatch = dot_mul_conj_energy(&a, &b);
        force_scalar(true);
        let forced = dot_mul_conj_energy(&a, &b);
        force_scalar(false);
        assert_eq!(with_dispatch.0.re.to_bits(), forced.0.re.to_bits());
        assert_eq!(with_dispatch.0.im.to_bits(), forced.0.im.to_bits());
        assert_eq!(with_dispatch.1.to_bits(), forced.1.to_bits());
    }
}
