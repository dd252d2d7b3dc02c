//! Runtime-dispatched SIMD kernels for the DSP hot paths.
//!
//! Two kernels live here — [`dot`] and [`qam_axis_soft`] — because their
//! vector paths measurably pay on a benchmark workload's `unit_xrt` (DESIGN
//! §11 has the per-kernel table; the one other dispatched kernel is the
//! Viterbi's `sonic_fec::viterbi::acs_step`). A vector path stays only while
//! pinning that one kernel to its scalar twin moves a workload's `unit_xrt`
//! down beyond the parent's quartile spread; a kernel that fails the test
//! becomes one plain scalar function beside its caller (the FFT butterfly
//! and spectrum multiply in [`crate::plan`], the FM discriminator pair in
//! `sonic_radio::fm`, the burst detector's correlation in
//! `sonic_modem::ofdm::sync`), or goes if its caller already has one (the
//! direct-form FIR is [`crate::fir::Fir::push`]'s loop).
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
// Real dot product: Σ a[i]·b[i]
// ---------------------------------------------------------------------------

/// Number of independent accumulator lanes used by [`dot`].
///
/// The sum is *defined* as a LANES-way split: element `i` of a full chunk
/// goes to lane `i mod LANES`, tail elements continue in lane order, and the
/// lanes are reduced sequentially at the end. Both the scalar twin and the
/// vector paths implement exactly this, so results are bit-identical across
/// backends (NEON accumulates pairs of 4-wide vectors to match).
pub const DOT_LANES: usize = 8;

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
        let a = noise(33, 91);
        let b = noise(33, 92);
        let with_dispatch = dot(&a, &b);
        force_scalar(true);
        let forced = dot(&a, &b);
        force_scalar(false);
        assert_eq!(with_dispatch.to_bits(), forced.to_bits());
    }
}
