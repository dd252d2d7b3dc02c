//! Runtime-dispatched SIMD kernels for the DSP hot paths.
//!
//! One hand-written kernel lives here, [`polyphase`], because its vector
//! path measurably pays on a benchmark workload's `unit_xrt` (DESIGN §11
//! has the per-kernel table; the one other hand-written kernel is the
//! Viterbi's `sonic_fec::viterbi::acs_step`). Beside it, [`vectorized`]
//! compiles a caller's plain block loop (a [`Block`]) for AVX2 with no
//! hand-written vector code: the FM hop's modulator phasors, RF channel,
//! discriminator and composite loops in `sonic_radio`. A vector path stays
//! only while pinning it to its scalar twin moves a workload's `unit_xrt`
//! down beyond the parent's quartile spread; a kernel that fails the test
//! becomes one plain scalar function beside its caller (the FFT butterfly
//! and spectrum multiply in [`crate::plan`], the burst detector's
//! correlation in `sonic_modem::ofdm::sync`, the 64-QAM per-axis demapper
//! in `sonic_modem::constellation`), or goes if its caller
//! already has one (the direct-form FIR is [`crate::fir::Fir::push`]'s
//! loop).
//!
//! [`polyphase`] comes in three implementations:
//!
//! * a **scalar twin**, [`dot_reference`] per output — the executable
//!   specification, always compiled, and the only implementation on
//!   architectures without a vector path;
//! * an **AVX2** path (`x86_64`, selected at runtime via
//!   `is_x86_feature_detected!`), eight outputs at a time;
//! * a **NEON** path (`aarch64`, selected at runtime via
//!   `is_aarch64_feature_detected!`), one output at a time.
//!
//! The vector paths are written to be **bit-exact** with their scalar twins:
//! they vectorize *across independent outputs*, keep each output's accumulation
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
// Block loops compiled for the vector width
// ---------------------------------------------------------------------------

/// One block of a plain Rust loop that [`vectorized`] compiles for the
/// widest backend dispatch picked.
///
/// The loop is written once, as scalar code with plain `*` / `+` and
/// selects, and the implementation marks `run` `#[inline(always)]` so that
/// it (and every `#[inline(always)]` helper it calls, such as
/// [`crate::math::sin_cos`]) is inlined into the AVX2 wrapper and compiled
/// with 256-bit vectors. A closure handed to the wrapper would not be: it
/// keeps the baseline codegen. Rust never contracts `*` and `+` into FMA,
/// and AVX2 does not enable FMA, so both compilations give the same bits.
pub trait Block {
    /// Runs the loop over its block.
    fn run(self);
}

/// Runs `block` once, compiled for AVX2 when dispatch picked it and as a
/// plain call otherwise (NEON is aarch64's baseline, so the plain call is
/// already vector code there).
///
/// One dispatch per block: callers hand over a whole block (a thousand
/// samples or more), never a sample.
#[inline]
pub fn vectorized<B: Block>(block: B) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2.
        Backend::Avx2 => unsafe { run_avx2(block) },
        _ => block.run(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available.
unsafe fn run_avx2<B: Block>(block: B) {
    block.run();
}

// ---------------------------------------------------------------------------
// Polyphase FIR block: out[o] = Σ bank[p_o][k]·window[i_o + k]
// ---------------------------------------------------------------------------

/// Number of independent accumulator lanes of one polyphase output.
///
/// An output's sum is *defined* as a LANES-way split: product `k` goes to
/// lane `k mod LANES`, and the lanes are reduced sequentially at the end
/// ([`dot_reference`]). The AVX2 path (eight outputs, transposed) and the
/// NEON path (paired 4-wide accumulators) implement exactly this, so
/// results are bit-identical across backends.
pub const DOT_LANES: usize = 8;

/// One block of a polyphase FIR, the body of
/// [`crate::resample::Resampler`].
///
/// `bank` holds `up` phases of `taps = bank.len() / up` coefficients each,
/// phase after phase, every phase oldest-tap-first. On a clock of `up`
/// ticks per `window` sample the outputs fire every `down` ticks, the first
/// at tick `first`: output `o` at tick `τ = first + o·down` is
/// [`dot_reference`] of phase `τ mod up` against `window[τ / up..][..taps]`.
///
/// The AVX2 path computes eight outputs at a time, one 8-lane accumulator
/// each, transposes the eight accumulators and sums their lanes in
/// [`dot_reference`]'s order; the outputs past the last whole group of
/// eight, and every output on backends without a vector path, are
/// [`dot_reference`] itself. The NEON path computes one output at a time
/// with two 4-wide accumulators standing for the eight lanes.
///
/// # Panics
/// Panics if `bank` is empty or not `up` phases long, or if the last
/// output's window runs past `window`.
pub fn polyphase(bank: &[f32], up: usize, down: usize, window: &[f32], first: usize, out: &mut [f32]) {
    assert!(up > 0 && !bank.is_empty() && bank.len().is_multiple_of(up), "bank must be {up} equal phases");
    let taps = bank.len() / up;
    if let Some(last) = out.len().checked_sub(1) {
        let end = (first + last * down) / up + taps;
        assert!(end <= window.len(), "window of {} samples ends before {end}", window.len());
    }
    let clock = Clock::new(up, down, first);
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch returned Avx2, so the CPU supports AVX2; the
        // asserts above bound every window the clock reaches.
        Backend::Avx2 => unsafe { polyphase_avx2(bank, taps, clock, window, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch returned Neon, so the CPU supports NEON; the
        // asserts above bound every window the clock reaches.
        Backend::Neon => unsafe { polyphase_neon(bank, taps, clock, window, out) },
        _ => polyphase_scalar(bank, taps, clock, window, out),
    }
}

/// Scalar twin of [`polyphase`]'s per-output sum: `Σ a[k]·b[k]` in the
/// lane-split order described at [`DOT_LANES`].
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

/// The polyphase output clock: the window start `i` and phase `p` of the
/// next output, advanced by `down` ticks a step without a division.
#[derive(Debug, Clone, Copy)]
struct Clock {
    i: usize,
    p: usize,
    up: usize,
    step: usize,
    carry: usize,
}

impl Clock {
    fn new(up: usize, down: usize, first: usize) -> Self {
        Clock {
            i: first / up,
            p: first % up,
            up,
            step: down / up,
            carry: down % up,
        }
    }

    /// `(window start, phase)` of the next output.
    #[inline(always)]
    fn tick(&mut self) -> (usize, usize) {
        let now = (self.i, self.p);
        self.i += self.step;
        self.p += self.carry;
        if self.p >= self.up {
            self.p -= self.up;
            self.i += 1;
        }
        now
    }
}

fn polyphase_scalar(bank: &[f32], taps: usize, mut clock: Clock, window: &[f32], out: &mut [f32]) {
    for o in out {
        let (i, p) = clock.tick();
        *o = dot_reference(&bank[p * taps..][..taps], &window[i..i + taps]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller guarantees AVX2 is available, `bank.len() == up · taps` and
// that every window the clock reaches for `out` lies inside `window`.
unsafe fn polyphase_avx2(bank: &[f32], taps: usize, mut clock: Clock, window: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let whole = taps / 8 * 8;
    // Lanes below the tail's length load; the rest read as +0.0, and
    // +0.0 · +0.0 added to a lane leaves it as it was (a lane that starts
    // at +0.0 never becomes −0.0).
    let tail = _mm256_cmpgt_epi32(
        _mm256_set1_epi32((taps - whole) as i32), // lint: checked-cast — below 8
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let mut groups = out.chunks_exact_mut(8);
    for group in &mut groups {
        let mut xs = [window.as_ptr(); 8];
        let mut hs = [bank.as_ptr(); 8];
        for (x, h) in xs.iter_mut().zip(&mut hs) {
            let (i, p) = clock.tick();
            // SAFETY: p < up and i + taps ≤ window.len() (the caller's
            // bounds), so both pointers start `taps` readable floats.
            unsafe {
                *x = x.add(i);
                *h = h.add(p * taps);
            }
        }
        let mut acc = [_mm256_setzero_ps(); 8];
        let mut k = 0;
        while k < whole {
            for ((a, &x), &h) in acc.iter_mut().zip(&xs).zip(&hs) {
                // SAFETY: k + 8 ≤ whole ≤ taps floats from each pointer.
                let (xv, hv) = unsafe { (_mm256_loadu_ps(x.add(k)), _mm256_loadu_ps(h.add(k))) };
                *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, hv));
            }
            k += 8;
        }
        if whole < taps {
            for ((a, &x), &h) in acc.iter_mut().zip(&xs).zip(&hs) {
                // SAFETY: the mask loads only lanes below taps − whole,
                // which lie inside each pointer's `taps` floats.
                let (xv, hv) = unsafe {
                    (_mm256_maskload_ps(x.add(whole), tail), _mm256_maskload_ps(h.add(whole), tail))
                };
                *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, hv));
            }
        }
        // Transpose: lane[l] holds lane l of all eight outputs, so the
        // sequential lane sum runs for the eight outputs at once.
        let t0 = _mm256_unpacklo_ps(acc[0], acc[1]);
        let t1 = _mm256_unpackhi_ps(acc[0], acc[1]);
        let t2 = _mm256_unpacklo_ps(acc[2], acc[3]);
        let t3 = _mm256_unpackhi_ps(acc[2], acc[3]);
        let t4 = _mm256_unpacklo_ps(acc[4], acc[5]);
        let t5 = _mm256_unpackhi_ps(acc[4], acc[5]);
        let t6 = _mm256_unpacklo_ps(acc[6], acc[7]);
        let t7 = _mm256_unpackhi_ps(acc[6], acc[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        let lane = [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ];
        let mut sum = _mm256_setzero_ps();
        for l in lane {
            sum = _mm256_add_ps(sum, l);
        }
        // SAFETY: the group is 8 f32s, exactly one __m256.
        unsafe { _mm256_storeu_ps(group.as_mut_ptr(), sum) };
    }
    polyphase_scalar(bank, taps, clock, window, groups.into_remainder());
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available and that every window the
// clock reaches for `out` lies inside `window`.
unsafe fn polyphase_neon(bank: &[f32], taps: usize, mut clock: Clock, window: &[f32], out: &mut [f32]) {
    for o in out {
        let (i, p) = clock.tick();
        // SAFETY: NEON is available (this function's contract), and both
        // slices are `taps` long.
        *o = unsafe { dot_neon(&bank[p * taps..][..taps], &window[i..i + taps]) };
    }
}

/// One output of [`polyphase`] on NEON: [`dot_reference`] of two slices of
/// equal length.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller guarantees NEON is available and `a.len() == b.len()`.
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

    #[test]
    fn backend_name_is_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Neon.name(), "neon");
        let _ = backend();
    }

    /// Every output against [`dot_reference`] at its own window and phase:
    /// tap counts below, at and past a vector and not a multiple of eight,
    /// output counts that end inside a group of eight, and starting ticks
    /// inside and past the first window.
    #[test]
    fn polyphase_matches_dot_reference_per_output() {
        for (up, down) in [(1, 1), (1, 4), (3, 1), (7, 3), (147, 760), (760, 147)] {
            for taps in [1, 7, 8, 9, 32, 37] {
                let bank = noise(up * taps, (up * 31 + taps) as u32);
                for outputs in [0usize, 1, 7, 8, 9, 17, 40] {
                    for first in [0, up - 1, up + down / 2] {
                        let last = first + outputs.saturating_sub(1) * down;
                        let window = noise(last / up + taps + 3, (first + outputs) as u32);
                        let mut got = vec![f32::NAN; outputs];
                        polyphase(&bank, up, down, &window[1..], first, &mut got);
                        for (o, y) in got.iter().enumerate() {
                            let tick = first + o * down;
                            let (i, p) = (tick / up, tick % up);
                            let want = dot_reference(&bank[p * taps..][..taps], &window[1 + i..][..taps]);
                            assert_eq!(
                                y.to_bits(),
                                want.to_bits(),
                                "up={up} down={down} taps={taps} outputs={outputs} first={first} o={o}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "window of")]
    fn polyphase_refuses_a_short_window() {
        let mut out = [0.0f32; 9];
        polyphase(&[1.0; 8], 1, 1, &[0.0; 15], 0, &mut out);
    }

    /// A block loop of the shape the radio hands [`vectorized`]: the same
    /// bits with and without the AVX2 compilation.
    struct SinCos<'a> {
        x: &'a [f64],
        out: &'a mut [f32],
    }

    impl Block for SinCos<'_> {
        #[inline(always)]
        fn run(self) {
            for (o, &x) in self.out.iter_mut().zip(self.x) {
                let (sin, cos) = crate::math::sin_cos(x);
                *o = (sin * cos + crate::math::ln(1.5 + sin)) as f32;
            }
        }
    }

    #[test]
    fn vectorized_block_matches_its_plain_run() {
        let x: Vec<f64> = noise(1_027, 5).iter().map(|&v| f64::from(v) * 40.0).collect();
        let mut got = vec![0.0f32; x.len()];
        vectorized(SinCos { x: &x, out: &mut got });
        let mut want = vec![0.0f32; x.len()];
        SinCos { x: &x, out: &mut want }.run();
        assert!(got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn force_scalar_round_trips() {
        force_scalar(true);
        assert_eq!(backend(), Backend::Scalar);
        force_scalar(false);
        let _ = backend();
        // Kernels still agree after toggling.
        let bank = noise(64, 91);
        let window = noise(80, 92);
        let mut with_dispatch = [0.0f32; 9];
        polyphase(&bank, 2, 3, &window, 1, &mut with_dispatch);
        force_scalar(true);
        let mut forced = [0.0f32; 9];
        polyphase(&bank, 2, 3, &window, 1, &mut forced);
        force_scalar(false);
        assert_eq!(with_dispatch.map(f32::to_bits), forced.map(f32::to_bits));
    }
}
