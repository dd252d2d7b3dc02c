//! Soft-decision Viterbi decoder for the K=9 rate-1/2 code in [`crate::conv`].
//!
//! Full-block traceback: the encoder terminates in the zero state, so the
//! decoder anchors its traceback there, which buys ~0.5 dB over free-running
//! traceback at SONIC's frame sizes.
//!
//! [`decode_soft`] decodes on integers, as libfec's `v29` does:
//!
//! * **Quantiser.** A block's soft bits (positive ⇔ 1) are scaled once, by
//!   the factor that maps the block's mean |s| to 128, then rounded and
//!   clamped to ±1023 (10-bit soft, clipping only beyond 8× the mean). The
//!   scale is a property of the input, not a setting. NaN quantises to 0 (an
//!   erasure) and ±∞ to the clamp.
//! * **Butterflies.** Both generators tap the newest and the oldest register
//!   bit, so the four edges from predecessors `p` and `p + 128` into states
//!   `2p` and `2p + 1` carry `±bm` of one `bm = ±q0 ± q1` per predecessor,
//!   its two signs read from two constant `i16` masks with no multiply:
//!   `next[2p] = max(pm[p] + bm, pm[p + 128] − bm)` and `next[2p + 1] =
//!   max(pm[p] − bm, pm[p + 128] + bm)`, with saturating adds. Strict `>`
//!   keeps the low predecessor on a tie, as the reference decoder does. The
//!   masks repeat every 16 predecessors up to one flip of each per run, so
//!   the vector kernels form the four `±q0 ± q1` vectors once a step and
//!   each run of butterflies picks one.
//! * **Path metrics.** 256 `i16`s, renormalised every 16 steps by
//!   subtracting their maximum, from the step where every state is
//!   reachable on. The maximum never falls from one step to the next (each
//!   state has an outgoing edge with `bm ≥ 0`) and rises by at most 2046 a
//!   step, and no metric is more than 16 · 2046 below it (any state is 8
//!   steps from the state that was best 8 steps earlier), so every metric
//!   stays in [−32 736, 32 736]: only a losing candidate can saturate, and
//!   the decode is exact integer Viterbi on the quantised input. The 255
//!   states the zero state cannot yet reach start at `i16::MIN`, which stays
//!   below every reachable candidate for the 8 steps until they can.
//! * **Decisions.** One bit per state and step, 32 B a step, packed in the
//!   order AVX2's `packs` + `movemask` produce: one `u32` per 16
//!   predecessors (see [`acs_step`]). The traceback indexes that layout.
//!
//! The add-compare-select step has one kernel per backend — AVX2 (16 lanes),
//! NEON (8) and the scalar twin [`acs_step_reference`] — selected once at
//! runtime by `sonic_dsp::simd`. Integer arithmetic makes them bit-identical,
//! metrics and decision words alike; `SONIC_DSP_FORCE_SCALAR=1` forces the
//! twin.
//!
//! [`decode_soft_reference`] is the original `f32` scatter-form decoder, kept
//! as the oracle. Quantising makes the integer decoder a different decoder,
//! so what is held against the oracle is equal decoded bits on clean,
//! single-error and above-the-cliff input, and a frame-error-rate table
//! (`sonic_sim::experiments::viterbi`, gated in the `paper` bench target;
//! EXPERIMENTS.md) that bounds the loss.

use crate::conv::{step, K, TAIL};
use sonic_dsp::simd::{self, Backend};

/// Number of trellis states (2^(K-1)).
pub const STATES: usize = 1 << (K - 1);

/// Butterflies per trellis step: predecessor pairs `(p, p + PAIRS)`.
const PAIRS: usize = STATES / 2;

/// `u32` decision words per trellis step, one per 16 predecessor pairs.
pub const WORDS: usize = PAIRS / 16;

/// Largest |quantised soft value|: the kernels' contract on `q0`, `q1`.
pub const SOFT_MAX: i16 = 1023;

/// What a block's mean |soft value| quantises to.
const SOFT_MEAN: f64 = 128.0;

/// Trellis steps between two renormalisations of the path metrics.
const RENORM_EVERY: usize = 16;

/// Path-metric value for unreachable states in the `f32` reference. Large
/// enough that no real path metric (sums of |soft| ≤ a few thousand) ever
/// approaches it, and exact in f32 arithmetic: `NEG + x == NEG` for any
/// |x| ≤ 2, so an unreachable predecessor can never win the compare-select
/// against a reachable one.
const NEG: f32 = -1e30;

/// Branch-metric sign masks, one plane per coded bit: `-1` where the edge
/// from predecessor `p` into state `2p` emits a 0 (its correlation is `−q`),
/// `0` where it emits a 1. Checked at compile time: the other three edges of
/// each butterfly emit the complements the butterfly form assumes.
static NEGATE: [[i16; PAIRS]; 2] = negate_masks();

const fn negate_masks() -> [[i16; PAIRS]; 2] {
    let mut masks = [[0i16; PAIRS]; 2];
    let mut p = 0;
    while p < PAIRS {
        // lint: checked-cast — p < PAIRS = 128, and p + PAIRS < 256
        let (low, high) = (p as u16, (p + PAIRS) as u16);
        let (n, a, b) = step(low, 0);
        let (n_high, a_high, b_high) = step(high, 0);
        let (_, a_odd, b_odd) = step(low, 1);
        assert!(n as usize == 2 * p && n_high == n);
        assert!(a_high != a && b_high != b && a_odd != a && b_odd != b);
        masks[0][p] = a as i16 - 1;
        masks[1][p] = b as i16 - 1;
        p += 1;
    }
    masks
}

/// Which of the four `±q0 ± q1` vectors each run of `L` predecessors takes:
/// bit 1 set where the run's `a` signs are the first run's flipped, bit 0
/// where its `b` signs are. Within a run of 16 (or 8) the signs repeat up to
/// these two flips, because the register bits the run index feeds (5–7 of
/// `p << 1`) reach each output only as one parity — checked at compile time.
const fn run_flips<const L: usize, const N: usize>() -> [u8; N] {
    assert!(L * N == PAIRS);
    let masks = negate_masks();
    let mut flips = [0u8; N];
    let mut run = 0;
    while run < N {
        let flip_a = masks[0][L * run] != masks[0][0];
        let flip_b = masks[1][L * run] != masks[1][0];
        let mut k = 0;
        while k < L {
            assert!((masks[0][L * run + k] != masks[0][k]) == flip_a);
            assert!((masks[1][L * run + k] != masks[1][k]) == flip_b);
            k += 1;
        }
        flips[run] = (flip_a as u8) << 1 | flip_b as u8;
        run += 1;
    }
    flips
}

/// Precomputed branch outputs for the reference decoder:
/// `outputs[state][bit] = (next, out_a, out_b)`.
fn transition_table() -> &'static Vec<[(u16, u8, u8); 2]> {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<[(u16, u8, u8); 2]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..STATES as u16)
            .map(|s| [step(s, 0), step(s, 1)])
            .collect()
    })
}

/// One trellis step of add-compare-select over the 256 path metrics `cur`:
/// writes the next step's metrics to `next` and its decisions to `row`,
/// dispatching to the runtime-selected SIMD backend. Scalar twin:
/// [`acs_step_reference`]; the two agree bit for bit on every input.
///
/// Bit `(k & 7) | b << 3 | (k >> 3) << 4` of `row[w]` is set when state
/// `2p + b`, `p = 16w + k`, took predecessor `p + 128` over `p`. Metrics
/// may be any `i16` (candidates saturate); `q0` and `q1` must lie within
/// ±[`SOFT_MAX`], which keeps every branch metric exact.
pub fn acs_step(
    cur: &[i16; STATES],
    next: &mut [i16; STATES],
    row: &mut [u32; WORDS],
    q0: i16,
    q1: i16,
) {
    match simd::backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher only reports Avx2 after runtime detection
        // confirmed the CPU supports it.
        Backend::Avx2 => unsafe { acs_step_avx2(cur, next, row, q0, q1) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: the dispatcher only reports Neon after runtime detection
        // confirmed the CPU supports it.
        Backend::Neon => unsafe { acs_step_neon(cur, next, row, q0, q1) },
        _ => acs_step_reference(cur, next, row, q0, q1),
    }
}

/// Scalar twin of [`acs_step`], one butterfly at a time, with the vector
/// kernels' wrapping branch metric; dev builds check the `q` contract that
/// keeps it exact.
pub fn acs_step_reference(
    cur: &[i16; STATES],
    next: &mut [i16; STATES],
    row: &mut [u32; WORDS],
    q0: i16,
    q1: i16,
) {
    let max = SOFT_MAX.unsigned_abs();
    debug_assert!(
        q0.unsigned_abs() <= max && q1.unsigned_abs() <= max,
        "q ({q0}, {q1})"
    );
    for (w, word) in row.iter_mut().enumerate() {
        let mut bits = 0u32;
        for k in 0..16 {
            let p = 16 * w + k;
            let (na, nb) = (NEGATE[0][p], NEGATE[1][p]);
            let bm = (q0 ^ na)
                .wrapping_sub(na)
                .wrapping_add((q1 ^ nb).wrapping_sub(nb));
            let (b0, b1) = (cur[p], cur[p + PAIRS]);
            let (m00, m01) = (b0.saturating_add(bm), b1.saturating_sub(bm));
            let (m10, m11) = (b0.saturating_sub(bm), b1.saturating_add(bm));
            next[2 * p] = m00.max(m01);
            next[2 * p + 1] = m10.max(m11);
            let lane = (k & 7) | (k >> 3) << 4;
            bits |= u32::from(m01 > m00) << lane | u32::from(m11 > m10) << (lane | 8);
        }
        *word = bits;
    }
}

/// AVX2 ACS: 16 butterflies per iteration, one decision word each.
/// Bit-identical to [`acs_step_reference`]: the same wrapping branch metrics
/// (the four `±q0 ± q1` vectors of the first 16 butterflies, formed once and
/// picked per run by [`run_flips`]), `adds`/`subs` saturate as
/// `saturating_add`/`_sub` do, `cmpgt` is strict `>`, and `packs` +
/// `movemask` lay the two compare masks out in the documented bit order.
///
/// # Safety
/// Callers must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` per target_feature; the body's pointer arithmetic is
// justified at the inner block below.
unsafe fn acs_step_avx2(
    cur: &[i16; STATES],
    next: &mut [i16; STATES],
    row: &mut [u32; WORDS],
    q0: i16,
    q1: i16,
) {
    use std::arch::x86_64::*;
    const FLIPS: [u8; WORDS] = run_flips::<16, WORDS>();
    // Bounds: with p = 16w ≤ 112, every load reads 16 i16 at offset p or
    // p + PAIRS (≤ 240) of a 256-element metric array or at 0 of a
    // 128-element mask plane; the stores write 16 i16 at 2p and 2p + 16
    // (≤ 240) of the 256-element `next`.
    // SAFETY: all pointer arithmetic stays in-bounds per the bounds note
    // above; loadu/storeu require no alignment.
    unsafe {
        let na = _mm256_loadu_si256(NEGATE[0].as_ptr().cast());
        let nb = _mm256_loadu_si256(NEGATE[1].as_ptr().cast());
        let qa = _mm256_sub_epi16(_mm256_xor_si256(_mm256_set1_epi16(q0), na), na);
        let qb = _mm256_sub_epi16(_mm256_xor_si256(_mm256_set1_epi16(q1), nb), nb);
        let sum = _mm256_add_epi16(qa, qb);
        let bms = [
            sum,
            _mm256_sub_epi16(qa, qb),
            _mm256_sub_epi16(qb, qa),
            _mm256_sub_epi16(_mm256_setzero_si256(), sum),
        ];
        let cp = cur.as_ptr();
        let np = next.as_mut_ptr();
        for (w, word) in row.iter_mut().enumerate() {
            let p = 16 * w;
            let bm = bms[usize::from(FLIPS[w] & 3)];
            let b0 = _mm256_loadu_si256(cp.add(p).cast());
            let b1 = _mm256_loadu_si256(cp.add(p + PAIRS).cast());
            let m00 = _mm256_adds_epi16(b0, bm);
            let m01 = _mm256_subs_epi16(b1, bm);
            let m10 = _mm256_subs_epi16(b0, bm);
            let m11 = _mm256_adds_epi16(b1, bm);
            let n0 = _mm256_max_epi16(m00, m01);
            let n1 = _mm256_max_epi16(m10, m11);
            // Interleave the even/odd target-state metrics into
            // next[2p..2p+32]: unpack interleaves within 128-bit lanes, the
            // permutes stitch the lane halves back in order.
            let lo = _mm256_unpacklo_epi16(n0, n1);
            let hi = _mm256_unpackhi_epi16(n0, n1);
            _mm256_storeu_si256(
                np.add(2 * p).cast(),
                _mm256_permute2x128_si256::<0x20>(lo, hi),
            );
            _mm256_storeu_si256(
                np.add(2 * p + 16).cast(),
                _mm256_permute2x128_si256::<0x31>(lo, hi),
            );
            let sel0 = _mm256_cmpgt_epi16(m01, m00);
            let sel1 = _mm256_cmpgt_epi16(m11, m10);
            // Per 128-bit lane: 8 bytes of sel0, then 8 of sel1.
            *word = _mm256_movemask_epi8(_mm256_packs_epi16(sel0, sel1)) as u32;
        }
    }
}

/// NEON ACS: 8 butterflies per iteration, two per decision word; the same
/// bit-exactness argument as the AVX2 kernel (branch metrics picked per run
/// of 8, `vqadd`/`vqsub` saturate, `vcgt` is strict `>`, `vst2` interleaves
/// the even/odd target-state metrics), with the compare masks weighted by
/// lane and summed in place of `movemask`.
///
/// # Safety
/// Callers must ensure the CPU supports NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: `unsafe fn` per target_feature; the body's pointer arithmetic is
// justified at the inner block below.
unsafe fn acs_step_neon(
    cur: &[i16; STATES],
    next: &mut [i16; STATES],
    row: &mut [u32; WORDS],
    q0: i16,
    q1: i16,
) {
    use std::arch::aarch64::*;
    const LANE_BITS: [u16; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
    const FLIPS: [u8; 2 * WORDS] = run_flips::<8, { 2 * WORDS }>();
    // Bounds: with p = 16w + 8h ≤ 120, every load reads 8 i16 at offset p
    // or p + PAIRS (≤ 248) of a 256-element metric array or at 0 of a
    // 128-element mask plane; vst2q_s16 writes 16 i16 at 2p (≤ 240) of the
    // 256-element `next`.
    // SAFETY: all pointer arithmetic stays in-bounds per the bounds note
    // above; NEON loads/stores require no alignment.
    unsafe {
        let na = vld1q_s16(NEGATE[0].as_ptr());
        let nb = vld1q_s16(NEGATE[1].as_ptr());
        let qa = vsubq_s16(veorq_s16(vdupq_n_s16(q0), na), na);
        let qb = vsubq_s16(veorq_s16(vdupq_n_s16(q1), nb), nb);
        let sum = vaddq_s16(qa, qb);
        let bms = [sum, vsubq_s16(qa, qb), vsubq_s16(qb, qa), vnegq_s16(sum)];
        let lane_bits = vld1q_u16(LANE_BITS.as_ptr());
        let cp = cur.as_ptr();
        let np = next.as_mut_ptr();
        for (w, word) in row.iter_mut().enumerate() {
            let mut bits = 0u32;
            for h in 0..2 {
                let p = 16 * w + 8 * h;
                let bm = bms[usize::from(FLIPS[2 * w + h] & 3)];
                let b0 = vld1q_s16(cp.add(p));
                let b1 = vld1q_s16(cp.add(p + PAIRS));
                let m00 = vqaddq_s16(b0, bm);
                let m01 = vqsubq_s16(b1, bm);
                let m10 = vqsubq_s16(b0, bm);
                let m11 = vqaddq_s16(b1, bm);
                vst2q_s16(
                    np.add(2 * p),
                    int16x8x2_t(vmaxq_s16(m00, m01), vmaxq_s16(m10, m11)),
                );
                let sel0 = u32::from(vaddvq_u16(vandq_u16(vcgtq_s16(m01, m00), lane_bits)));
                let sel1 = u32::from(vaddvq_u16(vandq_u16(vcgtq_s16(m11, m10), lane_bits)));
                bits |= (sel0 | sel1 << 8) << (16 * h);
            }
            *word = bits;
        }
    }
}

/// The block's quantiser gain: maps the mean |s| of its finite soft values
/// to [`SOFT_MEAN`]; 0 when there is nothing to measure (no finite nonzero
/// value), which quantises the whole block to erasures.
fn soft_scale(soft: &[f32]) -> f32 {
    let (sum, n) = soft
        .iter()
        .filter(|s| s.is_finite())
        .fold((0.0f64, 0.0f64), |(sum, n), s| {
            (sum + f64::from(s.abs()), n + 1.0)
        });
    let mean = sum / n;
    if mean > 0.0 {
        (SOFT_MEAN / mean) as f32
    } else {
        0.0
    }
}

/// One soft value on the integer metric scale: `s · scale`, clamped to
/// ±[`SOFT_MAX`] and rounded half away from zero. NaN (including `∞ · 0`)
/// casts to 0.
fn quantise(s: f32, scale: f32) -> i16 {
    let max = f32::from(SOFT_MAX);
    let x = (s * scale).clamp(-max, max);
    (x + 0.5f32.copysign(x)) as i16
}

/// Subtracts the largest path metric from all of them. Exact once every
/// state is reachable: the module doc's bound keeps every metric within
/// 32 736 of the largest, which dev builds check once per call (the most
/// negative difference is the smallest metric's).
fn renormalise(pm: &mut [i16; STATES]) {
    let (min, max) = pm
        .iter()
        .fold((i16::MAX, i16::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    debug_assert!(
        min.checked_sub(max).is_some(),
        "path metrics span {min}..={max}"
    );
    for m in pm.iter_mut() {
        *m = m.wrapping_sub(max);
    }
}

/// Reusable working memory for [`decode_soft_into`]: the block's quantised
/// soft values, 4 B per trellis step, and the packed decision words, 32 B
/// per step — 0.15 + 1.17 MB for a 36 608-bit burst, against ≈ 28 MB of
/// per-edge `u8` + `u16` traceback arrays the reference decoder allocates
/// for the same block. Decoding never allocates once the buffers have grown
/// to the largest block seen; the path metrics live on the stack.
#[derive(Default)]
pub struct ViterbiScratch {
    quantised: Vec<i16>,
    decisions: Vec<[u32; WORDS]>,
}

impl ViterbiScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decodes `soft` coded values (2 per info bit, positive ⇔ 1) produced from
/// a terminated block of `info_bits` information bits. Any values are
/// accepted: the block is quantised by its own mean |s| (module doc).
///
/// Returns the decoded information bits (tail stripped).
///
/// # Panics
/// Panics if `soft.len() != (info_bits + 8) * 2`.
pub fn decode_soft(soft: &[f32], info_bits: usize) -> Vec<u8> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<ViterbiScratch> =
            std::cell::RefCell::new(ViterbiScratch::new());
    }
    SCRATCH.with(|s| {
        let mut out = Vec::new();
        decode_soft_into(soft, info_bits, &mut s.borrow_mut(), &mut out);
        out
    })
}

/// Allocation-free variant of [`decode_soft`]: decodes into `out` using
/// caller-provided scratch. `out` is cleared first.
///
/// # Panics
/// Panics if `soft.len() != (info_bits + 8) * 2`.
pub fn decode_soft_into(
    soft: &[f32],
    info_bits: usize,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    let steps = info_bits + TAIL;
    assert_eq!(
        soft.len(),
        steps * 2,
        "soft input length {} does not match {} trellis steps",
        soft.len(),
        steps
    );
    if scratch.decisions.len() < steps {
        scratch.decisions.resize(steps, [0; WORDS]);
    }
    let decisions = &mut scratch.decisions[..steps];

    let scale = soft_scale(soft);
    scratch.quantised.resize(soft.len(), 0);
    for (q, &s) in scratch.quantised.iter_mut().zip(soft) {
        *q = quantise(s, scale);
    }
    let (mut a, mut b) = ([i16::MIN; STATES], [0i16; STATES]);
    a[0] = 0;
    // Swapping the references, not the 512-byte arrays.
    let (mut pm, mut next) = (&mut a, &mut b);
    for (t, (pair, row)) in scratch
        .quantised
        .chunks_exact(2)
        .zip(decisions.iter_mut())
        .enumerate()
    {
        // Every state is reachable from step K - 1 = TAIL on.
        if t >= TAIL && t % RENORM_EVERY == 0 {
            renormalise(pm);
        }
        acs_step(pm, next, row, pair[0], pair[1]);
        std::mem::swap(&mut pm, &mut next);
    }

    // Anchor at the zero state (termination) and walk the decisions back.
    out.clear();
    out.resize(steps, 0);
    let mut state = 0usize;
    for (bit, row) in out.iter_mut().zip(decisions.iter()).rev() {
        *bit = (state & 1) as u8;
        let p = state >> 1;
        let lane = (p & 7) | (state & 1) << 3 | (p & 8) << 1;
        let took_high = (row[p >> 4] >> lane) & 1;
        state = p | (took_high as usize) << (K - 2);
    }
    out.truncate(info_bits);
}

/// Original scatter-form `f32` decoder, kept as the oracle for the integer
/// [`decode_soft`] path. Allocates fresh traceback arrays per call; property
/// tests and the `paper` bench target's FER sweep hold `decode_soft`
/// against it.
pub fn decode_soft_reference(soft: &[f32], info_bits: usize) -> Vec<u8> {
    let steps = info_bits + TAIL;
    assert_eq!(
        soft.len(),
        steps * 2,
        "soft input length {} does not match {} trellis steps",
        soft.len(),
        steps
    );
    let table = transition_table();

    let mut pm = vec![NEG; STATES];
    pm[0] = 0.0;
    let mut next_pm = vec![NEG; STATES];
    // Traceback: chosen predecessor state packed per (step, state).
    let mut back = vec![0u8; steps * STATES]; // stores input bit OF PREDECESSOR edge
    let mut back_state = vec![0u16; steps * STATES];

    for t in 0..steps {
        let s0 = soft[2 * t];
        let s1 = soft[2 * t + 1];
        next_pm.fill(NEG);
        for state in 0..STATES {
            let base = pm[state];
            if base <= NEG {
                continue;
            }
            for (bit, &(next, oa, ob)) in table[state].iter().enumerate() {
                let m = base
                    + if oa == 1 { s0 } else { -s0 }
                    + if ob == 1 { s1 } else { -s1 };
                let n = next as usize;
                if m > next_pm[n] {
                    next_pm[n] = m;
                    back[t * STATES + n] = bit as u8;
                    back_state[t * STATES + n] = state as u16;
                }
            }
        }
        std::mem::swap(&mut pm, &mut next_pm);
    }

    let mut state = if pm[0] > NEG {
        0usize
    } else {
        pm.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };

    let mut bits = vec![0u8; steps];
    for t in (0..steps).rev() {
        bits[t] = back[t * STATES + state];
        state = back_state[t * STATES + state] as usize;
    }
    bits.truncate(info_bits);
    bits
}

/// Convenience: decode hard bits by mapping them to ±1 soft values.
pub fn decode_hard(coded: &[u8], info_bits: usize) -> Vec<u8> {
    let soft: Vec<f32> = coded.iter().map(|&b| if b & 1 == 1 { 1.0 } else { -1.0 }).collect();
    decode_soft(&soft, info_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode;

    fn pattern(n: usize, seed: u32) -> Vec<u8> {
        let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 1) as u8
            })
            .collect()
    }

    #[test]
    fn clean_roundtrip() {
        let info = pattern(200, 7);
        let coded = encode(&info);
        assert_eq!(decode_hard(&coded, info.len()), info);
    }

    #[test]
    fn corrects_scattered_hard_errors() {
        let info = pattern(300, 11);
        let mut coded = encode(&info);
        // Flip ~4% of coded bits, spread out (beyond any hard-decision
        // Hamming code, easy for a d_free=12 convolutional code).
        for i in (0..coded.len()).step_by(25) {
            coded[i] ^= 1;
        }
        assert_eq!(decode_hard(&coded, info.len()), info);
    }

    #[test]
    fn soft_decisions_beat_hard_on_noisy_input() {
        let info = pattern(400, 3);
        let coded = encode(&info);
        // Simulate an AWGN-ish channel deterministically: attenuate some
        // positions close to zero (unreliable) and flip a few of those.
        let mut soft: Vec<f32> = coded
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        let mut x = 12345u32;
        for (i, s) in soft.iter_mut().enumerate() {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let r = (x >> 16) as f32 / 65536.0;
            if i % 7 == 0 {
                // Unreliable sample, sometimes wrong-signed but small.
                *s *= if r > 0.7 { -0.1 } else { 0.1 };
            }
        }
        assert_eq!(decode_soft(&soft, info.len()), info);
    }

    #[test]
    fn erased_region_is_recovered() {
        let info = pattern(120, 5);
        let coded = encode(&info);
        let mut soft: Vec<f32> = coded
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        // Zero out (erase) a run of 10 coded bits — within the code's memory.
        for s in soft.iter_mut().skip(60).take(10) {
            *s = 0.0;
        }
        assert_eq!(decode_soft(&soft, info.len()), info);
    }

    #[test]
    fn empty_block_decodes_to_empty() {
        let coded = encode(&[]);
        assert_eq!(decode_hard(&coded, 0), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "trellis")]
    fn rejects_wrong_length() {
        decode_soft(&[0.0; 10], 100);
    }

    #[test]
    fn quantiser_maps_the_mean_to_128_and_every_value_into_range() {
        let soft = [0.5f32, -1.5, 1.0, -1.0];
        let scale = soft_scale(&soft);
        let q: Vec<i16> = soft.iter().map(|&s| quantise(s, scale)).collect();
        assert_eq!(q, [64, -192, 128, -128]);
        // Non-finite values are left out of the mean; NaN is an erasure and
        // ±∞ sits at the clamp, as do outliers.
        let soft = [
            1.0f32,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -100.0,
            0.0,
        ];
        let scale = soft_scale(&soft);
        let q: Vec<i16> = soft.iter().map(|&s| quantise(s, scale)).collect();
        assert_eq!(q, [4, 0, SOFT_MAX, -SOFT_MAX, -380, 0]);
        // Nothing to measure: every value quantises to an erasure.
        for soft in [&[0.0f32, -0.0][..], &[f32::NAN, f32::INFINITY], &[]] {
            let scale = soft_scale(soft);
            assert!(soft.iter().all(|&s| quantise(s, scale) == 0), "{soft:?}");
        }
    }

    #[test]
    fn path_metrics_stay_inside_the_bound_at_the_clamp() {
        // Every quantised value at ±SOFT_MAX, signs at random, through the
        // decode loop: the module doc's bound keeps the renormalisation's
        // subtraction (debug-asserted) and every metric inside i16, with no
        // surviving metric saturated.
        let mut x = 7u32;
        let mut q = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            if x & 1 == 1 {
                SOFT_MAX
            } else {
                -SOFT_MAX
            }
        };
        let (mut pm, mut next) = ([i16::MIN; STATES], [0i16; STATES]);
        pm[0] = 0;
        let mut row = [0u32; WORDS];
        for t in 0..4000 {
            if t >= TAIL && t % RENORM_EVERY == 0 {
                renormalise(&mut pm);
                assert!(pm.iter().all(|&m| m >= -32_736), "step {t}");
            }
            let (q0, q1) = (q(), q());
            acs_step(&pm, &mut next, &mut row, q0, q1);
            std::mem::swap(&mut pm, &mut next);
            if t >= TAIL {
                assert!(pm.iter().all(|&m| m > i16::MIN && m <= 32_736), "step {t}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stable_across_block_sizes() {
        let mut scratch = ViterbiScratch::new();
        let mut out = Vec::new();
        for (len, seed) in [(300usize, 8u32), (10, 9), (120, 10)] {
            let info = pattern(len, seed);
            let coded = encode(&info);
            let soft: Vec<f32> = coded
                .iter()
                .map(|&b| if b == 1 { 1.0 } else { -1.0 })
                .collect();
            decode_soft_into(&soft, len, &mut scratch, &mut out);
            assert_eq!(out, info);
        }
    }
}
