//! Gray-mapped square constellations with max-log soft demapping.
//!
//! Quiet exposes modulations from BPSK up to 1024-QAM; SONIC's profiles use
//! QPSK (the audible-7k clone) and 64-QAM (the 10 kbps profile). All
//! constellations are normalized to unit average symbol energy so channel
//! SNR math stays modulation-independent.
//!
//! The soft demapper works per axis, and its sweep over one axis plane is
//! written once, as a plain loop (`axis_soft`) compiled for the target's
//! baseline vector width: SSE2 on x86_64, NEON on aarch64. Its oracle is
//! the per-value search in this module's tests.

use sonic_dsp::C32;

/// Supported modulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit/symbol, real axis.
    Bpsk,
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol.
    Qam16,
    /// 6 bits/symbol.
    Qam64,
    /// 8 bits/symbol.
    Qam256,
    /// 10 bits/symbol (Quiet's headline "1024-QAM" cable-only mode).
    Qam1024,
}

impl Modulation {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
            Modulation::Qam1024 => 10,
        }
    }

    /// Human-readable name matching Quiet's configuration strings.
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "bpsk",
            Modulation::Qpsk => "qpsk",
            Modulation::Qam16 => "qam16",
            Modulation::Qam64 => "qam64",
            Modulation::Qam256 => "qam256",
            Modulation::Qam1024 => "qam1024",
        }
    }

    /// PAM levels per axis (1 for BPSK's imaginary axis).
    fn levels_per_axis(self) -> usize {
        match self {
            Modulation::Bpsk => 2, // degenerate: I axis only
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 8,
            Modulation::Qam256 => 16,
            Modulation::Qam1024 => 32,
        }
    }

    /// Per-axis amplitude normalizer giving unit average symbol energy.
    fn norm(self) -> f32 {
        let m = self.levels_per_axis() as f32;
        // Average energy of ±1, ±3, … ±(M-1) PAM is (M²-1)/3 per axis.
        let per_axis = (m * m - 1.0) / 3.0;
        let total = if self == Modulation::Bpsk { per_axis } else { 2.0 * per_axis };
        1.0 / total.sqrt()
    }
}

/// Inverse Gray code.
#[inline]
fn gray_inv(mut g: u32) -> u32 {
    let mut v = g;
    while g > 0 {
        g >>= 1;
        v ^= g;
    }
    v
}

/// Maps Gray-coded bits to one PAM level in ±1, ±3, … ±(M-1).
fn pam_map(bits: u32, axis_bits: usize) -> f32 {
    let idx = gray_inv(bits) as i32;
    let m = 1i32 << axis_bits;
    (2 * idx - (m - 1)) as f32
}

/// Maps `bits_per_symbol` bits (values 0/1, MSB first: first half I, second
/// half Q) to a constellation point.
pub fn map_bits(modulation: Modulation, bits: &[u8]) -> C32 {
    let k = modulation.bits_per_symbol();
    assert_eq!(bits.len(), k, "expected {k} bits");
    let norm = modulation.norm();
    if modulation == Modulation::Bpsk {
        let v = if bits[0] == 1 { 1.0 } else { -1.0 };
        return C32::new(v * norm, 0.0);
    }
    let half = k / 2;
    let pack = |b: &[u8]| -> u32 { b.iter().fold(0u32, |acc, &bit| (acc << 1) | bit as u32) };
    let i = pam_map(pack(&bits[..half]), half);
    let q = pam_map(pack(&bits[half..]), half);
    C32::new(i * norm, q * norm)
}

/// All 2^k points of a constellation, indexed by packed bit pattern.
pub fn points(modulation: Modulation) -> Vec<C32> {
    let k = modulation.bits_per_symbol();
    (0..1u32 << k)
        .map(|pattern| {
            let bits: Vec<u8> = (0..k).map(|i| ((pattern >> (k - 1 - i)) & 1) as u8).collect();
            map_bits(modulation, &bits)
        })
        .collect()
}

/// Max-log soft demapper over a batch of received points of one modulation:
/// appends `bits_per_symbol` soft values per point (positive ⇔ bit 1) to
/// `out`, point by point in [`map_bits`]' bit order.
///
/// Inputs are axis-split (`re[i]`/`im[i]` are point `i`), `scales[i]` is the
/// per-point output weight, `scratch` is reusable working memory.
///
/// Exploits the Gray-mapped square structure: the I bits depend only on the
/// real part and the Q bits only on the imaginary part, and in the max-log
/// LLR the unconstrained axis' minimum distance² cancels, so each axis is
/// demapped independently over its √M PAM levels instead of searching all
/// M points. Each axis plane is one `axis_soft` sweep. Output equals
/// [`demap_soft_reference`] up to f32 rounding.
// lint: no-alloc
pub fn demap_soft_batch(
    modulation: Modulation,
    re: &[f32],
    im: &[f32],
    scales: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    assert_eq!(re.len(), im.len(), "axis planes must match");
    assert_eq!(re.len(), scales.len(), "one scale per point");
    if modulation == Modulation::Bpsk {
        // BPSK mixes both axes into one metric over two points: nothing to
        // vectorize.
        let norm = modulation.norm();
        for ((&x, &y), &s) in re.iter().zip(im).zip(scales) {
            let d0 = (x + norm) * (x + norm) + y * y;
            let d1 = (x - norm) * (x - norm) + y * y;
            // lint: allow(no-alloc) — into the caller's buffer, which keeps its capacity
            out.push((d0 - d1) * s);
        }
        return;
    }
    let half = modulation.bits_per_symbol() / 2;
    let d = re.len();
    scratch.clear();
    scratch.resize(2 * half * d, 0.0);
    let (i_soft, q_soft) = scratch.split_at_mut(half * d);
    let norm = modulation.norm();
    axis_soft(re, half, norm, i_soft);
    axis_soft(im, half, norm, q_soft);
    let start = out.len();
    out.resize(start + 2 * half * d, 0.0);
    let o = &mut out[start..];
    // Transpose bit-major kernel output back to per-point order: I bits
    // (MSB first) then Q bits, matching `map_bits`.
    for c in 0..d {
        let s = scales[c];
        for bit in 0..half {
            o[c * 2 * half + bit] = i_soft[bit * d + c] * s;
            o[c * 2 * half + half + bit] = q_soft[bit * d + c] * s;
        }
    }
}

/// Values [`axis_soft`] demaps at a time: two SSE2 vectors of `f32` lanes,
/// one NEON pair.
const AXIS_LANES: usize = 8;

/// Per-axis square-QAM max-log soft metrics of one axis plane: for each
/// value `x` of `xs` and each of `bits` Gray-coded axis bits,
/// `min_{points with bit=0} (x−p)² − min_{points with bit=1} (x−p)²` over
/// the `m = 2^bits` axis points `p = (2·idx − (m−1))·norm`.
///
/// Output is bit-major: `out[bit·xs.len() + i]` is bit `bit` of value `i`
/// (the caller applies the per-point scale). `bits` is 1..=5 and
/// `out.len() == bits · xs.len()`.
///
/// The loop runs [`AXIS_LANES`] values at a time, the last group padded,
/// and every minimum update is `m = m.min(d)`. A distance is a square,
/// never −0, and a NaN one leaves the minimum as it was, so this is the
/// update `if d < m { m = d }` on every input, NaN and ±∞ included.
fn axis_soft(xs: &[f32], bits: usize, norm: f32, out: &mut [f32]) {
    debug_assert_eq!(out.len(), xs.len() * bits, "soft output must be bits × values");
    let m = 1usize << bits;
    let stride = xs.len();
    for (group, chunk) in xs.chunks(AXIS_LANES).enumerate() {
        let mut x = [0.0f32; AXIS_LANES];
        x[..chunk.len()].copy_from_slice(chunk);
        let mut min0 = [[f32::INFINITY; AXIS_LANES]; 5];
        let mut min1 = [[f32::INFINITY; AXIS_LANES]; 5];
        for idx in 0..m {
            let v = (2.0 * idx as f32 - (m as f32 - 1.0)) * norm;
            let mut d = [0.0f32; AXIS_LANES];
            for (d, &x) in d.iter_mut().zip(&x) {
                *d = (x - v) * (x - v);
            }
            let gray = idx ^ (idx >> 1);
            for bit in 0..bits {
                let mins = if (gray >> (bits - 1 - bit)) & 1 == 0 { &mut min0[bit] } else { &mut min1[bit] };
                for (m, &d) in mins.iter_mut().zip(&d) {
                    *m = m.min(d);
                }
            }
        }
        for bit in 0..bits {
            let soft = &mut out[bit * stride + group * AXIS_LANES..][..chunk.len()];
            for ((o, &m0), &m1) in soft.iter_mut().zip(&min0[bit]).zip(&min1[bit]) {
                *o = m0 - m1;
            }
        }
    }
}

/// Full-constellation max-log demapper of one point, the executable
/// specification of [`demap_soft_batch`]: every one of the M points, no
/// per-axis split.
pub fn demap_soft_reference(modulation: Modulation, y: C32, scale: f32, out: &mut Vec<f32>) {
    let k = modulation.bits_per_symbol();
    let pts = cached_points(modulation);
    // min distance² separated per bit value.
    let mut min0 = vec![f32::MAX; k];
    let mut min1 = vec![f32::MAX; k];
    for (pattern, &p) in pts.iter().enumerate() {
        let d = (y - p).norm_sq();
        for bit in 0..k {
            let is_one = (pattern >> (k - 1 - bit)) & 1 == 1;
            if is_one {
                if d < min1[bit] {
                    min1[bit] = d;
                }
            } else if d < min0[bit] {
                min0[bit] = d;
            }
        }
    }
    for bit in 0..k {
        out.push((min0[bit] - min1[bit]) * scale);
    }
}

fn cached_points(modulation: Modulation) -> &'static [C32] {
    use std::sync::OnceLock;
    static CACHE: OnceLock<[Vec<C32>; 6]> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        [
            points(Modulation::Bpsk),
            points(Modulation::Qpsk),
            points(Modulation::Qam16),
            points(Modulation::Qam64),
            points(Modulation::Qam256),
            points(Modulation::Qam1024),
        ]
    });
    let idx = match modulation {
        Modulation::Bpsk => 0,
        Modulation::Qpsk => 1,
        Modulation::Qam16 => 2,
        Modulation::Qam64 => 3,
        Modulation::Qam256 => 4,
        Modulation::Qam1024 => 5,
    };
    &cache[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary-reflected Gray code of `v`.
    fn gray(v: u32) -> u32 {
        v ^ (v >> 1)
    }

    const ALL: [Modulation; 6] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
        Modulation::Qam1024,
    ];

    #[test]
    fn unit_average_energy() {
        for m in ALL {
            let pts = points(m);
            let e: f32 = pts.iter().map(|p| p.norm_sq()).sum::<f32>() / pts.len() as f32;
            assert!((e - 1.0).abs() < 1e-4, "{}: energy {e}", m.name());
        }
    }

    #[test]
    fn all_points_distinct() {
        for m in ALL {
            let pts = points(m);
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!((pts[i] - pts[j]).abs() > 1e-6, "{} duplicate point", m.name());
                }
            }
        }
    }

    /// [`demap_soft_batch`] of the single point `y`.
    fn demap_one(m: Modulation, y: C32, scale: f32) -> Vec<f32> {
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        demap_soft_batch(m, &[y.re], &[y.im], &[scale], &mut scratch, &mut out);
        out
    }

    #[test]
    fn soft_demap_sign_matches_bits_on_clean_points() {
        for m in ALL {
            let k = m.bits_per_symbol();
            for pattern in 0..1usize << k {
                let bits: Vec<u8> = (0..k)
                    .map(|i| ((pattern >> (k - 1 - i)) & 1) as u8)
                    .collect();
                let soft = demap_one(m, map_bits(m, &bits), 1.0);
                for (s, &b) in soft.iter().zip(&bits) {
                    assert_eq!(*s > 0.0, b == 1, "{} pattern {pattern}", m.name());
                }
            }
        }
    }

    #[test]
    fn gray_neighbors_differ_by_one_bit() {
        // Adjacent PAM levels along each axis must differ in exactly one bit
        // (the whole point of Gray mapping).
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let k = m.bits_per_symbol();
            let half = k / 2;
            for v in 0..(1u32 << half) - 1 {
                let g1 = gray(v);
                let g2 = gray(v + 1);
                assert_eq!((g1 ^ g2).count_ones(), 1);
            }
        }
    }

    #[test]
    fn batch_demap_matches_full_search() {
        // Random received points, every modulation, batches that end in a
        // SIMD tail: the per-axis demapper must agree with the exhaustive
        // reference (same max-log LLRs).
        let mut x = 0x5EEDu32;
        let mut rnd = move || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 16) as f32 / 32768.0) - 1.0
        };
        for m in ALL {
            for n in [0usize, 1, 5, 92, 200] {
                let re: Vec<f32> = (0..n).map(|_| rnd() * 1.5).collect();
                let im: Vec<f32> = (0..n).map(|_| rnd() * 1.5).collect();
                let scales: Vec<f32> = (0..n).map(|_| rnd().abs() + 0.1).collect();
                let mut full = Vec::new();
                for i in 0..n {
                    demap_soft_reference(m, C32::new(re[i], im[i]), scales[i], &mut full);
                }
                let (mut scratch, mut fast) = (Vec::new(), Vec::new());
                demap_soft_batch(m, &re, &im, &scales, &mut scratch, &mut fast);
                assert_eq!(fast.len(), full.len(), "{} n={n}", m.name());
                for (k, (a, b)) in fast.iter().zip(&full).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-5,
                        "{} n={n} soft {k}: {a} vs {b}",
                        m.name()
                    );
                }
            }
        }
    }

    /// The per-value oracle of [`axis_soft`]: each value against every axis
    /// point in turn, the minimum updated as `if d < m { m = d }`.
    fn qam_axis_soft_reference(xs: &[f32], bits: u32, norm: f32, out: &mut [f32]) {
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

    /// The sweep against its oracle to the bit: every group length up to
    /// two groups and past, the 92 carriers of a `sonic_10k` symbol, every
    /// axis width, ±0, and the non-finite and extreme values a broken
    /// channel can hand the demapper (NaN, ±∞, ±1e30).
    #[test]
    fn axis_soft_matches_qam_axis_soft_reference_bit_exactly() {
        const SPECIAL: [f32; 8] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e30, -1e30, -f32::NAN];
        let mut seed = 0x0A15u32;
        let lens = (0..=17).chain([92, 257]);
        for n in lens {
            for bits in 1..=5u32 {
                let xs: Vec<f32> = (0..n)
                    .map(|i| {
                        seed = seed.wrapping_mul(1103515245).wrapping_add(12345);
                        if i % 5 == 3 {
                            SPECIAL[(seed >> 16) as usize % SPECIAL.len()]
                        } else {
                            ((seed >> 16) as f32 / 32768.0 - 1.0) * 1.5
                        }
                    })
                    .collect();
                let norm = 0.31;
                let mut want = vec![0.0f32; n * bits as usize];
                qam_axis_soft_reference(&xs, bits, norm, &mut want);
                let mut got = vec![f32::NAN; want.len()];
                axis_soft(&xs, bits as usize, norm, &mut got);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n} bits={bits} i={i}");
                }
            }
        }
    }

    #[test]
    fn gray_roundtrip() {
        for v in 0..1024 {
            assert_eq!(gray_inv(gray(v)), v);
        }
    }
}
