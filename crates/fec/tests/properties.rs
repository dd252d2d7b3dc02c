//! Property-based tests of the FEC stack.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use sonic_fec::bits::{bits_to_bytes, bits_to_soft, bytes_to_bits};
use sonic_fec::code_spec::{CodeSpec, FecPipeline};
use sonic_fec::conv;
use sonic_fec::interleave::Interleaver;
use sonic_fec::rs::RsCodec;
use sonic_fec::scramble::Scrambler;
use sonic_fec::viterbi;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit/byte packing is the identity on byte boundaries.
    #[test]
    fn bits_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    /// Viterbi decodes any clean codeword.
    #[test]
    fn viterbi_clean(bits in proptest::collection::vec(0u8..2, 1..400)) {
        let coded = conv::encode(&bits);
        prop_assert_eq!(viterbi::decode_hard(&coded, bits.len()), bits);
    }

    /// Viterbi corrects any single flipped coded bit.
    #[test]
    fn viterbi_single_error(
        bits in proptest::collection::vec(0u8..2, 8..200),
        pos in any::<prop::sample::Index>(),
    ) {
        let mut coded = conv::encode(&bits);
        let i = pos.index(coded.len());
        coded[i] ^= 1;
        prop_assert_eq!(viterbi::decode_hard(&coded, bits.len()), bits);
    }

    /// Interleaving is a permutation (inverse restores, content preserved).
    #[test]
    fn interleaver_permutes(
        rows in 1usize..16,
        cols in 1usize..16,
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let il = Interleaver::new(rows, cols);
        let tx = il.interleave(&data);
        prop_assert_eq!(tx.len(), data.len());
        let mut sorted_a = data.clone();
        let mut sorted_b = tx.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        prop_assert_eq!(sorted_a, sorted_b, "must be a permutation");
        prop_assert_eq!(il.deinterleave(&tx), data);
    }

    /// Scrambling is an involution for any seed and payload.
    #[test]
    fn scrambler_involution(
        seed in 1u16..=u16::MAX,
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut s = Scrambler::new(seed);
        let mut x = data.clone();
        s.apply(&mut x);
        s.reset();
        s.apply(&mut x);
        prop_assert_eq!(x, data);
    }

    /// The full pipeline survives any ≤0.5% scattered hard flips.
    #[test]
    fn pipeline_corrects_sparse_flips(
        payload in proptest::collection::vec(any::<u8>(), 50..400),
        stride in 200usize..600,
        offset in 0usize..100,
    ) {
        let p = FecPipeline::new(CodeSpec::sonic_default());
        let coded = p.encode(&payload);
        let mut soft = bits_to_soft(&coded);
        let mut i = offset.min(soft.len().saturating_sub(1));
        while i < soft.len() {
            soft[i] = -soft[i];
            i += stride;
        }
        prop_assert_eq!(p.decode_soft(&soft, payload.len()).expect("repairable"), payload);
    }

    /// Coded length formula matches the actual encoder for every spec.
    #[test]
    fn coded_len_formula(n in 0usize..700) {
        for spec in [
            CodeSpec::sonic_default(),
            CodeSpec::none(),
            CodeSpec::conv_only(),
            CodeSpec::rs_only(),
        ] {
            let p = FecPipeline::new(spec);
            let coded = p.encode(&vec![0xA5; n]);
            prop_assert_eq!(coded.len(), spec.coded_bits_len(n), "spec {:?} n {}", spec, n);
        }
    }
}

// Definition checks of the two encoders: each oracle below is built from
// the code's definition alone and shares no table with `sonic-fec`. They are
// not external known-answer vectors (`fcr = 1, prim = 1` over 0x187 is not
// CCSDS's convention).

/// `a·b` in GF(2⁸) modulo x⁸ + x⁷ + x² + x + 1 (0x187), shift and add.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut product = 0u8;
    while b != 0 {
        if b & 1 == 1 {
            product ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= 0x87;
        }
        b >>= 1;
    }
    product
}

/// The codeword `c` as a polynomial, first byte the highest power,
/// evaluated at `x` (Horner).
fn gf_eval(c: &[u8], x: u8) -> u8 {
    c.iter().fold(0, |acc, &ci| gf_mul(acc, x) ^ ci)
}

/// Every RS(255, 223) codeword, at every shortened length 1…223, is a
/// multiple of the generator: it vanishes at the 32 roots α¹…α³², α = x.
#[test]
fn rs_codewords_vanish_at_the_generator_roots() {
    let rs = RsCodec::new(32);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for len in 1..=rs.max_data_len() {
        let mut codeword: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        codeword.extend(rs.encode(&codeword));
        let mut root = 1u8;
        for j in 1..=32 {
            root = gf_mul(root, 2);
            assert_eq!(gf_eval(&codeword, root), 0, "length {len}: c(α^{j}) ≠ 0");
        }
    }
}

/// The K = 9 code one input bit at a time from its definition: a 9-bit
/// register, newest bit at the LSB, the outputs the parities of its taps
/// under octal 561 and then 753, and 8 zeros of tail.
fn conv_oracle(bits: &[u8]) -> Vec<u8> {
    let mut register = 0u32;
    let mut out = Vec::new();
    for &b in bits.iter().chain(&[0; 8]) {
        register = ((register << 1) | u32::from(b)) & 0x1FF;
        out.push((register & 0o561).count_ones() as u8 & 1);
        out.push((register & 0o753).count_ones() as u8 & 1);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The table-driven encoders, from bits (any length, so every
    /// leftover part-nibble) and from bytes, are the bit-at-a-time register.
    #[test]
    fn conv_encode_is_the_shift_register(
        bits in proptest::collection::vec(0u8..2, 0..600),
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        prop_assert_eq!(conv::encode(&bits), conv_oracle(&bits));
        prop_assert_eq!(conv::encode_bytes(&bytes), conv_oracle(&bytes_to_bits(&bytes)));
    }
}

/// ±1 soft values (positive ⇔ 1) for coded bits.
fn bpsk(coded: &[u8]) -> Vec<f32> {
    coded
        .iter()
        .map(|&b| if b == 1 { 1.0 } else { -1.0 })
        .collect()
}

/// One unit-variance Gaussian draw (Box-Muller).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2 = rng.random::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The integer decoder decodes what the `f32` reference decodes wherever
    /// the reference is right: clean blocks, one flipped soft value, and
    /// AWGN at Eb/N0 = 4 dB (above the r = 1/2 code's cliff), each at a
    /// random overall gain — the quantiser's scale is the block's own.
    #[test]
    fn viterbi_decodes_as_the_reference_above_the_cliff(
        bits in collection::vec(0u8..2, 1..300),
        channel in 0u8..3,
        pos in any::<prop::sample::Index>(),
        gain_quarter_decades in -16i32..16,
        seed in any::<u64>(),
    ) {
        let mut soft = bpsk(&conv::encode(&bits));
        match channel {
            0 => {}
            1 => {
                let i = pos.index(soft.len());
                soft[i] = -soft[i];
            }
            _ => {
                // σ² = 1 / (2 R Eb/N0) with R = 1/2.
                let sigma = 10f32.powf(-4.0 / 20.0);
                let mut rng = StdRng::seed_from_u64(seed);
                for s in soft.iter_mut() {
                    *s += sigma * gaussian(&mut rng);
                }
            }
        }
        let gain = 10f32.powf(gain_quarter_decades as f32 / 4.0);
        for s in soft.iter_mut() {
            *s *= gain;
        }
        let reference = viterbi::decode_soft_reference(&soft, bits.len());
        prop_assert_eq!(&reference, &bits, "the oracle itself fails this block");
        prop_assert_eq!(viterbi::decode_soft(&soft, bits.len()), reference);
    }

    /// The dispatched ACS kernel (SIMD on capable hosts) equals its scalar
    /// twin bit for bit — next metrics and decision words — on metrics that
    /// include unreachable (`i16::MIN`) and saturating (`i16::MAX`, near-MIN)
    /// states and ties (few distinct values, zero branch metrics).
    #[test]
    fn acs_step_is_bit_identical_to_its_scalar_twin(
        metrics in collection::vec((0u8..8, any::<i16>()), viterbi::STATES),
        q0 in 0i32..=2046,
        q1 in 0i32..=2046,
        tie_q in 0u8..4,
    ) {
        let mut cur = [0i16; viterbi::STATES];
        for (m, &(kind, v)) in cur.iter_mut().zip(&metrics) {
            *m = match kind {
                0 => i16::MIN,
                1 => i16::MAX,
                2 => v % 4,
                3 => i16::MIN + (v % 2048).abs(),
                _ => v,
            };
        }
        let (q0, q1) = (q0 - 1023, q1 - 1023);
        let (q0, q1) = match tie_q {
            0 => (0, 0),
            1 => (q0, -q0),
            _ => (q0, q1),
        };
        let (q0, q1) = (i16::try_from(q0).expect("in range"), i16::try_from(q1).expect("in range"));
        prop_assert!(q0.abs() <= viterbi::SOFT_MAX && q1.abs() <= viterbi::SOFT_MAX);
        let (mut next_fast, mut next_twin) = ([0i16; viterbi::STATES], [0i16; viterbi::STATES]);
        let (mut row_fast, mut row_twin) = ([0u32; viterbi::WORDS], [0u32; viterbi::WORDS]);
        viterbi::acs_step(&cur, &mut next_fast, &mut row_fast, q0, q1);
        viterbi::acs_step_reference(&cur, &mut next_twin, &mut row_twin, q0, q1);
        prop_assert_eq!(row_fast, row_twin, "decision words at ({}, {})", q0, q1);
        prop_assert_eq!(next_fast, next_twin, "metrics at ({}, {})", q0, q1);
    }

    /// Decoding is total on hostile soft input — empty blocks, erasures,
    /// NaN, ±∞, ±1e30, subnormals — through the Viterbi decoder alone and
    /// the whole FEC pipeline: the right number of bits, deterministically,
    /// and an `Ok` or an `Err`, never a panic.
    #[test]
    fn decoding_is_total_on_hostile_soft_input(
        info_bits in 0usize..200,
        values in collection::vec((0u8..8, -2.0f32..2.0), 0..64),
        payload_len in 0usize..24,
    ) {
        let hostile = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| match values.get(i % values.len().max(1)) {
                    None | Some((0, _)) => 0.0,
                    Some((1, _)) => f32::NAN,
                    Some((2, _)) => f32::INFINITY,
                    Some((3, _)) => f32::NEG_INFINITY,
                    Some((4, v)) => 1e30f32.copysign(*v),
                    Some((5, v)) => f32::MIN_POSITIVE * v,
                    Some((_, v)) => *v,
                })
                .collect()
        };
        let soft = hostile(conv::coded_len(info_bits));
        let bits = viterbi::decode_soft(&soft, info_bits);
        prop_assert_eq!(bits.len(), info_bits);
        prop_assert!(bits.iter().all(|&b| b <= 1));
        prop_assert_eq!(viterbi::decode_soft(&soft, info_bits), bits);

        let p = FecPipeline::new(CodeSpec::sonic_default());
        let soft = hostile(p.spec().coded_bits_len(payload_len));
        match p.decode_soft(&soft, payload_len) {
            Ok(data) => prop_assert_eq!(data.len(), payload_len),
            Err(e) => prop_assert!(payload_len > 0, "{}", e),
        }
    }
}
