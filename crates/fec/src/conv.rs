//! Rate-1/2, constraint-length-9 convolutional encoder — libfec's "v29".
//!
//! Generators are the classic K=9 pair 561/753 (octal) of IS-95 and libfec,
//! free distance 12 — the weight of a single 1's response, pinned by a test.
//! Bit `k` of each octal constant taps the input delayed by `k` (newest bit
//! at the LSB of the shift register). The textbook reading, which libfec
//! implements with the bit-reversed constants 0x1af/0x11d, is the other way
//! round (MSB = current input), so this code is that one time-reversed: the
//! same free distance and weight spectrum, not the same bits. Every bit on
//! air depends on this reading. Each block is terminated with `K-1 = 8` tail
//! zeros so the Viterbi decoder starts and ends in the all-zero state.

/// Constraint length.
pub const K: usize = 9;
/// Tail bits appended per block.
pub const TAIL: usize = K - 1;
/// Generator polynomial A (octal 561).
pub const POLY_A: u16 = 0o561;
/// Generator polynomial B (octal 753).
pub const POLY_B: u16 = 0o753;

#[inline]
const fn parity(x: u16) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Encodes `bits` (values 0/1), appending the 8-bit tail, and returns the
/// coded bit stream (2 coded bits per input bit, MSB-convention-free).
pub fn encode(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity((bits.len() + TAIL) * 2);
    let mut sr: u16 = 0;
    for &b in bits.iter().chain(std::iter::repeat_n(&0u8, TAIL)) {
        sr = ((sr << 1) | (b & 1) as u16) & 0x1FF;
        out.push(parity(sr & POLY_A));
        out.push(parity(sr & POLY_B));
    }
    out
}

/// Number of coded bits produced for `n` info bits.
pub fn coded_len(info_bits: usize) -> usize {
    (info_bits + TAIL) * 2
}

/// Transition table shared with the Viterbi decoder: for `state` (previous 8
/// bits, newest at LSB) and input `bit`, returns `(next_state, out_a, out_b)`.
#[inline]
pub const fn step(state: u16, bit: u8) -> (u16, u8, u8) {
    let sr = ((state << 1) | bit as u16) & 0x1FF;
    (sr & 0xFF, parity(sr & POLY_A), parity(sr & POLY_B))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_twice_input_plus_tail() {
        let coded = encode(&[1, 0, 1, 1]);
        assert_eq!(coded.len(), coded_len(4));
    }

    #[test]
    fn all_zero_input_gives_all_zero_output() {
        assert!(encode(&[0; 40]).iter().all(|&b| b == 0));
    }

    #[test]
    fn encoder_is_linear() {
        // Code linearity: enc(a) XOR enc(b) == enc(a XOR b).
        let a = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0];
        let b = [0u8, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1];
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        let ea = encode(&a);
        let eb = encode(&b);
        let ex = encode(&x);
        let xor: Vec<u8> = ea.iter().zip(&eb).map(|(p, q)| p ^ q).collect();
        assert_eq!(xor, ex);
    }

    #[test]
    fn step_matches_encode() {
        let bits = [1u8, 1, 0, 1, 0, 0, 1];
        let coded = encode(&bits);
        let mut state = 0u16;
        for (i, &b) in bits.iter().enumerate() {
            let (next, oa, ob) = step(state, b);
            assert_eq!(coded[2 * i], oa);
            assert_eq!(coded[2 * i + 1], ob);
            state = next;
        }
    }

    #[test]
    fn impulse_response_is_the_interleaved_generator_taps_with_weight_d_free() {
        // Known answer from the octal definitions alone: a single 1 plus the
        // 8-bit tail is K = 9 steps, and step k emits tap k (bit k) of 561,
        // then of 753.
        //   561 = 1 0 1 1 1 0 0 0 1 (bit 8 … bit 0)
        //   753 = 1 1 1 1 0 1 0 1 1
        let want = [1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1];
        let coded = encode(&[1]);
        assert_eq!(coded, want);
        // d_free of the K = 9, r = 1/2 code is 12.
        assert_eq!(coded.iter().map(|&b| u32::from(b)).sum::<u32>(), 12);
    }
}
