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

/// `NIBBLE_OUT[(state << 4) | nibble]`: the 8 coded bits, A then B for
/// each input bit, MSB first, of the nibble's four bits (MSB first) fed to
/// the shift register from `state` (the previous 8 bits, newest at the
/// LSB). The index's low 8 bits are the state after them.
static NIBBLE_OUT: [u8; 1 << 12] = nibble_table();

const fn nibble_table() -> [u8; 1 << 12] {
    let mut table = [0u8; 1 << 12];
    let mut idx = 0;
    while idx < table.len() {
        let mut out = 0u8;
        let mut i = 0;
        while i < 4 {
            // The register after the nibble's bit `i`.
            let sr = ((idx >> (3 - i)) & 0x1FF) as u16;
            out = (out << 2) | (parity(sr & POLY_A) << 1) | parity(sr & POLY_B);
            i += 1;
        }
        table[idx] = out;
        idx += 1;
    }
    table
}

/// `BITS[b]`: byte `b`'s bits, MSB first, one a byte.
static BITS: [[u8; 8]; 256] = bit_table();

const fn bit_table() -> [[u8; 8]; 256] {
    let mut table = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b][i] = ((b >> (7 - i)) & 1) as u8;
            i += 1;
        }
        b += 1;
    }
    table
}

/// Feeds `nibble`'s four bits (MSB first) to the register at `state`,
/// appends their 8 coded bits to `out` and returns the next state.
#[inline]
fn push_nibble(state: usize, nibble: usize, out: &mut Vec<u8>) -> usize {
    let idx = (state << 4) | nibble;
    out.extend_from_slice(&BITS[usize::from(NIBBLE_OUT[idx])]);
    idx & 0xFF
}

/// Encodes `bits` (values 0/1, only the low bit of each read), appending
/// the 8-bit tail, and returns the coded bit stream (2 coded bits per input
/// bit, MSB-convention-free). Four input bits go through the register at a
/// step; a last part-nibble and the tail go one bit at a time.
pub fn encode(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(coded_len(bits.len()));
    let mut state = 0;
    let mut nibbles = bits.chunks_exact(4);
    for nibble in &mut nibbles {
        let packed = nibble.iter().fold(0, |acc, &b| (acc << 1) | usize::from(b & 1));
        state = push_nibble(state, packed, &mut out);
    }
    let mut state = state as u16;
    for &b in nibbles.remainder().iter().chain(&[0; TAIL]) {
        let (next, a, b) = step(state, b & 1);
        out.extend_from_slice(&[a, b]);
        state = next;
    }
    out
}

/// [`encode`] of `bytes`' bits, MSB first: a nibble of input a step, the
/// tail two more.
pub fn encode_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(coded_len(bytes.len() * 8));
    let mut state = 0;
    for &byte in bytes {
        state = push_nibble(state, usize::from(byte >> 4), &mut out);
        state = push_nibble(state, usize::from(byte & 0xF), &mut out);
    }
    for _ in 0..TAIL / 4 {
        state = push_nibble(state, 0, &mut out);
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

    /// Every split of input into nibbles and leftover bits, and the byte
    /// path, are the same register.
    #[test]
    fn encode_is_one_register_at_any_length() {
        let bytes: Vec<u8> = (0..37u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        let bits = crate::bits::bytes_to_bits(&bytes);
        assert_eq!(encode_bytes(&bytes), encode(&bits));
        for len in 0..bits.len() {
            let mut state = 0u16;
            let mut want = Vec::new();
            for &b in bits[..len].iter().chain(&[0; TAIL]) {
                let (next, a, b) = step(state, b);
                want.extend_from_slice(&[a, b]);
                state = next;
            }
            assert_eq!(encode(&bits[..len]), want, "{len} bits");
        }
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
