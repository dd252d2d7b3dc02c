//! Additive LFSR scrambler (whitener).
//!
//! OFDM hates long runs of identical bits: they concentrate energy in a few
//! subcarriers and break timing recovery. The scrambler XORs the byte stream
//! with a maximal-length LFSR sequence so the payload looks noise-like; the
//! operation is an involution (scrambling twice restores the data).

/// `FEEDBACK[b]`: what eight steps of the register XOR into its state when
/// its low byte is `b`: a 1 at bit `k` feeds `0xB400` back at step `k`, and
/// the `7 − k` steps after it shift that right.
static FEEDBACK: [u16; 256] = feedback_table();

const fn feedback_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            if (b >> k) & 1 == 1 {
                table[b] ^= 0xB400 >> (7 - k);
            }
            k += 1;
        }
        b += 1;
    }
    table
}

/// Maximal-length 16-bit LFSR (x¹⁶ + x¹⁴ + x¹³ + x¹¹ + 1, taps 0xB400 in
/// Galois form) keystream generator.
#[derive(Debug, Clone)]
pub struct Scrambler {
    state: u16,
    seed: u16,
}

impl Scrambler {
    /// Creates a scrambler with the given non-zero seed.
    ///
    /// # Panics
    /// Panics if `seed == 0` (the LFSR would lock up).
    pub fn new(seed: u16) -> Self {
        assert!(seed != 0, "LFSR seed must be non-zero");
        Scrambler { state: seed, seed }
    }

    /// The SONIC default seed.
    pub fn default_seed() -> u16 {
        0xACE1
    }

    /// Restarts the keystream (each frame is scrambled independently so a
    /// lost frame does not desynchronize the next).
    pub fn reset(&mut self) {
        self.state = self.seed;
    }

    /// The next 8 keystream bits, the first at the MSB: eight steps of the
    /// register at once. A step outputs the state's LSB, shifts right and,
    /// on a 1, XORs in `0xB400`, whose lowest tap (bit 10) cannot shift
    /// down to bit 0 within eight steps. So the eight outputs are the low
    /// byte's bits, LSB first, and the state moves to its high byte XOR the
    /// taps that low byte fed back ([`FEEDBACK`]).
    fn next_byte(&mut self) -> u8 {
        let low = self.state.to_be_bytes()[1];
        self.state = (self.state >> 8) ^ FEEDBACK[usize::from(low)];
        low.reverse_bits()
    }

    /// XORs the keystream over `data` in place.
    pub fn apply(&mut self, data: &mut [u8]) {
        for b in data.iter_mut() {
            *b ^= self.next_byte();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_scramble_is_identity() {
        let mut s = Scrambler::new(Scrambler::default_seed());
        let original: Vec<u8> = (0..200).map(|i| (i * 7 % 256) as u8).collect();
        let mut data = original.clone();
        s.apply(&mut data);
        assert_ne!(data, original, "scrambler must change the data");
        s.reset();
        s.apply(&mut data);
        assert_eq!(data, original);
    }

    /// The byte step is eight steps of the register, one bit at a time,
    /// for every seed's first bytes and a long run of one seed.
    #[test]
    fn byte_step_is_eight_bit_steps() {
        let bitwise = |state: &mut u16| {
            let mut out = 0u8;
            for _ in 0..8 {
                let lsb = *state & 1;
                *state >>= 1;
                if lsb != 0 {
                    *state ^= 0xB400;
                }
                out = (out << 1) | lsb as u8;
            }
            out
        };
        for seed in (1..=u16::MAX).step_by(7).chain([Scrambler::default_seed()]) {
            let mut s = Scrambler::new(seed);
            let mut state = seed;
            let bytes = if seed == Scrambler::default_seed() { 70_000 } else { 3 };
            for i in 0..bytes {
                assert_eq!(s.next_byte(), bitwise(&mut state), "seed {seed:#06x} byte {i}");
            }
        }
    }

    #[test]
    fn whitens_constant_input() {
        let mut s = Scrambler::new(0xACE1);
        let mut data = vec![0u8; 4096];
        s.apply(&mut data);
        // Count ones: should be close to half.
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        let total = 4096 * 8;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.02, "ones fraction {frac}");
        // No long runs of identical bytes.
        let max_run = data
            .windows(2)
            .fold((1usize, 1usize), |(max, cur), w| {
                if w[0] == w[1] {
                    (max.max(cur + 1), cur + 1)
                } else {
                    (max, 1)
                }
            })
            .0;
        assert!(max_run < 4, "run of {max_run} identical bytes");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Scrambler::new(1);
        let mut b = Scrambler::new(2);
        let mut da = vec![0u8; 64];
        let mut db = vec![0u8; 64];
        a.apply(&mut da);
        b.apply(&mut db);
        assert_ne!(da, db);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_rejected() {
        let _ = Scrambler::new(0);
    }
}
