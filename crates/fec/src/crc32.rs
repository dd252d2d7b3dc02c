//! CRC-32 (IEEE 802.3 / zlib polynomial), table-driven.
//!
//! SONIC frames carry a CRC-32 trailer (the paper: "crc32 as the checksum")
//! so the receiver can reject frames the FEC failed to repair instead of
//! painting garbage pixels.
//!
//! The kernel is slicing-by-8: eight derived tables let the inner loop fold
//! eight bytes per step, which matters because the artifact store CRC-frames
//! every blob — warm restarts checksum hundreds of megabytes, not just
//! 100-byte frames. Results are identical to the bytewise definition.

/// Reflected polynomial for IEEE CRC-32.
const POLY: u32 = 0xEDB8_8320;

/// Lazily built slicing-by-8 tables. `t[0]` is the classic 256-entry
/// bytewise table; `t[k][b]` advances byte `b` through `k` extra zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Advances the raw (pre-inversion) CRC state over `data`.
fn update_state(mut c: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Computes the CRC-32 of `data` (init 0xFFFFFFFF, final XOR 0xFFFFFFFF —
/// identical to zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    !update_state(0xFFFF_FFFF, data)
}

/// CRC-32 of `A ‖ data`, given `crc = crc32(A)`.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    !update_state(!crc, data)
}

/// CRC-32 of `B`, given `crc_ab = crc32(A ‖ B)`, `crc_a = crc32(A)` and
/// `len_b = |B|`, in O(log |B|) — zlib's `crc32_combine` solved for the
/// suffix: `crc(A‖B) = x^(8|B|)·crc(A) ⊕ crc(B) mod P`, and ⊕ is its own
/// inverse.
pub fn crc32_suffix(crc_ab: u32, crc_a: u32, len_b: usize) -> u32 {
    crc_ab ^ multmodp(x8n_mod_p(len_b), crc_a)
}

/// `a · b mod P` over GF(2), both in the reflected bit order the CRC state
/// uses (bit 31 is x⁰).
fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    for i in 0..32 {
        if a & (1 << (31 - i)) != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `x^(2^k) mod P` for `k` in 0..32. The powers repeat with period 32
/// (`x^(2^32) = x mod P`), so `k & 31` indexes any `k`.
fn x2n_table() -> &'static [u32; 32] {
    use std::sync::OnceLock;
    static X2N: OnceLock<[u32; 32]> = OnceLock::new();
    X2N.get_or_init(|| {
        let mut t = [0u32; 32];
        let mut p = 1u32 << 30; // x¹
        for slot in t.iter_mut() {
            *slot = p;
            p = multmodp(p, p);
        }
        t
    })
}

/// `x^(8n) mod P`: one multiply per set bit of `n`, against `x^(2^(k+3))`.
fn x8n_mod_p(mut n: usize) -> u32 {
    let table = x2n_table();
    let mut p = 1u32 << 31; // x⁰
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(table[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Incremental CRC-32 hasher for streamed frame construction.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_state(self.state, data);
    }

    /// Finishes and returns the digest (the hasher may keep absorbing).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn sliced_kernel_matches_bytewise_definition_at_every_length() {
        // Cross-check the 8-byte folding against the canonical bytewise
        // loop over lengths straddling the chunk boundary and unaligned
        // starts.
        let data: Vec<u8> = (0u32..64).map(|i| (i.wrapping_mul(37) ^ 0x5A) as u8).collect();
        let t = tables();
        for start in 0..4 {
            for len in 0..(data.len() - start) {
                let slice = &data[start..start + len];
                let mut c = 0xFFFF_FFFFu32;
                for &b in slice {
                    c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
                }
                assert_eq!(crc32(slice), !c, "mismatch at start {start} len {len}");
            }
        }
    }

    #[test]
    fn suffix_crc_matches_direct_hash_at_every_split() {
        let data = b"123456789";
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                crc32_suffix(crc32(data), crc32(a), b.len()),
                crc32(b),
                "cut {cut}"
            );
            assert_eq!(crc32_extend(crc32(a), b), crc32(data), "cut {cut}");
        }
    }

    #[test]
    fn suffix_crc_matches_direct_hash_across_stride_lengths() {
        let data: Vec<u8> = (0u32..(1 << 20) + 37)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len_b in [0usize, 1, 63, 64, 65, 1 << 20] {
            let a = &data[..37];
            let b = &data[37..37 + len_b];
            let ab = crc32_extend(crc32(a), b);
            assert_eq!(crc32_suffix(ab, crc32(a), len_b), crc32(b), "len {len_b}");
        }
    }

    #[test]
    fn combining_with_an_empty_suffix_is_the_identity() {
        for a in [&b""[..], b"x", b"123456789"] {
            let c = crc32(a);
            assert_eq!(crc32_extend(c, b""), c);
            assert_eq!(crc32_suffix(c, c, 0), crc32(b""));
        }
        // The x^(2^k) powers repeat with period 32, which `x8n_mod_p`'s
        // `k & 31` relies on.
        let t = x2n_table();
        assert_eq!(multmodp(t[31], t[31]), t[0]);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 100];
        data[42] = 7;
        let clean = crc32(&data);
        for byte in 0..100 {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "missed flip at {byte}:{bit}");
            }
        }
    }
}
