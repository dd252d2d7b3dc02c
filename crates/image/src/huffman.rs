//! Canonical Huffman coding over byte symbols.
//!
//! Used by both image codecs: symbol statistics are gathered per image
//! (two-pass), a length-limited canonical code is built, and only the code
//! lengths are serialized (256 nibble-packed entries — 128 bytes), from
//! which the decoder reconstructs the identical code.

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length (canonical codes are limited so lengths pack into a
/// nibble).
pub const MAX_LEN: u8 = 15;

/// A canonical Huffman code over `0..=255`.
#[derive(Debug, Clone)]
pub struct Huffman {
    /// Code length per symbol (0 = unused).
    lengths: [u8; 256],
    /// Code bits per symbol.
    codes: [u32; 256],
}

impl Huffman {
    /// Builds a code from symbol frequencies.
    ///
    /// Symbols with zero frequency get no code. If only one symbol occurs it
    /// receives a 1-bit code.
    pub fn from_freqs(freqs: &[u64; 256]) -> Self {
        // Package-merge would be optimal; a simple heap Huffman followed by
        // length limiting is fine at our alphabet size.
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            idx: usize, // tree arena index
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .weight
                    .cmp(&self.weight)
                    .then(other.idx.cmp(&self.idx))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut lengths = [0u8; 256];
        let used: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
        match used.len() {
            0 => {
                return Huffman {
                    lengths,
                    codes: [0; 256],
                }
            }
            1 => {
                lengths[used[0]] = 1;
                return Huffman::from_lengths(lengths);
            }
            _ => {}
        }

        // Arena: leaves then internal nodes; children[i] for internals.
        let mut children: Vec<(usize, usize)> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for &s in &used {
            heap.push(Node {
                weight: freqs[s],
                idx: s,
            });
        }
        let mut next_idx = 256usize;
        while heap.len() > 1 {
            let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
                break; // unreachable: the loop guard saw two entries
            };
            children.push((a.idx, b.idx));
            heap.push(Node {
                weight: a.weight + b.weight,
                idx: next_idx,
            });
            next_idx += 1;
        }
        let Some(root) = heap.pop().map(|n| n.idx) else {
            // Unreachable: ≥2 leaves were pushed and merges leave one node.
            return Huffman {
                lengths,
                codes: [0; 256],
            };
        };

        // Depth-first length assignment.
        let mut stack = vec![(root, 0u8)];
        while let Some((idx, depth)) = stack.pop() {
            if idx < 256 {
                lengths[idx] = depth.max(1);
            } else {
                let (l, r) = children[idx - 256];
                stack.push((l, depth + 1));
                stack.push((r, depth + 1));
            }
        }

        // Length-limit to MAX_LEN by repeatedly demoting (rare at our sizes).
        limit_lengths(&mut lengths);
        Huffman::from_lengths(lengths)
    }

    fn from_lengths(lengths: [u8; 256]) -> Self {
        // Canonical assignment: sort by (length, symbol).
        let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
        order.sort_by_key(|&s| (lengths[s], s));
        let mut codes = [0u32; 256];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &s in &order {
            code <<= lengths[s] - prev_len;
            codes[s] = code;
            code += 1;
            prev_len = lengths[s];
        }
        Huffman { lengths, codes }
    }

    /// Code lengths (for serialization).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Serializes the lengths nibble-packed (128 bytes).
    pub fn serialize(&self) -> [u8; 128] {
        let mut out = [0u8; 128];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (self.lengths[2 * i] << 4) | (self.lengths[2 * i + 1] & 0x0F);
        }
        out
    }

    /// Inverse of [`serialize`](Self::serialize).
    pub fn deserialize(data: &[u8; 128]) -> Self {
        let mut lengths = [0u8; 256];
        for i in 0..128 {
            lengths[2 * i] = data[i] >> 4;
            lengths[2 * i + 1] = data[i] & 0x0F;
        }
        Huffman::from_lengths(lengths)
    }

    /// Encodes one symbol.
    ///
    /// # Panics
    /// Panics if the symbol has no code (zero training frequency).
    pub fn encode(&self, symbol: u8, w: &mut BitWriter) {
        let len = self.lengths[symbol as usize];
        assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(self.codes[symbol as usize], len);
    }

    /// Decodes one symbol; `None` on truncated input.
    pub fn decode(&self, r: &mut BitReader) -> Option<u8> {
        // Linear per-bit walk down the canonical table. At ≤15 bits and the
        // small alphabets we use, a first-fit scan per length is fast enough.
        let mut code = 0u32;
        let mut len = 0u8;
        loop {
            code = (code << 1) | r.read_bit()? as u32;
            len += 1;
            if len > MAX_LEN {
                return None;
            }
            // Check if any symbol matches (canonical ⇒ contiguous ranges).
            for s in 0..256usize {
                if self.lengths[s] == len && self.codes[s] == code {
                    return Some(s as u8);
                }
            }
        }
    }
}

/// Forces all lengths ≤ MAX_LEN, preserving Kraft validity.
fn limit_lengths(lengths: &mut [u8; 256]) {
    loop {
        let over: Vec<usize> = (0..256).filter(|&s| lengths[s] > MAX_LEN).collect();
        if over.is_empty() {
            return;
        }
        // Naive but correct: clip and then fix Kraft by lengthening the
        // shallowest leaves.
        for s in over {
            lengths[s] = MAX_LEN;
        }
        // Compute Kraft sum in units of 2^-MAX_LEN.
        let unit = 1u64 << MAX_LEN;
        let mut kraft: u64 = (0..256)
            .filter(|&s| lengths[s] > 0)
            .map(|s| unit >> lengths[s])
            .sum();
        while kraft > unit {
            // Find the deepest symbol shallower than MAX_LEN... lengthen it.
            if let Some(s) = (0..256)
                .filter(|&s| lengths[s] > 0 && lengths[s] < MAX_LEN)
                .max_by_key(|&s| lengths[s])
            {
                kraft -= unit >> lengths[s];
                lengths[s] += 1;
                kraft += unit >> lengths[s];
            } else {
                return; // cannot happen with a consistent tree
            }
        }
    }
}

/// A fast decode table for hot loops: maps (length, code) pairs once.
#[derive(Debug, Clone)]
pub struct FastDecoder {
    /// `first_code[len]` and `first_index[len]` per canonical convention.
    first_code: [u32; (MAX_LEN + 1) as usize],
    count: [u32; (MAX_LEN + 1) as usize],
    symbols: Vec<u8>,
}

impl FastDecoder {
    /// Builds the table from a code.
    pub fn new(h: &Huffman) -> Self {
        let lengths = h.lengths();
        let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
        order.sort_by_key(|&s| (lengths[s], s));
        let mut count = [0u32; (MAX_LEN + 1) as usize];
        for &s in &order {
            count[lengths[s] as usize] += 1;
        }
        let mut first_code = [0u32; (MAX_LEN + 1) as usize];
        let mut code = 0u32;
        for len in 1..=MAX_LEN as usize {
            first_code[len] = code;
            code = (code + count[len]) << 1;
        }
        FastDecoder {
            first_code,
            count,
            symbols: order.iter().map(|&s| s as u8).collect(),
        }
    }

    /// Decodes one symbol.
    pub fn decode(&self, r: &mut BitReader) -> Option<u8> {
        let mut code = 0u32;
        let mut base_index = 0u32;
        for len in 1..=MAX_LEN as usize {
            code = (code << 1) | r.read_bit()? as u32;
            let cnt = self.count[len];
            if cnt > 0 && code < self.first_code[len] + cnt {
                let idx = base_index + (code - self.first_code[len]);
                return self.symbols.get(idx as usize).copied();
            }
            base_index += cnt;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq_of(data: &[u8]) -> [u64; 256] {
        let mut f = [0u64; 256];
        for &b in data {
            f[b as usize] += 1;
        }
        f
    }

    fn roundtrip(data: &[u8]) -> usize {
        let h = Huffman::from_freqs(&freq_of(data));
        let mut w = BitWriter::new();
        for &b in data {
            h.encode(b, &mut w);
        }
        let bytes = w.finish();
        // Slow decoder.
        let mut r = BitReader::new(&bytes);
        for &b in data {
            assert_eq!(h.decode(&mut r), Some(b));
        }
        // Fast decoder.
        let fd = FastDecoder::new(&h);
        let mut r = BitReader::new(&bytes);
        for &b in data {
            assert_eq!(fd.decode(&mut r), Some(b));
        }
        bytes.len()
    }

    #[test]
    fn skewed_data_compresses() {
        let mut data = vec![0u8; 1000];
        for i in 0..50 {
            data[i * 17] = (i % 5) as u8 + 1;
        }
        let coded = roundtrip(&data);
        assert!(coded < 300, "coded {coded} bytes for 1000 input");
    }

    #[test]
    fn uniform_data_stays_near_8_bits() {
        let data: Vec<u8> = (0..2048).map(|i| (i % 256) as u8).collect();
        let coded = roundtrip(&data);
        assert!(coded >= 2048, "can't beat entropy: {coded}");
        assert!(coded < 2048 + 64);
    }

    #[test]
    fn single_symbol_alphabet() {
        let data = vec![42u8; 100];
        let coded = roundtrip(&data);
        assert!(coded <= 13, "1-bit codes: {coded}");
    }

    #[test]
    fn serialize_roundtrip() {
        let data: Vec<u8> = (0..500).map(|i| ((i * i) % 37) as u8).collect();
        let h = Huffman::from_freqs(&freq_of(&data));
        let ser = h.serialize();
        let h2 = Huffman::deserialize(&ser);
        assert_eq!(h.lengths(), h2.lengths());
        let mut w1 = BitWriter::new();
        let mut w2 = BitWriter::new();
        for &b in &data {
            h.encode(b, &mut w1);
            h2.encode(b, &mut w2);
        }
        assert_eq!(w1.finish(), w2.finish());
    }

    #[test]
    fn kraft_inequality_holds() {
        let mut f = [0u64; 256];
        for (s, v) in f.iter_mut().enumerate() {
            *v = (s as u64 + 1) * (s as u64 + 1);
        }
        let h = Huffman::from_freqs(&f);
        let unit = 1u64 << MAX_LEN;
        let kraft: u64 = (0..256)
            .filter(|&s| h.lengths()[s] > 0)
            .map(|s| unit >> h.lengths()[s])
            .sum();
        assert!(kraft <= unit, "kraft {kraft} > {unit}");
    }

    #[test]
    fn truncated_stream_returns_none() {
        let data = vec![1u8, 2, 3, 1, 2, 3, 1, 1, 1];
        let h = Huffman::from_freqs(&freq_of(&data));
        let mut w = BitWriter::new();
        for &b in &data {
            h.encode(b, &mut w);
        }
        let bytes = w.finish();
        let fd = FastDecoder::new(&h);
        let mut r = BitReader::new(&bytes[..0]);
        assert_eq!(fd.decode(&mut r), None);
    }
}
