//! Bit-level writer/reader for the entropy coders, and the byte reader
//! every decoder of outside bytes (air, SMS-requested pages, disk, wire)
//! reads its fields through.

/// MSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    cur: u8,
    nbits: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the lowest `n` bits of `value`, MSB first.
    ///
    /// # Panics
    /// Panics if `n > 32`.
    pub fn write_bits(&mut self, value: u32, n: u8) {
        assert!(n <= 32, "at most 32 bits per call");
        for i in (0..n).rev() {
            let bit = ((value >> i) & 1) as u8;
            self.cur = (self.cur << 1) | bit;
            self.nbits += 1;
            if self.nbits == 8 {
                self.buf.push(self.cur);
                self.cur = 0;
                self.nbits = 0;
            }
        }
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Pads the final partial byte with zeros and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.cur <<= 8 - self.nbits;
            self.buf.push(self.cur);
        }
        self.buf
    }
}

/// MSB-first bit reader.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bit: u8,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte buffer.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, bit: 0 }
    }

    /// Reads one bit; `None` at end of input.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.data.len() {
            return None;
        }
        let b = (self.data[self.pos] >> (7 - self.bit)) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.pos += 1;
        }
        Some(b == 1)
    }

    /// Reads `n` bits MSB-first; `None` if the input runs out.
    pub fn read_bits(&mut self, n: u8) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Some(v)
    }
}

/// Bounds-checked big-endian byte reader. Every read past the end of the
/// input returns `None` and consumes nothing; no method panics or allocates,
/// so a decoder written on it is total by construction.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte buffer.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { rest: data }
    }

    /// The next `n` bytes; `None` if fewer remain.
    // lint: no-alloc
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n)?;
        self.rest = tail;
        Some(head)
    }

    // lint: no-alloc
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(0b1100_1010, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(16), Some(0xFFFF));
        assert_eq!(r.read_bits(1), Some(0));
        assert_eq!(r.read_bits(8), Some(0b1100_1010));
    }

    #[test]
    fn padding_is_zero() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn reader_reports_exhaustion() {
        let mut r = BitReader::new(&[0xAB]);
        assert!(r.read_bits(8).is_some());
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn byte_reader_reads_big_endian_and_stops_at_the_end() {
        let bytes = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Some(0x01));
        assert_eq!(r.u16(), Some(0x0203));
        assert_eq!(r.u32(), Some(0x0405_0607));
        assert_eq!(r.remaining(), 9);
        assert_eq!(r.u64(), Some(0x0809_0A0B_0C0D_0E0F));
        // A short read fails whole and leaves the byte for a shorter one.
        assert_eq!(r.u16(), None);
        assert_eq!(r.take(usize::MAX), None);
        assert_eq!(r.take(1), Some(&[16u8][..]));
        assert_eq!((r.remaining(), r.u8(), r.take(0)), (0, None, Some(&[][..])));
    }
}
