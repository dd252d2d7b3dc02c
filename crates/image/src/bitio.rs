//! Bit-level writer/reader for the entropy coders, and the byte reader and
//! writer every codec of outside bytes (air, SMS-requested pages, disk,
//! wire) reads and writes its fields through.

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

    /// A big-endian `u32` count, `None` past `max`: the bound
    /// [`ByteWriter::bounded_u32`] writes it under.
    pub fn bounded_u32(&mut self, max: usize) -> Option<usize> {
        narrow(usize::try_from(self.u32()?).ok()?, max).ok()
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

/// Big-endian byte writer appending to a caller's buffer, the mirror of
/// [`ByteReader`]. A `narrow_*` or `bounded_*` put writes a `usize` into a
/// narrower field and refuses a value the field (or bound) cannot hold.
#[derive(Debug)]
pub struct ByteWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ByteWriter<'a> {
    /// Appends to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        ByteWriter { out }
    }

    /// Raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.out.extend_from_slice(b);
        self
    }

    /// `n` in a big-endian `u32` field, refused past `max` (at most
    /// `u32::MAX`): the bound [`ByteReader::bounded_u32`] reads it under.
    pub fn bounded_u32(&mut self, n: usize, max: usize) -> Result<&mut Self, Overflow> {
        Ok(self.u32(narrow(n, max)?))
    }
}

/// Each integer width's read, put and (where a `usize` can overflow it)
/// narrowing put, stated once for both sides.
macro_rules! big_endian {
    ($($t:ident $(, $narrow:ident)?;)*) => {$(
        impl ByteReader<'_> {
            #[doc = concat!("A big-endian `", stringify!($t), "`.")]
            pub fn $t(&mut self) -> Option<$t> {
                self.array().map($t::from_be_bytes)
            }
        }

        impl ByteWriter<'_> {
            #[doc = concat!("A big-endian `", stringify!($t), "`.")]
            pub fn $t(&mut self, v: $t) -> &mut Self {
                self.bytes(&v.to_be_bytes())
            }
            $(
            #[doc = concat!("`n` in a big-endian `", stringify!($t), "` field.")]
            pub fn $narrow(&mut self, n: usize) -> Result<&mut Self, Overflow> {
                Ok(self.$t(narrow(n, $t::MAX as usize)?))
            }
            )?
        }
    )*};
}

big_endian! { u8, narrow_u8; u16, narrow_u16; u32, narrow_u32; u64; }

/// A length, count or index a [`ByteWriter`] refused instead of wrapping:
/// `value` is past `max`, the most its field (or its stated bound) holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow {
    /// The value refused.
    pub value: usize,
    /// The most the field or bound holds.
    pub max: usize,
}

impl std::fmt::Display for Overflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Overflow { value, max } = self;
        write!(f, "{value} overflows a field of at most {max}")
    }
}

impl std::error::Error for Overflow {}

/// `value` as a `T`, refused past `max` or past what `T` holds.
pub fn narrow<T: TryFrom<usize>>(value: usize, max: usize) -> Result<T, Overflow> {
    match T::try_from(value) {
        Ok(v) if value <= max => Ok(v),
        _ => Err(Overflow { value, max }),
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

    #[test]
    fn byte_writer_puts_what_the_reader_reads() {
        let mut out = Vec::new();
        let mut w = ByteWriter::new(&mut out);
        w.u8(1).u16(0x0203).u32(0x0405_0607).u64(0x0809_0A0B_0C0D_0E0F).bytes(&[16]);
        w.narrow_u8(255).unwrap().narrow_u16(65_535).unwrap().bounded_u32(7, 7).unwrap();
        let mut r = ByteReader::new(&out);
        assert_eq!((r.u8(), r.u16(), r.u32(), r.u64()), (Some(1), Some(0x0203), Some(0x0405_0607), Some(0x0809_0A0B_0C0D_0E0F)));
        assert_eq!((r.u8(), r.u8(), r.u16(), r.bounded_u32(7)), (Some(16), Some(255), Some(65_535), Some(7)));
        assert_eq!(r.remaining(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Each narrowing put, near and far from its field's top: up to it
        /// the value reads back, past it the put is refused with the value
        /// and writes nothing. A stated bound refuses on both sides alike.
        #[test]
        fn narrowing_puts_refuse_instead_of_wrapping(
            width in 0u8..3,
            near in 0u64..4,
            far in proptest::prelude::any::<u64>(),
            bound in 0usize..10_000,
        ) {
            let max = [u64::from(u8::MAX), u64::from(u16::MAX), u64::from(u32::MAX)][usize::from(width)];
            for n in [max - 1 + near, far] {
                let n = n as usize;
                let mut out = Vec::new();
                let mut w = ByteWriter::new(&mut out);
                let put = match width {
                    0 => w.narrow_u8(n).map(drop),
                    1 => w.narrow_u16(n).map(drop),
                    _ => w.narrow_u32(n).map(drop),
                };
                let max = max as usize;
                if n <= max {
                    proptest::prop_assert_eq!(put, Ok(()));
                    let mut r = ByteReader::new(&out);
                    let back = match width {
                        0 => r.u8().map(usize::from),
                        1 => r.u16().map(usize::from),
                        _ => r.u32().map(|v| v as usize),
                    };
                    proptest::prop_assert_eq!(back, Some(n));
                } else {
                    proptest::prop_assert_eq!(put, Err(Overflow { value: n, max }));
                    proptest::prop_assert!(out.is_empty());
                }
            }
            let n = bound % 200 + 4_990;
            let mut out = Vec::new();
            let put = ByteWriter::new(&mut out).bounded_u32(n, 5_000).map(drop);
            let mut refused = Vec::new();
            ByteWriter::new(&mut refused).u32(n as u32);
            if n <= 5_000 {
                proptest::prop_assert_eq!(put, Ok(()));
                proptest::prop_assert_eq!(ByteReader::new(&out).bounded_u32(5_000), Some(n));
            } else {
                proptest::prop_assert_eq!(put, Err(Overflow { value: n, max: 5_000 }));
                proptest::prop_assert_eq!(ByteReader::new(&refused).bounded_u32(5_000), None);
            }
        }
    }
}
