//! SONIC link-layer frames.
//!
//! §3.3: "Each partition is then divided into fixed-sized frames of 100
//! bytes each. Each frame carries a partition and a sequence number used to
//! reassemble the image on the receiver end … crc32 as the checksum."
//!
//! Wire layout (exactly [`FRAME_SIZE`] = 100 bytes):
//!
//! ```text
//! 0      kind        (1 B: 0x4D meta, 0x53 strip)
//! 1..5   page_id     (u32 BE — url hash ⊕ version)
//! 5..7   field_a     (u16 BE — meta: part seq; strip: column index)
//! 7..9   field_b     (u16 BE — meta: part total ≤ MAX_META_FRAMES;
//!                     strip: seq in the low STRIP_SEQ_BITS, MSB = last)
//! 9      payload_len (u8, ≤ FRAME_PAYLOAD)
//! 10..96 payload     (FRAME_PAYLOAD B, zero-padded)
//! 96..100 crc32      (u32 BE over bytes 0..96)
//! ```
//!
//! Header (10 B) + payload (86 B) + CRC-32 (4 B) = 100 B, so
//! [`FRAME_PAYLOAD`] is 86.

use sonic_fec::crc32;
use sonic_image::bitio::{narrow, ByteReader};

/// Total frame size on the wire.
pub const FRAME_SIZE: usize = 100;
/// Payload bytes per frame.
pub const FRAME_PAYLOAD: usize = 86;

/// Most frames one metadata copy takes: a meta frame's `total` is a `u16`.
pub const MAX_META_FRAMES: usize = u16::MAX as usize;
/// Bits of a strip frame's `seq`; the `u16` field's top bit is `last`.
pub const STRIP_SEQ_BITS: u32 = 15;

/// Frame kind tags.
const KIND_META: u8 = 0x4D; // 'M'
const KIND_STRIP: u8 = 0x53; // 'S'

/// Last-frame flag in a strip frame's sequence field.
const LAST_FLAG: u16 = 1 << STRIP_SEQ_BITS;

/// A decoded SONIC link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Page metadata part (dimensions, URL, TTL, click map).
    Meta {
        /// Page this frame belongs to.
        page_id: u32,
        /// Part index.
        seq: u16,
        /// Total parts in the meta region.
        total: u16,
        /// Bytes of this part.
        payload: Vec<u8>,
    },
    /// A chunk of one 1-px column's strip coding.
    Strip {
        /// Page this frame belongs to.
        page_id: u32,
        /// Column index (0..width).
        column: u16,
        /// Chunk sequence within the column.
        seq: u16,
        /// Whether this is the column's final chunk.
        last: bool,
        /// Bytes of this chunk.
        payload: Vec<u8>,
    },
}

/// Why a frame failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer isn't exactly [`FRAME_SIZE`] bytes.
    BadSize,
    /// CRC-32 mismatch (corrupted in flight).
    BadCrc,
    /// Unknown kind tag or inconsistent fields.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadSize => write!(f, "frame: wrong size"),
            FrameError::BadCrc => write!(f, "frame: crc mismatch"),
            FrameError::Malformed => write!(f, "frame: malformed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// The page id.
    pub fn page_id(&self) -> u32 {
        match self {
            Frame::Meta { page_id, .. } | Frame::Strip { page_id, .. } => *page_id,
        }
    }

    /// Serializes to exactly 100 bytes.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`FRAME_PAYLOAD`] or a strip `seq`
    /// overflows [`STRIP_SEQ_BITS`].
    pub fn encode(&self) -> [u8; FRAME_SIZE] {
        let mut buf = [0u8; FRAME_SIZE];
        let (kind, page_id, a, b, payload) = match self {
            Frame::Meta {
                page_id,
                seq,
                total,
                payload,
            } => (KIND_META, *page_id, *seq, *total, payload),
            Frame::Strip {
                page_id,
                column,
                seq,
                last,
                payload,
            } => {
                assert!(*seq < LAST_FLAG, "strip seq {seq} overflows STRIP_SEQ_BITS");
                let b = seq | if *last { LAST_FLAG } else { 0 };
                (KIND_STRIP, *page_id, *column, b, payload)
            }
        };
        let len: u8 = narrow(payload.len(), FRAME_PAYLOAD).expect("payload too large");
        buf[0] = kind;
        buf[1..5].copy_from_slice(&page_id.to_be_bytes());
        buf[5..7].copy_from_slice(&a.to_be_bytes());
        buf[7..9].copy_from_slice(&b.to_be_bytes());
        buf[9] = len;
        buf[10..10 + payload.len()].copy_from_slice(payload);
        let crc = crc32(&buf[..FRAME_SIZE - 4]);
        buf[FRAME_SIZE - 4..].copy_from_slice(&crc.to_be_bytes());
        buf
    }

    /// Parses and CRC-checks a 100-byte buffer.
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        let mut r = ByteReader::new(buf);
        let (Some(body), Some(want), 0) = (r.take(FRAME_SIZE - 4), r.u32(), r.remaining()) else {
            return Err(FrameError::BadSize);
        };
        if crc32(body) != want {
            return Err(FrameError::BadCrc);
        }
        let mut r = ByteReader::new(body);
        // The 96-byte body always holds the 10-byte header.
        let (Some(kind), Some(page_id), Some(a), Some(b), Some(len)) =
            (r.u8(), r.u32(), r.u16(), r.u16(), r.u8())
        else {
            return Err(FrameError::Malformed);
        };
        let len = usize::from(len);
        if len > FRAME_PAYLOAD {
            return Err(FrameError::Malformed);
        }
        let payload = r.take(len).ok_or(FrameError::Malformed)?.to_vec();
        match kind {
            KIND_META => Ok(Frame::Meta {
                page_id,
                seq: a,
                total: b,
                payload,
            }),
            KIND_STRIP => Ok(Frame::Strip {
                page_id,
                column: a,
                seq: b & !LAST_FLAG,
                last: b & LAST_FLAG != 0,
                payload,
            }),
            _ => Err(FrameError::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let f = Frame::Meta {
            page_id: 0xDEADBEEF,
            seq: 3,
            total: 7,
            payload: vec![1, 2, 3, 4],
        };
        let wire = f.encode();
        assert_eq!(wire.len(), FRAME_SIZE);
        assert_eq!(Frame::decode(&wire), Ok(f));
    }

    #[test]
    fn strip_roundtrip_with_last_flag() {
        let f = Frame::Strip {
            page_id: 42,
            column: 1079,
            seq: 0x7FFF,
            last: true,
            payload: vec![9; FRAME_PAYLOAD],
        };
        assert_eq!(Frame::decode(&f.encode()), Ok(f));
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        let f = Frame::Strip {
            page_id: 7,
            column: 12,
            seq: 5,
            last: false,
            payload: vec![0xAA; 40],
        };
        let wire = f.encode();
        for i in 0..FRAME_SIZE {
            let mut bad = wire;
            bad[i] ^= 0x01;
            assert!(
                Frame::decode(&bad).is_err(),
                "flip at byte {i} must not parse clean"
            );
        }
    }

    #[test]
    fn wrong_size_rejected() {
        assert_eq!(Frame::decode(&[0u8; 99]), Err(FrameError::BadSize));
        assert_eq!(Frame::decode(&[0u8; 101]), Err(FrameError::BadSize));
    }

    #[test]
    fn empty_payload_allowed() {
        let f = Frame::Meta {
            page_id: 1,
            seq: 0,
            total: 1,
            payload: vec![],
        };
        assert_eq!(Frame::decode(&f.encode()), Ok(f));
    }

    #[test]
    #[should_panic(expected = "payload too large")]
    fn oversize_payload_panics() {
        let f = Frame::Meta {
            page_id: 1,
            seq: 0,
            total: 1,
            payload: vec![0; FRAME_PAYLOAD + 1],
        };
        let _ = f.encode();
    }

    /// The wire bytes of one frame of each kind, pinned: a layout change has
    /// to re-pin them on purpose.
    #[test]
    fn wire_bytes_are_pinned() {
        fn hex(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
                .collect()
        }
        let meta = Frame::Meta {
            page_id: 0x1234_5678,
            seq: 2,
            total: 5,
            payload: b"SONIC meta".to_vec(),
        };
        let strip = Frame::Strip {
            page_id: 0xCAFE_F00D,
            column: 1079,
            seq: 3,
            last: true,
            payload: (0..FRAME_PAYLOAD as u8)
                .map(|i| i.wrapping_mul(3).wrapping_add(1))
                .collect(),
        };
        let meta_wire = hex(concat!(
            "4d12345678000200050a534f4e4943206d657461000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "b6e54216",
        ));
        let strip_wire = hex(concat!(
            "53cafef00d04378003560104070a0d101316191c1f2225282b2e3134373a3d40",
            "4346494c4f5255585b5e6164676a6d707376797c7f8285888b8e9194979a9da0",
            "a3a6a9acafb2b5b8bbbec1c4c7cacdd0d3d6d9dcdfe2e5e8ebeef1f4f7fafd00",
            "dd62119f",
        ));
        for (frame, wire) in [(meta, meta_wire), (strip, strip_wire)] {
            assert_eq!(frame.encode().as_slice(), wire.as_slice(), "{frame:?}");
            assert_eq!(Frame::decode(&wire), Ok(frame));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4_096))]

        /// Byte soup with a valid trailing CRC, so the header parse is
        /// reached: the kind byte is `M`, `S` or anything, the length byte
        /// anything. Then the buffer is kept whole, truncated or extended,
        /// or has one bit flipped. `decode` never panics, accepts only a
        /// whole CRC-valid `M`/`S` frame whose length byte is at most 86,
        /// and what it accepts re-encodes to bytes that decode to it again.
        #[test]
        fn decode_is_total_on_byte_soup(
            soup in proptest::collection::vec(proptest::any::<u8>(), FRAME_SIZE),
            kind in 0u8..3,
            damage in 0u8..4,
            at in 0usize..FRAME_SIZE * 8,
        ) {
            let mut buf = soup;
            match kind {
                0 => buf[0] = KIND_META,
                1 => buf[0] = KIND_STRIP,
                _ => {}
            }
            let crc = crc32(&buf[..FRAME_SIZE - 4]);
            buf[FRAME_SIZE - 4..].copy_from_slice(&crc.to_be_bytes());
            match damage {
                1 => buf.truncate(at / 8),
                2 => buf.resize(FRAME_SIZE + 1 + at % 8, 0),
                3 => buf[at / 8] ^= 1 << (at % 8),
                _ => {}
            }
            let got = Frame::decode(&buf);
            let accept = buf.len() == FRAME_SIZE
                && crc32(&buf[..FRAME_SIZE - 4]).to_be_bytes() == buf[FRAME_SIZE - 4..]
                && matches!(buf[0], KIND_META | KIND_STRIP)
                && usize::from(buf[9]) <= FRAME_PAYLOAD;
            proptest::prop_assert_eq!(got.is_ok(), accept, "{:?}", got);
            if let Ok(frame) = got {
                proptest::prop_assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
            }
        }
    }

    #[test]
    fn overhead_is_fourteen_percent() {
        // 86/100 useful: the paper's 100-byte frames with id/seq/crc cost
        // 14 bytes of overhead.
        assert_eq!(FRAME_SIZE - FRAME_PAYLOAD, 14);
    }
}
