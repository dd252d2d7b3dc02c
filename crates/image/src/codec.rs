//! "SWP" — the lossy whole-image codec standing in for WebP.
//!
//! JPEG-family architecture (YCbCr 4:2:0, 8×8 DCT, quality-scaled
//! quantization, zig-zag + run-length symbols, canonical Huffman) with one
//! shared Huffman table serialized in the header. Quality follows the WebP
//! 0–95 knob of the paper; Q=10 lands in the same bits-per-pixel regime the
//! paper reports for rendered webpages (Fig 4b).
//!
//! Format layout:
//!
//! ```text
//! magic "SWP1" | width u32 | height u32 | quality u8 | table[128] | bitstream
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::color::Ycbcr420;
use crate::dct;
use crate::huffman::{FastDecoder, Huffman};
use crate::quant::QuantTables;
use crate::raster::Raster;

/// Magic bytes.
const MAGIC: &[u8; 4] = b"SWP1";

/// Decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Not an SWP stream.
    BadMagic,
    /// Header incomplete or inconsistent.
    BadHeader,
    /// Entropy stream ended early.
    Truncated,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "swp: bad magic"),
            CodecError::BadHeader => write!(f, "swp: bad header"),
            CodecError::Truncated => write!(f, "swp: truncated stream"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One plane's blocks as quantized symbol data.
struct PlaneSpec<'a> {
    data: &'a [f32],
    width: usize,
    height: usize,
    chroma: bool,
}

/// Magnitude category (bits needed) of a value, JPEG-style.
fn category(v: i32) -> u8 {
    let a = v.unsigned_abs();
    (32 - a.leading_zeros()) as u8
}

/// JPEG magnitude encoding: value → (category, raw bits).
fn magnitude_bits(v: i32) -> (u8, u32) {
    let cat = category(v);
    if v >= 0 {
        (cat, v as u32)
    } else {
        (cat, (v - 1) as u32 & ((1u32 << cat) - 1))
    }
}

/// Inverse of [`magnitude_bits`].
fn magnitude_decode(cat: u8, bits: u32) -> i32 {
    if cat == 0 {
        return 0;
    }
    let half = 1u32 << (cat - 1);
    if bits >= half {
        bits as i32
    } else {
        bits as i32 - (1i32 << cat) + 1
    }
}

/// Symbol produced by the block coder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sym {
    symbol: u8,
    extra: u32,
    extra_len: u8,
}

fn encode_plane_symbols(plane: &PlaneSpec, q: &QuantTables, out: &mut Vec<Sym>) {
    let bw = plane.width.div_ceil(8);
    let bh = plane.height.div_ceil(8);
    out.reserve(bw * bh * 4);
    let mut prev_dc = 0i32;
    for by in 0..bh {
        prev_dc = encode_band_symbols(plane, q, by, prev_dc, out);
    }
}

/// Symbols for one 8-row band of blocks (block row `by`), chaining the DC
/// predictor from `prev_dc`. Returns the predictor value after the band —
/// the DC chain is the only state crossing band boundaries.
fn encode_band_symbols(
    plane: &PlaneSpec,
    q: &QuantTables,
    by: usize,
    mut prev_dc: i32,
    out: &mut Vec<Sym>,
) -> i32 {
    let bw = plane.width.div_ceil(8);
    // Row-major block scratch reused across the whole band: every slot is
    // fully rewritten per block, so no clearing is needed.
    let mut block = [0.0f32; 64];
    let mut coeffs = [0.0f32; 64];
    let mut qz = [0i16; 64];
    for bx in 0..bw {
        // Gather with edge replication.
        for y in 0..8 {
            for x in 0..8 {
                let sx = (bx * 8 + x).min(plane.width - 1);
                let sy = (by * 8 + y).min(plane.height - 1);
                block[y * 8 + x] = plane.data[sy * plane.width + sx] - 128.0;
            }
        }
        dct::forward_into(&block, &mut coeffs);
        q.quantize_into(&coeffs, plane.chroma, &mut qz);

        // DC.
        let diff = qz[0] as i32 - prev_dc;
        prev_dc = qz[0] as i32;
        let (cat, bits) = magnitude_bits(diff);
        out.push(Sym {
            symbol: cat,
            extra: bits,
            extra_len: cat,
        });

        // AC run-length.
        let mut run = 0u8;
        for &qv in &qz[1..64] {
            let v = qv as i32;
            if v == 0 {
                run += 1;
                continue;
            }
            while run >= 16 {
                out.push(Sym {
                    symbol: 0xF0,
                    extra: 0,
                    extra_len: 0,
                });
                run -= 16;
            }
            let (cat, bits) = magnitude_bits(v);
            out.push(Sym {
                symbol: (run << 4) | cat,
                extra: bits,
                extra_len: cat,
            });
            run = 0;
        }
        if run > 0 {
            out.push(Sym {
                symbol: 0x00, // EOB
                extra: 0,
                extra_len: 0,
            });
        }
    }
    prev_dc
}

/// The tail of [`encode`]: global Huffman table from the symbol stream,
/// then header + entropy-coded bits.
fn serialize_swp(img: &Raster, q: &QuantTables, syms: &[Sym]) -> Vec<u8> {
    let mut freqs = [0u64; 256];
    for s in syms {
        freqs[s.symbol as usize] += 1;
    }
    let huff = Huffman::from_freqs(&freqs);

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(img.width() as u32).to_be_bytes());
    out.extend_from_slice(&(img.height() as u32).to_be_bytes());
    out.push(q.quality);
    out.extend_from_slice(&huff.serialize());

    let mut w = BitWriter::new();
    for s in syms {
        huff.encode(s.symbol, &mut w);
        if s.extra_len > 0 {
            w.write_bits(s.extra, s.extra_len);
        }
    }
    out.extend_from_slice(&w.finish());
    out
}

/// Encodes a raster at the given quality (0–95).
pub fn encode(img: &Raster, quality: u8) -> Vec<u8> {
    let q = QuantTables::for_quality(quality);
    let planes = Ycbcr420::from_raster(img);
    let specs = [
        PlaneSpec {
            data: &planes.y,
            width: planes.width,
            height: planes.height,
            chroma: false,
        },
        PlaneSpec {
            data: &planes.cb,
            width: planes.cw(),
            height: planes.ch(),
            chroma: true,
        },
        PlaneSpec {
            data: &planes.cr,
            width: planes.cw(),
            height: planes.ch(),
            chroma: true,
        },
    ];

    let mut syms = Vec::new();
    for spec in &specs {
        encode_plane_symbols(spec, &q, &mut syms);
    }
    serialize_swp(img, &q, &syms)
}

fn decode_plane(
    r: &mut BitReader,
    fd: &FastDecoder,
    q: &QuantTables,
    width: usize,
    height: usize,
    chroma: bool,
) -> Result<Vec<f32>, CodecError> {
    let bw = width.div_ceil(8);
    let bh = height.div_ceil(8);
    let mut plane = vec![0.0f32; width * height];
    let mut prev_dc = 0i32;
    // Block scratch reused across the plane; qz is re-zeroed per block
    // because the AC loop only writes non-zero coefficients.
    let mut qz = [0i16; 64];
    let mut coeffs = [0.0f32; 64];
    let mut px = [0.0f32; 64];
    for by in 0..bh {
        for bx in 0..bw {
            qz.fill(0);
            // DC.
            let cat = fd.decode(r).ok_or(CodecError::Truncated)?;
            let bits = r.read_bits(cat).ok_or(CodecError::Truncated)?;
            prev_dc += magnitude_decode(cat, bits);
            qz[0] = prev_dc as i16;
            // AC.
            let mut k = 1usize;
            while k < 64 {
                let sym = fd.decode(r).ok_or(CodecError::Truncated)?;
                if sym == 0x00 {
                    break; // EOB
                }
                if sym == 0xF0 {
                    k += 16;
                    continue;
                }
                let run = (sym >> 4) as usize;
                let cat = sym & 0x0F;
                k += run;
                if k >= 64 {
                    return Err(CodecError::BadHeader);
                }
                let bits = r.read_bits(cat).ok_or(CodecError::Truncated)?;
                qz[k] = magnitude_decode(cat, bits) as i16;
                k += 1;
            }
            q.dequantize_into(&qz, chroma, &mut coeffs);
            dct::inverse_into(&coeffs, &mut px);
            for y in 0..8 {
                for x in 0..8 {
                    let dx = bx * 8 + x;
                    let dy = by * 8 + y;
                    if dx < width && dy < height {
                        plane[dy * width + dx] = (px[y * 8 + x] + 128.0).clamp(0.0, 255.0);
                    }
                }
            }
        }
    }
    Ok(plane)
}

/// Decodes an SWP stream.
pub fn decode(data: &[u8]) -> Result<Raster, CodecError> {
    if data.len() < 4 + 8 + 1 + 128 {
        return Err(CodecError::BadHeader);
    }
    if &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let width = u32::from_be_bytes([data[4], data[5], data[6], data[7]]) as usize;
    let height = u32::from_be_bytes([data[8], data[9], data[10], data[11]]) as usize;
    let quality = data[12];
    if width == 0 || height == 0 || width > 16_384 || height > 65_536 {
        return Err(CodecError::BadHeader);
    }
    let mut table = [0u8; 128];
    table.copy_from_slice(&data[13..141]);
    let huff = Huffman::deserialize(&table);
    let fd = FastDecoder::new(&huff);
    let q = QuantTables::for_quality(quality);

    let mut r = BitReader::new(&data[141..]);
    let (cw, ch) = (width.div_ceil(2), height.div_ceil(2));
    let y = decode_plane(&mut r, &fd, &q, width, height, false)?;
    let cb = decode_plane(&mut r, &fd, &q, cw, ch, true)?;
    let cr = decode_plane(&mut r, &fd, &q, cw, ch, true)?;
    let planes = Ycbcr420 {
        width,
        height,
        y,
        cb,
        cr,
    };
    Ok(planes.to_raster())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;
    use crate::raster::Rgb;

    /// A small synthetic "webpage": white background, dark header, text-ish
    /// noise rows and a color block.
    fn page(w: usize, h: usize) -> Raster {
        let mut img = Raster::new(w, h);
        img.fill_rect(0, 0, w, h / 8, Rgb::new(30, 30, 60));
        img.fill_rect(w / 10, h / 2, w / 3, h / 4, Rgb::new(200, 60, 40));
        let mut x = 7u32;
        for y in (h / 4)..(h / 4 + h / 8) {
            for xx in (w / 10)..(w * 9 / 10) {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                if x.is_multiple_of(5) {
                    img.set(xx, y, Rgb::BLACK);
                }
            }
        }
        img
    }

    /// The band coder's output, pinned as FNV-64 digests of the whole
    /// stream for one odd-sized page at a low and a high quality. A change
    /// to the symbol coder that moves a bit moves a digest.
    #[test]
    fn encode_is_pinned() {
        let img = page(117, 83);
        for (quality, len, digest) in [
            (10, 650, 0xff82_1040_e987_6393),
            (90, 2170, 0x0fb6_ffb4_8f47_4138),
        ] {
            let data = encode(&img, quality);
            let got = (data.len(), crate::hash::fnv1a64(&data));
            assert_eq!(got, (len, digest), "quality {quality}");
        }
    }

    #[test]
    fn roundtrip_dimensions_and_quality() {
        let img = page(64, 48);
        let data = encode(&img, 50);
        let out = decode(&data).expect("decode");
        assert_eq!(out.width(), 64);
        assert_eq!(out.height(), 48);
        assert!(psnr(&img, &out) > 25.0, "psnr {}", psnr(&img, &out));
    }

    #[test]
    fn higher_quality_is_bigger_and_better() {
        let img = page(128, 96);
        let d10 = encode(&img, 10);
        let d90 = encode(&img, 90);
        assert!(d90.len() > d10.len(), "{} vs {}", d90.len(), d10.len());
        let p10 = psnr(&img, &decode(&d10).expect("q10"));
        let p90 = psnr(&img, &decode(&d90).expect("q90"));
        assert!(p90 > p10 + 3.0, "p10 {p10} p90 {p90}");
    }

    #[test]
    fn flat_image_compresses_massively() {
        let img = Raster::filled(256, 256, Rgb::new(245, 245, 245));
        let data = encode(&img, 10);
        // 256·256·3 = 196 608 raw bytes; flat should be < 2 KB.
        assert!(data.len() < 2048, "flat page {} bytes", data.len());
        let out = decode(&data).expect("decode");
        // Q10's DC quantization step allows a few counts of flat-field error.
        assert!(img.mean_abs_diff(&out) < 6.0, "diff {}", img.mean_abs_diff(&out));
    }

    #[test]
    fn odd_dimensions_roundtrip() {
        let img = page(37, 23);
        let out = decode(&encode(&img, 75)).expect("decode");
        assert_eq!((out.width(), out.height()), (37, 23));
    }

    #[test]
    fn magnitude_coding_roundtrips() {
        for v in [-1000, -255, -1, 0, 1, 7, 8, 255, 1000] {
            let (cat, bits) = magnitude_bits(v);
            assert_eq!(magnitude_decode(cat, bits), v, "value {v}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let img = page(16, 16);
        let mut data = encode(&img, 50);
        data[0] = b'X';
        assert_eq!(decode(&data), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let img = page(64, 64);
        let data = encode(&img, 50);
        let cut = &data[..data.len() / 2];
        assert_eq!(decode(cut), Err(CodecError::Truncated));
    }

    #[test]
    fn quality_ten_hits_webpage_bitrates() {
        // Q10 on page-like content should land in the ~0.1–0.6 bpp band the
        // paper's Fig 4b implies for rendered webpages.
        let img = page(512, 512);
        let data = encode(&img, 10);
        let bpp = data.len() as f64 * 8.0 / (512.0 * 512.0);
        assert!(bpp > 0.02 && bpp < 0.8, "bpp {bpp}");
    }
}
