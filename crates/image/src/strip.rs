//! Column-strip transmission coding (§3.3).
//!
//! "Upon transmitting a rendered page, we first divide the image vertically
//! into multiple partitions, each with a width of 1 pixel. Each partition is
//! then divided into fixed-sized frames of 100 bytes each."
//!
//! Each column is coded independently: YCbCr with the chroma planes
//! subsampled 4× vertically, quantized (Y→6 bits, C→5 bits), vertical-delta
//! predicted and Exp-Golomb coded. Independence is the point — a lost frame
//! truncates *one column's* suffix instead of desynchronizing the whole
//! file, and the truncated pixels are then repaired by
//! [`crate::interpolate::recover`].
//!
//! This resilient representation trades compression for robustness: expect
//! 3–8× the bytes of the SWP whole-image codec at Q10 (documented in
//! DESIGN.md — the paper uses WebP sizes for its Figure 4b/4c arithmetic and
//! pixel partitions for loss behaviour without reconciling the two).

use crate::bitio::{BitReader, BitWriter};
use crate::color::{rgb_to_ycbcr, ycbcr_to_rgb};
use crate::hash::Fnv64;
use crate::raster::{Raster, Rgb};

/// Vertical chroma subsampling factor.
const CHROMA_SUB: usize = 4;
/// Luma quantization shift (8→6 bits).
const Y_SHIFT: u32 = 2;
/// Chroma quantization shift (8→5 bits).
const C_SHIFT: u32 = 3;

/// Unsigned Exp-Golomb write.
fn ue_write(w: &mut BitWriter, v: u32) {
    let x = v + 1;
    let bits = 32 - x.leading_zeros();
    for _ in 0..bits - 1 {
        w.write_bit(false);
    }
    w.write_bits(x, bits as u8);
}

/// Unsigned Exp-Golomb read.
fn ue_read(r: &mut BitReader) -> Option<u32> {
    let mut zeros = 0u8;
    while !(r.read_bit()?) {
        zeros += 1;
        if zeros > 31 {
            return None;
        }
    }
    let rest = r.read_bits(zeros)?;
    Some(((1u32 << zeros) | rest) - 1)
}

/// Signed mapping: 0, -1, 1, -2, 2… → 0, 1, 2, 3, 4…
fn se_write(w: &mut BitWriter, v: i32) {
    let u = if v <= 0 { (-v as u32) * 2 } else { v as u32 * 2 - 1 };
    ue_write(w, u);
}

fn se_read(r: &mut BitReader) -> Option<i32> {
    let u = ue_read(r)?;
    Some(if u % 2 == 0 {
        -((u / 2) as i32)
    } else {
        (u / 2 + 1) as i32
    })
}

/// An image coded as independent 1-px-wide column strips.
#[derive(Debug, Clone)]
pub struct StripImage {
    /// Image width (= number of strips).
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Encoded bytes per column.
    pub strips: Vec<Vec<u8>>,
}

impl StripImage {
    /// Total encoded size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.strips.iter().map(Vec::len).sum()
    }
}

/// Encodes one column of pixels — the strip-granular entry point.
///
/// Column bitstreams are fully independent (that is the §3.3 design), so a
/// caller holding a previous encode may splice unchanged columns' bytes and
/// call this only for dirty ones; see [`encode_delta_prehashed`].
pub fn encode_column(pixels: &[Rgb]) -> Vec<u8> {
    let h = pixels.len();
    let mut w = BitWriter::new();
    // Luma: quantize to 6 bits, delta from the reconstructed previous value.
    let mut prev = 0i32;
    for px in pixels {
        let (y, _, _) = rgb_to_ycbcr(*px);
        let q = (y as u32 >> Y_SHIFT) as i32;
        se_write(&mut w, q - prev);
        prev = q;
    }
    // Chroma: one sample per CHROMA_SUB rows, averaged, 5-bit, delta-coded.
    for plane in 0..2 {
        let mut prev = (128u32 >> C_SHIFT) as i32;
        let mut y0 = 0usize;
        while y0 < h {
            let y1 = (y0 + CHROMA_SUB).min(h);
            let mut acc = 0.0f32;
            for px in &pixels[y0..y1] {
                let (_, cb, cr) = rgb_to_ycbcr(*px);
                acc += if plane == 0 { cb } else { cr };
            }
            let avg = acc / (y1 - y0) as f32;
            let q = (avg.clamp(0.0, 255.0) as u32 >> C_SHIFT) as i32;
            se_write(&mut w, q - prev);
            prev = q;
            y0 = y1;
        }
    }
    w.finish()
}

/// A decoded DPCM level `prev`, clamped to `0..=max`, back at its 8-bit
/// scale: `max << shift` fits a byte, so the conversion is exact.
fn level(prev: i32, max: u8, shift: u32) -> f32 {
    f32::from(u8::try_from(prev.clamp(0, max.into())).unwrap_or(max) << shift)
}

/// Decodes as much of a column as the byte prefix allows.
///
/// Returns the reconstructed pixels and the count of *fully decoded* luma
/// rows — pixels past that point were lost with the tail of the strip.
/// When the chroma section is missing the luma is still used (gray column),
/// because readable text beats a hole.
fn decode_column_prefix(data: &[u8], height: usize) -> (Vec<Rgb>, usize) {
    let mut r = BitReader::new(data);
    let mut luma = Vec::with_capacity(height);
    let mut prev = 0i32;
    for _ in 0..height {
        match se_read(&mut r) {
            Some(d) => {
                prev += d;
                luma.push(level(prev, 63, Y_SHIFT));
            }
            None => break,
        }
    }
    let valid_luma = luma.len();

    let chroma_rows = height.div_ceil(CHROMA_SUB);
    let mut planes = [Vec::new(), Vec::new()];
    'outer: for plane in planes.iter_mut() {
        let mut prev = (128u32 >> C_SHIFT) as i32;
        for _ in 0..chroma_rows {
            match se_read(&mut r) {
                Some(d) => {
                    prev += d;
                    plane.push(level(prev, 31, C_SHIFT));
                }
                None => break 'outer,
            }
        }
    }

    let mut out = Vec::with_capacity(valid_luma);
    for (y, &l) in luma.iter().enumerate() {
        let ci = y / CHROMA_SUB;
        let cb = planes[0].get(ci).copied().unwrap_or(128.0);
        let cr = planes[1].get(ci).copied().unwrap_or(128.0);
        out.push(ycbcr_to_rgb(l + f32::from(1u8 << (Y_SHIFT - 1)), cb, cr));
    }
    (out, valid_luma)
}

/// Encodes a raster into independent column strips.
pub fn encode(img: &Raster) -> StripImage {
    let strips = (0..img.width())
        .map(|x| encode_column(&img.column(x)))
        .collect();
    StripImage {
        width: img.width(),
        height: img.height(),
        strips,
    }
}

/// Content address of one pixel column.
pub fn hash_column(pixels: &[Rgb]) -> u64 {
    let mut h = Fnv64::new();
    for px in pixels {
        h.write(&[px.r, px.g, px.b]);
    }
    h.finish()
}

/// Per-column content addresses of a raster (dirty-strip diffing).
pub fn column_hashes(img: &Raster) -> Vec<u64> {
    (0..img.width()).map(|x| hash_column(&img.column(x))).collect()
}

/// Whole-raster content address: dimensions folded with every column hash
/// from [`column_hashes`] (equal columns ⇒ equal page), so a caller that
/// already holds the per-column index derives it without a second pass over
/// the pixels.
pub fn raster_hash_from(width: usize, height: usize, col_hashes: &[u64]) -> u64 {
    debug_assert_eq!(col_hashes.len(), width, "one hash per column");
    let mut h = Fnv64::new();
    h.write_u64(width as u64).write_u64(height as u64);
    for &ch in col_hashes {
        h.write_u64(ch);
    }
    h.finish()
}

/// Outcome of a delta encode: the new strip image plus reuse accounting.
#[derive(Debug, Clone)]
pub struct DeltaEncode {
    /// The freshly assembled strip image (bit-identical to [`encode`]).
    pub strips: StripImage,
    /// Per-column content addresses of the new image.
    pub hashes: Vec<u64>,
    /// Columns whose bitstream was spliced from the previous encode.
    pub reused: usize,
    /// Columns that were re-encoded (dirty strips).
    pub reencoded: usize,
}

/// Re-encodes only the columns whose content changed since a previous
/// encode, splicing the unchanged columns' bitstreams verbatim.
///
/// `prev`/`prev_hashes` must come from the same encoder ([`encode`] with
/// [`column_hashes`], or an earlier delta), and `hashes` are the new image's
/// [`column_hashes`], which a pipeline already holds from its whole-page
/// content address. The result is bit-identical to running [`encode`] on
/// `img` from scratch: column bitstreams are pure functions of their
/// pixels, so a hash-equal column's bytes can be copied, and its pixels are
/// never touched.
///
/// # Panics
/// Panics if `prev_hashes` does not have one hash per previous column, if
/// `hashes` is not one per new column, or if the previous image's
/// dimensions differ from `img` (dimension changes invalidate every strip —
/// callers fall back to a full encode).
pub fn encode_delta_prehashed(
    img: &Raster,
    prev: &StripImage,
    prev_hashes: &[u64],
    hashes: Vec<u64>,
) -> DeltaEncode {
    assert_eq!(prev.strips.len(), prev_hashes.len(), "one hash per column");
    assert_eq!(hashes.len(), img.width(), "one new hash per column");
    assert_eq!(
        (prev.width, prev.height),
        (img.width(), img.height()),
        "delta encode requires identical dimensions"
    );
    let mut strips = Vec::with_capacity(img.width());
    let mut reused = 0usize;
    let mut reencoded = 0usize;
    for (x, &h) in hashes.iter().enumerate() {
        if prev_hashes[x] == h {
            strips.push(prev.strips[x].clone());
            reused += 1;
        } else {
            strips.push(encode_column(&img.column(x)));
            reencoded += 1;
        }
    }
    DeltaEncode {
        strips: StripImage {
            width: img.width(),
            height: img.height(),
            strips,
        },
        hashes,
        reused,
        reencoded,
    }
}

/// Columns whose content address changed between two hash indexes — the
/// delta-carousel's dirty set. Both slices must describe the same width;
/// a length mismatch means the dimensions changed and *every* column is
/// dirty, so all of them are returned. Columns are named by their `u16`
/// frame index, so only the first 65 536 are compared (no page is wider).
pub fn diff_columns(prev_hashes: &[u64], new_hashes: &[u64]) -> Vec<u16> {
    let resized = prev_hashes.len() != new_hashes.len();
    (0..=u16::MAX)
        .zip(new_hashes)
        .filter(|&(x, n)| resized || prev_hashes[usize::from(x)] != *n)
        .map(|(x, _)| x)
        .collect()
}

/// Decodes a strip image where each column may have lost a byte suffix.
///
/// `received[x]` is the number of leading bytes of column `x` that arrived
/// (`strips[x].len()` when complete). Returns the raster plus the loss mask
/// marking pixels that need interpolation.
pub fn decode_partial(
    img: &StripImage,
    received: &[usize],
) -> (Raster, crate::interpolate::LossMask) {
    assert_eq!(received.len(), img.width, "one count per column");
    let mut out = Raster::new(img.width, img.height);
    let mut mask = crate::interpolate::LossMask::none(img.width, img.height);
    for (x, &count) in received.iter().enumerate() {
        let n = count.min(img.strips[x].len());
        let (pixels, valid) = decode_column_prefix(&img.strips[x][..n], img.height);
        for (y, &px) in pixels.iter().enumerate().take(valid) {
            out.set(x, y, px);
        }
        for y in valid..img.height {
            mask.set_lost(x, y);
        }
    }
    (out, mask)
}

/// Convenience: lossless decode.
pub fn decode(img: &StripImage) -> Raster {
    let full: Vec<usize> = img.strips.iter().map(Vec::len).collect();
    decode_partial(img, &full).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Rgb;

    fn page(w: usize, h: usize) -> Raster {
        let mut img = Raster::new(w, h);
        img.fill_rect(0, 0, w, h / 6, Rgb::new(40, 40, 90));
        img.fill_rect(w / 8, h / 3, w / 2, h / 5, Rgb::new(210, 80, 30));
        for y in (h / 2)..(h * 3 / 4) {
            for x in 0..w {
                if (x * 7 + y * 13) % 11 == 0 {
                    img.set(x, y, Rgb::BLACK);
                }
            }
        }
        img
    }

    #[test]
    fn exp_golomb_roundtrip() {
        let mut w = BitWriter::new();
        let values = [-100i32, -3, -1, 0, 1, 2, 7, 63, 500];
        for &v in &values {
            se_write(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(se_read(&mut r), Some(v));
        }
    }

    #[test]
    fn full_roundtrip_is_visually_lossless_enough() {
        let img = page(40, 64);
        let coded = encode(&img);
        let back = decode(&coded);
        // 6-bit luma + subsampled 5-bit chroma: mean error stays small.
        assert!(img.mean_abs_diff(&back) < 8.0, "diff {}", img.mean_abs_diff(&back));
    }

    #[test]
    fn strips_are_column_independent() {
        let img = page(20, 32);
        let coded = encode(&img);
        let mut received: Vec<usize> = coded.strips.iter().map(Vec::len).collect();
        received[7] = 0; // column 7 fully lost
        let (out, mask) = decode_partial(&coded, &received);
        // All other columns decode exactly as in the lossless case.
        let clean = decode(&coded);
        for x in 0..20 {
            if x == 7 {
                for y in 0..32 {
                    assert!(mask.is_lost(7, y));
                }
                continue;
            }
            for y in 0..32 {
                assert_eq!(out.get(x, y), clean.get(x, y), "col {x} row {y}");
            }
        }
    }

    #[test]
    fn truncated_column_loses_only_suffix() {
        let img = page(10, 64);
        let coded = encode(&img);
        let mut received: Vec<usize> = coded.strips.iter().map(Vec::len).collect();
        received[3] /= 2;
        let (_, mask) = decode_partial(&coded, &received);
        let lost_rows: Vec<usize> = (0..64).filter(|&y| mask.is_lost(3, y)).collect();
        assert!(!lost_rows.is_empty());
        // Lost rows must be a contiguous suffix.
        let first = lost_rows[0];
        assert_eq!(lost_rows, (first..64).collect::<Vec<_>>());
        assert!(first > 0, "half the bytes must decode a nonzero prefix");
    }

    #[test]
    fn flat_columns_are_tiny() {
        let img = Raster::filled(8, 1000, Rgb::new(250, 250, 250));
        let coded = encode(&img);
        // 1000 zero deltas ≈ 1000 bits luma + 500 chroma bits ≈ 190 bytes.
        for s in &coded.strips {
            assert!(s.len() < 260, "flat strip {} bytes", s.len());
        }
    }

    #[test]
    fn total_bytes_sums_strips() {
        let img = page(12, 20);
        let coded = encode(&img);
        assert_eq!(
            coded.total_bytes(),
            coded.strips.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn delta_encode_is_bit_identical_to_cold_encode() {
        let base = page(30, 48);
        let (prev, prev_hashes) = (encode(&base), column_hashes(&base));

        // Mutate a handful of columns (deterministic pseudo-random pattern).
        let mut mutated = base.clone();
        for x in [3usize, 4, 11, 22] {
            for y in 0..48 {
                if (x * 31 + y * 17) % 5 == 0 {
                    mutated.set(x, y, Rgb::new(255, 0, (y * 5) as u8));
                }
            }
        }

        let delta = encode_delta_prehashed(&mutated, &prev, &prev_hashes, column_hashes(&mutated));
        let cold = encode(&mutated);
        assert_eq!(delta.strips.strips, cold.strips, "splice must be bit-identical");
        assert_eq!(delta.hashes, column_hashes(&mutated));
        assert_eq!(delta.reused + delta.reencoded, 30);
        assert_eq!(delta.reencoded, 4, "exactly the mutated columns re-encode");
    }

    #[test]
    fn delta_encode_identical_raster_reuses_everything() {
        let img = page(16, 24);
        let (prev, prev_hashes) = (encode(&img), column_hashes(&img));
        let delta = encode_delta_prehashed(&img, &prev, &prev_hashes, column_hashes(&img));
        assert_eq!(delta.reused, 16);
        assert_eq!(delta.reencoded, 0);
        assert_eq!(delta.strips.strips, prev.strips);
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn delta_encode_rejects_dimension_change() {
        let img = page(16, 24);
        let (prev, prev_hashes) = (encode(&img), column_hashes(&img));
        let taller = page(16, 32);
        let _ = encode_delta_prehashed(&taller, &prev, &prev_hashes, column_hashes(&taller));
    }

    #[test]
    fn raster_hash_tracks_content_and_dimensions() {
        let raster_hash =
            |img: &Raster| raster_hash_from(img.width(), img.height(), &column_hashes(img));
        let a = page(16, 24);
        let mut b = a.clone();
        assert_eq!(raster_hash(&a), raster_hash(&b));
        b.set(5, 5, Rgb::new(1, 2, 3));
        assert_ne!(raster_hash(&a), raster_hash(&b));
        // Same bytes, different shape, must not collide.
        let flat = Raster::filled(8, 4, Rgb::BLACK);
        let tall = Raster::filled(4, 8, Rgb::BLACK);
        assert_ne!(raster_hash(&flat), raster_hash(&tall));
    }
}
