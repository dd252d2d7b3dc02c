//! Page → frames (transmit side of §3.3).
//!
//! The metadata region goes first (the client cannot place strip chunks
//! without the dimensions), then every column's strip bytes in column order,
//! then a *second copy* of the metadata. Losing the metadata costs the whole
//! page, so the repeat is placed at the far end of the stream — a burst of
//! channel fading that kills the head of the transmission cannot also kill
//! the tail (time diversity), and a few hundred repeated bytes are far
//! cheaper than losing a 1 MB page.

use crate::frame::{Frame, FRAME_PAYLOAD};
use crate::page::SimplifiedPage;

/// Number of times the metadata region appears in the frame stream.
pub const META_REPEATS: usize = 2;

/// Why a frame-count conversion cannot fail on a constructed page.
const REFUSED: &str = "SimplifiedPage::from_parts refuses such a page";

/// One copy of the page's metadata region as frames.
/// Panics on a page [`SimplifiedPage::from_parts`] refuses.
pub(crate) fn meta_frames(page: &SimplifiedPage) -> Vec<Frame> {
    let meta = page.meta_blob();
    let parts = meta.chunks(FRAME_PAYLOAD);
    let total = parts.len().try_into().expect(REFUSED);
    (0..total)
        .zip(parts)
        .map(|(seq, part)| Frame::Meta {
            page_id: page.page_id,
            seq,
            total,
            payload: part.to_vec(),
        })
        .collect()
}

/// Appends `column`'s strip frames from chunk `from_seq` on to `out`. An
/// empty strip is one empty `last` frame; a column the page lacks, none.
/// Panics on a page [`SimplifiedPage::from_parts`] refuses.
pub(crate) fn column_frames(
    page: &SimplifiedPage,
    column: usize,
    from_seq: u16,
    out: &mut Vec<Frame>,
) {
    let Some(strip) = page.strips.strips.get(column) else {
        return;
    };
    let column = column.try_into().expect(REFUSED);
    let chunks = strip.len().div_ceil(FRAME_PAYLOAD).max(1);
    let chunks: u16 = chunks.try_into().expect(REFUSED);
    for seq in from_seq..chunks {
        let start = usize::from(seq) * FRAME_PAYLOAD;
        out.push(Frame::Strip {
            page_id: page.page_id,
            column,
            seq,
            last: seq == chunks - 1,
            payload: strip[start..(start + FRAME_PAYLOAD).min(strip.len())].to_vec(),
        });
    }
}

/// Serializes a page into its broadcast frame sequence.
pub fn page_to_frames(page: &SimplifiedPage) -> Vec<Frame> {
    let mut frames = meta_frames(page);
    for column in 0..page.strips.strips.len() {
        column_frames(page, column, 0, &mut frames);
    }
    // Second metadata copy at the tail (time diversity).
    frames.extend(meta_frames(page));
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_image::clickmap::ClickMap;
    use sonic_image::raster::{Raster, Rgb};

    fn page(w: usize, h: usize) -> SimplifiedPage {
        let mut img = Raster::new(w, h);
        for y in 0..h {
            for x in 0..w {
                if (x + y) % 3 == 0 {
                    img.set(x, y, Rgb::new(10, 40, 90));
                }
            }
        }
        SimplifiedPage::from_raster("https://t.pk/page", &img, ClickMap::default(), 1, 12)
    }

    #[test]
    fn meta_frames_bracket_the_stream() {
        let p = page(10, 10);
        let frames = page_to_frames(&p);
        let meta_parts = p.meta_blob().len().div_ceil(FRAME_PAYLOAD);
        for f in frames.iter().take(meta_parts) {
            assert!(matches!(f, Frame::Meta { .. }), "head copy");
        }
        for f in frames.iter().rev().take(meta_parts) {
            assert!(matches!(f, Frame::Meta { .. }), "tail copy");
        }
        assert!(matches!(frames[meta_parts], Frame::Strip { .. }));
        let metas = frames.iter().filter(|f| matches!(f, Frame::Meta { .. })).count();
        assert_eq!(metas, meta_parts * META_REPEATS);
    }

    #[test]
    fn every_column_has_exactly_one_last_frame() {
        let p = page(12, 64);
        let frames = page_to_frames(&p);
        for col in 0..12u16 {
            let lasts = frames
                .iter()
                .filter(|f| matches!(f, Frame::Strip { column, last: true, .. } if *column == col))
                .count();
            assert_eq!(lasts, 1, "column {col}");
        }
    }

    #[test]
    fn strip_payloads_reassemble_to_strip_bytes() {
        let p = page(6, 80);
        let frames = page_to_frames(&p);
        for col in 0..6u16 {
            let mut bytes = Vec::new();
            let mut parts: Vec<(u16, &Vec<u8>)> = frames
                .iter()
                .filter_map(|f| match f {
                    Frame::Strip {
                        column,
                        seq,
                        payload,
                        ..
                    } if *column == col => Some((*seq, payload)),
                    _ => None,
                })
                .collect();
            parts.sort_by_key(|(s, _)| *s);
            for (_, p) in parts {
                bytes.extend_from_slice(p);
            }
            assert_eq!(bytes, p.strips.strips[col as usize], "column {col}");
        }
    }

    #[test]
    fn all_frames_encode_within_size() {
        let p = page(8, 200);
        for f in page_to_frames(&p) {
            let wire = f.encode();
            assert_eq!(wire.len(), crate::frame::FRAME_SIZE);
        }
    }
}
