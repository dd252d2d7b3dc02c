//! The simplified page: what SONIC actually broadcasts (§3.2).
//!
//! A page is a strip-coded screenshot plus the metadata the client needs to
//! display and interact with it: dimensions, canonical URL, click map and a
//! cache TTL ("inserted in a cache with expiration date set according to a
//! time indicated by the server").

use crate::frame::{FRAME_PAYLOAD, MAX_META_FRAMES, STRIP_SEQ_BITS};
use sonic_image::bitio::{narrow, ByteReader, ByteWriter, Overflow};
use sonic_image::clickmap::ClickMap;
use sonic_image::raster::Raster;
use sonic_image::strip::{self, StripImage};

/// A page ready for broadcast.
#[derive(Debug, Clone)]
pub struct SimplifiedPage {
    /// Stable id (url hash ⊕ version) used in every frame.
    pub page_id: u32,
    /// Canonical URL.
    pub url: String,
    /// Strip-coded screenshot.
    pub strips: StripImage,
    /// Interactivity map in logical 1080-wide coordinates.
    pub clickmap: ClickMap,
    /// Client cache lifetime in hours.
    pub ttl_hours: u16,
    /// Content version (the render hour).
    pub version: u16,
}

/// FNV-1a of the URL, mixed with the version — the frame-level page id.
pub fn page_id_for(url: &str, version: u16) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in url.as_bytes() {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h ^ ((version as u32) << 16 | version as u32)
}

impl SimplifiedPage {
    /// Builds a page from a rendered screenshot: [`from_parts`](Self::from_parts)
    /// of its strip encode.
    ///
    /// # Panics
    /// As [`from_parts`](Self::from_parts).
    pub fn from_raster(
        url: &str,
        raster: &Raster,
        clickmap: ClickMap,
        version: u16,
        ttl_hours: u16,
    ) -> Self {
        Self::from_parts(url, strip::encode(raster), clickmap, version, ttl_hours)
    }

    /// Assembles a page from an already strip-encoded screenshot — the
    /// artifact cache's delta path, where unchanged columns were spliced
    /// from a previous encode. The one checked constructor.
    ///
    /// # Panics
    /// If [`meta_blob`](Self::meta_blob) refuses a field (width, URL length
    /// or click map count past `u16`, height past `u32`) or needs more than
    /// [`MAX_META_FRAMES`] frames, if there are more strips than columns,
    /// or if a strip needs more frames than a `seq` of [`STRIP_SEQ_BITS`]
    /// counts: a wrapped value would air a different page.
    pub fn from_parts(
        url: &str,
        strips: StripImage,
        clickmap: ClickMap,
        version: u16,
        ttl_hours: u16,
    ) -> Self {
        let page = SimplifiedPage {
            page_id: page_id_for(url, version),
            url: url.to_string(),
            strips,
            clickmap,
            ttl_hours,
            version,
        };
        match page.check() {
            Ok(()) => page,
            Err(e) => panic!("page refused: {e}"),
        }
    }

    /// What [`from_parts`](Self::from_parts) refuses, with the value.
    fn check(&self) -> Result<(), Overflow> {
        let mut meta = Vec::new();
        self.write_meta(&mut meta)?;
        narrow::<usize>(meta.len().div_ceil(FRAME_PAYLOAD), MAX_META_FRAMES)?;
        narrow::<usize>(self.strips.strips.len(), self.strips.width)?;
        let longest_strip = self.strips.strips.iter().map(Vec::len).max().unwrap_or(0);
        narrow::<usize>(longest_strip.div_ceil(FRAME_PAYLOAD), 1 << STRIP_SEQ_BITS)?;
        Ok(())
    }

    /// Total broadcast bytes (strips + metadata estimate).
    pub fn broadcast_bytes(&self) -> usize {
        self.strips.total_bytes() + self.meta_blob().len()
    }

    /// Serialized metadata region: dimensions, ttl, version, url, click map.
    /// Panics on fields edited past what [`from_parts`](Self::from_parts)
    /// accepts.
    pub fn meta_blob(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let wrote = self.write_meta(&mut out);
        assert!(wrote.is_ok(), "metadata refused: {wrote:?}");
        out
    }

    /// Appends the metadata region to `out`; each put states its field.
    fn write_meta(&self, out: &mut Vec<u8>) -> Result<(), Overflow> {
        let mut w = ByteWriter::new(out);
        w.narrow_u16(self.strips.width)?;
        w.narrow_u32(self.strips.height)?;
        w.u16(self.ttl_hours).u16(self.version);
        w.narrow_u16(self.url.len())?.bytes(self.url.as_bytes());
        self.clickmap.write(&mut w)
    }

    /// Parses a metadata region back into page fields (without strips):
    /// `(width, height, ttl_hours, version, url, clickmap)`. Bytes after
    /// the click map are ignored.
    pub fn parse_meta(blob: &[u8]) -> Option<(usize, usize, u16, u16, String, ClickMap)> {
        let mut r = ByteReader::new(blob);
        let width = usize::from(r.u16()?);
        let height = r.u32()? as usize;
        let ttl = r.u16()?;
        let version = r.u16()?;
        let url_len = usize::from(r.u16()?);
        let url = std::str::from_utf8(r.take(url_len)?).ok()?.to_string();
        let clickmap = ClickMap::decode(r.take(r.remaining())?)?;
        if width == 0 || height == 0 {
            return None;
        }
        Some((width, height, ttl, version, url, clickmap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use sonic_image::clickmap::ClickRegion;
    use sonic_image::raster::{Raster, Rgb};

    fn sample() -> SimplifiedPage {
        let mut img = Raster::new(16, 24);
        img.fill_rect(0, 0, 16, 4, Rgb::new(20, 20, 80));
        let cm = ClickMap {
            regions: vec![ClickRegion {
                x: 0,
                y: 0,
                w: 16,
                h: 4,
                target: "https://a.pk/x".into(),
            }],
        };
        SimplifiedPage::from_raster("https://a.pk/", &img, cm, 7, 24)
    }

    #[test]
    fn page_id_depends_on_url_and_version() {
        assert_ne!(page_id_for("a", 0), page_id_for("b", 0));
        assert_ne!(page_id_for("a", 0), page_id_for("a", 1));
        assert_eq!(page_id_for("a", 3), page_id_for("a", 3));
    }

    #[test]
    fn meta_blob_roundtrip() {
        let p = sample();
        let (w, h, ttl, ver, url, cm) =
            SimplifiedPage::parse_meta(&p.meta_blob()).expect("parse");
        assert_eq!((w, h), (16, 24));
        assert_eq!(ttl, 24);
        assert_eq!(ver, 7);
        assert_eq!(url, "https://a.pk/");
        assert_eq!(cm, p.clickmap);
    }

    #[test]
    fn long_click_target_keeps_the_meta_parseable() {
        let mut p = sample();
        p.clickmap.regions[0].target = format!("{}é", "a".repeat(254));
        let (.., cm) = SimplifiedPage::parse_meta(&p.meta_blob()).expect("parse");
        assert_eq!(cm.regions[0].target, "a".repeat(254));
    }

    #[test]
    #[should_panic(expected = "page refused: 70000 overflows a field of at most 65535")]
    fn page_wider_than_the_width_field_is_refused() {
        SimplifiedPage::from_raster("u", &Raster::new(70_000, 1), ClickMap::default(), 0, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// One meta field at, or one or two past, its width (the width, the
        /// height, the URL length, the click map count): the blob decodes
        /// to the page's own fields up to the width, and past it the page
        /// is refused with the value, never wrapped.
        #[test]
        fn meta_fields_decode_to_themselves_or_are_refused(field in 0u8..4, excess in 0usize..3) {
            let u16_max = usize::from(u16::MAX);
            let max = if field == 1 { u32::MAX as usize } else { u16_max };
            let value = max - 1 + excess;
            let pick = |f: u8, small: usize| if field == f { value } else { small };
            let region = ClickRegion { x: 1, y: 2, w: 3, h: 4, target: "t".into() };
            let page = SimplifiedPage {
                page_id: 0,
                url: "u".repeat(pick(2, 3)),
                strips: StripImage { width: pick(0, 5), height: pick(1, 6), strips: Vec::new() },
                clickmap: ClickMap { regions: vec![region; pick(3, 2)] },
                ttl_hours: 7,
                version: 8,
            };
            if value > max {
                proptest::prop_assert_eq!(page.check(), Err(Overflow { value, max }));
            } else {
                proptest::prop_assert_eq!(page.check(), Ok(()));
                let (width, height, ttl, version, url, clickmap) =
                    SimplifiedPage::parse_meta(&page.meta_blob()).expect("parse");
                proptest::prop_assert_eq!((width, height, ttl, version), (page.strips.width, page.strips.height, 7, 8));
                proptest::prop_assert_eq!((url, clickmap), (page.url, page.clickmap));
            }
        }
    }

    #[test]
    #[should_panic(expected = "page refused: 65537 overflows a field of at most 65535")]
    fn metadata_beyond_its_part_count_is_refused() {
        // 15 + 21 349 regions × 264 bytes = 5 636 151 bytes, past
        // MAX_META_FRAMES × 86 = 5 636 010.
        let region = ClickRegion {
            x: 0,
            y: 0,
            w: 1,
            h: 1,
            target: "t".repeat(255),
        };
        let clickmap = ClickMap {
            regions: vec![region; 21_349],
        };
        SimplifiedPage::from_raster("u", &Raster::new(1, 1), clickmap, 0, 1);
    }

    fn strip_of_frames(frames: usize) -> StripImage {
        StripImage {
            width: 1,
            height: 1,
            strips: vec![vec![0; (frames - 1) * FRAME_PAYLOAD + 1]],
        }
    }

    /// A strip frame's `seq` is STRIP_SEQ_BITS wide: a strip of 32 769
    /// frames is refused here, not by `Frame::encode` after the page was
    /// built.
    #[test]
    #[should_panic(expected = "page refused: 32769 overflows a field of at most 32768")]
    fn strip_beyond_its_seq_field_is_refused() {
        SimplifiedPage::from_parts("u", strip_of_frames(32_769), ClickMap::default(), 0, 1);
    }

    #[test]
    fn strip_at_its_seq_field_airs() {
        let page = SimplifiedPage::from_parts("u", strip_of_frames(32_768), ClickMap::default(), 0, 1);
        let frames = crate::chunker::page_to_frames(&page);
        assert!(matches!(frames[frames.len() - 2], Frame::Strip { seq: 32_767, last: true, .. }));
        for f in &frames {
            assert_eq!(Frame::decode(&f.encode()).as_ref(), Ok(f));
        }
    }

    #[test]
    fn truncated_meta_rejected() {
        let p = sample();
        let blob = p.meta_blob();
        assert!(SimplifiedPage::parse_meta(&blob[..8]).is_none());
        assert!(SimplifiedPage::parse_meta(&blob[..blob.len() - 2]).is_none());
    }

    #[test]
    fn broadcast_bytes_cover_strips_and_meta() {
        let p = sample();
        assert_eq!(
            p.broadcast_bytes(),
            p.strips.total_bytes() + p.meta_blob().len()
        );
        assert!(p.broadcast_bytes() > 0);
    }
}
