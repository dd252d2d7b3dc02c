//! The simplified page: what SONIC actually broadcasts (§3.2).
//!
//! A page is a strip-coded screenshot plus the metadata the client needs to
//! display and interact with it: dimensions, canonical URL, click map and a
//! cache TTL ("inserted in a cache with expiration date set according to a
//! time indicated by the server").

use crate::frame::FRAME_PAYLOAD;
use sonic_image::bitio::ByteReader;
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

/// Bytes of [`SimplifiedPage::meta_blob`] before the URL: width, height,
/// ttl, version and the URL's length.
const META_HEADER: usize = 12;

/// Length of the metadata blob of a page with this URL and click map.
fn meta_len(url: &str, clickmap: &ClickMap) -> usize {
    META_HEADER + url.len() + clickmap.encoded_len()
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
    /// from a previous encode.
    ///
    /// # Panics
    /// Panics if the strips are wider than 65 535 columns, the URL is
    /// longer than 65 535 bytes or the click map holds more than 65 535
    /// regions: the metadata (and, for the width, the strip frames) carry
    /// each in a 16-bit field, and a wrapped value would air a different
    /// page. For the same reason it panics if the metadata needs more than
    /// 65 535 frames (a meta frame's part count is 16-bit) or a column's
    /// strip more than 65 536 (a strip frame's `seq` is).
    pub fn from_parts(
        url: &str,
        strips: StripImage,
        clickmap: ClickMap,
        version: u16,
        ttl_hours: u16,
    ) -> Self {
        assert!(
            u16::try_from(strips.width).is_ok(),
            "page width {} overflows its u16 wire field",
            strips.width
        );
        assert!(
            u16::try_from(url.len()).is_ok(),
            "URL length {} overflows its u16 wire field",
            url.len()
        );
        assert!(
            u16::try_from(clickmap.regions.len()).is_ok(),
            "click map of {} regions overflows its u16 wire field",
            clickmap.regions.len()
        );
        let meta_parts = meta_len(url, &clickmap).div_ceil(FRAME_PAYLOAD);
        assert!(
            u16::try_from(meta_parts).is_ok(),
            "metadata of {meta_parts} frames overflows its u16 part count"
        );
        let longest_strip = strips.strips.iter().map(Vec::len).max().unwrap_or(0);
        let strip_frames = longest_strip.div_ceil(FRAME_PAYLOAD);
        assert!(
            strip_frames <= 1 << 16,
            "strip of {strip_frames} frames overflows its u16 seq field"
        );
        SimplifiedPage {
            page_id: page_id_for(url, version),
            url: url.to_string(),
            strips,
            clickmap,
            ttl_hours,
            version,
        }
    }

    /// Total broadcast bytes (strips + metadata estimate).
    pub fn broadcast_bytes(&self) -> usize {
        self.strips.total_bytes() + self.meta_blob().len()
    }

    /// Serialized metadata region: dimensions, ttl, version, url, click map.
    pub fn meta_blob(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.strips.width as u16).to_be_bytes());
        out.extend_from_slice(&(self.strips.height as u32).to_be_bytes());
        out.extend_from_slice(&self.ttl_hours.to_be_bytes());
        out.extend_from_slice(&self.version.to_be_bytes());
        let url = self.url.as_bytes();
        out.extend_from_slice(&(url.len() as u16).to_be_bytes());
        out.extend_from_slice(url);
        out.extend_from_slice(&self.clickmap.encode());
        out
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
    #[should_panic(expected = "page width 70000 overflows")]
    fn page_wider_than_the_width_field_is_refused() {
        SimplifiedPage::from_raster("u", &Raster::new(70_000, 1), ClickMap::default(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "URL length 70000 overflows")]
    fn url_longer_than_its_length_field_is_refused() {
        let url = "u".repeat(70_000);
        SimplifiedPage::from_raster(&url, &Raster::new(1, 1), ClickMap::default(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "click map of 65536 regions overflows")]
    fn click_map_beyond_its_count_field_is_refused() {
        let region = ClickRegion {
            x: 0,
            y: 0,
            w: 1,
            h: 1,
            target: "t".into(),
        };
        let clickmap = ClickMap {
            regions: vec![region; 65_536],
        };
        SimplifiedPage::from_raster("u", &Raster::new(1, 1), clickmap, 0, 1);
    }

    #[test]
    #[should_panic(expected = "metadata of 65537 frames overflows")]
    fn metadata_beyond_its_part_count_is_refused() {
        // 15 + 21 349 regions × 264 bytes = 5 636 151 bytes, one frame past
        // the part count's 65 535 × 86.
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

    #[test]
    #[should_panic(expected = "strip of 65537 frames overflows")]
    fn strip_beyond_its_seq_field_is_refused() {
        let strips = StripImage {
            width: 1,
            height: 1,
            strips: vec![vec![0; 65_536 * FRAME_PAYLOAD + 1]],
        };
        SimplifiedPage::from_parts("u", strips, ClickMap::default(), 0, 1);
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
        assert_eq!(meta_len(&p.url, &p.clickmap), p.meta_blob().len());
        assert!(p.broadcast_bytes() > 0);
    }
}
