//! Click maps: DRIVESHAFT-style interactivity for static screenshots (§3.2).
//!
//! A click map lists `<x, y>` rectangles where the rendered page is
//! interactive, each mapped to a target URL. SONIC limits interactivity to
//! hyperlinks; clicking a region either loads the cached target page or
//! triggers an SMS request for it.

use crate::bitio::ByteReader;

/// One interactive rectangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClickRegion {
    /// Left edge in pixels.
    pub x: u16,
    /// Top edge in pixels.
    pub y: u16,
    /// Width in pixels.
    pub w: u16,
    /// Height in pixels.
    pub h: u16,
    /// Hyperlink target (URL).
    pub target: String,
}

impl ClickRegion {
    /// Whether a point falls inside the region. The far edges are summed in
    /// `u32`: a decoded region may reach past `u16::MAX`.
    pub fn contains(&self, x: u16, y: u16) -> bool {
        let inside = |p: u16, start: u16, len: u16| {
            p >= start && u32::from(p) < u32::from(start) + u32::from(len)
        };
        inside(x, self.x, self.w) && inside(y, self.y, self.h)
    }
}

/// The click map of one rendered page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClickMap {
    /// Interactive regions, front-most last (later entries win on overlap).
    pub regions: Vec<ClickRegion>,
}

impl ClickMap {
    /// Resolves a tap to a target URL.
    pub fn hit(&self, x: u16, y: u16) -> Option<&str> {
        self.regions
            .iter()
            .rev()
            .find(|r| r.contains(x, y))
            .map(|r| r.target.as_str())
    }

    /// Scales all coordinates by the device scaling factor (§3.2: screen
    /// width / 1080).
    pub fn scaled(&self, factor: f64) -> ClickMap {
        let s = |v: u16| -> u16 { ((v as f64 * factor).round() as u32).min(u16::MAX as u32) as u16 };
        ClickMap {
            regions: self
                .regions
                .iter()
                .map(|r| ClickRegion {
                    x: s(r.x),
                    y: s(r.y),
                    w: s(r.w).max(1),
                    h: s(r.h).max(1),
                    target: r.target.clone(),
                })
                .collect(),
        }
    }

    /// Serializes to a compact binary blob (broadcast alongside the image).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.regions.len() as u16).to_be_bytes());
        for r in &self.regions {
            out.extend_from_slice(&r.x.to_be_bytes());
            out.extend_from_slice(&r.y.to_be_bytes());
            out.extend_from_slice(&r.w.to_be_bytes());
            out.extend_from_slice(&r.h.to_be_bytes());
            let t = wire_target(r);
            out.push(t.len() as u8);
            out.extend_from_slice(t.as_bytes());
        }
        out
    }

    /// Length of [`encode`](Self::encode)'s output, computed without
    /// encoding.
    pub fn encoded_len(&self) -> usize {
        2 + self.regions.iter().map(|r| 9 + wire_target(r).len()).sum::<usize>()
    }

    /// Inverse of [`encode`](Self::encode); `None` on malformed input.
    /// Bytes after the last region are ignored.
    pub fn decode(data: &[u8]) -> Option<ClickMap> {
        let mut r = ByteReader::new(data);
        let count = usize::from(r.u16()?);
        // A region costs at least 9 bytes: never allocate for a count the
        // input could not hold.
        let mut regions = Vec::with_capacity(count.min(r.remaining() / 9));
        for _ in 0..count {
            let (x, y, w, h) = (r.u16()?, r.u16()?, r.u16()?, r.u16()?);
            let len = usize::from(r.u8()?);
            let target = std::str::from_utf8(r.take(len)?).ok()?.to_string();
            regions.push(ClickRegion { x, y, w, h, target });
        }
        Some(ClickMap { regions })
    }
}

/// The part of a region's target that goes on air: a target longer than
/// its one-byte length is cut at the last character boundary that fits, so
/// it stays valid UTF-8.
fn wire_target(r: &ClickRegion) -> &str {
    &r.target[..r.target.floor_char_boundary(255)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClickMap {
        ClickMap {
            regions: vec![
                ClickRegion {
                    x: 0,
                    y: 0,
                    w: 1080,
                    h: 80,
                    target: "https://cnn.com/".into(),
                },
                ClickRegion {
                    x: 100,
                    y: 20,
                    w: 200,
                    h: 40,
                    target: "https://cnn.com/world".into(),
                },
            ],
        }
    }

    #[test]
    fn hit_resolves_frontmost() {
        let m = sample();
        assert_eq!(m.hit(150, 30), Some("https://cnn.com/world"));
        assert_eq!(m.hit(50, 30), Some("https://cnn.com/"));
        assert_eq!(m.hit(500, 500), None);
    }

    #[test]
    fn edges_are_half_open() {
        let m = sample();
        assert_eq!(m.hit(0, 0), Some("https://cnn.com/"));
        assert_eq!(m.hit(1079, 79), Some("https://cnn.com/"));
        assert_eq!(m.hit(1080, 0), None);
        assert_eq!(m.hit(0, 80), None);
    }

    #[test]
    fn scaling_moves_regions() {
        let m = sample().scaled(0.5); // 540-px-wide device
        assert_eq!(m.regions[0].w, 540);
        assert_eq!(m.regions[1].x, 50);
        assert_eq!(m.hit(75, 15), Some("https://cnn.com/world"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        assert_eq!(m.encoded_len(), m.encode().len());
        assert_eq!(ClickMap::decode(&m.encode()), Some(m));
    }

    #[test]
    fn truncated_blob_rejected() {
        let blob = sample().encode();
        assert_eq!(ClickMap::decode(&blob[..blob.len() - 3]), None);
        assert_eq!(ClickMap::decode(&[]), None);
    }

    #[test]
    fn region_reaching_past_u16_max_is_hit() {
        let m = ClickMap {
            regions: vec![ClickRegion {
                x: 65_000,
                y: 0,
                w: 1_000,
                h: 10,
                target: "t".into(),
            }],
        };
        let m = ClickMap::decode(&m.encode()).expect("round trip");
        assert_eq!(m.hit(65_100, 5), Some("t"));
        assert_eq!(m.hit(64_999, 5), None);
    }

    #[test]
    fn long_target_is_cut_at_a_char_boundary() {
        let target = format!("{}é", "a".repeat(254));
        let m = ClickMap {
            regions: vec![ClickRegion {
                x: 0,
                y: 0,
                w: 1,
                h: 1,
                target: target.clone(),
            }],
        };
        let back = ClickMap::decode(&m.encode()).expect("valid UTF-8 on the wire");
        assert_eq!(back.regions[0].target, target[..254]);
        assert_eq!(m.encoded_len(), m.encode().len());
    }

    #[test]
    fn empty_map_roundtrip() {
        let m = ClickMap::default();
        assert_eq!(ClickMap::decode(&m.encode()), Some(m));
    }

    #[test]
    fn zero_size_after_scale_clamps_to_one() {
        let m = ClickMap {
            regions: vec![ClickRegion {
                x: 10,
                y: 10,
                w: 1,
                h: 1,
                target: "t".into(),
            }],
        }
        .scaled(0.1);
        assert!(m.regions[0].w >= 1 && m.regions[0].h >= 1);
    }
}
