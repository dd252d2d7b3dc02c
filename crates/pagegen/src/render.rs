//! Rasterizer: layout → pixels + text mask + click map.
//!
//! This is the stand-in for "rendered these pages in Chrome": it produces
//! the three artifacts SONIC needs from a browser — the screenshot, the
//! text regions (for the readability metrics) and the click map (§3.2).
//!
//! A `scale` parameter renders the same layout at reduced resolution where
//! an experiment needs pixels, not bytes (Fig 1, Fig 5, the interpolation
//! ablation); the size figures, Fig 4(b)/(c), render at full scale.

use crate::font::{glyph, ADVANCE, GLYPH_H};
use crate::layout::{Block, BlockKind, Layout};
use crate::site::SiteProfile;
use crate::text::{wrap, TextGen};
use crate::tranco::mix;
use sonic_image::clickmap::{ClickMap, ClickRegion};
use sonic_image::raster::{Raster, Rgb};

/// A fully rendered page.
#[derive(Debug, Clone)]
pub struct RenderedPage {
    /// The screenshot.
    pub raster: Raster,
    /// Text-region mask (true = inside a text line's box), row-major.
    pub text_mask: Vec<bool>,
    /// Interactive regions.
    pub clickmap: ClickMap,
    /// Canonical URL.
    pub url: String,
}

struct Canvas {
    img: Raster,
    mask: Vec<bool>,
    clicks: Vec<ClickRegion>,
    scale: f64,
}

impl Canvas {
    fn sx(&self, v: usize) -> usize {
        ((v as f64 * self.scale) as usize).min(self.img.width().saturating_sub(1))
    }

    fn sy(&self, v: usize) -> usize {
        (v as f64 * self.scale) as usize
    }

    fn fill(&mut self, x: usize, y: usize, w: usize, h: usize, c: Rgb) {
        let (x, y) = (self.sx(x), self.sy(y));
        let w = (w as f64 * self.scale).ceil() as usize;
        let h = (h as f64 * self.scale).ceil() as usize;
        self.img.fill_rect(x, y, w, h, c);
    }

    /// Draws text at logical position with a logical pixel scale (glyph
    /// pixels are `px`×`px` logical pixels before canvas scaling), marking
    /// the line's bounding box in the text mask.
    fn text(&mut self, x: usize, y: usize, px: usize, color: Rgb, s: &str) {
        let gpx = ((px as f64 * self.scale).round() as usize).max(1);
        let cx = self.sx(x);
        let cy = self.sy(y);
        let w = self.img.width();
        let h = self.img.height();
        // Mask the whole line box (glyphs + inter-letter background).
        let line_w = (s.chars().count() * ADVANCE * gpx).min(w.saturating_sub(cx));
        let line_h = GLYPH_H * gpx;
        for yy in cy..(cy + line_h).min(h) {
            for xx in cx..(cx + line_w).min(w) {
                self.mask[yy * w + xx] = true;
            }
        }
        let mut pen = cx;
        for ch in s.chars() {
            let g = glyph(ch);
            for (row, bits) in g.iter().enumerate() {
                for col in 0..5 {
                    if bits & (1 << (4 - col)) != 0 {
                        let px0 = pen + col * gpx;
                        let py0 = cy + row * gpx;
                        for yy in py0..(py0 + gpx).min(h) {
                            for xx in px0..(px0 + gpx).min(w) {
                                self.img.set(xx, yy, color);
                            }
                        }
                    }
                }
            }
            pen += ADVANCE * gpx;
            if pen >= w {
                break;
            }
        }
    }

    /// Seeded decorative "photo": smooth 2-D gradient + blob highlights.
    fn photo(&mut self, x: usize, y: usize, w: usize, h: usize, seed: u64) {
        let (cx, cy) = (self.sx(x), self.sy(y));
        let cw = (w as f64 * self.scale).ceil() as usize;
        let chh = (h as f64 * self.scale).ceil() as usize;
        let base = [
            ((seed >> 8) & 0x7F) as u8 + 60,
            ((seed >> 16) & 0x7F) as u8 + 50,
            ((seed >> 24) & 0x7F) as u8 + 40,
        ];
        let bw = self.img.width();
        let bh = self.img.height();
        for yy in cy..(cy + chh).min(bh) {
            for xx in cx..(cx + cw).min(bw) {
                let fx = (xx - cx) as f64 / cw.max(1) as f64;
                let fy = (yy - cy) as f64 / chh.max(1) as f64;
                let g = (40.0 * fx + 60.0 * fy) as i32;
                // Coarse (8×8-aligned) texture: photographic detail that the
                // DCT codec compresses the way it compresses real photos.
                let n = (mix(seed, (xx / 8 + yy / 8 * 131) as u64) & 0x0F) as i32 - 8;
                let px = Rgb::new(
                    (base[0] as i32 + g + n).clamp(0, 255) as u8,
                    (base[1] as i32 + g - n / 2).clamp(0, 255) as u8,
                    (base[2] as i32 + g / 2 + n).clamp(0, 255) as u8,
                );
                self.img.set(xx, yy, px);
            }
        }
    }

    fn click(&mut self, x: usize, y: usize, w: usize, h: usize, target: String) {
        // Click maps stay in logical (1080-wide) coordinates.
        self.clicks.push(ClickRegion {
            x: x.min(u16::MAX as usize) as u16,
            y: y.min(u16::MAX as usize) as u16,
            w: w.min(u16::MAX as usize) as u16,
            h: h.min(u16::MAX as usize) as u16,
            target,
        });
    }
}

const INK: Rgb = Rgb::new(25, 25, 30);
const LINK: Rgb = Rgb::new(20, 60, 160);
const MUTED: Rgb = Rgb::new(90, 90, 100);

fn draw_block(c: &mut Canvas, site: &SiteProfile, b: &Block, y0: usize) {
    let mut tg = TextGen::new(b.seed);
    match b.kind {
        BlockKind::Header => {
            let brand = Rgb::new(
                (30 + (site.seed & 0x3F)) as u8,
                (40 + ((site.seed >> 6) & 0x3F)) as u8,
                (90 + ((site.seed >> 12) & 0x3F)) as u8,
            );
            c.fill(0, y0, 1080, 140, brand);
            c.text(40, y0 + 30, 6, Rgb::WHITE, &site.domain);
            let mut x = 40;
            for _ in 0..5 {
                let item = tg.word();
                let w = item.len() * ADVANCE * 2 + 30;
                c.text(x, y0 + 100, 2, Rgb::new(220, 220, 230), &item);
                c.click(x, y0 + 95, w, 30, format!("https://{}/{}", site.domain, item));
                x += w + 20;
            }
        }
        BlockKind::Hero => {
            c.photo(0, y0, 1080, 440, b.seed);
            let headline = tg.headline();
            c.text(40, y0 + 470, 5, INK, &headline);
            c.text(40, y0 + 540, 2, MUTED, &tg.sentence(8, 14));
            c.click(0, y0, 1080, 620, format!("https://{}{}", site.domain, tg.url_path()));
        }
        BlockKind::Teaser => {
            c.photo(20, y0 + 20, 300, 220, b.seed);
            let head = tg.headline();
            c.text(350, y0 + 30, 3, LINK, &head);
            let body = tg.sentence(10, 18);
            for (i, line) in wrap(&body, 56).into_iter().take(2).enumerate() {
                c.text(350, y0 + 90 + i * 40, 2, INK, &line);
            }
            c.click(
                20,
                y0 + 10,
                1040,
                240,
                format!("https://{}{}", site.domain, tg.url_path()),
            );
        }
        BlockKind::Paragraph => {
            let body = tg.paragraph(4);
            for (i, line) in wrap(&body, 80).into_iter().take(7).enumerate() {
                c.text(40, y0 + 20 + i * 30, 2, INK, &line);
            }
        }
        BlockKind::ProductRow => {
            for k in 0..3usize {
                let x = 30 + k * 350;
                c.photo(x, y0 + 20, 310, 250, mix(b.seed, k as u64));
                c.text(x, y0 + 290, 2, INK, &tg.headline());
                c.text(x, y0 + 330, 3, Rgb::new(10, 120, 40), &format!("RS {}", 99 + (mix(b.seed, k as u64) % 9_000)));
                c.click(
                    x,
                    y0 + 20,
                    310,
                    360,
                    format!("https://{}{}", site.domain, tg.url_path()),
                );
            }
        }
        BlockKind::AdBanner => {
            let hue = (b.seed & 0xFF) as u8;
            c.fill(60, y0 + 20, 960, 140, Rgb::new(230, hue / 2 + 80, 60));
            c.text(120, y0 + 70, 4, Rgb::WHITE, &tg.headline());
            c.click(60, y0 + 20, 960, 140, "https://ads.example/".into());
        }
        BlockKind::Footer => {
            c.fill(0, y0, 1080, 200, Rgb::new(40, 40, 48));
            c.text(40, y0 + 40, 2, Rgb::new(180, 180, 190), &tg.sentence(6, 10));
            c.text(40, y0 + 90, 2, Rgb::new(140, 140, 150), &format!("(c) 2024 {}", site.domain));
        }
    }
}

/// Renders a layout at `scale` (1.0 = 1080 px wide).
pub fn render(site: &SiteProfile, layout: &Layout, scale: f64) -> RenderedPage {
    assert!(scale > 0.0 && scale <= 1.0, "scale in (0, 1]");
    let w = ((layout.width as f64 * scale) as usize).max(8);
    let h = ((layout.height as f64 * scale) as usize).max(8);
    let mut canvas = Canvas {
        img: Raster::new(w, h),
        mask: vec![false; w * h],
        clicks: Vec::new(),
        scale,
    };
    let mut y = 0usize;
    for b in &layout.blocks {
        draw_block(&mut canvas, site, b, y);
        y += b.height;
    }
    RenderedPage {
        raster: canvas.img,
        text_mask: canvas.mask,
        clickmap: ClickMap {
            regions: canvas.clicks,
        },
        url: layout.url.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageKind;
    use crate::tranco::pk_top_sites;

    fn site() -> SiteProfile {
        pk_top_sites(25, 7).remove(0)
    }

    /// Lays out and renders one page, as `Corpus::render` does.
    fn rendered(site: &SiteProfile, page: PageKind, hour: u64, scale: f64) -> RenderedPage {
        render(site, &crate::layout::generate(site, page, hour), scale)
    }

    #[test]
    fn render_dimensions_match_layout() {
        let s = site();
        let layout = crate::layout::generate(&s, PageKind::Internal(0), 0);
        let page = render(&s, &layout, 0.1);
        assert_eq!(page.raster.width(), 108);
        assert_eq!(page.raster.height(), (layout.height as f64 * 0.1) as usize);
        assert_eq!(page.text_mask.len(), page.raster.width() * page.raster.height());
    }

    #[test]
    fn page_has_text_and_clicks() {
        let s = site();
        let page = rendered(&s, PageKind::Landing, 0, 0.25);
        let text_px = page.text_mask.iter().filter(|&&b| b).count();
        assert!(text_px > 500, "text pixels {text_px}");
        assert!(page.clickmap.regions.len() >= 5, "clicks {}", page.clickmap.regions.len());
    }

    #[test]
    fn render_is_deterministic() {
        let s = site();
        let a = rendered(&s, PageKind::Landing, 3, 0.2);
        let b = rendered(&s, PageKind::Landing, 3, 0.2);
        assert_eq!(a.raster, b.raster);
    }

    #[test]
    fn hour_change_changes_news_pixels() {
        let s = site(); // rank 1 is News in the mix
        // Daytime hours — overnight (hours 0–5) content is frozen.
        let a = rendered(&s, PageKind::Landing, 9, 0.2);
        let b = rendered(&s, PageKind::Landing, 10, 0.2);
        assert!(a.raster.mean_abs_diff(&b.raster) > 1.0, "hero must change hourly");
    }

    #[test]
    fn click_targets_are_on_site_or_ads() {
        let s = site();
        let page = rendered(&s, PageKind::Landing, 0, 0.2);
        for r in &page.clickmap.regions {
            assert!(
                r.target.contains(&s.domain) || r.target.contains("ads."),
                "{}",
                r.target
            );
        }
    }

    #[test]
    fn content_is_not_blank() {
        let s = site();
        let page = rendered(&s, PageKind::Internal(1), 0, 0.2);
        // A blank white page would have zero diff to a white raster.
        let blank = Raster::new(page.raster.width(), page.raster.height());
        assert!(page.raster.mean_abs_diff(&blank) > 5.0);
    }
}
