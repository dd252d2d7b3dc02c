//! Server-side rendering: URL → simplified page.
//!
//! In the paper the server drives a headless Chrome; here the "web browser"
//! is the deterministic `sonic-pagegen` renderer over the synthetic corpus
//! (see DESIGN.md substitutions). TTLs follow the site's churn period —
//! exactly the "expiration date set according to a time indicated by the
//! server" of §3.1.

use sonic_image::clickmap::ClickMap;
use sonic_image::raster::Raster;
use sonic_pagegen::{Corpus, PageId};
use sonic_sms::queries::{Engine, Query};

/// Rendered page content, before strip encoding — everything the encode →
/// chunk → modulate stages of `pipeline::refresh_page` need. The corpus
/// renderer is one producer ([`Renderer::render`]); benches and a live
/// fetcher can feed arbitrary rasters through the same cache.
#[derive(Debug, Clone)]
pub struct RenderedContent {
    /// Canonical URL (rides in the meta frames).
    pub url: String,
    /// Rendered screenshot.
    pub raster: Raster,
    /// Interactivity map.
    pub clickmap: ClickMap,
    /// Content version (page-id component; the hour on the corpus path).
    pub version: u16,
    /// Client cache TTL in hours.
    pub ttl_hours: u16,
}

/// TTL of search-result and chat-answer pages, in hours.
const ANSWER_TTL_HOURS: u16 = 6;

/// The content version an hour stamps on what is rendered in it.
fn hour_version(hour: u64) -> u16 {
    (hour % u16::MAX as u64) as u16
}

/// Renders corpus pages into broadcastable [`SimplifiedPage`](crate::page::SimplifiedPage)s.
#[derive(Debug)]
pub struct Renderer {
    corpus: Corpus,
    /// Render scale (1.0 = full 1080-wide pages; experiments use less).
    scale: f64,
}

impl Renderer {
    /// Creates a renderer over a corpus.
    ///
    /// # Panics
    /// Panics unless `0 < scale <= 1`.
    pub fn new(corpus: Corpus, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale in (0,1]");
        Renderer { corpus, scale }
    }

    /// The corpus behind this renderer.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Render scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Renders a known corpus page: versioned by the hour, with the site's
    /// churn period as TTL.
    pub fn render(&self, id: PageId, hour: u64) -> RenderedContent {
        let rendered = self.corpus.render(id, hour, self.scale);
        let site = &self.corpus.sites[id.site];
        RenderedContent {
            url: rendered.url,
            raster: rendered.raster,
            clickmap: rendered.clickmap,
            version: hour_version(hour),
            ttl_hours: site.category.landing_churn_hours().max(1) as u16,
        }
    }

    /// Renders the answer to a search-engine / chatbot query (§3.1),
    /// broadcast like any other content.
    pub fn answer(&self, q: &Query, hour: u64) -> RenderedContent {
        let rendered = match q.engine {
            Engine::Search => sonic_pagegen::results::render_search_results(&q.text, 8, self.scale),
            Engine::Chat => sonic_pagegen::results::render_chat_answer(&q.text, self.scale),
        };
        RenderedContent {
            url: rendered.url,
            raster: rendered.raster,
            clickmap: rendered.clickmap,
            version: hour_version(hour),
            ttl_hours: ANSWER_TTL_HOURS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn renderer() -> Renderer {
        Renderer::new(Corpus::small(3), 0.1)
    }

    #[test]
    fn render_known_page() {
        let r = renderer();
        let id = PageId { site: 0, page: 0 };
        let content = r.render(id, 5);
        assert_eq!(content.url, r.corpus().layout(id, 5).url);
        assert!(content.raster.width() > 0);
        assert!(content.ttl_hours >= 1);
    }

    #[test]
    fn version_changes_with_hour() {
        let r = renderer();
        let id = PageId { site: 0, page: 0 };
        assert_ne!(r.render(id, 1).version, r.render(id, 2).version);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let _ = Renderer::new(Corpus::small(1), 0.0);
    }
}
