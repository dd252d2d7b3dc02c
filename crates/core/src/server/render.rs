//! Server-side rendering: URL → simplified page.
//!
//! In the paper the server drives a headless Chrome; here the "web browser"
//! is the deterministic `sonic-pagegen` renderer over the synthetic corpus
//! (see DESIGN.md substitutions). TTLs follow the site's churn period —
//! exactly the "expiration date set according to a time indicated by the
//! server" of §3.1.

use crate::page::SimplifiedPage;
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

impl RenderedContent {
    /// Strip-encodes the screenshot from scratch: the cold build of the page.
    pub fn into_page(self) -> SimplifiedPage {
        SimplifiedPage::from_raster(
            &self.url,
            &self.raster,
            self.clickmap,
            self.version,
            self.ttl_hours,
        )
    }
}

/// TTL of search-result and chat-answer pages, in hours.
const ANSWER_TTL_HOURS: u16 = 6;

/// The content version an hour stamps on what is rendered in it.
fn hour_version(hour: u64) -> u16 {
    (hour % u16::MAX as u64) as u16
}

/// Renders corpus pages into broadcastable [`SimplifiedPage`]s.
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

    /// Fetches + renders + strip-encodes a URL at `hour`; `None` for URLs
    /// outside the corpus (the real system would fetch the live web here).
    pub fn fetch(&self, url: &str, hour: u64) -> Option<SimplifiedPage> {
        let id = self.corpus.find_url(url, hour)?;
        Some(self.render(id, hour).into_page())
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

    /// Renders the answer to a search-engine / chatbot query (§3.1) into a
    /// page, broadcast like any other content.
    pub fn answer(&self, q: &Query, hour: u64) -> SimplifiedPage {
        let rendered = match q.engine {
            Engine::Search => sonic_pagegen::results::render_search_results(&q.text, 8, self.scale),
            Engine::Chat => sonic_pagegen::results::render_chat_answer(&q.text, self.scale),
        };
        SimplifiedPage::from_raster(
            &rendered.url,
            &rendered.raster,
            rendered.clickmap,
            hour_version(hour),
            ANSWER_TTL_HOURS,
        )
    }

    /// The `top_n` most popular landing page URLs at `hour`.
    pub fn popular_landing_urls(&self, top_n: usize, hour: u64) -> Vec<String> {
        (0..top_n.min(self.corpus.sites.len()))
            .map(|s| self.corpus.layout(PageId { site: s, page: 0 }, hour).url)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn renderer() -> Renderer {
        Renderer::new(Corpus::small(3), 0.1)
    }

    #[test]
    fn fetch_known_url() {
        let r = renderer();
        let url = r.corpus().layout(PageId { site: 0, page: 0 }, 5).url;
        let page = r.fetch(&url, 5).expect("known url");
        assert_eq!(page.url, url);
        assert!(page.strips.width > 0);
        assert!(page.ttl_hours >= 1);
    }

    #[test]
    fn fetch_unknown_url_is_none() {
        assert!(renderer().fetch("https://unknown.pk/", 0).is_none());
    }

    #[test]
    fn version_changes_with_hour_for_news() {
        let r = renderer();
        let id = PageId { site: 0, page: 0 }; // rank 1 = news
        let url = r.corpus().layout(id, 1).url;
        let a = r.fetch(&url, 1).expect("known url");
        let b = r.fetch(&url, 2).expect("known url");
        assert_ne!(a.page_id, b.page_id, "news pages re-version hourly");
    }

    #[test]
    fn popular_urls_are_landing_pages() {
        let r = renderer();
        let urls = r.popular_landing_urls(3, 0);
        assert_eq!(urls.len(), 3);
        for u in urls {
            assert!(u.ends_with('/'), "{u} must be a landing page");
        }
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let _ = Renderer::new(Corpus::small(1), 0.0);
    }
}
