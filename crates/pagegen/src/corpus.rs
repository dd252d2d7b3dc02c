//! The evaluation corpus: 25 sites × (1 landing + 3 internal) = 100 pages,
//! re-rendered hourly — the paper's §4 methodology.

use crate::layout::{generate, page_changed, Layout, PageKind};
use crate::render::{render, RenderedPage};
use crate::site::SiteProfile;
use crate::tranco::pk_top_sites;
use std::collections::BTreeMap;

/// Pages per site (landing + 3 internal).
pub const PAGES_PER_SITE: usize = 4;

/// Identifies one corpus page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    /// Index into the site list.
    pub site: usize,
    /// 0 = landing, 1..=3 internal.
    pub page: usize,
}

impl PageId {
    /// The page kind for layout generation.
    pub fn kind(&self) -> PageKind {
        if self.page == 0 {
            PageKind::Landing
        } else {
            PageKind::Internal(self.page - 1)
        }
    }
}

/// The 100-page corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Ranked sites.
    pub sites: Vec<SiteProfile>,
    /// Canonical URL → page. A URL comes from the site's domain and static
    /// seeds, never the hour, so the table is built once.
    urls: BTreeMap<String, PageId>,
}

impl Corpus {
    /// Builds the standard 25-site corpus with a fixed seed.
    pub fn standard() -> Self {
        Self::small(25)
    }

    /// Smaller corpus for quick tests (n sites).
    pub fn small(n_sites: usize) -> Self {
        let mut corpus = Corpus {
            sites: pk_top_sites(n_sites, 0x50_4B), // "PK"
            urls: BTreeMap::new(),
        };
        corpus.urls = corpus
            .pages()
            .into_iter()
            .map(|id| (corpus.layout(id, 0).url, id))
            .collect();
        corpus
    }

    /// All page ids (site-major: 4 pages per site).
    pub fn pages(&self) -> Vec<PageId> {
        (0..self.sites.len())
            .flat_map(|s| (0..PAGES_PER_SITE).map(move |p| PageId { site: s, page: p }))
            .collect()
    }

    /// The layout of a page at an hour (cheap; no rasterization).
    pub fn layout(&self, id: PageId, hour: u64) -> Layout {
        generate(&self.sites[id.site], id.kind(), hour)
    }

    /// Renders a page at an hour and scale.
    pub fn render(&self, id: PageId, hour: u64, scale: f64) -> RenderedPage {
        let layout = self.layout(id, hour);
        render(&self.sites[id.site], &layout, scale)
    }

    /// Whether a page's content changed between two hours.
    pub fn changed(&self, id: PageId, h1: u64, h2: u64) -> bool {
        page_changed(&self.sites[id.site], id.kind(), h1, h2)
    }

    /// Looks up a page id by URL (exact match on the canonical URL).
    pub fn find_url(&self, url: &str) -> Option<PageId> {
        self.urls.get(url).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_corpus_is_100_pages() {
        let c = Corpus::standard();
        assert_eq!(c.sites.len(), 25);
        assert_eq!(c.pages().len(), 100);
    }

    #[test]
    fn urls_are_unique() {
        let c = Corpus::small(8);
        let urls: std::collections::HashSet<String> = c
            .pages()
            .into_iter()
            .map(|id| c.layout(id, 0).url)
            .collect();
        assert_eq!(urls.len(), c.pages().len(), "duplicate URLs");
    }

    #[test]
    fn find_url_roundtrips() {
        let c = Corpus::small(4);
        // At any hour: a page keeps its URL while its content churns.
        for (id, hour) in c.pages().into_iter().zip([0, 1, 7, 30, 500].into_iter().cycle()) {
            assert_eq!(c.find_url(&c.layout(id, hour).url), Some(id));
        }
        assert_eq!(c.find_url("https://nope.pk/"), None);
    }

    #[test]
    fn hourly_change_fraction_is_meaningful() {
        let c = Corpus::standard();
        // Averaged over a day (incl. the nightly freeze): some pages change
        // every hour (news landing pages), most don't. Fig 4c needs the
        // resulting byte inflow to sit just below the 10 kbps drain, which
        // at ~190 KB mean page size means ~0.10–0.25 of pages per hour.
        let pages = c.pages();
        let changes: usize = (1..=24u64)
            .map(|h| pages.iter().filter(|&&id| c.changed(id, h - 1, h)).count())
            .sum();
        let avg = changes as f64 / (24 * pages.len()) as f64;
        assert!(avg > 0.08 && avg < 0.30, "avg hourly change {avg}");
    }

    #[test]
    fn landing_and_internal_differ() {
        let c = Corpus::small(3);
        let l = c.layout(PageId { site: 0, page: 0 }, 0);
        let i = c.layout(PageId { site: 0, page: 1 }, 0);
        assert_ne!(l.url, i.url);
        assert!(l.height > i.height);
    }
}
