//! Client-side page cache with server-dictated TTLs (§3.1).

use sonic_image::clickmap::ClickMap;
use sonic_image::raster::Raster;
use std::collections::BTreeMap;

/// A stored, already-repaired page.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// Canonical URL.
    pub url: String,
    /// Interpolation-repaired screenshot.
    pub raster: Raster,
    /// Click map (logical 1080-wide coordinates).
    pub clickmap: ClickMap,
    /// Content version.
    pub version: u16,
    /// Pixel loss rate the page was received with.
    pub pixel_loss: f64,
}

#[derive(Debug)]
struct Entry {
    page: CachedPage,
    expires_hour: u64,
}

/// TTL page store, ordered by URL.
#[derive(Debug, Default)]
pub struct PageCache {
    pages: BTreeMap<String, Entry>,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a page for `ttl_hours` from `now_hour`. Newer versions replace
    /// older ones; an older broadcast never clobbers a newer cached page.
    pub fn put(&mut self, page: CachedPage, ttl_hours: u16, now_hour: u64) {
        if let Some(existing) = self.pages.get(&page.url) {
            if existing.page.version > page.version && now_hour < existing.expires_hour {
                return;
            }
        }
        let expires_hour = now_hour + ttl_hours.max(1) as u64;
        self.pages.insert(
            page.url.clone(),
            Entry {
                page,
                expires_hour,
            },
        );
    }

    /// Fetches a live page.
    pub fn get(&self, url: &str, now_hour: u64) -> Option<CachedPage> {
        let e = self.pages.get(url)?;
        if now_hour < e.expires_hour {
            Some(e.page.clone())
        } else {
            None
        }
    }

    /// URLs of all live pages, in order.
    pub fn live_urls(&self, now_hour: u64) -> Vec<String> {
        self.pages
            .values()
            .filter(|e| now_hour < e.expires_hour)
            .map(|e| e.page.url.clone())
            .collect()
    }

    /// Evicts expired entries; returns the eviction count.
    pub fn sweep(&mut self, now_hour: u64) -> usize {
        let before = self.pages.len();
        self.pages.retain(|_, e| now_hour < e.expires_hour);
        before - self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(url: &str, version: u16) -> CachedPage {
        CachedPage {
            url: url.into(),
            raster: Raster::new(2, 2),
            clickmap: ClickMap::default(),
            version,
            pixel_loss: 0.0,
        }
    }

    #[test]
    fn ttl_expiry() {
        let mut c = PageCache::new();
        c.put(page("a", 0), 3, 10);
        assert!(c.get("a", 12).is_some());
        assert!(c.get("a", 13).is_none());
    }

    #[test]
    fn newer_version_replaces() {
        let mut c = PageCache::new();
        c.put(page("a", 1), 5, 0);
        c.put(page("a", 2), 5, 0);
        assert_eq!(c.get("a", 0).expect("live").version, 2);
    }

    #[test]
    fn older_version_does_not_clobber() {
        let mut c = PageCache::new();
        c.put(page("a", 5), 5, 0);
        c.put(page("a", 3), 5, 0);
        assert_eq!(c.get("a", 0).expect("live").version, 5);
    }

    #[test]
    fn stale_entry_can_be_replaced_by_older_version() {
        // Version numbers wrap (they are render hours); once expired, any
        // fresh broadcast wins.
        let mut c = PageCache::new();
        c.put(page("a", 5), 1, 0);
        c.put(page("a", 3), 5, 10);
        assert_eq!(c.get("a", 10).expect("live").version, 3);
    }

    #[test]
    fn sweep_counts_evictions() {
        let mut c = PageCache::new();
        c.put(page("a", 0), 1, 0);
        c.put(page("b", 0), 9, 0);
        assert_eq!(c.sweep(5), 1);
        assert_eq!(c.live_urls(5), vec!["b".to_string()]);
    }
}
