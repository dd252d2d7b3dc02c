//! The SONIC client application (§3.1):
//! browse cached pages, receive new ones from the radio, request via SMS.

pub mod browser;
pub mod cache;

use crate::frame::Frame;
use crate::reassembly::{AssemblyError, Reassembler, ReassemblerConfig};
use browser::ClickOutcome;
use cache::{CachedPage, PageCache};
use sonic_image::interpolate::recover;
use sonic_sms::gateway;
use sonic_sms::geo::GeoPoint;

/// One SONIC user-space client.
#[derive(Debug)]
pub struct SonicClient {
    /// Received page store with TTLs.
    pub cache: PageCache,
    reassembler: Reassembler,
    /// Device screen width in pixels (Redmi Go: 720).
    pub device_width: usize,
    /// Location sent with uplink requests (None = downlink-only user).
    pub location: Option<GeoPoint>,
}

/// Statistics of one finalized page reception.
#[derive(Debug, Clone)]
pub struct ReceptionReport {
    /// The page's canonical URL.
    pub url: String,
    /// Pixel loss rate before interpolation.
    pub pixel_loss: f64,
    /// Frame loss rate measured by the reassembler.
    pub frame_loss: f64,
}

impl SonicClient {
    /// Creates a client. `location: None` models user-A/B (no SMS uplink).
    pub fn new(device_width: usize, location: Option<GeoPoint>) -> Self {
        SonicClient {
            cache: PageCache::new(),
            reassembler: Reassembler::new(),
            device_width,
            location,
        }
    }

    /// Ingests a link frame observed at stream time `now_s` (enables the
    /// reassembler's LRU/deadline accounting).
    pub fn receive_frame_at(&mut self, frame: Frame, now_s: f64) {
        self.reassembler.push_at(frame, now_s);
    }

    /// Records a CRC-failed frame attributed to `page_id` (loss map input).
    pub fn note_bad_frame(&mut self, page_id: u32, now_s: f64) {
        self.reassembler.note_bad_frame(page_id, now_s);
    }

    /// Page ids with in-flight assemblies.
    pub fn pending_pages(&self) -> Vec<u32> {
        self.reassembler.page_ids()
    }

    /// Pages past the reassembler deadline at `now_s`: finalize these
    /// degraded (via [`SonicClient::finalize_page`]) rather than wait.
    pub fn expired_pages(&self, now_s: f64) -> Vec<u32> {
        self.reassembler.poll_expired(now_s)
    }

    /// Read access to the reassembler (budget stats, loss maps).
    pub fn reassembler(&self) -> &Reassembler {
        &self.reassembler
    }

    /// Sets the reassembler's memory/deadline budget.
    pub fn set_reassembler_config(&mut self, config: ReassemblerConfig) {
        self.reassembler.config = config;
    }

    /// Finalizes a page whose broadcast ended; repairs losses with
    /// nearest-neighbor interpolation and stores it in the cache, after
    /// evicting every page whose TTL ran out by `now_hour`.
    pub fn finalize_page(
        &mut self,
        page_id: u32,
        now_hour: u64,
    ) -> Result<ReceptionReport, AssemblyError> {
        let received = self
            .reassembler
            .take(page_id)
            .ok_or(AssemblyError::MetaIncomplete)??;
        let pixel_loss = received.mask.loss_rate();
        let repaired = recover(&received.raster, &received.mask);
        let report = ReceptionReport {
            url: received.url.clone(),
            pixel_loss,
            frame_loss: received.frame_loss,
        };
        self.cache.sweep(now_hour);
        self.cache.put(
            CachedPage {
                url: received.url,
                raster: repaired,
                clickmap: received.clickmap,
                version: received.version,
                pixel_loss,
            },
            received.ttl_hours,
            now_hour,
        );
        Ok(report)
    }

    /// Handles a user tap on the currently displayed page, in *device*
    /// coordinates. Returns what the app should do.
    pub fn click(&self, current_url: &str, x: u16, y: u16, now_hour: u64) -> ClickOutcome {
        browser::click(self, current_url, x, y, now_hour)
    }

    /// Composes the SMS request for a URL; `None` for downlink-only users.
    pub fn compose_request(&self, url: &str) -> Option<String> {
        let loc = self.location.as_ref()?;
        Some(gateway::format_request(url, loc))
    }

    /// Composes a repair NACK for an in-flight page from its loss map
    /// (missing meta, per-column first missing chunk). `None` for
    /// downlink-only users, untracked pages, or pages with nothing missing.
    pub fn compose_nack(&self, page_id: u32) -> Option<String> {
        let loc = self.location.as_ref()?;
        let report = self.reassembler.assembly(page_id)?.missing_ranges();
        if report.is_complete() {
            return None;
        }
        Some(sonic_sms::queries::format_nack(&sonic_sms::queries::Nack {
            page_id,
            meta: report.meta,
            columns: report.columns,
            location: sonic_sms::geo::GeoPoint::new(loc.lat, loc.lon),
        }))
    }

    /// The catalog of currently readable pages ("organized by content,
    /// popularity, and/or user interest" — here: alphabetically by URL).
    pub fn catalog(&self, now_hour: u64) -> Vec<String> {
        self.cache.live_urls(now_hour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::page_to_frames;
    use crate::page::SimplifiedPage;
    use sonic_image::clickmap::{ClickMap, ClickRegion};
    use sonic_image::raster::{Raster, Rgb};

    fn broadcast_page(url: &str, target: &str) -> SimplifiedPage {
        let mut img = Raster::new(40, 60);
        img.fill_rect(0, 0, 40, 10, Rgb::new(10, 10, 50));
        let cm = ClickMap {
            regions: vec![ClickRegion {
                x: 0,
                y: 0,
                w: 1080,
                h: 270,
                target: target.to_string(),
            }],
        };
        SimplifiedPage::from_raster(url, &img, cm, 0, 12)
    }

    #[test]
    fn full_reception_populates_cache() {
        let mut c = SonicClient::new(720, None);
        let p = broadcast_page("https://a.pk/", "https://a.pk/news");
        for f in page_to_frames(&p) {
            c.receive_frame_at(f, 0.0);
        }
        let report = c.finalize_page(p.page_id, 0).expect("complete");
        assert_eq!(report.url, "https://a.pk/");
        assert!(report.pixel_loss.abs() < 1e-12);
        assert_eq!(c.catalog(0), vec!["https://a.pk/".to_string()]);
    }

    #[test]
    fn lossy_reception_is_repaired_and_reported() {
        let mut c = SonicClient::new(720, None);
        let p = broadcast_page("https://b.pk/", "https://b.pk/x");
        let frames = page_to_frames(&p);
        let n = frames.len();
        for (i, f) in frames.into_iter().enumerate() {
            // Drop ~10% of strip frames.
            if matches!(f, Frame::Strip { .. }) && i % 10 == 3 {
                continue;
            }
            let _ = n;
            c.receive_frame_at(f, 0.0);
        }
        let report = c.finalize_page(p.page_id, 0).expect("meta survived");
        assert!(report.pixel_loss > 0.0, "losses must be visible pre-repair");
        let cached = c.cache.get("https://b.pk/", 0).expect("cached");
        assert_eq!(cached.raster.width(), 40);
    }

    #[test]
    fn downlink_only_cannot_compose_requests() {
        let c = SonicClient::new(720, None);
        assert!(c.compose_request("https://a.pk/").is_none());
        let c2 = SonicClient::new(720, Some(GeoPoint::new(31.5, 74.3)));
        assert!(c2.compose_request("https://a.pk/").is_some());
    }

    #[test]
    fn lossy_reception_composes_a_parseable_nack() {
        let mut c = SonicClient::new(720, Some(GeoPoint::new(31.5, 74.3)));
        let p = broadcast_page("https://n.pk/", "https://n.pk/x");
        let mut dropped_col = None;
        for f in page_to_frames(&p) {
            if let Frame::Strip { column, seq, .. } = &f {
                if *seq == 0 && dropped_col.is_none() {
                    dropped_col = Some(*column);
                    continue;
                }
            }
            c.receive_frame_at(f, 1.0);
        }
        let col = dropped_col.expect("strip frame dropped");
        let msg = c.compose_nack(p.page_id).expect("loss → NACK");
        let nack = sonic_sms::queries::parse_nack(&msg).expect("well-formed");
        assert_eq!(nack.page_id, p.page_id);
        assert!(nack.columns.contains(&(col, 0)), "{:?}", nack.columns);
        // A complete page yields no NACK.
        let p2 = broadcast_page("https://ok.pk/", "https://ok.pk/x");
        for f in page_to_frames(&p2) {
            c.receive_frame_at(f, 2.0);
        }
        assert!(c.compose_nack(p2.page_id).is_none());
        // Downlink-only users cannot NACK.
        let c3 = SonicClient::new(720, None);
        assert!(c3.compose_nack(p.page_id).is_none());
    }

    #[test]
    fn finalizing_evicts_expired_answers_and_keeps_the_catalog() {
        // One answer an hour, each kept two hours: after each finalize the
        // cache holds exactly the answers of this hour and the one before.
        let mut c = SonicClient::new(720, None);
        let url = |hour: u64| format!("sonic://search/q{hour}");
        for hour in 0..6u64 {
            let img = Raster::filled(8, 8, Rgb::new(hour as u8, 0, 0));
            let p =
                SimplifiedPage::from_raster(&url(hour), &img, ClickMap::default(), hour as u16, 2);
            for f in page_to_frames(&p) {
                c.receive_frame_at(f, hour as f64 * 3600.0);
            }
            c.finalize_page(p.page_id, hour).expect("complete");
            assert_eq!(c.cache.sweep(hour), 0, "hour {hour}: an expired answer was still held");
            let live: Vec<String> = (hour.saturating_sub(1)..=hour).map(url).collect();
            assert_eq!(c.catalog(hour), live);
        }
    }

    #[test]
    fn finalize_unknown_page_errors() {
        let mut c = SonicClient::new(720, None);
        assert!(c.finalize_page(12345, 0).is_err());
    }
}
