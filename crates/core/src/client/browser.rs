//! Click handling: the limited interactivity of §3.2.
//!
//! "As the user clicks on such coordinates, SONIC informs the server (via
//! SMS, if available) and requests the next image … unless it is already
//! available in the cache."

use super::SonicClient;
use sonic_image::scale::device_factor;

/// What the app should do after a tap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClickOutcome {
    /// Target page is cached: navigate instantly.
    CachedHit(String),
    /// Target not cached; this SMS request should be sent (uplink users).
    SendRequest(String),
    /// Target not cached and the user has no uplink: show "come back later".
    UnavailableOffline(String),
    /// The tap hit nothing interactive.
    NotInteractive,
    /// The referenced page is not in the cache at all.
    PageUnknown,
}

/// Resolves a tap in device coordinates against a cached page.
pub fn click(
    client: &SonicClient,
    current_url: &str,
    device_x: u16,
    device_y: u16,
    now_hour: u64,
) -> ClickOutcome {
    let Some(page) = client.cache.get(current_url, now_hour) else {
        return ClickOutcome::PageUnknown;
    };
    // Click maps are stored in logical 1080-wide coordinates; scale the tap
    // up by the inverse device factor (§3.2).
    let factor = device_factor(client.device_width);
    let lx = (device_x as f64 / factor).round() as u16;
    let ly = (device_y as f64 / factor).round() as u16;
    let Some(target) = page.clickmap.hit(lx, ly) else {
        return ClickOutcome::NotInteractive;
    };
    let target = target.to_string();
    if client.cache.get(&target, now_hour).is_some() {
        return ClickOutcome::CachedHit(target);
    }
    match client.compose_request(&target) {
        Some(sms) => ClickOutcome::SendRequest(sms),
        None => ClickOutcome::UnavailableOffline(target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::cache::CachedPage;
    use sonic_image::clickmap::{ClickMap, ClickRegion};
    use sonic_image::raster::Raster;
    use sonic_sms::geo::GeoPoint;

    fn client_with_page(uplink: bool) -> SonicClient {
        let mut client = SonicClient::new(
            720,
            if uplink {
                Some(GeoPoint::new(31.5, 74.3))
            } else {
                None
            },
        );
        let cm = ClickMap {
            regions: vec![ClickRegion {
                x: 100,
                y: 200,
                w: 300,
                h: 100,
                target: "https://a.pk/inner".into(),
            }],
        };
        client.cache.put(
            CachedPage {
                url: "https://a.pk/".into(),
                raster: Raster::new(4, 4),
                clickmap: cm,
                version: 0,
                pixel_loss: 0.0,
            },
            12,
            0,
        );
        client
    }

    /// Device coords for logical (150, 250) at 720/1080 scaling.
    const DEV_X: u16 = 100; // 150 · 2/3
    const DEV_Y: u16 = 167; // 250 · 2/3 (rounded)

    #[test]
    fn tap_inside_region_without_cache_requests_via_sms() {
        let c = client_with_page(true);
        match c.click("https://a.pk/", DEV_X, DEV_Y, 0) {
            ClickOutcome::SendRequest(sms) => {
                assert!(sms.starts_with("GET https://a.pk/inner AT "), "{sms}");
            }
            other => panic!("expected SendRequest, got {other:?}"),
        }
    }

    #[test]
    fn downlink_only_user_sees_unavailable() {
        let c = client_with_page(false);
        assert_eq!(
            c.click("https://a.pk/", DEV_X, DEV_Y, 0),
            ClickOutcome::UnavailableOffline("https://a.pk/inner".into())
        );
    }

    #[test]
    fn cached_target_navigates_instantly() {
        let mut c = client_with_page(true);
        c.cache.put(
            CachedPage {
                url: "https://a.pk/inner".into(),
                raster: Raster::new(4, 4),
                clickmap: ClickMap::default(),
                version: 0,
                pixel_loss: 0.0,
            },
            12,
            0,
        );
        assert_eq!(
            c.click("https://a.pk/", DEV_X, DEV_Y, 0),
            ClickOutcome::CachedHit("https://a.pk/inner".into())
        );
    }

    #[test]
    fn tap_outside_regions_is_inert() {
        let c = client_with_page(true);
        assert_eq!(c.click("https://a.pk/", 5, 5, 0), ClickOutcome::NotInteractive);
    }

    #[test]
    fn unknown_current_page() {
        let c = client_with_page(true);
        assert_eq!(c.click("https://other.pk/", 1, 1, 0), ClickOutcome::PageUnknown);
    }
}
