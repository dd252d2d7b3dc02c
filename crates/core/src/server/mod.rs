//! The SONIC server (§3.1): renders simplified webpages, answers SMS
//! requests, and feeds per-transmitter broadcast schedulers.

pub mod cache;
pub mod cluster;
pub mod pipeline;
pub mod render;
pub mod repair;
pub mod scheduler;
pub mod store;

use crate::page::SimplifiedPage;
use cache::{ArtifactCache, RenderCache};
use render::Renderer;
use scheduler::BroadcastScheduler;
use sonic_sms::gateway;
use sonic_sms::geo::Coverage;
use sonic_sms::queries::{self, Query};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default artifact-cache byte budget: enough for a full standard corpus of
/// artifacts (strips + frames) at experiment scales, small enough to bound
/// a long-running server.
const ARTIFACT_CACHE_BYTES: usize = 256 << 20;

/// The page an uplink SMS asks for, from `cache` while its entry lives, else
/// rendered and cached from `hour` on: the answer to `query` when the SMS
/// was an `ASK`, the corpus page at `url` when it was a `GET` (`None` for a
/// URL outside the corpus). An `ASK`'s `url` is its [`Query::result_url`].
pub(crate) fn get_or_render(
    cache: &RenderCache,
    renderer: &Renderer,
    url: &str,
    query: Option<&Query>,
    hour: u64,
) -> Option<Arc<SimplifiedPage>> {
    if let Some(p) = cache.get(url, hour) {
        return Some(p);
    }
    let page = Arc::new(match query {
        Some(q) => renderer.answer(q, hour),
        None => renderer.fetch(url, hour)?,
    });
    cache.put(page.clone(), hour);
    Some(page)
}

/// The central SONIC server plus its transmitter fleet.
#[derive(Debug)]
pub struct SonicServer {
    renderer: Renderer,
    cache: RenderCache,
    artifacts: ArtifactCache,
    coverage: Coverage,
    /// One broadcast scheduler per transmitter site id.
    pub schedulers: BTreeMap<u32, BroadcastScheduler>,
    /// NACK validation/coalescing and repair-burst scheduling.
    pub repair: repair::RepairPlanner,
}

impl SonicServer {
    /// Builds a server over a corpus-backed renderer and a transmitter fleet,
    /// each transmitter broadcasting at `rate_bps`.
    pub fn new(renderer: Renderer, coverage: Coverage, rate_bps: f64) -> Self {
        let schedulers = coverage
            .sites
            .iter()
            .map(|s| (s.id, BroadcastScheduler::new(rate_bps)))
            .collect();
        SonicServer {
            renderer,
            cache: RenderCache::new(),
            artifacts: ArtifactCache::new(ARTIFACT_CACHE_BYTES),
            coverage,
            schedulers,
            repair: repair::RepairPlanner::new(),
        }
    }

    /// Renders (or serves from cache) the simplified page for `url` at
    /// `hour`. The page is `Arc`-shared with the cache — no deep clone.
    pub fn get_page(&mut self, url: &str, hour: u64) -> Option<Arc<SimplifiedPage>> {
        get_or_render(&self.cache, &self.renderer, url, None, hour)
    }

    /// Handles one uplink SMS at absolute time `now_s` (hour derived).
    ///
    /// Two request forms are understood (§3.1): `GET <url> AT <lat>,<lon>`
    /// for webpages, and `ASK SEARCH|CHAT <query> AT <lat>,<lon>` for
    /// search-engine / chatbot queries, whose answers are rendered into
    /// pages and broadcast like any other content. On success the page is
    /// enqueued on the transmitter covering the user and an ACK with the
    /// ETA and frequency is returned.
    pub fn handle_sms(&mut self, msg: &str, now_s: f64) -> String {
        let hour = (now_s / 3600.0) as u64;
        // Repair NACKs (all three grammars are disjoint): validate against
        // the repair registry, coalesce with other clients' ranges, and ACK
        // with an ETA covering the coalescing window plus the backlog.
        if let Some(nack) = queries::parse_nack(msg) {
            let Some(site) = self.coverage.best_for(&nack.location) else {
                return gateway::format_err("no coverage at your location");
            };
            let (site_id, freq) = (site.id, site.freq_mhz);
            return match self.repair.accept_nack(site_id, &nack, now_s) {
                Ok(wait_s) => {
                    let backlog = self
                        .schedulers
                        .get(&site_id)
                        .map(|s| s.backlog_bytes() as f64 * 8.0 / s.rate_bps())
                        .unwrap_or(0.0);
                    let url = format!("{:X}", nack.page_id);
                    gateway::format_ack(&url, (wait_s + backlog).ceil() as u64 + 1, freq)
                }
                Err(repair::NackRejection::UnknownPage) => {
                    gateway::format_err("unknown page; re-request it")
                }
                Err(repair::NackRejection::InvalidRange) => gateway::format_err("bad repair range"),
                Err(repair::NackRejection::BudgetExhausted) => {
                    gateway::format_err("repair budget spent; wait for the next carousel")
                }
            };
        }
        // Queries next, then page requests. Past the parse the two are one
        // flow: both name a location and a page.
        let (location, url, query) = if let Some(q) = queries::parse_query(msg) {
            (q.location, q.result_url(), Some(q))
        } else if let Some(req) = gateway::parse_request(msg) {
            (req.location, req.url, None)
        } else {
            return gateway::format_err("malformed request");
        };
        let Some(site) = self.coverage.best_for(&location) else {
            return gateway::format_err("no coverage at your location");
        };
        let (site_id, freq) = (site.id, site.freq_mhz);
        let Some(page) = get_or_render(&self.cache, &self.renderer, &url, query.as_ref(), hour)
        else {
            return gateway::format_err("page unavailable");
        };
        let sched = self
            .schedulers
            .get_mut(&site_id)
            .expect("scheduler per site");
        self.repair.register_page(page.clone());
        let eta = sched.enqueue(page, now_s);
        gateway::format_ack(&url, eta as u64, freq)
    }

    /// Schedules any repair bursts whose coalescing window or backoff has
    /// elapsed. Call periodically (server loop / simulation tick). Returns
    /// the number of bursts scheduled.
    pub fn pump_repairs(&mut self, now_s: f64) -> usize {
        self.repair.schedule_due(now_s, &mut self.schedulers)
    }

    /// Preemptively pushes the `top_n` most popular landing pages to every
    /// transmitter ("popular news sites can be pushed early in the
    /// morning").
    ///
    /// Runs through the content-addressed artifact cache: pages whose
    /// content is unchanged since the last push reuse their cached
    /// `SimplifiedPage`/frames verbatim (skipping render, encode and
    /// chunk), and every scheduler receives the same `Arc`-shared frames —
    /// a second push of an unchanged carousel costs hash lookups, and the
    /// schedulers' page-id dedupe keeps the backlog flat.
    pub fn push_popular(&mut self, hour: u64, top_n: usize, now_s: f64) {
        let n = top_n.min(self.renderer.corpus().sites.len());
        let jobs: Vec<pipeline::PageJob> = (0..n)
            .map(|s| pipeline::PageJob {
                id: sonic_pagegen::PageId { site: s, page: 0 },
                hour,
            })
            .collect();
        for a in &pipeline::refresh_frames_only(&self.renderer, &mut self.artifacts, &jobs) {
            self.repair.register_page(a.page.clone());
            for sched in self.schedulers.values_mut() {
                sched.enqueue_prechunked(a.page.clone(), a.frames.clone(), now_s);
            }
        }
    }

    /// Access to the renderer (for examples/benches).
    pub fn renderer(&self) -> &Renderer {
        &self.renderer
    }

    /// The broadcast artifact cache (reuse stats, byte budget).
    pub fn artifact_cache(&self) -> &ArtifactCache {
        &self.artifacts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_pagegen::Corpus;

    fn server() -> SonicServer {
        let corpus = Corpus::small(4);
        let renderer = Renderer::new(corpus, 0.1);
        SonicServer::new(renderer, Coverage::pakistan_demo(), 10_000.0)
    }

    #[test]
    fn sms_request_gets_ack_with_frequency() {
        let mut srv = server();
        let url = srv.renderer().corpus().layout(
            sonic_pagegen::PageId { site: 0, page: 0 },
            0,
        ).url;
        let msg = gateway::format_request(&url, &sonic_sms::GeoPoint::new(31.52, 74.35));
        let reply = srv.handle_sms(&msg, 10.0);
        let ack = gateway::parse_ack(&reply).unwrap_or_else(|| panic!("ACK expected, got {reply}"));
        assert_eq!(ack.url, url);
        assert!((ack.freq_mhz - 93.7).abs() < 1e-9, "Lahore transmitter");
        assert!(ack.eta_s > 0);
    }

    #[test]
    fn uncovered_location_gets_err() {
        let mut srv = server();
        let msg = gateway::format_request("x.pk", &sonic_sms::GeoPoint::new(0.0, 0.0));
        let reply = srv.handle_sms(&msg, 0.0);
        assert!(reply.starts_with("ERR"), "{reply}");
    }

    #[test]
    fn unknown_url_gets_err() {
        let mut srv = server();
        let msg =
            gateway::format_request("https://nonexistent.pk/", &sonic_sms::GeoPoint::new(31.52, 74.35));
        let reply = srv.handle_sms(&msg, 0.0);
        assert!(reply.starts_with("ERR"), "{reply}");
    }

    #[test]
    fn garbage_sms_gets_err() {
        let mut srv = server();
        assert!(srv.handle_sms("hello?", 0.0).starts_with("ERR"));
    }

    #[test]
    fn search_query_is_rendered_and_acked() {
        let mut srv = server();
        let loc = sonic_sms::GeoPoint::new(31.52, 74.35);
        let msg = sonic_sms::queries::format_query(
            sonic_sms::queries::Engine::Search,
            "cricket score",
            &loc,
        );
        let reply = srv.handle_sms(&msg, 100.0);
        let ack = gateway::parse_ack(&reply).unwrap_or_else(|| panic!("ACK expected: {reply}"));
        assert_eq!(ack.url, "sonic://search/cricket-score");
        assert!(ack.eta_s > 0);
        // Second identical query hits the cache and re-uses the queue entry.
        let reply2 = srv.handle_sms(&msg, 101.0);
        assert!(reply2.starts_with("ACK"), "{reply2}");
    }

    #[test]
    fn chat_query_is_rendered_and_acked() {
        let mut srv = server();
        let loc = sonic_sms::GeoPoint::new(24.86, 67.00);
        let msg = sonic_sms::queries::format_query(
            sonic_sms::queries::Engine::Chat,
            "when does the exam registration close",
            &loc,
        );
        let reply = srv.handle_sms(&msg, 5.0);
        let ack = gateway::parse_ack(&reply).expect("ACK");
        assert!(ack.url.starts_with("sonic://chat/"));
        // Karachi transmitter (id 2) got the page.
        assert!(srv.schedulers.get(&2).expect("karachi").backlog_bytes() > 0);
    }

    #[test]
    fn push_popular_fills_all_schedulers() {
        let mut srv = server();
        srv.push_popular(0, 2, 0.0);
        for sched in srv.schedulers.values() {
            assert!(sched.backlog_bytes() > 0, "scheduler must have work");
            assert_eq!(sched.queue_len(), 2);
        }
    }

    #[test]
    fn repeated_push_popular_hits_artifact_cache_and_keeps_backlog_flat() {
        let mut srv = server();
        srv.push_popular(9, 3, 0.0);
        assert_eq!(srv.artifact_cache().stats.misses, 3, "cold push builds all");
        let backlog: Vec<usize> = srv.schedulers.values().map(|s| s.backlog_bytes()).collect();
        // Same hour again: pure cache hits, schedulers dedupe by page id.
        srv.push_popular(9, 3, 10.0);
        assert_eq!(srv.artifact_cache().stats.full_hits, 3);
        let backlog2: Vec<usize> = srv.schedulers.values().map(|s| s.backlog_bytes()).collect();
        assert_eq!(backlog, backlog2, "re-push must not double the backlog");
        for sched in srv.schedulers.values() {
            assert_eq!(sched.queue_len(), 3);
        }
    }

    #[test]
    fn nack_round_trip_schedules_targeted_repair() {
        let mut srv = server();
        srv.repair.config.coalesce_s = 5.0;
        let loc = sonic_sms::GeoPoint::new(31.52, 74.35); // Lahore, site 0
        let url = srv
            .renderer()
            .corpus()
            .layout(sonic_pagegen::PageId { site: 0, page: 0 }, 0)
            .url;
        // Request the page so it is broadcast (and registered repairable).
        let reply = srv.handle_sms(&gateway::format_request(&url, &loc), 0.0);
        let ack = gateway::parse_ack(&reply).expect("ACK");
        let page = srv.get_page(&url, 0).expect("cached");
        let page_id = page.page_id;
        // Drain the Lahore scheduler: the broadcast happened (lossily).
        let site = srv
            .schedulers
            .iter()
            .find(|(_, s)| s.backlog_bytes() > 0)
            .map(|(&id, _)| id)
            .expect("queued somewhere");
        while !srv.schedulers.get_mut(&site).expect("site").advance(10.0).is_empty() {}
        let _ = ack;
        // Client NACKs two damaged columns.
        let nack = sonic_sms::queries::format_nack(&sonic_sms::queries::Nack {
            page_id,
            meta: false,
            columns: vec![(0, 1), (2, 0)],
            location: loc,
        });
        let reply = srv.handle_sms(&nack, 100.0);
        assert!(reply.starts_with("ACK"), "{reply}");
        // Before the coalescing window: nothing scheduled.
        assert_eq!(srv.pump_repairs(101.0), 0);
        assert_eq!(srv.pump_repairs(106.0), 1, "repair burst after window");
        assert!(srv.schedulers.get(&site).expect("site").backlog_bytes() > 0);
        assert!(srv.repair.stats.frames_scheduled > 0);
        // A NACK for an unknown page id is refused.
        let bogus = sonic_sms::queries::format_nack(&sonic_sms::queries::Nack {
            page_id: 0xDEAD_BEEF,
            meta: true,
            columns: vec![],
            location: loc,
        });
        assert!(srv.handle_sms(&bogus, 200.0).starts_with("ERR"));
    }

    #[test]
    fn second_request_hits_render_cache() {
        let mut srv = server();
        let url = srv.renderer().corpus().layout(
            sonic_pagegen::PageId { site: 1, page: 0 },
            0,
        ).url;
        let a = srv.get_page(&url, 0).expect("render");
        let b = srv.get_page(&url, 0).expect("cache");
        assert_eq!(a.page_id, b.page_id);
    }
}
