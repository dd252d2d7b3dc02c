//! The SONIC server (§3.1): renders simplified webpages, answers SMS
//! requests, and feeds per-transmitter broadcast schedulers.

pub mod cache;
pub mod cluster;
mod front;
pub mod pipeline;
pub mod render;
pub mod repair;
pub mod scheduler;
pub mod store;

use crate::page::SimplifiedPage;
use cache::ArtifactCache;
use front::{Front, Uplink};
use render::Renderer;
use scheduler::BroadcastScheduler;
use sonic_sms::gateway;
use sonic_sms::geo::Coverage;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default artifact-cache byte budget: enough for a full standard corpus of
/// artifacts (strips + frames) at experiment scales, small enough to bound
/// a long-running server.
const ARTIFACT_CACHE_BYTES: usize = 256 << 20;

/// The central SONIC server plus its transmitter fleet.
#[derive(Debug)]
pub struct SonicServer {
    front: Front,
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
            front: Front::new(renderer, coverage, ArtifactCache::new(ARTIFACT_CACHE_BYTES)),
            schedulers,
            repair: repair::RepairPlanner::new(),
        }
    }

    /// The simplified page for `url` at `hour`, through the artifact cache
    /// (`Arc`-shared with it — no deep clone); `None` outside the corpus.
    pub fn get_page(&mut self, url: &str, hour: u64) -> Option<Arc<SimplifiedPage>> {
        self.front.corpus_page(url, hour).map(|a| a.page)
    }

    /// Handles one uplink SMS at absolute time `now_s` (hour derived).
    ///
    /// Two request forms are understood (§3.1): `GET <url> AT <lat>,<lon>`
    /// for webpages, and `ASK SEARCH|CHAT <query> AT <lat>,<lon>` for
    /// search-engine / chatbot queries, whose answers are rendered into
    /// pages and broadcast like any other content. On success the page is
    /// enqueued on the transmitter covering the user and an ACK with the
    /// ETA and frequency is returned. A repair NACK is validated against
    /// the repair registry, coalesced with other clients' ranges, and ACKed
    /// with an ETA covering the coalescing window plus the backlog.
    pub fn handle_sms(&mut self, msg: &str, now_s: f64) -> String {
        let hour = (now_s / 3600.0) as u64;
        let Some(sms) = front::parse(msg) else {
            return gateway::format_err("malformed request");
        };
        match self.front.serve(sms, hour, &mut self.repair) {
            Uplink::Nack { site, nack } => match self.repair.accept_nack(site.id, &nack, now_s) {
                Ok(wait_s) => {
                    let backlog = self
                        .schedulers
                        .get(&site.id)
                        .map(|s| s.backlog_bytes() as f64 * 8.0 / s.rate_bps())
                        .unwrap_or(0.0);
                    let url = format!("{:X}", nack.page_id);
                    gateway::format_ack(&url, (wait_s + backlog).ceil() as u64 + 1, site.freq_mhz)
                }
                Err(repair::NackRejection::UnknownPage) => {
                    gateway::format_err("unknown page; re-request it")
                }
                Err(repair::NackRejection::InvalidRange) => gateway::format_err("bad repair range"),
                Err(repair::NackRejection::BudgetExhausted) => {
                    gateway::format_err("repair budget spent; wait for the next carousel")
                }
            },
            Uplink::Page {
                site,
                url,
                artifact,
            } => {
                let sched = self
                    .schedulers
                    .get_mut(&site.id)
                    .expect("scheduler per site");
                let eta = sched.enqueue_prechunked(artifact.page, artifact.frames, now_s);
                gateway::format_ack(&url, eta as u64, site.freq_mhz)
            }
            Uplink::NoCoverage => gateway::format_err("no coverage at your location"),
            Uplink::Unavailable => gateway::format_err("page unavailable"),
        }
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
        for (_, a) in self.front.popular(hour, top_n, &mut self.repair) {
            for sched in self.schedulers.values_mut() {
                sched.enqueue_prechunked(a.page.clone(), a.frames.clone(), now_s);
            }
        }
    }

    /// Access to the renderer (for examples/benches).
    pub fn renderer(&self) -> &Renderer {
        &self.front.renderer
    }

    /// The broadcast artifact cache (reuse stats, byte budget).
    pub fn artifact_cache(&self) -> &ArtifactCache {
        &self.front.artifacts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_pagegen::{Corpus, PageId};

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
            assert_eq!(sched.backlog_pages(), 2);
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
            assert_eq!(sched.backlog_pages(), 3);
        }
    }

    #[test]
    fn nack_round_trip_schedules_targeted_repair() {
        let mut srv = server();
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
        // Before the coalescing window closes: nothing scheduled.
        assert_eq!(srv.pump_repairs(99.0 + repair::COALESCE_S), 0);
        assert_eq!(srv.pump_repairs(101.0 + repair::COALESCE_S), 1, "repair burst after window");
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

    /// The drained frames of every scheduler, by site.
    fn drain(srv: &mut SonicServer) -> BTreeMap<u32, Vec<crate::frame::Frame>> {
        drain_from(srv, 0.0)
            .into_iter()
            .map(|(site, aired)| (site, aired.into_iter().map(|(_, f)| f).collect()))
            .collect()
    }

    /// Frames by site, each with the stream time it aired.
    type TimedAir = BTreeMap<u32, Vec<(f64, crate::frame::Frame)>>;

    /// The drained frames of every scheduler from stream time `start_s`, by
    /// site, each with the end of the 60-s step that aired it.
    fn drain_from(srv: &mut SonicServer, start_s: f64) -> TimedAir {
        srv.schedulers
            .iter_mut()
            .map(|(&site, s)| {
                let mut aired = Vec::new();
                let mut t = start_s;
                while s.backlog_bytes() > 0 {
                    t += 60.0;
                    aired.extend(s.advance(60.0).into_iter().map(|f| (t, f)));
                }
                (site, aired)
            })
            .collect()
    }

    /// The standard corpus pushed at hours 0 and 1 (hour 0 drained), the
    /// landing pages hour 1 left alone, and the frames hour 0 aired with
    /// their air times, by site.
    fn two_pushes() -> (SonicServer, Vec<PageId>, TimedAir) {
        let corpus = Corpus::standard();
        let n = corpus.sites.len();
        let mut srv = SonicServer::new(
            Renderer::new(corpus.clone(), 0.03),
            Coverage::pakistan_demo(),
            10_000.0,
        );
        srv.push_popular(0, n, 0.0);
        let hour0 = drain_from(&mut srv, 0.0);
        srv.push_popular(1, n, 3600.0);
        let unmoved = (0..n)
            .map(|site| PageId { site, page: 0 })
            .filter(|&id| !corpus.changed(id, 0, 1))
            .collect();
        (srv, unmoved, hour0)
    }

    /// The URL of a corpus page, which does not depend on the hour.
    fn url_of(srv: &SonicServer, id: PageId) -> String {
        srv.renderer().corpus().layout(id, 1).url
    }

    /// Whether a corpus landing page's builds live one hour.
    fn hourly(srv: &SonicServer, id: PageId) -> bool {
        srv.renderer().corpus().sites[id.site].category.landing_churn_hours() <= 1
    }

    /// A request answers from the cached build whatever its age: one id per
    /// content on air, the TTL is the client's to keep.
    #[test]
    fn a_request_for_an_unmoved_page_airs_under_the_id_the_carousel_already_uses() {
        use crate::page::page_id_for;
        let (mut srv, unmoved, _) = two_pushes();
        let urls: Vec<String> = unmoved.iter().map(|&id| url_of(&srv, id)).collect();
        assert!(
            unmoved.iter().any(|&id| hourly(&srv, id)) && unmoved.iter().any(|&id| !hourly(&srv, id)),
            "hour 0→1 must leave hourly and longer-lived pages alone"
        );
        let lahore = sonic_sms::GeoPoint::new(31.52, 74.35);
        let queue_len = srv.schedulers[&1].backlog_pages();
        let before = srv.artifact_cache().stats;
        for url in &urls {
            let queued = srv.schedulers[&1]
                .eta_for(page_id_for(url, 0))
                .expect("the carousel queued the hour-0 build");
            let reply = srv.handle_sms(&gateway::format_request(url, &lahore), 3610.0);
            let ack = gateway::parse_ack(&reply).unwrap_or_else(|| panic!("ACK expected: {reply}"));
            assert_eq!(ack.eta_s, queued as u64, "{url}: the queued entry's ETA");
        }
        assert_eq!(
            srv.artifact_cache().stats.full_hits - before.full_hits,
            urls.len() as u64,
            "every request was served from the cached build"
        );
        assert_eq!(srv.artifact_cache().stats.misses, before.misses, "nothing rendered");
        assert_eq!(srv.schedulers[&1].backlog_pages(), queue_len, "no page is queued twice");
        let aired = drain(&mut srv);
        for url in &urls {
            let (v0, v1) = (page_id_for(url, 0), page_id_for(url, 1));
            assert!(aired[&1].iter().any(|f| f.page_id() == v0));
            assert!(
                aired[&1].iter().all(|f| f.page_id() != v1),
                "{url} went on air under a second id"
            );
        }
    }

    /// Why one id per content is enough. A client's cached copy expires at
    /// the start of its receipt hour + TTL, and its reassembler's tombstone
    /// of the id in the same hour: a re-air under the old id reaches a
    /// client whose copy expired. Every frame is fed at the end of the 60-s
    /// step that aired it, so an hourly page whose last frame aired
    /// mid-hour 0 is asked for again early in hour 1.
    #[test]
    fn a_client_whose_copy_expired_gets_the_page_back_by_asking_again() {
        use crate::client::SonicClient;
        use crate::page::page_id_for;
        let (mut srv, unmoved, hour0) = two_pushes();
        let expired: Vec<String> = unmoved
            .iter()
            .filter(|&&id| hourly(&srv, id))
            .map(|&id| url_of(&srv, id))
            .collect();
        assert!(!expired.is_empty(), "hour 0→1 must leave some hourly page alone");
        let mut client = SonicClient::new(720, Some(sonic_sms::GeoPoint::new(31.52, 74.35)));
        // Feeds one page's frames at their air times; the hour of the last.
        let receive = |client: &mut SonicClient, aired: &[(f64, crate::frame::Frame)], id: u32| {
            let mut last_s = None;
            for (t, f) in aired.iter().filter(|(_, f)| f.page_id() == id) {
                client.receive_frame_at(f.clone(), *t);
                last_s = Some(*t);
            }
            (last_s.expect("the page aired") / 3600.0) as u64
        };
        let ask_s = 3610.0;
        let mut taken = BTreeMap::new();
        for url in &expired {
            let old = page_id_for(url, 0);
            let hour = receive(&mut client, &hour0[&1], old);
            assert_eq!(hour, 0, "{url}: its hour-0 broadcast ended in hour 0");
            client.finalize_page(old, hour).unwrap_or_else(|e| panic!("{url} at hour 0: {e:?}"));
            taken.insert(url, client.cache.get(url, 0).expect("cached at hour 0").raster);
            assert!(client.cache.get(url, 1).is_none(), "{url}: the copy outlived its TTL");
            let request = client.compose_request(url).expect("the client has a location");
            assert!(srv.handle_sms(&request, ask_s).starts_with("ACK"));
        }
        let hour1 = drain_from(&mut srv, ask_s);
        for url in &expired {
            let old = page_id_for(url, 0);
            assert!(client.reassembler().is_finalized(old), "{url}: the client still knows the old id");
            let hour = receive(&mut client, &hour1[&1], old);
            client.finalize_page(old, hour).unwrap_or_else(|e| panic!("{url} at hour {hour}: {e:?}"));
            let back = client.cache.get(url, hour).unwrap_or_else(|| panic!("{url} came back"));
            assert_eq!(back.raster, taken[url], "{url}: the content did not move");
        }
    }

    #[test]
    fn repeated_query_renders_once_and_the_answers_cache_is_bounded() {
        use sonic_sms::queries::{format_query, Engine};
        let mut srv = server();
        let loc = sonic_sms::GeoPoint::new(31.52, 74.35);
        let msg = format_query(Engine::Chat, "how do i renew my id card", &loc);
        srv.handle_sms(&msg, 10.0);
        srv.handle_sms(&msg, 20.0);
        let stats = srv.front.answers.stats;
        assert_eq!((stats.misses, stats.full_hits), (1, 1));
        for i in 0..2_000 {
            let msg = format_query(Engine::Search, &format!("price of item {i}"), &loc);
            assert!(srv.handle_sms(&msg, 30.0).starts_with("ACK"));
            drain(&mut srv);
        }
        let answers = &srv.front.answers;
        assert!(answers.stats.evictions > 0, "{:?}", answers.stats);
        assert!(answers.bytes() <= front::ANSWER_CACHE_BYTES);
        assert!(answers.len() < 2_000);
    }
}
