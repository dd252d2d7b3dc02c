//! Sharded multi-site control plane over the framed transport.
//!
//! A country-scale SONIC deployment splits §3.1's monolithic server: one
//! central **coordinator** owns rendering, the shared artifact store, the
//! SMS gateway's bounded ingress queue and the repair planner, and N
//! **site nodes** — one per FM transmitter — each own their broadcast
//! scheduler. Coordinator and sites talk only through
//! [`crate::net`]'s length-prefixed frames over fault-injected links, so
//! every control-plane interaction survives torn frames, partitions and
//! crash/restart cycles (the distributed chaos soak in `sonic-sim`
//! exercises exactly that).
//!
//! Two push paths keep the wire thin:
//!
//! * **`PushStored`** — carousel pages travel as a ~26-byte store key; the
//!   site reloads frames from the shared disk tier ([`ArtifactStore`]'s
//!   warm-restart property doing double duty as a content distribution
//!   network). A cold site answers `StoreMiss` and the coordinator falls
//!   back to…
//! * **`PushFrames`** — inline 100-byte link frames: requested pages,
//!   query answers and repair bursts (the last two never enter the store).
//!
//! Failure handling, in order of escalation:
//!
//! * every RPC carries a deadline; expiries retry under exponential
//!   backoff within a bounded attempt budget ([`RpcClient`]);
//! * consecutive expiries mark a site **Down**; its repair traffic fails
//!   over to the next live site in ring order while page pushes wait in
//!   the client's bounded queue;
//! * when a downed site answers a probe, the coordinator sends `Resume`:
//!   the site reloads the hour's carousel from the disk tier, skipping
//!   the slots it had already aired before the crash;
//! * under overload everything sheds in class order — repair bursts
//!   before deltas before full pages, control traffic never — at three
//!   independent bounded queues (SMS ingress, RPC client, site backlog).
//!
//! The bounds are constants beside the code that reads them, one value
//! each: the coordinator pings every `PING_INTERVAL_S`, holds
//! [`INGRESS_CAPACITY`] SMS and handles `INGRESS_DRAIN_PER_PUMP` per
//! pump; a site sheds repairs above `SHED_REPAIR_BYTES`, deltas above
//! `SHED_DELTA_BYTES`, everything above [`MAX_BACKLOG_PAGES`], and
//! re-scans a stalled request stream after `STALL_RESYNC_S`. The RPC
//! numbers live in [`crate::net::rpc`].
//!
//! [`ArtifactStore`]: crate::server::store::ArtifactStore
//! [`RpcClient`]: crate::net::rpc::RpcClient

use crate::frame::Frame;
use crate::net::codec::{frame_bytes, FrameDecoder};
use crate::net::proto::{decode_msg, encode_msg, Msg, RefuseCode, Request, Response};
use crate::net::rpc::{JobClass, RpcClient};
use crate::net::transport::SimLink;
use crate::page::SimplifiedPage;
use crate::server::cache::{Artifact, ArtifactCache, SharedArtifactStore, TieredCache};
use crate::server::front::{self, Front, Parsed, Uplink};
use crate::server::pipeline::{self, PageJob};
use crate::server::render::Renderer;
use crate::server::repair::RepairPlanner;
use crate::server::scheduler::{BroadcastScheduler, SlotKind};
use sonic_pagegen::PageId;
use sonic_sms::geo::Coverage;
use sonic_sms::ingress::IngressQueue;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Coordinator-side RAM tier for refreshed artifacts. Small relative to
/// the monolithic server's: the cluster's durable tier is the shared
/// store, and sites hold their own frames.
const CLUSTER_CACHE_BYTES: usize = 64 << 20;

/// Hard cap on a site's queued pages: every push is refused above it.
pub const MAX_BACKLOG_PAGES: usize = 512;
/// Site backlog bytes above which repair pushes are shed (first to go).
const SHED_REPAIR_BYTES: usize = 256 << 10;
/// Site backlog bytes above which delta pushes are shed (second to go;
/// must be ≥ `SHED_REPAIR_BYTES` for the class order to hold).
const SHED_DELTA_BYTES: usize = 512 << 10;
/// Seconds received bytes may sit undecoded before a site's request
/// decoder abandons its pending frame and re-scans (torn-frame livelock
/// guard).
const STALL_RESYNC_S: f64 = 10.0;

/// Site-node counters (soak assertions and diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Requests decoded and handled.
    pub requests: u64,
    /// Wire frames that did not decode to a request message.
    pub bad_msgs: u64,
    /// `PushStored` keys served from the store tier.
    pub store_hits: u64,
    /// `PushStored` keys missing from the store tier.
    pub store_misses: u64,
    /// `PushFrames` bodies enqueued.
    pub frames_pushes: u64,
    /// Pushes refused under load shed.
    pub refused_overload: u64,
    /// Carousel jobs reloaded from the store on `Resume`.
    pub resumed_jobs: u64,
    /// Responses the severed uplink refused to carry.
    pub responses_lost: u64,
}

/// One transmitter-site shard: a broadcast scheduler behind the framed
/// transport, optionally backed by the shared artifact store.
#[derive(Debug)]
pub struct SiteNode {
    /// The transmitter site id this node serves.
    pub site_id: u32,
    /// The site's broadcast scheduler (airs via [`advance`](Self::advance)).
    pub scheduler: BroadcastScheduler,
    store: Option<SharedArtifactStore>,
    decoder: FrameDecoder,
    /// Last time the request decoder made progress (or sat empty).
    last_rx_progress_s: f64,
    /// Counters.
    pub stats: SiteStats,
}

impl SiteNode {
    /// A fresh node for `site_id`, broadcasting at `rate_bps`. Pass the
    /// shared store for the warm `PushStored` / `Resume` paths; without one
    /// every stored push answers `StoreMiss`.
    pub fn new(site_id: u32, rate_bps: f64, store: Option<SharedArtifactStore>) -> Self {
        SiteNode {
            site_id,
            scheduler: BroadcastScheduler::new(rate_bps),
            store,
            decoder: FrameDecoder::new(),
            last_rx_progress_s: 0.0,
            stats: SiteStats::default(),
        }
    }

    /// Loads a carousel artifact from the shared store tier.
    fn load_stored(
        &mut self,
        corpus_site: u32,
        corpus_page: u32,
    ) -> Option<(Arc<SimplifiedPage>, Arc<Vec<Frame>>)> {
        let store = self.store.as_ref()?;
        let loaded = store.borrow_mut().load(PageId {
            site: corpus_site as usize,
            page: corpus_page as usize,
        })?;
        Some((loaded.artifact.page, loaded.artifact.frames))
    }

    /// Handles one decoded request (the transport-free core; `service`
    /// wraps it behind the wire).
    pub fn handle(&mut self, req: Request, now_s: f64) -> Response {
        self.stats.requests += 1;
        match req {
            Request::Ping => Response::Pong {
                site_id: self.site_id,
                backlog_bytes: self.scheduler.backlog_bytes() as u64,
                backlog_pages: self.scheduler.backlog_pages() as u32,
                pages_completed: self.scheduler.completed_pages,
            },
            Request::PushStored {
                corpus_site,
                corpus_page,
                ..
            } => {
                if self.scheduler.backlog_pages() >= MAX_BACKLOG_PAGES {
                    self.stats.refused_overload += 1;
                    return Response::Refused {
                        code: RefuseCode::Overloaded,
                    };
                }
                match self.load_stored(corpus_site, corpus_page) {
                    Some((page, frames)) => {
                        self.stats.store_hits += 1;
                        let eta = self.scheduler.enqueue_prechunked(page, frames, now_s);
                        Response::Done {
                            eta_ms: (eta * 1000.0) as u64,
                        }
                    }
                    None => {
                        self.stats.store_misses += 1;
                        Response::Refused {
                            code: RefuseCode::StoreMiss,
                        }
                    }
                }
            }
            Request::PushFrames {
                page_id,
                kind,
                frames,
            } => {
                let backlog = self.scheduler.backlog_bytes();
                let shed = self.scheduler.backlog_pages() >= MAX_BACKLOG_PAGES
                    || (kind == SlotKind::Repair && backlog > SHED_REPAIR_BYTES)
                    || (kind == SlotKind::Delta && backlog > SHED_DELTA_BYTES);
                if shed {
                    self.stats.refused_overload += 1;
                    return Response::Refused {
                        code: RefuseCode::Overloaded,
                    };
                }
                self.stats.frames_pushes += 1;
                let eta = self
                    .scheduler
                    .enqueue_frames(page_id, kind, Arc::new(frames), now_s);
                Response::Done {
                    eta_ms: (eta * 1000.0) as u64,
                }
            }
            Request::Resume { slot, jobs, .. } => {
                // Warm restart: reload the hour's carousel from the disk
                // tier, skipping slots aired before the crash. Jobs whose
                // artifacts are missing are skipped — the coordinator's
                // next carousel push re-seeds them.
                let mut eta = 0.0f64;
                for &(cs, cp) in jobs.iter().skip(slot as usize) {
                    if let Some((page, frames)) = self.load_stored(cs, cp) {
                        eta = self.scheduler.enqueue_prechunked(page, frames, now_s);
                        self.stats.resumed_jobs += 1;
                    }
                }
                Response::Done {
                    eta_ms: (eta * 1000.0) as u64,
                }
            }
        }
    }

    /// Services the coordinator link: drains received bytes through the
    /// frame decoder, handles each request and sends its response back.
    /// Returns the number of requests handled this call.
    pub fn service(&mut self, now_s: f64, link: &mut SimLink) -> usize {
        let mut rx = Vec::new();
        link.a_to_b.recv_into(now_s, &mut rx);
        let frames_before = self.decoder.stats.frames;
        self.decoder.feed(&rx);
        let mut handled = 0usize;
        while let Some(payload) = self.decoder.next_frame() {
            let Some(Msg::Req { id, req }) = decode_msg(&payload) else {
                self.stats.bad_msgs += 1;
                continue;
            };
            let resp = self.handle(req, now_s);
            let mut body = Vec::new();
            encode_msg(&Msg::Resp { id, resp }, &mut body);
            if !link.b_to_a.send(&frame_bytes(&body), now_s) {
                self.stats.responses_lost += 1;
            }
            handled += 1;
        }
        // Stall watchdog: bytes buffered with no decode progress for the
        // stall horizon means the decoder is waiting on a torn
        // frame's tail — abandon it and re-scan rather than livelock
        // (later requests would otherwise be swallowed forever).
        if self.decoder.buffered() == 0 || self.decoder.stats.frames > frames_before {
            self.last_rx_progress_s = now_s;
        } else if now_s - self.last_rx_progress_s > STALL_RESYNC_S {
            self.decoder.force_resync();
            self.last_rx_progress_s = now_s;
        }
        handled
    }

    /// Airs frames for `dt` seconds of broadcast time.
    pub fn advance(&mut self, dt: f64) -> Vec<Frame> {
        self.scheduler.advance(dt)
    }
}

/// Seconds between health pings to an `Up` site.
const PING_INTERVAL_S: f64 = 20.0;
/// Bound on the SMS ingress queue.
pub const INGRESS_CAPACITY: usize = 256;
/// Most ingress messages processed per [`Coordinator::pump`] call (keeps
/// one pump's work bounded during floods).
const INGRESS_DRAIN_PER_PUMP: usize = 64;

/// The coordinator's last-reported view of one site (from `Pong`s).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteView {
    /// Scheduler backlog in bytes.
    pub backlog_bytes: u64,
    /// Scheduler backlog in pages.
    pub backlog_pages: u32,
    /// Queue entries the site reports fully aired since (re)start.
    pub completed: u64,
    /// `completed` as of the latest carousel push — the baseline the
    /// resume slot is measured against.
    pub completed_at_push: u64,
    /// Pongs folded into this view.
    pub pongs: u64,
}

/// Coordinator counters (soak assertions and diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Page requests parsed off the ingress queue.
    pub sms_requests: u64,
    /// Search/chat queries parsed off the ingress queue.
    pub sms_queries: u64,
    /// Repair NACKs parsed off the ingress queue.
    pub sms_nacks: u64,
    /// Ingress messages dropped: malformed, uncovered or NACK-refused.
    pub sms_rejected: u64,
    /// `PushStored` submissions accepted by RPC clients.
    pub pushes_stored: u64,
    /// `PushFrames` submissions accepted by RPC clients.
    pub pushes_frames: u64,
    /// Page pushes skipped because an identical push was already pending
    /// on the site's client (request coalescing).
    pub pushes_coalesced: u64,
    /// `StoreMiss` answers converted to inline frame pushes.
    pub inline_fallbacks: u64,
    /// Site-side `Overloaded` refusals observed.
    pub refused_overloaded: u64,
    /// Submissions shed by a full RPC client queue.
    pub submit_shed: u64,
    /// Repair bursts rerouted to a neighbor of a down site.
    pub failovers: u64,
    /// Bursts dropped because no site in the ring was up.
    pub unroutable: u64,
    /// `Resume` instructions sent on recovery edges.
    pub resumes: u64,
    /// Health pings submitted.
    pub pings: u64,
}

/// Central control plane: renders content, feeds N [`SiteNode`]s over
/// fault-injected links, and owns the gateway ingress + repair planning.
#[derive(Debug)]
pub struct Coordinator {
    front: Front<TieredCache>,
    /// Site ids in ring order (failover walks this).
    ring: Vec<u32>,
    clients: BTreeMap<u32, RpcClient>,
    views: BTreeMap<u32, SiteView>,
    next_ping_s: BTreeMap<u32, f64>,
    carousel_jobs: Vec<(u32, u32)>,
    carousel_hour: u64,
    /// `(site, page id) → suppress-until`: a `Done { eta_ms }` means the
    /// site's queue covers the page until that ETA, so re-pushing it
    /// before then would only re-send bytes the broadcast already owes
    /// every listener. Pruned each pump; cleared per site on recovery
    /// (a restarted scheduler starts empty).
    pushed: BTreeMap<(u32, u32), f64>,
    /// NACK validation/coalescing and repair budgeting.
    pub repair: RepairPlanner,
    /// The gateway's bounded accept buffer.
    pub ingress: IngressQueue,
    /// Counters.
    pub stats: CoordStats,
}

impl Coordinator {
    /// Builds a coordinator over a renderer, a transmitter fleet and the
    /// store shared with every site.
    pub fn new(renderer: Renderer, coverage: Coverage, store: SharedArtifactStore) -> Self {
        let ring: Vec<u32> = coverage.sites.iter().map(|s| s.id).collect();
        let clients = ring.iter().map(|&id| (id, RpcClient::new())).collect();
        Coordinator {
            front: Front::new(
                renderer,
                coverage,
                TieredCache::with_store(ArtifactCache::new(CLUSTER_CACHE_BYTES), store),
            ),
            ring,
            clients,
            views: BTreeMap::new(),
            next_ping_s: BTreeMap::new(),
            carousel_jobs: Vec::new(),
            carousel_hour: 0,
            pushed: BTreeMap::new(),
            repair: RepairPlanner::new(),
            ingress: IngressQueue::new(INGRESS_CAPACITY),
            stats: CoordStats::default(),
        }
    }

    /// Whether `site`'s RPC client currently considers it up.
    pub fn site_up(&self, site: u32) -> bool {
        self.clients.get(&site).is_some_and(RpcClient::is_up)
    }

    /// The per-site RPC clients (stats, queue depths).
    pub fn clients(&self) -> &BTreeMap<u32, RpcClient> {
        &self.clients
    }

    /// Access to the renderer (examples/benches).
    pub fn renderer(&self) -> &Renderer {
        &self.front.renderer
    }

    /// Offers one uplink SMS to the bounded ingress queue. Returns `false`
    /// when the gateway shed it (queue full; see [`IngressQueue`]).
    pub fn accept_sms(&mut self, msg: &str) -> bool {
        self.ingress.push(msg)
    }

    /// Renders the hour's top-`top_n` landing pages through the shared
    /// store and pushes them to every site as `PushStored` keys. The jobs
    /// are remembered as the hour's carousel for `Resume`.
    pub fn push_carousel(&mut self, hour: u64, top_n: usize, _now_s: f64) {
        self.carousel_hour = hour;
        self.carousel_jobs = self
            .front
            .popular(hour, top_n, &mut self.repair)
            .iter()
            .map(|(id, _)| (id.site as u32, id.page as u32))
            .collect();
        let sites = self.ring.clone();
        let carousel = self.carousel_jobs.clone();
        for site in sites {
            if let Some(v) = self.views.get_mut(&site) {
                v.completed_at_push = v.completed;
            }
            for &(cs, cp) in &carousel {
                let ok = self.clients.get_mut(&site).is_some_and(|c| {
                    c.submit(
                        JobClass::Page,
                        Request::PushStored {
                            corpus_site: cs,
                            corpus_page: cp,
                            hour,
                        },
                    )
                });
                if ok {
                    self.stats.pushes_stored += 1;
                } else {
                    self.stats.submit_shed += 1;
                }
            }
        }
    }

    /// The site a repair burst for `preferred` should go to: the site
    /// itself while up, else the next up site in ring order (the neighbor
    /// absorbing the down site's repair traffic).
    fn route_repair(&mut self, preferred: u32) -> Option<u32> {
        if self.site_up(preferred) {
            return Some(preferred);
        }
        let pos = self.ring.iter().position(|&s| s == preferred)?;
        for off in 1..self.ring.len() {
            let cand = self.ring[(pos + off) % self.ring.len()];
            if self.site_up(cand) {
                self.stats.failovers += 1;
                return Some(cand);
            }
        }
        None
    }

    /// Submits one inline full-page frame push toward `site_id`, counting
    /// whether the client's bounded queue took it.
    fn submit_frames(&mut self, site_id: u32, a: &Artifact) -> bool {
        let ok = self.clients.get_mut(&site_id).is_some_and(|c| {
            c.submit(
                JobClass::Page,
                Request::PushFrames {
                    page_id: a.page.page_id,
                    kind: SlotKind::Full,
                    frames: (*a.frames).clone(),
                },
            )
        });
        if !ok {
            self.stats.submit_shed += 1;
        }
        ok
    }

    /// Pushes a requested page toward `site_id` (page requests ride the
    /// covering site's queue even while it is down — the client holds them
    /// and resends on recovery, so the user's radio still gets them).
    fn submit_page(&mut self, site_id: u32, artifact: &Artifact, now_s: f64) {
        // Coalesce: a flood of requests for the same hot page needs one
        // push per site, not one per request — a duplicate would only
        // displace other work from the bounded queue and re-send bytes
        // the site's carousel already owes every listener. A push is a
        // duplicate while an identical RPC is still pending *or* while
        // the site's acknowledged broadcast ETA has not passed.
        let pid = artifact.page.page_id;
        let covered = self
            .pushed
            .get(&(site_id, pid))
            .is_some_and(|&until| now_s < until)
            || self.clients.get(&site_id).is_some_and(|c| {
                c.has_pending(|r| {
                    matches!(r, Request::PushFrames { page_id, kind: SlotKind::Full, .. }
                        if *page_id == pid)
                })
            });
        if covered {
            self.stats.pushes_coalesced += 1;
        } else if self.submit_frames(site_id, artifact) {
            self.stats.pushes_frames += 1;
        }
    }

    /// Parses and routes one ingress message.
    fn process_sms(&mut self, msg: &str, now_s: f64) {
        let hour = (now_s / 3600.0) as u64;
        let Some(sms) = front::parse(msg) else {
            self.stats.sms_rejected += 1;
            return;
        };
        match &sms {
            Parsed::Nack(_) => self.stats.sms_nacks += 1,
            Parsed::Ask(_) => self.stats.sms_queries += 1,
            Parsed::Get(_) => self.stats.sms_requests += 1,
        }
        match self.front.serve(sms, hour, &mut self.repair) {
            Uplink::Nack { site, nack } => {
                if self.repair.accept_nack(site.id, &nack, now_s).is_err() {
                    self.stats.sms_rejected += 1;
                }
            }
            Uplink::Page { site, artifact, .. } => self.submit_page(site.id, &artifact, now_s),
            Uplink::NoCoverage | Uplink::Unavailable => self.stats.sms_rejected += 1,
        }
    }

    /// Folds one completed RPC (request, response) pair into state.
    fn fold(&mut self, site: u32, req: Request, resp: Response, now_s: f64) {
        match (req, resp) {
            (
                Request::PushFrames {
                    page_id,
                    kind: SlotKind::Full,
                    ..
                },
                Response::Done { eta_ms },
            ) => {
                // The site's queue now covers this page until the acked
                // broadcast ETA: suppress re-pushes until then.
                self.pushed
                    .insert((site, page_id), now_s + eta_ms as f64 / 1000.0);
            }
            (
                _,
                Response::Pong {
                    backlog_bytes,
                    backlog_pages,
                    pages_completed,
                    ..
                },
            ) => {
                let v = self.views.entry(site).or_default();
                v.backlog_bytes = backlog_bytes;
                v.backlog_pages = backlog_pages;
                v.completed = pages_completed;
                v.pongs += 1;
            }
            (
                Request::PushStored {
                    corpus_site,
                    corpus_page,
                    ..
                },
                Response::Refused {
                    code: RefuseCode::StoreMiss,
                },
            ) => {
                // The site's store tier is cold (fresh disk or eviction):
                // resend the carousel's build of the page as inline frames.
                // It comes off the ladder like any page — a hit, a promotion
                // from the coordinator's own disk tier, or a rebuild.
                let job = PageJob {
                    id: PageId {
                        site: corpus_site as usize,
                        page: corpus_page as usize,
                    },
                    hour: self.carousel_hour,
                };
                let front = &mut self.front;
                let built =
                    pipeline::refresh_frames_only(&front.renderer, &mut front.artifacts, &[job]);
                if self.submit_frames(site, &built[0]) {
                    self.stats.inline_fallbacks += 1;
                }
            }
            (
                _,
                Response::Refused {
                    code: RefuseCode::Overloaded,
                },
            ) => {
                self.stats.refused_overloaded += 1;
            }
            _ => {}
        }
    }

    /// One control-plane turn: drains bounded ingress work, routes due
    /// repair bursts (with failover), submits periodic health pings, ticks
    /// every site's RPC client over its link, folds completions, and sends
    /// `Resume` on recovery edges. Deterministic given `now_s` and the
    /// links' state; call it each scheduler tick.
    pub fn pump(&mut self, now_s: f64, links: &mut BTreeMap<u32, SimLink>) {
        // Expired broadcast ETAs no longer suppress anything; drop them.
        self.pushed.retain(|_, &mut until| until > now_s);
        for _ in 0..INGRESS_DRAIN_PER_PUMP {
            let Some(msg) = self.ingress.pop() else { break };
            self.process_sms(&msg, now_s);
        }

        // Repair bursts whose coalescing window / backoff elapsed. The
        // coordinator cannot see remote queues, so nothing is "covered"
        // here — the site-side scheduler dedupe absorbs overlaps.
        let bursts = self.repair.due_bursts(now_s, |_, _| false);
        for b in bursts {
            let Some(target) = self.route_repair(b.site_id) else {
                self.stats.unroutable += 1;
                continue;
            };
            let ok = self.clients.get_mut(&target).is_some_and(|c| {
                c.submit(
                    JobClass::Repair,
                    Request::PushFrames {
                        page_id: b.page.page_id,
                        kind: SlotKind::Repair,
                        // The burst was built just now and its `Arc` is
                        // not shared: move the frames out.
                        frames: Arc::try_unwrap(b.frames).unwrap_or_else(|f| (*f).clone()),
                    },
                )
            });
            if ok {
                self.stats.pushes_frames += 1;
            } else {
                self.stats.submit_shed += 1;
            }
        }

        let sites = self.ring.clone();
        for &site in &sites {
            let due = self.next_ping_s.get(&site).copied().unwrap_or(0.0);
            if now_s >= due {
                if self
                    .clients
                    .get_mut(&site)
                    .is_some_and(|c| c.submit(JobClass::Control, Request::Ping))
                {
                    self.stats.pings += 1;
                }
                self.next_ping_s.insert(site, now_s + PING_INTERVAL_S);
            }
        }

        for &site in &sites {
            let Some(link) = links.get_mut(&site) else {
                continue;
            };
            let completed = match self.clients.get_mut(&site) {
                Some(c) => c.tick(now_s, &mut link.a_to_b, &mut link.b_to_a),
                None => Vec::new(),
            };
            for (req, resp) in completed {
                self.fold(site, req, resp, now_s);
            }
            let recovered = self
                .clients
                .get_mut(&site)
                .is_some_and(RpcClient::take_recovered);
            if recovered {
                // A recovered site may have restarted with an empty
                // scheduler: every pre-crash broadcast ETA is void.
                self.pushed.retain(|&(s, _), _| s != site);
            }
            if recovered && !self.carousel_jobs.is_empty() {
                // The site restarted (or the partition healed): resume the
                // hour's carousel after the slots it already aired. The
                // carousel batch heads the FIFO queue each hour, so the
                // completed-count delta since the push is the slot index.
                let slot = self.views.get(&site).map_or(0, |v| {
                    v.completed
                        .saturating_sub(v.completed_at_push)
                        .min(self.carousel_jobs.len() as u64) as u32
                });
                let req = Request::Resume {
                    hour: self.carousel_hour,
                    slot,
                    jobs: self.carousel_jobs.clone(),
                };
                if self
                    .clients
                    .get_mut(&site)
                    .is_some_and(|c| c.submit(JobClass::Control, req))
                {
                    self.stats.resumes += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::transport::LinkFaultPlan;
    use crate::server::store::ArtifactStore;
    use sonic_pagegen::Corpus;
    use sonic_sms::gateway;

    fn store(dir: &std::path::Path) -> SharedArtifactStore {
        crate::server::cache::share_store(
            ArtifactStore::open(dir, 64 << 20).expect("open store"),
        )
    }

    fn coordinator_with(st: &SharedArtifactStore) -> Coordinator {
        let corpus = Corpus::small(6);
        let renderer = Renderer::new(corpus, 0.1);
        Coordinator::new(renderer, Coverage::pakistan_demo(), st.clone())
    }

    fn links_for(coverage: &Coverage, seed: u64) -> BTreeMap<u32, SimLink> {
        coverage
            .sites
            .iter()
            .map(|s| {
                (
                    s.id,
                    SimLink::symmetric(LinkFaultPlan::clean(seed ^ u64::from(s.id))),
                )
            })
            .collect()
    }

    /// The rate every test site broadcasts at.
    const SITE_RATE_BPS: f64 = 80_000.0;

    fn site_for(id: u32, st: &SharedArtifactStore) -> SiteNode {
        SiteNode::new(id, SITE_RATE_BPS, Some(st.clone()))
    }

    /// Runs `steps` half-second turns of the full loop.
    fn run(
        coord: &mut Coordinator,
        sites: &mut BTreeMap<u32, SiteNode>,
        links: &mut BTreeMap<u32, SimLink>,
        t0: f64,
        steps: usize,
    ) -> f64 {
        let mut t = t0;
        for _ in 0..steps {
            coord.pump(t, links);
            for (id, node) in sites.iter_mut() {
                if let Some(link) = links.get_mut(id) {
                    node.service(t, link);
                }
                node.advance(0.5);
            }
            t += 0.5;
        }
        t
    }

    #[test]
    fn carousel_flows_through_store_keys_to_site_schedulers() {
        let dir = tempdir("cluster-carousel");
        let st = store(&dir);
        let mut coord = coordinator_with(&st);
        let coverage = Coverage::pakistan_demo();
        let mut sites: BTreeMap<u32, SiteNode> = coverage
            .sites
            .iter()
            .map(|s| (s.id, site_for(s.id, &st)))
            .collect();
        let mut links = links_for(&coverage, 7);
        coord.push_carousel(0, 4, 0.0);
        run(&mut coord, &mut sites, &mut links, 0.0, 40);
        for node in sites.values() {
            assert!(
                node.stats.store_hits >= 4,
                "site {} loaded carousel from the shared store: {:?}",
                node.site_id,
                node.stats
            );
            assert_eq!(node.stats.store_misses, 0);
        }
        assert!(coord.stats.pushes_stored >= 4 * sites.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_miss_falls_back_to_inline_frames() {
        // The second coordinator's RAM tier keeps one page: two of the three
        // carousel pages are gone from it when the sites ask.
        for ram_bytes in [CLUSTER_CACHE_BYTES, 1] {
            let dir = tempdir("cluster-miss");
            let st = store(&dir);
            let mut coord = coordinator_with(&st);
            coord.front.artifacts =
                TieredCache::with_store(ArtifactCache::new(ram_bytes), st.clone());
            let coverage = Coverage::pakistan_demo();
            // Sites WITHOUT a store: every PushStored answers StoreMiss.
            let mut sites: BTreeMap<u32, SiteNode> = coverage
                .sites
                .iter()
                .map(|s| (s.id, SiteNode::new(s.id, SITE_RATE_BPS, None)))
                .collect();
            let mut links = links_for(&coverage, 9);
            coord.push_carousel(0, 3, 0.0);
            let evicted = coord.front.artifacts.ram.stats.evictions;
            assert_eq!(evicted, if ram_bytes == 1 { 2 } else { 0 });
            run(&mut coord, &mut sites, &mut links, 0.0, 80);
            assert!(coord.stats.inline_fallbacks >= 3, "{:?}", coord.stats);
            for node in sites.values() {
                assert!(node.stats.frames_pushes >= 3, "{:?}", node.stats);
                assert_eq!(node.scheduler.backlog_bytes() % 100, 0);
            }
            let promoted = coord.front.artifacts.ram.stats.disk_promotions;
            assert_eq!(promoted > 0, ram_bytes == 1, "an evicted page comes back from disk");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn dead_site_is_detected_and_recovery_triggers_resume() {
        let dir = tempdir("cluster-failover");
        let st = store(&dir);
        let mut coord = coordinator_with(&st);
        let coverage = Coverage::pakistan_demo();
        let victim = coverage.sites[0].id;
        let mut sites: BTreeMap<u32, SiteNode> = coverage
            .sites
            .iter()
            .map(|s| (s.id, site_for(s.id, &st)))
            .collect();
        let mut links = links_for(&coverage, 11);
        coord.push_carousel(0, 4, 0.0);
        let t = run(&mut coord, &mut sites, &mut links, 0.0, 30);
        assert!(coord.site_up(victim));

        // Kill the victim: stop servicing it and flush its link buffers.
        let crashed = sites.remove(&victim).expect("victim exists");
        let aired_before_crash = crashed.stats.resumed_jobs; // 0, by construction
        assert_eq!(aired_before_crash, 0);
        if let Some(l) = links.get_mut(&victim) {
            l.a_to_b.flush_inflight();
            l.b_to_a.flush_inflight();
        }
        let t = run(&mut coord, &mut sites, &mut links, t, 80);
        assert!(!coord.site_up(victim), "deadline expiries tripped Down");

        // Restart from the shared disk tier; probes bring it back Up and
        // the coordinator sends Resume.
        sites.insert(victim, site_for(victim, &st));
        let _ = run(&mut coord, &mut sites, &mut links, t, 120);
        assert!(coord.site_up(victim), "probe answered, site back Up");
        assert!(coord.stats.resumes >= 1, "{:?}", coord.stats);
        let node = sites.get(&victim).expect("restarted");
        assert!(
            node.stats.resumed_jobs > 0,
            "carousel reloaded from the disk tier: {:?}",
            node.stats
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overloaded_site_sheds_repairs_before_pages() {
        use crate::frame::{FRAME_PAYLOAD, FRAME_SIZE};
        let mut node = SiteNode::new(3, 8_000.0, None);
        // A push of `bytes` of backlog, as one column's strip frames.
        let push = |node: &mut SiteNode, page_id: u32, kind: SlotKind, bytes: usize| {
            let n = bytes.div_ceil(FRAME_SIZE);
            let frames = (0..n)
                .map(|seq| Frame::Strip {
                    page_id,
                    column: 0,
                    seq: seq as u16,
                    last: seq + 1 == n,
                    payload: vec![0; FRAME_PAYLOAD],
                })
                .collect();
            let resp = node.handle(
                Request::PushFrames {
                    page_id,
                    kind,
                    frames,
                },
                0.0,
            );
            (resp, node.scheduler.backlog_bytes())
        };
        let refused = Response::Refused {
            code: RefuseCode::Overloaded,
        };
        // Fill past the repair threshold with a full-page push.
        let (resp, backlog) = push(&mut node, 1, SlotKind::Full, SHED_REPAIR_BYTES + 1);
        assert!(matches!(resp, Response::Done { .. }));
        assert!(backlog > SHED_REPAIR_BYTES && backlog <= SHED_DELTA_BYTES);
        // Repairs now shed, while deltas and full pages still land...
        assert_eq!(push(&mut node, 2, SlotKind::Repair, FRAME_SIZE).0, refused);
        assert!(matches!(
            push(&mut node, 3, SlotKind::Delta, FRAME_SIZE).0,
            Response::Done { .. }
        ));
        let (resp, backlog) = push(
            &mut node,
            4,
            SlotKind::Full,
            SHED_DELTA_BYTES - SHED_REPAIR_BYTES,
        );
        assert!(matches!(resp, Response::Done { .. }));
        assert!(backlog > SHED_DELTA_BYTES);
        // ...then deltas shed too, and full pages still land.
        assert_eq!(push(&mut node, 5, SlotKind::Delta, FRAME_SIZE).0, refused);
        assert!(matches!(
            push(&mut node, 6, SlotKind::Full, FRAME_SIZE).0,
            Response::Done { .. }
        ));
        assert_eq!(node.stats.refused_overload, 2);
        // The page cap refuses every class, full pages included.
        let mut id = 7;
        while node.scheduler.backlog_pages() < MAX_BACKLOG_PAGES {
            let (resp, _) = push(&mut node, id, SlotKind::Full, FRAME_SIZE);
            assert!(matches!(resp, Response::Done { .. }));
            id += 1;
        }
        assert_eq!(push(&mut node, id, SlotKind::Full, FRAME_SIZE).0, refused);
        assert_eq!(node.stats.refused_overload, 3);
    }

    #[test]
    fn sms_get_flows_to_covering_site_as_inline_frames() {
        let dir = tempdir("cluster-sms");
        let st = store(&dir);
        let mut coord = coordinator_with(&st);
        let coverage = Coverage::pakistan_demo();
        let mut sites: BTreeMap<u32, SiteNode> = coverage
            .sites
            .iter()
            .map(|s| (s.id, site_for(s.id, &st)))
            .collect();
        let mut links = links_for(&coverage, 13);
        let url = coord
            .renderer()
            .corpus()
            .layout(PageId { site: 0, page: 0 }, 0)
            .url;
        let lahore = &coverage.sites[0];
        let msg = gateway::format_request(&url, &lahore.location);
        assert!(coord.accept_sms(&msg));
        run(&mut coord, &mut sites, &mut links, 0.0, 40);
        assert_eq!(coord.stats.sms_requests, 1);
        let covering = sites.get(&lahore.id).expect("covering site");
        assert!(covering.stats.frames_pushes >= 1, "{:?}", covering.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sms_get_of_an_unchanged_carousel_page_keeps_the_hour_0_id() {
        use crate::page::page_id_for;
        let dir = tempdir("cluster-one-id");
        let st = store(&dir);
        let mut coord = coordinator_with(&st);
        let coverage = Coverage::pakistan_demo();
        let mut sites: BTreeMap<u32, SiteNode> = coverage
            .sites
            .iter()
            .map(|s| (s.id, site_for(s.id, &st)))
            .collect();
        let mut links = links_for(&coverage, 17);
        let corpus = coord.renderer().corpus().clone();
        // A page hour 1 left alone, whatever its TTL.
        let id = (0..4)
            .map(|site| PageId { site, page: 0 })
            .find(|&id| !corpus.changed(id, 0, 1))
            .expect("hour 0→1 must leave some carousel page alone");
        let url = corpus.layout(id, 1).url;
        coord.push_carousel(0, 4, 0.0);
        run(&mut coord, &mut sites, &mut links, 0.0, 7200);
        coord.push_carousel(1, 4, 3600.0);
        let lahore = &coverage.sites[0];
        assert!(coord.accept_sms(&gateway::format_request(&url, &lahore.location)));
        // The loop of `run`, keeping what the covering site airs.
        let mut aired = Vec::new();
        for step in 0..7200 {
            let t = 3600.0 + step as f64 * 0.5;
            coord.pump(t, &mut links);
            for (site, node) in sites.iter_mut() {
                node.service(t, links.get_mut(site).expect("link per site"));
                let frames = node.advance(0.5);
                if *site == lahore.id {
                    aired.extend(frames);
                }
            }
        }
        assert_eq!(coord.stats.sms_requests, 1);
        assert_eq!(
            coord.stats.pushes_frames + coord.stats.pushes_coalesced,
            1,
            "{:?}",
            coord.stats
        );
        let (v0, v1) = (page_id_for(&url, 0), page_id_for(&url, 1));
        assert!(aired.iter().any(|f| f.page_id() == v0), "hour 1 re-airs the page");
        assert!(
            aired.iter().all(|f| f.page_id() != v1),
            "an unchanged page went on air under a second id"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `[Done, Pong, Refused]` counts and frames aired over one carousel
    /// day — 10 sites × 2 h × top 2, a `PushStored` per page plus a `Ping`
    /// per site per hour — with every request handed to `SiteNode::handle`
    /// (`transported == false`) or sent through an `RpcClient` over a clean
    /// `SimLink`.
    fn carousel_day_acks(dir: &std::path::Path, transported: bool) -> ([u64; 3], u64) {
        const SITES: u32 = 10;
        const TOP_N: usize = 2;
        let st = store(dir);
        let renderer = Renderer::new(Corpus::small(TOP_N), 0.1);
        let mut tiered = TieredCache::with_store(ArtifactCache::new(64 << 20), st.clone());
        let mut sites: BTreeMap<u32, SiteNode> = (0..SITES).map(|id| (id, site_for(id, &st))).collect();
        let mut clients: BTreeMap<u32, RpcClient> =
            (0..SITES).map(|id| (id, RpcClient::new())).collect();
        let mut links: BTreeMap<u32, SimLink> = (0..SITES)
            .map(|id| (id, SimLink::symmetric(LinkFaultPlan::clean(0xC1_05_7E_99 ^ u64::from(id)))))
            .collect();

        let (mut acks, mut frames_aired) = ([0u64; 3], 0u64);
        let mut count = |resp: &Response| match resp {
            Response::Done { .. } => acks[0] += 1,
            Response::Pong { .. } => acks[1] += 1,
            Response::Refused { .. } => acks[2] += 1,
        };
        for h in 0..2u64 {
            let hour_start = h as f64 * 3600.0;
            let jobs: Vec<PageJob> = (0..TOP_N)
                .map(|s| PageJob {
                    id: PageId { site: s, page: 0 },
                    hour: h,
                })
                .collect();
            pipeline::refresh_frames_only(&renderer, &mut tiered, &jobs);
            for id in 0..SITES {
                let reqs = jobs
                    .iter()
                    .map(|j| Request::PushStored {
                        corpus_site: j.id.site as u32,
                        corpus_page: j.id.page as u32,
                        hour: h,
                    })
                    .chain(std::iter::once(Request::Ping));
                for req in reqs {
                    if transported {
                        let class = if matches!(req, Request::Ping) {
                            JobClass::Control
                        } else {
                            JobClass::Page
                        };
                        assert!(clients.get_mut(&id).unwrap().submit(class, req), "clean-link submit shed");
                    } else {
                        count(&sites.get_mut(&id).unwrap().handle(req, hour_start));
                    }
                }
            }
            let mut now = hour_start;
            while clients.values().any(|c| c.has_pending(|_| true)) {
                for (id, client) in clients.iter_mut() {
                    let link = links.get_mut(id).unwrap();
                    for (_, resp) in client.tick(now, &mut link.a_to_b, &mut link.b_to_a) {
                        count(&resp);
                    }
                }
                for (id, site) in sites.iter_mut() {
                    site.service(now, links.get_mut(id).unwrap());
                }
                now += 0.05;
                assert!(now < hour_start + 500.0, "clean-link RPCs failed to converge");
            }
            for site in sites.values_mut() {
                frames_aired += site.advance(3600.0).len() as u64;
            }
        }
        (acks, frames_aired)
    }

    /// The wire changes nothing about what the fleet did: framing, CRC,
    /// deadlines, windows and response folding ack the same day the same way.
    #[test]
    fn direct_and_transported_days_ack_identically() {
        let (direct_dir, wire_dir) = (tempdir("cluster-parity-direct"), tempdir("cluster-parity-wire"));
        let direct = carousel_day_acks(&direct_dir, false);
        let wire = carousel_day_acks(&wire_dir, true);
        assert_eq!(direct, wire, "([done, pong, refused], frames_aired)");
        let ([done, pongs, refused], frames_aired) = direct;
        assert_eq!((done, pongs, refused), (40, 20, 0), "2 pages + 1 ping × 10 sites × 2 h");
        assert!(frames_aired > 0, "the day went on air");
        let _ = std::fs::remove_dir_all(&direct_dir);
        let _ = std::fs::remove_dir_all(&wire_dir);
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("sonic-{tag}-{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tempdir");
        dir
    }
}
