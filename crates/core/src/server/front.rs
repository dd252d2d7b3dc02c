//! What [`SonicServer`](super::SonicServer) and the cluster
//! [`Coordinator`](super::cluster::Coordinator) share: an uplink SMS in, the
//! page it asks for out, every page through the artifact ladder.
//!
//! The two servers differ in what they do with the outcome — one answers
//! with ACK/ERR text and enqueues on its own schedulers, the other counts
//! and submits RPCs — and in whether their page cache has the disk store
//! below it.

use crate::server::cache::{Artifact, ArtifactCache};
use crate::server::pipeline::{self, PageJob};
use crate::server::render::Renderer;
use crate::server::repair::RepairPlanner;
use sonic_pagegen::PageId;
use sonic_sms::gateway;
use sonic_sms::geo::{Coverage, TransmitterSite};
use sonic_sms::queries::{self, Nack, Query};
use std::collections::BTreeMap;

/// Byte budget of the answers cache: a few hundred search/chat answers at
/// experiment scales, a handful at full scale (an insert never evicts
/// itself).
pub(crate) const ANSWER_CACHE_BYTES: usize = 16 << 20;

/// One uplink SMS, parsed.
#[derive(Debug)]
pub(crate) enum Parsed {
    /// `NACK …`: a repair request.
    Nack(Nack),
    /// `ASK SEARCH|CHAT …`: a query.
    Ask(Query),
    /// `GET <url> …`: a page request.
    Get(gateway::Request),
}

/// Parses one uplink SMS; `None` if it is in none of the three grammars
/// (they are disjoint).
pub(crate) fn parse(msg: &str) -> Option<Parsed> {
    queries::parse_nack(msg)
        .map(Parsed::Nack)
        .or_else(|| queries::parse_query(msg).map(Parsed::Ask))
        .or_else(|| gateway::parse_request(msg).map(Parsed::Get))
}

/// What one parsed uplink SMS came to.
#[derive(Debug)]
pub(crate) enum Uplink {
    /// A repair NACK from a covered location; not yet validated against the
    /// repair registry.
    Nack {
        /// The transmitter covering the sender.
        site: TransmitterSite,
        /// The parsed request.
        nack: Nack,
    },
    /// A page to broadcast, already registered as repairable.
    Page {
        /// The transmitter covering the sender.
        site: TransmitterSite,
        /// The URL the sender will see in the ACK.
        url: String,
        /// The up-to-date artifact.
        artifact: Artifact,
    },
    /// No transmitter reaches the sender.
    NoCoverage,
    /// A `GET` for a URL outside the corpus (the real system would fetch
    /// the live web here).
    Unavailable,
}

/// Renderer, coverage map and page caches behind one server's uplink.
#[derive(Debug)]
pub(crate) struct Front {
    pub(crate) renderer: Renderer,
    pub(crate) coverage: Coverage,
    /// Corpus pages: RAM, over the disk store if the server attached one.
    pub(crate) artifacts: ArtifactCache,
    /// Search/chat answers: RAM only, byte-bounded.
    pub(crate) answers: ArtifactCache,
    /// The layout hash of each corpus page asked for in `hashed_hour`. A
    /// flood hour asks 10⁵ times for a handful of pages and hashing means
    /// generating the layout: without this a `cluster_day`-shaped soak runs
    /// 1.4× as long.
    layout_hashes: BTreeMap<PageId, u64>,
    hashed_hour: u64,
}

impl Front {
    pub(crate) fn new(renderer: Renderer, coverage: Coverage, artifacts: ArtifactCache) -> Self {
        Front {
            renderer,
            coverage,
            artifacts,
            answers: ArtifactCache::new(ANSWER_CACHE_BYTES),
            layout_hashes: BTreeMap::new(),
            hashed_hour: 0,
        }
    }

    /// The corpus page at `url` as a request at `hour` gets it; `None`
    /// outside the corpus.
    pub(crate) fn corpus_page(&mut self, url: &str, hour: u64) -> Option<Artifact> {
        let renderer = &self.renderer;
        let id = renderer.corpus().find_url(url)?;
        if self.hashed_hour != hour {
            self.layout_hashes.clear();
            self.hashed_hour = hour;
        }
        let layout_hash = *self
            .layout_hashes
            .entry(id)
            .or_insert_with(|| pipeline::layout_hash_scaled(renderer, id, hour));
        Some(
            pipeline::refresh_page(&mut self.artifacts, id, layout_hash, hour, || {
                renderer.render(id, hour)
            })
            .artifact,
        )
    }

    /// Finds the transmitter covering a parsed SMS's sender and produces
    /// the page it asks for.
    pub(crate) fn serve(&mut self, sms: Parsed, hour: u64, repair: &mut RepairPlanner) -> Uplink {
        let location = match &sms {
            Parsed::Nack(nack) => nack.location,
            Parsed::Ask(q) => q.location,
            Parsed::Get(req) => req.location,
        };
        let Some(site) = self.coverage.best_for(&location).cloned() else {
            return Uplink::NoCoverage;
        };
        let (url, artifact) = match sms {
            Parsed::Nack(nack) => return Uplink::Nack { site, nack },
            Parsed::Ask(q) => {
                let answer = pipeline::refresh_answer(&self.renderer, &mut self.answers, &q, hour);
                (q.result_url(), answer)
            }
            Parsed::Get(req) => match self.corpus_page(&req.url, hour) {
                Some(artifact) => (req.url, artifact),
                None => return Uplink::Unavailable,
            },
        };
        repair.register_page(artifact.page.clone());
        Uplink::Page {
            site,
            url,
            artifact,
        }
    }

    /// The hour's `top_n` most popular landing pages ("popular news sites
    /// can be pushed early in the morning"), refreshed and registered as
    /// repairable, in rank order.
    pub(crate) fn popular(
        &mut self,
        hour: u64,
        top_n: usize,
        repair: &mut RepairPlanner,
    ) -> Vec<(PageId, Artifact)> {
        let n = top_n.min(self.renderer.corpus().sites.len());
        let jobs: Vec<PageJob> = (0..n)
            .map(|site| PageJob {
                id: PageId { site, page: 0 },
                hour,
            })
            .collect();
        let artifacts = pipeline::refresh_frames_only(&self.renderer, &mut self.artifacts, &jobs);
        jobs.iter()
            .zip(artifacts)
            .map(|(job, a)| {
                repair.register_page(a.page.clone());
                (job.id, a)
            })
            .collect()
    }
}
