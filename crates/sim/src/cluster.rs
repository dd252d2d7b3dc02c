//! Distributed chaos soak: the sharded control plane under seeded fire.
//!
//! Where [`crate::chaos`] stresses one server's radio path, this soak
//! stresses the **cluster**: a coordinator feeding N transmitter sites
//! ([`sonic_core::server::cluster`]) over fault-injected links
//! ([`sonic_core::net`]), through a simulated broadcast day of
//!
//! * seeded **kill/restart** cycles — a victim site vanishes mid-hour
//!   (its socket buffers torn), is detected Down by RPC deadline
//!   expiries, restarts from the shared disk tier, and must resume its
//!   carousel at the slot it had reached;
//! * **link faults** on every coordinator↔site pair — drops, corruption,
//!   reorder, jitter and (for an unlucky subset) severed windows;
//! * a **gateway flood** hour — a burst of GET/NACK SMS far beyond the
//!   ingress bound, which must shed (NACKs first) instead of growing;
//! * background page requests and repair NACKs all day.
//!
//! A listener stage folds every site's aired frames through
//! [`pool::run_ordered`] in 60-second epochs, so the heavy accounting
//! fans out across workers while the fold order — and therefore the
//! report — is identical at any worker count. Everything else is a pure
//! function of `(config, seed)` and the constants beside the config — the
//! 6-site corpus at scale 0.1, a top-4 carousel, 10-minute outages, 3
//! background `GET`s a minute and a 30-minute drain: the same config
//! replays to an identical [`ClusterSoakReport`]. The coordinator and
//! sites run the control plane's own constants
//! ([`sonic_core::server::cluster`], [`sonic_core::net::rpc`]).

use crate::pool;
use sonic_core::frame::Frame;
use sonic_core::net::transport::{LinkFaultPlan, SimLink};
use sonic_core::page::page_id_for;
use sonic_core::server::cache::share_store;
use sonic_core::server::cluster::{Coordinator, SiteNode, SiteStats};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_pagegen::{Corpus, PageId};
use sonic_radio::faults::{mix, mix3};
use sonic_sms::gateway;
use sonic_sms::geo::{Coverage, GeoPoint, TransmitterSite};
use sonic_sms::queries::{format_nack, Nack};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Synthetic corpus size (page 0 of each site is the content pool).
const CORPUS_SITES: usize = 6;
/// Render scale (0.1 = smoke-sized pages).
const RENDER_SCALE: f64 = 0.1;
/// Landing pages pushed to every site each hour.
const CAROUSEL_TOP_N: usize = 4;
/// Seconds a killed site stays dead before restarting.
const DOWN_TIME_S: f64 = 600.0;
/// Background page requests per simulated minute.
const GETS_PER_MINUTE: usize = 3;
/// Seconds of quiet drain after the last hour (backlogs must empty).
const DRAIN_S: f64 = 1800.0;

/// Parameters of one cluster soak (with the constants above, fully
/// determines the report).
#[derive(Debug, Clone)]
pub struct ClusterSoakConfig {
    /// Broadcast day length in hours (24 = full day; 2 = smoke).
    pub hours: u32,
    /// Master seed: link faults, kill schedule and traffic derive from it.
    pub seed: u64,
    /// Transmitter sites in the fleet (the acceptance run uses 50).
    pub sites: usize,
    /// Per-site broadcast payload rate.
    pub rate_bps: f64,
    /// Simulation step in seconds (must divide 3600).
    pub tick_s: f64,
    /// Sites killed per hour.
    pub kills_per_hour: usize,
    /// Hour during which the SMS gateway is flooded.
    pub flood_hour: u32,
    /// Flood messages offered per tick during the flood hour.
    pub flood_per_tick: usize,
    /// Worker threads for the listener digest stage (report-invariant).
    pub workers: usize,
    /// Artifact-store directory; `None` derives one under the system temp
    /// dir and removes it afterwards.
    pub store_dir: Option<PathBuf>,
}

impl Default for ClusterSoakConfig {
    fn default() -> Self {
        ClusterSoakConfig {
            hours: 2,
            seed: 0xC1_05_7E_12,
            sites: 50,
            rate_bps: 8_000.0,
            tick_s: 1.0,
            kills_per_hour: 2,
            flood_hour: 1,
            flood_per_tick: 96,
            workers: pool::default_workers(),
            store_dir: None,
        }
    }
}

/// What happened over the soak. Integers only, so `Eq` is the replay
/// identity check: same config ⇒ byte-identical report, at any worker
/// count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSoakReport {
    /// Simulation ticks executed.
    pub ticks: u64,
    /// Link frames aired across the fleet.
    pub frames_aired: u64,
    /// Queue entries fully aired (summed over sites, kills included).
    pub pages_completed: u64,
    /// Distinct (site, page id) pairs heard by the listener stage.
    pub distinct_pages_heard: u64,
    /// Frames folded by the listener stage (= `frames_aired`).
    pub frames_heard: u64,
    /// Site kill events executed.
    pub kills: u32,
    /// Site restarts executed.
    pub restarts: u32,
    /// `Resume` instructions the coordinator sent on recovery edges.
    pub resumes: u64,
    /// Carousel jobs reloaded from the disk tier after restarts.
    pub resumed_jobs: u64,
    /// Repair bursts rerouted around a down site.
    pub failovers: u64,
    /// `StoreMiss` answers converted to inline frame pushes.
    pub inline_fallbacks: u64,
    /// Site-side overload refusals (load shed).
    pub refused_overloaded: u64,
    /// RPC attempts retried after deadline expiry.
    pub rpc_retries: u64,
    /// RPC attempt expiries.
    pub rpc_expired: u64,
    /// RPCs abandoned after their attempt budget.
    pub rpc_gave_up: u64,
    /// Up→Down health transitions observed.
    pub downs: u64,
    /// Down→Up health transitions observed.
    pub recoveries: u64,
    /// SMS accepted into the bounded ingress queue.
    pub sms_accepted: u64,
    /// SMS shed at the ingress bound.
    pub sms_shed: u64,
    /// Deepest the ingress queue ever got (≤ its capacity).
    pub peak_ingress_depth: u64,
    /// Deepest any RPC client send queue ever got (≤ its bound).
    pub peak_rpc_queued: u64,
    /// Most pages any site scheduler ever queued (≤ its hard cap).
    pub peak_site_backlog_pages: u64,
    /// Pages still queued after the drain window — the hung-page count;
    /// the acceptance test requires zero.
    pub hung_pages: u64,
}

/// A fleet of `n` sites on a grid wide enough that each covers only its
/// own neighborhood (so SMS routes to exactly one site).
fn synthetic_coverage(n: usize) -> Coverage {
    let sites = (0..n)
        .map(|i| TransmitterSite {
            id: i as u32,
            location: GeoPoint::new(
                24.0 + (i / 8) as f64 * 0.9,
                66.0 + (i % 8) as f64 * 0.9,
            ),
            radius_km: 45.0,
            freq_mhz: 88.0 + 0.2 * (i as f64),
        })
        .collect();
    Coverage { sites }
}

/// The fault plan for one coordinator↔site link: mild ambient damage for
/// everyone, plus a severed window for an unlucky quarter of the fleet.
fn link_plan(seed: u64, site: u32, hours: u32) -> LinkFaultPlan {
    let h = mix3(seed, u64::from(site), 0x11_4B);
    let mut down = Vec::new();
    if h.is_multiple_of(4) {
        // One ~2-minute partition at a seed-derived moment of the day.
        let at = 300.0 + (mix(h) % (hours as u64 * 3000).max(1)) as f64;
        down.push((at, at + 120.0));
    }
    LinkFaultPlan {
        seed: mix(h ^ 0xF0),
        mtu: 512,
        base_latency_s: 0.03,
        jitter_s: 0.05,
        drop_prob: 0.005,
        corrupt_prob: 0.002,
        reorder_prob: 0.02,
        down,
        spikes: vec![],
    }
}

/// Accumulates a departing (killed or final) site's counters.
fn harvest(report: &mut ClusterSoakReport, stats: &SiteStats, completed: u64) {
    report.pages_completed += completed;
    report.resumed_jobs += stats.resumed_jobs;
}

/// One listener epoch job: a site's frames aired in the last epoch.
struct EpochJob {
    site_id: u32,
    frames: Vec<Frame>,
}

/// Pure digest of one epoch job (runs on the worker pool): per-page frame
/// counts, sorted.
fn digest(job: EpochJob) -> (u32, Vec<(u32, u32)>) {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for f in &job.frames {
        *counts.entry(f.page_id()).or_insert(0) += 1;
    }
    (job.site_id, counts.into_iter().collect())
}

/// Runs the distributed chaos soak. See the module docs for the scenario;
/// the report is a pure function of the config.
pub fn run_cluster_soak(cfg: &ClusterSoakConfig) -> ClusterSoakReport {
    let dir = cfg.store_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "sonic-cluster-soak-{}-{:x}",
            std::process::id(),
            cfg.seed
        ))
    });
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let report = run_in(cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn run_in(cfg: &ClusterSoakConfig, dir: &std::path::Path) -> ClusterSoakReport {
    let store = share_store(ArtifactStore::open(dir, 256 << 20).expect("open store"));
    let coverage = synthetic_coverage(cfg.sites);
    let renderer = Renderer::new(Corpus::small(CORPUS_SITES), RENDER_SCALE);
    let mut coord = Coordinator::new(renderer, coverage.clone(), store.clone());

    let mut sites: BTreeMap<u32, SiteNode> = coverage
        .sites
        .iter()
        .map(|s| (s.id, SiteNode::new(s.id, cfg.rate_bps, Some(store.clone()))))
        .collect();
    let mut links: BTreeMap<u32, SimLink> = coverage
        .sites
        .iter()
        .map(|s| (s.id, SimLink::symmetric(link_plan(cfg.seed, s.id, cfg.hours))))
        .collect();

    // Seed-derived kill schedule: (t_kill, site), restarts DOWN_TIME_S later.
    let mut kill_schedule: Vec<(f64, u32)> = Vec::new();
    for h in 0..u64::from(cfg.hours) {
        for i in 0..cfg.kills_per_hour as u64 {
            let site = (mix3(cfg.seed ^ 0x4B11, h, i) % cfg.sites as u64) as u32;
            let at = h as f64 * 3600.0 + 120.0 + (mix3(cfg.seed, h, i ^ 0x77) % 3000) as f64;
            kill_schedule.push((at, site));
        }
    }
    kill_schedule.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut next_kill = 0usize;
    let mut pending_restarts: BTreeMap<u32, f64> = BTreeMap::new();

    let mut report = ClusterSoakReport::default();
    let mut heard: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut epoch_buf: BTreeMap<u32, Vec<Frame>> = BTreeMap::new();

    let ticks_per_hour = (3600.0 / cfg.tick_s).round() as u64;
    let ticks_per_minute = (60.0 / cfg.tick_s).round() as u64;
    let day_ticks = ticks_per_hour * u64::from(cfg.hours);
    let drain_ticks = (DRAIN_S / cfg.tick_s).round() as u64;
    let total_ticks = day_ticks + drain_ticks;

    let corpus_urls: Vec<Vec<String>> = (0..u64::from(cfg.hours))
        .map(|h| {
            (0..CORPUS_SITES)
                .map(|s| {
                    coord
                        .renderer()
                        .corpus()
                        .layout(PageId { site: s, page: 0 }, h)
                        .url
                })
                .collect()
        })
        .collect();

    let flush_epoch =
        |buf: &mut BTreeMap<u32, Vec<Frame>>, heard: &mut BTreeMap<(u32, u32), u64>, rep: &mut ClusterSoakReport| {
            let jobs: Vec<EpochJob> = std::mem::take(buf)
                .into_iter()
                .map(|(site_id, frames)| EpochJob { site_id, frames })
                .collect();
            if jobs.is_empty() {
                return;
            }
            for (site_id, counts) in pool::run_ordered(jobs, cfg.workers, digest) {
                for (page, n) in counts {
                    *heard.entry((site_id, page)).or_insert(0) += u64::from(n);
                    rep.frames_heard += u64::from(n);
                }
            }
        };

    for tick in 0..total_ticks {
        let t = tick as f64 * cfg.tick_s;
        let in_day = tick < day_ticks;
        let hour = (tick / ticks_per_hour).min(u64::from(cfg.hours).saturating_sub(1));

        // Hourly carousel push (day only).
        if in_day && tick % ticks_per_hour == 0 {
            coord.push_carousel(hour, CAROUSEL_TOP_N, t);
        }

        // Kills due this tick.
        while in_day && next_kill < kill_schedule.len() && kill_schedule[next_kill].0 <= t {
            let (_, victim) = kill_schedule[next_kill];
            next_kill += 1;
            if let Some(node) = sites.remove(&victim) {
                harvest(&mut report, &node.stats, node.scheduler.completed_pages);
                if let Some(l) = links.get_mut(&victim) {
                    l.a_to_b.flush_inflight();
                    l.b_to_a.flush_inflight();
                }
                report.kills += 1;
                pending_restarts.insert(victim, t + DOWN_TIME_S);
            }
        }
        // Restarts due (kills restart even into the drain window).
        let due: Vec<u32> = pending_restarts
            .iter()
            .filter(|&(_, &at)| at <= t || !in_day)
            .map(|(&s, _)| s)
            .collect();
        for site in due {
            pending_restarts.remove(&site);
            sites.insert(site, SiteNode::new(site, cfg.rate_bps, Some(store.clone())));
            report.restarts += 1;
        }

        // Background page requests, one batch per simulated minute.
        if in_day && tick % ticks_per_minute == 0 {
            for g in 0..GETS_PER_MINUTE as u64 {
                let h = mix3(cfg.seed ^ 0x6E7, tick, g);
                let url = &corpus_urls[hour as usize][(h % CORPUS_SITES as u64) as usize];
                let at = &coverage.sites[(mix(h) % cfg.sites as u64) as usize].location;
                coord.accept_sms(&gateway::format_request(url, at));
            }
        }
        // Gateway flood hour: GET/NACK mix far beyond the ingress bound.
        if in_day && hour == u64::from(cfg.flood_hour) {
            let version = (hour % u64::from(u16::MAX)) as u16;
            for f in 0..cfg.flood_per_tick as u64 {
                let h = mix3(cfg.seed ^ 0xF_100D, tick, f);
                let at = &coverage.sites[(mix(h) % cfg.sites as u64) as usize].location;
                let msg = if h.is_multiple_of(3) {
                    let url = &corpus_urls[hour as usize][(h % CORPUS_SITES as u64) as usize];
                    format_nack(&Nack {
                        page_id: page_id_for(url, version),
                        meta: false,
                        columns: vec![(0, 0)],
                        location: *at,
                    })
                } else {
                    let url =
                        &corpus_urls[hour as usize][(mix(h ^ 1) % CORPUS_SITES as u64) as usize];
                    gateway::format_request(url, at)
                };
                coord.accept_sms(&msg);
            }
        }

        coord.pump(t, &mut links);

        for (id, node) in sites.iter_mut() {
            if let Some(link) = links.get_mut(id) {
                node.service(t, link);
            }
            let aired = node.advance(cfg.tick_s);
            if !aired.is_empty() {
                report.frames_aired += aired.len() as u64;
                epoch_buf.entry(*id).or_default().extend(aired);
            }
            report.peak_site_backlog_pages = report
                .peak_site_backlog_pages
                .max(node.scheduler.backlog_pages() as u64);
        }

        if (tick + 1) % ticks_per_minute == 0 {
            flush_epoch(&mut epoch_buf, &mut heard, &mut report);
        }
        report.ticks += 1;
    }
    flush_epoch(&mut epoch_buf, &mut heard, &mut report);

    // Final accounting.
    report.distinct_pages_heard = heard.len() as u64;
    for node in sites.values() {
        harvest(&mut report, &node.stats, node.scheduler.completed_pages);
        report.hung_pages += node.scheduler.backlog_pages() as u64;
    }
    report.resumes = coord.stats.resumes;
    report.failovers = coord.stats.failovers;
    report.inline_fallbacks = coord.stats.inline_fallbacks;
    report.refused_overloaded = coord.stats.refused_overloaded
        + sites.values().map(|n| n.stats.refused_overload).sum::<u64>();
    for client in coord.clients().values() {
        report.rpc_retries += client.stats.retries;
        report.rpc_expired += client.stats.expired;
        report.rpc_gave_up += client.stats.gave_up;
        report.downs += client.stats.downs;
        report.recoveries += client.stats.recoveries;
        report.peak_rpc_queued = report.peak_rpc_queued.max(client.stats.peak_queued as u64);
    }
    report.sms_accepted = coord.ingress.stats.accepted;
    report.sms_shed = coord.ingress.stats.shed_nacks + coord.ingress.stats.shed_requests;
    report.peak_ingress_depth = coord.ingress.stats.peak_depth as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> ClusterSoakConfig {
        ClusterSoakConfig {
            hours: 1,
            sites: 10,
            kills_per_hour: 1,
            flood_hour: 0,
            ..ClusterSoakConfig::default()
        }
    }

    #[test]
    fn smoke_soak_airs_pages_and_survives_a_kill() {
        let report = run_cluster_soak(&smoke_cfg());
        assert!(report.frames_aired > 0, "{report:?}");
        assert_eq!(report.frames_heard, report.frames_aired, "{report:?}");
        assert!(report.kills >= 1, "{report:?}");
        assert_eq!(report.restarts, report.kills, "{report:?}");
        assert_eq!(report.hung_pages, 0, "{report:?}");
        assert!(report.sms_shed > 0, "flood must exceed the ingress bound");
        assert!(
            report.peak_ingress_depth <= sonic_core::server::cluster::INGRESS_CAPACITY as u64,
            "{report:?}"
        );
    }

    #[test]
    fn same_seed_same_report_at_any_worker_count() {
        let mut one = smoke_cfg();
        one.workers = 1;
        let mut four = smoke_cfg();
        four.workers = 4;
        // Distinct store dirs so the two runs cannot share disk state.
        one.store_dir = Some(std::env::temp_dir().join(format!(
            "sonic-clw1-{}",
            std::process::id()
        )));
        four.store_dir = Some(std::env::temp_dir().join(format!(
            "sonic-clw4-{}",
            std::process::id()
        )));
        assert_eq!(run_cluster_soak(&one), run_cluster_soak(&four));
    }
}
