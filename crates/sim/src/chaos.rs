//! Seeded end-to-end chaos soak: a full broadcast day driven through a
//! hostile [`FaultPlan`] and a misbehaving SMS network.
//!
//! The soak wires every robustness mechanism into one closed loop:
//!
//! * the server pushes its hourly carousel and answers `GET`/`NACK` SMS,
//! * every broadcast frame is given a fate by the fault plan at frame
//!   granularity ([`FaultPlan::frame_fate`] — delivered, corrupted into the
//!   per-page loss map, or lost in a mute window),
//! * the client reassembles under a byte/page budget, NACKs the missing
//!   ranges of pages that hit their deadline, and force-finalizes degraded
//!   pages (interpolation repair) when the grace period after its last NACK
//!   expires,
//! * the server's `RepairPlanner` coalesces the NACKs and schedules
//!   targeted repair bursts under the per-page retry budget with
//!   exponential backoff.
//!
//! Everything is a pure function of [`ChaosSoakConfig`] (a day length and
//! a seed) and the constants beside it — one transmitter at 10 kbps, the
//! 4-site corpus at scale 0.1, a phone-sized reassembler, two NACKs per
//! page with a 300 s grace each: frame fates hash from `(plan seed, frame
//! nonce)`, the SMS networks run seeded RNGs, and every map iteration is
//! sorted — the same config replays to an identical [`ChaosSoakReport`].

use sonic_core::client::SonicClient;
use sonic_core::reassembly::ReassemblerConfig;
use sonic_core::server::render::Renderer;
use sonic_core::server::SonicServer;
use sonic_pagegen::Corpus;
use sonic_radio::faults::{Fault, FaultPlan, FrameFate};
use sonic_sms::geo::{Coverage, GeoPoint};
use sonic_sms::network::{SmsChaos, SmsNetwork};
use std::collections::{BTreeMap, BTreeSet};

/// Transmitter rate in bits/s.
pub const RATE_BPS: f64 = 10_000.0;
/// Synthetic corpus size (sites; page 0 of each is the content pool).
const CORPUS_SITES: usize = 4;
/// Render scale (0.1 = smoke-sized pages).
const RENDER_SCALE: f64 = 0.1;
/// Client-side reassembler budget under test: a quarter of the default
/// bytes, half its pages, two thirds of its deadline.
pub const REASSEMBLER: ReassemblerConfig = ReassemblerConfig {
    max_bytes: 1 << 20,
    max_pages: 8,
    page_deadline_s: 600.0,
};
/// NACKs the client may spend per page before force-finalizing.
const MAX_NACKS_PER_PAGE: u32 = 2;
/// Seconds the client waits for repair after a NACK before giving up and
/// finalizing degraded.
const NACK_GRACE_S: f64 = 300.0;

/// Parameters of one soak run (with the constants above, fully
/// determines the report).
#[derive(Debug, Clone)]
pub struct ChaosSoakConfig {
    /// Broadcast day length in hours (24 = the paper's day; 2 = smoke).
    pub hours: u32,
    /// Master seed: fault plan, SMS networks and frame fates derive from it.
    pub seed: u64,
}

impl Default for ChaosSoakConfig {
    fn default() -> Self {
        ChaosSoakConfig {
            hours: 2,
            seed: 0x50A4_C0DE,
        }
    }
}

/// What happened over the soak. All counters are exact and replayable:
/// identical config ⇒ identical report (`PartialEq` is the determinism
/// check).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSoakReport {
    /// Frames offered to the air.
    pub frames_sent: usize,
    /// Frames that decoded at the client.
    pub frames_delivered: usize,
    /// Frames corrupted (fed the per-page loss map).
    pub frames_corrupted: usize,
    /// Frames lost outright (mute windows).
    pub frames_lost: usize,
    /// `GET` requests the client sent.
    pub requests_sent: usize,
    /// Repair NACKs the client sent.
    pub nacks_sent: usize,
    /// ACK replies that reached the client.
    pub acks_received: usize,
    /// ERR replies that reached the client.
    pub errs_received: usize,
    /// Pages finalized with zero pixel loss.
    pub pages_clean: usize,
    /// Pages finalized degraded (interpolation covered real losses).
    pub pages_degraded: usize,
    /// Finalizations that failed outright (metadata never arrived).
    pub pages_failed: usize,
    /// Assemblies still pending after the final drain — must be 0 ("never
    /// hung").
    pub pages_hung: usize,
    /// Repair bursts the server scheduled.
    pub repair_bursts: usize,
    /// Frames across those bursts.
    pub repair_frames: usize,
    /// Highest repair-attempt count spent on any page.
    pub max_repair_attempts: u32,
    /// Peak bytes buffered in the client reassembler.
    pub peak_reassembler_bytes: usize,
    /// Assemblies the budget evicted.
    pub evicted_pages: usize,
    /// Distinct URLs the client wanted.
    pub urls_requested: usize,
    /// Wanted URLs that finalized (possibly degraded) at least once.
    pub urls_received: usize,
}

/// A day-scale hostile plan: background impulses, a co-channel interferer
/// and receiver clock drift all day, plus a tuner dropout and a deep fade
/// every hour. Scales with `hours` so short smoke runs see the same
/// per-hour weather as a full day.
pub fn hostile_day(seed: u64, hours: u32) -> FaultPlan {
    let mut faults = vec![
        Fault::Impulse {
            rate_per_s: 0.5,
            amp: 3.0,
            len_s: 0.02,
        },
        Fault::CoChannel { level: 0.1 },
        Fault::ClockDrift { ppm: 20.0 },
    ];
    for h in 0..u64::from(hours) {
        // Both windows sit inside the first minutes of the hour, where the
        // carousel push keeps the transmitter busy.
        let base = h as f64 * 3600.0;
        faults.push(Fault::Mute {
            start_s: base + 60.0,
            len_s: 120.0,
        });
        faults.push(Fault::Fade {
            start_s: base + 300.0,
            len_s: 300.0,
            depth_db: 30.0,
        });
    }
    FaultPlan { seed, faults }
}

/// An SMS arrival queued for one endpoint.
type InFlight = Vec<(f64, String)>;

/// Pops (sorted by arrival time, then text for ties) every message due by
/// `now` — deterministic regardless of send interleaving.
fn drain_due(queue: &mut InFlight, now: f64) -> Vec<String> {
    let mut due: Vec<(f64, String)> = Vec::new();
    queue.retain(|(at, text)| {
        if *at <= now {
            due.push((*at, text.clone()));
            false
        } else {
            true
        }
    });
    due.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    due.into_iter().map(|(_, t)| t).collect()
}

/// Runs the soak. See the module docs for the loop structure.
pub fn run_chaos_soak(cfg: &ChaosSoakConfig) -> ChaosSoakReport {
    let mut report = ChaosSoakReport::default();
    let plan = hostile_day(cfg.seed, cfg.hours);
    let total_s = u64::from(cfg.hours) * 3600;
    // Drain window: no new content, but in-flight repairs/graces settle.
    let end_s = total_s + NACK_GRACE_S as u64 + 600;

    let coverage = Coverage::pakistan_demo();
    let user_loc = GeoPoint::new(31.52, 74.35); // Lahore
    let site_id = coverage.best_for(&user_loc).expect("Lahore is covered").id;
    let renderer = Renderer::new(Corpus::small(CORPUS_SITES), RENDER_SCALE);
    let mut srv = SonicServer::new(renderer, coverage, RATE_BPS);
    let mut client = SonicClient::new(720, Some(user_loc));
    client.set_reassembler_config(REASSEMBLER);

    // The client wants every site's landing page: sites 0..2 ride the
    // hourly carousel, the rest only exist if requested over SMS.
    let n_sites = CORPUS_SITES.min(srv.renderer().corpus().sites.len());
    let carousel_n = 2.min(n_sites);
    let wanted: Vec<String> = (0..n_sites)
        .map(|s| {
            srv.renderer()
                .corpus()
                .layout(sonic_pagegen::PageId { site: s, page: 0 }, 0)
                .url
        })
        .collect();
    report.urls_requested = wanted.len();
    let get_only: Vec<String> = wanted.iter().skip(carousel_n).cloned().collect();

    // Both SMS directions share one hostile chaos profile, including a
    // multi-hour gateway outage in the middle of the day (scaled for smoke
    // runs).
    let outage_start = total_s as f64 * 0.45;
    let outage = (outage_start, outage_start + total_s as f64 * 0.2);
    let chaos = SmsChaos {
        outages: vec![outage],
        ..SmsChaos::hostile()
    };
    let mut net_up = SmsNetwork::typical(cfg.seed ^ 0x5E9D).with_chaos(chaos.clone());
    let mut net_down = SmsNetwork::typical(cfg.seed ^ 0xD0_3A).with_chaos(chaos);
    let mut to_server: InFlight = Vec::new();
    let mut to_client: InFlight = Vec::new();

    let airtime_s = sonic_core::frame::FRAME_SIZE as f64 * 8.0 / RATE_BPS;
    let mut nonce = 0u64;
    // Client-side repair bookkeeping: page → NACKs spent, and the time at
    // which an expired page stops waiting for repair.
    let mut nacks_for: BTreeMap<u32, u32> = BTreeMap::new();
    let mut force_at: BTreeMap<u32, f64> = BTreeMap::new();
    let mut received_urls: BTreeSet<String> = BTreeSet::new();

    fn finalize(
        client: &mut SonicClient,
        report: &mut ChaosSoakReport,
        received_urls: &mut BTreeSet<String>,
        nacks_for: &mut BTreeMap<u32, u32>,
        force_at: &mut BTreeMap<u32, f64>,
        id: u32,
        hour: u64,
    ) {
        match client.finalize_page(id, hour) {
            Ok(rep) => {
                if rep.pixel_loss > 0.0 {
                    report.pages_degraded += 1;
                } else {
                    report.pages_clean += 1;
                }
                received_urls.insert(rep.url);
            }
            Err(_) => report.pages_failed += 1,
        }
        nacks_for.remove(&id);
        force_at.remove(&id);
    }

    for t in 0..end_s {
        let tf = t as f64;
        let hour = t / 3600;
        let live = t < total_s;

        // Hourly carousel push (sites 0..carousel_n).
        if live && t % 3600 == 0 {
            srv.push_popular(hour, carousel_n, tf);
        }
        // Initial + periodic GET for pages not on the carousel: re-request
        // every 30 min until a finalization succeeded (lost requests, lost
        // ACKs and dead receptions all converge through this).
        if live && (t == 5 || t % 1800 == 900) {
            for url in &get_only {
                if received_urls.contains(url) {
                    continue;
                }
                if let Some(msg) = client.compose_request(url) {
                    if let Ok(arrivals) = net_up.send_detailed(&msg, tf) {
                        report.requests_sent += 1;
                        to_server.extend(arrivals.into_iter().map(|a| (a.at, a.text)));
                    }
                }
            }
        }

        // SMS uplink arrivals → server; replies ride the downlink.
        for msg in drain_due(&mut to_server, tf) {
            let reply = srv.handle_sms(&msg, tf);
            if let Ok(arrivals) = net_down.send_detailed(&reply, tf) {
                to_client.extend(arrivals.into_iter().map(|a| (a.at, a.text)));
            }
        }
        // Downlink arrivals → client (ACK/ERR accounting).
        for msg in drain_due(&mut to_client, tf) {
            if msg.starts_with("ACK") {
                report.acks_received += 1;
            } else {
                report.errs_received += 1;
            }
        }

        // Server side: schedule any repair bursts whose window elapsed.
        srv.pump_repairs(tf);

        // One second of airtime from the user's transmitter, frame by frame
        // through the fault plan.
        let frames = srv
            .schedulers
            .get_mut(&site_id)
            .expect("site scheduler")
            .advance(1.0);
        for (i, frame) in frames.into_iter().enumerate() {
            let t_frame = tf + i as f64 * airtime_s;
            nonce += 1;
            report.frames_sent += 1;
            match plan.frame_fate(t_frame, airtime_s, nonce) {
                FrameFate::Delivered => {
                    report.frames_delivered += 1;
                    client.receive_frame_at(frame, t_frame);
                }
                FrameFate::Corrupted => {
                    report.frames_corrupted += 1;
                    client.note_bad_frame(frame.page_id(), t_frame);
                }
                FrameFate::Lost => report.frames_lost += 1,
            }
        }
        report.peak_reassembler_bytes = report
            .peak_reassembler_bytes
            .max(client.reassembler().buffered_bytes());

        // Completion pass: finalize pages with nothing missing.
        let mut pending = client.pending_pages();
        pending.sort_unstable();
        for id in pending {
            let done = client
                .reassembler()
                .assembly(id)
                .is_some_and(|a| a.missing_ranges().is_complete());
            if done {
                finalize(
                    &mut client,
                    &mut report,
                    &mut received_urls,
                    &mut nacks_for,
                    &mut force_at,
                    id,
                    hour,
                );
            }
        }

        // Deadline pass: NACK the loss map (bounded per page), then
        // force-finalize degraded when the grace period runs out.
        for id in client.expired_pages(tf) {
            if force_at.get(&id).is_some_and(|&fa| tf < fa) {
                continue; // still waiting on a repair burst
            }
            let spent = *nacks_for.get(&id).unwrap_or(&0);
            let nack = if spent < MAX_NACKS_PER_PAGE {
                client.compose_nack(id)
            } else {
                None
            };
            match nack {
                Some(msg) if live => {
                    if let Ok(arrivals) = net_up.send_detailed(&msg, tf) {
                        report.nacks_sent += 1;
                        to_server.extend(arrivals.into_iter().map(|a| (a.at, a.text)));
                    }
                    nacks_for.insert(id, spent + 1);
                    force_at.insert(id, tf + NACK_GRACE_S);
                }
                _ => {
                    finalize(
                        &mut client,
                        &mut report,
                        &mut received_urls,
                        &mut nacks_for,
                        &mut force_at,
                        id,
                        hour,
                    );
                }
            }
        }
    }

    // Final drain: whatever is still pending is the tail of the last
    // carousel — finalize it degraded rather than leave it hanging.
    let mut pending = client.pending_pages();
    pending.sort_unstable();
    for id in pending {
        finalize(
            &mut client,
            &mut report,
            &mut received_urls,
            &mut nacks_for,
            &mut force_at,
            id,
            end_s / 3600,
        );
    }
    report.pages_hung = client.reassembler().len();
    report.evicted_pages = client.reassembler().evicted_pages;
    report.repair_bursts = srv.repair.stats.bursts_scheduled;
    report.repair_frames = srv.repair.stats.frames_scheduled;
    report.max_repair_attempts = srv.repair.max_attempts_used();
    report.urls_received = wanted.iter().filter(|u| received_urls.contains(*u)).count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_hour_soak_converges_and_replays() {
        let cfg = ChaosSoakConfig {
            hours: 1,
            ..ChaosSoakConfig::default()
        };
        let report = run_chaos_soak(&cfg);
        assert_eq!(report.pages_hung, 0, "{report:?}");
        assert!(report.frames_sent > 0, "{report:?}");
        assert!(report.frames_lost > 0, "mute windows must bite: {report:?}");
        assert!(
            report.peak_reassembler_bytes <= REASSEMBLER.max_bytes,
            "{report:?}"
        );
        assert_eq!(report, run_chaos_soak(&cfg), "same seed ⇒ same outcome");
    }
}
