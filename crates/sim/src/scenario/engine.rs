//! The streaming scenario engine: 72 hours × 100 k listeners in bounded RAM.
//!
//! # Two-tier fidelity
//!
//! The engine never holds per-frame state. Each simulated hour it builds
//! the carousel schedule (Zipf-ranked pages cycling at the link rate) and a
//! per-site weather [`FaultPlan`]; each *epoch* (default 5 min) it patches
//! the mobile listeners' RSSI bands and drift classes; each carousel slot
//! it memoizes one [`sonic_radio::faults::BurstLossCurve`] per site — the
//! per-burst loss curve over (RSSI band × drift class) cells — and
//! batch-evaluates every active listener in one pass over the SoA arrays.
//! One hash per listener-slot
//! (zero for deterministic cells) replaces the full DSP chain: that is the
//! **fast path**, and it is what makes 50 k+ listener-hours per second
//! possible on one core.
//!
//! A small cohort per hour (sampled uniformly + from the RSSI boundary
//! bands where the loss cliff lives) escalates to **full sample-level
//! DSP** — modulator → FM chain → demodulator via
//! [`linksim`] — fanned out on [`pool::run_ordered`]. The cohort's measured
//! loss rides in the aggregates next to the fast path's expectation for
//! the same cells, so every report carries its own cross-check.
//!
//! # Determinism
//!
//! Every draw is a hash of `(seed, structural indices)`: no RNG state
//! threads through the run. Epochs are evaluated as independent jobs on
//! the worker pool and merged in epoch order, so reports are
//! **byte-identical for the same seed at any worker count** — asserted by
//! the `same_seed_any_worker_count` test.

use crate::linksim;
use crate::pool::{self, run_ordered};
use crate::scenario::aggregate::ScenarioAggregates;
use crate::scenario::population::Population;
use crate::terrain::{TerrainConfig, TerrainGrid};
use crate::workload::diurnal_factor;
use sonic_core::frame::FRAME_SIZE;
use sonic_core::link::FRAMES_PER_BURST;
use sonic_radio::faults::{mix, mix3, unit_f64, Fault, FaultPlan, DRIFT_CLASSES};
use sonic_radio::rssi::{band_center_db, rssi_band, rssi_frame_loss};
use sonic_sms::CongestionModel;

/// Link rate of the broadcast carousel in bits per second (the paper's
/// §2 SONIC budget: ~10 kbit/s of page data inside the FM audio band).
pub const CAROUSEL_RATE_BPS: f64 = 10_000.0;

/// Peak diurnal factor in [`diurnal_factor`]'s curve (19:00); used to
/// normalize the curve into a listening probability.
const DIURNAL_PEAK: f64 = 1.6;

/// Scenario configuration. Start from [`ScenarioConfig::national`] or
/// [`ScenarioConfig::smoke`] and override fields.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Simulated duration in hours.
    pub hours: u32,
    /// Population size.
    pub listeners: usize,
    /// Number of Zipf-weighted population centers.
    pub cities: usize,
    /// Fraction of listeners commuting on waypoint routes.
    pub mobile_fraction: f64,
    /// Pages in the broadcast carousel (Zipf rank order).
    pub pages: usize,
    /// Carousel link rate in bits per second.
    pub rate_bps: f64,
    /// Mobility/band re-evaluation period in seconds.
    pub epoch_s: u32,
    /// Probability a listener tunes in during the diurnal peak hour.
    pub listen_peak: f64,
    /// SMS requests per listener-hour at diurnal factor 1.0.
    pub sms_per_listener_hour: f64,
    /// Carrier-core congestion model for the SMS uplink.
    pub congestion: CongestionModel,
    /// Full-DSP escalation runs per hour (0 disables the slow tier).
    pub dsp_cohort_per_hour: usize,
    /// Worker threads (0 = [`pool::default_workers`]).
    pub workers: usize,
    /// Terrain / transmitter layout.
    pub terrain: TerrainConfig,
    /// Master seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The country-scale run the paper's deployment sketch implies:
    /// 72 hours over a 100 k-listener region, nine transmitters.
    pub fn national(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            hours: 72,
            listeners: 100_000,
            cities: 24,
            mobile_fraction: 0.18,
            pages: 120,
            rate_bps: CAROUSEL_RATE_BPS,
            epoch_s: 300,
            listen_peak: 0.55,
            sms_per_listener_hour: 0.35,
            // The gateway's SMSC slice, not the whole carrier: a dedicated
            // shortcode path serving ~8 segments/s. Evening peaks at 100 k
            // listeners push past it — minutes of queue delay and some
            // shedding — which is exactly the carrier behaviour the paper
            // reports and the congestion model exists to reproduce.
            congestion: CongestionModel {
                capacity_per_s: 8.0,
                service_s: 0.125,
                queue_limit_s: 900.0,
            },
            dsp_cohort_per_hour: 2,
            workers: 0,
            terrain: TerrainConfig { seed, ..TerrainConfig::default() },
            seed,
        }
    }

    /// A down-scaled preset for CI smoke and unit tests: 2 h × 2 000
    /// listeners, no DSP escalation.
    pub fn smoke(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            hours: 2,
            listeners: 2_000,
            cities: 6,
            mobile_fraction: 0.2,
            pages: 30,
            dsp_cohort_per_hour: 0,
            ..ScenarioConfig::national(seed)
        }
    }
}

/// One carousel slot: a page airing as one burst window.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Hour-local start time in seconds.
    t0_s: f64,
    /// Frames in the slot.
    n_frames: u32,
    /// Fate-stream nonce (unique per hour × slot).
    nonce: u64,
}

/// Result of a population run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The constant-memory aggregates.
    pub aggregates: ScenarioAggregates,
    /// Rendered paper-style tables (byte-stable across replays).
    pub text: String,
    /// Simulated listener-hours (listeners × hours).
    pub listener_hours: u64,
    /// Resident bytes of per-listener engine state (population SoA).
    pub state_bytes: usize,
}

/// Per-page frame counts: Zipf-ranked pages sized 1.2–9.8 kB.
fn page_frames(pages: usize, seed: u64) -> Vec<u32> {
    (0..pages.max(1))
        .map(|p| {
            let h = mix3(seed ^ 0x9A6E, p as u64, 0x01);
            14 + (h % 90) as u32
        })
        .collect()
}

/// The hour's carousel: pages in rank order, cycling until the hour's
/// frame budget is spent.
fn carousel_slots(pages: &[u32], hour: u32, rate_bps: f64, seed: u64) -> Vec<Slot> {
    let frame_airtime_s = FRAME_SIZE as f64 * 8.0 / rate_bps;
    let budget = (3_600.0 / frame_airtime_s) as u64;
    let mut slots = Vec::new();
    let mut used = 0u64;
    let mut t = 0.0f64;
    let mut idx = 0usize;
    while used + u64::from(pages[idx % pages.len()]) <= budget {
        let n = pages[idx % pages.len()];
        slots.push(Slot {
            t0_s: t,
            n_frames: n,
            nonce: mix3(seed ^ 0xCA40, u64::from(hour), idx as u64),
        });
        t += f64::from(n) * frame_airtime_s;
        used += u64::from(n);
        idx += 1;
    }
    slots
}

/// The weather a site sees during one hour: 0–3 deep fades (rain cells,
/// multipath episodes) and 0–2 mute windows (interference squelching the
/// tuner), all seeded from `(seed, site, hour)`.
fn weather_plan(seed: u64, site: usize, hour: u32) -> FaultPlan {
    let base = mix3(seed ^ 0x7EA7, site as u64, u64::from(hour));
    let mut faults = Vec::new();
    let n_fades = (mix(base) % 4) as usize;
    for i in 0..n_fades {
        let h = mix3(base, 0x0FAD, i as u64);
        faults.push(Fault::Fade {
            start_s: unit_f64(h) * 3_400.0,
            len_s: 30.0 + unit_f64(mix(h)) * 240.0,
            depth_db: 8.0 + unit_f64(mix(mix(h))) * 28.0,
        });
    }
    let n_mutes = (mix3(base, 0x317E, 0) % 3) as usize;
    for i in 0..n_mutes {
        let h = mix3(base, 0x317F, i as u64);
        faults.push(Fault::Mute {
            start_s: unit_f64(h) * 3_560.0,
            len_s: 2.0 + unit_f64(mix(h)) * 35.0,
        });
    }
    FaultPlan { seed: base, faults }
}

/// Listening probability for an hour of day.
fn listen_prob(cfg: &ScenarioConfig, hour: u32) -> f64 {
    (cfg.listen_peak * diurnal_factor(u64::from(hour)) / DIURNAL_PEAK).clamp(0.0, 1.0)
}

/// The hour's active-listener list (diurnal mask, pure hash per listener).
fn active_listeners(cfg: &ScenarioConfig, hour: u32) -> Vec<u32> {
    let p = listen_prob(cfg, hour);
    (0..cfg.listeners as u32)
        .filter(|&l| unit_f64(mix3(cfg.seed ^ 0xAC71, u64::from(l), u64::from(hour))) < p)
        .collect()
}

/// Output of one epoch job: partial counters + per-active-listener
/// delivered frames (summed across the epoch's slots).
struct EpochOut {
    agg: ScenarioAggregates,
    delivered: Vec<u32>,
}

/// Evaluates one epoch: patch mobile cells, then one SoA pass per slot.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    cfg: &ScenarioConfig,
    terrain: &TerrainGrid,
    pop: &Population,
    plans: &[FaultPlan],
    active: &[u32],
    slots: &[Slot],
    hour: u32,
    epoch: u32,
) -> EpochOut {
    let n_sites = terrain.sites().len();
    let mut agg = ScenarioAggregates::new(n_sites);
    let mut delivered = vec![0u32; active.len()];

    // Mobility: the epoch's snapshot of (site, cell) for commuters. Static
    // listeners keep their home snapshot — shared read-only.
    let mut site = pop.site.clone();
    let mut cell = pop.cell.clone();
    let t_mid = f64::from(hour) * 3_600.0 + (f64::from(epoch) + 0.5) * f64::from(cfg.epoch_s);
    for r in &pop.routes {
        let (x, y) = r.position(t_mid);
        let (s, rssi) = terrain.best_site(x, y);
        site[r.listener as usize] = s;
        cell[r.listener as usize] =
            u16::from(rssi_band(rssi)) * DRIFT_CLASSES as u16 + u16::from(r.class);
    }

    let frame_airtime_s = FRAME_SIZE as f64 * 8.0 / cfg.rate_bps;
    for slot in slots {
        // Tier-1 memoization: one loss curve per site for this burst.
        let curves: Vec<_> = plans
            .iter()
            .map(|p| p.burst_loss_curve(slot.t0_s, frame_airtime_s, slot.n_frames, slot.nonce))
            .collect();
        let offered = u64::from(slot.n_frames);
        // The fast path: one SoA pass over the active population.
        for (ai, &l) in active.iter().enumerate() {
            let li = l as usize;
            let c = &curves[usize::from(site[li])];
            let cl = cell[li];
            let band = (cl as usize / DRIFT_CLASSES) as u8;
            let class = (cl as usize % DRIFT_CLASSES) as u8;
            let d = c.sample_delivered(u64::from(l), band, class);
            delivered[ai] += d;
            let alive = c.n_alive;
            let b = usize::from(band);
            agg.band_offered[b] += offered;
            agg.band_delivered[b] += u64::from(d);
            agg.band_corrupted[b] += u64::from(alive - d);
            agg.band_lost[b] += offered - u64::from(alive);
            let s = usize::from(site[li]);
            agg.site_offered[s] += offered;
            agg.site_delivered[s] += u64::from(d);
        }
    }
    EpochOut { agg, delivered }
}

/// Folds the hour's SMS demand through the carrier congestion model.
fn run_sms_hour(cfg: &ScenarioConfig, active_count: usize, hour: u32, agg: &mut ScenarioAggregates) {
    let demand = active_count as f64 * cfg.sms_per_listener_hour * diurnal_factor(u64::from(hour));
    if demand < 1.0 {
        return;
    }
    let point = cfg.congestion.under_load(demand / 3_600.0);
    let sent = demand.round() as u64;
    let shed = (demand * point.shed_fraction).round() as u64;
    agg.sms_sent += sent;
    agg.sms_shed += shed;
    agg.sms_delivered += sent - shed;
    agg.sms_peak_utilization = agg.sms_peak_utilization.max(point.utilization);
    // Hourly stratified latency sample: carrier base latency + a heavy
    // tail + the hour's queue delay.
    let k = 200.min(sent as usize);
    for i in 0..k {
        let h = mix3(cfg.seed ^ 0x535A, u64::from(hour), i as u64);
        let mut lat = 2.5 + 3.0 * unit_f64(h) + point.queue_delay_s;
        if unit_f64(mix(h)) < 0.05 {
            lat += 20.0 * unit_f64(mix(mix(h)));
        }
        agg.sms_latency_s.insert(lat);
    }
}

/// Escalates a sampled + boundary cohort to the full DSP chain and records
/// measured vs fast-path-expected delivery for the same RSSI cells.
fn run_dsp_cohort(
    cfg: &ScenarioConfig,
    pop: &Population,
    active: &[u32],
    hour: u32,
    workers: usize,
    agg: &mut ScenarioAggregates,
) {
    if cfg.dsp_cohort_per_hour == 0 || active.is_empty() {
        return;
    }
    // Half uniform, half from the boundary bands around the loss cliff —
    // the cells where the fast path's calibration actually matters.
    let boundary: Vec<u32> = active
        .iter()
        .copied()
        .filter(|&l| {
            let band = pop.cell[l as usize] as usize / DRIFT_CLASSES;
            let center = band_center_db(band as u8);
            (-94.0..-84.0).contains(&center)
        })
        .take(4_096)
        .collect();
    let mut cohort = Vec::with_capacity(cfg.dsp_cohort_per_hour);
    for i in 0..cfg.dsp_cohort_per_hour {
        let h = mix3(cfg.seed ^ 0xD5BC, u64::from(hour), i as u64);
        let pick = if i % 2 == 0 || boundary.is_empty() {
            active[(h % active.len() as u64) as usize]
        } else {
            boundary[(h % boundary.len() as u64) as usize]
        };
        cohort.push((pick, h));
    }

    let profile = sonic_modem::profile::Profile::sonic_10k();
    let n_frames = FRAMES_PER_BURST;
    let runs = run_ordered(cohort, workers, |(l, h)| {
        let band = (pop.cell[l as usize] as usize / DRIFT_CLASSES) as u8;
        let rssi = band_center_db(band);
        let res = linksim::run(&profile, linksim::ChannelSetup::Fm { rssi_db: rssi }, n_frames, h);
        (band, res)
    });
    for (band, res) in runs {
        agg.dsp_runs += 1;
        agg.dsp_sent += res.frames_sent as u64;
        agg.dsp_delivered += res.frames_received as u64;
        agg.dsp_fast_expected +=
            res.frames_sent as f64 * (1.0 - rssi_frame_loss(band_center_db(band)));
    }
}

/// Runs the full scenario: the tentpole entry point.
pub fn run(cfg: &ScenarioConfig) -> ScenarioReport {
    let terrain = TerrainGrid::generate(cfg.terrain);
    let pop = Population::build(
        &terrain,
        cfg.listeners,
        cfg.cities,
        cfg.mobile_fraction,
        cfg.seed,
    );
    let workers = if cfg.workers == 0 {
        pool::default_workers()
    } else {
        cfg.workers
    };
    let pages = page_frames(cfg.pages, cfg.seed);
    let mut agg = ScenarioAggregates::new(terrain.sites().len());
    let epochs_per_hour = (3_600 / cfg.epoch_s.max(1)).max(1);

    for hour in 0..cfg.hours {
        let slots = carousel_slots(&pages, hour, cfg.rate_bps, cfg.seed);
        let plans: Vec<FaultPlan> = (0..terrain.sites().len())
            .map(|s| weather_plan(cfg.seed, s, hour))
            .collect();
        let active = active_listeners(cfg, hour);

        // Partition the hour's slots by epoch and fan the epochs out.
        let jobs: Vec<(u32, Vec<Slot>)> = (0..epochs_per_hour)
            .map(|e| {
                let lo = f64::from(e * cfg.epoch_s);
                let hi = f64::from((e + 1) * cfg.epoch_s);
                let span: Vec<Slot> = slots
                    .iter()
                    .copied()
                    .filter(|s| s.t0_s >= lo && s.t0_s < hi)
                    .collect();
                (e, span)
            })
            .collect();
        let offered_hour: u64 = slots.iter().map(|s| u64::from(s.n_frames)).sum();
        let outs = run_ordered(jobs, workers, |(e, span)| {
            run_epoch(cfg, &terrain, &pop, &plans, &active, &span, hour, e)
        });

        // Ordered merge: counters fold epoch by epoch, per-listener frames
        // sum across epochs, then the hour's experience enters the sketches.
        let mut hour_delivered = vec![0u64; active.len()];
        for out in &outs {
            agg.merge(&out.agg);
            for (acc, &d) in hour_delivered.iter_mut().zip(&out.delivered) {
                *acc += u64::from(d);
            }
        }
        agg.listener_hours += cfg.listeners as u64;
        agg.active_listener_hours += active.len() as u64;
        for (ai, &l) in active.iter().enumerate() {
            agg.site_listener_hours[usize::from(pop.site[l as usize])] += 1;
            if offered_hour > 0 {
                let ratio = hour_delivered[ai] as f64 / offered_hour as f64;
                agg.ratio_pct.insert(100.0 * ratio);
                agg.quality.insert((9.0 - 10.0 * (1.0 - ratio)).clamp(1.0, 9.0));
            }
        }

        run_sms_hour(cfg, active.len(), hour, &mut agg);
        run_dsp_cohort(cfg, &pop, &active, hour, workers, &mut agg);
    }

    let text = agg.render();
    let listener_hours = agg.listener_hours;
    ScenarioReport {
        aggregates: agg,
        text,
        listener_hours,
        state_bytes: pop.state_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carousel_fills_the_hour_with_zipf_pages() {
        let pages = page_frames(30, 1);
        let slots = carousel_slots(&pages, 0, CAROUSEL_RATE_BPS, 1);
        assert!(slots.len() > 100, "an hour holds many slots: {}", slots.len());
        let frame_airtime = FRAME_SIZE as f64 * 8.0 / CAROUSEL_RATE_BPS;
        let total: u64 = slots.iter().map(|s| u64::from(s.n_frames)).sum();
        assert!(total as f64 * frame_airtime <= 3_600.0, "must fit the hour");
        assert!(total as f64 * frame_airtime > 3_400.0, "must nearly fill it");
        // Slot times are strictly increasing and nonces unique.
        for w in slots.windows(2) {
            assert!(w[1].t0_s > w[0].t0_s);
            assert_ne!(w[0].nonce, w[1].nonce);
        }
    }

    #[test]
    fn diurnal_activity_breathes() {
        let cfg = ScenarioConfig::smoke(3);
        let night = active_listeners(&cfg, 3).len();
        let evening = active_listeners(&cfg, 19).len();
        assert!(
            evening > night * 3,
            "evening audience {evening} must dwarf 3 am {night}"
        );
    }

    #[test]
    fn smoke_run_produces_sane_aggregates() {
        let r = run(&ScenarioConfig::smoke(11));
        let a = &r.aggregates;
        assert_eq!(a.listener_hours, 4_000);
        assert!(a.active_listener_hours > 0);
        assert!(a.frames_offered() > 0);
        let rate = a.frames_delivered() as f64 / a.frames_offered() as f64;
        assert!((0.5..1.0).contains(&rate), "delivery {rate}");
        // Most listeners sit in good coverage; the fringe suffers.
        assert!(a.ratio_pct.quantile(0.75) > 90.0);
        assert!(a.quality.quantile(0.5) > 6.0);
        assert!(a.sms_sent > 0);
        assert!(r.text.contains("Fig 4a analogue"));
    }

    #[test]
    fn loss_concentrates_in_weak_bands() {
        let r = run(&ScenarioConfig::smoke(11));
        let a = &r.aggregates;
        // Clean bands (≥ −84 dB ⇒ band ≥ 52): essentially all loss is
        // weather; dead bands (≤ −94 dB): nothing survives.
        let clean_off: u64 = a.band_offered[52..].iter().sum();
        let clean_del: u64 = a.band_delivered[52..].iter().sum();
        assert!(clean_off > 0);
        assert!(clean_del as f64 / clean_off as f64 > 0.9);
        let dead_off: u64 = a.band_offered[..32].iter().sum();
        let dead_del: u64 = a.band_delivered[..32].iter().sum();
        if dead_off > 0 {
            assert!(dead_del as f64 / (dead_off as f64) < 0.05);
        }
    }

    #[test]
    fn same_seed_any_worker_count_is_byte_identical() {
        let mut texts = Vec::new();
        for workers in [1usize, 2, 8] {
            let cfg = ScenarioConfig {
                workers,
                ..ScenarioConfig::smoke(23)
            };
            let r = run(&cfg);
            texts.push(r.text);
        }
        assert_eq!(texts[0], texts[1], "1 vs 2 workers");
        assert_eq!(texts[0], texts[2], "1 vs 8 workers");
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&ScenarioConfig::smoke(1));
        let b = run(&ScenarioConfig::smoke(2));
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn aggregates_stay_constant_memory_as_hours_grow() {
        let short = run(&ScenarioConfig::smoke(5));
        let long = run(&ScenarioConfig {
            hours: 8,
            ..ScenarioConfig::smoke(5)
        });
        // 4× the simulated time and observations: the counters are
        // fixed-size and the sketch buckets converge to their caps, so the
        // footprint grows strictly sublinearly (buckets still filling at
        // smoke scale) and stays under the hard budget the bench enforces
        // at full scale.
        let a = short.aggregates.bytes() as f64;
        let b = long.aggregates.bytes() as f64;
        assert!(b <= a * 2.0, "aggregate bytes {a} → {b} must grow sublinearly in hours");
        assert!(b < 131_072.0, "aggregate bytes {b} must stay under 128 kB");
    }

    /// The seeded fast-path ↔ full-DSP equivalence check the tentpole
    /// requires: across the RSSI sweep, the memoized loss curve must match
    /// what the real modulator → FM chain → demodulator measures.
    #[test]
    fn fast_path_matches_full_dsp_across_the_rssi_sweep() {
        let profile = sonic_modem::profile::Profile::sonic_10k();
        for (rssi, tol) in [(-70.0, 0.05), (-86.0, 0.15), (-88.0, 0.35), (-94.0, 0.05)] {
            let mut losses = Vec::new();
            for rep in 0..4u64 {
                let res = linksim::run(
                    &profile,
                    linksim::ChannelSetup::Fm { rssi_db: rssi },
                    2 * FRAMES_PER_BURST,
                    0x51EE ^ (rep << 8) ^ (-rssi) as u64,
                );
                losses.push(res.frame_loss);
            }
            let dsp = losses.iter().sum::<f64>() / losses.len() as f64;
            let fast = rssi_frame_loss(rssi);
            assert!(
                (dsp - fast).abs() <= tol,
                "rssi {rssi}: dsp loss {dsp:.3} vs fast path {fast:.3} (tol {tol})"
            );
        }
    }

    #[test]
    fn dsp_cohort_rides_in_the_aggregates() {
        let cfg = ScenarioConfig {
            hours: 1,
            listeners: 500,
            dsp_cohort_per_hour: 2,
            ..ScenarioConfig::smoke(9)
        };
        let r = run(&cfg);
        assert_eq!(r.aggregates.dsp_runs, 2);
        assert!(r.aggregates.dsp_sent > 0);
        assert!(r.text.contains("dsp cohort"));
    }
}
