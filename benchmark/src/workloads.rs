//! The four workloads: inputs from the seed, the measured loop, the checks,
//! and the metrics. Closed loop, one thread, one unit in flight.
//!
//! A run first sets up (several times over, for a steady `setup_s`), then
//! works through its seeded list of units pass after pass. The first pass
//! always completes, so the count-derived metrics (air seconds, goodput,
//! loss, SMS) are a pure function of the seed; further passes repeat the
//! same inputs until `--seconds` have gone, feed the timing medians, and
//! must reproduce the first pass's outputs exactly.

use crate::layers::{self, CarouselPlan, FmSpec, PageSpec, Soak, Stack, Trip};
use crate::stats::{self, SplitMix};
use crate::trace::Tracer;
use crate::{alloc, json::Json, metrics};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Workload {
    TripCable,
    TripFm,
    CarouselDay,
    ClusterDay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TripCable,
        Workload::TripFm,
        Workload::CarouselDay,
        Workload::ClusterDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TripCable => "trip_cable",
            Workload::TripFm => "trip_fm",
            Workload::CarouselDay => "carousel_day",
            Workload::ClusterDay => "cluster_day",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Three units, one pass, whatever `seconds` says.
    pub smoke: bool,
    /// Scratch and trace files go here, inside the checkout.
    pub out_dir: PathBuf,
}

/// One reported number and how many samples stand behind it.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, one line each (capped).
    pub failures: Vec<String>,
    pub values: Vec<Value>,
    pub trace: Option<Json>,
}

/// Set-up repetitions; `setup_s` is their median. Set-up works on fixed
/// inputs, whatever the seed, so that only the host moves it.
const SETUP_REPS: usize = 7;
/// Below this share of one core the host was busy with something else.
const CONTENDED_BELOW: f64 = 0.85;

const SMOKE_UNITS: usize = 3;

// trip_cable: 30 pages a pass at scale 0.1 (≈ 55 s of air and ≈ 0.3 s of
// wall each), kinds and sites balanced so that two seeds carry about the
// same bytes.
const CABLE_PAGES: usize = 30;
const CABLE_SCALE: f64 = 0.1;
// trip_fm: the FM hop costs ≈ 40 ms per second of air, so 30 pages fit a
// pass only at scale 0.03 (≈ 11 s of air each).
const FM_PAGES: usize = 30;
const FM_SCALE: f64 = 0.03;
/// RSSI levels, one third of the sites each (a site's level does not change
/// with the seed, for the reason its first page does not): clean; at the FM
/// threshold (≈ 7 % of bursts lost); under it (≈ 45 %), where two NACK rounds
/// still leave columns for interpolation to fill. The cliff is a dB wide.
const FM_RSSI_DB: [f64; 3] = [-70.0, -84.5, -86.0];
// carousel_day: Corpus::small(5) is 20 pages; a cold hour seeded in 6..=10,
// then eight warm ones. A day writes ≈ 350 MB of store and takes ≈ 3 s
// with its checks, so a run sees about seven days and sixty hours.
const CAROUSEL_SITES: usize = 5;
const CAROUSEL_SCALE: f64 = 0.05;
const CAROUSEL_FIRST_COLD_HOUR: u64 = 6;
const CAROUSEL_COLD_HOURS: u64 = 5;
const CAROUSEL_WARM_HOURS: u64 = 8;
const CLUSTER_SOAKS: usize = 15;
/// Messages through the wire codec in a traced `cluster_day` run.
const NET_MESSAGES: usize = 100_000;

/// Hours with churn in the synthetic corpus (it freezes overnight).
fn seeded_hour(rng: &mut SplitMix) -> u64 {
    6 + rng.below(15)
}

/// `n` distinct pages of the standard corpus: the sites in seeded order, one
/// page of each, then a second page of the first few. Which page of a site
/// comes first goes by the site, not by the seed: a landing page is two to
/// three times an inner one and sites differ six-fold, so a seeded draw of 30
/// out of 100 pages moved a pass's bytes by a tenth and its largest page
/// (peak memory) by a quarter from seed to seed.
fn seeded_pages(rng: &mut SplitMix, n: usize) -> Vec<PageSpec> {
    let mut sites: Vec<usize> = (0..layers::STANDARD_SITES).collect();
    rng.shuffle(&mut sites);
    (0..n)
        .map(|k| {
            let site = sites[k % sites.len()];
            PageSpec {
                site,
                page: (k / sites.len() + site) % layers::PAGES_PER_SITE,
                hour: seeded_hour(rng),
            }
        })
        .collect()
}

/// Time and counters around the measured loop.
struct Meter {
    started: Instant,
    cpu0: f64,
    allocs0: (u64, u64),
    seconds: f64,
}

impl Meter {
    fn start(seconds: f64) -> Self {
        Meter {
            started: Instant::now(),
            cpu0: stats::cpu_seconds(),
            allocs0: alloc::snapshot(),
            seconds,
        }
    }

    fn time_is_up(&self) -> bool {
        self.started.elapsed().as_secs_f64() >= self.seconds
    }
}

fn scratch_dir(args: &Args, label: &str) -> PathBuf {
    args.out_dir.join(format!(
        "tmp-{}-{}-{label}",
        args.workload.name(),
        std::process::id()
    ))
}

/// Runs `setup` `SETUP_REPS` times; returns the last product and the median
/// wall seconds.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut product = None;
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        product = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (product.expect("SETUP_REPS > 0"), stats::median(&seconds))
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: Vec::new(),
            trace: None,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push(Value {
            name,
            value,
            samples,
        });
    }

    /// Everything every workload reports about the run itself, and the
    /// per-layer metrics a traced run can give. `unit_s` are the unit walls.
    fn finish(
        mut self,
        args: &Args,
        meter: &Meter,
        tr: &Tracer,
        setup_s: f64,
        unit_s: &[f64],
    ) -> Outcome {
        let wall = meter.started.elapsed().as_secs_f64();
        let cpu_frac = (stats::cpu_seconds() - meter.cpu0) / wall;
        let (calls, bytes) = alloc::snapshot();
        let units = unit_s.len();
        self.put("setup_s", setup_s, SETUP_REPS);
        self.put("peak_rss_mb", stats::peak_rss_mb(), 1);
        self.put(
            "pages_failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted as usize,
        );
        self.put("run.wall_s", wall, 1);
        self.put("run.units", units as f64, 1);
        self.put("run.cpu_frac", cpu_frac, 1);
        self.put(
            "run.contended",
            f64::from(u8::from(cpu_frac < CONTENDED_BELOW)),
            1,
        );
        self.put(
            "run.allocs_per_page",
            (calls - meter.allocs0.0) as f64 / units as f64,
            units,
        );
        self.put(
            "run.alloc_mb_per_page",
            (bytes - meter.allocs0.1) as f64 / (1024.0 * 1024.0) / units as f64,
            units,
        );
        let unit_ms: Vec<f64> = unit_s.iter().map(|s| s * 1e3).collect();
        self.put("run.unit_ms_p50", stats::median(&unit_ms), units);
        self.put("run.unit_ms_p90", stats::quantile(&unit_ms, 0.9), units);

        if args.trace {
            let span_cost = Tracer::calibrate_pair_s() * tr.span_count() as f64;
            self.put(
                "run.trace_overhead_frac",
                span_cost / unit_s.iter().sum::<f64>(),
                units,
            );
            self.layers(tr, units as f64);
            self.trace = Some(tr.to_json());
        }
        self
    }

    /// Per-layer metrics from the kept spans and the counts, per unit.
    fn layers(&mut self, tr: &Tracer, units: f64) {
        let layers = tr.layers();
        let samples = units as usize;
        for (span, totals) in &layers {
            // The wire codec batch runs once a run, the store opens once a
            // day: seconds per call say more than seconds per unit.
            let (per, n) = match *span {
                "core.net.roundtrip" | "core.store.open" => {
                    (totals.calls as f64, totals.calls as usize)
                }
                _ => (units, samples),
            };
            // The two link spans report what they cost with their replayed
            // FEC child; what is left without it is the modem's.
            let modem = match *span {
                "core.link_tx" => Some("modem.tx.s"),
                "core.link_rx" => Some("modem.rx.s"),
                _ => None,
            };
            if let Some(def) = metrics::def(&format!("{span}.s")) {
                let seconds = if modem.is_some() {
                    totals.inclusive_s
                } else {
                    totals.self_s
                };
                self.put(def.name, seconds / per, n);
            }
            if let Some(name) = modem {
                self.put(name, totals.self_s / per, n);
            }
            if let Some(def) = metrics::def(&format!("{span}.allocs")) {
                self.put(def.name, totals.self_allocs as f64 / per, n);
            }
        }
        for key in [
            "pagegen.render.mpix",
            "image.strip_encode.bytes_out",
            "core.chunk.frames",
            "core.link_tx.air_s",
            "fec.bytes",
            "core.link_rx.bursts",
            "core.link_rx.bursts_failed",
            "core.link_rx.frames_ok",
            "radio.mpx_samples",
            "core.reassemble.frames",
            "image.finalize.pixels_interp",
            "core.repair.frames",
            "core.repair.nacks_accepted",
            "core.repair.nacks_rejected",
            "core.refresh.unchanged",
            "core.refresh.delta",
            "core.refresh.full",
            "core.scheduler.frames",
            "sim.cluster.frames_aired",
            "sim.cluster.rpc_retries",
            "sim.cluster.failovers",
            "sim.cluster.sms_shed",
            "sim.cluster.hung_pages",
        ] {
            if tr.total(key) != 0.0 {
                self.put(key, tr.total(key) / units, samples);
            }
        }
        for key in ["core.net.msgs", "core.net.wire_bytes"] {
            if tr.total(key) != 0.0 {
                self.put(key, tr.total(key), 1);
            }
        }
        let on_air = tr.total("core.link_tx.frames");
        if tr.total("core.link_rx.bursts") > 0.0 {
            self.put(
                "core.link_rx.frame_ok_frac",
                tr.total("core.link_rx.frames_ok") / on_air,
                samples,
            );
        }
        let hops = tr.counted("radio.rx.s_per_air_s");
        if !hops.is_empty() {
            self.put(
                "radio.rx.s_per_air_s_p90",
                stats::quantile(&hops, 0.9),
                hops.len(),
            );
            let latencies = tr.counted("sms.sim_latency_s");
            self.put(
                "sms.sim_latency_s_p50",
                stats::median(&latencies),
                latencies.len(),
            );
        }
    }
}

/// What two passes over the same trip inputs must agree on: everything but
/// the wall times.
fn same_outputs(a: &Trip, b: &Trip) -> bool {
    let strip = |t: &Trip| Trip {
        tx_s: 0.0,
        rx_s: 0.0,
        wall_s: 0.0,
        ..t.clone()
    };
    strip(a) == strip(b)
}

/// `trip_cable` and `trip_fm` share the loop and the metrics; `fm` is `None`
/// on the cable.
fn run_trips(args: &Args, rng: &mut SplitMix) -> Outcome {
    let fm_workload = args.workload == Workload::TripFm;
    let (pages, scale) = if fm_workload {
        (FM_PAGES, FM_SCALE)
    } else {
        (CABLE_PAGES, CABLE_SCALE)
    };
    let mut specs: Vec<(PageSpec, Option<FmSpec>)> = seeded_pages(rng, pages)
        .into_iter()
        .map(|page| {
            let fm = fm_workload.then(|| FmSpec {
                rssi_db: FM_RSSI_DB[page.site % FM_RSSI_DB.len()],
                channel_seed: rng.next_u64(),
                sms_seed: rng.next_u64(),
            });
            (page, fm)
        })
        .collect();
    if args.smoke {
        specs.truncate(SMOKE_UNITS);
    }
    let trip = |tr: &mut Tracer, stack: &Stack, (page, fm): (PageSpec, Option<FmSpec>)| match fm {
        Some(fm) => layers::fm_trip(tr, stack, page, scale, fm),
        None => layers::cable_trip(tr, stack, page, scale),
    };

    let mut report = Outcome::new();
    // Set-up: the corpus and the FEC tables, one whole warm-up unit (the
    // thread's modem codec and FFT plans, the allocator's arenas) and on
    // `trip_fm` the check that the split FM path is `FmLink`'s.
    let warmup = (
        PageSpec {
            site: 0,
            page: 3,
            hour: 9,
        },
        fm_workload.then_some(FmSpec {
            rssi_db: FM_RSSI_DB[0],
            channel_seed: 1,
            sms_seed: 1,
        }),
    );
    let ((stack, split_ok), setup_s) = timed_setup(|| {
        let stack = Stack::new();
        trip(&mut Tracer::new(false), &stack, warmup);
        let split_ok = !fm_workload || layers::fm_split_matches_fmlink(&stack);
        (stack, split_ok)
    });
    if !split_ok {
        report.attempted += 1;
        report.fail("set-up: split FM path differs from FmLink::transmit".into());
    }

    let meter = Meter::start(args.seconds);
    let mut tr = Tracer::new(args.trace);
    let mut first_pass: Vec<Trip> = Vec::with_capacity(specs.len());
    let mut later: Vec<Trip> = Vec::new();
    'passes: for pass in 0.. {
        for (k, &spec) in specs.iter().enumerate() {
            if pass > 0 && meter.time_is_up() {
                break 'passes;
            }
            let done = trip(&mut tr, &stack, spec);
            report.attempted += 1;
            if let Some(why) = done.failure {
                report.fail(format!("pass {pass} page {:?}: {why}", spec.0));
            } else if pass > 0 && !same_outputs(&done, &first_pass[k]) {
                report.fail(format!(
                    "pass {pass} page {:?}: outputs differ from pass 0",
                    spec.0
                ));
            }
            if pass == 0 {
                first_pass.push(done);
            } else {
                later.push(done);
            }
        }
        if args.smoke {
            break;
        }
    }

    // Timings: every displayed unit of every pass.
    let timed: Vec<&Trip> = first_pass
        .iter()
        .chain(&later)
        .filter(|t| t.failure.is_none())
        .collect();
    let ratio =
        |f: fn(&Trip) -> f64| -> Vec<f64> { timed.iter().map(|t| t.air_s / f(t)).collect() };
    report.put("unit_xrt", stats::median(&ratio(|t| t.wall_s)), timed.len());
    report.put("tx_xrt", stats::median(&ratio(|t| t.tx_s)), timed.len());
    report.put("rx_xrt", stats::median(&ratio(|t| t.rx_s)), timed.len());
    // Counts: the first pass only, which is the same whatever the host's speed.
    let delivered: Vec<&Trip> = first_pass.iter().filter(|t| t.failure.is_none()).collect();
    let n = delivered.len();
    let sum = |f: fn(&Trip) -> f64| -> f64 { delivered.iter().map(|t| f(t)).sum() };
    let air_s = sum(|t| t.air_s);
    report.put("air_s_per_page", air_s / n.max(1) as f64, n);
    report.put(
        "goodput_bps",
        8.0 * layers::FRAME_PAYLOAD_BYTES * sum(|t| t.frames_accepted) / air_s,
        n,
    );
    report.put(
        "pixel_loss_frac",
        sum(|t| t.pixel_loss) / n.max(1) as f64,
        n,
    );
    report.put("psnr_db", sum(|t| t.psnr_db) / n.max(1) as f64, n);
    let unit_s: Vec<f64> = first_pass.iter().chain(&later).map(|t| t.wall_s).collect();
    if fm_workload {
        report.put("sms_per_page", sum(|t| t.sms_segments) / n.max(1) as f64, n);
        let segments: f64 = first_pass
            .iter()
            .chain(&later)
            .map(|t| t.sms_segments)
            .sum();
        report.put("sms.segments", segments / unit_s.len() as f64, unit_s.len());
    }
    report.finish(args, &meter, &tr, setup_s, &unit_s)
}

fn run_carousel(args: &Args, rng: &mut SplitMix) -> Outcome {
    let mut order: Vec<(usize, usize)> = (0..CAROUSEL_SITES)
        .flat_map(|site| (0..layers::PAGES_PER_SITE).map(move |page| (site, page)))
        .collect();
    rng.shuffle(&mut order);
    if args.smoke {
        order.truncate(SMOKE_UNITS);
    }
    let plan = CarouselPlan {
        sites: CAROUSEL_SITES,
        scale: CAROUSEL_SCALE,
        order,
        cold_hour: CAROUSEL_FIRST_COLD_HOUR + rng.below(CAROUSEL_COLD_HOURS),
        warm_hours: if args.smoke { 1 } else { CAROUSEL_WARM_HOURS },
    };

    let mut report = Outcome::new();
    // Set-up: corpus and tables, the scratch directory, and a warm-up day of
    // four pages through a store of its own (codec, allocator, file cache).
    let warmup = CarouselPlan {
        order: (0..layers::PAGES_PER_SITE).map(|page| (0, page)).collect(),
        warm_hours: 1,
        ..plan.clone()
    };
    let (stack, setup_s) = timed_setup(|| {
        let stack = Stack::new();
        let dir = scratch_dir(args, "setup");
        let _ = std::fs::remove_dir_all(&dir);
        layers::carousel_day(&mut Tracer::new(false), &stack, &warmup, &dir, None)
            .and_then(|(_, spent)| spent.remove())
            .expect("scratch store under out/");
        stack
    });

    let meter = Meter::start(args.seconds);
    let mut tr = Tracer::new(args.trace);
    let mut days = Vec::new();
    let mut spent = None;
    loop {
        let dir = scratch_dir(args, &format!("day{}", days.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let (day, store) = layers::carousel_day(&mut tr, &stack, &plan, &dir, spent.take())
            .expect("scratch store under out/");
        spent = Some(store);
        report.attempted += day.refreshes;
        for _ in 0..day.failures {
            report.fail(format!(
                "day {}: a slot did not decode to its artifact, or the restart missed",
                days.len()
            ));
        }
        days.push(day);
        if args.smoke || meter.time_is_up() {
            break;
        }
    }
    if let Some(store) = spent {
        store.remove().expect("scratch store under out/");
    }

    // Timings. Every day is the same day, so every refresh has one wall a
    // day, and counts at its median over the days. The first day is the
    // warm-up and is left out when there is another: its memory and its
    // store's page cache are new to the host (`layers::SpentStore`), which
    // makes it two to ten times as long as the others.
    let timed = if days.len() > 1 { &days[1..] } else { &days[..] };
    let median = |f: &dyn Fn(&layers::CarouselDay) -> f64| {
        stats::median(&timed.iter().map(f).collect::<Vec<_>>())
    };
    let first = &days[0];
    let pages = plan.order.len();
    // Per hour of the day: whether it is the cold one, its refreshes' walls,
    // and its wall with the scheduler's.
    let hours: Vec<(bool, Vec<f64>, f64)> = (0..first.hours.len())
        .map(|h| {
            let refresh_s: Vec<f64> = (0..pages)
                .map(|k| median(&|d| d.hours[h].refresh_s[k]))
                .collect();
            let wall_s = refresh_s.iter().sum::<f64>() + median(&|d| d.hours[h].scheduler_s);
            (first.hours[h].cold, refresh_s, wall_s)
        })
        .collect();
    let timed_hours = timed.len() * hours.len();
    // The day's carousel seconds over the day's wall: hit rate and all.
    const HOUR_S: f64 = 3600.0;
    let day_wall: f64 = hours.iter().map(|(_, _, wall_s)| wall_s).sum();
    report.put("unit_xrt", hours.len() as f64 * HOUR_S / day_wall, timed_hours);
    // What a changed page airs over what its refresh took, whatever the
    // share of pages that changed.
    let changed: Vec<f64> = hours
        .iter()
        .zip(&first.hours)
        .flat_map(|((_, refresh_s, _), aired)| {
            refresh_s
                .iter()
                .zip(&aired.air_s)
                .filter(|(_, &air_s)| air_s > 0.0)
                .map(|(wall_s, air_s)| air_s / wall_s)
        })
        .collect();
    report.put("tx_xrt", stats::median(&changed), changed.len() * timed.len());
    let wall_of = |cold: bool| -> (f64, usize) {
        let picked: Vec<f64> = hours
            .iter()
            .filter(|h| h.0 == cold)
            .map(|h| h.2)
            .collect();
        (picked.iter().sum(), picked.len())
    };
    let (cold_s, n) = wall_of(true);
    report.put(
        "refresh_cold_pages_per_s",
        (n * pages) as f64 / cold_s,
        n * timed.len(),
    );
    let (warm_s, n) = wall_of(false);
    report.put(
        "refresh_warm_pages_per_s",
        (n * pages) as f64 / warm_s,
        n * timed.len(),
    );
    report.put("restart_s", median(&|d| d.restart_s), timed.len());
    // Counts: the first day.
    let warm_hours: Vec<&layers::CarouselHour> = first.hours.iter().filter(|h| !h.cold).collect();
    let warm_pages = (warm_hours.len() * pages) as u64;
    let warm_air_s: f64 = warm_hours.iter().flat_map(|h| &h.air_s).sum();
    report.put(
        "air_s_per_page",
        warm_air_s / warm_pages as f64,
        warm_pages as usize,
    );
    let n = days.len();
    let warm = warm_pages as usize;
    report.put(
        "core.refresh.hit_frac",
        first.warm_unchanged as f64 / warm_pages as f64,
        warm,
    );
    report.put(
        "core.refresh.air_saved_frac",
        1.0 - first.warm_frames_aired / first.warm_frames_full,
        warm,
    );
    report.put("core.store.file_mb", first.store_file_mb, 1);
    if args.trace {
        let replays: Vec<_> = days.iter_mut().flat_map(|d| d.replays.drain(..)).collect();
        layers::replay_carousel(&mut tr, &stack, &plan, &replays);
        let cold_with_store: f64 = tr.durations("core.refresh_cold").iter().sum();
        let cold_ram_only: f64 = tr.durations("core.refresh_cold_ram").iter().sum();
        report.put(
            "core.store.write_s",
            (cold_with_store / n as f64 - cold_ram_only).max(0.0),
            n,
        );
    }

    let unit_s: Vec<f64> = days.iter().flat_map(|d| d.unit_s.iter().copied()).collect();
    report.finish(args, &meter, &tr, setup_s, &unit_s)
}

fn run_cluster(args: &Args, rng: &mut SplitMix) -> Outcome {
    let mut seeds: Vec<u64> = (0..CLUSTER_SOAKS).map(|_| rng.next_u64()).collect();
    if args.smoke {
        seeds.truncate(SMOKE_UNITS);
    }
    let dir = scratch_dir(args, "soak");

    let mut report = Outcome::new();
    // Set-up: one small soak (page cache of the binary, allocator, store
    // directory create and remove).
    let ((), setup_s) = timed_setup(|| {
        layers::cluster_soak(&mut Tracer::new(false), 0x5E70, &dir, true);
    });

    let meter = Meter::start(args.seconds);
    let mut tr = Tracer::new(args.trace);
    let mut first_pass: Vec<Soak> = Vec::with_capacity(seeds.len());
    let mut later: Vec<Soak> = Vec::new();
    'passes: for pass in 0.. {
        for (k, &seed) in seeds.iter().enumerate() {
            if pass > 0 && meter.time_is_up() {
                break 'passes;
            }
            let soak = layers::cluster_soak(&mut tr, seed, &dir, args.smoke);
            report.attempted += 1;
            if let Some(why) = soak.failure {
                report.fail(format!("pass {pass} soak {seed:#x}: {why}"));
            } else if pass > 0 && soak.report != first_pass[k].report {
                report.fail(format!(
                    "pass {pass} soak {seed:#x}: same seed, another report"
                ));
            }
            if pass == 0 {
                first_pass.push(soak);
            } else {
                later.push(soak);
            }
        }
        if args.smoke {
            break;
        }
    }
    // The same-seed replay the soak promises, when no second pass got to it.
    if later.is_empty() {
        let replay = layers::cluster_soak(&mut Tracer::new(false), seeds[0], &dir, args.smoke);
        report.attempted += 1;
        if replay.report != first_pass[0].report {
            report.fail(format!(
                "replay of soak {:#x}: same seed, another report",
                seeds[0]
            ));
        }
    }
    let unit_s: Vec<f64> = first_pass.iter().chain(&later).map(|s| s.wall_s).collect();
    if args.trace {
        report.attempted += 1;
        if !layers::net_roundtrip(&mut tr, if args.smoke { 1000 } else { NET_MESSAGES }) {
            report.fail("wire codec: a message did not come back equal".into());
        }
    }

    let all: Vec<&Soak> = first_pass.iter().chain(&later).collect();
    let ratio = |f: fn(&Soak) -> f64| -> Vec<f64> { all.iter().map(|s| f(s) / s.wall_s).collect() };
    report.put(
        "unit_xrt",
        stats::median(&ratio(|s| s.site_seconds)),
        all.len(),
    );
    report.put("tx_xrt", stats::median(&ratio(|s| s.air_s)), all.len());
    let air_s: f64 = first_pass.iter().map(|s| s.air_s).sum();
    let pages: f64 = first_pass.iter().map(|s| s.pages_completed).sum();
    report.put("air_s_per_page", air_s / pages, first_pass.len());

    report.finish(args, &meter, &tr, setup_s, &unit_s)
}

pub fn run(args: &Args) -> Outcome {
    std::fs::create_dir_all(&args.out_dir).expect("create the out directory");
    // One stream per workload, so a workload's inputs do not depend on which
    // others ran.
    let mut rng = SplitMix(args.seed ^ stats::SplitMix(args.workload as u64).next_u64());
    let outcome = match args.workload {
        Workload::TripCable | Workload::TripFm => run_trips(args, &mut rng),
        Workload::CarouselDay => run_carousel(args, &mut rng),
        Workload::ClusterDay => run_cluster(args, &mut rng),
    };
    remove_scratch(&args.out_dir, args.workload);
    outcome
}

/// Scratch directories of this process that a failed unit left behind.
fn remove_scratch(out_dir: &Path, workload: Workload) {
    let mine = format!("tmp-{}-{}-", workload.name(), std::process::id());
    let Ok(entries) = std::fs::read_dir(out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&mine) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}
