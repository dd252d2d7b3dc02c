//! Performance acceptance bench for the content-addressed broadcast
//! artifact cache.
//!
//! Over the standard 100-page corpus through `refresh_carousel` (render →
//! strip encode → chunk, then OFDM-modulate exactly what each slot airs —
//! no tier caches audio, so the cold station and the warm one both modulate
//! only what they put on air):
//!
//! 1. **Hourly churn refresh over a broadcast day**. A SONIC station
//!    broadcasts around the clock, so the honest unit of account is the
//!    day, not the hour: 24 hourly transitions starting at hour 12,
//!    including the corpus' documented nightly freeze (hours 0–5, when
//!    nothing changes and a warm refresh proves it off layout hashes
//!    alone). Cold = a station with no cache rebuilds and airs every page
//!    every hour; warm = one cache carried across the whole day, unchanged
//!    pages air nothing. Each active hour mutates ~15–22 churn-heavy news
//!    pages whose re-render + re-encode + modulation is mandatory (new
//!    version ⇒ new page id in every frame). Gate: warm day ≥ 2.8x faster
//!    than the cold day. The single hour-12→13 figure is also reported for
//!    continuity with the PR3 baseline.
//! 2. **Incremental delta carousel**. The slots of that same warm day
//!    (there is one refresh path, so the day runs once and both JSON blocks
//!    are written from it): unchanged pages air nothing, changed pages take
//!    delta slots (meta bracket + changed columns' chunks). Air-byte
//!    accounting against a naive full-page carousel.
//! 3. **Warm restart**. Hour-6 corpus built onto the disk artifact store,
//!    all RAM state dropped, store reopened from its index log, hour
//!    re-refreshed: every page must promote from disk (zero misses) and
//!    nothing airs, so nothing is modulated. Gate: ≥ 270x faster than the
//!    cold boot that seeded it.
//! 4. **Ticker carousel** (counts only): the partial-width update regime
//!    via `sonic_sim::carousel::run_ticker_carousel` — a band of columns
//!    changes under a new version — where column deltas cut air bytes
//!    outright and every decode is checked through the receiver. The
//!    former strip-mutation section re-pushed edited pixels under an
//!    unchanged page id, which no receiver re-assembles, to exercise the
//!    burst splice; with the splice gone and the version bumped it is this
//!    workload, so it was folded in here. Its ≥ 5x gate was met by the 85 %
//!    of pages that were unchanged alone, which (1) already measures.
//!
//! Both gates are 0.8 × the worst ratio in the full runs on the 2-core host
//! the JSON names (every run is in CHANGES.md, PR 24): the day read
//! 3.54–4.69x there (PR 16's nine runs: 3.76–4.13x, which is why its 3.5x
//! gate had to go — it sat 1 % under this round's slowest), the restart
//! 344–438x. The restart's numerator is 9 ms, so one scheduler hiccup
//! doubles it: it is the median of three cycles, and a restart that reads
//! waveforms back (1 s) or re-renders reads under 10x.
//!
//! A full run's results (timings, hit counts, air bytes) go to
//! `BENCH_broadcast.json` at the repo root, alongside the two `baseline_pr3`
//! rows preserving the pre-store numbers. `--smoke` runs a reduced corpus
//! once and reports ratios informationally — CI uses it to prove the bench
//! builds and the cache + disk-store paths work end to end
//! (`SONIC_STORE_DIR` overrides the store location; default is a
//! self-cleaning temp dir).

use sonic_bench::{timed, Bound, Report, Timing};
use sonic_core::server::cache::{share_store, ArtifactCache, TieredCache};
use sonic_core::server::pipeline::{refresh_carousel, CarouselSlot, CarouselStats, PageJob};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_modem::Profile;
use sonic_pagegen::Corpus;
use std::hint::black_box;
use std::path::PathBuf;

/// The store directory: `SONIC_STORE_DIR` if set (CI points this at its
/// runner temp), else a per-process temp dir removed on drop so repeated
/// bench runs leave nothing behind.
struct StoreDir {
    path: PathBuf,
    ephemeral: bool,
}

impl StoreDir {
    fn new() -> Self {
        match std::env::var_os("SONIC_STORE_DIR") {
            Some(p) => StoreDir {
                path: PathBuf::from(p),
                ephemeral: false,
            },
            None => StoreDir {
                path: std::env::temp_dir().join(format!("sonic-store-{}", std::process::id())),
                ephemeral: true,
            },
        }
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// One cold-build + hourly-churn-refresh cycle on a fresh cache: the
/// single-transition figure kept for continuity with the PR3 baseline.
fn churn_cycle(renderer: &Renderer, profile: &Profile, hour: u64) -> (f64, f64, CarouselStats) {
    let jobs_cold = jobs_at(renderer, hour);
    let jobs_warm = jobs_at(renderer, hour + 1);
    let mut cache = ArtifactCache::unbounded();
    let ((cold, _), cold_s) = timed(|| refresh_carousel(renderer, &mut cache, &jobs_cold, profile));
    black_box(&cold);
    drop(cold);
    let ((warm, stats), warm_s) = timed(|| refresh_carousel(renderer, &mut cache, &jobs_warm, profile));
    black_box(&warm);
    (cold_s, warm_s, stats)
}

fn jobs_at(renderer: &Renderer, hour: u64) -> Vec<PageJob> {
    renderer
        .corpus()
        .pages()
        .into_iter()
        .map(|id| PageJob { id, hour })
        .collect()
}

fn add_carousel_stats(acc: &mut CarouselStats, s: &CarouselStats) {
    acc.pages += s.pages;
    acc.unchanged += s.unchanged;
    acc.full_slots += s.full_slots;
    acc.delta_slots += s.delta_slots;
    acc.full_frames += s.full_frames;
    acc.delta_frames += s.delta_frames;
    acc.columns_changed += s.columns_changed;
    acc.columns_total += s.columns_total;
}

/// Aggregate results of one simulated broadcast day (workloads 1 and 2).
struct DayResults {
    /// Hourly transitions simulated.
    day_hours: usize,
    /// Transitions where at least one page changed (the rest are the
    /// corpus' nightly freeze).
    active_hours: usize,
    /// Page changes summed across the day.
    changed_pages: usize,
    /// Total cold time: every page rebuilt from scratch, every hour.
    cold_s: f64,
    /// Total warm time through `refresh_carousel` with one day-long cache.
    warm_s: f64,
    stats: CarouselStats,
    /// Air bytes a naive carousel would spend (full frames for every page
    /// that airs), summed over the day.
    air_naive: usize,
    /// Air bytes the incremental carousel actually schedules.
    air_inc: usize,
}

/// Simulates one broadcast day: `day_hours` hourly transitions following
/// `start_hour`. Two passes over the same hours — the warm day
/// (`refresh_carousel`, one cache primed untimed at `start_hour`, slots
/// and air bytes counted), then the cold baseline (fresh cache every hour,
/// the no-cache station). The cold pass runs last, after the allocator is
/// fully warm, which can only flatter it.
fn broadcast_day(
    renderer: &Renderer,
    profile: &Profile,
    start_hour: u64,
    day_hours: usize,
) -> DayResults {
    let hours: Vec<u64> = (1..=day_hours as u64).map(|k| start_hour + k).collect();
    let ids = renderer.corpus().pages();
    let (mut changed_pages, mut active_hours) = (0usize, 0usize);
    for &h in &hours {
        let n = ids
            .iter()
            .filter(|&&id| renderer.corpus().changed(id, h - 1, h))
            .count();
        changed_pages += n;
        active_hours += (n > 0) as usize;
    }

    // Warm day: one cache across it, slots + air accounting.
    let mut cache = ArtifactCache::unbounded();
    let (prime, _) = refresh_carousel(renderer, &mut cache, &jobs_at(renderer, start_hour), profile);
    black_box(&prime);
    drop(prime);
    let mut warm_s = 0.0;
    let mut stats = CarouselStats::default();
    let (mut air_naive, mut air_inc) = (0usize, 0usize);
    for &h in &hours {
        let jobs = jobs_at(renderer, h);
        let ((items, s), hour_s) = timed(|| refresh_carousel(renderer, &mut cache, &jobs, profile));
        warm_s += hour_s;
        air_naive += items
            .iter()
            .filter(|i| !matches!(i.slot, CarouselSlot::Unchanged))
            .map(|i| i.artifact.frames.len() * sonic_core::frame::FRAME_SIZE)
            .sum::<usize>();
        air_inc += (s.full_frames + s.delta_frames) * sonic_core::frame::FRAME_SIZE;
        black_box(&items);
        add_carousel_stats(&mut stats, &s);
    }
    drop(cache);

    // Cold baseline: a station with no cache rebuilds everything hourly.
    let mut cold_s = 0.0;
    for &h in &hours {
        let jobs = jobs_at(renderer, h);
        let mut cold_cache = ArtifactCache::unbounded();
        let ((arts, _), hour_s) = timed(|| refresh_carousel(renderer, &mut cold_cache, &jobs, profile));
        cold_s += hour_s;
        black_box(&arts);
    }

    DayResults {
        day_hours,
        active_hours,
        changed_pages,
        cold_s,
        warm_s,
        stats,
        air_naive,
        air_inc,
    }
}

/// What a warm restart found on disk.
struct RestartCounts {
    promoted: u64,
    misses: u64,
    store_entries: usize,
    store_bytes: u64,
}

/// One warm-restart cycle (workload 3) in `dir` (wiped first): cold boot
/// onto an empty store, drop every handle, reopen and re-refresh. Returns
/// (boot s, restart s, what the restart found).
fn warm_restart_cycle(
    renderer: &Renderer,
    profile: &Profile,
    hour: u64,
    dir: &std::path::Path,
) -> std::io::Result<(f64, f64, RestartCounts)> {
    let jobs = jobs_at(renderer, hour);
    let _ = std::fs::remove_dir_all(dir);

    let (booted, boot_s) = timed(|| -> std::io::Result<_> {
        let store = share_store(ArtifactStore::open(dir, u64::MAX)?);
        let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store);
        let (cold, _) = refresh_carousel(renderer, &mut tiered, &jobs, profile);
        Ok((tiered, cold))
    });
    let (tiered, cold) = booted?;
    black_box(&cold);
    drop(tiered); // every in-RAM artifact and the store handle are gone

    let (restarted, restart_s) = timed(|| -> std::io::Result<_> {
        let store = share_store(ArtifactStore::open(dir, u64::MAX)?);
        let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store.clone());
        let (warm, _) = refresh_carousel(renderer, &mut tiered, &jobs, profile);
        Ok((store, tiered, warm))
    });
    let (store, tiered, warm) = restarted?;
    black_box(&warm);
    let store = store.borrow();
    Ok((
        boot_s,
        restart_s,
        RestartCounts {
            promoted: tiered.ram.stats.disk_promotions,
            misses: tiered.ram.stats.misses,
            store_entries: store.len(),
            store_bytes: store.live_bytes(),
        },
    ))
}

/// Percentage of `naive` air bytes the `incremental` carousel did not spend.
fn saved_pct(incremental: usize, naive: usize) -> f64 {
    if naive > 0 {
        100.0 * (1.0 - incremental as f64 / naive as f64)
    } else {
        0.0
    }
}

fn main() {
    let mut r = Report::from_args("perf_broadcast_cache", "broadcast");
    let smoke = r.smoke();
    let (corpus, scale, restart_cycles) = if smoke {
        (Corpus::small(6), 0.05, 1)
    } else {
        (Corpus::standard(), 0.1, 3)
    };
    let hour = 12u64;
    let renderer = Renderer::new(corpus, scale);
    let profile = Profile::sonic_10k();
    let n_pages = renderer.corpus().pages().len();
    r.row("pages", n_pages as f64, "count");
    r.row("scale", scale, "x");
    // The pre-store numbers (PR 3), kept for the trajectory.
    r.row("baseline_pr3.strip_mutation_speedup", 11.439, "x");
    r.row("baseline_pr3.hourly_churn_speedup", 2.144, "x");

    // --- workloads 1 + 2: one broadcast day, run once -----------------------
    let day = broadcast_day(&renderer, &profile, hour, if smoke { 6 } else { 24 });
    println!(
        "\nhourly churn refresh: broadcast day of {} transitions from hour {hour}",
        day.day_hours
    );
    r.row("day.hours", day.day_hours as f64, "h");
    r.row("day.active_hours", day.active_hours as f64, "h");
    r.row("day.changed_pages", day.changed_pages as f64, "count");
    r.row("day.cold_s", day.cold_s, "s");
    r.row("day.warm_s", day.warm_s, "s");
    r.gate("day.speedup", day.cold_s / day.warm_s, "x", Bound::AtLeast(2.8));
    r.row("day.unchanged", day.stats.unchanged as f64, "count");
    r.row("day.delta_slots", day.stats.delta_slots as f64, "count");
    r.row("day.full_slots", day.stats.full_slots as f64, "count");

    // Single hour-12→13 figure, comparable to baseline_pr3.hourly_churn.
    let (sh_cold, sh_warm, sh_stats) = churn_cycle(&renderer, &profile, hour);
    r.row("single_hour.cold_s", sh_cold, "s");
    r.row("single_hour.warm_s", sh_warm, "s");
    r.row("single_hour.speedup", sh_cold / sh_warm, "x");
    r.row("single_hour.delta_slots", sh_stats.delta_slots as f64, "count");

    // --- workload 2: incremental delta carousel ----------------------------
    // Full-width corpus churn makes deltas span every column, so the day's
    // saving is in the slots that do not air, not inside the ones that do.
    println!("\ndelta carousel: that day's air bytes against a naive full-page carousel");
    r.row("day.air_bytes_incremental", day.air_inc as f64, "B");
    r.row("day.air_bytes_naive", day.air_naive as f64, "B");
    r.row("day.air_saved_pct", saved_pct(day.air_inc, day.air_naive), "%");

    // --- workload 3: warm restart from the disk store ----------------------
    let store_dir = StoreDir::new();
    let restart_hour = 6u64;
    println!(
        "\nwarm restart: hour-{restart_hour} corpus through the disk store at {}",
        store_dir.path.display()
    );
    let cycles: Vec<(f64, f64, RestartCounts)> = (0..restart_cycles)
        .map(|_| warm_restart_cycle(&renderer, &profile, restart_hour, &store_dir.path).expect("store io"))
        .collect();
    let boot = Timing::of(&cycles.iter().map(|c| c.0).collect::<Vec<_>>());
    let restart = Timing::of(&cycles.iter().map(|c| c.1).collect::<Vec<_>>());
    let every_page_promoted = cycles
        .iter()
        .all(|(_, _, c)| c.promoted == n_pages as u64 && c.misses == 0);
    let counts = &cycles.last().expect("at least one restart cycle").2;
    r.row("warm_restart.hour", restart_hour as f64, "h");
    r.timing("warm_restart.cold_boot", boot);
    r.timing("warm_restart.restart", restart);
    r.gate(
        "warm_restart.speedup",
        boot.median_s / restart.median_s,
        "x",
        Bound::AtLeast(270.0),
    );
    r.row("warm_restart.promoted_pages", counts.promoted as f64, "count");
    r.row("warm_restart.store_entries", counts.store_entries as f64, "count");
    r.row("warm_restart.store_blob_bytes", counts.store_bytes as f64, "B");
    // A restart must promote every page from disk and never re-render.
    r.check("warm_restart.every_page_promoted_no_miss", every_page_promoted);

    // --- workload 4: ticker carousel (counts only) -------------------------
    println!("\nticker carousel (partial-width updates), every decode checked through the receiver");
    let ticker = if smoke {
        sonic_sim::carousel::run_ticker_carousel(Corpus::small(3), 0.05, 2, 0.15)
    } else {
        sonic_sim::carousel::run_ticker_carousel(Corpus::small(8), 0.1, 3, 0.15)
    };
    r.row("ticker.delta_slots", ticker.delta_slots as f64, "count");
    r.row("ticker.air_bytes_incremental", ticker.air_bytes_incremental as f64, "B");
    r.row("ticker.air_bytes_naive", ticker.air_bytes_full_carousel as f64, "B");
    r.row(
        "ticker.air_saved_pct",
        saved_pct(ticker.air_bytes_incremental, ticker.air_bytes_full_carousel),
        "%",
    );
    r.row("ticker.columns_patched", ticker.columns_patched as f64, "count");
    r.check("ticker.decodes_clean", ticker.decode_mismatches == 0);

    drop(store_dir); // `finish` exits the process: nothing after it is dropped
    r.finish()
}
