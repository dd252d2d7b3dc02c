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
//!    version ⇒ new page id in every frame). Gate: warm day ≥ 3.5x faster
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
//!    nothing airs, so nothing is modulated. Gate: ≥ 100x faster than the
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
//! Both gates come from nine full runs on the 2-core host the JSON names,
//! seven of them alternated with the parent commit's (every run is in
//! CHANGES.md, PR 16): the day read 3.76–4.13x and is gated at 3.5x, 7 %
//! under the slowest — the ratio's own run-to-run spread is ±5 %; the
//! restart read 330–375x and is gated at 100x, because its numerator is
//! 8 ms and one scheduler hiccup doubles it, while a restart that reads
//! waveforms back (1 s, the parent) or re-renders reads under 10x.
//!
//! Results (timings, pages/s, hit rates) go to `BENCH_broadcast.json` at
//! the repo root, alongside a static `baseline_pr3` block preserving the
//! pre-store numbers. `--smoke` runs a reduced corpus once and reports
//! ratios informationally — CI uses it to prove the bench builds and the
//! cache + disk-store paths work end to end (`SONIC_STORE_DIR` overrides
//! the store location; default is a self-cleaning temp dir).

use sonic_core::server::cache::{share_store, ArtifactCache, TieredCache};
use sonic_core::server::pipeline::{refresh_carousel, CarouselSlot, CarouselStats, PageJob};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_modem::Profile;
use sonic_pagegen::Corpus;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

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
    let t0 = Instant::now();
    let (cold, _) = refresh_carousel(renderer, &mut cache, &jobs_cold, profile);
    let cold_s = t0.elapsed().as_secs_f64();
    black_box(&cold);
    drop(cold);
    let t1 = Instant::now();
    let (warm, stats) = refresh_carousel(renderer, &mut cache, &jobs_warm, profile);
    let warm_s = t1.elapsed().as_secs_f64();
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
        let t = Instant::now();
        let (items, s) = refresh_carousel(renderer, &mut cache, &jobs, profile);
        warm_s += t.elapsed().as_secs_f64();
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
        let t = Instant::now();
        let (arts, _) = refresh_carousel(renderer, &mut cold_cache, &jobs, profile);
        cold_s += t.elapsed().as_secs_f64();
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

/// One warm-restart cycle (workload 4) in `dir` (wiped first): cold boot
/// onto an empty store, drop every handle, reopen and re-refresh. Returns
/// (boot s, restart s, promoted, restart misses, store entries, blob bytes).
fn warm_restart_cycle(
    renderer: &Renderer,
    profile: &Profile,
    hour: u64,
    dir: &std::path::Path,
) -> std::io::Result<(f64, f64, u64, u64, usize, u64)> {
    let jobs: Vec<PageJob> = renderer
        .corpus()
        .pages()
        .into_iter()
        .map(|id| PageJob { id, hour })
        .collect();
    let _ = std::fs::remove_dir_all(dir);

    let t0 = Instant::now();
    let store = share_store(ArtifactStore::open(dir, u64::MAX)?);
    let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store);
    let (cold, _) = refresh_carousel(renderer, &mut tiered, &jobs, profile);
    let boot_s = t0.elapsed().as_secs_f64();
    black_box(&cold);
    drop(tiered); // every in-RAM artifact and the store handle are gone

    let t1 = Instant::now();
    let store = share_store(ArtifactStore::open(dir, u64::MAX)?);
    let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store.clone());
    let (warm, _) = refresh_carousel(renderer, &mut tiered, &jobs, profile);
    let restart_s = t1.elapsed().as_secs_f64();
    black_box(&warm);
    let (entries, bytes) = {
        let s = store.borrow();
        (s.len(), s.live_bytes())
    };
    Ok((
        boot_s,
        restart_s,
        tiered.ram.stats.disk_promotions,
        tiered.ram.stats.misses,
        entries,
        bytes,
    ))
}

/// Where the numbers were taken: host name, OS and architecture.
fn host() -> String {
    let name = std::fs::read_to_string("/etc/hostname")
        .ok()
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_default();
    let name = name.trim();
    format!(
        "{} ({}/{})",
        if name.is_empty() { "unknown" } else { name },
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (corpus, scale, samples) = if smoke {
        (Corpus::small(6), 0.05, 1)
    } else {
        (
            Corpus::standard(),
            sonic_sim::experiments::env_or("SONIC_CACHE_BENCH_SCALE", 0.1),
            2,
        )
    };
    let hour = 12u64;
    let renderer = Renderer::new(corpus, scale);
    let profile = Profile::sonic_10k();

    let n_pages = renderer.corpus().pages().len();
    println!(
        "broadcast cache: {n_pages} pages at scale {scale}{}",
        if smoke { "  [smoke]" } else { "" }
    );

    // --- workloads 1 + 2: one broadcast day, run once -----------------------
    let day_hours = if smoke { 6 } else { 24 };
    let day = broadcast_day(&renderer, &profile, hour, day_hours);

    // Single hour-12→13 figure, comparable to baseline_pr3.hourly_churn.
    let (sh_cold, sh_warm, sh_stats) = churn_cycle(&renderer, &profile, hour);
    let sh_speedup = sh_cold / sh_warm;

    println!(
        "\nhourly churn refresh: broadcast day of {} transitions from hour {hour} \
         ({} active, {} quiet; {} page changes across the day)",
        day.day_hours,
        day.active_hours,
        day.day_hours - day.active_hours,
        day.changed_pages
    );
    let churn_speedup = day.cold_s / day.warm_s;
    let churn_need = if smoke { 0.0 } else { 3.5 };
    let churn_pass = churn_speedup >= churn_need;
    println!(
        "  cold day {:>8.3} s   warm day {:>8.3} s   speedup {churn_speedup:.2}x \
         (need >= {churn_need:.1}x)  ({} full hits / {} delta / {} cold)  [{}]",
        day.cold_s,
        day.warm_s,
        day.stats.unchanged,
        day.stats.delta_slots,
        day.stats.full_slots,
        if smoke {
            "info"
        } else if churn_pass {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "  single hour {hour}->{}: cold {sh_cold:.3} s  warm {sh_warm:.3} s  \
         speedup {sh_speedup:.2}x ({} delta pages; PR3 baseline 2.14x)",
        hour + 1,
        sh_stats.delta_slots
    );

    // --- workload 2: incremental delta carousel ----------------------------
    let air_saved_pct = if day.air_naive > 0 {
        100.0 * (1.0 - day.air_inc as f64 / day.air_naive as f64)
    } else {
        0.0
    };
    println!(
        "\ndelta carousel: that day's slots: {} unchanged / {} delta / {} full;  air {} B vs \
         naive {} B ({air_saved_pct:.1}% saved; full-width corpus churn makes deltas span \
         every column)",
        day.stats.unchanged,
        day.stats.delta_slots,
        day.stats.full_slots,
        day.air_inc,
        day.air_naive
    );

    // --- workload 3: warm restart from the disk store ----------------------
    let store_dir = StoreDir::new();
    let restart_hour = 6u64;
    println!(
        "\nwarm restart: hour-{restart_hour} corpus through the disk store at {}",
        store_dir.path.display()
    );
    let mut boot_s = f64::INFINITY;
    let mut restart_s = f64::INFINITY;
    let (mut promoted, mut restart_misses, mut store_entries, mut store_bytes) =
        (0u64, 0u64, 0usize, 0u64);
    for _ in 0..samples.max(1) {
        let (b, r, p, m, e, by) = warm_restart_cycle(&renderer, &profile, restart_hour, &store_dir.path)
            .expect("store io");
        boot_s = boot_s.min(b);
        if r < restart_s {
            restart_s = r;
            promoted = p;
            restart_misses = m;
            store_entries = e;
            store_bytes = by;
        }
    }
    assert_eq!(promoted, n_pages as u64, "every page must promote from disk");
    assert_eq!(restart_misses, 0, "a restart must never re-render");
    let restart_speedup = boot_s / restart_s;
    let restart_need = if smoke { 0.0 } else { 100.0 };
    let restart_pass = restart_speedup >= restart_need;
    println!(
        "  cold boot {boot_s:>7.3} s   restart {restart_s:>7.3} s   speedup \
         {restart_speedup:.2}x (need >= {restart_need:.1}x)  [{}]",
        if smoke {
            "info"
        } else if restart_pass {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "  {promoted} pages promoted, 0 misses; store: {store_entries} entries, \
         {store_bytes} blob bytes"
    );

    // --- workload 4: ticker carousel (counts only) -------------------------
    let ticker = if smoke {
        sonic_sim::carousel::run_ticker_carousel(Corpus::small(3), 0.05, 2, 0.15)
    } else {
        sonic_sim::carousel::run_ticker_carousel(Corpus::small(8), 0.1, 3, 0.15)
    };
    assert_eq!(ticker.decode_mismatches, 0, "ticker carousel must decode clean");
    let ticker_saved_pct = if ticker.air_bytes_full_carousel > 0 {
        100.0 * (1.0 - ticker.air_bytes_incremental as f64 / ticker.air_bytes_full_carousel as f64)
    } else {
        0.0
    };
    println!(
        "\nticker carousel (partial-width updates): {} delta slots, air {} B vs naive {} B \
         ({ticker_saved_pct:.1}% saved), {} columns patched from prior rasters, 0 mismatches",
        ticker.delta_slots,
        ticker.air_bytes_incremental,
        ticker.air_bytes_full_carousel,
        ticker.columns_patched
    );

    // Machine-readable results at the repo root.
    let json = format!(
        "{{\n  \"bench\": \"perf_broadcast_cache\",\n  \"smoke\": {smoke},\n  \
         \"host\": \"{}\",\n  \"cores\": {},\n  \
         \"pages\": {n_pages},\n  \"scale\": {scale},\n  \
         \"baseline_pr3\": {{\n    \"strip_mutation_speedup\": 11.439,\n    \
         \"hourly_churn_speedup\": 2.144\n  }},\n  \
         \"hourly_churn\": {{\n    \"day_hours\": {},\n    \
         \"active_hours\": {},\n    \"changed_pages_day\": {},\n    \
         \"cold_day_s\": {:.6},\n    \"warm_day_s\": {:.6},\n    \
         \"speedup\": {churn_speedup:.3},\n    \"full_hits\": {},\n    \
         \"delta_hits\": {},\n    \"misses\": {},\n    \
         \"single_hour\": {{\n      \"cold_s\": {sh_cold:.6},\n      \
         \"warm_s\": {sh_warm:.6},\n      \"speedup\": {sh_speedup:.3}\n    }}\n  }},\n  \
         \"delta_carousel\": {{\n    \"cold_day_s\": {:.6},\n    \
         \"warm_day_s\": {:.6},\n    \"speedup\": {churn_speedup:.3},\n    \
         \"unchanged\": {},\n    \"delta_slots\": {},\n    \"full_slots\": {},\n    \
         \"air_bytes_incremental\": {},\n    \"air_bytes_naive\": {},\n    \
         \"air_saved_pct\": {air_saved_pct:.2}\n  }},\n  \
         \"warm_restart\": {{\n    \"hour\": {restart_hour},\n    \
         \"cold_boot_s\": {boot_s:.6},\n    \"restart_s\": {restart_s:.6},\n    \
         \"speedup\": {restart_speedup:.3},\n    \"promoted_pages\": {promoted},\n    \
         \"store_entries\": {store_entries},\n    \"store_blob_bytes\": {store_bytes}\n  }},\n  \
         \"ticker_carousel\": {{\n    \"delta_slots\": {},\n    \
         \"air_bytes_incremental\": {},\n    \"air_bytes_naive\": {},\n    \
         \"air_saved_pct\": {ticker_saved_pct:.2},\n    \"columns_patched\": {}\n  }}\n}}\n",
        host(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        day.day_hours,
        day.active_hours,
        day.changed_pages,
        day.cold_s,
        day.warm_s,
        day.stats.unchanged,
        day.stats.delta_slots,
        day.stats.full_slots,
        day.cold_s,
        day.warm_s,
        day.stats.unchanged,
        day.stats.delta_slots,
        day.stats.full_slots,
        day.air_inc,
        day.air_naive,
        ticker.delta_slots,
        ticker.air_bytes_incremental,
        ticker.air_bytes_full_carousel,
        ticker.columns_patched,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_broadcast.json");
    match std::fs::write(&out, json) {
        Ok(()) => println!("\nresults written to {}", out.display()),
        Err(e) => println!("\ncould not write {}: {e}", out.display()),
    }

    if !(churn_pass && restart_pass) {
        println!("perf_broadcast_cache: acceptance check FAILED");
        std::process::exit(1);
    }
    println!("perf_broadcast_cache: acceptance check PASS");
}
