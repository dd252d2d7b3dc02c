//! The paper's evaluation (§4) on the one harness: Figure 1, Figure 4(a)–(c),
//! Figure 5, §4 "Variable RSSI", the rate table, the two ablations and the
//! inner code's FER curve. Each is a `sonic_sim::experiments` module run at
//! its `Config::default()`, and every number it yields is a named row of
//! `BENCH_paper.json`; EXPERIMENTS.md names the row behind each claim.
//!
//! Rows are `<experiment>.<point>.<statistic>` (`fig4a.100cm.median`,
//! `rssi.-88dB.mean`, `fig5.content.20pct.interp.median`). Losses are
//! fractions, image sizes KB, the Fig 4(c) hourly backlog bytes. Each
//! experiment's wall time is the timing row `<experiment>.wall`.
//!
//! The shape claims EXPERIMENTS.md ticks are gates, enforced in a full run:
//! no loss over cable and up to 50 cm of air, none from −65 to −85 dB and
//! every frame lost at −92 dB, Fig 4(b)'s quality ordering, Fig 4(c)'s
//! rarely-idle and draining series, interpolation's lift of at least one
//! point at every Fig 5 loss rate, text never above content, no rating
//! rising with loss, and the integer Viterbi decoder within 0.1 dB of the
//! `f32` one at FER 1e-2.
//!
//! `--smoke` shrinks every experiment's input (a struct update on its
//! default; Fig 4(b)/(c)'s size table reads a two-site corpus) to seconds
//! and writes nothing. A full run also writes Figure 1's three PPMs
//! to `target/fig1` under the bench crate.

use sonic_bench::{timed, Bound, Report, Timing};
use sonic_image::interpolate::{blackout, recover, LossMask};
use sonic_image::metrics::{edge_integrity, psnr};
use sonic_image::pgm::save_ppm;
use sonic_pagegen::{Corpus, PageId};
use sonic_sim::experiments::sizes::{SizeConfig, SizeTable};
use sonic_sim::experiments::{ablation, fig4a, fig4b, fig4c, fig5, rates, rssi, viterbi};
use sonic_sim::stats::BoxStats;
use sonic_sim::study::Question;
use std::path::Path;

/// Figure 1's render scale.
const FIG1_SCALE: f64 = 0.3;
/// Ablation A1's air distance in metres, and its repetitions.
const ABL_FEC_DISTANCE_M: f64 = 0.8;
const ABL_FEC_REPS: usize = 5;
/// Ablation A2's fraction of damaged columns, its pages and render scale.
const ABL_INTERP_LOSS: f64 = 0.2;
const ABL_INTERP_PAGES: usize = 12;
const ABL_INTERP_SCALE: f64 = 0.15;
/// The most the integer Viterbi decoder may need over the `f32` one at
/// FER 1e-2, in dB.
const MAX_LOSS_DB: f64 = 0.1;

fn main() {
    let mut r = Report::from_args("paper", "paper");
    fig1(&mut r);
    fig4a(&mut r);
    fig4b_and_c(&mut r);
    fig5(&mut r);
    rssi(&mut r);
    rates(&mut r);
    ablations(&mut r);
    viterbi(&mut r);
    r.finish()
}

/// Runs `f` and records its wall time as `<name>.wall`.
fn wall<T>(r: &mut Report, name: &str, f: impl FnOnce() -> T) -> T {
    let (out, s) = timed(f);
    r.timing(&format!("{name}.wall"), Timing::of(&[s]));
    out
}

/// `<name>.{min,q1,median,q3,max}`, each a gate where `bound(stat)` gives one.
fn box_rows(
    r: &mut Report,
    name: &str,
    s: &BoxStats,
    unit: &'static str,
    bound: impl Fn(&str) -> Option<Bound>,
) {
    let stats = [("min", s.min), ("q1", s.q1), ("median", s.median), ("q3", s.q3), ("max", s.max)];
    for (stat, v) in stats {
        let name = format!("{name}.{stat}");
        match bound(stat) {
            Some(b) => r.gate(&name, v, unit, b),
            None => r.row(&name, v, unit),
        }
    }
}

fn fig1(r: &mut Report) {
    let (clean, lossy, fixed) = wall(r, "fig1", || {
        let page = Corpus::standard().render(PageId { site: 0, page: 0 }, 9, FIG1_SCALE);
        let (w, h) = (page.raster.width(), page.raster.height());
        let mask = LossMask::random(w, h, 0.10, 0xF161);
        let lossy = blackout(&page.raster, &mask);
        let fixed = recover(&page.raster, &mask);
        (page.raster, lossy, fixed)
    });
    for (name, img) in [("fig1.loss10", &lossy), ("fig1.loss10_interp", &fixed)] {
        r.row(&format!("{name}.psnr"), psnr(&clean, img), "dB");
        r.row(&format!("{name}.edge"), edge_integrity(&clean, img), "frac");
    }
    if !r.smoke() {
        let dir = Path::new("target/fig1");
        std::fs::create_dir_all(dir).expect("create target/fig1");
        let images = [("clean", &clean), ("loss10", &lossy), ("loss10_interpolated", &fixed)];
        for (file, img) in images {
            save_ppm(img, &dir.join(format!("{file}.ppm"))).expect("write a Figure 1 PPM");
        }
    }
}

fn fig4a(r: &mut Report) {
    let cfg = if r.smoke() {
        fig4a::Config { reps: 2, bursts_per_rep: 1, ..Default::default() }
    } else {
        fig4a::Config::default()
    };
    for d in wall(r, "fig4a", || fig4a::run_experiment(&cfg)) {
        let name = if d.distance_m <= 0.0 {
            "fig4a.cable".to_string()
        } else {
            format!("fig4a.{:.0}cm", d.distance_m * 100.0)
        };
        // Cable and the first half metre of air lose nothing.
        let clean = d.distance_m <= 0.5;
        box_rows(r, &name, &d.summary, "frac", |stat| {
            (clean && stat == "max").then_some(Bound::AtMost(0.0))
        });
    }
}

/// Figures 4(b) and 4(c) read one full-scale size table: Fig 4(b)'s curves
/// over its snapshots and Q10/PH10k over Fig 4(c)'s hours. Building it is
/// nearly all of `fig4b.wall`, Fig 4(c)'s hours included.
fn fig4b_and_c(r: &mut Report) {
    let (corpus, b_cfg, c_cfg) = if r.smoke() {
        let b_cfg = fig4b::Config { hours: 2, ..Default::default() };
        (Corpus::small(2), b_cfg, fig4c::Config { hours: 6, ..Default::default() })
    } else {
        (Corpus::standard(), fig4b::Config::default(), fig4c::Config::default())
    };
    let mut wants: Vec<_> = b_cfg.configs.iter().map(|&c| (c, b_cfg.hours)).collect();
    wants.push((SizeConfig::paper_default(), c_cfg.hours));
    let (sizes, res) = wall(r, "fig4b", || {
        let sizes = SizeTable::build(corpus, &wants);
        let res = fig4b::run_experiment(&b_cfg, &sizes);
        (sizes, res)
    });
    for c in &res.curves {
        let ph = c.config.pixel_height.map_or("none".to_string(), |p| format!("{}k", p / 1000));
        let name = format!("fig4b.q{}_ph{ph}", c.config.quality);
        let stats = [("p10", 10.0), ("p50", 50.0), ("p75", 75.0), ("p90", 90.0), ("max", 100.0)];
        for (stat, p) in stats {
            r.row(&format!("{name}.{stat}"), c.percentile(p) / 1024.0, "KB");
        }
    }
    // Quality orders the cropped curves' medians.
    let p50 = |q: u8| {
        let cropped = |c: &&fig4b::Curve| c.config.quality == q && c.config.pixel_height.is_some();
        res.curves.iter().find(cropped).expect("a cropped curve at each quality").percentile(50.0)
    };
    r.gate("fig4b.p50.q50_over_q10", p50(50) / p50(10), "x", Bound::AtLeast(1.0));
    r.gate("fig4b.p50.q90_over_q50", p50(90) / p50(50), "x", Bound::AtLeast(1.0));

    let res = wall(r, "fig4c", || fig4c::run_experiment(&c_cfg, &sizes));
    r.row("fig4c.inflow_n100", res.inflow_bps_n100, "bit/s");
    let hours = c_cfg.hours as f64;
    for (s, t) in &res.traces {
        let name = format!("fig4c.{}kbps_n{}", s.rate_bps / 1000, s.n_pages);
        let backlog = &t.hourly_backlog;
        let peak = backlog.iter().copied().fold(0.0, f64::max);
        r.row(&format!("{name}.peak"), peak / 1e6, "MB");
        let mean = backlog.iter().sum::<f64>() / backlog.len() as f64;
        r.row(&format!("{name}.mean"), mean / 1e6, "MB");
        // 10 kbps for 100 pages, and 20 kbps for 200, rarely reach zero
        // (at most one hour in ten); 20 and 40 kbps for 100 drain most hours.
        let idle = match (s.rate_bps, s.n_pages) {
            (10_000, 100) | (20_000, 200) => Bound::AtMost(hours / 10.0),
            _ => Bound::AtLeast(hours / 2.0),
        };
        r.gate(&format!("{name}.idle_hours"), t.idle_hours as f64, "h", idle);
        r.row(&format!("{name}.final"), backlog.last().copied().unwrap_or(0.0) / 1e6, "MB");
        for (h, bytes) in backlog.iter().enumerate() {
            r.row(&format!("{name}.h{h:02}"), *bytes, "B");
        }
    }
}

fn fig5(r: &mut Report) {
    let cfg = if r.smoke() {
        fig5::Config { n_pages: 4, scale: 0.1, ..Default::default() }
    } else {
        fig5::Config::default()
    };
    let cells = wall(r, "fig5", || fig5::run_experiment(&cfg));
    let median = |loss, interp, q| fig5::cell(&cells, loss, interp, q).summary.median;
    let (mut content_minus_text, mut rise_with_loss) = (f64::INFINITY, f64::NEG_INFINITY);
    for q in [Question::Content, Question::Text] {
        let question = if q == Question::Content { "content" } else { "text" };
        for (k, &loss) in cfg.loss_rates.iter().enumerate() {
            let name = format!("fig5.{question}.{:.0}pct", loss * 100.0);
            for (interp, approach) in [(false, "blackout"), (true, "interp")] {
                let summary = &fig5::cell(&cells, loss, interp, q).summary;
                box_rows(r, &format!("{name}.{approach}"), summary, "rating", |_| None);
                if k > 0 {
                    let rise = median(loss, interp, q) - median(cfg.loss_rates[k - 1], interp, q);
                    rise_with_loss = rise_with_loss.max(rise);
                }
                if q == Question::Text {
                    let gap = median(loss, interp, Question::Content) - median(loss, interp, q);
                    content_minus_text = content_minus_text.min(gap);
                }
            }
            let lift = median(loss, true, q) - median(loss, false, q);
            r.gate(&format!("{name}.lift"), lift, "rating", Bound::AtLeast(1.0));
        }
    }
    r.gate("fig5.content_minus_text.min", content_minus_text, "rating", Bound::AtLeast(0.0));
    r.gate("fig5.rise_with_loss.max", rise_with_loss, "rating", Bound::AtMost(0.0));
}

fn rssi(r: &mut Report) {
    let cfg = if r.smoke() {
        rssi::Config { reps: 2, bursts_per_rep: 1, ..Default::default() }
    } else {
        rssi::Config::default()
    };
    for p in wall(r, "rssi", || rssi::run_experiment(&cfg)) {
        let name = format!("rssi.{:.0}dB", p.rssi_db);
        r.row(&format!("{name}.mean"), p.mean_loss, "frac");
        // No loss from −65 to −85 dB; nothing received at −92 dB.
        box_rows(r, &name, &p.summary, "frac", |stat| match stat {
            "max" if p.rssi_db >= -85.0 => Some(Bound::AtMost(0.0)),
            "min" if p.rssi_db <= -92.0 => Some(Bound::AtLeast(1.0)),
            _ => None,
        });
    }
}

fn rates(r: &mut Report) {
    for row in wall(r, "rates", rates::run_experiment) {
        r.row(&format!("rates.{}.raw", row.name), row.raw_bps, "bit/s");
        if let Some(net) = row.measured_bps {
            r.row(&format!("rates.{}.net", row.name), net, "bit/s");
        }
    }
}

fn ablations(r: &mut Report) {
    let (fec_reps, interp_pages) =
        if r.smoke() { (1, 2) } else { (ABL_FEC_REPS, ABL_INTERP_PAGES) };
    let fec = wall(r, "ablation_fec", || {
        ablation::run_fec_ablation(ABL_FEC_DISTANCE_M, fec_reps, 0xAB1)
    });
    for row in fec {
        r.row(&format!("ablation_fec.{}.code_rate", row.name), row.code_rate, "x");
        r.row(&format!("ablation_fec.{}.loss", row.name), row.frame_loss, "frac");
    }
    let interp = wall(r, "ablation_interp", || {
        ablation::run_interp_ablation(ABL_INTERP_LOSS, interp_pages, ABL_INTERP_SCALE, 0xAB2)
    });
    for row in interp {
        r.row(&format!("ablation_interp.{}.psnr", row.name), row.psnr_db, "dB");
        r.row(&format!("ablation_interp.{}.edge", row.name), row.edge, "frac");
    }
}

fn viterbi(r: &mut Report) {
    let cfg = if r.smoke() {
        viterbi::Config { frames: 40 }
    } else {
        viterbi::Config::default()
    };
    let (events, bit_errors) = viterbi::distance_spectrum();
    for d in (0..=viterbi::D_MAX).filter(|&d| events[d] > 0.0).take(4) {
        r.row(&format!("viterbi.spectrum.d{d}.events"), events[d], "count");
        r.row(&format!("viterbi.spectrum.d{d}.bit_errors"), bit_errors[d], "count");
    }
    let points = wall(r, "viterbi", || viterbi::run_experiment(&cfg));
    let total = f64::from(cfg.frames) * viterbi::SEEDS as f64;
    let fer = |errors: &[u32]| f64::from(errors.iter().sum::<u32>()) / total;
    let per_seed = |errors: &[u32], pick: fn(u32, u32) -> u32| {
        f64::from(errors.iter().copied().reduce(pick).unwrap_or(0)) / f64::from(cfg.frames)
    };
    for p in &points {
        let name = format!("viterbi.{:.1}dB", p.ebn0_db);
        r.row(&format!("{name}.bound_fer"), p.bound_fer, "frac");
        for (decoder, errors) in [("f32", &p.reference), ("i16", &p.integer)] {
            r.row(&format!("{name}.{decoder}_fer"), fer(errors), "frac");
            r.row(&format!("{name}.{decoder}_fer_seed_min"), per_seed(errors, u32::min), "frac");
            r.row(&format!("{name}.{decoder}_fer_seed_max"), per_seed(errors, u32::max), "frac");
        }
        r.row(&format!("{name}.f32_only"), f64::from(p.reference_only), "count");
        r.row(&format!("{name}.i16_only"), f64::from(p.integer_only), "count");
    }
    let at = |errors: fn(&viterbi::Point) -> &[u32]| {
        let curve: Vec<f64> = points.iter().map(|p| fer(errors(p))).collect();
        viterbi::ebn0_at_target(&curve, total)
    };
    let (reference, integer) = (at(|p| &p.reference), at(|p| &p.integer));
    for (decoder, db) in [("f32", reference), ("i16", integer)] {
        if let Some(db) = db {
            r.row(&format!("viterbi.{decoder}_ebn0_at_target"), db, "dB");
        }
    }
    // A decoder that never reaches the target FER fails the gate.
    let loss = match (reference, integer) {
        (Some(f), Some(i)) => i - f,
        _ => f64::INFINITY,
    };
    r.gate("viterbi.i16_loss_db", loss, "dB", Bound::AtMost(MAX_LOSS_DB));
}
