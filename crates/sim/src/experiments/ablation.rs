//! Ablations for the design choices DESIGN.md calls out.
//!
//! * **A1 — FEC chain**: the paper configures crc32 + v29 + rs8 without
//!   justifying the pairing; this ablation measures frame loss with each
//!   stage disabled, over a mid-range acoustic hop.
//! * **A2 — interpolation strategy**: left-priority (the paper's pick,
//!   motivated by left-to-right text) vs. above-priority vs. no repair,
//!   scored by PSNR and edge integrity on real page renders under column-
//!   segment losses (the loss shape strip coding actually produces).

use crate::linksim::{run, ChannelSetup};
use crate::stats::mean;
use sonic_fec::CodeSpec;
use sonic_image::interpolate::{blackout, recover_with, LossMask, Strategy};
use sonic_image::metrics::{edge_integrity, psnr};
use sonic_modem::profile::Profile;
use sonic_pagegen::{Corpus, PageId};

/// A1 result row.
#[derive(Debug, Clone)]
pub struct FecRow {
    /// Chain name, usable as a row name (`v29_rs8` is the paper's).
    pub name: &'static str,
    /// Code rate at 1000-byte payloads.
    pub code_rate: f64,
    /// Mean frame loss over the acoustic hop.
    pub frame_loss: f64,
}

/// Runs the FEC ablation at `distance_m` over `reps` repetitions.
pub fn run_fec_ablation(distance_m: f64, reps: usize, seed: u64) -> Vec<FecRow> {
    let chains: [(&'static str, CodeSpec); 4] = [
        ("none", CodeSpec::none()),
        ("v29", CodeSpec::conv_only()),
        ("rs8", CodeSpec::rs_only()),
        ("v29_rs8", CodeSpec::sonic_default()),
    ];
    chains
        .iter()
        .map(|&(name, fec)| {
            let profile = Profile {
                fec,
                ..Profile::sonic_10k()
            };
            let losses: Vec<f64> = (0..reps)
                .map(|rep| {
                    run(
                        &profile,
                        ChannelSetup::Acoustic { distance_m },
                        3 * sonic_core::link::FRAMES_PER_BURST,
                        seed ^ (rep as u64) << 4,
                    )
                    .frame_loss
                })
                .collect();
            FecRow {
                name,
                code_rate: fec.rate(1000),
                frame_loss: mean(&losses),
            }
        })
        .collect()
}

/// A2 result row.
#[derive(Debug, Clone)]
pub struct InterpRow {
    /// Strategy name, usable as a row name (`left` is the paper's).
    pub name: &'static str,
    /// Mean PSNR over the sampled pages (dB).
    pub psnr_db: f64,
    /// Mean edge integrity.
    pub edge: f64,
}

/// Runs the interpolation ablation: `loss` fraction of columns lose their
/// lower halves (the strip-coding loss shape).
pub fn run_interp_ablation(loss: f64, n_pages: usize, scale: f64, seed: u64) -> Vec<InterpRow> {
    let corpus = Corpus::standard();
    type Case = (&'static str, Option<Strategy>, Vec<f64>, Vec<f64>);
    let mut cases: Vec<Case> = vec![
        ("none", None, Vec::new(), Vec::new()),
        ("left", Some(Strategy::LeftPriority), Vec::new(), Vec::new()),
        ("above", Some(Strategy::AbovePriority), Vec::new(), Vec::new()),
    ];
    for k in 0..n_pages {
        let id = PageId {
            site: k % corpus.sites.len(),
            page: k / corpus.sites.len(),
        };
        let rendered = corpus.render(id, 0, scale);
        let (w, h) = (rendered.raster.width(), rendered.raster.height());
        // Column-segment losses: each affected column loses a suffix.
        let mut segs = Vec::new();
        let mut x = seed ^ k as u64;
        for col in 0..w {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (x >> 33) as f64 / (1u64 << 31) as f64 % 1.0 < loss {
                let start = (x >> 17) as usize % h;
                segs.push((col, start, h));
            }
        }
        let mask = LossMask::column_segments(w, h, &segs);
        for (_, strategy, psnrs, edges) in cases.iter_mut() {
            let repaired = match strategy {
                None => blackout(&rendered.raster, &mask),
                Some(s) => recover_with(&rendered.raster, &mask, *s),
            };
            psnrs.push(psnr(&rendered.raster, &repaired));
            edges.push(edge_integrity(&rendered.raster, &repaired));
        }
    }
    cases
        .into_iter()
        .map(|(name, _, psnrs, edges)| InterpRow {
            name,
            psnr_db: mean(&psnrs),
            edge: mean(&edges),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_chain_beats_uncoded_on_noisy_hop() {
        let rows = run_fec_ablation(0.6, 2, 7);
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("row").frame_loss;
        let full = get("v29_rs8");
        let none = get("none");
        assert!(
            full <= none,
            "full chain {full} must not lose more than uncoded {none}"
        );
    }

    #[test]
    fn code_rates_are_ordered() {
        let rows = run_fec_ablation(0.1, 1, 1);
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("row").code_rate;
        assert!(get("none") > get("rs8"));
        assert!(get("rs8") > get("v29"));
        assert!(get("v29") > get("v29_rs8"));
    }

    #[test]
    fn any_repair_beats_none() {
        let rows = run_interp_ablation(0.2, 4, 0.1, 3);
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("row");
        assert!(get("left").psnr_db > get("none").psnr_db);
        assert!(get("above").psnr_db > get("none").psnr_db);
        assert!(get("left").edge > get("none").edge);
    }
}
