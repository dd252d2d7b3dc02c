//! Figure 4(a): frame loss rate vs. radio-to-receiver air distance.
//!
//! "Each experiment is repeated 10 times, and we assume high RSSI (−70 dB
//! or higher) at the FM receiver. The figure shows no frame loss recorded
//! over cable, and up to 10–20 % frame losses (at the median) when
//! considering about one meter … We also observe a 100 % loss rate at
//! distances above 1.1 m."

use crate::linksim::{run_batch, ChannelSetup, LinkJob};
use crate::stats::BoxStats;
use sonic_modem::profile::Profile;

/// Distances evaluated in the paper (meters; 0 = cable).
pub const PAPER_DISTANCES: [f64; 6] = [0.0, 0.1, 0.2, 0.5, 1.0, 1.1];

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Distances in meters (0 = cable).
    pub distances_m: Vec<f64>,
    /// Repetitions per distance (paper: 10).
    pub reps: usize,
    /// OFDM bursts per repetition (each = 40 frames ≈ 4 KB).
    pub bursts_per_rep: usize,
    /// Modem profile.
    pub profile: Profile,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            distances_m: PAPER_DISTANCES.to_vec(),
            reps: 10,
            bursts_per_rep: 5,
            profile: Profile::sonic_10k(),
            seed: 0xF164A,
        }
    }
}

/// One distance's loss distribution.
#[derive(Debug, Clone)]
pub struct DistanceResult {
    /// Distance in meters (0 = cable).
    pub distance_m: f64,
    /// Frame loss per repetition.
    pub losses: Vec<f64>,
    /// Boxplot summary.
    pub summary: BoxStats,
}

/// Runs the full figure.
///
/// Every distance × repetition receiver runs as an independent job on the
/// worker pool (per-job channel seeds), so the result is identical to the
/// serial loop for any worker count.
pub fn run_experiment(cfg: &Config) -> Vec<DistanceResult> {
    let frames = cfg.bursts_per_rep * sonic_core::link::FRAMES_PER_BURST;
    let jobs: Vec<LinkJob> = cfg
        .distances_m
        .iter()
        .flat_map(|&d| {
            (0..cfg.reps).map(move |rep| LinkJob {
                setup: if d <= 0.0 {
                    ChannelSetup::Cable
                } else {
                    ChannelSetup::Acoustic { distance_m: d }
                },
                n_frames: frames,
                seed: cfg.seed ^ ((d * 1000.0) as u64) << 8 ^ rep as u64,
            })
        })
        .collect();
    let results = run_batch(&cfg.profile, jobs);
    cfg.distances_m
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let runs = &results[i * cfg.reps..(i + 1) * cfg.reps];
            let losses: Vec<f64> = runs.iter().map(|r| r.frame_loss).collect();
            DistanceResult {
                distance_m: d,
                summary: BoxStats::of(&losses),
                losses,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibration smoke test at reduced repetitions (the full run is the
    /// `paper` bench target).
    #[test]
    fn shape_matches_paper() {
        let cfg = Config {
            reps: 3,
            bursts_per_rep: 2,
            ..Default::default()
        };
        let results = run_experiment(&cfg);
        let at = |d: f64| -> &DistanceResult {
            results
                .iter()
                .find(|r| (r.distance_m - d).abs() < 1e-9)
                .expect("distance present")
        };
        // Cable: zero loss.
        assert_eq!(at(0.0).summary.max, 0.0, "cable must be lossless");
        // Close range: near-zero median.
        assert!(at(0.1).summary.median < 0.08, "{:?}", at(0.1).summary);
        // ~1 m: paper reports 10–20 % at the median; accept a broad band
        // at this reduced sample count.
        let m1 = at(1.0).summary.median;
        assert!(m1 > 0.02 && m1 < 0.65, "1 m median {m1}");
        // Beyond 1.1 m the paper sees total loss; at 1.1 m expect heavy.
        assert!(at(1.1).summary.median >= m1, "loss must grow with distance");
    }
}
