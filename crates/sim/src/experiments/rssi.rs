//! §4 "Variable RSSI": frame loss across receiver signal strengths.
//!
//! "At approximately 5 dB intervals, we transmit a single webpage up to 10
//! times and measure SONIC's frame loss rate. For the RSSI range from −65
//! to −85 dB, we consistently observe no frame losses. For the −85 to
//! −90 dB range, we record a fluctuating frame loss rate between 2 and
//! 15 %. … for RSSI below −90 dB, we are unable to receive any frames."

use crate::linksim::{run_batch, ChannelSetup, LinkJob};
use crate::stats::{mean, BoxStats};
use sonic_modem::profile::Profile;

/// RSSI points evaluated (5 dB steps, −65 … −95).
pub const PAPER_RSSI_DB: [f64; 7] = [-65.0, -70.0, -75.0, -80.0, -85.0, -88.0, -92.0];

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// RSSI points in dB.
    pub rssi_db: Vec<f64>,
    /// Repetitions per point (paper: up to 10).
    pub reps: usize,
    /// Bursts per repetition.
    pub bursts_per_rep: usize,
    /// Modem profile.
    pub profile: Profile,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            rssi_db: PAPER_RSSI_DB.to_vec(),
            reps: super::env_or("SONIC_RSSI_REPS", 8),
            bursts_per_rep: super::env_or("SONIC_RSSI_BURSTS", 2),
            profile: Profile::sonic_10k(),
            seed: 0x2551,
        }
    }
}

/// One RSSI point's result.
#[derive(Debug, Clone)]
pub struct RssiResult {
    /// The RSSI in dB.
    pub rssi_db: f64,
    /// Loss per repetition.
    pub losses: Vec<f64>,
    /// Mean loss.
    pub mean_loss: f64,
    /// Boxplot summary.
    pub summary: BoxStats,
}

/// Runs the sweep (client in "cable" mode, per the paper's setup).
///
/// All point × repetition receivers are independent (per-job channel seeds),
/// so the whole sweep fans out on the worker pool; results are regrouped in
/// point order and are identical to the serial loop for any worker count.
pub fn run_experiment(cfg: &Config) -> Vec<RssiResult> {
    let frames = cfg.bursts_per_rep * sonic_core::link::FRAMES_PER_BURST;
    let jobs: Vec<LinkJob> = cfg
        .rssi_db
        .iter()
        .flat_map(|&rssi| {
            (0..cfg.reps).map(move |rep| LinkJob {
                setup: ChannelSetup::Fm { rssi_db: rssi },
                n_frames: frames,
                seed: cfg.seed ^ ((-rssi * 10.0) as u64) << 10 ^ rep as u64,
            })
        })
        .collect();
    let results = run_batch(&cfg.profile, jobs);
    cfg.rssi_db
        .iter()
        .enumerate()
        .map(|(i, &rssi)| {
            let runs = &results[i * cfg.reps..(i + 1) * cfg.reps];
            let losses: Vec<f64> = runs.iter().map(|r| r.frame_loss).collect();
            RssiResult {
                rssi_db: rssi,
                mean_loss: mean(&losses),
                summary: BoxStats::of(&losses),
                losses,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced-rep band check; the bench runs the paper configuration.
    #[test]
    fn paper_bands_hold() {
        let cfg = Config {
            rssi_db: vec![-70.0, -90.0, -94.0],
            reps: 4,
            bursts_per_rep: 2,
            ..Default::default()
        };
        let res = run_experiment(&cfg);
        assert!(res[0].mean_loss < 0.01, "-70 dB must be clean: {:?}", res[0].summary);
        assert!(
            res[1].mean_loss > res[0].mean_loss,
            "loss must grow as RSSI falls: {:?}",
            res[1].summary
        );
        assert!(res[2].mean_loss > 0.9, "-94 dB must be dead: {:?}", res[2].summary);
    }
}
