//! Link-level experiment runner: frames → modem → channel chain → frames.
//!
//! This is the measurement harness behind Figure 4(a) (acoustic distance)
//! and the §4 "Variable RSSI" sweep. The full physical path is exercised:
//! SONIC frames are batched into OFDM bursts, carried over one hop (cable,
//! the acoustic hop at a chosen distance, or the software FM chain at a
//! chosen RSSI), and demodulated back. Scheduled faults act at frame level
//! (`sonic_radio::faults`) and are not applied here.

use sonic_core::frame::Frame;
use sonic_core::link::{self, FRAMES_PER_BURST};
use sonic_modem::profile::Profile;
use sonic_radio::channel::AcousticChannel;
use sonic_radio::stack::FmLink;

/// Which physical path the frames take after the modem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelSetup {
    /// Audio jack / integrated tuner: bit-exact audio.
    Cable,
    /// Loudspeaker → air → microphone at a distance in meters.
    Acoustic {
        /// Speaker-to-mic distance in meters.
        distance_m: f64,
    },
    /// FM RF hop at an RSSI, received in "cable" mode (§4 Variable RSSI).
    Fm {
        /// Tuner-reported RSSI in dB.
        rssi_db: f64,
    },
}

/// Result of one link run.
#[derive(Debug, Clone)]
pub struct LinkRunResult {
    /// Frames offered to the channel.
    pub frames_sent: usize,
    /// Frames recovered with valid CRC.
    pub frames_received: usize,
    /// PHY bursts that failed entirely.
    pub bursts_failed: usize,
    /// Frame loss rate in `[0, 1]`.
    pub frame_loss: f64,
}

/// Deterministic filler frames for loss measurements.
pub fn test_frames(n: usize, seed: u8) -> Vec<Frame> {
    (0..n)
        .map(|i| Frame::Strip {
            page_id: 0x51_4E_49_43, // arbitrary constant id
            column: (i % 1080) as u16,
            seq: (i / 1080) as u16,
            last: false,
            payload: (0..86)
                .map(|k| (k as u8).wrapping_mul(31).wrapping_add(seed).wrapping_add(i as u8))
                .collect(),
        })
        .collect()
}

/// Mono audio level fed into the FM multiplexer.
///
/// Pre-emphasis boosts 9.2 kHz ~3×, and OFDM has ~10 dB PAPR; 0.08 RMS in
/// keeps composite peaks under full deviation without clipping.
pub const FM_INPUT_RMS: f32 = 0.08;

/// Scales `audio` in place to an RMS level of `target` (silence stays
/// silence).
pub fn scale_to_rms(audio: &mut [f32], target: f32) {
    let rms = (audio.iter().map(|&x| x * x).sum::<f32>() / audio.len().max(1) as f32).sqrt();
    if rms > 1e-12 {
        let g = target / rms;
        for v in audio.iter_mut() {
            *v *= g;
        }
    }
}

/// Runs `n_frames` frames through the configured chain: frames → modem →
/// `setup`'s hop → receiver → loss accounting.
pub fn run(profile: &Profile, setup: ChannelSetup, n_frames: usize, seed: u64) -> LinkRunResult {
    let frames = test_frames(n_frames, seed as u8);
    let mut audio = link::modulate(profile, &frames);
    let received_audio = match setup {
        ChannelSetup::Cable => audio,
        ChannelSetup::Acoustic { distance_m } => {
            AcousticChannel::new(distance_m, seed).transmit(&audio)
        }
        ChannelSetup::Fm { rssi_db } => {
            scale_to_rms(&mut audio, FM_INPUT_RMS);
            FmLink::new(rssi_db, seed).transmit(&audio, None).mono
        }
    };

    let (got, stats) = link::demodulate(profile, &received_audio);
    let frames_received = got.len().min(n_frames);
    LinkRunResult {
        frames_sent: n_frames,
        frames_received,
        bursts_failed: stats.bursts_failed
            + n_frames.div_ceil(FRAMES_PER_BURST).saturating_sub(stats.bursts_detected),
        frame_loss: 1.0 - frames_received as f64 / n_frames.max(1) as f64,
    }
}

/// One independent receiver run in a batch.
#[derive(Debug, Clone, Copy)]
pub struct LinkJob {
    /// Channel chain to exercise.
    pub setup: ChannelSetup,
    /// Frames offered.
    pub n_frames: usize,
    /// Channel RNG seed (fully determines the run together with the setup).
    pub seed: u64,
}

/// Runs a batch of independent link jobs on the worker pool, returning one
/// result per job **in job order**.
///
/// Every job is a pure function of `(profile, setup, n_frames, seed)` — each
/// run seeds its own channel RNG — so `run_batch` returns exactly what
/// calling [`run`] in a loop would, independent of worker count. This is the
/// receiver fan-out behind the RSSI sweep and Figure 4(a): the sweeps build
/// their full point × repetition job list and hand it here.
pub fn run_batch(profile: &Profile, jobs: Vec<LinkJob>) -> Vec<LinkRunResult> {
    run_batch_on(profile, jobs, crate::pool::default_workers())
}

/// [`run_batch`] with an explicit worker count (1 = serial; used by the
/// determinism tests).
pub fn run_batch_on(profile: &Profile, jobs: Vec<LinkJob>, workers: usize) -> Vec<LinkRunResult> {
    crate::pool::run_ordered(jobs, workers, |job| {
        run(profile, job.setup, job.n_frames, job.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_are_worker_count_independent() {
        let profile = Profile::sonic_10k();
        let jobs: Vec<LinkJob> = (0..4)
            .map(|i| LinkJob {
                setup: ChannelSetup::Fm {
                    rssi_db: -86.0 - i as f64,
                },
                n_frames: FRAMES_PER_BURST,
                seed: 0xBA7C ^ i,
            })
            .collect();
        let serial = run_batch_on(&profile, jobs.clone(), 1);
        let parallel = run_batch_on(&profile, jobs, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.frames_received, b.frames_received);
            assert_eq!(a.bursts_failed, b.bursts_failed);
            assert_eq!(a.frame_loss, b.frame_loss);
        }
    }

    #[test]
    fn cable_is_lossless() {
        let r = run(&Profile::sonic_10k(), ChannelSetup::Cable, 80, 1);
        assert_eq!(r.frame_loss, 0.0, "cable must not lose frames: {r:?}");
    }

    #[test]
    fn strong_fm_link_is_lossless() {
        let r = run(
            &Profile::sonic_10k(),
            ChannelSetup::Fm { rssi_db: -70.0 },
            80,
            2,
        );
        assert_eq!(r.frame_loss, 0.0, "{r:?}");
    }

    #[test]
    fn dead_fm_link_loses_everything() {
        let r = run(
            &Profile::sonic_10k(),
            ChannelSetup::Fm { rssi_db: -100.0 },
            40,
            3,
        );
        assert!(r.frame_loss > 0.95, "{r:?}");
    }

    #[test]
    fn close_acoustic_hop_mostly_works() {
        let r = run(
            &Profile::sonic_10k(),
            ChannelSetup::Acoustic { distance_m: 0.1 },
            80,
            4,
        );
        assert!(r.frame_loss < 0.1, "{r:?}");
    }

    #[test]
    fn far_acoustic_hop_fails() {
        let r = run(
            &Profile::sonic_10k(),
            ChannelSetup::Acoustic { distance_m: 1.4 },
            40,
            5,
        );
        assert!(r.frame_loss > 0.9, "{r:?}");
    }
}
