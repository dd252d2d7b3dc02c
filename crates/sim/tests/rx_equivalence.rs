//! Fast-vs-reference receive-path equivalence at the experiment level.
//!
//! The RSSI sweep is the paper's headline receiver experiment; the fast
//! receive path (overlap-save FIR banks, block FM discriminator, per-axis
//! demapper) must reproduce the reference path's frame-loss curve *exactly*
//! at seeded sweep points, not just approximately — otherwise every figure
//! regenerated after the optimization would silently shift.

use sonic_core::link;
use sonic_modem::{demodulate_frames, demodulate_frames_reference, Profile};
use sonic_radio::channel::RfChannel;
use sonic_radio::fm::{FmDemodulator, FmModulator};
use sonic_radio::mpx::{compose, decompose_reference, MpxInput};
use sonic_radio::stack::FmLink;
use sonic_sim::linksim::{scale_to_rms, test_frames, FM_INPUT_RMS};

/// The mono `FmLink::new(rssi_db, seed).transmit(audio, None)` recovers,
/// received by the direct-form reference discriminator and decomposer.
fn reference_mono(audio: &[f32], rssi_db: f64, seed: u64) -> Vec<f32> {
    let composite = compose(&MpxInput {
        mono: audio.to_vec(),
        stereo_diff: None,
        rds_bits: None,
    });
    let mut baseband = Vec::new();
    FmModulator::default().modulate_into(&composite, &mut baseband);
    let received = RfChannel::new(rssi_db, seed).transmit(&baseband);
    let mut recovered = Vec::new();
    FmDemodulator::default().demodulate_into_reference(&received, &mut recovered);
    decompose_reference(&recovered).mono
}

/// Runs one seeded RSSI point through both receive paths and returns the
/// number of PHY frames recovered by (fast, reference).
fn frames_recovered(profile: &Profile, rssi_db: f64, seed: u64) -> (usize, usize) {
    let frames = test_frames(sonic_core::link::FRAMES_PER_BURST, seed as u8);
    let mut audio = link::modulate(profile, &frames);
    scale_to_rms(&mut audio, FM_INPUT_RMS);

    let fast_mono = FmLink::new(rssi_db, seed).transmit(&audio, None).mono;
    let ref_mono = reference_mono(&audio, rssi_db, seed);

    let fast = demodulate_frames(profile, &fast_mono)
        .iter()
        .filter(|f| f.payload.is_ok())
        .count();
    let reference = demodulate_frames_reference(profile, &ref_mono)
        .iter()
        .filter(|f| f.payload.is_ok())
        .count();
    (fast, reference)
}

#[test]
fn seeded_rssi_points_lose_identical_frame_counts() {
    let profile = Profile::sonic_10k();
    // Sweep seed formula from `experiments::rssi` (base seed 0x2551): one
    // clean point, one marginal point near the paper's −85…−90 dB band, and
    // one dead point.
    for rssi in [-70.0f64, -87.0, -92.0] {
        let seed = 0x2551u64 ^ ((-rssi * 10.0) as u64) << 10;
        let (fast, reference) = frames_recovered(&profile, rssi, seed);
        assert_eq!(
            fast, reference,
            "frame-loss mismatch at {rssi} dB (seed {seed:#x}): fast {fast} vs reference {reference}"
        );
    }
}
