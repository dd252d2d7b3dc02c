//! SIMD-vs-scalar dispatch parity at the experiment level.
//!
//! Dispatch is a performance knob, not a semantics knob (lint R3): the
//! runtime-selected SIMD kernels keep bit-identical accumulation order to
//! their scalar twins, so a seeded end-to-end receive run must recover the
//! *same* frames — same count, same payload bytes, same failure positions —
//! whether dispatch picked AVX2/NEON or `SONIC_DSP_FORCE_SCALAR=1` pinned it
//! to scalar. This test flips the equivalent in-process override,
//! [`sonic_dsp::simd::force_scalar`], so one run covers both paths.
//!
//! Lives in its own integration-test binary: the override is process-global,
//! and sharing a binary with other tests would race their dispatch.

use sonic_core::link;
use sonic_dsp::simd;
use sonic_modem::{demodulate_frames, Profile};
use sonic_radio::stack::FmLink;
use sonic_sim::linksim::{scale_to_rms, test_frames, FM_INPUT_RMS};

/// One seeded `fm_rx_page`-shaped run: page burst → FM link at `rssi_db` →
/// full receive chain. Returns every recovered frame as
/// `(start_sample, Ok(payload) | Err(error string))` so the comparison
/// covers frame count, byte content, and loss positions alike.
fn rx_page(profile: &Profile, rssi_db: f64, seed: u64) -> Vec<(usize, Result<Vec<u8>, String>)> {
    let frames = test_frames(link::FRAMES_PER_BURST, seed as u8);
    let mut audio = link::modulate(profile, &frames);
    scale_to_rms(&mut audio, FM_INPUT_RMS);
    let mono = FmLink::new(rssi_db, seed).transmit(&audio, None).mono;
    demodulate_frames(profile, &mono)
        .into_iter()
        .map(|f| (f.start_sample, f.payload.map_err(|e| format!("{e:?}"))))
        .collect()
}

#[test]
fn forced_scalar_recovers_identical_frames() {
    let profile = Profile::sonic_10k();
    // One clean point and one marginal point near the paper's usable-RSSI
    // knee, where a single differently-rounded soft bit could flip a CRC.
    for (rssi, seed) in [(-70.0f64, 0x2551u64), (-87.0, 0x5EED_2551)] {
        simd::force_scalar(false);
        let dispatched = rx_page(&profile, rssi, seed);
        let backend = simd::backend();

        simd::force_scalar(true);
        let scalar = rx_page(&profile, rssi, seed);
        simd::force_scalar(false);

        assert_eq!(
            dispatched, scalar,
            "seeded rx at {rssi} dB (seed {seed:#x}) differs between {} dispatch and forced scalar",
            backend.name()
        );
    }
}
