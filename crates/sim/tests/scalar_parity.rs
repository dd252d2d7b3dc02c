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
//! The FM hop is checked stage by stage as well: its block loops are
//! compiled for AVX2 through `simd::vectorized` and its resamplers run
//! `simd::polyphase`, and each stage must hand the next the same bits in
//! both modes.
//!
//! Lives in its own integration-test binary: the override is process-global,
//! and sharing a binary with other tests would race their dispatch. The
//! tests here take [`DISPATCH`] so that they do not race each other.

use sonic_core::link;
use sonic_dsp::{simd, C32};
use sonic_modem::{demodulate_frames, Profile};
use sonic_radio::channel::RfChannel;
use sonic_radio::fm::{FmDemodulator, FmModulator};
use sonic_radio::mpx::{compose, decompose, MpxInput};
use sonic_radio::rds;
use sonic_radio::stack::FmLink;
use sonic_radio::{AUDIO_RATE, MPX_RATE};
use sonic_sim::linksim::{scale_to_rms, test_frames, FM_INPUT_RMS};
use std::f64::consts::TAU;
use std::sync::Mutex;

/// Held by each test while it flips the process-wide dispatch override.
static DISPATCH: Mutex<()> = Mutex::new(());

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
    let _dispatch = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
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

/// Bits of every stage of the FM hop over a composite cut to `len`
/// samples: the composite (whole), then the baseband, the noisy baseband,
/// the discriminator output and the decomposed mono of its first `len`
/// samples.
fn hop_stages(input: &MpxInput, len: usize, rssi_db: f64) -> [Vec<u32>; 5] {
    let c32_bits = |v: &[C32]| v.iter().flat_map(|x| [x.re.to_bits(), x.im.to_bits()]).collect();
    let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
    let composite = compose(input);
    assert!(composite.len() >= len, "composite of {} samples", composite.len());
    let mut baseband = Vec::new();
    FmModulator::default().modulate_into(&composite[..len], &mut baseband);
    let noisy = RfChannel::new(rssi_db, 0x5EED).transmit(&baseband);
    let mut discriminated = Vec::new();
    FmDemodulator::default().demodulate_into(&noisy, &mut discriminated);
    let mono = decompose(&discriminated).mono;
    [
        f32_bits(&composite),
        c32_bits(&baseband),
        c32_bits(&noisy),
        f32_bits(&discriminated),
        f32_bits(&mono),
    ]
}

/// Each stage of the hop is the same bits dispatched and forced scalar: at
/// a clean and a marginal RSSI, for mono alone (the in-place compose loop)
/// and with a stereo pair and RDS on air (the general loop), at composite
/// lengths on both sides of the 1 024-sample blocks and one past the
/// decomposer's 57 344-sample mono chunk.
#[test]
fn forced_scalar_fm_hop_is_identical_stage_by_stage() {
    let _dispatch = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let stages = ["composite", "baseband", "noisy baseband", "discriminator", "mono"];
    let tone = |f: f64, n: usize, amp: f64| -> Vec<f32> {
        (0..n).map(|i| (amp * (TAU * f * i as f64 / AUDIO_RATE).sin()) as f32).collect()
    };
    for len in [1usize, 1_023, 1_025, 57_345] {
        // Enough audio for `len` composite samples and the upsampler's edge.
        let audio = (len as f64 * AUDIO_RATE / MPX_RATE).ceil() as usize + 1;
        let group = rds::Group([0x54A8, 0x0408, 0x2020, 0x4849]);
        let inputs = [
            MpxInput { mono: tone(9_200.0, audio, 0.5), ..Default::default() },
            MpxInput {
                mono: tone(9_200.0, audio, 0.4),
                stereo_diff: Some(tone(2_500.0, audio, 0.3)),
                rds_bits: Some(rds::encode_group(&group).repeat(len / (26 * 4 * rds::SAMPLES_PER_BIT) + 1)),
            },
        ];
        for (input, services) in inputs.iter().zip(["mono", "stereo + RDS"]) {
            for rssi in [-70.0, -86.0] {
                simd::force_scalar(false);
                let dispatched = hop_stages(input, len, rssi);
                let backend = simd::backend();
                simd::force_scalar(true);
                let scalar = hop_stages(input, len, rssi);
                simd::force_scalar(false);
                for ((stage, d), s) in stages.iter().zip(&dispatched).zip(&scalar) {
                    assert!(
                        d == s,
                        "{stage} differs between {} dispatch and forced scalar \
                         ({services}, {len} samples, {rssi} dB)",
                        backend.name()
                    );
                }
            }
        }
    }
}
