//! Golden digests of what goes on air and what comes back off it.
//!
//! Every stream below is pinned as an FNV-64 digest of its `f32::to_bits`
//! words, so a refactor of the transmit chain, the overlap-save filters or
//! the burst scanner that moves a single ulp anywhere fails here. The
//! digests must pass unchanged with and without `SONIC_DSP_FORCE_SCALAR=1`
//! (the SIMD kernels are bit-identical to their scalar twins by
//! construction).
//!
//! The modem's own streams (transmit audio, receive baseband, recovered
//! payloads, the lossy path) come from `link::modulate` and `modulate_frame`.
//! The radio side's (MPX decompose, the direct-form paths, the FM hop) are
//! fed [`air_like_mono`], built without modem code, so a change to the
//! transmitter re-pins only the former and a change to the radio only the
//! latter.

use sonic::core::frame::{Frame, FRAME_PAYLOAD};
use sonic::core::link::{self, FRAMES_PER_BURST};
use sonic::dsp::C32;
use sonic::image::hash::Fnv64;
use sonic::modem::ofdm::Demodulator;
use sonic::modem::frame::DemodFrame;
use sonic::modem::{demodulate_frames, modulate_frame, PhyError, Profile};
use sonic::radio::channel::{AcousticChannel, RfChannel};
use sonic::radio::fm::{FmDemodulator, FmModulator};
use sonic::radio::mpx::{compose, decompose, decompose_reference, MpxInput};
use sonic::radio::stack::FmLink;

fn digest_f32(samples: &[f32]) -> u64 {
    let mut h = Fnv64::new();
    for s in samples {
        h.write(&s.to_bits().to_le_bytes());
    }
    h.finish()
}

fn digest_c32(samples: &[C32]) -> u64 {
    let mut h = Fnv64::new();
    for s in samples {
        h.write(&s.re.to_bits().to_le_bytes());
        h.write(&s.im.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Two full bursts and a short third one, with every byte of every frame
/// fixed by its index.
fn frames() -> Vec<Frame> {
    (0..2 * FRAMES_PER_BURST + 7)
        .map(|i| {
            let payload: Vec<u8> = (0..FRAME_PAYLOAD - i % 5)
                .map(|k| (i * 131 + k * 29 + (k >> 3)) as u8)
                .collect();
            if i % 9 == 0 {
                Frame::Meta {
                    page_id: 0x50_4E_1C,
                    seq: (i / 9) as u16,
                    total: 10,
                    payload,
                }
            } else {
                Frame::Strip {
                    page_id: 0x50_4E_1C,
                    column: (i / 3) as u16,
                    seq: (i % 3) as u16,
                    last: i % 3 == 2,
                    payload,
                }
            }
        })
        .collect()
}

/// One burst about as long as ten link frames on air.
const MPX_BURST: usize = 47_232;

/// Three bursts about as long as `frames()` on air.
const FM_BURSTS: [usize; 3] = [158_400, 158_400, 34_048];

/// A stand-in for the modem's air audio built from `f64` math alone, so that
/// the radio-side digests below hold whatever the transmitter does: per
/// burst of `len` samples, the `sonic_10k` carriers (9 200 Hz ± 1…48 bins of
/// 44 100 / 1 024 Hz) as tones with seeded QPSK phases at the modem's 0.35
/// RMS, keyed on after and off before 128 samples of silence.
fn air_like_mono(bursts: &[usize]) -> Vec<f32> {
    use std::f64::consts::TAU;
    let (fs, fc, bin, gap) = (44_100.0, 9_200.0, 44_100.0 / 1_024.0, 128);
    let mut state = 0x5eed_0a1e_u64;
    let mut out = Vec::new();
    for &len in bursts {
        let tones: Vec<(f64, f64)> = (-48i32..=48)
            .filter(|&k| k != 0)
            .map(|k| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let quadrant = (state >> 62) as f64;
                (TAU * (fc + f64::from(k) * bin) / fs, TAU * (quadrant + 0.5) / 4.0)
            })
            .collect();
        // Unit tones at distinct frequencies add in power: RMS √(96 / 2).
        let gain = 0.35 / (tones.len() as f64 / 2.0).sqrt();
        out.extend(std::iter::repeat_n(0.0f32, gap));
        out.extend((0..len).map(|n| {
            let sum: f64 = tones.iter().map(|&(w, phase)| (w * n as f64 + phase).cos()).sum();
            (gain * sum) as f32
        }));
        out.extend(std::iter::repeat_n(0.0f32, gap));
    }
    out
}

#[test]
fn transmit_audio_baseband_and_recovered_payloads_are_pinned() {
    let profile = Profile::sonic_10k();
    let audio = link::modulate(&profile, &frames());
    assert_eq!(audio.len(), 351_552);
    // Re-pinned (from 0x4331_c8f7_4388_52de) when the transmitter moved to
    // the receiver's primitives: the radix-2 split-plane inverse FFT for every
    // symbol and the preamble template, and the periodic oscillator.
    assert_eq!(digest_f32(&audio), 0x4ef6_b30d_4f11_0b89, "tx audio moved");

    let baseband = Demodulator::new(profile.clone()).to_baseband(&audio);
    assert_eq!(baseband.len(), audio.len() / 4);
    // Re-pinned when the receiver's oscillator became one repeated period of
    // its `Nco` (from 0x28d0_5914_7a5e_71dc: 3 408 samples moved by an ulp),
    // then when the front end started keeping every 4th sample through a
    // polyphase decimator (from 0xedc2_0358_0989_65e4), then when the tx
    // audio above moved (from 0x77b9_323c_5abe_593b).
    assert_eq!(digest_c32(&baseband), 0x9083_75b6_5739_5d11, "rx baseband moved");

    let recovered = demodulate_frames(&profile, &audio);
    let starts: Vec<usize> = recovered.iter().map(|b| b.start_sample).collect();
    assert_eq!(starts, [178, 158_834, 317_490], "burst starts moved");
    let mut h = Fnv64::new();
    for burst in &recovered {
        h.write_u64(burst.start_sample as u64);
        h.write(burst.payload.as_ref().expect("clean audio decodes"));
    }
    assert_eq!(h.finish(), 0xfc2f_cc1a_da43_d412, "recovered payloads moved");
}

#[test]
fn mpx_decompose_is_pinned_with_and_without_a_stereo_channel() {
    let mono = air_like_mono(&[MPX_BURST]);

    // Pilot absent: only the mono path runs.
    let out = decompose(&compose(&MpxInput {
        mono: mono.clone(),
        ..Default::default()
    }));
    assert!(out.stereo_diff.is_none());
    assert_eq!(digest_f32(&out.mono), 0x9d30_0e85_12e2_384a, "mono (no pilot) moved");

    // Pilot present: the stereo branch runs too (pilot and stereo bands,
    // regenerated carrier, post-mix low-pass), so its output is pinned too.
    let diff: Vec<f32> = (0..mono.len())
        .map(|i| 0.3 * (std::f64::consts::TAU * 2_500.0 * i as f64 / 44_100.0).sin() as f32)
        .collect();
    let out = decompose(&compose(&MpxInput {
        mono,
        stereo_diff: Some(diff),
        ..Default::default()
    }));
    assert_eq!(digest_f32(&out.mono), 0xab73_8f1e_2434_8b6f, "mono (pilot) moved");
    let stereo = out.stereo_diff.expect("pilot detected");
    assert_eq!(digest_f32(&stereo), 0xb3b5_cb78_a0e0_51e2, "stereo difference moved");
}

/// The direct-form FIR's one user off the test benches: the reference
/// decomposer's band selects (the oracle every fast receive path is tested
/// against), on the composites the test above decomposes.
#[test]
fn direct_form_paths_are_pinned() {
    let mono = air_like_mono(&[MPX_BURST]);

    let out = decompose_reference(&compose(&MpxInput {
        mono: mono.clone(),
        ..Default::default()
    }));
    assert!(out.stereo_diff.is_none());
    assert_eq!(digest_f32(&out.mono), 0x1e52_085d_fe9f_b647, "reference mono (no pilot) moved");

    let diff: Vec<f32> = (0..mono.len())
        .map(|i| 0.3 * (std::f64::consts::TAU * 2_500.0 * i as f64 / 44_100.0).sin() as f32)
        .collect();
    let out = decompose_reference(&compose(&MpxInput {
        mono: mono.clone(),
        stereo_diff: Some(diff),
        ..Default::default()
    }));
    assert_eq!(digest_f32(&out.mono), 0xe8bb_332f_a41d_88d2, "reference mono (pilot) moved");
    let stereo = out.stereo_diff.expect("pilot detected");
    assert_eq!(digest_f32(&stereo), 0xc382_7fe8_3560_99c0, "reference stereo difference moved");
}

/// The acoustic hop at 0.5 m: speaker band (overlap-save), echoes, fade,
/// impulse bursts and noise, on the mono the tests above compose.
#[test]
fn acoustic_hop_is_pinned() {
    let mono = air_like_mono(&[MPX_BURST]);
    let heard = AcousticChannel::new(0.5, 1).transmit(&mono);
    assert_eq!(heard.len(), mono.len());
    assert_eq!(digest_f32(&heard), 0x395a_aa0d_1675_f968, "acoustic hop moved");
}

/// The FM hop stage by stage on the composite of [`FM_BURSTS`]: the modulator's
/// phasors, the RF channel's output at two RSSIs and two seeds each, and at
/// −86 dB the discriminator's output and the decomposed mono.
#[test]
fn fm_hop_is_pinned() {
    let composite = compose(&MpxInput {
        mono: air_like_mono(&FM_BURSTS),
        ..Default::default()
    });
    let mut baseband = Vec::new();
    FmModulator::default().modulate_into(&composite, &mut baseband);
    assert_eq!(baseband.len(), composite.len());
    assert_eq!(digest_c32(&baseband), 0x5897_02cb_bd4a_51ad, "FM modulator output moved");

    let mut weak = Vec::new();
    for (rssi_db, seed, want) in [
        (-70.0, 1, 0x68d2_764e_943f_a70bu64),
        (-70.0, 2, 0x7b0e_f534_2b0d_b455),
        (-86.0, 1, 0x34dd_3249_67e4_bdbe),
        (-86.0, 2, 0xa323_a701_62cb_91c5),
    ] {
        let received = RfChannel::new(rssi_db, seed).transmit(&baseband);
        assert_eq!(digest_c32(&received), want, "RF channel at {rssi_db} dB, seed {seed} moved");
        if (rssi_db, seed) == (-86.0, 1) {
            weak = received;
        }
    }

    let mut recovered = Vec::new();
    FmDemodulator::default().demodulate_into(&weak, &mut recovered);
    assert_eq!(digest_f32(&recovered), 0xa165_5570_d186_0e67, "discriminator output at -86 dB moved");
    let out = decompose(&recovered);
    assert_eq!(digest_f32(&out.mono), 0x5d43_3730_125c_c239, "decomposed mono at -86 dB moved");
    // Neither a pilot nor RDS is on air. A band-power RDS detector fired on
    // this discriminator noise and sliced it into 9 466 bits; a decoded group
    // is what counts as RDS now.
    assert_eq!(out.rds_bits.len(), 0, "RDS bits from discriminator noise");
    assert_eq!(out.stereo_diff.as_ref().map(Vec::len), None, "stereo from discriminator noise");
}

/// Folds one `demodulate_frames` result into `h`: burst count, then per burst
/// its start sample and either the payload or the failure's code.
fn digest_bursts(h: &mut Fnv64, bursts: &[DemodFrame]) {
    h.write_u64(bursts.len() as u64);
    for burst in bursts {
        h.write_u64(burst.start_sample as u64);
        let code = match &burst.payload {
            Ok(payload) => {
                h.write(payload);
                0u8
            }
            Err(PhyError::HeaderCorrupt) => 1,
            Err(PhyError::PayloadUnrecoverable) => 2,
            Err(PhyError::Truncated) => 3,
        };
        h.write(&[code]);
    }
}

/// One letter per burst, in order: `O` decoded, `H` header corrupt, `P`
/// payload unrecoverable, `T` truncated.
fn outcomes(bursts: &[DemodFrame]) -> String {
    bursts
        .iter()
        .map(|b| match b.payload {
            Ok(_) => 'O',
            Err(PhyError::HeaderCorrupt) => 'H',
            Err(PhyError::PayloadUnrecoverable) => 'P',
            Err(PhyError::Truncated) => 'T',
        })
        .collect()
}

/// The receive paths the clean-cable digest above never takes: bursts that
/// fail their FEC on a weak FM link, a capture that ends mid-burst, and a
/// tone that trips the Schmidl-Cox metric on every sample without ever
/// correlating with the preamble (its phantom burst fails its header).
#[test]
fn lossy_truncated_and_false_alarm_bursts_are_pinned() {
    let profile = Profile::sonic_10k();
    let payload = |i: usize| -> Vec<u8> {
        (0..120 + 37 * i).map(|k| (i * 89 + k * 13 + (k >> 2)) as u8).collect()
    };
    // Twelve bursts of growing length with growing silences between them.
    let mut audio = Vec::new();
    let mut last_burst = 0..0;
    for i in 0..12 {
        let burst = modulate_frame(&profile, &payload(i));
        last_burst = audio.len()..audio.len() + burst.len();
        audio.extend(burst);
        audio.extend(std::iter::repeat_n(0.0f32, 300 + 211 * i));
    }
    let heard = FmLink::new(-86.0, 1).transmit(&audio, None).mono;
    let mut h = Fnv64::new();

    let lossy = demodulate_frames(&profile, &heard);
    assert_eq!(outcomes(&lossy), "OOPPOOPPOOOO", "lossy-path outcomes moved");
    digest_bursts(&mut h, &lossy);

    // The same capture, ended half way through its last burst.
    let cut = demodulate_frames(&profile, &heard[..(last_burst.start + last_burst.end) / 2]);
    assert_eq!(cut.len(), 12);
    assert_eq!(cut[11].payload, Err(PhyError::Truncated));
    digest_bursts(&mut h, &cut);

    // An 8 kHz tone: its two half-symbols are as alike as a preamble's, so
    // the coarse metric sits near 1 for its whole length, and the fine
    // correlation against the preamble rejects every plateau. With a short
    // gap the tone's tail opens a phantom burst whose header skip swallows
    // the real preamble; with a long one the real burst decodes.
    for (gap, want) in [(100, Err(PhyError::HeaderCorrupt)), (6_000, Ok(payload(2)))] {
        let mut toned: Vec<f32> = (0..12_000)
            .map(|i| 0.3 * (std::f64::consts::TAU * 8_000.0 * i as f64 / 44_100.0).sin() as f32)
            .collect();
        toned.extend(std::iter::repeat_n(0.0f32, gap));
        toned.extend(modulate_frame(&profile, &payload(2)));
        let after_tone = demodulate_frames(&profile, &toned);
        assert_eq!(after_tone.len(), 1, "gap {gap}");
        assert_eq!(after_tone[0].payload, want, "gap {gap}");
        digest_bursts(&mut h, &after_tone);
    }

    // Re-pinned (from 0x36a1_0cef_5579_4e0b) when the receiver went to a
    // quarter of the audio rate: burst starts are kept samples now (within
    // 2 of the parent's on this capture), and the tone case's short gap went
    // from 700 to 100 samples, where both receivers open the phantom.
    assert_eq!(h.finish(), 0x63e4_84ce_fa15_6ed7, "lossy-path bursts moved");
}
