//! Golden digests of what goes on air and what comes back off it.
//!
//! Every stream below is pinned as an FNV-64 digest of its `f32::to_bits`
//! words, so a refactor of the transmit chain, the overlap-save filters or
//! the burst scanner that moves a single ulp anywhere fails here. The
//! digests were taken before the DSP engines were folded into one and must
//! pass unchanged with and without `SONIC_DSP_FORCE_SCALAR=1` (the SIMD
//! kernels are bit-identical to their scalar twins by construction).

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

#[test]
fn transmit_audio_baseband_and_recovered_payloads_are_pinned() {
    let profile = Profile::sonic_10k();
    let audio = link::modulate(&profile, &frames());
    assert_eq!(audio.len(), 351_552);
    assert_eq!(digest_f32(&audio), 0x4331_c8f7_4388_52de, "tx audio moved");

    let baseband = Demodulator::new(profile.clone()).to_baseband(&audio);
    assert_eq!(baseband.len(), audio.len() / 4);
    // Re-pinned when the receiver's oscillator became one repeated period of
    // its `Nco` (from 0x28d0_5914_7a5e_71dc: 3 408 samples moved by an ulp),
    // then when the front end started keeping every 4th sample through a
    // polyphase decimator (from 0xedc2_0358_0989_65e4).
    assert_eq!(digest_c32(&baseband), 0x77b9_323c_5abe_593b, "rx baseband moved");

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
    let profile = Profile::sonic_10k();
    let mono = link::modulate(&profile, &frames()[..10]);

    // Pilot absent: only the mono path runs.
    let out = decompose(&compose(&MpxInput {
        mono: mono.clone(),
        ..Default::default()
    }));
    assert!(out.stereo_diff.is_none());
    assert_eq!(digest_f32(&out.mono), 0xe726_77f6_c573_524b, "mono (no pilot) moved");

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
    assert_eq!(digest_f32(&out.mono), 0x470d_3dd6_1288_a815, "mono (pilot) moved");
    let stereo = out.stereo_diff.expect("pilot detected");
    assert_eq!(digest_f32(&stereo), 0x8344_3d8e_b574_f497, "stereo difference moved");
}

/// The direct-form FIR's two users: the reference decomposer's band selects
/// (the oracle every fast receive path is tested against) and the acoustic
/// hop's speaker response, on the composites the test above decomposes.
#[test]
fn direct_form_paths_are_pinned() {
    let profile = Profile::sonic_10k();
    let mono = link::modulate(&profile, &frames()[..10]);

    let out = decompose_reference(&compose(&MpxInput {
        mono: mono.clone(),
        ..Default::default()
    }));
    assert!(out.stereo_diff.is_none());
    assert_eq!(digest_f32(&out.mono), 0x77f5_5309_3fdb_aa43, "reference mono (no pilot) moved");

    let diff: Vec<f32> = (0..mono.len())
        .map(|i| 0.3 * (std::f64::consts::TAU * 2_500.0 * i as f64 / 44_100.0).sin() as f32)
        .collect();
    let out = decompose_reference(&compose(&MpxInput {
        mono: mono.clone(),
        stereo_diff: Some(diff),
        ..Default::default()
    }));
    assert_eq!(digest_f32(&out.mono), 0xf694_f7f7_0ad5_c778, "reference mono (pilot) moved");
    let stereo = out.stereo_diff.expect("pilot detected");
    assert_eq!(digest_f32(&stereo), 0xf43a_3b1f_4e91_e0f3, "reference stereo difference moved");

    let heard = AcousticChannel::new(0.5, 1).transmit(&mono);
    assert_eq!(heard.len(), mono.len());
    assert_eq!(digest_f32(&heard), 0x7a80_c3af_db64_79fb, "acoustic hop moved");
}

/// The FM hop stage by stage on the composite of `frames()`: the modulator's
/// phasors, the RF channel's output at two RSSIs and two seeds each, and at
/// −86 dB the discriminator's output and the decomposed mono.
#[test]
fn fm_hop_is_pinned() {
    let profile = Profile::sonic_10k();
    let composite = compose(&MpxInput {
        mono: link::modulate(&profile, &frames()),
        ..Default::default()
    });
    let mut baseband = Vec::new();
    FmModulator::default().modulate_into(&composite, &mut baseband);
    assert_eq!(baseband.len(), composite.len());
    assert_eq!(digest_c32(&baseband), 0xb276_4dd2_3fde_bb20, "FM modulator output moved");

    let mut weak = Vec::new();
    for (rssi_db, seed, want) in [
        (-70.0, 1, 0xdc82_c065_8d5f_c795u64),
        (-70.0, 2, 0x37db_2fb8_bf69_8a39),
        (-86.0, 1, 0x47c1_300a_4677_acde),
        (-86.0, 2, 0x2650_1629_cabc_420e),
    ] {
        let received = RfChannel::new(rssi_db, seed).transmit(&baseband);
        assert_eq!(digest_c32(&received), want, "RF channel at {rssi_db} dB, seed {seed} moved");
        if (rssi_db, seed) == (-86.0, 1) {
            weak = received;
        }
    }

    let mut recovered = Vec::new();
    FmDemodulator::default().demodulate_into(&weak, &mut recovered);
    assert_eq!(digest_f32(&recovered), 0x09bf_d74a_8829_1227, "discriminator output at -86 dB moved");
    let out = decompose(&recovered);
    assert_eq!(digest_f32(&out.mono), 0x38f1_06c0_98d5_c8f1, "decomposed mono at -86 dB moved");
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
/// fail their header or their FEC on a weak FM link, a capture that ends
/// mid-burst, and a tone that trips the Schmidl-Cox metric on every sample
/// without ever correlating with the preamble.
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
    assert_eq!(outcomes(&lossy), "PPPPPPHOOPOO", "lossy-path outcomes moved");
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
    assert_eq!(h.finish(), 0x8a9f_feda_58cf_ff37, "lossy-path bursts moved");
}
