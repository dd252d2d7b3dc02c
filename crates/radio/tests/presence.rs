//! What `mpx::decompose` reports as on air, over the RF hop.
//!
//! The decomposer filters and demodulates a service only when it is on air:
//! the stereo branch when the composite carries a 19 kHz line, RDS when a
//! group with all four checkwords decodes from the first half second. Noise
//! from the FM discriminator must fake neither, at any RSSI the link is
//! measured at, and a real pilot and real RDS must still be found.

use sonic_radio::channel::RfChannel;
use sonic_radio::fm::{FmDemodulator, FmModulator};
use sonic_radio::mpx::{compose, decompose, decompose_reference, MpxInput, MpxOutput};
use sonic_radio::rds::{self, Group};
use sonic_radio::stack::FmLink;
use sonic_radio::AUDIO_RATE;
use std::f64::consts::TAU;

/// A second of mono programme: the 9.2 kHz data carrier under two tones.
fn programme() -> Vec<f32> {
    (0..AUDIO_RATE as usize)
        .map(|i| {
            let t = i as f64 / AUDIO_RATE;
            (0.25 * (TAU * 9_200.0 * t).sin()
                + 0.1 * (TAU * 1_000.0 * t).sin()
                + 0.05 * (TAU * 12_500.0 * t).sin()) as f32
        })
        .collect()
}

/// `FmLink::new(rssi_db, seed).transmit(mono, None)` received by the
/// direct-form reference discriminator and decomposer.
fn reference_link(mono: &[f32], rssi_db: f64, seed: u64) -> MpxOutput {
    let composite = compose(&MpxInput {
        mono: mono.to_vec(),
        stereo_diff: None,
        rds_bits: None,
    });
    let mut baseband = Vec::new();
    FmModulator::default().modulate_into(&composite, &mut baseband);
    let received = RfChannel::new(rssi_db, seed).transmit(&baseband);
    let mut recovered = Vec::new();
    FmDemodulator::default().demodulate_into_reference(&received, &mut recovered);
    decompose_reference(&recovered)
}

#[test]
fn discriminator_noise_is_neither_a_pilot_nor_rds() {
    let mono = programme();
    let mut phantoms = Vec::new();
    for rssi_db in (60..=90).step_by(2).map(|r| -(r as f64)) {
        for seed in 1..=3 {
            for (path, out) in [
                ("transmit", FmLink::new(rssi_db, seed).transmit(&mono, None)),
                ("reference", reference_link(&mono, rssi_db, seed)),
            ] {
                if !out.rds_bits.is_empty() || out.stereo_diff.is_some() {
                    phantoms.push(format!(
                        "{rssi_db} dB seed {seed} {path}: {} RDS bits, stereo {}",
                        out.rds_bits.len(),
                        out.stereo_diff.is_some()
                    ));
                }
            }
        }
    }
    assert!(
        phantoms.is_empty(),
        "phantom services:\n{}",
        phantoms.join("\n")
    );
}

/// Ten distinct groups; block B carries the index.
fn groups() -> Vec<Group> {
    (0..10u16)
        .map(|i| Group([0x54A8, i, 0x2020 ^ (i << 4), 0x4849 + i]))
        .collect()
}

/// The full multiplex — mono, stereo difference, pilot, RDS — over the RF
/// hop at `rssi_db`.
fn stereo_rds_link(rssi_db: f64) -> MpxOutput {
    let mono = programme();
    let diff: Vec<f32> = (0..mono.len())
        .map(|i| 0.3 * (TAU * 2_500.0 * i as f64 / AUDIO_RATE).sin() as f32)
        .collect();
    let composite = compose(&MpxInput {
        mono,
        stereo_diff: Some(diff),
        rds_bits: Some(groups().iter().flat_map(rds::encode_group).collect()),
    });
    let mut baseband = Vec::new();
    FmModulator::default().modulate_into(&composite, &mut baseband);
    let received = RfChannel::new(rssi_db, 7).transmit(&baseband);
    let mut recovered = Vec::new();
    FmDemodulator::default().demodulate_into(&received, &mut recovered);
    decompose(&recovered)
}

#[test]
fn a_real_pilot_and_real_rds_are_found() {
    // A band-power RDS detector decoded all ten groups at every level here,
    // and found the pilot.
    for rssi_db in (60..=80).step_by(2).map(|r| -(r as f64)) {
        let out = stereo_rds_link(rssi_db);
        assert!(out.stereo_diff.is_some(), "{rssi_db} dB: pilot missed");
        assert_eq!(
            rds::decode_groups(&out.rds_bits),
            groups(),
            "{rssi_db} dB: RDS groups"
        );
    }
}
