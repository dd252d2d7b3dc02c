//! End-to-end FM link: audio → multiplex → FM → RF channel → tuner → audio.
//!
//! This is the software stand-in for the paper's Raspberry-Pi transmitter +
//! Xiaomi tuner pair. [`FmLink::transmit`] carries mono audio (and
//! optionally RDS) across an RF hop at a chosen RSSI and returns what the
//! phone's tuner would output, which then feeds the SONIC modem. The hop's
//! only impairment is the RF channel's AWGN; scheduled faults act at frame
//! level ([`crate::faults`]).

use crate::channel::RfChannel;
use crate::fm::{FmDemodulator, FmModulator};
use crate::mpx::{compose, decompose, MpxInput, MpxOutput};

/// One FM transmitter/receiver pair over an RF path.
#[derive(Debug, Clone)]
pub struct FmLink {
    /// Tuner-reported RSSI of the link (dB).
    pub rssi_db: f64,
    /// RNG seed for the channel noise.
    pub seed: u64,
}

impl FmLink {
    /// Creates a link at the given RSSI.
    pub fn new(rssi_db: f64, seed: u64) -> Self {
        FmLink { rssi_db, seed }
    }

    /// Sends mono audio (and optional RDS bits) through the full FM chain —
    /// compose → FM modulate → RF channel → FM demodulate → decompose — and
    /// returns the tuner's output services.
    pub fn transmit(&self, mono: &[f32], rds_bits: Option<Vec<u8>>) -> MpxOutput {
        let composite = compose(&MpxInput {
            mono: mono.to_vec(),
            stereo_diff: None,
            rds_bits,
        });
        let mut baseband = Vec::with_capacity(composite.len());
        FmModulator::default().modulate_into(&composite, &mut baseband);
        let received = RfChannel::new(self.rssi_db, self.seed).transmit(&baseband);
        let mut recovered = Vec::with_capacity(received.len());
        FmDemodulator::default().demodulate_into(&received, &mut recovered);
        decompose(&recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, n: usize, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|i| amp * (std::f64::consts::TAU * f * i as f64 / crate::AUDIO_RATE).sin() as f32)
            .collect()
    }

    fn tone_level(signal: &[f32], f: f64) -> f32 {
        2.0 * sonic_dsp::goertzel::power(signal, crate::AUDIO_RATE, f).sqrt()
    }

    #[test]
    fn strong_link_is_clean() {
        let link = FmLink::new(-65.0, 1);
        let mono = tone(9_200.0, 44_100, 0.5);
        let out = link.transmit(&mono, None);
        let got = tone_level(&out.mono[8000..], 9_200.0);
        let want = 0.5 * 0.8; // mono modulation level
        assert!((got - want).abs() / want < 0.2, "got {got} want {want}");
    }

    #[test]
    fn weak_link_degrades() {
        let mono = tone(9_200.0, 44_100, 0.5);
        let snr_at = |rssi: f64| -> f64 {
            let out = FmLink::new(rssi, 2).transmit(&mono, None);
            let sig = tone_level(&out.mono[8000..], 9_200.0) as f64;
            // Noise estimate: total RMS minus the tone's share.
            let total = (out.mono[8000..].iter().map(|&x| (x * x) as f64).sum::<f64>()
                / (out.mono.len() - 8000) as f64)
                .sqrt();
            let noise = (total * total - (sig * sig) / 2.0).max(1e-12).sqrt();
            20.0 * (sig / noise).log10()
        };
        let good = snr_at(-70.0);
        let bad = snr_at(-92.0);
        assert!(good > 25.0, "good link SNR {good}");
        // Below the −90 dB cliff the audio SNR must drop under what 64-QAM
        // OFDM needs (~20 dB); the exact loss curve is measured in the
        // RSSI-sweep experiment.
        assert!(bad < 18.0, "bad link SNR {bad}");
        assert!(good > bad + 12.0, "{good} vs {bad}");
    }

    #[test]
    fn rds_survives_a_good_link() {
        use crate::rds;
        let g = rds::Group([0x1234, 0x5678, 0x9ABC, 0xDEF0]);
        let mut bits = Vec::new();
        for _ in 0..3 {
            bits.extend(rds::encode_group(&g));
        }
        let n_audio = (bits.len() * rds::SAMPLES_PER_BIT) / 5 + 8820;
        let link = FmLink::new(-70.0, 5);
        let out = link.transmit(&tone(1_000.0, n_audio, 0.3), Some(bits));
        let groups = rds::decode_groups(&out.rds_bits);
        assert!(!groups.is_empty(), "no groups over the link");
        assert!(groups.iter().all(|x| *x == g));
    }
}
