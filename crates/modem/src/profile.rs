//! Named modem profiles and their rate arithmetic.
//!
//! The paper: "Using the Quiet library, we create a new transmission profile
//! inspired by their audible-7k-channel. The new profile uses OFDM … with 92
//! sub-carriers. The data rates achieved by this profile reach 10 kbps."
//! We reproduce both: [`Profile::audible_7k`] (QPSK, ≈7 kbps raw — Quiet's
//! claim) and [`Profile::sonic_10k`] (64-QAM, ≈21 kbps raw, ≈10.6 kbps after
//! the rate-1/2 inner code — the paper's 10 kbps figure).

use crate::constellation::Modulation;
use sonic_fec::CodeSpec;

/// Audio sample rate every named profile runs at, in Hz. Matches
/// `sonic_radio::AUDIO_RATE` (the crates deliberately do not depend on each
/// other; the workspace lint's unit-hygiene rule keeps both honest).
pub const AUDIO_RATE_HZ: f64 = 44_100.0;

/// Complete parameter set for one OFDM carrier.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Identifier used in logs and benches.
    pub name: &'static str,
    /// Audio sample rate in Hz.
    pub sample_rate: f64,
    /// FFT size (power of two).
    pub fft_size: usize,
    /// Cyclic prefix length in samples.
    pub cp_len: usize,
    /// Number of data subcarriers (the paper's 92).
    pub data_carriers: usize,
    /// Number of pilot subcarriers interleaved among the data.
    pub pilot_carriers: usize,
    /// Audio carrier center frequency in Hz (the paper's 9.2 kHz).
    pub center_freq: f64,
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// FEC chain applied to every frame payload.
    pub fec: CodeSpec,
    /// Output RMS level of the modulated burst (1.0 = full scale sine).
    pub tx_level: f32,
}

impl Profile {
    /// Clone of Quiet's `audible-7k-channel`: QPSK on 92 subcarriers.
    pub fn audible_7k() -> Self {
        Profile {
            name: "audible-7k",
            sample_rate: AUDIO_RATE_HZ,
            fft_size: 1024,
            cp_len: 128,
            data_carriers: 92,
            pilot_carriers: 4,
            center_freq: 9_200.0,
            modulation: Modulation::Qpsk,
            fec: CodeSpec::sonic_default(),
            tx_level: 0.35,
        }
    }

    /// The paper's SONIC profile: same geometry, 64-QAM, ≈10 kbps with the
    /// inner code.
    pub fn sonic_10k() -> Self {
        Profile {
            name: "sonic-10k",
            modulation: Modulation::Qam64,
            ..Profile::audible_7k()
        }
    }

    /// Cable-only high-rate mode using Quiet's headline 1024-QAM (only
    /// usable at very high SNR, e.g. over the audio jack).
    pub fn cable_64k() -> Self {
        Profile {
            name: "cable-64k",
            modulation: Modulation::Qam1024,
            cp_len: 64,
            ..Profile::audible_7k()
        }
    }

    /// Total active subcarriers (data + pilots).
    pub fn active_carriers(&self) -> usize {
        self.data_carriers + self.pilot_carriers
    }

    /// Samples per OFDM symbol including the cyclic prefix.
    pub fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// Seconds per OFDM symbol.
    pub fn symbol_duration(&self) -> f64 {
        self.symbol_len() as f64 / self.sample_rate
    }

    /// Raw (pre-FEC) bit rate in bits/second.
    pub fn raw_rate_bps(&self) -> f64 {
        (self.data_carriers * self.modulation.bits_per_symbol()) as f64 / self.symbol_duration()
    }

    /// Subcarrier spacing in Hz.
    pub fn carrier_spacing(&self) -> f64 {
        self.sample_rate / self.fft_size as f64
    }

    /// Occupied audio bandwidth in Hz.
    pub fn bandwidth(&self) -> f64 {
        self.active_carriers() as f64 * self.carrier_spacing()
    }

    /// Coded bits per OFDM symbol.
    pub fn bits_per_symbol(&self) -> usize {
        self.data_carriers * self.modulation.bits_per_symbol()
    }

    /// Audio samples needed to transmit one frame of `payload_len` bytes.
    pub fn frame_samples(&self, payload_len: usize) -> usize {
        let coded_bits = self.fec.coded_bits_len(payload_len);
        let payload_syms = coded_bits.div_ceil(self.bits_per_symbol());
        (payload_syms + 4) * self.symbol_len()
    }

    /// Checks structural invariants; called by the modem constructors, so a
    /// profile that fails here panics in `Modulator::new` and
    /// `Demodulator::new` alike.
    ///
    /// # Panics
    /// Panics when the profile cannot be realized: the band does not fit,
    /// the FFT is not a power of two, or the carrier does not repeat within
    /// one second of samples — both directions mix with one period of it
    /// ([`sonic_dsp::osc::PeriodicOsc`]).
    pub fn validate(&self) {
        assert!(self.fft_size.is_power_of_two(), "fft_size must be a power of two");
        assert!(self.cp_len < self.fft_size, "cp must be shorter than the symbol");
        assert!(
            self.fft_size.is_multiple_of(4) && self.cp_len.is_multiple_of(4),
            "fft_size and cp_len must be multiples of 4: the receiver decimates by 4"
        );
        assert!(self.active_carriers() < self.fft_size / 2, "too many subcarriers");
        let half_bw = self.bandwidth() / 2.0;
        assert!(
            self.center_freq - half_bw > 0.0,
            "band extends below DC: center {} Hz, bw {} Hz",
            self.center_freq,
            self.bandwidth()
        );
        assert!(
            self.center_freq + half_bw < self.sample_rate / 2.0,
            "band extends beyond Nyquist"
        );
        assert!(
            sonic_dsp::osc::carrier_period(self.sample_rate, self.center_freq).is_some(),
            "a {} Hz carrier does not repeat within one second at {} Hz",
            self.center_freq,
            self.sample_rate
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audible_7k_raw_rate_matches_quiet_claim() {
        let p = Profile::audible_7k();
        p.validate();
        // 92 carriers × 2 bits / 26.1 ms ≈ 7.05 kbps.
        let r = p.raw_rate_bps();
        assert!((r - 7000.0).abs() < 200.0, "raw rate {r}");
    }

    #[test]
    fn sonic_10k_hits_papers_rate() {
        let p = Profile::sonic_10k();
        p.validate();
        let raw = p.raw_rate_bps();
        assert!((raw - 21100.0).abs() < 300.0, "raw {raw}");
        // After the rate-1/2 inner code ≈ 10.6 kbps — the paper's "10 kbps".
        let after_inner = raw * 0.5;
        assert!(after_inner > 10_000.0, "post-inner {after_inner}");
        // Net rate with full chain and big frames lands near 9 kbps.
        let net = (4096.0 * 8.0) / (p.frame_samples(4096) as f64 / p.sample_rate);
        assert!(net > 8_000.0 && net < 11_000.0, "net {net}");
    }

    #[test]
    fn band_fits_fm_mono_channel() {
        for p in [Profile::audible_7k(), Profile::sonic_10k(), Profile::cable_64k()] {
            let half = p.bandwidth() / 2.0;
            assert!(p.center_freq + half < 15_000.0, "{}: exceeds mono band", p.name);
            assert!(p.center_freq - half > 30.0, "{}: below mono band", p.name);
        }
    }

    #[test]
    fn frame_samples_scale_with_payload() {
        let p = Profile::sonic_10k();
        assert!(p.frame_samples(1000) > p.frame_samples(100));
        // Empty payload still costs the 4 overhead symbols.
        assert_eq!(p.frame_samples(0), 4 * p.symbol_len());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_bad_fft() {
        let mut p = Profile::audible_7k();
        p.fft_size = 1000;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "does not repeat within one second")]
    fn validate_rejects_a_carrier_with_no_period() {
        let mut p = Profile::sonic_10k();
        p.center_freq = 9_200.5;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "multiples of 4")]
    fn validate_rejects_a_prefix_the_receiver_cannot_decimate() {
        let mut p = Profile::sonic_10k();
        p.cp_len = 126;
        p.validate();
    }
}
