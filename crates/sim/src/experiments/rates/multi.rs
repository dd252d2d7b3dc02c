//! Multi-carrier aggregation.
//!
//! The paper: "Multiple frequencies can be used to increase the rate" —
//! e.g. broadcasting the same modem on several FM stations, or on several
//! audio carriers within one station's baseband. This module aggregates `k`
//! independent OFDM carriers into one logical pipe by striping payload
//! chunks round-robin, doubling/quadrupling throughput for the Figure 4(c)
//! rate scenarios (20 kbps, 40 kbps).

use sonic_modem::frame::{demodulate_frames, modulate_frame, PhyError};
use sonic_modem::profile::Profile;

/// A set of OFDM carriers acting as one logical channel.
#[derive(Debug, Clone)]
pub struct MultiCarrier {
    profiles: Vec<Profile>,
}

impl MultiCarrier {
    /// Builds an aggregate from explicit per-carrier profiles.
    ///
    /// # Panics
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<Profile>) -> Self {
        assert!(!profiles.is_empty(), "need at least one carrier");
        for p in &profiles {
            p.validate();
        }
        MultiCarrier { profiles }
    }

    /// `k` SONIC carriers spread inside the FM mono band (5–13 kHz).
    ///
    /// # Panics
    /// Panics for `k == 0` or `k > 3` (the mono band fits at most three
    /// 4 kHz carriers).
    pub fn sonic(k: usize) -> Self {
        assert!((1..=3).contains(&k), "1..=3 carriers fit in the mono band");
        // Spaced so the ~4.1 kHz occupied bands never overlap and all stay
        // inside the 30 Hz–15 kHz mono channel. k=1 keeps the paper's 9.2 kHz.
        let centers: [f64; 3] = match k {
            1 => [9_200.0, 0.0, 0.0],
            2 => [5_000.0, 10_500.0, 0.0],
            _ => [2_600.0, 7_000.0, 11_400.0],
        };
        let profiles = (0..k)
            .map(|i| {
                let mut p = Profile::sonic_10k();
                p.center_freq = centers[i];
                p
            })
            .collect();
        MultiCarrier { profiles }
    }

    /// Number of carriers.
    pub fn carriers(&self) -> usize {
        self.profiles.len()
    }

    /// Aggregate raw rate.
    pub fn raw_rate_bps(&self) -> f64 {
        self.profiles.iter().map(|p| p.raw_rate_bps()).sum()
    }

    /// Per-carrier profiles.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// Splits `payload` into per-carrier chunks (round-robin by stripes of
    /// `stripe` bytes) and modulates one audio stream per carrier.
    ///
    /// Every carrier gets its own PHY frame; empty chunks yield empty audio.
    pub fn modulate(&self, payload: &[u8], stripe: usize) -> Vec<Vec<f32>> {
        let stripe = stripe.max(1);
        let k = self.profiles.len();
        let mut chunks: Vec<Vec<u8>> = vec![Vec::new(); k];
        for (i, s) in payload.chunks(stripe).enumerate() {
            chunks[i % k].extend_from_slice(s);
        }
        self.profiles
            .iter()
            .zip(&chunks)
            .map(|(p, c)| {
                if c.is_empty() {
                    Vec::new()
                } else {
                    modulate_frame(p, c)
                }
            })
            .collect()
    }

    /// Demodulates per-carrier audio streams and re-interleaves the stripes.
    ///
    /// Returns the payload or the first carrier error encountered.
    pub fn demodulate(
        &self,
        audio: &[Vec<f32>],
        stripe: usize,
        payload_len: usize,
    ) -> Result<Vec<u8>, PhyError> {
        let stripe = stripe.max(1);
        let k = self.profiles.len();
        assert_eq!(audio.len(), k, "one audio stream per carrier");
        let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(k);
        for (p, a) in self.profiles.iter().zip(audio) {
            if a.is_empty() {
                chunks.push(Vec::new());
                continue;
            }
            let frames = demodulate_frames(p, a);
            let first = frames
                .into_iter()
                .next()
                .ok_or(PhyError::Truncated)?;
            chunks.push(first.payload?);
        }
        // Re-interleave.
        let mut out = Vec::with_capacity(payload_len);
        let mut offsets = vec![0usize; k];
        let mut i = 0usize;
        while out.len() < payload_len {
            let c = i % k;
            let take = stripe.min(payload_len - out.len());
            let chunk = &chunks[c];
            if offsets[c] + take > chunk.len() {
                // Short chunk: take what's there (final stripe).
                let have = chunk.len().saturating_sub(offsets[c]);
                out.extend_from_slice(&chunk[offsets[c]..offsets[c] + have]);
                if have == 0 && out.len() < payload_len {
                    return Err(PhyError::Truncated);
                }
                offsets[c] += have;
            } else {
                out.extend_from_slice(&chunk[offsets[c]..offsets[c] + take]);
                offsets[c] += take;
            }
            i += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_carriers_double_the_rate() {
        let one = MultiCarrier::sonic(1);
        let two = MultiCarrier::sonic(2);
        assert!((two.raw_rate_bps() / one.raw_rate_bps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stripe_roundtrip_two_carriers() {
        let mc = MultiCarrier::sonic(2);
        let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let streams = mc.modulate(&payload, 100);
        assert_eq!(streams.len(), 2);
        let got = mc.demodulate(&streams, 100, payload.len()).expect("roundtrip");
        assert_eq!(got, payload);
    }

    #[test]
    fn uneven_payload_roundtrip() {
        let mc = MultiCarrier::sonic(3);
        let payload: Vec<u8> = (0..437).map(|i| (i * 7 % 256) as u8).collect();
        let streams = mc.modulate(&payload, 64);
        let got = mc.demodulate(&streams, 64, payload.len()).expect("roundtrip");
        assert_eq!(got, payload);
    }

    #[test]
    fn single_carrier_is_plain_frame() {
        let mc = MultiCarrier::sonic(1);
        let payload = vec![9u8; 200];
        let streams = mc.modulate(&payload, 50);
        let got = mc.demodulate(&streams, 50, 200).expect("roundtrip");
        assert_eq!(got, payload);
    }

    #[test]
    fn carriers_do_not_overlap_in_frequency() {
        let mc = MultiCarrier::sonic(3);
        let mut bands: Vec<(f64, f64)> = mc
            .profiles()
            .iter()
            .map(|p| {
                let h = p.bandwidth() / 2.0;
                (p.center_freq - h, p.center_freq + h)
            })
            .collect();
        bands.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in bands.windows(2) {
            assert!(w[0].1 < w[1].0, "bands overlap: {w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mono band")]
    fn too_many_carriers_rejected() {
        let _ = MultiCarrier::sonic(4);
    }
}
