//! Multi-carrier aggregation.
//!
//! The paper: "Multiple frequencies can be used to increase the rate" —
//! e.g. broadcasting the same modem on several FM stations, or on several
//! audio carriers within one station's baseband. This module places `k`
//! independent OFDM carriers in the mono band and sums their rates, the
//! doubled and tripled throughput of the Figure 4(c) rate scenarios
//! (20 kbps, 40 kbps).

use sonic_modem::profile::Profile;

/// A set of OFDM carriers acting as one logical channel.
#[derive(Debug, Clone)]
pub struct MultiCarrier {
    profiles: Vec<Profile>,
}

impl MultiCarrier {
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

    /// Aggregate raw rate.
    pub fn raw_rate_bps(&self) -> f64 {
        self.profiles.iter().map(|p| p.raw_rate_bps()).sum()
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
    fn carriers_do_not_overlap_in_frequency() {
        let mc = MultiCarrier::sonic(3);
        let mut bands: Vec<(f64, f64)> = mc
            .profiles
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
