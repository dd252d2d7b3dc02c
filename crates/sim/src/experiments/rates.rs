//! Rate table: SONIC profiles vs. the related-work baselines (§2, §3.3).
//!
//! Reproduces the numbers the paper positions itself against: Quiet's
//! audible ≈7 kbps, SONIC's 10 kbps profile, the multi-frequency 20/40 kbps
//! argument, GGwave's 128 bps FSK, chirp signalling at ~16 bps, and RDS's
//! 1187.5 bps subcarrier. Rates are *measured* by timing real modulated
//! audio, not just computed.

// The related-work baselines: the table needs only their modulators and
// rate math.
mod chirp;
mod fsk;
mod multi;

use chirp::ChirpConfig;
use fsk::FskConfig;
use multi::MultiCarrier;
use sonic_modem::frame::modulate_frame;
use sonic_modem::profile::Profile;
use sonic_radio::rds::RDS_BPS;

/// One row of the rate table.
#[derive(Debug, Clone)]
pub struct RateRow {
    /// System name.
    pub name: String,
    /// Theoretical raw rate in bps.
    pub raw_bps: f64,
    /// Measured net payload rate in bps (payload bits / audio duration),
    /// where measurable; `None` for aggregate/theoretical rows.
    pub measured_bps: Option<f64>,
    /// Notes (modulation, band).
    pub notes: String,
}

/// Measures the net rate of an OFDM profile by modulating a payload.
pub fn measure_ofdm_net_bps(profile: &Profile, payload_len: usize) -> f64 {
    let payload = vec![0xA5u8; payload_len];
    let audio = modulate_frame(profile, &payload);
    let seconds = audio.len() as f64 / profile.sample_rate;
    payload_len as f64 * 8.0 / seconds
}

/// Builds the full table.
pub fn run_experiment() -> Vec<RateRow> {
    let mut rows = Vec::new();

    for profile in [Profile::audible_7k(), Profile::sonic_10k(), Profile::cable_64k()] {
        let measured = measure_ofdm_net_bps(&profile, 4000);
        rows.push(RateRow {
            name: profile.name.to_string(),
            raw_bps: profile.raw_rate_bps(),
            measured_bps: Some(measured),
            notes: format!(
                "OFDM {} sc, {}, {:.1} kHz @ {:.1} kHz",
                profile.data_carriers,
                profile.modulation.name(),
                profile.bandwidth() / 1000.0,
                profile.center_freq / 1000.0
            ),
        });
    }

    for k in [2usize, 3] {
        let mc = MultiCarrier::sonic(k);
        rows.push(RateRow {
            name: format!("sonic-10k x{k}"),
            raw_bps: mc.raw_rate_bps(),
            measured_bps: None,
            notes: format!("{k} carriers (multi-frequency argument of §3.3)"),
        });
    }

    let fsk = FskConfig::ggwave_like();
    rows.push(RateRow {
        name: "fsk (ggwave-like)".into(),
        raw_bps: fsk.raw_rate_bps(),
        measured_bps: Some({
            let payload = vec![0x5Au8; 32];
            let audio = fsk::modulate(&fsk, &payload);
            32.0 * 8.0 / (audio.len() as f64 / fsk.sample_rate)
        }),
        notes: "16-FSK, 32 baud".into(),
    });

    let chirp = ChirpConfig::default();
    rows.push(RateRow {
        name: "chirp (Lee et al.)".into(),
        raw_bps: chirp.raw_rate_bps(),
        measured_bps: Some({
            let payload = vec![0xC3u8; 4];
            let audio = chirp::modulate(&chirp, &payload);
            4.0 * 8.0 / (audio.len() as f64 / chirp.sample_rate)
        }),
        notes: "1 bit/chirp, 2–6 kHz sweeps".into(),
    });

    rows.push(RateRow {
        name: "rds (RevCast)".into(),
        raw_bps: RDS_BPS,
        measured_bps: None,
        notes: "57 kHz subcarrier, biphase".into(),
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [RateRow], name: &str) -> &'a RateRow {
        rows.iter().find(|r| r.name == name).expect("row exists")
    }

    #[test]
    fn sonic_profile_nets_around_nine_kbps() {
        let rows = run_experiment();
        let sonic = row(&rows, "sonic-10k");
        let measured = sonic.measured_bps.expect("measured");
        // Paper's "10 kbps" profile: net after FEC/overhead in 8–11 kbps.
        assert!(
            measured > 8_000.0 && measured < 11_500.0,
            "measured {measured}"
        );
    }

    #[test]
    fn audible_7k_raw_matches_quiet() {
        let rows = run_experiment();
        let a = row(&rows, "audible-7k");
        assert!((a.raw_bps - 7_000.0).abs() < 300.0, "{}", a.raw_bps);
    }

    #[test]
    fn multi_frequency_scales_rates() {
        let rows = run_experiment();
        let x2 = row(&rows, "sonic-10k x2").raw_bps;
        let x3 = row(&rows, "sonic-10k x3").raw_bps;
        let x1 = row(&rows, "sonic-10k").raw_bps;
        assert!((x2 / x1 - 2.0).abs() < 1e-9);
        assert!((x3 / x1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn baselines_match_the_papers_citations() {
        let rows = run_experiment();
        assert!((row(&rows, "fsk (ggwave-like)").raw_bps - 128.0).abs() < 2.0);
        assert!((row(&rows, "chirp (Lee et al.)").raw_bps - 16.0).abs() < 0.5);
        assert!((row(&rows, "rds (RevCast)").raw_bps - 1187.5).abs() < 1e-9);
    }

    #[test]
    fn sonic_is_two_orders_over_ggwave() {
        let rows = run_experiment();
        let sonic = row(&rows, "sonic-10k").measured_bps.expect("measured");
        let fsk = row(&rows, "fsk (ggwave-like)").raw_bps;
        assert!(sonic / fsk > 60.0, "ratio {}", sonic / fsk);
    }
}
