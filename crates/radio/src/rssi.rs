//! RSSI and path-loss arithmetic.
//!
//! The paper reports RSSI "typically ranging from 0 (strongest) to −120
//! (lowest)" dB, with FM requiring −65…−80 dB and total failure below
//! −90 dB. We model a transmitter with a fixed effective radiated power and
//! log-distance path loss; the tuner-reported RSSI is the received carrier
//! power in dB relative to the same reference a phone app would use.

/// Log-distance path-loss model.
#[derive(Debug, Clone, Copy)]
pub struct PathLoss {
    /// RSSI measured at the reference distance (dB).
    pub rssi_at_ref_db: f64,
    /// Reference distance in meters.
    pub ref_distance_m: f64,
    /// Path-loss exponent (2 = free space, 2.7–3.5 urban).
    pub exponent: f64,
}

impl Default for PathLoss {
    fn default() -> Self {
        // Calibrated to the paper's TR508 experiment: a low-power exciter
        // read ≈ −65 dB close by and faded through −90 dB near its ~1 km
        // range limit.
        PathLoss {
            rssi_at_ref_db: -63.0,
            ref_distance_m: 10.0,
            exponent: 2.8,
        }
    }
}

impl PathLoss {
    /// RSSI in dB at `distance_m` meters.
    pub fn rssi_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.ref_distance_m * 0.01);
        self.rssi_at_ref_db - 10.0 * self.exponent * (d / self.ref_distance_m).log10()
    }
}

/// Center of the frame-loss cliff: RSSI at which half the frames die.
///
/// Fitted to the full FM chain under the ±3 dB carrier fade it had when the
/// `rssi_sweep` target measured it. The `paper` target's `rssi.*` rows
/// (EXPERIMENTS.md §4 "Variable RSSI") are the chain's loss now: its cliff
/// sits below this one, nearer the paper's −90 dB. ROADMAP item 4 replaces
/// this logistic with a table measured on the chain.
pub const LOSS_CLIFF_DB: f64 = -88.8;

/// Logistic width of the cliff in dB (smaller = steeper).
pub const LOSS_CLIFF_WIDTH_DB: f64 = 1.0;

/// RSSI above which the chain is treated as exactly lossless, and below
/// which (mirrored around the cliff) as totally dead.
pub const LOSS_CLEAN_DB: f64 = -84.0;

/// Expected frame-loss probability of the full FM receive chain at a given
/// tuner RSSI — the memoized per-band curve behind the scenario engine's
/// frame-fate fast path.
///
/// A logistic centered on [`LOSS_CLIFF_DB`], clamped to exactly 0 above
/// [`LOSS_CLEAN_DB`] and exactly 1 the same margin below the cliff. The
/// seeded equivalence test in `sonic-sim` holds this curve against
/// full-DSP cohort runs across the sweep.
pub fn rssi_frame_loss(rssi_db: f64) -> f64 {
    if rssi_db >= LOSS_CLEAN_DB {
        return 0.0;
    }
    if rssi_db <= 2.0 * LOSS_CLIFF_DB - LOSS_CLEAN_DB {
        return 1.0;
    }
    1.0 / (1.0 + ((rssi_db - LOSS_CLIFF_DB) / LOSS_CLIFF_WIDTH_DB).exp())
}

/// Quantized RSSI bands for the batched fast path: `RSSI_BANDS` half-dB
/// bands spanning [`RSSI_BAND_FLOOR_DB`, `RSSI_BAND_FLOOR_DB +
/// RSSI_BANDS·RSSI_BAND_STEP_DB`). Everything below the floor is band 0
/// (dead), everything above the top is the last band (clean).
pub const RSSI_BANDS: usize = 100;
/// Lowest band edge in dB.
pub const RSSI_BAND_FLOOR_DB: f64 = -110.0;
/// Band width in dB.
pub const RSSI_BAND_STEP_DB: f64 = 0.5;

/// Band index of an RSSI reading.
pub fn rssi_band(rssi_db: f64) -> u8 {
    let idx = (rssi_db - RSSI_BAND_FLOOR_DB) / RSSI_BAND_STEP_DB;
    idx.clamp(0.0, (RSSI_BANDS - 1) as f64) as u8
}

/// Center RSSI of a band in dB.
pub fn band_center_db(band: u8) -> f64 {
    RSSI_BAND_FLOOR_DB + (f64::from(band) + 0.5) * RSSI_BAND_STEP_DB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rssi_decreases_with_distance() {
        let pl = PathLoss::default();
        let mut prev = f64::MAX;
        for d in [1.0, 10.0, 100.0, 500.0, 1000.0] {
            let r = pl.rssi_db(d);
            assert!(r < prev, "RSSI must fall with distance");
            prev = r;
        }
    }

    #[test]
    fn default_covers_the_papers_range() {
        let pl = PathLoss::default();
        // Usable FM window (−65…−85 dB) should span sensible distances
        // within the TR508's ~1 km reach: −65 dB is crossed between 5 and
        // 50 m, −90 dB between 50 m and 2 km.
        assert!(pl.rssi_db(5.0) > -65.0 && pl.rssi_db(50.0) < -65.0);
        assert!(pl.rssi_db(50.0) > -90.0 && pl.rssi_db(2_000.0) < -90.0);
    }

    #[test]
    fn exponent_two_is_inverse_square() {
        let pl = PathLoss {
            rssi_at_ref_db: -60.0,
            ref_distance_m: 1.0,
            exponent: 2.0,
        };
        assert!((pl.rssi_db(10.0) - (-80.0)).abs() < 1e-9);
    }

    #[test]
    fn loss_curve_matches_the_measured_sweep_anchors() {
        // EXPERIMENTS.md §4: clean at −65…−85, ~30 % mean at −88, dead ≤ −92.
        for r in [-65.0, -70.0, -80.0, -85.0] {
            assert!(rssi_frame_loss(r) < 0.03, "r={r}");
        }
        let at_cliff = rssi_frame_loss(-88.0);
        assert!((0.15..0.5).contains(&at_cliff), "loss(-88) = {at_cliff}");
        assert!(rssi_frame_loss(-92.0) > 0.95);
        assert_eq!(rssi_frame_loss(-100.0), 1.0);
        assert_eq!(rssi_frame_loss(-60.0), 0.0);
    }

    #[test]
    fn loss_curve_is_monotone_in_rssi() {
        let mut prev = 1.0;
        let mut r = -105.0;
        while r < -60.0 {
            let p = rssi_frame_loss(r);
            assert!(p <= prev + 1e-12, "loss must not grow with signal: {r}");
            prev = p;
            r += 0.25;
        }
    }

    #[test]
    fn bands_quantize_and_roundtrip() {
        assert_eq!(rssi_band(-200.0), 0);
        assert_eq!(rssi_band(0.0), (RSSI_BANDS - 1) as u8);
        for r in [-95.3, -88.0, -84.2, -70.9] {
            let b = rssi_band(r);
            assert!((band_center_db(b) - r).abs() <= RSSI_BAND_STEP_DB, "r={r}");
        }
    }
}
