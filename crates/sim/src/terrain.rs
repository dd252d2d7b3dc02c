//! Synthetic terrain: transmitter sites + correlated shadowing over a
//! country-scale plane.
//!
//! The scenario engine places listeners on a square region served by a
//! handful of FM transmitters. Signal at a point is log-distance path loss
//! ([`sonic_radio::rssi::PathLoss`]) minus a *shadowing field*: correlated
//! log-normal terrain obstruction, the standard model for hills/buildings
//! between a broadcast tower and a handset tuner.
//!
//! The shadow field is **procedural**: a coarse lattice of seeded Gaussian
//! values (one SplitMix64 hash per node, Irwin–Hall shaped) bilinearly
//! interpolated to any query point. Nothing is stored — the field is a pure
//! function of `(seed, site, x, y)`, so a 100 k-listener population costs
//! zero terrain memory and replays identically on any machine or worker
//! count. Each site gets an independent field (different propagation paths
//! see different obstructions).

use sonic_radio::faults::{gauss, mix3};
use sonic_radio::rssi::PathLoss;

/// One broadcast transmitter on the plane.
#[derive(Debug, Clone, Copy)]
pub struct TxSite {
    /// Site position, meters east of the region origin.
    pub x_m: f64,
    /// Site position, meters north of the region origin.
    pub y_m: f64,
    /// Path-loss model for this site's ERP and antenna height.
    pub path: PathLoss,
}

/// Configuration of the synthetic region.
#[derive(Debug, Clone, Copy)]
pub struct TerrainConfig {
    /// Side of the square region in meters.
    pub size_m: f64,
    /// Number of transmitter sites (1 center + a ring).
    pub sites: usize,
    /// Shadowing standard deviation in dB (log-normal σ; 4–8 typical).
    pub shadow_sigma_db: f64,
    /// Correlation length of the shadow field in meters (lattice pitch).
    pub shadow_cell_m: f64,
    /// Seed for the shadow field and site jitter.
    pub seed: u64,
}

impl Default for TerrainConfig {
    fn default() -> Self {
        // A 36 km × 36 km region — one metro area plus its hinterland —
        // served by a broadcast-class center site and a ring of relays.
        // 5.5 dB shadowing with 900 m correlation is the classic
        // suburban/hilly figure.
        TerrainConfig {
            size_m: 36_000.0,
            sites: 9,
            shadow_sigma_db: 5.5,
            shadow_cell_m: 900.0,
            seed: 1,
        }
    }
}

/// The generated region: sites + procedural shadow field.
#[derive(Debug, Clone)]
pub struct TerrainGrid {
    cfg: TerrainConfig,
    sites: Vec<TxSite>,
}

/// Broadcast-class path loss: a real FM relay (hundreds of watts, high
/// mast), not the paper's desktop TR508 exciter. −40 dB at 100 m with
/// exponent 2.9 puts the −85 dB usable edge near 3.5 km and the −92 dB
/// dead line near 6 km — a sensible relay footprint.
const SITE_PATH: PathLoss = PathLoss {
    rssi_at_ref_db: -40.0,
    ref_distance_m: 100.0,
    exponent: 2.9,
};

impl TerrainGrid {
    /// Builds the region: site 0 in the center, the rest on a ring at 40 %
    /// of the half-size with seeded angular jitter.
    pub fn generate(cfg: TerrainConfig) -> TerrainGrid {
        let n = cfg.sites.max(1);
        let half = cfg.size_m / 2.0;
        let mut sites = Vec::with_capacity(n);
        sites.push(TxSite {
            x_m: half,
            y_m: half,
            path: SITE_PATH,
        });
        let ring = half * 0.8;
        for i in 1..n {
            let frac = (i - 1) as f64 / (n - 1) as f64;
            let jitter = gauss(mix3(cfg.seed, 0x5174, i as u64)) * 0.05;
            let ang = (frac + jitter) * std::f64::consts::TAU;
            sites.push(TxSite {
                x_m: half + ring * ang.cos(),
                y_m: half + ring * ang.sin(),
                path: SITE_PATH,
            });
        }
        TerrainGrid { cfg, sites }
    }

    /// The transmitter sites.
    pub fn sites(&self) -> &[TxSite] {
        &self.sites
    }

    /// Side of the square region in meters.
    pub fn size_m(&self) -> f64 {
        self.cfg.size_m
    }

    /// Shadow attenuation in dB seen from `site` at `(x, y)` — bilinear
    /// interpolation of the seeded Gaussian lattice. Positive values
    /// attenuate; the field has zero mean and σ = `shadow_sigma_db`.
    pub fn shadow_db(&self, site: usize, x_m: f64, y_m: f64) -> f64 {
        let pitch = self.cfg.shadow_cell_m.max(1.0);
        let gx = x_m / pitch;
        let gy = y_m / pitch;
        let ix = gx.floor();
        let iy = gy.floor();
        let fx = gx - ix;
        let fy = gy - iy;
        let node = |dx: i64, dy: i64| -> f64 {
            // Offset so negative coordinates stay distinct after the cast.
            let nx = (ix as i64 + dx + 0x10_0000) as u64;
            let ny = (iy as i64 + dy + 0x10_0000) as u64;
            gauss(mix3(
                self.cfg.seed ^ 0x5AAD_0000 ^ site as u64,
                nx,
                ny,
            ))
        };
        let top = node(0, 0) * (1.0 - fx) + node(1, 0) * fx;
        let bot = node(0, 1) * (1.0 - fx) + node(1, 1) * fx;
        (top * (1.0 - fy) + bot * fy) * self.cfg.shadow_sigma_db
    }

    /// Tuner RSSI in dB from `site` at `(x, y)`: path loss minus shadowing.
    pub fn rssi_db(&self, site: usize, x_m: f64, y_m: f64) -> f64 {
        let s = &self.sites[site];
        let d = (x_m - s.x_m).hypot(y_m - s.y_m);
        s.path.rssi_db(d) - self.shadow_db(site, x_m, y_m)
    }

    /// The site a receiver at `(x, y)` locks to, and the RSSI it sees.
    ///
    /// Selection is by distance (what a seek-scan settles on in practice);
    /// the returned RSSI includes that site's shadowing, so fringe
    /// listeners can still be in a shadow hole of their nearest site —
    /// exactly the coverage texture the paper's §4 sweep measures.
    pub fn best_site(&self, x_m: f64, y_m: f64) -> (u8, f64) {
        let mut best = 0usize;
        let mut best_d2 = f64::MAX;
        for (i, s) in self.sites.iter().enumerate() {
            let dx = x_m - s.x_m;
            let dy = y_m - s.y_m;
            let d2 = dx * dx + dy * dy;
            if d2 < best_d2 {
                best_d2 = d2;
                best = i;
            }
        }
        (best as u8, self.rssi_db(best, x_m, y_m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TerrainGrid::generate(TerrainConfig::default());
        let b = TerrainGrid::generate(TerrainConfig::default());
        for (x, y) in [(1_000.0, 2_000.0), (18_000.0, 18_000.0), (30_000.0, 5_000.0)] {
            assert_eq!(a.rssi_db(0, x, y), b.rssi_db(0, x, y));
            assert_eq!(a.best_site(x, y), b.best_site(x, y));
        }
    }

    #[test]
    fn shadow_field_is_correlated_but_not_constant() {
        let t = TerrainGrid::generate(TerrainConfig::default());
        // Nearby points (well under the correlation length) agree closely…
        let a = t.shadow_db(0, 10_000.0, 10_000.0);
        let b = t.shadow_db(0, 10_050.0, 10_000.0);
        assert!((a - b).abs() < 2.0, "50 m apart: {a} vs {b}");
        // …and the field varies across the region with roughly the right σ.
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let mut n = 0.0;
        for i in 0..40 {
            for j in 0..40 {
                let v = t.shadow_db(0, i as f64 * 900.0, j as f64 * 900.0);
                sum += v;
                sum2 += v * v;
                n += 1.0;
            }
        }
        let mean = sum / n;
        let sd = (sum2 / n - mean * mean).sqrt();
        assert!(mean.abs() < 1.0, "shadow mean {mean}");
        assert!((3.0..8.0).contains(&sd), "shadow σ {sd}");
    }

    #[test]
    fn sites_see_independent_shadows() {
        let t = TerrainGrid::generate(TerrainConfig::default());
        let a = t.shadow_db(0, 9_000.0, 9_000.0);
        let b = t.shadow_db(1, 9_000.0, 9_000.0);
        assert!((a - b).abs() > 1e-6, "site fields must differ");
    }

    #[test]
    fn center_is_strong_and_the_far_corner_is_fringe() {
        let t = TerrainGrid::generate(TerrainConfig::default());
        let half = t.size_m() / 2.0;
        let (_, center) = t.best_site(half, half - 300.0);
        assert!(center > -70.0, "near the center site: {center}");
        // A point at the exact corner is ~7 km from the nearest ring site:
        // fringe or dead, never clean.
        let (_, corner) = t.best_site(10.0, 10.0);
        assert!(corner < -80.0, "far corner: {corner}");
    }

    #[test]
    fn best_site_picks_the_nearest_tower() {
        let t = TerrainGrid::generate(TerrainConfig::default());
        let s1 = t.sites()[1];
        let (site, _) = t.best_site(s1.x_m, s1.y_m);
        assert_eq!(site, 1);
    }
}
