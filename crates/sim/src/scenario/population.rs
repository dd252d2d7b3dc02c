//! Zipf-ranked listener populations on the terrain.
//!
//! A country's radio audience is not uniform: it clusters in a few big
//! cities and a long tail of towns (the same Zipf shape the paper uses for
//! page popularity). [`Population::build`] places `n` listeners across
//! Zipf-weighted population centers with Gaussian urban scatter, snaps each
//! home to its serving transmitter and RSSI band once (static listeners
//! never move again — their fate cell is a constant), and elects a
//! `mobile_fraction` of commuters who shuttle between two centers on
//! waypoint routes. A mobile listener's position — and therefore its RSSI
//! band and Doppler-style drift class — is a **pure function of
//! `(seed, listener, t)`**, which is what lets the engine evaluate epochs
//! in parallel on any worker count and still replay byte-identically.

use crate::terrain::TerrainGrid;
use sonic_radio::faults::{gauss, mix, mix3, unit_f64, DRIFT_CLASSES};

/// One population center.
#[derive(Debug, Clone, Copy)]
pub struct City {
    /// Center, meters east.
    pub x_m: f64,
    /// Center, meters north.
    pub y_m: f64,
    /// Zipf weight (rank 0 is the capital).
    pub weight: f64,
    /// Urban scatter radius in meters (σ of listener placement).
    pub radius_m: f64,
}

/// A commuter's waypoint route: back and forth between two points at a
/// fixed speed, phase-shifted so the fleet is spread along its routes.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Listener index this route belongs to.
    pub listener: u32,
    /// Route start (home), meters.
    pub ax_m: f32,
    /// Route start (home), meters.
    pub ay_m: f32,
    /// Route end (destination city), meters.
    pub bx_m: f32,
    /// Route end (destination city), meters.
    pub by_m: f32,
    /// Travel speed in m/s.
    pub speed_mps: f32,
    /// Phase offset into the round trip, seconds.
    pub phase_s: f32,
    /// Doppler-style drift class while moving (index into
    /// [`sonic_radio::faults::DRIFT_CLASS_PPM`]).
    pub class: u8,
}

impl Route {
    /// Position at absolute scenario time `t_s` — a triangle wave along the
    /// segment, so the commuter shuttles A → B → A forever.
    pub fn position(&self, t_s: f64) -> (f64, f64) {
        let dx = f64::from(self.bx_m - self.ax_m);
        let dy = f64::from(self.by_m - self.ay_m);
        let len = (dx * dx + dy * dy).sqrt().max(1.0);
        let period = 2.0 * len / f64::from(self.speed_mps);
        let u = ((t_s + f64::from(self.phase_s)) / period).fract();
        let along = if u < 0.5 { 2.0 * u } else { 2.0 - 2.0 * u };
        (
            f64::from(self.ax_m) + dx * along,
            f64::from(self.ay_m) + dy * along,
        )
    }
}

/// The placed population in SoA form.
///
/// `site`/`cell` hold the *home* snapshot; the engine patches the mobile
/// subset per epoch into its own scratch copies, so this struct is shared
/// read-only across workers.
#[derive(Debug, Clone)]
pub struct Population {
    /// Home position, meters east (per listener).
    pub home_x_m: Vec<f32>,
    /// Home position, meters north (per listener).
    pub home_y_m: Vec<f32>,
    /// Serving transmitter at home (per listener).
    pub site: Vec<u8>,
    /// Fate cell at home: `band * DRIFT_CLASSES + class` (per listener).
    pub cell: Vec<u16>,
    /// Commuter routes (sparse: one entry per mobile listener, ascending
    /// listener index).
    pub routes: Vec<Route>,
    /// The population centers, Zipf rank order.
    pub cities: Vec<City>,
}

impl Population {
    /// Places `listeners` people across `n_cities` Zipf-weighted centers
    /// on the terrain, with `mobile_fraction` commuting.
    pub fn build(
        terrain: &TerrainGrid,
        listeners: usize,
        n_cities: usize,
        mobile_fraction: f64,
        seed: u64,
    ) -> Population {
        let size = terrain.size_m();
        let n_cities = n_cities.max(1);

        // Cities: each center sits near a transmitter site (relays get
        // built where people live — the capital shares the center site),
        // offset by a hashed couple of kilometers so coverage has texture.
        // Zipf weights 1/(rank+1), scatter radius shrinking with rank.
        let sites = terrain.sites();
        let mut cities = Vec::with_capacity(n_cities);
        let mut cum = Vec::with_capacity(n_cities);
        let mut total_w = 0.0;
        for rank in 0..n_cities {
            let h = mix3(seed ^ 0xC171, rank as u64, 0x01);
            let anchor = sites[rank % sites.len()];
            let x = (anchor.x_m + gauss(h) * 1_500.0).clamp(0.0, size);
            let y = (anchor.y_m + gauss(mix(h)) * 1_500.0).clamp(0.0, size);
            let weight = 1.0 / (rank as f64 + 1.0);
            let radius = size * 0.035 / (rank as f64 + 1.0).powf(0.3);
            cities.push(City {
                x_m: x,
                y_m: y,
                weight,
                radius_m: radius,
            });
            total_w += weight;
            cum.push(total_w);
        }

        let mut home_x_m = Vec::with_capacity(listeners);
        let mut home_y_m = Vec::with_capacity(listeners);
        let mut site = Vec::with_capacity(listeners);
        let mut cell = Vec::with_capacity(listeners);
        let mut routes = Vec::new();

        for l in 0..listeners {
            let lh = mix3(seed ^ 0x11F0, l as u64, 0x02);
            // Weighted city pick.
            let u = unit_f64(lh) * total_w;
            let city_idx = cum.partition_point(|&c| c < u).min(n_cities - 1);
            let city = cities[city_idx];
            // Gaussian urban scatter, clamped inside the region.
            let gx = gauss(mix3(lh, 0x0A, 0x0B));
            let gy = gauss(mix3(lh, 0x0C, 0x0D));
            let x = (city.x_m + gx * city.radius_m).clamp(0.0, size);
            let y = (city.y_m + gy * city.radius_m).clamp(0.0, size);
            let (s, rssi) = terrain.best_site(x, y);
            home_x_m.push(x as f32);
            home_y_m.push(y as f32);
            site.push(s);
            cell.push(u16::from(sonic_radio::rssi::rssi_band(rssi)) * DRIFT_CLASSES as u16);

            // Commuters: route home → another city at a hashed speed.
            let mh = mix3(seed ^ 0x30B1, l as u64, 0x03);
            if unit_f64(mh) < mobile_fraction {
                let dest = cities[(mix(mh) as usize) % n_cities];
                let speed = 1.2 + unit_f64(mix3(mh, 0x04, 0x05)) * 24.0;
                // Drift class by speed: pedestrian, bus, highway.
                let class: u8 = if speed < 3.0 {
                    1
                } else if speed < 15.0 {
                    2
                } else {
                    3
                };
                let dx = dest.x_m - x;
                let dy = dest.y_m - y;
                let len = (dx * dx + dy * dy).sqrt().max(1.0);
                let period = 2.0 * len / speed;
                routes.push(Route {
                    listener: l as u32,
                    ax_m: x as f32,
                    ay_m: y as f32,
                    bx_m: dest.x_m as f32,
                    by_m: dest.y_m as f32,
                    speed_mps: speed as f32,
                    phase_s: (unit_f64(mix3(mh, 0x06, 0x07)) * period) as f32,
                    class,
                });
            }
        }

        Population {
            home_x_m,
            home_y_m,
            site,
            cell,
            routes,
            cities,
        }
    }

    /// Number of listeners.
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }

    /// Resident memory of the population state in bytes (the SoA arrays +
    /// routes) — the engine's per-listener state budget.
    pub fn state_bytes(&self) -> usize {
        self.home_x_m.len() * (4 + 4 + 1 + 2)
            + self.routes.len() * std::mem::size_of::<Route>()
            + self.cities.len() * std::mem::size_of::<City>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::{TerrainConfig, TerrainGrid};

    fn small_pop() -> (TerrainGrid, Population) {
        let t = TerrainGrid::generate(TerrainConfig::default());
        let p = Population::build(&t, 5_000, 12, 0.2, 7);
        (t, p)
    }

    #[test]
    fn build_is_deterministic() {
        let (_, a) = small_pop();
        let (_, b) = small_pop();
        assert_eq!(a.site, b.site);
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.routes.len(), b.routes.len());
    }

    #[test]
    fn population_is_zipf_clustered() {
        let (_, p) = small_pop();
        // The capital (rank 0) must hold the plurality of listeners: count
        // homes within 2σ of each center.
        let counts: Vec<usize> = p
            .cities
            .iter()
            .map(|c| {
                p.home_x_m
                    .iter()
                    .zip(&p.home_y_m)
                    .filter(|&(&x, &y)| {
                        let dx = f64::from(x) - c.x_m;
                        let dy = f64::from(y) - c.y_m;
                        (dx * dx + dy * dy).sqrt() < 2.0 * c.radius_m
                    })
                    .count()
            })
            .collect();
        let top = counts[0];
        assert!(
            counts.iter().skip(3).all(|&c| c <= top),
            "capital must outrank the tail: {counts:?}"
        );
    }

    #[test]
    fn mobile_fraction_is_respected() {
        let (_, p) = small_pop();
        let frac = p.routes.len() as f64 / p.len() as f64;
        assert!((0.15..0.25).contains(&frac), "mobile fraction {frac}");
    }

    #[test]
    fn routes_shuttle_between_endpoints() {
        let (_, p) = small_pop();
        let r = p.routes[0];
        let (x0, y0) = r.position(0.0);
        // Position stays on the segment's bounding box at all times.
        for t in [0.0, 100.0, 1_000.0, 10_000.0, 86_400.0] {
            let (x, y) = r.position(t);
            let (lo_x, hi_x) = (r.ax_m.min(r.bx_m), r.ax_m.max(r.bx_m));
            let (lo_y, hi_y) = (r.ay_m.min(r.by_m), r.ay_m.max(r.by_m));
            assert!(x >= f64::from(lo_x) - 1.0 && x <= f64::from(hi_x) + 1.0);
            assert!(y >= f64::from(lo_y) - 1.0 && y <= f64::from(hi_y) + 1.0);
        }
        // And it actually moves.
        let (x1, y1) = r.position(600.0);
        assert!((x1 - x0).abs() + (y1 - y0).abs() > 1.0, "commuter must move");
    }

    #[test]
    fn static_cells_sit_in_valid_bands() {
        let (_, p) = small_pop();
        for &c in &p.cell {
            assert_eq!(usize::from(c) % DRIFT_CLASSES, 0, "home class must be 0");
            assert!(usize::from(c) / DRIFT_CLASSES < sonic_radio::rssi::RSSI_BANDS);
        }
    }
}
