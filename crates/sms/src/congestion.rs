//! Carrier-side SMS congestion.
//!
//! [`SmsNetwork`](crate::network::SmsNetwork) models the *per-message*
//! experience of an unloaded carrier. At population scale the SMSC itself
//! becomes the bottleneck: store-and-forward cores serve a bounded number
//! of segments per second, diurnal demand pushes utilization toward (and
//! past) capacity every evening, and operators shed load once the retry
//! queue ages out. [`CongestionModel`] is the deterministic fluid model of
//! that core: offered load in, (queue delay, shed fraction) out — a pure
//! function, so population runs replay exactly.
//!
//! The shape is a standard M/M/1-with-bounded-queue approximation:
//!
//! * utilization ρ = offered / capacity,
//! * below saturation the mean queue wait grows as `ρ/(1−ρ)` service
//!   times (the Pollaczek–Khinchine knee), clamped by the queue bound,
//! * past saturation the surplus `1 − 1/ρ` is shed once the bounded queue
//!   has filled, and survivors wait the full queue age-out.

/// Deterministic carrier-core congestion model.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionModel {
    /// SMSC service rate in segments per second.
    pub capacity_per_s: f64,
    /// Mean service time of one segment at an idle core, in seconds.
    pub service_s: f64,
    /// Maximum queue age before the operator sheds load, in seconds.
    pub queue_limit_s: f64,
}

/// What one interval of offered load experiences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionPoint {
    /// Utilization ρ = offered / capacity (may exceed 1).
    pub utilization: f64,
    /// Mean extra queueing delay per segment, seconds.
    pub queue_delay_s: f64,
    /// Fraction of offered segments shed by the carrier, in [0, 1).
    pub shed_fraction: f64,
}

impl Default for CongestionModel {
    fn default() -> Self {
        // A regional SMSC serving one coverage area: ~200 segments/s,
        // 5 ms nominal service, 15 min age-out (observed carrier behaviour
        // during evening peaks: messages arrive minutes late, then start
        // vanishing).
        CongestionModel {
            capacity_per_s: 200.0,
            service_s: 0.005,
            queue_limit_s: 900.0,
        }
    }
}

impl CongestionModel {
    /// Evaluates the model at a given offered load (segments per second).
    ///
    /// Total extra latency for a surviving segment is `queue_delay_s`;
    /// `shed_fraction` of the offered segments never deliver. Monotone in
    /// `offered_per_s` on both axes.
    pub fn under_load(&self, offered_per_s: f64) -> CongestionPoint {
        let offered = offered_per_s.max(0.0);
        let rho = offered / self.capacity_per_s.max(1e-9);
        if rho < 1.0 {
            // M/M/1 mean wait, capped by the age-out bound.
            let wait = self.service_s * rho / (1.0 - rho);
            CongestionPoint {
                utilization: rho,
                queue_delay_s: wait.min(self.queue_limit_s),
                shed_fraction: 0.0,
            }
        } else {
            // Saturated: the queue pins at the age-out bound and the
            // surplus is shed.
            CongestionPoint {
                utilization: rho,
                queue_delay_s: self.queue_limit_s,
                shed_fraction: 1.0 - 1.0 / rho,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_core_adds_nothing() {
        let m = CongestionModel::default();
        let p = m.under_load(0.0);
        assert_eq!(p.queue_delay_s, 0.0);
        assert_eq!(p.shed_fraction, 0.0);
    }

    #[test]
    fn delay_grows_monotonically_toward_saturation() {
        let m = CongestionModel::default();
        let mut prev = -1.0;
        for frac in [0.1, 0.5, 0.8, 0.9, 0.95, 0.99] {
            let p = m.under_load(m.capacity_per_s * frac);
            assert!(p.queue_delay_s > prev, "delay must grow: ρ={frac}");
            assert_eq!(p.shed_fraction, 0.0, "no shedding below capacity");
            prev = p.queue_delay_s;
        }
    }

    #[test]
    fn overload_sheds_the_surplus_exactly() {
        let m = CongestionModel::default();
        let p = m.under_load(m.capacity_per_s * 2.0);
        assert!((p.shed_fraction - 0.5).abs() < 1e-12);
        assert_eq!(p.queue_delay_s, m.queue_limit_s);
        let p4 = m.under_load(m.capacity_per_s * 4.0);
        assert!((p4.shed_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn survivor_throughput_never_exceeds_capacity() {
        let m = CongestionModel::default();
        for mult in [0.5, 1.0, 1.5, 3.0, 10.0] {
            let offered = m.capacity_per_s * mult;
            let p = m.under_load(offered);
            let through = offered * (1.0 - p.shed_fraction);
            assert!(
                through <= m.capacity_per_s * (1.0 + 1e-9),
                "throughput {through} at ρ={mult}"
            );
        }
    }

    #[test]
    fn model_is_a_pure_function() {
        let m = CongestionModel::default();
        assert_eq!(m.under_load(137.5), m.under_load(137.5));
    }
}
