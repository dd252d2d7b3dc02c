//! Fault injection: seeded, schedulable channel impairments at frame level.
//!
//! The AWGN channels in [`crate::channel`] model the *average* link; real FM
//! receivers additionally face impulsive interference (ignition noise, power
//! switching), co-channel stations sharing the frequency (cf. the FM-band
//! sharing analysis in *FM Backscatter*), tuner dropouts (seek, hand
//! blocking the antenna), slow sample-clock drift between transmitter and
//! phone, and deep RSSI fades. A [`FaultPlan`] composes any subset of these
//! as a deterministic schedule over absolute stream time, sampled at one
//! OFDM-frame granularity: [`FaultPlan::frame_fate`] gives one frame's fate
//! and [`FaultPlan::burst_loss_curve`] a whole burst's delivered-count model,
//! for day-scale simulations where running the DSP chain for 86 400 s of
//! audio is unaffordable. Every fate is a pure function of the plan, the
//! frame's stream time and a per-frame nonce, so any failure observed in a
//! run can be replayed bit-for-bit from `(plan, seed)` alone, and an empty
//! plan delivers every frame. The mapping from impairment to loss probability is documented on
//! [`Fault`].

/// One scheduled impairment, and the frame loss it causes (the rule
/// [`FaultPlan::frame_fate`] and [`FaultPlan::burst_loss_curve`] share):
///
/// * `Impulse` — a frame overlapping an impulse event is corrupted with
///   probability `min(1, amp)` (strong impulses saturate the demodulator's
///   AGC and soft bits; weak ones are absorbed by the FEC).
/// * `CoChannel` — a continuous interferer at relative amplitude `level`
///   corrupts each frame with probability `level²` (interference power
///   relative to carrier; below the FM capture threshold the stronger
///   station wins most of the time).
/// * `Mute` — frames overlapping the window are *lost* outright (the tuner
///   produces silence; no burst is even detected).
/// * `ClockDrift` — sample slips periodically break OFDM symbol alignment;
///   each frame is corrupted with probability `min(0.5, |ppm|/400)`.
/// * `Fade` — a fade of `depth_db` corrupts frames in its window with
///   probability `clamp((depth_db − 6)/20, 0, 1)`: shallow fades are inside
///   the link margin, deep ones drop below the FM threshold.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Impulsive/burst interference: `rate_per_s` noise bursts per second,
    /// each `len_s` long with amplitude `amp` (relative to unit signal).
    Impulse {
        /// Mean impulse events per second.
        rate_per_s: f64,
        /// Burst amplitude relative to the (unit) signal.
        amp: f32,
        /// Burst duration in seconds.
        len_s: f64,
    },
    /// A co-channel station at relative amplitude `level`, active for the
    /// whole run.
    CoChannel {
        /// Interferer amplitude relative to the unit carrier.
        level: f32,
    },
    /// Receiver mute window (tuner dropout): no audio in
    /// `[start_s, start_s + len_s)`.
    Mute {
        /// Window start, seconds of stream time.
        start_s: f64,
        /// Window length, seconds.
        len_s: f64,
    },
    /// Slow receiver sample-clock drift, which slips OFDM symbol alignment.
    ClockDrift {
        /// Receiver clock error in parts-per-million (0 disables).
        ppm: f64,
    },
    /// RSSI fade: signal attenuated by `depth_db` in the window.
    Fade {
        /// Window start, seconds of stream time.
        start_s: f64,
        /// Window length, seconds.
        len_s: f64,
        /// Fade depth in dB (positive = attenuation).
        depth_db: f64,
    },
}

/// What happens to one link frame under the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// The frame decodes.
    Delivered,
    /// A burst is detected but the frame fails its CRC/FEC.
    Corrupted,
    /// No burst is detected at all (receiver muted).
    Lost,
}

/// SplitMix64 step — the hash behind all schedule-derived randomness, here
/// and in every seeded simulation built on it (link faults, terrain,
/// listener populations, the cluster soak).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines seed material into one hash word.
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(a) ^ b) ^ c)
}

/// Uniform f64 in [0,1) from a hash word.
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard normal (approximately) from one hash word: sum of four 16-bit
/// uniform lanes, Irwin–Hall shaped (σ of the sum of 4 uniforms = √(4/12)).
pub fn gauss(h: u64) -> f64 {
    let sum = (h & 0xFFFF) + ((h >> 16) & 0xFFFF) + ((h >> 32) & 0xFFFF) + ((h >> 48) & 0xFFFF);
    (sum as f64 / 65_535.0 - 2.0) / 0.577_35
}

/// A seeded, composable impairment schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed: together with the fault list it fully determines every
    /// frame fate.
    pub seed: u64,
    /// The scheduled impairments.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: every frame is delivered.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// Whether the plan schedules no impairment.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Survival probability of one frame under the plan's non-mute faults,
    /// or `None` when the frame overlaps a mute window (lost outright).
    /// This is the probability kernel shared by [`frame_fate`](Self::frame_fate)
    /// (one draw per frame) and [`burst_loss_curve`](Self::burst_loss_curve)
    /// (moment accumulation across a whole burst).
    fn frame_survival(&self, t_s: f64, airtime_s: f64) -> Option<f64> {
        // Mute: overlap with any window loses the frame outright.
        for f in &self.faults {
            if let Fault::Mute { start_s, len_s } = f {
                if t_s < *start_s + *len_s && t_s + airtime_s > *start_s {
                    return None;
                }
            }
        }
        let mut survive = 1.0f64;
        for f in &self.faults {
            let p = match *f {
                Fault::Impulse {
                    rate_per_s,
                    amp,
                    len_s,
                } => {
                    // Probability the frame overlaps ≥1 impulse, times the
                    // per-overlap corruption probability.
                    let lambda = rate_per_s * (airtime_s + len_s);
                    (1.0 - (-lambda).exp()) * f64::from(amp).min(1.0)
                }
                Fault::CoChannel { level, .. } => f64::from(level * level).min(1.0),
                Fault::ClockDrift { ppm } => (ppm.abs() / 400.0).min(0.5),
                Fault::Fade {
                    start_s,
                    len_s,
                    depth_db,
                } => {
                    if t_s < start_s + len_s && t_s + airtime_s > start_s {
                        ((depth_db - 6.0) / 20.0).clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                }
                Fault::Mute { .. } => 0.0,
            };
            survive *= 1.0 - p;
        }
        Some(survive)
    }

    /// Frame-granularity sampling of the schedule: the fate of one link
    /// frame whose airtime is `[t_s, t_s + airtime_s)`. `nonce` must be
    /// unique per frame (e.g. a global frame counter) — the draw is
    /// `hash(seed, nonce)`, so fates are independent of evaluation order
    /// and replayable.
    pub fn frame_fate(&self, t_s: f64, airtime_s: f64, nonce: u64) -> FrameFate {
        if self.is_empty() {
            return FrameFate::Delivered;
        }
        let Some(survive) = self.frame_survival(t_s, airtime_s) else {
            return FrameFate::Lost;
        };
        let u = unit_f64(mix3(self.seed, nonce, 0xF2A7));
        if u < 1.0 - survive {
            FrameFate::Corrupted
        } else {
            FrameFate::Delivered
        }
    }

    /// Precomputes the loss model of one carousel burst — `n_frames` frames
    /// of `airtime_s` each starting at `t0_s` — for batched population-scale
    /// evaluation.
    ///
    /// The expensive part (walking the fault schedule per frame) runs
    /// **once per burst**; the result memoizes, per RSSI band × drift
    /// class, the mean and standard deviation of the delivered-frame count,
    /// so evaluating a listener costs one hash and a few multiplies
    /// regardless of burst size. The plan here is the *shared* site weather
    /// (impulses, co-channel, transmitter fades/outages); per-listener
    /// signal strength and mobility enter through the band/class axes.
    pub fn burst_loss_curve(
        &self,
        t0_s: f64,
        airtime_s: f64,
        n_frames: u32,
        nonce: u64,
    ) -> BurstLossCurve {
        // Poisson-binomial moments of the weather-only survival across the
        // burst: S1 = Σ pᶠ, S2 = Σ pᶠ² over non-muted frames.
        let mut s1 = 0.0f64;
        let mut s2 = 0.0f64;
        let mut lost = 0u32;
        for f in 0..n_frames {
            let t = t0_s + f64::from(f) * airtime_s;
            match self.frame_survival(t, airtime_s) {
                Some(p) => {
                    s1 += p;
                    s2 += p * p;
                }
                None => lost += 1,
            }
        }
        let alive = n_frames - lost;
        // Memoized delivered-count moments: scaling every frame's survival
        // by c = (1−band loss)(1−drift loss) gives mean c·S1 and variance
        // c·S1 − c²·S2 exactly (independent per-frame Bernoulli draws).
        let mut mean = [0.0f32; crate::rssi::RSSI_BANDS * DRIFT_CLASSES];
        let mut std = [0.0f32; crate::rssi::RSSI_BANDS * DRIFT_CLASSES];
        for band in 0..crate::rssi::RSSI_BANDS {
            let band_keep = 1.0 - crate::rssi::rssi_frame_loss(crate::rssi::band_center_db(band as u8));
            for (class, ppm) in DRIFT_CLASS_PPM.iter().enumerate() {
                let drift_keep = 1.0 - (ppm / 400.0).min(0.5);
                let c = band_keep * drift_keep;
                let m = c * s1;
                let v = (c * s1 - c * c * s2).max(0.0);
                let at = band * DRIFT_CLASSES + class;
                mean[at] = m as f32;
                std[at] = v.sqrt() as f32;
            }
        }
        BurstLossCurve {
            n_frames,
            n_lost: lost,
            n_alive: alive,
            draw_seed: mix3(self.seed, nonce, 0xB457),
            mean,
            std,
        }
    }
}

/// Number of listener drift classes in the batched fast path: receiver
/// sample-clock quality degraded by mobility (Doppler-style stress on OFDM
/// symbol alignment).
pub const DRIFT_CLASSES: usize = 4;

/// Effective clock error per drift class, in ppm: stationary, walking,
/// vehicle, fast transit. Mapped to per-frame corruption probability with
/// the same `min(0.5, ppm/400)` rule as [`Fault::ClockDrift`].
pub const DRIFT_CLASS_PPM: [f64; DRIFT_CLASSES] = [0.0, 20.0, 60.0, 120.0];

/// The per-burst loss model produced by [`FaultPlan::burst_loss_curve`]:
/// delivered-count mean/std memoized per RSSI band × drift class.
///
/// Sampling a listener is a pure function of `(plan seed, burst nonce,
/// listener id)` — independent of evaluation order, chunking, and worker
/// count — so population-scale runs replay bit-for-bit.
#[derive(Debug, Clone)]
pub struct BurstLossCurve {
    /// Frames in the burst.
    pub n_frames: u32,
    /// Frames lost outright for every listener (shared mute/outage).
    pub n_lost: u32,
    /// Frames actually contested (`n_frames − n_lost`).
    pub n_alive: u32,
    /// Hash seed for the per-listener draws (plan seed ⊕ burst nonce).
    draw_seed: u64,
    /// Delivered-count mean, indexed `band · DRIFT_CLASSES + class`.
    mean: [f32; crate::rssi::RSSI_BANDS * DRIFT_CLASSES],
    /// Delivered-count standard deviation, same indexing.
    std: [f32; crate::rssi::RSSI_BANDS * DRIFT_CLASSES],
}

impl BurstLossCurve {
    /// Expected delivered frames for one band/class cell.
    pub fn expected_delivered(&self, band: u8, class: u8) -> f64 {
        f64::from(self.mean[usize::from(band) * DRIFT_CLASSES + usize::from(class)])
    }

    /// Expected frame-loss fraction (corrupted + lost over the whole
    /// burst) for one band/class cell.
    pub fn expected_loss(&self, band: u8, class: u8) -> f64 {
        if self.n_frames == 0 {
            return 0.0;
        }
        1.0 - self.expected_delivered(band, class) / f64::from(self.n_frames)
    }

    /// Samples the delivered-frame count for one listener.
    ///
    /// The draw adds Irwin–Hall approximate-Gaussian noise (4 lanes of one
    /// 64-bit hash) to the memoized mean — mean-exact, variance-faithful,
    /// and costs one `mix3` regardless of burst size.
    #[inline]
    pub fn sample_delivered(&self, listener_id: u64, band: u8, class: u8) -> u32 {
        let at = usize::from(band) * DRIFT_CLASSES + usize::from(class);
        let m = self.mean[at];
        let s = self.std[at];
        if s == 0.0 {
            // Deterministic cell (clean or dead band on a quiet burst):
            // zero variance means the draw below would add z·0 anyway —
            // skip the hash. Identical results, and it is the majority
            // case in population runs.
            return (m + 0.5).clamp(0.0, self.n_alive as f32) as u32;
        }
        let h = mix3(self.draw_seed, listener_id, 0x9D5F);
        // Four 16-bit lanes summed: mean 2·65535/2, std 65535·√(4/12).
        let sum = (h & 0xFFFF) + ((h >> 16) & 0xFFFF) + ((h >> 32) & 0xFFFF) + ((h >> 48) & 0xFFFF);
        let z = (sum as f32 / 65_535.0 - 2.0) * (1.0 / 0.577_35);
        let d = m + z * s;
        (d + 0.5).clamp(0.0, self.n_alive as f32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hostile short-horizon plan: impulses, a co-channel interferer, one
    /// mute window and a deep fade in the first 10 s.
    fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: vec![
                Fault::Impulse {
                    rate_per_s: 2.0,
                    amp: 3.0,
                    len_s: 0.02,
                },
                Fault::CoChannel { level: 0.2 },
                Fault::Mute {
                    start_s: 2.0,
                    len_s: 1.0,
                },
                Fault::Fade {
                    start_s: 6.0,
                    len_s: 1.5,
                    depth_db: 30.0,
                },
            ],
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::none();
        for i in 0..100 {
            assert_eq!(plan.frame_fate(i as f64 * 0.1, 0.3, i), FrameFate::Delivered);
        }
    }

    #[test]
    fn frame_fate_is_deterministic_and_respects_mute() {
        let plan = hostile(11);
        // Mute window of `hostile` is [2, 3).
        assert_eq!(plan.frame_fate(2.4, 0.3, 900), FrameFate::Lost);
        assert_eq!(plan.frame_fate(2.95, 0.3, 901), FrameFate::Lost, "overlap");
        for nonce in 0..200u64 {
            let a = plan.frame_fate(10.0 + nonce as f64, 0.3, nonce);
            let b = plan.frame_fate(10.0 + nonce as f64, 0.3, nonce);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn hostile_plan_corrupts_some_frames_outside_mute() {
        let plan = hostile(17);
        let corrupted = (0..1000u64)
            .filter(|&i| plan.frame_fate(20.0 + i as f64 * 0.01, 0.3, i) == FrameFate::Corrupted)
            .count();
        assert!(corrupted > 20, "hostile plan too gentle: {corrupted}");
        assert!(corrupted < 1000, "hostile plan must not kill everything");
    }

    #[test]
    fn burst_curve_matches_per_frame_fates_statistically() {
        // Weather-only plan (no mute): the batched curve's expected loss in
        // a clean RSSI band must agree with the mean of per-frame
        // `frame_fate` draws over many nonces.
        let plan = FaultPlan {
            seed: 77,
            faults: vec![
                Fault::Impulse {
                    rate_per_s: 1.5,
                    amp: 2.0,
                    len_s: 0.02,
                },
                Fault::CoChannel { level: 0.25 },
                Fault::ClockDrift { ppm: 40.0 },
            ],
        };
        let airtime = 0.05;
        let n = 40u32;
        let curve = plan.burst_loss_curve(100.0, airtime, n, 0);
        let clean_band = crate::rssi::rssi_band(-70.0);
        let expected = curve.expected_loss(clean_band, 0);

        let mut corrupted = 0usize;
        let total = 20_000;
        for k in 0..total as u64 {
            let t = 100.0 + (k % u64::from(n)) as f64 * airtime;
            if plan.frame_fate(t, airtime, k) == FrameFate::Corrupted {
                corrupted += 1;
            }
        }
        let measured = corrupted as f64 / total as f64;
        assert!(
            (expected - measured).abs() < 0.02,
            "curve {expected} vs per-frame {measured}"
        );

        // And the sampler's mean must track the memoized mean.
        let mut sum = 0u64;
        let listeners = 5_000u64;
        for l in 0..listeners {
            sum += u64::from(curve.sample_delivered(l, clean_band, 0));
        }
        let mean = sum as f64 / listeners as f64;
        assert!(
            (mean - curve.expected_delivered(clean_band, 0)).abs() < 0.5,
            "sampled mean {mean} vs expected {}",
            curve.expected_delivered(clean_band, 0)
        );
    }

    #[test]
    fn burst_curve_counts_mute_overlap_as_shared_loss() {
        let plan = FaultPlan {
            seed: 5,
            faults: vec![Fault::Mute {
                start_s: 10.0,
                len_s: 1.0,
            }],
        };
        // 40 frames of 0.1 s starting at 9.5 s: frames in [10, 11) are muted.
        let curve = plan.burst_loss_curve(9.5, 0.1, 40, 3);
        assert_eq!(curve.n_frames, 40);
        assert!(curve.n_lost >= 9 && curve.n_lost <= 12, "lost {}", curve.n_lost);
        assert_eq!(curve.n_alive, 40 - curve.n_lost);
    }

    #[test]
    fn burst_curve_rssi_cliff_kills_dead_bands() {
        let curve = FaultPlan::none().burst_loss_curve(0.0, 0.05, 60, 1);
        let dead = crate::rssi::rssi_band(-100.0);
        let clean = crate::rssi::rssi_band(-70.0);
        for l in 0..64u64 {
            assert_eq!(curve.sample_delivered(l, dead, 0), 0);
            assert_eq!(curve.sample_delivered(l, clean, 0), 60);
        }
        // The cliff band sits strictly between.
        let edge = crate::rssi::rssi_band(crate::rssi::LOSS_CLIFF_DB);
        let loss = curve.expected_loss(edge, 0);
        assert!((0.2..0.8).contains(&loss), "cliff loss {loss}");
    }

    #[test]
    fn sampled_fates_stay_alive_bounded_and_replay() {
        let plan = hostile(31);
        let curve = plan.burst_loss_curve(20.0, 0.04, 40, 9);
        let again = plan.burst_loss_curve(20.0, 0.04, 40, 9);
        for i in 0..257u32 {
            let band = crate::rssi::rssi_band(-95.0 + f64::from(i % 60) * 0.5);
            let class = (i % 4) as u8;
            let d = curve.sample_delivered(1_000 + u64::from(i), band, class);
            assert!(d <= curve.n_alive, "listener {i}");
            assert_eq!(
                d,
                again.sample_delivered(1_000 + u64::from(i), band, class),
                "same seed ⇒ same fates"
            );
        }
    }

    #[test]
    fn drift_classes_cost_frames_monotonically() {
        let curve = FaultPlan::none().burst_loss_curve(0.0, 0.05, 100, 2);
        let band = crate::rssi::rssi_band(-87.0);
        let mut prev = f64::INFINITY;
        for class in 0..DRIFT_CLASSES as u8 {
            let m = curve.expected_delivered(band, class);
            assert!(m <= prev, "faster listeners must lose more: class {class}");
            prev = m;
        }
    }

    #[test]
    fn deep_fade_window_raises_corruption() {
        let plan = FaultPlan {
            seed: 21,
            faults: vec![Fault::Fade {
                start_s: 5.0,
                len_s: 5.0,
                depth_db: 30.0,
            }],
        };
        let in_fade = (0..500u64)
            .filter(|&i| plan.frame_fate(5.0 + i as f64 * 0.009, 0.01, i) != FrameFate::Delivered)
            .count();
        let outside = (0..500u64)
            .filter(|&i| plan.frame_fate(20.0 + i as f64 * 0.009, 0.01, 1000 + i) != FrameFate::Delivered)
            .count();
        assert_eq!(outside, 0);
        assert!(in_fade > 300, "deep fade must corrupt most frames: {in_fade}");
    }
}
