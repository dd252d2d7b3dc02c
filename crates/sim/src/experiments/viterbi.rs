//! Frame-error rate of the inner code against Eb/N0: the `f32` reference
//! Viterbi decoder and the integer one every receive path runs, on the same
//! noisy frames, beside the union bound the code's own distance spectrum
//! gives — theoretical vs observed, several seeds a point.
//!
//! BPSK over AWGN: each coded bit is sent as ±1 and received as ±1 + n,
//! n ~ N(0, σ²), σ² = 1 / (2 R Eb/N0) with R = 1/2 (the 8-bit tail is not
//! charged). A frame is 1 024 random info bits and is in error when any
//! decoded bit is. Each point decodes [`SEEDS`] × `frames` frames with both
//! decoders; "reference only" and "integer only" count the frames exactly
//! one of them got wrong, which measures the pair's difference directly.
//!
//! The bound is FER ≤ L · Σ_d A_d · Q(√(2 R d Eb/N0)), A_d the number of error
//! events of output weight d, enumerated on the trellis up to d = 24.

use crate::pool;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use sonic_fec::conv::{self, K};
use sonic_fec::viterbi;

const INFO_BITS: usize = 1024;
const EBN0_DB: [f64; 7] = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
/// Seeds a point.
pub const SEEDS: u64 = 5;
const RATE: f64 = 0.5;
/// The FER at which the two decoders' Eb/N0 are compared.
const TARGET_FER: f64 = 1e-2;
/// Largest output weight the distance spectrum is enumerated to.
pub const D_MAX: usize = 24;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Frames a seed.
    pub frames: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { frames: 1000 }
    }
}

/// `(A_d, B_d)` for d = 0..=D_MAX: the number of error events (paths that
/// leave the zero state and first return to it) of output weight d, and
/// their total number of info-bit errors.
pub fn distance_spectrum() -> (Vec<f64>, Vec<f64>) {
    let states = 1usize << (K - 1);
    let (mut events, mut bit_errors) = (vec![0.0; D_MAX + 1], vec![0.0; D_MAX + 1]);
    // open[s][w] = (paths, their info-bit weight) now in state s ≠ 0 with
    // output weight w; the code is not catastrophic, so weight keeps growing
    // and every path ends or passes D_MAX.
    let mut open = vec![vec![(0.0, 0.0); D_MAX + 1]; states];
    let (first, a, b) = conv::step(0, 1);
    open[usize::from(first)][usize::from(a + b)] = (1.0, 1.0);
    while open.iter().flatten().any(|&(n, _)| n > 0.0) {
        let mut next = vec![vec![(0.0, 0.0); D_MAX + 1]; states];
        for (s, by_weight) in open.iter().enumerate() {
            for (w, &(n, info)) in by_weight.iter().enumerate().filter(|(_, p)| p.0 > 0.0) {
                for bit in 0..2u8 {
                    let (to, a, b) = conv::step(s as u16, bit);
                    let w = w + usize::from(a + b);
                    if w > D_MAX {
                        continue;
                    }
                    let info = info + n * f64::from(bit);
                    if to == 0 {
                        events[w] += n;
                        bit_errors[w] += info;
                    } else {
                        let slot = &mut next[usize::from(to)][w];
                        slot.0 += n;
                        slot.1 += info;
                    }
                }
            }
        }
        open = next;
    }
    (events, bit_errors)
}

/// erfc, Numerical Recipes' Chebyshev fit (fractional error < 1.2e-7).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// One unit-variance Gaussian draw (Box-Muller).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2 = rng.random::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// One Eb/N0 point: the union bound, the frames in error per seed for the
/// reference and the integer decoder, and the frames only one of them got
/// wrong.
#[derive(Debug, Clone)]
pub struct Point {
    /// Eb/N0 in dB.
    pub ebn0_db: f64,
    /// The union bound on FER, capped at 1.
    pub bound_fer: f64,
    /// Frames the `f32` reference decoder got wrong, per seed.
    pub reference: Vec<u32>,
    /// Frames the integer decoder got wrong, per seed.
    pub integer: Vec<u32>,
    /// Frames only the reference decoder got wrong.
    pub reference_only: u32,
    /// Frames only the integer decoder got wrong.
    pub integer_only: u32,
}

/// Frames one seed of one point got wrong: `[reference, integer, reference
/// only, integer only]`. The frames come from `StdRng(seed << 8 | row)`.
fn frame_errors(ebn0_db: f64, row: usize, seed: u64, frames: u32) -> [u32; 4] {
    let sigma = (1.0 / (2.0 * RATE * 10f64.powf(ebn0_db / 10.0))).sqrt() as f32;
    let mut rng = StdRng::seed_from_u64(seed << 8 | row as u64);
    let mut errors = [0; 4];
    for _ in 0..frames {
        let info: Vec<u8> = (0..INFO_BITS)
            .map(|_| (rng.next_u64() >> 63) as u8)
            .collect();
        let soft: Vec<f32> = conv::encode(&info)
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 } + sigma * gaussian(&mut rng))
            .collect();
        let ref_bad = viterbi::decode_soft_reference(&soft, INFO_BITS) != info;
        let int_bad = viterbi::decode_soft(&soft, INFO_BITS) != info;
        let bad = [ref_bad, int_bad, ref_bad && !int_bad, int_bad && !ref_bad];
        for (e, bad) in errors.iter_mut().zip(bad) {
            *e += u32::from(bad);
        }
    }
    errors
}

/// Runs the sweep, one point per Eb/N0: its (point, seed) jobs fan out on
/// [`pool::run_ordered`], so the points are the same at any worker count.
pub fn run_experiment(cfg: &Config) -> Vec<Point> {
    let (events, _) = distance_spectrum();
    let jobs: Vec<(usize, u64)> = (0..EBN0_DB.len())
        .flat_map(|row| (0..SEEDS).map(move |seed| (row, seed)))
        .collect();
    let errors = pool::run_ordered(jobs, pool::default_workers(), |(row, seed)| {
        frame_errors(EBN0_DB[row], row, seed, cfg.frames)
    });
    EBN0_DB
        .iter()
        .zip(errors.chunks(SEEDS as usize))
        .map(|(&ebn0_db, seeds)| {
            let ebn0 = 10f64.powf(ebn0_db / 10.0);
            let bound: f64 = (0..=D_MAX)
                .map(|d| events[d] * 0.5 * erfc((RATE * d as f64 * ebn0).sqrt()))
                .sum::<f64>()
                * INFO_BITS as f64;
            Point {
                ebn0_db,
                bound_fer: bound.min(1.0),
                reference: seeds.iter().map(|e| e[0]).collect(),
                integer: seeds.iter().map(|e| e[1]).collect(),
                reference_only: seeds.iter().map(|e| e[2]).sum(),
                integer_only: seeds.iter().map(|e| e[3]).sum(),
            }
        })
        .collect()
}

/// Eb/N0 (dB) where `fer` (one value per point, in sweep order) first falls
/// to FER 1e-2, log-linear between the two points around it; a point with no
/// errors in its `frames` counts as half an error.
pub fn ebn0_at_target(fer: &[f64], frames: f64) -> Option<f64> {
    let log = |f: f64| f.max(0.5 / frames).log10();
    let k = fer.iter().position(|&f| f <= TARGET_FER)?;
    if k == 0 {
        return Some(EBN0_DB[0]);
    }
    let (x0, x1) = (EBN0_DB[k - 1], EBN0_DB[k]);
    let (y0, y1) = (log(fer[k - 1]), log(fer[k]));
    Some(x0 + (x1 - x0) * (TARGET_FER.log10() - y0) / (y1 - y0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_has_the_published_k9_weights() {
        let (events, bit_errors) = distance_spectrum();
        assert_eq!(events[..12].iter().sum::<f64>(), 0.0, "free distance 12");
        assert_eq!((events[12], bit_errors[12]), (11.0, 33.0));
        assert_eq!((events[14], bit_errors[14]), (50.0, 281.0));
    }

    #[test]
    fn target_is_interpolated_log_linearly() {
        let at = ebn0_at_target(&[0.1, 0.001], 1000.0).expect("reached");
        assert!((at - 1.25).abs() < 1e-12, "{at}");
        assert_eq!(ebn0_at_target(&[0.5, 0.2], 1000.0), None);
    }
}
