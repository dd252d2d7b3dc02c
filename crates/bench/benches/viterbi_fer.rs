//! Frame-error rate of the inner code against Eb/N0: the `f32` reference
//! Viterbi decoder and the integer one every receive path runs, on the same
//! noisy frames, beside the union bound the code's own distance spectrum
//! gives — theoretical vs observed, several seeds a row.
//!
//! BPSK over AWGN: each coded bit is sent as ±1 and received as ±1 + n,
//! n ~ N(0, σ²), σ² = 1 / (2 R Eb/N0) with R = 1/2 (the 8-bit tail is not
//! charged). A frame is 1 024 random info bits and is in error when any
//! decoded bit is. Each row decodes `SEEDS` × `frames` frames with both
//! decoders; "f32 only" and "i16 only" count the frames exactly one of them
//! got wrong, which measures the pair's difference directly.
//!
//! The bound is FER ≤ L · Σ_d A_d · Q(√(2 R d Eb/N0)), A_d the number of error
//! events of output weight d, enumerated on the trellis up to d = 24.
//!
//! A full run (a minute and a half on a 2-core host) also prints the Eb/N0 each
//! decoder needs for FER = 1e-2 (log-linear between the rows around it) and
//! exits non-zero when the integer decoder needs more than 0.1 dB over the
//! reference. `--smoke` decodes 40 frames a seed, in seconds, with no verdict.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use sonic_fec::conv::{self, K};
use sonic_fec::viterbi;
use sonic_sim::report::Table;

const INFO_BITS: usize = 1024;
const SEEDS: u64 = 5;
const EBN0_DB: [f64; 7] = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
const RATE: f64 = 0.5;
/// The FER at which the two decoders' Eb/N0 are compared.
const TARGET_FER: f64 = 1e-2;
/// The most the integer decoder may need over the reference there.
const MAX_LOSS_DB: f64 = 0.1;
/// Largest output weight the distance spectrum is enumerated to.
const D_MAX: usize = 24;

/// `(A_d, B_d)` for d = 0..=D_MAX: the number of error events (paths that
/// leave the zero state and first return to it) of output weight d, and
/// their total number of info-bit errors.
fn distance_spectrum() -> (Vec<f64>, Vec<f64>) {
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

/// Frames in error per seed, for the reference and the integer decoder,
/// and the frames only one of them got wrong.
struct Row {
    reference: Vec<u32>,
    integer: Vec<u32>,
    reference_only: u32,
    integer_only: u32,
}

fn measure(ebn0_db: f64, row: usize, frames: u32) -> Row {
    let sigma = (1.0 / (2.0 * RATE * 10f64.powf(ebn0_db / 10.0))).sqrt() as f32;
    let mut out = Row {
        reference: Vec::new(),
        integer: Vec::new(),
        reference_only: 0,
        integer_only: 0,
    };
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed << 8 | row as u64);
        let (mut reference, mut integer) = (0, 0);
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
            reference += u32::from(ref_bad);
            integer += u32::from(int_bad);
            out.reference_only += u32::from(ref_bad && !int_bad);
            out.integer_only += u32::from(int_bad && !ref_bad);
        }
        out.reference.push(reference);
        out.integer.push(integer);
    }
    out
}

/// Eb/N0 (dB) where `fer` first falls to `TARGET_FER`, log-linear between
/// the two rows around it; a row with no errors counts as half an error.
fn ebn0_at_target(fer: &[f64], frames: f64) -> Option<f64> {
    let log = |f: f64| f.max(0.5 / frames).log10();
    let k = fer.iter().position(|&f| f <= TARGET_FER)?;
    if k == 0 {
        return Some(EBN0_DB[0]);
    }
    let (x0, x1) = (EBN0_DB[k - 1], EBN0_DB[k]);
    let (y0, y1) = (log(fer[k - 1]), log(fer[k]));
    Some(x0 + (x1 - x0) * (TARGET_FER.log10() - y0) / (y1 - y0))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let frames: u32 = if smoke { 40 } else { 1000 };
    let (events, bit_errors) = distance_spectrum();
    let spectrum: Vec<String> = (0..=D_MAX)
        .filter(|&d| events[d] > 0.0)
        .take(4)
        .map(|d| format!("d={d}: {} events, {} bit errors", events[d], bit_errors[d]))
        .collect();
    println!(
        "Inner code K={K} r=1/2 (561/753) — FER vs Eb/N0, f32 reference vs i16 Viterbi, \
         {INFO_BITS}-bit frames, {SEEDS} seeds × {frames} frames a row{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!("distance spectrum: {}", spectrum.join("; "));

    let per_seed = |errors: &[u32]| -> String {
        let f = |e: u32| f64::from(e) / f64::from(frames);
        let (lo, hi) = (errors.iter().min(), errors.iter().max());
        format!("{:.4}–{:.4}", f(*lo.unwrap_or(&0)), f(*hi.unwrap_or(&0)))
    };
    let total = f64::from(frames) * SEEDS as f64;
    let mut table = Table::new(&[
        "Eb/N0 dB",
        "bound FER",
        "f32 FER",
        "f32 per seed",
        "i16 FER",
        "i16 per seed",
        "f32 only",
        "i16 only",
    ]);
    let (mut fer_ref, mut fer_int) = (Vec::new(), Vec::new());
    for (k, &db) in EBN0_DB.iter().enumerate() {
        let ebn0 = 10f64.powf(db / 10.0);
        let bound: f64 = (0..=D_MAX)
            .map(|d| events[d] * 0.5 * erfc((RATE * d as f64 * ebn0).sqrt()))
            .sum::<f64>()
            * INFO_BITS as f64;
        let r = measure(db, k, frames);
        let fer = |errors: &[u32]| f64::from(errors.iter().sum::<u32>()) / total;
        fer_ref.push(fer(&r.reference));
        fer_int.push(fer(&r.integer));
        table.row(&[
            format!("{db:.1}"),
            format!("{:.4}", bound.min(1.0)),
            format!("{:.4}", fer(&r.reference)),
            per_seed(&r.reference),
            format!("{:.4}", fer(&r.integer)),
            per_seed(&r.integer),
            r.reference_only.to_string(),
            r.integer_only.to_string(),
        ]);
    }
    println!("{}", table.render());

    let at = |fer: &[f64]| ebn0_at_target(fer, total);
    match (at(&fer_ref), at(&fer_int)) {
        (Some(r), Some(i)) => {
            let loss = i - r;
            println!(
                "Eb/N0 at FER {TARGET_FER}: f32 {r:.2} dB, i16 {i:.2} dB — i16 loss {loss:+.3} dB \
                 (need ≤ {MAX_LOSS_DB})"
            );
            if !smoke && loss > MAX_LOSS_DB {
                println!("FAIL: the integer decoder loses more than {MAX_LOSS_DB} dB");
                std::process::exit(1);
            }
        }
        _ => println!("FER {TARGET_FER} not reached in the swept range"),
    }
    println!(
        "expected: both FER curves within the seeds' spread of each other, under the union bound \
         where it is below 1 (it is loose near the cliff), and a handful of frames only one \
         decoder gets wrong"
    );
}
