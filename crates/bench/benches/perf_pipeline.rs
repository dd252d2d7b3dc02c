//! DSP kernel acceptance bench for the broadcast path.
//!
//! Reference-vs-optimized timings for the two DSP acceptance targets
//! (`ofdm_modulate_1kB`, `viterbi_k9_800bits`), where the reference is the
//! original per-call implementation kept in-tree as the executable
//! specification. Both run in the same process back-to-back so the
//! comparison cancels machine noise; minimum-of-samples is reported because
//! it is the noise-robust statistic on shared hardware.

use sonic_fec::{conv, viterbi};
use sonic_modem::{modulate_frame, modulate_frame_reference, Profile};
use std::hint::black_box;
use std::time::Instant;

/// Minimum wall time of `samples` runs of `iters` iterations, in seconds
/// per iteration.
fn best_time(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

fn check(name: &str, reference_s: f64, optimized_s: f64, need: f64) -> bool {
    let speedup = reference_s / optimized_s;
    let verdict = if speedup >= need { "PASS" } else { "FAIL" };
    println!(
        "{name:<24} reference {:>9.1} us   optimized {:>9.1} us   speedup {speedup:>5.2}x (need >= {need:.1}x)  [{verdict}]",
        reference_s * 1e6,
        optimized_s * 1e6,
    );
    speedup >= need
}

fn main() {
    let mut all_pass = true;

    // --- ofdm_modulate_1kB -------------------------------------------------
    let profile = Profile::sonic_10k();
    let payload = vec![0xA5u8; 1000];
    // Warm both paths (thread-local codec cache, allocator).
    black_box(modulate_frame_reference(&profile, &payload));
    black_box(modulate_frame(&profile, &payload));
    let reference = best_time(10, 5, || {
        black_box(modulate_frame_reference(black_box(&profile), black_box(&payload)));
    });
    let optimized = best_time(10, 5, || {
        black_box(modulate_frame(black_box(&profile), black_box(&payload)));
    });
    all_pass &= check("ofdm_modulate_1kB", reference, optimized, 2.0);

    // --- viterbi_k9_800bits ------------------------------------------------
    let info: Vec<u8> = (0..800).map(|i| (i % 2) as u8).collect();
    let coded = conv::encode(&info);
    let soft: Vec<f32> = coded.iter().map(|&b| if b == 1 { 1.0 } else { -1.0 }).collect();
    assert_eq!(
        viterbi::decode_soft(&soft, 800),
        viterbi::decode_soft_reference(&soft, 800),
        "optimized Viterbi must agree with the reference"
    );
    let reference = best_time(10, 20, || {
        black_box(viterbi::decode_soft_reference(black_box(&soft), 800));
    });
    let optimized = best_time(10, 20, || {
        black_box(viterbi::decode_soft(black_box(&soft), 800));
    });
    all_pass &= check("viterbi_k9_800bits", reference, optimized, 2.0);

    println!();
    if all_pass {
        println!("perf_pipeline: all acceptance checks PASS");
    } else {
        println!("perf_pipeline: some acceptance checks FAILED");
        std::process::exit(1);
    }
}
