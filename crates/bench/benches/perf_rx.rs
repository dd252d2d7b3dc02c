//! The receive chain, kernel by kernel and end to end, three ways.
//!
//! Five cases, each set up once and timed in three columns in one process:
//!
//! * **reference** — the direct-form implementation kept in-tree as the
//!   oracle the tests compare against (`demodulate_into_reference`,
//!   `decompose_reference`, `demodulate_frames_reference`,
//!   `decode_soft_reference`);
//! * **scalar** — the fast path with dispatch pinned to the scalar twins
//!   (`sonic_dsp::simd::force_scalar`);
//! * **dispatched** — the fast path on the backend the host selects.
//!
//! Every gate is a ratio of two columns of the same run, sampled round-robin
//! (see `case`) — no number taken on another host or another day is
//! compared against. The gates bind on a SIMD backend
//! only: on a scalar host (or under `SONIC_DSP_FORCE_SCALAR=1`) dispatched
//! *is* scalar, and the ratios are reported without a verdict.
//!
//! The FM discriminator has no case of its own: `fm_rx_page` times it
//! inside the receive it belongs to. Its two loops are one
//! `simd::vectorized` block, so the scalar column runs them compiled for
//! the baseline and the dispatched column compiled for AVX2.
//!
//! The 64-QAM soft demapper has no case of its own either, and no vector
//! path: its per-axis sweep is one plain loop (`modem::constellation`)
//! compiled for the baseline (SSE2 on x86-64), so `ofdm_demodulate_1kB`
//! and `fm_rx_page` run the same demapper code in every column.
//!
//! The reference decomposer's band selects are the direct-form FIR, one
//! `Fir::push` per sample with no vector path (the `fir_mac` kernel that
//! ran it across outputs is gone: no benchmark workload reached it). So
//! the `vs_reference` ratios of `mpx_decompose_1s` and `fm_rx_page` are
//! ~31× and ~20× (~2.5× and ~3× while the oracle ran on that kernel), and
//! their gates were re-derived from runs of the per-sample form.
//!
//! Both decomposers filter only what is on air: the mono band over the
//! whole composite, the RDS band over the detector's half-second probe,
//! the pilot decided by a fold with no filter. The reference lost two of
//! its three per-sample band selects and the fast path two of its three
//! overlap-save bands, so on this one-second composite (half of it the
//! RDS probe) `mpx_decompose_1s.vs_reference` fell to 15–19× and
//! `fm_rx_page.vs_reference` to 16–19×, while both `vs_scalar` rose
//! (3.2–3.6× and 3.9–4.4×: the resampler's polyphase kernel is a larger share
//! of what is left); all four gates were re-derived.
//!
//! The two Viterbi cases' reference is the `f32` decoder; their other two
//! columns run the integer decoder, so `vs_scalar` is its SIMD kernel over
//! its own scalar twin. The OFDM case decodes its FEC as well, and its
//! `vs_scalar` fell when that twin became integer arithmetic (which the
//! compiler vectorises), so its gate was re-derived with theirs.
//!
//! The OFDM case's reference filters at the audio rate (two per-sample
//! direct-form FIRs, every fourth output kept) while its fast path computes
//! only the kept outputs, one `simd::polyphase` block per plane — whose scalar twin
//! is what the scalar column runs. Both its ratios rose when the receiver
//! went to a quarter of the audio rate (~7× and ~2× before, 26–34× and
//! 4.4–5.9× after), and both gates were re-derived.
//!
//! The burst detector's preamble correlation does not dispatch (DESIGN
//! §11's keep-rule removed its vector paths): every column of
//! `fm_rx_page` and `ofdm_demodulate_1kB` runs the same scalar loop for
//! it. Neither `vs_scalar` fell with it (five alternated full runs a side:
//! 3.6–4.5× against 3.4–4.0× and 5.4–6.1× against 5.3–5.8×), so no gate
//! was re-derived.
//!
//! Gate values: 0.8 × the worst ratio in at least five full runs on the
//! 2-core AVX2 host `BENCH_rx.json` names, rounded down; CHANGES.md lists
//! the runs.
//!
//! `--smoke` runs every column once on tiny inputs; the two agreement
//! checks on the page receive (fast ≡ reference, dispatched ≡ scalar frame
//! counts) still fail the run.

use sonic_bench::{median, sample, Bound, Report, Timing};
use sonic_core::link;
use sonic_dsp::simd;
use sonic_modem::{demodulate_frames, demodulate_frames_reference, modulate_frame, Profile};
use sonic_radio::channel::RfChannel;
use sonic_radio::fm::{FmDemodulator, FmModulator};
use sonic_radio::mpx::{compose, decompose, decompose_reference, MpxInput};
use sonic_radio::MPX_RATE;
use sonic_sim::linksim::{scale_to_rms, test_frames, FM_INPUT_RMS};
use std::hint::black_box;

/// Required speed-ups of the dispatched column over the other two.
struct Need {
    vs_reference: f64,
    vs_scalar: f64,
}

/// Times one case's three columns and records them with their two ratios.
///
/// The columns are sampled round-robin — one sample of each per round — and
/// a ratio is the median over rounds of that round's ratio: both of its
/// terms were taken within a fraction of a second of each other, so a host
/// that speeds up or slows down during the run moves them together.
fn case(
    r: &mut Report,
    name: &str,
    (rounds, iters): (usize, usize),
    mut reference: impl FnMut(),
    mut fast: impl FnMut(),
    need: Need,
) {
    // One untimed call per column: caches filled, lazy set-up done.
    reference();
    simd::force_scalar(true);
    fast();
    simd::force_scalar(false);
    fast();
    let (mut reference_s, mut scalar_s, mut dispatched_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        reference_s.push(sample(iters, &mut reference));
        simd::force_scalar(true);
        scalar_s.push(sample(iters, &mut fast));
        simd::force_scalar(false);
        dispatched_s.push(sample(iters, &mut fast));
    }
    r.timing(&format!("{name}.reference"), Timing::of(&reference_s));
    r.timing(&format!("{name}.scalar"), Timing::of(&scalar_s));
    r.timing(&format!("{name}.dispatched"), Timing::of(&dispatched_s));
    let simd_host = simd::backend() != simd::Backend::Scalar;
    for (column, other_s, need) in [
        ("vs_reference", &reference_s, need.vs_reference),
        ("vs_scalar", &scalar_s, need.vs_scalar),
    ] {
        let per_round: Vec<f64> = other_s.iter().zip(&dispatched_s).map(|(o, d)| o / d).collect();
        let name = format!("{name}.{column}");
        if simd_host {
            r.gate(&name, median(&per_round), "x", Bound::AtLeast(need));
        } else {
            r.row(&name, median(&per_round), "x");
        }
    }
}

fn main() {
    let mut r = Report::from_args("perf_rx", "rx");
    let smoke = r.smoke();
    let reps = if smoke { (1, 1) } else { (15, 2) };

    // --- mpx_decompose_1s --------------------------------------------------
    // One second (228 000 samples) of composite carrying mono audio, the
    // trip's case: the mono low-pass runs over all of it, the RDS band over
    // the detector's half-second probe, and with no pilot line the stereo
    // branch is skipped in all columns.
    let n_mpx = if smoke { 22_800 } else { MPX_RATE as usize };
    let mono: Vec<f32> = (0..n_mpx * 441 / 2280)
        .map(|i| 0.4 * (std::f64::consts::TAU * 1_000.0 * i as f64 / 44_100.0).sin() as f32)
        .collect();
    let comp = compose(&MpxInput {
        mono,
        stereo_diff: None,
        rds_bits: None,
    });
    r.check(
        "mpx_decompose_1s.fast_eq_reference_len",
        decompose(&comp).mono.len() == decompose_reference(&comp).mono.len(),
    );
    case(
        &mut r,
        "mpx_decompose_1s",
        reps,
        || {
            black_box(decompose_reference(black_box(&comp)));
        },
        || {
            black_box(decompose(black_box(&comp)));
        },
        Need {
            vs_reference: 11.7,
            vs_scalar: 2.5,
        },
    );

    // --- fm_rx_page (end-to-end receive) -----------------------------------
    // TX side precomputed once: one page burst → OFDM audio → composite →
    // FM baseband → RF channel at −70 dB. The measured region is everything
    // the receiver does: FM discriminate, MPX decompose, OFDM demodulate.
    let profile = Profile::sonic_10k();
    let n_frames = if smoke { 4 } else { link::FRAMES_PER_BURST };
    let mut audio = link::modulate(&profile, &test_frames(n_frames, 0));
    scale_to_rms(&mut audio, FM_INPUT_RMS);
    let page_comp = compose(&MpxInput {
        mono: audio,
        stereo_diff: None,
        rds_bits: None,
    });
    let mut bb = Vec::with_capacity(page_comp.len());
    FmModulator::default().modulate_into(&page_comp, &mut bb);
    let received = RfChannel::new(-70.0, 0x2551).transmit(&bb);
    let rx_fast = || {
        let mut recovered = Vec::with_capacity(received.len());
        FmDemodulator::default().demodulate_into(&received, &mut recovered);
        let mono = decompose(&recovered).mono;
        demodulate_frames(&profile, &mono)
            .iter()
            .filter(|f| f.payload.is_ok())
            .count()
    };
    let rx_reference = || {
        let mut recovered = Vec::with_capacity(received.len());
        FmDemodulator::default().demodulate_into_reference(&received, &mut recovered);
        let mono = decompose_reference(&recovered).mono;
        demodulate_frames_reference(&profile, &mono)
            .iter()
            .filter(|f| f.payload.is_ok())
            .count()
    };
    // Dispatch is a performance knob, not a semantics knob (lint R3), and
    // the fast path is the reference made fast, not a different receiver.
    let dispatched_frames = rx_fast();
    simd::force_scalar(true);
    let scalar_frames = rx_fast();
    simd::force_scalar(false);
    r.row("fm_rx_page.frames_recovered", dispatched_frames as f64, "count");
    r.check("fm_rx_page.fast_eq_reference_frames", dispatched_frames == rx_reference());
    r.check("fm_rx_page.dispatched_eq_scalar_frames", dispatched_frames == scalar_frames);
    case(
        &mut r,
        "fm_rx_page",
        (reps.0, 1),
        || {
            black_box(rx_reference());
        },
        || {
            black_box(rx_fast());
        },
        Need {
            vs_reference: 12.6,
            vs_scalar: 3.1,
        },
    );

    // --- ofdm_demodulate_1kB ------------------------------------------------
    let payload = vec![0xA5u8; if smoke { 100 } else { 1000 }];
    let ofdm_audio = modulate_frame(&profile, &payload);
    case(
        &mut r,
        "ofdm_demodulate_1kB",
        reps,
        || {
            black_box(demodulate_frames_reference(black_box(&profile), black_box(&ofdm_audio)));
        },
        || {
            black_box(demodulate_frames(black_box(&profile), black_box(&ofdm_audio)));
        },
        Need {
            vs_reference: 20.5,
            vs_scalar: 3.5,
        },
    );

    // --- viterbi_k9_800bits, viterbi_k9_burst ----------------------------
    // A short block, and the 36 608 info bits of every full burst's payload
    // call: 40 link frames of 100 B plus 18 blocks' RS(255,223) parity.
    for (name, n_info, iters, need) in [
        (
            "viterbi_k9_800bits",
            if smoke { 80 } else { 800 },
            reps.1 * 8,
            Need {
                vs_reference: 24.6,
                vs_scalar: 2.5,
            },
        ),
        (
            "viterbi_k9_burst",
            if smoke { 3_660 } else { 36_608 },
            reps.1,
            Need {
                vs_reference: 28.1,
                vs_scalar: 2.6,
            },
        ),
    ] {
        let info: Vec<u8> = (0..n_info).map(|i| (i % 2) as u8).collect();
        let coded = sonic_fec::conv::encode(&info);
        let soft: Vec<f32> = coded
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        case(
            &mut r,
            name,
            (reps.0, iters),
            || {
                black_box(sonic_fec::viterbi::decode_soft_reference(
                    black_box(&soft),
                    n_info,
                ));
            },
            || {
                black_box(sonic_fec::viterbi::decode_soft(black_box(&soft), n_info));
            },
            need,
        );
    }

    r.finish()
}
