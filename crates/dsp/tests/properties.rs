//! Property-based tests of the DSP primitives.

use proptest::prelude::*;
use sonic_dsp::fft::Fft;
use sonic_dsp::fir::{design_bandpass, design_lowpass, Fir, OverlapSave};
use sonic_dsp::plan::{FftPlan, FirPlan};
use sonic_dsp::resample::Resampler;
use sonic_dsp::window::hamming;
use sonic_dsp::C32;
use std::sync::Arc;

/// Deterministic noise in [-1, 1).
fn lcg(seed: u32) -> impl FnMut() -> f32 {
    let mut x = seed | 1;
    move || {
        x = x.wrapping_mul(1103515245).wrapping_add(12345);
        ((x >> 16) as f32 / 32768.0) - 1.0
    }
}

/// Feeds `signal` through a fresh direct-form FIR, one sample at a time.
fn direct_form(taps: &[f32], signal: &[f32]) -> Vec<f32> {
    let mut fir = Fir::new(taps.to_vec());
    signal.iter().map(|&x| fir.push(x)).collect()
}

/// Feeds `signal` through a fresh overlap-save engine over `plan`: first
/// `cuts[0]`, `cuts[1]`, … samples at a time, then the remainder in one call
/// (no cuts = one shot).
fn overlap_save(plan: &Arc<FirPlan>, signal: &[f32], cuts: &[usize]) -> Vec<f32> {
    let mut engine = OverlapSave::new(Arc::clone(plan));
    let mut out = Vec::new();
    let mut rest = signal;
    for &cut in cuts {
        let (now, later) = rest.split_at(cut.min(rest.len()));
        engine.process(now, &mut out);
        rest = later;
    }
    engine.process(rest, &mut out);
    out
}

/// Largest absolute difference between two equally long streams.
fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// The one property of the overlap-save engine, for any tap set:
///
/// (a) streaming through `cuts` equals one shot within 1e-5;
/// (b) the output agrees with the direct-form [`Fir::push`] oracle within
///     1e-4.
fn check_overlap_save(taps: &[f32], signal: &[f32], cuts: &[usize]) {
    let plan = FirPlan::shared(taps);
    let n = signal.len();
    let once = overlap_save(&plan, signal, &[]);
    let cut = overlap_save(&plan, signal, cuts);
    let ctx = format!("{} taps, {n} samples, cuts {cuts:?}", taps.len());
    assert!(max_diff(&cut, &once) < 1e-5, "(a) {ctx}");
    assert!(max_diff(&once, &direct_form(taps, signal)) < 1e-4, "(b) {ctx}");
}

/// The fixed cases the engine's three predecessors were tested on, as rows
/// of the same property.
#[test]
fn overlap_save_engine_named_rows() {
    let noise = |n: usize, seed: u32| -> Vec<f32> {
        let mut rnd = lcg(seed);
        (0..n).map(|_| rnd()).collect()
    };
    // The MPX decomposer's shape: 257-tap band selects; empty, sub-block,
    // exactly one block, odd multi-batch lengths.
    let bank = [
        design_lowpass(257, 0.07),
        design_bandpass(257, 0.15, 0.25),
        design_bandpass(257, 0.38, 0.45),
    ];
    let block = FirPlan::new(&bank[0]).block();
    for len in [0usize, 7, block, 8 * block + 123, 20_001, 16 * block + 4321] {
        for taps in &bank {
            check_overlap_save(taps, &noise(len, len as u32 + 3), &[block / 2]);
        }
    }
    // Odd cuts, including ones smaller than the tap count.
    check_overlap_save(&design_lowpass(257, 0.1), &noise(3000, 42), &[13, 250, 999, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// forward ∘ inverse is the identity for every power-of-two size.
    #[test]
    fn fft_roundtrip(
        log_n in 1u32..10,
        seed in any::<u32>(),
    ) {
        let n = 1usize << log_n;
        let fft = Fft::new(n);
        let mut x = seed;
        let orig: Vec<C32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                let re = ((x >> 16) as f32 / 32768.0) - 1.0;
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                let im = ((x >> 16) as f32 / 32768.0) - 1.0;
                C32::new(re, im)
            })
            .collect();
        let mut buf = orig.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-3);
        }
    }

    /// Parseval holds for random signals at random sizes.
    #[test]
    fn fft_parseval(log_n in 2u32..9, seed in any::<u32>()) {
        let n = 1usize << log_n;
        let fft = Fft::new(n);
        let mut x = seed | 1;
        let sig: Vec<C32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(48271);
                C32::new(((x >> 16) & 0xFF) as f32 / 255.0 - 0.5, 0.1)
            })
            .collect();
        let time: f64 = sig.iter().map(|v| v.norm_sq() as f64).sum();
        let mut buf = sig;
        fft.forward(&mut buf);
        let freq: f64 = buf.iter().map(|v| v.norm_sq() as f64).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() <= time * 1e-3 + 1e-6);
    }

    /// FIR impulse response replays the taps for any tap vector.
    #[test]
    fn fir_impulse_is_taps(taps in proptest::collection::vec(-1.0f32..1.0, 1..32)) {
        let mut fir = Fir::new(taps.clone());
        let got: Vec<f32> = (0..taps.len())
            .map(|i| fir.push(if i == 0 { 1.0 } else { 0.0 }))
            .collect();
        for (g, t) in got.iter().zip(&taps) {
            prop_assert!((g - t).abs() < 1e-6);
        }
    }

    /// [`check_overlap_save`] over random tap counts (1 tap, the FFT
    /// path's minimum size, odd lengths), signal lengths
    /// (empty, under a block, exactly a block, several batches and odd),
    /// signal shapes (impulse, step — the worst case for accumulated DC
    /// error — and noise) and cuts.
    #[test]
    fn overlap_save_engine(
        n_taps in 1usize..300,
        len_class in 0usize..4,
        shape in 0usize..3,
        cuts in proptest::collection::vec(1usize..700, 0..6),
        seed in any::<u32>(),
    ) {
        let mut rnd = lcg(seed);
        // Taps of unit L1 norm bound the output by the input's peak, so the
        // absolute error bounds mean the same at every tap count.
        let taps: Vec<f32> = (0..n_taps).map(|_| rnd()).collect();
        let l1 = taps.iter().map(|t| t.abs()).sum::<f32>().max(f32::MIN_POSITIVE);
        let taps: Vec<f32> = taps.iter().map(|t| t / l1).collect();
        let block = FirPlan::new(&taps).block();
        let len = match len_class {
            0 => 0,
            1 => 1 + seed as usize % (block - 1),
            2 => block,
            // More than one batch of real frames (8 frames × 2 blocks).
            _ => (16 * block + seed as usize % block) | 1,
        };
        let signal: Vec<f32> = match shape {
            0 => (0..len).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect(),
            1 => vec![1.0; len],
            _ => (0..len).map(|_| rnd()).collect(),
        };
        check_overlap_save(&taps, &signal, &cuts);
    }

    /// A decimator from given taps keeps the direct form's outputs at
    /// `first`, `first + factor`, … within rounding, and is the same bits
    /// however its input is cut.
    #[test]
    fn decimator_is_the_direct_form_kept_and_cut_anywhere(
        n_taps in 1usize..200,
        factor in 1usize..9,
        first_seed in any::<usize>(),
        len in 0usize..3_000,
        cuts in proptest::collection::vec(0usize..700, 0..6),
        seed in any::<u32>(),
    ) {
        let mut rnd = lcg(seed);
        let taps: Vec<f32> = (0..n_taps).map(|_| rnd() / n_taps as f32).collect();
        let signal: Vec<f32> = (0..len).map(|_| rnd()).collect();
        let first = first_seed % factor;
        let run = |cuts: &[usize]| {
            let mut d = Resampler::decimator(&taps, factor, first);
            let mut out = Vec::new();
            let mut rest = &signal[..];
            for &cut in cuts.iter().chain([&usize::MAX]) {
                let (now, later) = rest.split_at(cut.min(rest.len()));
                d.process_into(now, &mut out);
                rest = later;
            }
            out
        };
        let whole = run(&[]);
        let direct = direct_form(&taps, &signal);
        let want: Vec<f32> = direct.into_iter().skip(first).step_by(factor).collect();
        prop_assert!(max_diff(&whole, &want) < 1e-5);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        prop_assert_eq!(bits(&run(&cuts)), bits(&whole));
    }

    /// Low-pass design always has unit DC gain.
    #[test]
    fn lowpass_dc_gain(taps in 3usize..200, cutoff in 0.01f64..0.49) {
        let h = design_lowpass(taps, cutoff);
        let sum: f32 = h.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// Resampler output length tracks the rational ratio for any rates.
    #[test]
    fn resampler_length(from in 1000usize..50_000, to in 1000usize..50_000) {
        let mut r = Resampler::new(from, to, 8);
        let n_in = 2048usize;
        let mut out = Vec::new();
        r.process_into(&vec![0.25f32; n_in], &mut out);
        let expect = n_in as f64 * to as f64 / from as f64;
        prop_assert!(
            (out.len() as f64 - expect).abs() <= expect * 0.02 + 8.0,
            "{} vs {}", out.len(), expect
        );
    }

    /// The planned split-plane forward FFT is bit-identical to the
    /// interleaved `Fft::forward`, and the planned round trip
    /// (forward ∘ inverse) recovers the input within 1e-5 RMS.
    #[test]
    fn fft_plan_split_matches_fft(log_n in 1u32..11, seed in any::<u32>()) {
        let n = 1usize << log_n;
        let mut rnd = lcg(seed);
        let orig: Vec<C32> = (0..n).map(|_| C32::new(rnd(), rnd())).collect();
        let mut interleaved = orig.clone();
        Fft::new(n).forward(&mut interleaved);
        let plan = FftPlan::new(n);
        let mut re: Vec<f32> = orig.iter().map(|v| v.re).collect();
        let mut im: Vec<f32> = orig.iter().map(|v| v.im).collect();
        plan.forward_split(&mut re, &mut im);
        for i in 0..n {
            prop_assert_eq!(re[i].to_bits(), interleaved[i].re.to_bits(), "re[{}]", i);
            prop_assert_eq!(im[i].to_bits(), interleaved[i].im.to_bits(), "im[{}]", i);
        }
        plan.inverse_split(&mut re, &mut im);
        let err: f64 = (0..n)
            .map(|i| {
                let d = C32::new(re[i] - orig[i].re, im[i] - orig[i].im);
                d.norm_sq() as f64
            })
            .sum::<f64>()
            / n as f64;
        prop_assert!(err.sqrt() <= 1e-5, "round-trip RMS {} at n = {}", err.sqrt(), n);
    }

    /// The Hamming window is bounded in [0.08, 1] and symmetric.
    #[test]
    fn window_bounds(n in 2usize..512) {
        let w = hamming(n);
        for (i, &v) in w.iter().enumerate() {
            prop_assert!((0.08 - 1e-6..=1.0 + 1e-6).contains(&v), "w[{i}] = {v}");
            let mirror = w[n - 1 - i];
            prop_assert!((v - mirror).abs() < 1e-5, "asymmetric at {i}");
        }
    }
}
