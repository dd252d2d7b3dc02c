//! Property-based tests of the DSP primitives.

use proptest::prelude::*;
use sonic_dsp::fir::{design_bandpass, design_lowpass, Fir, OverlapSave};
use sonic_dsp::plan::{FftPlan, FirPlan};
use sonic_dsp::resample::Resampler;
use sonic_dsp::window::hamming;
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

/// Direct `O(n²)` DFT in `f64` of `f32` samples, split planes in and out:
/// `X[k] = Σ x[t]·e^{∓2πjkt/n}`, the inverse (`+`) scaled by `1/n`.
fn dft(re: &[f32], im: &[f32], inverse: bool) -> (Vec<f64>, Vec<f64>) {
    let n = re.len();
    let (sign, scale) = if inverse { (1.0, 1.0 / n as f64) } else { (-1.0, 1.0) };
    (0..n)
        .map(|k| {
            let (mut acc_re, mut acc_im) = (0.0, 0.0);
            for t in 0..n {
                let theta = sign * std::f64::consts::TAU * ((k * t) % n) as f64 / n as f64;
                let (s, c) = theta.sin_cos();
                let (x_re, x_im) = (f64::from(re[t]), f64::from(im[t]));
                acc_re += x_re * c - x_im * s;
                acc_im += x_re * s + x_im * c;
            }
            (acc_re * scale, acc_im * scale)
        })
        .unzip()
}

/// The error bound [`FftPlan`] is held to against [`dft`]: relative RMS
/// error `‖X̂ − X‖ / ‖X‖` of at most `√log2(n)·ε` in either direction, with
/// `ε = 2⁻²³` the `f32` machine epsilon. Each radix-2 stage rounds once, so
/// the error grows as a random walk over `log2(n)` stages; on uniform noise
/// it measures at most `0.31·√log2(n)·ε` (sizes 8 to 2 048; 2 and 4 points
/// are exact).
fn check_fft_plan(re: &[f32], im: &[f32]) {
    let n = re.len();
    let plan = FftPlan::new(n);
    let bound = f64::from(n.trailing_zeros()).sqrt() * f64::from(f32::EPSILON);
    for inverse in [false, true] {
        let (mut got_re, mut got_im) = (re.to_vec(), im.to_vec());
        if inverse {
            plan.inverse_split(&mut got_re, &mut got_im);
        } else {
            plan.forward_split(&mut got_re, &mut got_im);
        }
        let (want_re, want_im) = dft(re, im, inverse);
        let (mut err, mut pow) = (0.0, 0.0);
        for k in 0..n {
            err += (f64::from(got_re[k]) - want_re[k]).powi(2) + (f64::from(got_im[k]) - want_im[k]).powi(2);
            pow += want_re[k].powi(2) + want_im[k].powi(2);
        }
        let rel = (err / pow.max(f64::MIN_POSITIVE)).sqrt();
        assert!(rel <= bound, "n = {n}, inverse = {inverse}: relative RMS error {rel:e} > {bound:e}");
    }
}

/// [`check_fft_plan`] at every size from 2 to 2 048 points.
#[test]
fn fft_plan_is_a_direct_dft_at_every_size() {
    for log_n in 1..=11u32 {
        let n = 1usize << log_n;
        let mut rnd = lcg(log_n);
        let (re, im): (Vec<f32>, Vec<f32>) = (0..n).map(|_| (rnd(), rnd())).unzip();
        check_fft_plan(&re, &im);
    }
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

/// [`FftPlan::inverse_sparse_unscaled`] of `values` on `bins`, scaled by
/// `1/n` as [`FftPlan::inverse_split`] scales, against `inverse_split` of the
/// same spectrum, bit for bit.
fn check_sparse_inverse(n: usize, bins: &[usize], values: &[(f32, f32)]) {
    let plan = FftPlan::new(n);
    let (mut want_re, mut want_im) = (vec![0.0f32; n], vec![0.0f32; n]);
    for (&b, &(re, im)) in bins.iter().zip(values) {
        want_re[b] = re;
        want_im[b] = im;
    }
    plan.inverse_split(&mut want_re, &mut want_im);
    let sparse = plan.sparse_bins(bins);
    let (mut re, mut im) = (vec![0.0f32; n], vec![0.0f32; n]);
    for (&p, &(v_re, v_im)) in sparse.positions().iter().zip(values) {
        re[p as usize] = v_re;
        im[p as usize] = v_im;
    }
    plan.inverse_sparse_unscaled(&mut re, &mut im, &sparse);
    let k = 1.0 / n as f32;
    for i in 0..n {
        assert_eq!((re[i] * k).to_bits(), want_re[i].to_bits(), "n = {n}, {} bins: re[{i}]", bins.len());
        assert_eq!((im[i] * k).to_bits(), want_im[i].to_bits(), "n = {n}, {} bins: im[{i}]", bins.len());
    }
}

/// Random values for `count` bins, every fifth one a signed zero on one
/// axis.
fn sparse_values(count: usize, seed: u32) -> Vec<(f32, f32)> {
    let mut rnd = lcg(seed);
    (0..count)
        .map(|i| match i % 5 {
            3 => (-0.0, rnd()),
            4 => (rnd(), 0.0),
            _ => (rnd(), rnd()),
        })
        .collect()
}

/// The sparse inverse at every size from 8 to 2 048 points on the bin sets
/// that matter: none, one, every bin, and the profiles' carriers (96 bins at
/// offsets ±1…±48 from DC, all three profiles alike), where they fit.
#[test]
fn sparse_inverse_is_inverse_split_on_named_bin_sets() {
    for log_n in 3..=11u32 {
        let n = 1usize << log_n;
        let mut sets: Vec<Vec<usize>> = vec![vec![], vec![n / 3], (0..n).collect()];
        if 48 < n / 2 {
            sets.push((1..=48).map(|k| n - 49 + k).chain(1..=48).collect());
        }
        for (i, bins) in sets.iter().enumerate() {
            check_sparse_inverse(n, bins, &sparse_values(bins.len(), log_n * 7 + i as u32));
        }
    }
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

    /// forward ∘ inverse is the identity within 1e-5 RMS for every
    /// power-of-two size the stack plans.
    #[test]
    fn fft_roundtrip(log_n in 1u32..12, seed in any::<u32>()) {
        let n = 1usize << log_n;
        let plan = FftPlan::new(n);
        let mut rnd = lcg(seed);
        let (orig_re, orig_im): (Vec<f32>, Vec<f32>) = (0..n).map(|_| (rnd(), rnd())).unzip();
        let (mut re, mut im) = (orig_re.clone(), orig_im.clone());
        plan.forward_split(&mut re, &mut im);
        plan.inverse_split(&mut re, &mut im);
        let err: f64 = (0..n)
            .map(|i| f64::from(re[i] - orig_re[i]).powi(2) + f64::from(im[i] - orig_im[i]).powi(2))
            .sum::<f64>()
            / n as f64;
        prop_assert!(err.sqrt() <= 1e-5, "round-trip RMS {} at n = {}", err.sqrt(), n);
    }

    /// Parseval holds for random signals at random sizes.
    #[test]
    fn fft_parseval(log_n in 2u32..9, seed in any::<u32>()) {
        let n = 1usize << log_n;
        let mut x = seed | 1;
        let mut re: Vec<f32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(48271);
                ((x >> 16) & 0xFF) as f32 / 255.0 - 0.5
            })
            .collect();
        let mut im = vec![0.1f32; n];
        let energy = |re: &[f32], im: &[f32]| -> f64 {
            re.iter().zip(im).map(|(&a, &b)| f64::from(a * a + b * b)).sum()
        };
        let time = energy(&re, &im);
        FftPlan::new(n).forward_split(&mut re, &mut im);
        let freq = energy(&re, &im) / n as f64;
        prop_assert!((time - freq).abs() <= time * 1e-3 + 1e-6);
    }

    /// [`check_fft_plan`] on random signals at random sizes.
    #[test]
    fn fft_plan_is_a_direct_dft(log_n in 1u32..12, seed in any::<u32>()) {
        let mut rnd = lcg(seed);
        let (re, im): (Vec<f32>, Vec<f32>) = (0..1usize << log_n).map(|_| (rnd(), rnd())).unzip();
        check_fft_plan(&re, &im);
    }

    /// The sparse inverse on random bin sets, sparse to dense, at every
    /// size from 8 to 2 048 points.
    #[test]
    fn sparse_inverse_is_inverse_split(log_n in 3u32..12, density in 0u32..6, seed in any::<u32>()) {
        let n = 1usize << log_n;
        let mut rnd = lcg(seed);
        // Keep each bin with probability 2^-density.
        let bins: Vec<usize> = (0..n).filter(|_| rnd().abs() < 0.5f32.powi(density as i32)).collect();
        check_sparse_inverse(n, &bins, &sparse_values(bins.len(), seed));
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
