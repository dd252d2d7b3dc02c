//! Property tests: the cached codec modulates the bits a fresh one does,
//! demodulates what the direct-form reference receiver does, and the
//! push-based receiver recovers the same bursts however its stream is cut.
//!
//! The cut-point tests catch state that leaks across a push boundary: the
//! detector's sums rebuilt instead of resumed, a scanner step that runs
//! before all its samples are in. The front end has no cut rule left to
//! break — its decimators carry their tail and are the same bits at every
//! cut, which `any_cut_list_recovers_the_same_bursts` checks on the baseband
//! itself — so the old "low-pass fed a non-multiple of its block" mutant no
//! longer applies.

use proptest::prelude::*;
use sonic_dsp::osc::PeriodicOsc;
use sonic_dsp::plan::FftPlan;
use sonic_dsp::window::raised_cosine_edge;
use sonic_dsp::C32;
use sonic_fec::bits::bytes_to_bits;
use sonic_fec::{conv, FecPipeline};
use sonic_modem::constellation::{map_bits, Modulation};
use sonic_modem::frame::{crc16, DemodFrame, MAX_PAYLOAD};
use sonic_modem::ofdm::carriers::CarrierPlan;
use sonic_modem::ofdm::demodulator::BurstScanner;
use sonic_modem::ofdm::Demodulator;
use sonic_modem::{
    demodulate_frames, demodulate_frames_reference, modulate_frame, FrameCodec, Profile,
};
use std::sync::OnceLock;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cached codec, its scratch reused across cases, modulates any
    /// payload to the bits a fresh codec does.
    #[test]
    fn modulate_matches_a_fresh_codec(
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        wide in any::<bool>(),
    ) {
        let p = if wide { Profile::cable_64k() } else { Profile::sonic_10k() };
        let a = FrameCodec::new(&p).modulate(&payload);
        let b = modulate_frame(&p, &payload);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The transmitter from its definition, one step at a time: the header
/// word and its CRC conv-coded, the payload through the FEC pipeline, every
/// carrier mapped by `map_bits` (a last payload symbol padded with
/// `(pos ^ pos >> 3) & 1`), each symbol a dense inverse FFT scaled by √N,
/// mixed onto the carrier one oscillator step a sample, then the burst
/// scaled to the profile's RMS and keyed by 64-sample raised-cosine ramps
/// between two cyclic prefixes of silence.
fn modulate_reference(p: &Profile, payload: &[u8]) -> Vec<f32> {
    let word = (0xA << 12) | payload.len() as u16;
    let header_bytes = [word.to_be_bytes(), crc16(&word.to_be_bytes()).to_be_bytes()].concat();
    let header = conv::encode(&bytes_to_bits(&header_bytes));
    let coded = FecPipeline::new(p.fec).encode(payload);
    let plan = CarrierPlan::new(p);
    let (bps, n, cp) = (p.modulation.bits_per_symbol(), p.fft_size, p.cp_len);
    let per_sym = p.data_carriers * bps;

    let mut symbols = vec![plan.preamble.clone(), plan.training.clone(), plan.training.clone()];
    let mut values = vec![C32::ZERO; plan.bins.len()];
    for (&idx, &pilot) in plan.pilot_idx.iter().zip(&plan.pilot_values) {
        values[idx] = pilot;
    }
    for (k, &idx) in plan.data_idx.iter().enumerate() {
        values[idx] = map_bits(Modulation::Bpsk, &[header.get(k).copied().unwrap_or((k % 2) as u8)]);
    }
    symbols.push(values.clone());
    for s in 0..coded.len().div_ceil(per_sym) {
        for (c, &idx) in plan.data_idx.iter().enumerate() {
            let bits: Vec<u8> = (0..bps)
                .map(|b| {
                    let pos = s * per_sym + c * bps + b;
                    coded.get(pos).copied().unwrap_or(((pos ^ (pos >> 3)) & 1) as u8)
                })
                .collect();
            values[idx] = map_bits(p.modulation, &bits);
        }
        symbols.push(values.clone());
    }

    let fft = FftPlan::new(n);
    let mut osc = PeriodicOsc::new(p.sample_rate, p.center_freq);
    let mut audio = vec![0.0f32; cp];
    for values in &symbols {
        let (mut re, mut im) = (vec![0.0f32; n], vec![0.0f32; n]);
        for (v, &b) in values.iter().zip(&plan.bins) {
            re[b] = v.re;
            im[b] = v.im;
        }
        fft.inverse_split(&mut re, &mut im);
        let gain = (n as f32).sqrt();
        for x in re.iter_mut().chain(im.iter_mut()) {
            *x *= gain;
        }
        for t in (n - cp..n).chain(0..n) {
            let c = osc.advance();
            audio.push((re[t] * c.re - im[t] * c.im) * std::f32::consts::SQRT_2);
        }
    }

    let burst = &mut audio[cp..];
    let rms = (burst.iter().map(|&x| x * x).sum::<f32>() / burst.len() as f32).sqrt();
    if rms > 1e-12 {
        let g = p.tx_level / rms;
        for v in burst.iter_mut() {
            *v *= g;
        }
    }
    let end = burst.len();
    for (i, &r) in raised_cosine_edge(64.min(end / 2)).iter().enumerate() {
        burst[i] *= r;
        burst[end - 1 - i] *= r;
    }
    audio.extend(std::iter::repeat_n(0.0, cp));
    audio
}

/// A payload length near `from` (wrapping within 0…[`MAX_PAYLOAD`]) whose
/// coded bits leave the last symbol of `p` holding at most two carriers'
/// bits, or lacking at most two: the pad's two edges.
fn partial_symbol_len(p: &Profile, from: usize) -> usize {
    let (per_sym, edge) = (p.bits_per_symbol(), 2 * p.modulation.bits_per_symbol());
    let fits = |len: usize| {
        let rem = p.fec.coded_bits_len(len) % per_sym;
        (0 < rem && rem <= edge) || rem >= per_sym - edge
    };
    (from..=MAX_PAYLOAD).chain(0..from).find(|&len| fits(len)).unwrap_or(from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The transmitter, on every profile, is its definition to the bit
    /// ([`modulate_reference`]) for payloads of 0…`MAX_PAYLOAD` bytes, a
    /// third of them sized to the last symbol's edges.
    #[test]
    fn modulate_is_the_reference_transmitter(
        len in 0usize..=MAX_PAYLOAD,
        edge in 0usize..3,
        seed in any::<u8>(),
    ) {
        for p in [Profile::sonic_10k(), Profile::audible_7k(), Profile::cable_64k()] {
            let len = if edge == 0 { partial_symbol_len(&p, len) } else { len };
            let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
            let want = modulate_reference(&p, &payload);
            for got in [FrameCodec::new(&p).modulate(&payload), modulate_frame(&p, &payload)] {
                prop_assert_eq!(got.len(), want.len(), "{} len {}", p.name, len);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "{} len {} sample {}", p.name, len, k);
                }
            }
        }
    }
}

proptest! {
    // Demodulation of a full frame is ~ms-scale; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Round trip: scratch-path demodulation of scratch-path audio finds the
    /// same frames, at the same sample offsets, as the reference demodulator.
    #[test]
    fn demodulate_matches_reference(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        lead in 0usize..500,
    ) {
        let p = Profile::sonic_10k();
        let mut audio = vec![0.0f32; lead];
        audio.extend(modulate_frame(&p, &payload));
        let a = demodulate_frames_reference(&p, &audio);
        let b = demodulate_frames(&p, &audio);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.start_sample, y.start_sample);
            prop_assert_eq!(&x.payload, &y.payload);
        }
        prop_assert!(!b.is_empty());
        prop_assert_eq!(b[0].payload.as_ref().expect("clean channel decodes"), &payload);
    }
}

// ---------------------------------------------------------------------------
// Cut points: however a stream is cut into pushes, the receiver recovers what
// one push of the whole stream does.
// ---------------------------------------------------------------------------

fn bytes(n: usize, seed: usize) -> Vec<u8> {
    (0..n).map(|k| (seed * 31 + k * 7 + (k >> 3)) as u8).collect()
}

/// A tone at 8 kHz: trips the Schmidl-Cox metric for as long as it lasts and
/// never correlates with the preamble.
fn tone(samples: usize) -> Vec<f32> {
    (0..samples)
        .map(|i| 0.3 * (std::f64::consts::TAU * 8_000.0 * i as f64 / 44_100.0).sin() as f32)
        .collect()
}

/// The streams every cut-point test runs over, by name.
fn streams() -> &'static [(&'static str, Vec<f32>)] {
    static STREAMS: OnceLock<Vec<(&'static str, Vec<f32>)>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let p = Profile::sonic_10k();
        // Four bursts of different lengths with silences between them.
        let mut clean = Vec::new();
        let mut starts = Vec::new();
        for (i, (gap, len)) in [(700, 60), (5_000, 300), (1_313, 40), (2_900, 180)]
            .into_iter()
            .enumerate()
        {
            clean.extend(std::iter::repeat_n(0.0f32, gap));
            starts.push(clean.len());
            clean.extend(modulate_frame(&p, &bytes(len, i)));
        }
        clean.extend(std::iter::repeat_n(0.0f32, 1_000));

        let mut x = 0x9E37_79B9u32;
        let awgn: Vec<f32> = clean
            .iter()
            .map(|&s| {
                let mut sum = 0.0f32;
                for _ in 0..4 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    sum += (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                }
                s + 0.18 * 1.732 * sum
            })
            .collect();
        let heard = demodulate_frames(&p, &awgn);
        assert!(heard.iter().any(|f| f.payload.is_ok()), "noise too loud for the test");
        assert!(heard.iter().any(|f| f.payload.is_err()), "noise too quiet for the test");

        let mut after_tone = tone(6_000);
        after_tone.extend(std::iter::repeat_n(0.0f32, 6_000));
        after_tone.extend(modulate_frame(&p, &bytes(90, 9)));
        vec![
            ("attenuated", clean.iter().map(|s| s * 0.02).collect()),
            ("awgn", awgn),
            // Ends half way through the last burst's symbols.
            ("truncated tail", clean[..(starts[3] + clean.len()) / 2].to_vec()),
            // Starts half way through the first burst's symbols.
            ("starts mid-burst", clean[(starts[0] + starts[1]) / 2..].to_vec()),
            ("tone", after_tone),
            ("clean", clean),
        ]
    })
}

/// `audio` cut into pieces of the given `sizes`; what is left after the last
/// size is one more piece.
fn pieces(audio: &[f32], sizes: impl IntoIterator<Item = usize>) -> Vec<&[f32]> {
    let mut rest = audio;
    let mut pieces = Vec::new();
    for size in sizes.into_iter().chain([usize::MAX]) {
        let (head, tail) = rest.split_at(size.min(rest.len()));
        pieces.push(head);
        rest = tail;
        if rest.is_empty() {
            break;
        }
    }
    pieces
}

/// Pushes `audio` in pieces of the given `sizes`, then flushes.
fn pushed(p: &Profile, audio: &[f32], sizes: impl IntoIterator<Item = usize>) -> Vec<DemodFrame> {
    let mut codec = FrameCodec::new(p);
    let mut out = Vec::new();
    for piece in pieces(audio, sizes) {
        codec.push(piece, &mut out);
    }
    codec.flush(&mut out);
    out
}

/// The same pushes driven through the front end and the scanner by hand, as
/// bits: each burst's start sample, then the soft values of its first three
/// symbols (so the search goes on from inside its payload). Finer than
/// payloads: an ulp anywhere in the baseband, the sync sums or the channel
/// estimate shows.
fn soft_trace(p: &Profile, audio: &[f32], sizes: impl IntoIterator<Item = usize>) -> Vec<u32> {
    let demod = Demodulator::new(p.clone());
    let mut frontend = demod.frontend();
    let mut scanner = BurstScanner::new(&demod);
    let mut trace = Vec::new();
    let mut soft = Vec::new();
    let mut symbols_left = 0;
    let mut scan = |scanner: &mut BurstScanner, ended: bool| loop {
        if symbols_left == 0 {
            let Some(start) = scanner.open_burst(&demod, ended) else {
                return;
            };
            trace.push(start as u32);
            symbols_left = 3;
        }
        soft.clear();
        if !scanner.next_symbol(&demod, p.modulation, &mut soft) {
            return;
        }
        trace.extend(soft.iter().map(|s| s.to_bits()));
        symbols_left -= 1;
        if symbols_left == 0 {
            scanner.end_burst(&demod);
        }
    };
    for piece in pieces(audio, sizes) {
        frontend.push(piece, scanner.baseband());
        scan(&mut scanner, false);
    }
    scan(&mut scanner, true);
    trace
}

/// The front end's baseband for `audio` pushed in pieces of the given sizes.
fn baseband_bits(
    p: &Profile,
    audio: &[f32],
    sizes: impl IntoIterator<Item = usize>,
) -> Vec<(u32, u32)> {
    let mut frontend = Demodulator::new(p.clone()).frontend();
    let mut baseband = Vec::new();
    for piece in pieces(audio, sizes) {
        frontend.push(piece, &mut baseband);
    }
    baseband.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
}

fn assert_same_bursts(name: &str, cut: &str, got: &[DemodFrame], want: &[DemodFrame]) {
    assert_eq!(got.len(), want.len(), "{name}, {cut}: burst count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.start_sample, w.start_sample, "{name}, {cut}");
        assert_eq!(g.payload, w.payload, "{name}, {cut}: burst at {}", w.start_sample);
    }
}

/// The fixed cuts: a sample at a time, a capture callback at a time, and the
/// whole stream in a push.
#[test]
fn sample_callback_and_whole_stream_pushes_recover_the_same_bursts() {
    let p = Profile::sonic_10k();
    for (name, audio) in streams() {
        let want = demodulate_frames(&p, audio);
        assert!(!want.is_empty(), "{name}");
        let want_trace = soft_trace(&p, audio, []);
        for (cut, size) in [("1-sample pushes", 1), ("4096-sample pushes", 4_096), ("one push", usize::MAX)] {
            let sizes = || std::iter::repeat(size);
            assert_same_bursts(name, cut, &pushed(&p, audio, sizes()), &want);
            assert!(soft_trace(&p, audio, sizes()) == want_trace, "{name}, {cut}: soft bits");
        }
    }
}

/// Cuts every 409 audio samples (≈ 102 baseband samples, at every residue of
/// the decimation), over bursts at leads that shift them against those cuts
/// and over a tone: each of the scanner's steps — building the sums,
/// sliding, the fine-timing window, the rebuild after a false alarm, the
/// training pair, the header, each payload symbol — is at some cut the one
/// that runs out of samples.
#[test]
fn a_cut_at_every_suspension_point_recovers_the_same_bursts() {
    let p = Profile::sonic_10k();
    let block = 409;
    let burst = modulate_frame(&p, &bytes(150, 3));
    let mut cases: Vec<(String, Vec<f32>)> = (0..block)
        .step_by(37)
        .map(|lead| {
            let mut audio = vec![0.0f32; lead];
            audio.extend(&burst);
            audio.extend(std::iter::repeat_n(0.0f32, 1_500));
            (format!("lead {lead}"), audio)
        })
        .collect();
    let mut toned = tone(3_000);
    toned.extend(std::iter::repeat_n(0.0f32, 6_000));
    toned.extend(&burst);
    cases.push(("tone".into(), toned));
    for (name, audio) in &cases {
        let want = demodulate_frames(&p, audio);
        assert_eq!(want.len(), 1, "{name}");
        let want_trace = soft_trace(&p, audio, []);
        for cut in (0..audio.len()).step_by(block) {
            assert_same_bursts(name, &format!("cut at {cut}"), &pushed(&p, audio, [cut]), &want);
            assert!(soft_trace(&p, audio, [cut]) == want_trace, "{name}, cut at {cut}: soft bits");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any list of cuts, over every stream: the same bursts, the same soft
    /// bits, the same baseband.
    #[test]
    fn any_cut_list_recovers_the_same_bursts(
        stream in 0usize..6,
        sizes in proptest::collection::vec(1usize..20_000, 0..24),
    ) {
        let p = Profile::sonic_10k();
        let (name, audio) = &streams()[stream];
        let got = pushed(&p, audio, sizes.iter().copied());
        let want = demodulate_frames(&p, audio);
        prop_assert_eq!(got.len(), want.len(), "{}: burst count", name);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.start_sample, w.start_sample, "{}", name);
            prop_assert_eq!(&g.payload, &w.payload, "{}", name);
        }
        prop_assert!(
            soft_trace(&p, audio, sizes.iter().copied()) == soft_trace(&p, audio, []),
            "{}: soft bits", name
        );
        prop_assert!(
            baseband_bits(&p, audio, sizes.iter().copied()) == baseband_bits(&p, audio, []),
            "{}: baseband", name
        );
    }
}
