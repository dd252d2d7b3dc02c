//! OFDM burst modulator.
//!
//! Builds each symbol of a burst (preamble, two training symbols, header,
//! payload) at complex baseband with [`CarrierPlan::synthesize`]: each data
//! carrier's bits index the modulation's [`points`] table, and the 96
//! carriers of 1 024 bins go through the FFT's sparse inverse, which skips
//! the permutation and the early blocks no carrier reaches. The symbol is
//! mixed straight onto the profile's audio carrier with the receiver's
//! oscillator, a run of its table at a time: one period of the carrier's
//! phasors, replayed from its start at every burst (each burst starts at
//! phase zero). The inverse FFT's `1/N` and the `√N` symbol gain are the
//! mix's two multiplies per sample ([`CarrierPlan::scale`]). The burst is
//! written straight into the caller's stream, scaled to the profile's RMS
//! (one sequential `f32` sum of squares, in sample order) and keyed on and
//! off with raised-cosine edge ramps, without clicks.

use super::carriers::CarrierPlan;
use crate::constellation::{points, Modulation};
use crate::profile::Profile;
use sonic_dsp::osc::PeriodicOsc;
use sonic_dsp::plan::FftPlan;
use sonic_dsp::split::SplitC32;
use sonic_dsp::window::raised_cosine_edge;
use sonic_dsp::C32;

/// Reusable working memory for [`Modulator::modulate_bits_into`]: the
/// oscillator and every buffer a burst needs, each fully rewritten before
/// use, so steady-state modulation allocates nothing.
#[derive(Debug)]
pub struct ModulatorScratch {
    osc: PeriodicOsc,
    /// One symbol's body.
    body: SplitC32,
    /// Active-carrier value buffer.
    vals: Vec<C32>,
    /// Cached raised-cosine edge ramp (keyed by its length).
    ramp: Vec<f32>,
}

impl ModulatorScratch {
    /// Creates scratch for `profile`'s carrier; the buffers are sized by the
    /// first burst.
    ///
    /// # Panics
    /// Panics if the carrier does not repeat within one second of samples
    /// (see [`Profile::validate`]).
    pub fn new(profile: &Profile) -> Self {
        ModulatorScratch {
            osc: PeriodicOsc::new(profile.sample_rate, profile.center_freq),
            body: SplitC32::new(),
            vals: Vec::new(),
            ramp: Vec::new(),
        }
    }
}

/// Reusable modulator for one profile.
#[derive(Debug)]
pub struct Modulator {
    profile: Profile,
    plan: CarrierPlan,
    fft: FftPlan,
    /// The payload modulation's points, indexed by their packed bits.
    points: Vec<C32>,
    /// The header's BPSK points, indexed by the bit.
    bpsk: Vec<C32>,
}

impl Modulator {
    /// Creates a modulator (validates the profile).
    pub fn new(profile: Profile) -> Self {
        let plan = CarrierPlan::new(&profile);
        let fft = FftPlan::new(profile.fft_size);
        Modulator {
            points: points(profile.modulation),
            bpsk: points(Modulation::Bpsk),
            profile,
            plan,
            fft,
        }
    }

    /// The profile this modulator implements.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Synthesizes one symbol from its carrier values and mixes it onto the
    /// carrier into `out`, cyclic prefix first: `Re(x·c)·√2` per sample, `x`
    /// the symbol's sample ([`CarrierPlan::scale`]) and `c` the oscillator's
    /// next phasor, taken a run of its table at a time.
    fn put_symbol(
        &self,
        values: &[C32],
        body: &mut SplitC32,
        osc: &mut PeriodicOsc,
        out: &mut [f32],
    ) {
        let plan = &self.plan;
        plan.synthesize(&self.fft, values, body);
        let (prefix, symbol) = out.split_at_mut(self.profile.cp_len);
        for (out, from) in [(prefix, self.profile.fft_size - self.profile.cp_len), (symbol, 0)] {
            let (re, im) = (&body.re[from..from + out.len()], &body.im[from..from + out.len()]);
            let mut done = 0;
            while done < out.len() {
                let phasors = osc.run(out.len() - done);
                let samples = out[done..].iter_mut().zip(&re[done..]).zip(&im[done..]);
                for (((o, &re), &im), c) in samples.zip(phasors) {
                    *o = (plan.scale(re) * c.re - plan.scale(im) * c.im) * std::f32::consts::SQRT_2;
                }
                done += phasors.len();
            }
        }
    }

    /// Modulates coded header and payload bits into one burst of real audio
    /// appended to `audio`: `cp_len` samples of silence on either side as
    /// the inter-burst guard, the symbols between them at the profile's RMS
    /// level. All working memory lives in `scratch`.
    ///
    /// Each data carrier's bits, MSB first, index the modulation's
    /// [`points`]; a last payload symbol that the bits do not fill is padded
    /// with `(pos ^ pos >> 3) & 1` at bit position `pos`.
    pub fn modulate_bits_into(
        &self,
        header_bits: &[u8],
        payload_bits: &[u8],
        scratch: &mut ModulatorScratch,
        audio: &mut Vec<f32>,
    ) {
        let plan = &self.plan;
        let bps = self.profile.modulation.bits_per_symbol();
        let per_sym = self.profile.data_carriers * bps;
        let n_syms = payload_bits.len().div_ceil(per_sym);
        let (cp, sym) = (self.profile.cp_len, self.profile.symbol_len());
        let start = audio.len();
        let (body_start, body_end) = (start + cp, start + cp + (4 + n_syms) * sym);
        audio.resize(body_end + cp, 0.0);
        let ModulatorScratch {
            osc,
            body,
            vals,
            ramp,
        } = scratch;
        osc.restart();
        let mut symbols = audio[body_start..body_end].chunks_exact_mut(sym);
        let mut put = |values: &[C32]| {
            if let Some(out) = symbols.next() {
                self.put_symbol(values, body, osc, out);
            }
        };

        // Preamble (Schmidl-Cox) and two training symbols.
        put(&plan.preamble);
        put(&plan.training);
        put(&plan.training);

        // Header symbol: BPSK on data carriers, pilots in place.
        vals.clear();
        vals.resize(plan.bins.len(), C32::ZERO);
        for (k, &idx) in plan.pilot_idx.iter().enumerate() {
            vals[idx] = plan.pilot_values[k];
        }
        for (k, &idx) in plan.data_idx.iter().enumerate() {
            let bit = header_bits.get(k).copied().unwrap_or((k % 2) as u8);
            vals[idx] = self.bpsk[usize::from(bit & 1)];
        }
        put(vals);

        // Payload symbols: the pilots stay where the header put them, and
        // every data carrier is rewritten.
        let bit = |pos: usize| payload_bits.get(pos).map_or((pos ^ (pos >> 3)) & 1, |&b| usize::from(b & 1));
        for s in 0..n_syms {
            for (c, &idx) in plan.data_idx.iter().enumerate() {
                let first = s * per_sym + c * bps;
                let packed = match payload_bits.get(first..first + bps) {
                    Some(bits) => bits.iter().fold(0, |acc, &b| (acc << 1) | usize::from(b & 1)),
                    None => (first..first + bps).fold(0, |acc, pos| (acc << 1) | bit(pos)),
                };
                vals[idx] = self.points[packed];
            }
            put(vals);
        }
        self.shape_burst(&mut audio[body_start..body_end], ramp);
    }

    /// Normalizes a burst's RMS to the profile level and keys it on and off
    /// with raised-cosine ramps over its first and last 64 samples.
    fn shape_burst(&self, burst: &mut [f32], ramp: &mut Vec<f32>) {
        let rms = (burst.iter().map(|&x| x * x).sum::<f32>() / burst.len().max(1) as f32).sqrt();
        if rms > 1e-12 {
            let g = self.profile.tx_level / rms;
            for v in burst.iter_mut() {
                *v *= g;
            }
        }
        let ramp_len = 64.min(burst.len() / 2);
        if ramp.len() != ramp_len {
            *ramp = raised_cosine_edge(ramp_len);
        }
        let end = burst.len();
        for (i, &r) in ramp.iter().enumerate() {
            burst[i] *= r;
            burst[end - 1 - i] *= r;
        }
    }
}

#[cfg(test)]
impl Modulator {
    /// [`modulate_bits_into`](Self::modulate_bits_into) on a fresh scratch,
    /// into a new buffer.
    pub fn modulate_bits(&self, header_bits: &[u8], payload_bits: &[u8]) -> Vec<f32> {
        let mut audio = Vec::new();
        let mut scratch = ModulatorScratch::new(&self.profile);
        self.modulate_bits_into(header_bits, payload_bits, &mut scratch, &mut audio);
        audio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulator() -> Modulator {
        Modulator::new(Profile::sonic_10k())
    }

    #[test]
    fn burst_length_matches_profile_math() {
        let m = modulator();
        let p = m.profile().clone();
        let header = vec![0u8; 80];
        let payload = vec![1u8; p.bits_per_symbol() * 3];
        let audio = m.modulate_bits(&header, &payload);
        // 4 overhead symbols + 3 payload symbols + 2 guards.
        let want = 7 * p.symbol_len() + 2 * p.cp_len;
        assert_eq!(audio.len(), want);
    }

    #[test]
    fn burst_rms_is_profile_level() {
        let m = modulator();
        let audio = m.modulate_bits(&[1; 80], &vec![0u8; 552 * 2]);
        let body = &audio[m.profile().cp_len..audio.len() - m.profile().cp_len];
        let rms = (body.iter().map(|&v| v * v).sum::<f32>() / body.len() as f32).sqrt();
        assert!((rms - m.profile().tx_level).abs() < 0.05, "rms {rms}");
    }

    #[test]
    fn spectrum_is_centered_on_carrier() {
        let m = modulator();
        let audio = m.modulate_bits(&[1; 80], &vec![0u8; 552 * 4]);
        let n = audio.len().next_power_of_two();
        let mut spec = SplitC32::zeroed(n);
        spec.re[..audio.len()].copy_from_slice(&audio);
        FftPlan::new(n).forward_split(&mut spec.re, &mut spec.im);
        let fs = m.profile().sample_rate;
        let bin_hz = fs / n as f64;
        // Energy inside the occupied band vs. far outside.
        let band = |f_lo: f64, f_hi: f64| -> f64 {
            let lo = (f_lo / bin_hz) as usize;
            let hi = (f_hi / bin_hz) as usize;
            (lo..hi).map(|k| f64::from(spec.re[k].powi(2) + spec.im[k].powi(2))).sum()
        };
        let center = m.profile().center_freq;
        let half_bw = m.profile().bandwidth() / 2.0 + 200.0;
        let in_band = band(center - half_bw, center + half_bw);
        let below = band(500.0, center - half_bw - 1000.0);
        let above = band(center + half_bw + 1000.0, fs / 2.0 - 500.0);
        // Unwindowed OFDM has sinc sidelobes, so demand ~93% of the energy
        // in band rather than a hard stopband.
        assert!(in_band > 14.0 * (below + above), "in {in_band}, out {}", below + above);
    }

    #[test]
    fn guard_silence_present() {
        let m = modulator();
        let audio = m.modulate_bits(&[0; 80], &vec![1u8; 552]);
        let cp = m.profile().cp_len;
        assert!(audio[..cp].iter().all(|&x| x == 0.0));
        assert!(audio[audio.len() - cp..].iter().all(|&x| x == 0.0));
    }

    /// A scratch reused across bursts of different lengths and profiles'
    /// carriers makes the same bits as a fresh one.
    #[test]
    fn scratch_path_is_bit_identical_to_reference() {
        for p in [Profile::sonic_10k(), Profile::audible_7k()] {
            let m = Modulator::new(p.clone());
            let mut scratch = ModulatorScratch::new(&p);
            let header: Vec<u8> = (0..80).map(|i| ((i * 5) % 2) as u8).collect();
            let mut audio = Vec::new();
            for payload_len in [0usize, 552, 552 * 3 + 17] {
                let payload: Vec<u8> = (0..payload_len).map(|i| ((i ^ (i >> 2)) % 2) as u8).collect();
                let want = m.modulate_bits(&header, &payload);
                audio.clear();
                m.modulate_bits_into(&header, &payload, &mut scratch, &mut audio);
                assert_eq!(want.len(), audio.len(), "{}: len {payload_len}", p.name);
                for (k, (w, g)) in want.iter().zip(&audio).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "{}: sample {k}", p.name);
                }
            }
        }
    }

    #[test]
    fn preamble_halves_repeat_in_time_domain() {
        // The Schmidl-Cox property: body of symbol 0 (after CP) has two
        // identical halves at complex baseband; check on the real passband
        // via autocorrelation of the modulated audio.
        let m = modulator();
        let p = m.profile().clone();
        let audio = m.modulate_bits(&[0; 80], &vec![0u8; 552]);
        let start = p.cp_len /* guard */ + p.cp_len /* preamble CP */;
        let half = p.fft_size / 2;
        let a = &audio[start..start + half];
        let b = &audio[start + half..start + p.fft_size];
        // Passband halves differ by the carrier phase rotation over half a
        // symbol; compare magnitudes of the analytic correlation instead.
        let mut corr = 0.0f64;
        let mut ea = 0.0f64;
        let mut eb = 0.0f64;
        // Use Hilbert-free trick: correlate a with b and a with shifted b to
        // capture the rotation; simply require the energy profiles to match.
        for i in 0..half {
            corr += (a[i] as f64) * (b[i] as f64);
            ea += (a[i] as f64).powi(2);
            eb += (b[i] as f64).powi(2);
        }
        let _ = corr; // sign depends on carrier phase; energies must match.
        assert!((ea - eb).abs() / ea < 0.05, "halves energy {ea} vs {eb}");
    }
}
