//! Subcarrier layout, pilot sequences and reference symbols.
//!
//! Logical carriers are numbered 0..active and mapped symmetrically around
//! DC (which stays unused): offsets −A…−1, +1…+A. Pilots are spread evenly
//! through the logical indices; the rest carry data.

use crate::profile::Profile;
use sonic_dsp::plan::{FftPlan, SparseBins};
use sonic_dsp::split::SplitC32;
use sonic_dsp::C32;

/// A small PRBS used for pilot and reference values (x⁷+x⁶+1, period 127).
#[derive(Debug, Clone)]
pub struct Prbs {
    state: u8,
}

impl Prbs {
    /// Creates a generator with a fixed non-zero seed.
    pub fn new(seed: u8) -> Self {
        Prbs {
            state: if seed == 0 { 0x5A } else { seed },
        }
    }

    /// Next pseudo-random bit.
    pub fn next_bit(&mut self) -> u8 {
        let bit = ((self.state >> 6) ^ (self.state >> 5)) & 1;
        self.state = ((self.state << 1) | bit) & 0x7F;
        bit
    }

    /// Next BPSK value (±1).
    pub fn next_bpsk(&mut self) -> C32 {
        if self.next_bit() == 1 {
            C32::new(1.0, 0.0)
        } else {
            C32::new(-1.0, 0.0)
        }
    }

    /// Next QPSK value (unit magnitude, 4 phases).
    pub fn next_qpsk(&mut self) -> C32 {
        let b0 = self.next_bit();
        let b1 = self.next_bit();
        let s = std::f32::consts::FRAC_1_SQRT_2;
        C32::new(
            if b0 == 1 { s } else { -s },
            if b1 == 1 { s } else { -s },
        )
    }
}

/// Fixed subcarrier plan derived from a [`Profile`].
#[derive(Debug, Clone)]
pub struct CarrierPlan {
    /// FFT bin index (0..fft_size) for each logical carrier.
    pub bins: Vec<usize>,
    /// Logical indices that carry pilots.
    pub pilot_idx: Vec<usize>,
    /// Logical indices that carry data, in transmission order.
    pub data_idx: Vec<usize>,
    /// Pilot value for each pilot position (same every symbol).
    pub pilot_values: Vec<C32>,
    /// Known training-symbol values for every logical carrier.
    pub training: Vec<C32>,
    /// Known preamble values on the *even* logical carriers (Schmidl-Cox).
    pub preamble: Vec<C32>,
    /// Time-domain preamble symbol body (no CP) at complex baseband in the
    /// plan's FFT size, as [`synthesize`](Self::synthesize) and
    /// [`scale`](Self::scale) make it: cached so burst detection does not
    /// re-run an IFFT on every scan.
    pub preamble_body: Vec<C32>,
    /// Total energy of [`preamble_body`](Self::preamble_body).
    pub preamble_energy: f32,
    fft_size: usize,
    /// Where the carriers' bins sit in the inverse FFT's bit-reversed input,
    /// and the blocks of its first stages they reach.
    sparse: SparseBins,
    /// `1/N`, the inverse FFT's scale.
    inv_n: f32,
    /// `√N`, which keeps a symbol's energy independent of the FFT size.
    gain: f32,
}

impl CarrierPlan {
    /// Builds the plan for a profile.
    pub fn new(profile: &Profile) -> Self {
        Self::with_fft_size(profile, profile.fft_size)
    }

    /// The profile's carriers in an `fft_size`-point grid: the same offsets
    /// from the carrier, the same pilots, training and preamble values — the
    /// plan of a receiver whose baseband is decimated from the profile's
    /// rate (offset −48 is bin 208 of 256 where it is bin 976 of 1 024).
    ///
    /// # Panics
    /// Panics if the profile is invalid or its carriers do not fit.
    pub fn with_fft_size(profile: &Profile, fft_size: usize) -> Self {
        profile.validate();
        let active = profile.active_carriers();
        assert!(active < fft_size / 2, "{active} carriers do not fit a {fft_size}-point FFT");
        let half = active / 2;
        // Offsets −half…−1, +1…+(active-half); center bin of the *carrier*
        // frequency is DC after downconversion.
        let mut bins = Vec::with_capacity(active);
        for k in 0..active {
            let off: isize = if k < half {
                k as isize - half as isize // −half … −1
            } else {
                k as isize - half as isize + 1 // +1 … +(active-half)
            };
            let bin = if off >= 0 {
                off as usize
            } else {
                (fft_size as isize + off) as usize
            };
            bins.push(bin);
        }

        // Pilots evenly spaced through logical indices.
        let p = profile.pilot_carriers;
        let mut pilot_idx = Vec::with_capacity(p);
        if p > 0 {
            let stride = active as f64 / p as f64;
            for i in 0..p {
                pilot_idx.push(((i as f64 + 0.5) * stride) as usize);
            }
        }
        let data_idx: Vec<usize> = (0..active).filter(|i| !pilot_idx.contains(i)).collect();
        assert_eq!(data_idx.len(), profile.data_carriers, "carrier bookkeeping");

        let mut prbs = Prbs::new(0x2B);
        let pilot_values: Vec<C32> = (0..p).map(|_| prbs.next_bpsk()).collect();
        let mut prbs = Prbs::new(0x47);
        let training: Vec<C32> = (0..active).map(|_| prbs.next_qpsk()).collect();
        let mut prbs = Prbs::new(0x63);
        // Schmidl-Cox needs energy on even *FFT bins* only — that makes the
        // two time-domain halves identical. Bin parity equals offset parity
        // because the FFT size is even.
        let preamble: Vec<C32> = (0..active)
            .map(|i| {
                if bins[i] % 2 == 0 {
                    // √2 boost keeps the preamble symbol energy comparable
                    // to a full symbol even with half the carriers active.
                    prbs.next_qpsk().scale(std::f32::consts::SQRT_2)
                } else {
                    C32::ZERO
                }
            })
            .collect();

        let fft = FftPlan::new(fft_size);
        let mut plan = CarrierPlan {
            sparse: fft.sparse_bins(&bins),
            inv_n: 1.0 / fft_size as f32,
            gain: (fft_size as f32).sqrt(),
            bins,
            pilot_idx,
            data_idx,
            pilot_values,
            training,
            preamble,
            preamble_body: Vec::new(),
            preamble_energy: 0.0,
            fft_size,
        };
        let mut body = SplitC32::new();
        plan.synthesize(&fft, &plan.preamble, &mut body);
        plan.preamble_body = body
            .re
            .iter()
            .zip(&body.im)
            .map(|(&re, &im)| C32::new(plan.scale(re), plan.scale(im)))
            .collect();
        plan.preamble_energy = plan.preamble_body.iter().map(|v| v.norm_sq()).sum();
        plan
    }

    /// FFT size the bins index into.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// One symbol's body (no cyclic prefix) at complex baseband into `body`,
    /// before its scales: `values`, one per logical carrier, on their bins,
    /// inverse-transformed by `fft` without the `1/N`
    /// ([`FftPlan::inverse_sparse_unscaled`]). A sample `x` of the symbol is
    /// [`scale`](Self::scale)`(x)`. Every transmitted symbol and the preamble
    /// template are made here.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the number of carriers or
    /// `fft` from the plan's FFT size.
    pub fn synthesize(&self, fft: &FftPlan, values: &[C32], body: &mut SplitC32) {
        assert_eq!(values.len(), self.bins.len());
        assert_eq!(fft.len(), self.fft_size);
        body.clear();
        body.resize(self.fft_size);
        for (v, &p) in values.iter().zip(self.sparse.positions()) {
            body.re[p as usize] = v.re;
            body.im[p as usize] = v.im;
        }
        fft.inverse_sparse_unscaled(&mut body.re, &mut body.im, &self.sparse);
    }

    /// A sample of [`synthesize`](Self::synthesize)'s output at the symbol's
    /// level: times `1/N`, the inverse FFT's scale, then times `√N`, which
    /// keeps a symbol's energy independent of the FFT size. Two roundings in
    /// that order, never one multiply by `1/√N`, which would move the last
    /// bit of samples on air.
    #[inline]
    pub fn scale(&self, x: f32) -> f32 {
        x * self.inv_n * self.gain
    }

    /// Collects per-carrier values into a reused buffer (cleared first) from
    /// split-plane FFT output, as [`FftPlan::forward_split`] produces it.
    pub fn gather_split_into(&self, re: &[f32], im: &[f32], out: &mut Vec<C32>) {
        assert_eq!(re.len(), self.fft_size);
        assert_eq!(im.len(), self.fft_size);
        out.clear();
        out.resize(self.bins.len(), C32::ZERO);
        for (o, &b) in out.iter_mut().zip(&self.bins) {
            *o = C32::new(re[b], im[b]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> CarrierPlan {
        CarrierPlan::new(&Profile::sonic_10k())
    }

    #[test]
    fn carrier_counts_match_profile() {
        let p = Profile::sonic_10k();
        let plan = plan();
        assert_eq!(plan.bins.len(), p.active_carriers());
        assert_eq!(plan.data_idx.len(), 92);
        assert_eq!(plan.pilot_idx.len(), 4);
    }

    #[test]
    fn dc_bin_is_unused() {
        assert!(!plan().bins.contains(&0), "DC must stay empty");
    }

    #[test]
    fn bins_are_unique_and_in_range() {
        let plan = plan();
        let mut seen = std::collections::HashSet::new();
        for &b in &plan.bins {
            assert!(b < plan.fft_size());
            assert!(seen.insert(b), "bin {b} duplicated");
        }
    }

    /// The receiver's forward transform of a synthesized symbol gathers its
    /// values back, √N times larger.
    #[test]
    fn synthesize_then_gather_roundtrip() {
        let plan = plan();
        let fft = FftPlan::new(plan.fft_size());
        let values: Vec<C32> = (0..plan.bins.len())
            .map(|i| C32::new(i as f32, -(i as f32)))
            .collect();
        let mut body = SplitC32::new();
        plan.synthesize(&fft, &values, &mut body);
        for x in body.re.iter_mut().chain(body.im.iter_mut()) {
            *x = plan.scale(*x);
        }
        fft.forward_split(&mut body.re, &mut body.im);
        let mut got = Vec::new();
        plan.gather_split_into(&body.re, &body.im, &mut got);
        for (i, (g, v)) in got.iter().zip(&values).enumerate() {
            assert!((g.scale(1.0 / 32.0) - *v).abs() < 1e-4, "carrier {i}: {g:?} vs {v:?}");
        }
    }

    #[test]
    fn preamble_uses_only_even_bins() {
        let plan = plan();
        let mut active = 0usize;
        for (i, v) in plan.preamble.iter().enumerate() {
            if plan.bins[i] % 2 == 1 {
                assert_eq!(*v, C32::ZERO, "odd bin (carrier {i}) must be empty");
            } else {
                assert!(v.abs() > 0.5, "even bin (carrier {i}) must be active");
                active += 1;
            }
        }
        assert!(active >= plan.bins.len() / 3, "enough preamble energy");
    }

    /// A quarter of the samples of a 1 024-point symbol, transformed in 256
    /// points, hold the same carriers in the quarter-size plan's bins.
    #[test]
    fn quarter_grid_holds_the_same_carriers() {
        let p = Profile::sonic_10k();
        let full = plan();
        let quarter = CarrierPlan::with_fft_size(&p, p.fft_size / 4);
        assert_eq!((&quarter.pilot_idx, &quarter.data_idx), (&full.pilot_idx, &full.data_idx));
        assert_eq!((&quarter.training, &quarter.preamble), (&full.training, &full.preamble));
        let values: Vec<C32> = (0..full.bins.len())
            .map(|i| C32::from_angle(i as f64 * 0.7).scale(1.0 + (i % 3) as f32))
            .collect();
        let mut symbol = SplitC32::new();
        full.synthesize(&FftPlan::new(p.fft_size), &values, &mut symbol);
        let mut kept = SplitC32 {
            re: symbol.re.iter().step_by(4).map(|&x| full.scale(x)).collect(),
            im: symbol.im.iter().step_by(4).map(|&x| full.scale(x)).collect(),
        };
        FftPlan::new(p.fft_size / 4).forward_split(&mut kept.re, &mut kept.im);
        // x[4m] = (√1024/1024)·Σ X·e^{j2πkm/256}, so the 256-point transform is 8·X.
        let mut got = Vec::new();
        quarter.gather_split_into(&kept.re, &kept.im, &mut got);
        for (i, (got, want)) in got.iter().zip(&values).enumerate() {
            assert!((got.scale(1.0 / 8.0) - *want).abs() < 1e-5, "carrier {i}");
        }
        // The preamble body is the full one's every 4th sample, at twice the
        // amplitude (both are scaled by √N).
        for (q, f) in quarter.preamble_body.iter().zip(full.preamble_body.iter().step_by(4)) {
            assert!((*q - f.scale(2.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn prbs_is_balanced_and_periodic() {
        let mut prbs = Prbs::new(1);
        let bits: Vec<u8> = (0..127).map(|_| prbs.next_bit()).collect();
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        assert!((56..=72).contains(&ones), "ones {ones}");
        // Period 127 for a maximal 7-bit LFSR.
        let again: Vec<u8> = (0..127).map(|_| prbs.next_bit()).collect();
        assert_eq!(bits, again);
    }

    #[test]
    fn pilots_do_not_overlap_data() {
        let plan = plan();
        for p in &plan.pilot_idx {
            assert!(!plan.data_idx.contains(p));
        }
    }
}
