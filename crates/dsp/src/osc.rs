//! Numerically controlled oscillator and its one-period replay.
//!
//! The OFDM modem is built at complex baseband and mixed up to the 9.2 kHz
//! audio carrier for transmission and back down in the receiver. Both
//! directions replay one period of the carrier's phasors ([`PeriodicOsc`]),
//! tabulated once from the live [`Nco`], whose phase accumulator runs in
//! `f64`; the live oscillator itself mixes only in the receiver's
//! executable specification ([`downconvert`]).

use crate::complex::C32;
use std::f64::consts::TAU;

/// A free-running oscillator producing `e^{jωn}` samples.
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    step: f64,
}

impl Nco {
    /// Creates an NCO at `freq` Hz for sample rate `fs`.
    ///
    /// Negative frequencies rotate the opposite direction (used for
    /// down-conversion).
    pub fn new(fs: f64, freq: f64) -> Self {
        Nco {
            phase: 0.0,
            step: TAU * freq / fs,
        }
    }

    /// Returns the next complex phasor sample.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, never yields None
    #[inline]
    pub fn next(&mut self) -> C32 {
        let z = C32::from_angle(self.phase);
        self.phase += self.step;
        if self.phase > TAU {
            self.phase -= TAU;
        } else if self.phase < -TAU {
            self.phase += TAU;
        }
        z
    }

    /// Current phase in radians.
    pub fn phase(&self) -> f64 {
        self.phase
    }
}

/// Samples in one period of a `freq` Hz carrier at sample rate `fs`: the
/// shortest run that holds a whole number of cycles, or `None` if none does
/// within one second of samples (every whole number of hertz at a
/// whole-hertz sample rate does).
pub fn carrier_period(fs: f64, freq: f64) -> Option<usize> {
    (1usize..)
        .take_while(|&p| p as f64 <= fs)
        .find(|&p| (p as f64 * freq / fs).fract() == 0.0)
}

/// One period of an [`Nco`], replayed for as long as the stream lasts: the
/// oscillator of both the transmitter, which [`restart`](Self::restart)s it
/// at every burst (each starts at phase zero), and the receiver.
///
/// A carrier whose frequency is a rational fraction of the sample rate
/// repeats exactly — 9 200 Hz at 44 100 Hz every 441 samples — so one period
/// of phasors and a position in it are all the state a mixer needs,
/// however long the station has been on. The period is the `Nco`'s own first
/// one: the first [`period`](Self::period) samples are bit-identical to a
/// fresh `Nco`, and from there on the live oscillator, whose `f64` phase
/// picks up a rounding at every wrap, sits one `f32` ulp away from the table
/// on about one sample in 25.
#[derive(Debug, Clone)]
pub struct PeriodicOsc {
    table: Vec<C32>,
    /// Index into `table` of the next sample's phasor.
    pos: usize,
}

impl PeriodicOsc {
    /// Tabulates one period ([`carrier_period`]) of `freq` Hz at sample rate
    /// `fs`.
    ///
    /// # Panics
    /// Panics if the carrier does not repeat within one second of samples.
    pub fn new(fs: f64, freq: f64) -> Self {
        let period = carrier_period(fs, freq).unwrap_or(0);
        assert!(
            period > 0,
            "a {freq} Hz carrier does not repeat within one second at {fs} Hz"
        );
        let mut nco = Nco::new(fs, freq);
        PeriodicOsc {
            table: (0..period).map(|_| nco.next()).collect(),
            pos: 0,
        }
    }

    /// Samples per repetition.
    pub fn period(&self) -> usize {
        self.table.len()
    }

    /// This oscillator as a signal that keeps every `stride`-th sample from
    /// sample `first` sees it, from the start: one period of the phasors of
    /// samples `first`, `first + stride`, `first + 2·stride`, …
    pub fn decimated(&self, stride: usize, first: usize) -> Self {
        let n = self.table.len();
        // The kept samples' phasors repeat once `period` strides are whole periods.
        let period = (1..=n).find(|p| (p * stride).is_multiple_of(n)).unwrap_or(n);
        PeriodicOsc {
            table: (0..period).map(|m| self.table[(first + m * stride) % n]).collect(),
            pos: 0,
        }
    }

    /// Back to the start: the next [`advance`](Self::advance) returns the
    /// first phasor of the period (phase zero, unless
    /// [`decimated`](Self::decimated) from a later sample).
    pub fn restart(&mut self) {
        self.pos = 0;
    }

    /// The next sample's phasor.
    #[inline]
    pub fn advance(&mut self) -> C32 {
        let c = self.table[self.pos];
        self.pos += 1;
        if self.pos == self.table.len() {
            self.pos = 0;
        }
        c
    }

    /// The next `max` phasors, or those to the end of the period if that
    /// comes first, as one run of the table; the oscillator moves past them.
    /// The run is the phasors that as many [`advance`](Self::advance) calls
    /// return.
    #[inline]
    pub fn run(&mut self, max: usize) -> &[C32] {
        let start = self.pos;
        let end = start + max.min(self.table.len() - start);
        self.pos = if end == self.table.len() { 0 } else { end };
        &self.table[start..end]
    }
}

/// Down-converts a real passband signal to complex baseband.
///
/// Multiplies by `e^{-jωn}`; the caller is expected to low-pass the result
/// (the OFDM FFT itself acts as the channelizer in our receiver, so no
/// explicit filter is needed there).
pub fn downconvert(nco: &mut Nco, passband: &[f32], out: &mut Vec<C32>) {
    for &x in passband {
        let c = nco.next().conj();
        out.push(c.scale(x * std::f32::consts::SQRT_2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nco_frequency_is_accurate() {
        let fs = 48000.0;
        let f = 1000.0;
        let mut nco = Nco::new(fs, f);
        // After exactly one period the phase should return to ~0 (mod 2π).
        let period = (fs / f) as usize;
        for _ in 0..period {
            nco.next();
        }
        let wrapped = nco.phase() % TAU;
        assert!(wrapped.min(TAU - wrapped) < 1e-6);
    }

    #[test]
    fn nco_is_unit_magnitude() {
        let mut nco = Nco::new(44100.0, 9200.0);
        for _ in 0..1000 {
            assert!((nco.next().abs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn up_down_conversion_recovers_baseband() {
        let fs = 44100.0;
        let fc = 9200.0;
        // A slowly rotating baseband signal.
        let baseband: Vec<C32> = (0..4096)
            .map(|i| C32::from_angle(TAU * 50.0 * i as f64 / fs))
            .collect();
        // Up the way the modulator mixes, from a restarted oscillator.
        let mut osc = PeriodicOsc::new(fs, fc);
        osc.advance();
        osc.restart();
        let pass: Vec<f32> = baseband
            .iter()
            .map(|&x| (x * osc.advance()).re * std::f32::consts::SQRT_2)
            .collect();
        // Down the way the receiver's specification mixes.
        let mut back = Vec::new();
        downconvert(&mut Nco::new(fs, fc), &pass, &mut back);
        // back = baseband + image at 2fc; average short windows to kill the image.
        let win = 64; // ~ 2fc period multiple
        let mut err = 0.0f32;
        let mut n = 0;
        for k in (0..back.len() - win).step_by(win) {
            let avg: C32 = back[k..k + win].iter().copied().sum::<C32>() / win as f32;
            let want: C32 = baseband[k..k + win].iter().copied().sum::<C32>() / win as f32;
            err += (avg - want).abs();
            n += 1;
        }
        assert!(err / (n as f32) < 0.1, "residual {}", err / n as f32);
    }

    #[test]
    fn periodic_osc_finds_the_shortest_period() {
        for (freq, period) in [(9_200.0, 441), (10_500.0, 21), (7_000.0, 63), (11_400.0, 147)] {
            assert_eq!(PeriodicOsc::new(44_100.0, freq).period(), period, "{freq} Hz");
        }
        assert_eq!(PeriodicOsc::new(48_000.0, 1_187.5).period(), 768);
        assert_eq!(carrier_period(44_100.0, 9_197.0), Some(44_100));
        assert_eq!(carrier_period(44_100.0, 123.456), None);
    }

    #[test]
    #[should_panic(expected = "does not repeat")]
    fn periodic_osc_rejects_a_carrier_with_no_short_period() {
        let _ = PeriodicOsc::new(44_100.0, 123.456);
    }

    #[test]
    fn periodic_osc_is_its_nco_for_one_period_and_an_ulp_off_after() {
        let (fs, fc) = (44_100.0, 9_200.0);
        let mut nco = Nco::new(fs, fc);
        let want: Vec<C32> = (0..100_000).map(|_| nco.next()).collect();
        let mut osc = PeriodicOsc::new(fs, fc);
        let got: Vec<C32> = (0..want.len()).map(|_| osc.advance()).collect();
        let bits = |v: &C32| (v.re.to_bits(), v.im.to_bits());
        for (w, g) in want.iter().zip(&got).take(osc.period()) {
            assert_eq!(bits(w), bits(g));
        }
        for (k, (w, g)) in want.iter().zip(&got).enumerate() {
            assert!((*w - *g).abs() < f32::EPSILON, "sample {k}: {w:?} vs {g:?}");
        }
        // Every 4th phasor from sample 2: 441 is odd, so all 441 of them.
        let mut quarter = PeriodicOsc::new(fs, fc).decimated(4, 2);
        assert_eq!(quarter.period(), 441);
        for m in 0..2_000 {
            assert_eq!(bits(&quarter.advance()), bits(&got[4 * m + 2]), "kept sample {m}");
        }
        assert_eq!(PeriodicOsc::new(fs, 10_500.0).decimated(3, 0).period(), 7);
    }

    /// Runs of any lengths, cut at the period's end, are the phasors one
    /// `advance` at a time returns.
    #[test]
    fn runs_are_advances() {
        let mut one = PeriodicOsc::new(44_100.0, 9_200.0);
        let mut runs = one.clone();
        for max in [0usize, 1, 128, 1_152, 440, 441, 3, 1_000] {
            let mut left = max;
            while left > 0 {
                let run = runs.run(left);
                assert!(!run.is_empty() && run.len() <= left);
                left -= run.len();
                for c in run {
                    let want = one.advance();
                    assert_eq!((c.re.to_bits(), c.im.to_bits()), (want.re.to_bits(), want.im.to_bits()));
                }
            }
        }
    }

    #[test]
    fn negative_frequency_conjugates() {
        let mut pos = Nco::new(1000.0, 100.0);
        let mut neg = Nco::new(1000.0, -100.0);
        for _ in 0..50 {
            let p = pos.next();
            let n = neg.next();
            assert!((p.conj() - n).abs() < 1e-6);
        }
    }
}
