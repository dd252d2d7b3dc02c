//! IIR sections: the FM pre-/de-emphasis shelves.
//!
//! Broadcast FM boosts treble before modulation (pre-emphasis) and cuts it
//! symmetrically in the receiver (de-emphasis) to fight the triangular noise
//! spectrum of the FM discriminator. Both are single-pole shelves with a time
//! constant of 50 µs (75 µs in the Americas); SONIC's radio substrate applies
//! them around the data band exactly as a real exciter/tuner would.


/// Single-pole de-emphasis filter (`tau` seconds, e.g. 50e-6).
///
/// `y[n] = a·x[n] + (1-a)·y[n-1]` with `a = 1 - e^{-1/(fs·tau)}`.
#[derive(Debug, Clone)]
pub struct Deemphasis {
    a: f32,
    state: f32,
}

impl Deemphasis {
    /// Creates a de-emphasis filter for sample rate `fs` and time constant `tau`.
    pub fn new(fs: f64, tau: f64) -> Self {
        let a = 1.0 - (-1.0 / (fs * tau)).exp();
        Deemphasis {
            a: a as f32,
            state: 0.0,
        }
    }

    /// Filters one sample.
    #[inline]
    pub fn push(&mut self, x: f32) -> f32 {
        self.state += self.a * (x - self.state);
        self.state
    }

    /// Filters a block in place.
    pub fn process(&mut self, buf: &mut [f32]) {
        for v in buf.iter_mut() {
            *v = self.push(*v);
        }
    }
}

/// Pre-emphasis: the inverse shelf of [`Deemphasis`], `y[n] = (x[n] - (1-a)·x̂)` —
/// implemented as the exact filter inverse so a pre/de cascade is identity.
#[derive(Debug, Clone)]
pub struct Preemphasis {
    a: f32,
    prev_y: f32,
}

impl Preemphasis {
    /// Creates a pre-emphasis filter matching `Deemphasis::new(fs, tau)`.
    pub fn new(fs: f64, tau: f64) -> Self {
        let a = 1.0 - (-1.0 / (fs * tau)).exp();
        Preemphasis {
            a: a as f32,
            prev_y: 0.0,
        }
    }

    /// Filters one sample (inverse of the de-emphasis recursion).
    #[inline]
    pub fn push(&mut self, x: f32) -> f32 {
        // Deemphasis: s += a(x - s); output s.
        // Inverse: given desired output x (as deemph input recovered),
        // y = (x - (1-a)·prev) / a where prev is previous deemph output.
        let y = (x - (1.0 - self.a) * self.prev_y) / self.a;
        self.prev_y = x;
        y
    }

    /// Filters a block in place.
    pub fn process(&mut self, buf: &mut [f32]) {
        for v in buf.iter_mut() {
            *v = self.push(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / fs).sin() as f32)
            .collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
    }

    #[test]
    fn deemphasis_cuts_treble() {
        let fs = 192000.0;
        let mut de = Deemphasis::new(fs, 50e-6);
        let mut hi = tone(fs, 15000.0, 19200);
        let mut lo = tone(fs, 100.0, 19200);
        de.process(&mut hi);
        let mut de2 = Deemphasis::new(fs, 50e-6);
        de2.process(&mut lo);
        // Unit sine RMS is 0.707. 15 kHz is ~4.7x the 3.18 kHz corner:
        // expect clear attenuation there and near-unity gain at 100 Hz.
        assert!(rms(&hi[4000..]) < 0.3);
        assert!(rms(&lo[4000..]) > 0.68);
    }

    #[test]
    fn pre_then_de_is_identity() {
        let fs = 192000.0;
        let mut pre = Preemphasis::new(fs, 50e-6);
        let mut de = Deemphasis::new(fs, 50e-6);
        let x = tone(fs, 9200.0, 4000);
        let mut y = x.clone();
        pre.process(&mut y);
        de.process(&mut y);
        for (a, b) in x.iter().zip(&y).skip(10) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
