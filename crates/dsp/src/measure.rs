//! Level measurement helpers: mean power and RMS, the primitives behind
//! the RSSI readings the evaluation reports.

/// Mean power of a real signal (`mean(x²)`).
pub fn power(signal: &[f32]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    signal.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() / signal.len() as f64
}

/// Root-mean-square level.
pub fn rms(signal: &[f32]) -> f64 {
    power(signal).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_unit_sine_is_half() {
        let sig: Vec<f32> = (0..48000)
            .map(|i| (2.0 * std::f64::consts::PI * 100.0 * i as f64 / 48000.0).sin() as f32)
            .collect();
        assert!((power(&sig) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn empty_signal_has_zero_power() {
        assert_eq!(power(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
    }
}
