//! Synthetic user study (Figure 5 substitution).
//!
//! The paper recruited 151 students, each rating 20 screenshots on two 0–10
//! Likert questions (content understanding, text readability). We replace
//! the humans with a perceptual model: measured degradation (edge integrity
//! for text, PSNR-ish pixel fidelity for content) is mapped through a
//! logistic curve to a 0–10 rating, and each simulated rater adds a personal
//! bias and per-rating noise. The model's two anchor points are taken from
//! the paper's reported medians (≈7 content at 20 % loss *with*
//! interpolation; ≥1 point gap between with/without at every loss rate) —
//! the *shape* of Figure 5 then emerges from the measurements, not from a
//! lookup table.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sonic_image::metrics::{edge_integrity, psnr, text_corruption};
use sonic_image::raster::Raster;

/// The two Likert questions of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Question {
    /// (a) "perception of content understanding".
    Content,
    /// (b) "readability of the text … considering the level of noise".
    Text,
}

/// Objective degradation measurements of one screenshot.
#[derive(Debug, Clone, Copy)]
pub struct Degradation {
    /// Luma PSNR vs. the clean render (dB).
    pub psnr_db: f64,
    /// Sobel edge correlation in `[0, 1]`.
    pub edge: f64,
    /// Fraction of text-region pixels visibly damaged.
    pub text_damage: f64,
}

/// Measures a distorted screenshot against its clean reference.
pub fn measure(reference: &Raster, distorted: &Raster, text_mask: &[bool]) -> Degradation {
    Degradation {
        psnr_db: psnr(reference, distorted),
        edge: edge_integrity(reference, distorted),
        text_damage: text_corruption(reference, distorted, text_mask, 32),
    }
}

/// Maps a degradation to the *population-mean* rating for a question.
///
/// Both questions share one perceptual quality score; text readability is
/// mapped through a harsher logistic (higher midpoint), which realizes the
/// paper's finding that "text readability is more susceptible to losses"
/// while guaranteeing text never rates above content for the same damage.
pub fn mean_rating(question: Question, d: &Degradation) -> f64 {
    // Normalize PSNR to [0,1] over the interesting 5–35 dB range.
    let fidelity = ((d.psnr_db - 5.0) / 30.0).clamp(0.0, 1.0);
    let score01 = 0.40 * fidelity + 0.40 * d.edge + 0.20 * (1.0 - d.text_damage);
    let (k, mid) = match question {
        Question::Content => (5.5, 0.47),
        Question::Text => (6.0, 0.56),
    };
    10.0 / (1.0 + (-k * (score01 - mid)).exp())
}

/// One simulated rater.
#[derive(Debug, Clone)]
pub struct Rater {
    /// Personal offset (some people rate everything higher).
    pub bias: f64,
    /// Per-rating noise scale.
    pub noise: f64,
}

/// The simulated panel.
#[derive(Debug)]
pub struct Panel {
    raters: Vec<Rater>,
    rng: StdRng,
}

impl Panel {
    /// Creates a panel of `n` raters.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let raters = (0..n)
            .map(|_| Rater {
                bias: (rng.random::<f64>() - 0.5) * 1.6,
                noise: 0.5 + rng.random::<f64>() * 0.9,
            })
            .collect();
        Panel { raters, rng }
    }

    /// Number of raters.
    pub fn len(&self) -> usize {
        self.raters.len()
    }

    /// Whether the panel is empty.
    pub fn is_empty(&self) -> bool {
        self.raters.is_empty()
    }

    /// Collects integer Likert ratings (0–10) for one screenshot from a
    /// random subset of `per_shot` raters — the paper averaged ≈7 ratings
    /// per screenshot.
    pub fn rate(
        &mut self,
        question: Question,
        d: &Degradation,
        per_shot: usize,
    ) -> Vec<f64> {
        let mean = mean_rating(question, d);
        let n = self.raters.len();
        (0..per_shot)
            .map(|_| {
                let r = &self.raters[self.rng.random_range(0..n)];
                let g: f64 = {
                    // Box-Muller normal.
                    let u1: f64 = self.rng.random::<f64>().max(1e-12);
                    let u2: f64 = self.rng.random();
                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                };
                (mean + r.bias + g * r.noise).round().clamp(0.0, 10.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_image::interpolate::{blackout, recover, LossMask};
    use sonic_image::raster::Rgb;

    fn page_with_text() -> (Raster, Vec<bool>) {
        let mut img = Raster::new(120, 120);
        let mut mask = vec![false; 120 * 120];
        for y in (10..110).step_by(10) {
            for x in 10..110 {
                if x % 3 != 0 {
                    img.set(x, y, Rgb::new(40, 40, 40));
                }
                mask[y * 120 + x] = true;
            }
        }
        (img, mask)
    }

    #[test]
    fn clean_image_rates_high() {
        let (img, mask) = page_with_text();
        let d = measure(&img, &img, &mask);
        assert!(mean_rating(Question::Content, &d) > 8.5);
        assert!(mean_rating(Question::Text, &d) > 8.5);
    }

    #[test]
    fn heavier_loss_rates_lower() {
        let (img, mask) = page_with_text();
        let d10 = measure(&img, &blackout(&img, &LossMask::random(120, 120, 0.1, 1)), &mask);
        let d50 = measure(&img, &blackout(&img, &LossMask::random(120, 120, 0.5, 1)), &mask);
        for q in [Question::Content, Question::Text] {
            assert!(
                mean_rating(q, &d10) > mean_rating(q, &d50) + 0.5,
                "{q:?}: {} vs {}",
                mean_rating(q, &d10),
                mean_rating(q, &d50)
            );
        }
    }

    #[test]
    fn interpolation_beats_blackout() {
        let (img, mask) = page_with_text();
        let loss = LossMask::random(120, 120, 0.2, 2);
        let d_black = measure(&img, &blackout(&img, &loss), &mask);
        let d_fix = measure(&img, &recover(&img, &loss), &mask);
        for q in [Question::Content, Question::Text] {
            assert!(
                mean_rating(q, &d_fix) > mean_rating(q, &d_black),
                "{q:?} must improve with interpolation"
            );
        }
    }

    #[test]
    fn text_question_is_more_sensitive() {
        let (img, mask) = page_with_text();
        let loss = LossMask::random(120, 120, 0.2, 3);
        let d = measure(&img, &blackout(&img, &loss), &mask);
        assert!(
            mean_rating(Question::Text, &d) < mean_rating(Question::Content, &d),
            "text must rate below content for the same damage"
        );
    }

    #[test]
    fn panel_ratings_are_integer_likert() {
        let (img, mask) = page_with_text();
        let d = measure(&img, &img, &mask);
        let mut panel = Panel::new(20, 9);
        for r in panel.rate(Question::Content, &d, 30) {
            assert!((0.0..=10.0).contains(&r));
            assert_eq!(r, r.round());
        }
    }

    #[test]
    fn panel_is_deterministic_per_seed() {
        let (img, mask) = page_with_text();
        let d = measure(&img, &img, &mask);
        let a = Panel::new(151, 5).rate(Question::Text, &d, 7);
        let b = Panel::new(151, 5).rate(Question::Text, &d, 7);
        assert_eq!(a, b);
    }
}
