//! Nearest-neighbor rescaling (§3.2 device scaling factor).
//!
//! "Depending on the mobile phone screen resolution, and using the scaling
//! factor (i.e., mobile phone screen width / 1,080), the images are resized
//! by multiplying both the width and height with the scaling factor."

use crate::raster::Raster;

/// Scales a raster by `factor` with nearest-neighbor sampling.
///
/// # Panics
/// Panics if the result would be empty (`factor` too small).
pub fn scale(img: &Raster, factor: f64) -> Raster {
    let w = ((img.width() as f64 * factor).round() as usize).max(1);
    let h = ((img.height() as f64 * factor).round() as usize).max(1);
    assert!(factor > 0.0, "factor must be positive");
    let mut out = Raster::new(w, h);
    for y in 0..h {
        let sy = ((y as f64 / factor) as usize).min(img.height() - 1);
        for x in 0..w {
            let sx = ((x as f64 / factor) as usize).min(img.width() - 1);
            out.set(x, y, img.get(sx, sy));
        }
    }
    out
}

/// Computes the paper's device scaling factor for a screen width.
pub fn device_factor(screen_width: usize) -> f64 {
    screen_width as f64 / 1080.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Rgb;

    #[test]
    fn identity_factor_preserves() {
        let mut img = Raster::new(5, 4);
        img.set(3, 2, Rgb::BLACK);
        let out = scale(&img, 1.0);
        assert_eq!(out, img);
    }

    #[test]
    fn downscale_halves_dimensions() {
        let img = Raster::new(100, 60);
        let out = scale(&img, 0.5);
        assert_eq!((out.width(), out.height()), (50, 30));
    }

    #[test]
    fn upscale_replicates_pixels() {
        let mut img = Raster::new(2, 1);
        img.set(0, 0, Rgb::BLACK);
        let out = scale(&img, 2.0);
        assert_eq!(out.get(0, 0), Rgb::BLACK);
        assert_eq!(out.get(1, 0), Rgb::BLACK);
        assert_eq!(out.get(2, 0), Rgb::WHITE);
    }

    #[test]
    fn device_factor_matches_paper_definition() {
        assert!((device_factor(1080) - 1.0).abs() < 1e-12);
        assert!((device_factor(720) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn redmi_go_width_shrinks_page() {
        // Xiaomi Redmi Go: 720-px-wide screen.
        let img = Raster::new(1080, 300);
        let out = scale(&img, device_factor(720));
        assert_eq!(out.width(), 720);
        assert_eq!(out.height(), 200);
    }

    #[test]
    fn tiny_factor_clamps_to_one_pixel() {
        let img = Raster::new(10, 10);
        let out = scale(&img, 0.01);
        assert_eq!((out.width(), out.height()), (1, 1));
    }
}
