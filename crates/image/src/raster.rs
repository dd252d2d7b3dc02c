//! RGB raster type.
//!
//! Rendered webpages are stored as row-major 8-bit RGB. Pages are 1,080 px
//! wide and up to 10,000 px tall (§3.2), so a full page is ≈ 32 MB — all
//! APIs therefore avoid needless copies.

/// An 8-bit RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rgb {
    /// Red.
    pub r: u8,
    /// Green.
    pub g: u8,
    /// Blue.
    pub b: u8,
}

impl Rgb {
    /// White.
    pub const WHITE: Rgb = Rgb::new(255, 255, 255);
    /// Black.
    pub const BLACK: Rgb = Rgb::new(0, 0, 0);

    /// Creates a pixel.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Perceptual luma (BT.601 integer approximation).
    pub fn luma(self) -> u8 {
        ((77 * self.r as u32 + 150 * self.g as u32 + 29 * self.b as u32) >> 8) as u8
    }
}

/// A row-major RGB image.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Raster {
    /// Creates a raster filled with a solid color.
    pub fn filled(width: usize, height: usize, color: Rgb) -> Self {
        let mut data = Vec::with_capacity(width * height * 3);
        for _ in 0..width * height {
            data.extend_from_slice(&[color.r, color.g, color.b]);
        }
        Raster {
            width,
            height,
            data,
        }
    }

    /// Creates a white raster (webpage background).
    pub fn new(width: usize, height: usize) -> Self {
        Raster::filled(width, height, Rgb::WHITE)
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw RGB bytes, row-major.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Pixel accessor.
    ///
    /// # Panics
    /// Panics out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Rgb {
        let i = (y * self.width + x) * 3;
        Rgb::new(self.data[i], self.data[i + 1], self.data[i + 2])
    }

    /// Pixel mutator.
    ///
    /// # Panics
    /// Panics out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: Rgb) {
        let i = (y * self.width + x) * 3;
        self.data[i] = c.r;
        self.data[i + 1] = c.g;
        self.data[i + 2] = c.b;
    }

    /// Fills an axis-aligned rectangle (clipped to the image).
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, c: Rgb) {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        for yy in y.min(self.height)..y1 {
            for xx in x.min(self.width)..x1 {
                self.set(xx, yy, c);
            }
        }
    }

    /// Crops to the top `max_height` rows (the paper's PH=10k crop).
    pub fn crop_height(&self, max_height: usize) -> Raster {
        if self.height <= max_height {
            return self.clone();
        }
        Raster {
            width: self.width,
            height: max_height,
            data: self.data[..self.width * max_height * 3].to_vec(),
        }
    }

    /// Extracts one pixel column as RGB triples (the §3.3 partition unit).
    pub fn column(&self, x: usize) -> Vec<Rgb> {
        (0..self.height).map(|y| self.get(x, y)).collect()
    }

    /// Mean absolute per-channel difference against another raster.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn mean_abs_diff(&self, other: &Raster) -> f64 {
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.height, other.height, "height mismatch");
        let sum: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs() as u64)
            .sum();
        sum as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_white() {
        let r = Raster::new(4, 3);
        assert_eq!(r.get(3, 2), Rgb::WHITE);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 3);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut r = Raster::new(8, 8);
        r.set(5, 6, Rgb::new(1, 2, 3));
        assert_eq!(r.get(5, 6), Rgb::new(1, 2, 3));
        assert_eq!(r.get(5, 5), Rgb::WHITE);
    }

    #[test]
    fn fill_rect_clips() {
        let mut r = Raster::new(4, 4);
        r.fill_rect(2, 2, 10, 10, Rgb::BLACK);
        assert_eq!(r.get(3, 3), Rgb::BLACK);
        assert_eq!(r.get(1, 1), Rgb::WHITE);
    }

    #[test]
    fn crop_height_truncates() {
        let mut r = Raster::new(2, 5);
        r.set(0, 4, Rgb::BLACK);
        let c = r.crop_height(3);
        assert_eq!(c.height(), 3);
        assert_eq!(c.width(), 2);
        // Cropping below the height is identity.
        assert_eq!(r.crop_height(10), r);
    }

    #[test]
    fn column_extracts_vertically() {
        let mut r = Raster::new(3, 2);
        r.set(1, 0, Rgb::new(9, 9, 9));
        r.set(1, 1, Rgb::new(7, 7, 7));
        assert_eq!(r.column(1), vec![Rgb::new(9, 9, 9), Rgb::new(7, 7, 7)]);
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let r = Raster::filled(5, 5, Rgb::new(10, 20, 30));
        assert_eq!(r.mean_abs_diff(&r.clone()), 0.0);
    }

    #[test]
    fn luma_ordering() {
        assert!(Rgb::WHITE.luma() > 250);
        assert!(Rgb::BLACK.luma() < 2);
        assert!(Rgb::new(0, 255, 0).luma() > Rgb::new(0, 0, 255).luma());
    }
}
