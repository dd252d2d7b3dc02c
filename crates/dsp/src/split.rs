//! Structure-of-arrays complex buffers.
//!
//! The SIMD kernels in [`crate::simd`] operate on separate real/imaginary
//! planes so that an 8-lane vector load touches 8 *independent* samples with
//! no gather, shuffle, or deinterleave step. [`SplitC32`] is the owning
//! buffer for that layout, with conversion shims to and from the interleaved
//! [`C32`] representation used at module boundaries.

use crate::complex::C32;

/// A complex buffer stored as two parallel `f32` planes (structure of
/// arrays). Invariant: `re.len() == im.len()` at all public API boundaries.
#[derive(Debug, Clone, Default)]
pub struct SplitC32 {
    /// Real plane.
    pub re: Vec<f32>,
    /// Imaginary plane.
    pub im: Vec<f32>,
}

impl SplitC32 {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SplitC32::default()
    }

    /// Creates a zero-filled buffer of `n` samples.
    pub fn zeroed(n: usize) -> Self {
        SplitC32 {
            re: vec![0.0; n],
            im: vec![0.0; n],
        }
    }

    /// Number of complex samples.
    #[inline]
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.re.len(), self.im.len());
        self.re.len()
    }

    /// True when the buffer holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Clears both planes (capacity is retained).
    pub fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    /// Resizes both planes to `n` samples, zero-filling growth.
    pub fn resize(&mut self, n: usize) {
        self.re.resize(n, 0.0);
        self.im.resize(n, 0.0);
    }

    /// Builds a split buffer from interleaved complex samples.
    pub fn from_interleaved(src: &[C32]) -> Self {
        let mut s = SplitC32::zeroed(src.len());
        s.copy_from_interleaved(src);
        s
    }

    /// Overwrites this buffer with interleaved samples (resizing to match).
    pub fn copy_from_interleaved(&mut self, src: &[C32]) {
        self.resize(src.len());
        for (i, v) in src.iter().enumerate() {
            self.re[i] = v.re;
            self.im[i] = v.im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_samples_land_in_the_two_planes() {
        let src: Vec<C32> = (0..37).map(|i| C32::new(i as f32, -(i as f32))).collect();
        let s = SplitC32::from_interleaved(&src);
        assert_eq!(s.len(), 37);
        let back: Vec<C32> = s.re.iter().zip(&s.im).map(|(&re, &im)| C32::new(re, im)).collect();
        assert_eq!(src, back);
    }

    #[test]
    fn resize_and_clear_keep_planes_in_sync() {
        let mut s = SplitC32::new();
        assert!(s.is_empty());
        s.resize(9);
        assert_eq!(s.len(), 9);
        s.clear();
        assert!(s.is_empty());
    }
}
