//! # sonic-image
//!
//! Image substrate for SONIC, built from scratch (no image crates):
//!
//! * [`raster`] — RGB rasters with typed pixel access.
//! * [`color`] — YCbCr conversion and 4:2:0 subsampling.
//! * [`dct`] — 8×8 forward/inverse DCT.
//! * [`quant`] — JPEG-style quantization tables with the WebP 0–95 quality
//!   knob the paper uses.
//! * [`bitio`], [`huffman`] — bit-level IO and canonical Huffman coding.
//! * [`codec`] — the "SWP" lossy codec standing in for WebP (whole-image
//!   mode, used for the Figure 4b size CDFs).
//! * [`hash`] — FNV-1a content addressing for the broadcast artifact cache.
//! * [`strip`] — the transmission coding from §3.3: the image is divided
//!   into 1-px-wide vertical partitions, each independently coded, so a
//!   lost 100-byte frame costs a column segment instead of the whole file.
//! * [`interpolate`] — nearest-neighbor loss recovery, left-pixel priority
//!   (§3.3, Figure 1 right).
//! * [`clickmap`] — DRIVESHAFT-style interactivity maps (§3.2).
//! * [`scale`] — nearest-neighbor rescaling by the device scaling factor.
//! * [`pgm`] — PPM export so examples can render results to disk.
//! * [`metrics`] — PSNR, edge integrity and text-corruption measures that
//!   feed the synthetic user study (Figure 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode paths must degrade, not die: unwrap is a typed-error escape hatch
// we only permit in tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bitio;
pub mod clickmap;
pub mod codec;
pub mod hash;
pub mod color;
pub mod dct;
pub mod huffman;
pub mod interpolate;
pub mod metrics;
pub mod pgm;
pub mod quant;
pub mod raster;
pub mod scale;
pub mod strip;

pub use raster::Raster;
