//! # sonic-dsp
//!
//! Digital signal processing primitives for the SONIC stack.
//!
//! Everything in this crate is implemented from scratch (no external DSP
//! crates) and is deliberately *sans-IO*: every routine operates on
//! caller-provided slices and returns plain data, so the modem and radio
//! layers built on top stay deterministic and unit-testable.
//!
//! Contents:
//!
//! * [`complex`] — minimal `C32` complex type used throughout the stack.
//! * [`window`] — the Hamming window of the FIR designs and the OFDM burst's
//!   raised-cosine edge.
//! * [`fir`] — windowed-sinc FIR design, the per-sample direct-form
//!   [`fir::Fir`] and the real FFT overlap-save engine [`fir::OverlapSave`].
//! * [`iir`] — first-order shelves (FM de-/pre-emphasis).
//! * [`resample`] — polyphase rational resampler, and decimator from given
//!   taps.
//! * [`osc`] — numerically controlled oscillator and its one-period replay
//!   [`osc::PeriodicOsc`], the carrier of both the transmitter and the
//!   receiver.
//! * [`goertzel`] — single-bin DFT power detector (tone levels in the radio tests and examples).
//! * [`math`] — branch-free `f64` sine/cosine and logarithm that vectorise
//!   in block loops (the FM modulator and the RF and acoustic channels).
//! * [`split`] — structure-of-arrays complex buffers ([`split::SplitC32`]).
//! * [`simd`] — the one hand-written runtime-dispatched SIMD kernel that
//!   measurably pays (the polyphase FIR block) with its scalar twin, and
//!   [`simd::vectorized`], which compiles a plain block loop for AVX2 (the
//!   FM hop's loops).
//! * [`plan`] — planned split-plane transforms: [`plan::FftPlan`], the one FFT
//!   (transmit IFFT, receive FFT and overlap-save frames, plain scalar radix-2
//!   butterflies), and the shareable [`plan::FirPlan`].

// `unsafe` is denied everywhere except the `simd` kernel module, which opts
// back in item-by-item; every unsafe block there carries a `// SAFETY:`
// comment (enforced by sonic-lint R6).
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Decode paths must degrade, not die: unwrap is a typed-error escape hatch
// we only permit in tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod complex;
pub mod fir;
pub mod goertzel;
pub mod iir;
pub mod math;
pub mod osc;
pub mod plan;
pub mod resample;
#[allow(unsafe_code)]
pub mod simd;
pub mod split;
pub mod window;

pub use complex::C32;
pub use plan::{FftPlan, FirPlan};
pub use split::SplitC32;
