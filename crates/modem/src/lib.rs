//! # sonic-modem
//!
//! Data-over-sound modems for SONIC. The workhorse is the OFDM modem the
//! paper builds on the Quiet library's "audible-7k-channel" profile: 92 data
//! subcarriers around a 9.2 kHz audio carrier inside the FM mono band,
//! reaching ~10 kbps with the sonic profile. (The related-work baselines the
//! rate table compares against live beside that table, in
//! `sonic-sim::experiments::rates`.)
//!
//! Layering (bottom up):
//!
//! * [`constellation`] — Gray-mapped BPSK…1024-QAM with max-log soft demap.
//! * [`ofdm`] — one burst on air: the modulator (preamble, training, header
//!   and payload symbols → IFFT + cyclic prefix → upconversion on the
//!   periodic oscillator the receiver also runs), and the
//!   receiver's two streaming halves: the front end (polyphase low-pass that
//!   keeps every fourth sample, periodic oscillator) and the resumable burst
//!   scanner at a quarter of the audio rate (Schmidl-Cox sync → channel
//!   estimate → per-symbol FFT, equalizer, soft demap), which suspends
//!   wherever its next step's samples have not arrived.
//! * [`frame`] — the PHY frame around a burst: coded length header, chained
//!   FEC from `sonic-fec` over the payload. [`FrameCodec`] owns the plans,
//!   the receive chain's state and all scratch: [`FrameCodec::push`] takes
//!   audio as it is captured and reports each burst as it completes, and
//!   every whole-buffer entry point is one push and a flush. The free
//!   functions go through a per-thread codec cache.
//! * [`profile`] — named parameter sets with rate math.
//!
//! Each fast path is written once and shares everything with its
//! `*_reference` oracle except what the oracle exists for:
//! [`demodulate_frames_reference`] differs from [`demodulate_frames`] in the
//! live oscillator and direct-form baseband filter at the audio rate instead
//! of the periodic one and the decimator (same burst scanner), and
//! [`constellation::demap_soft_reference`] from the receiver's
//! [`constellation::demap_soft_batch`] in searching all M points instead of
//! each axis's √M. The cached codec is checked against a fresh
//! [`FrameCodec`], not a twin: the slow path is the fast one with empty
//! scratch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode paths must degrade, not die: unwrap is a typed-error escape hatch
// we only permit in tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod constellation;
pub mod frame;
pub mod ofdm;
pub mod profile;

pub use frame::{
    demodulate_frames, demodulate_frames_reference, modulate_frame, FrameCodec, PhyError,
};
pub use profile::Profile;
