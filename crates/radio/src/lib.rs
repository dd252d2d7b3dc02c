//! # sonic-radio
//!
//! The FM broadcast physical layer SONIC rides on, implemented in software:
//!
//! * [`mpx`] — the FM stereo multiplex (mono 30 Hz–15 kHz, 19 kHz pilot,
//!   23–53 kHz stereo difference, 57 kHz RDS subcarrier), composed at a
//!   228 kHz composite rate (= 4 × 57 kHz, = 192 × 1187.5 bps).
//! * [`fm`] — frequency modulator/demodulator at complex baseband with the
//!   standard ±75 kHz deviation, exhibiting the real FM threshold effect
//!   that drives the paper's RSSI-vs-loss behaviour.
//! * [`rds`] — Radio Data System encoder/decoder (26-bit blocks with
//!   checkwords, differential biphase at 1187.5 bps on the 57 kHz
//!   subcarrier), the substrate of the RevCast baseline in §2.
//! * [`channel`] — channel models: RF path with log-distance path loss +
//!   AWGN (reporting RSSI like a tuner would), and the
//!   speaker→air→microphone acoustic hop with its distance-dependent losses
//!   (Figure 4a).
//! * [`faults`] — seeded impairment schedules (impulses, co-channel,
//!   mutes, clock drift, fades) sampled at frame level for day-scale
//!   simulations.
//! * [`stack`] — glue: audio in → MPX → FM → channel → FM demod → audio out.
//!
//! Substitution note (see DESIGN.md): this crate replaces the paper's
//! Raspberry-Pi GPIO transmitter, TR508 exciter and Xiaomi FM tuner. The
//! mechanisms that produce frame loss — FM threshold collapse at low RSSI
//! and audio-band SNR/ISI over the acoustic hop — are modeled physically,
//! not as abstract loss coins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode paths must degrade, not die: unwrap is a typed-error escape hatch
// we only permit in tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod channel;
pub mod faults;
pub mod fm;
pub mod mpx;
pub mod rds;
pub mod rssi;
pub mod stack;

/// Audio sample rate used throughout the SONIC stack (Hz).
pub const AUDIO_RATE: f64 = 44_100.0;

/// FM composite (multiplex) sample rate: 4 × 57 kHz, so the RDS subcarrier
/// sits exactly at fs/4 and one RDS bit spans exactly 192 samples.
pub const MPX_RATE: f64 = 228_000.0;

/// Peak FM deviation in Hz (broadcast standard).
pub const FM_DEVIATION: f64 = 75_000.0;

/// Top of the mono (L+R) program band in Hz — SONIC's data carrier must
/// stay below this.
pub const MONO_TOP_HZ: f64 = 15_000.0;

/// Stereo pilot tone frequency in Hz.
pub const PILOT_HZ: f64 = 19_000.0;

/// Stereo difference (L−R) DSB-SC subcarrier frequency in Hz (2 × pilot).
pub const STEREO_SUB_HZ: f64 = 38_000.0;

/// Lower edge of the stereo difference band in Hz.
pub const STEREO_LO_HZ: f64 = 23_000.0;

/// Upper edge of the stereo difference band in Hz.
pub const STEREO_HI_HZ: f64 = 53_000.0;

/// RDS subcarrier frequency in Hz (3 × pilot, = MPX_RATE / 4).
pub const RDS_SUB_HZ: f64 = 57_000.0;
