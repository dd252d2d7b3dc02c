//! # SONIC — Connect the Unconnected via FM Radio & SMS
//!
//! A full-system Rust reproduction of the CoNEXT'24 paper: pre-rendered
//! webpages are encoded over sound, broadcast on FM radio (downlink), and
//! requested via SMS (uplink). This facade crate re-exports the whole
//! stack; see `DESIGN.md` for the architecture and the hardware/data
//! substitutions, and `EXPERIMENTS.md` for the figure-by-figure
//! reproduction.
//!
//! ## The stack, bottom-up
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | DSP | [`dsp`] | FFT, FIR, emphasis shelves, resampling, NCO, Goertzel |
//! | FEC | [`fec`] | CRC-32, K=9 Viterbi ("v29"), RS(255,223) ("rs8") |
//! | modem | [`modem`] | 92-subcarrier OFDM @ 9.2 kHz: burst, frame, profiles |
//! | radio | [`radio`] | FM multiplex, FM mod/demod, RDS, channel models |
//! | image | [`image`] | SWP (WebP-analog) codec, strip coding, interpolation |
//! | pages | [`pagegen`] | deterministic webpage renderer + corpus |
//! | sms | [`sms`] | GSM-7, segmentation, delivery model, gateway grammar |
//! | system | [`core`] | SONIC server & client, 100-byte frames, scheduling |
//! | eval | [`sim`] | experiment harnesses reproducing §4 |
//!
//! ## Quickstart
//!
//! ```
//! use sonic::core::page::SimplifiedPage;
//! use sonic::core::{chunker, reassembly::PageAssembly};
//! use sonic::image::clickmap::ClickMap;
//! use sonic::image::raster::Raster;
//!
//! // Render (here: a tiny blank page), strip-encode, frame, and recover.
//! let raster = Raster::new(32, 24);
//! let page = SimplifiedPage::from_raster("https://example.pk/", &raster, ClickMap::default(), 0, 12);
//! let mut assembly = PageAssembly::new();
//! for frame in chunker::page_to_frames(&page) {
//!     assembly.push(frame);
//! }
//! let received = assembly.finalize().expect("complete broadcast");
//! assert_eq!(received.url, "https://example.pk/");
//! assert_eq!(received.mask.loss_rate(), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sonic_core as core;
pub use sonic_dsp as dsp;
pub use sonic_fec as fec;
pub use sonic_image as image;
pub use sonic_modem as modem;
pub use sonic_pagegen as pagegen;
pub use sonic_radio as radio;
pub use sonic_sim as sim;
pub use sonic_sms as sms;
