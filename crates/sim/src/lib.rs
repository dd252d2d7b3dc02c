//! # sonic-sim
//!
//! Simulation and measurement harnesses reproducing the SONIC paper's
//! evaluation (§4). Each figure/table has a module under [`experiments`];
//! the `sonic-bench` crate's `paper` target runs them all and reports
//! their numbers as rows of `BENCH_paper.json`.
//!
//! * [`linksim`] — frames → modem → FM/acoustic channel → frames, with loss
//!   accounting (Figures 4a and the RSSI sweep).
//! * [`pool`] — deterministic worker pool the sweeps fan out on.
//! * [`broadcast`] — hourly backlog recurrence (Figure 4c).
//! * [`carousel`] — the ticker-update carousel loop over the artifact
//!   cache, each revolution decoded by the production receiver.
//! * [`study`] — the 151-rater perceptual panel model (Figure 5).
//! * [`workload`] — request workloads for day-in-the-life runs.
//! * [`chaos`], [`cluster`] — seeded fault soaks: one server's radio path,
//!   and the multi-site control plane (kill/restart, link faults, floods).
//! * [`scenario`], [`terrain`] — the country-scale streaming engine:
//!   Zipf-ranked populations on synthetic terrain, batched frame-fate
//!   evaluation, constant-memory aggregation (72 h × 100 k listeners).
//! * [`stats`], [`report`] — percentiles/CDFs/boxplots, and the scenario
//!   report's text tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode paths must degrade, not die: unwrap is a typed-error escape hatch
// we only permit in tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod broadcast;
pub mod carousel;
pub mod chaos;
pub mod cluster;
pub mod experiments;
pub mod linksim;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod study;
pub mod terrain;
pub mod workload;
