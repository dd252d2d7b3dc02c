//! End-to-end chaos soak acceptance (robustness tentpole).
//!
//! Drives a broadcast day through a hostile [`sonic_radio::faults::FaultPlan`]
//! and a misbehaving SMS network, with the client NACK-repair loop closed
//! against the server's `RepairPlanner`. Asserts the contract:
//!
//! * every requested page finalizes — degraded is allowed, hung is not,
//! * the reassembler never exceeds its byte budget,
//! * per-page repair stays within the retry budget,
//! * an identical seed replays to an identical outcome.
//!
//! The run is the default 2 h day; `cargo run --release --example
//! chaos_soak` runs the full 24 h.

use sonic_core::server::repair::MAX_ATTEMPTS_PER_PAGE;
use sonic_sim::chaos::{run_chaos_soak, ChaosSoakConfig, REASSEMBLER};

#[test]
fn hostile_broadcast_day_converges_deterministically() {
    let cfg = ChaosSoakConfig::default();
    let report = run_chaos_soak(&cfg);

    // The weather actually bit: frames died in mute windows and the loss
    // map saw corrupted frames, so the repair loop was truly exercised.
    assert!(report.frames_lost > 0, "{report:?}");
    assert!(report.frames_corrupted > 0, "{report:?}");

    // Every requested page finalized — degraded allowed, never hung.
    assert_eq!(report.pages_hung, 0, "{report:?}");
    assert_eq!(
        report.urls_received, report.urls_requested,
        "every wanted URL must land in the cache: {report:?}"
    );

    // Bounded recovery: memory and repair budgets both held.
    assert!(
        report.peak_reassembler_bytes <= REASSEMBLER.max_bytes,
        "{report:?}"
    );
    assert!(
        report.max_repair_attempts <= MAX_ATTEMPTS_PER_PAGE,
        "{report:?}"
    );

    // Identical seed ⇒ identical outcome.
    assert_eq!(report, run_chaos_soak(&cfg), "soak must replay exactly");
}

/// The whole report of the default (2 h) hostile day, pinned as an FNV-64
/// of its `Debug` text: a change that only moves knobs into constants must
/// leave every counter where it was.
#[test]
fn hostile_day_report_is_pinned() {
    let report = format!("{:?}", run_chaos_soak(&ChaosSoakConfig::default()));
    assert_eq!(
        sonic::image::hash::fnv1a64(report.as_bytes()),
        0xcbf6_61eb_b9c8_10d5,
        "the hostile day moved: {report}"
    );
}
