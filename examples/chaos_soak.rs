//! Chaos soak runner: a hostile broadcast day end to end.
//!
//! ```text
//! cargo run --release --example chaos_soak            # full 24 h day
//! cargo run --release --example chaos_soak -- --smoke # 1 h CI smoke
//! ```

use sonic_sim::chaos::{run_chaos_soak, ChaosSoakConfig, RATE_BPS};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = ChaosSoakConfig {
        hours: if smoke { 1 } else { 24 },
        ..ChaosSoakConfig::default()
    };
    println!(
        "chaos soak: {} h, seed {:#x}, {} bps",
        cfg.hours, cfg.seed, RATE_BPS
    );
    let report = run_chaos_soak(&cfg);
    println!(
        "air       : {} frames sent — {} delivered / {} corrupted / {} lost",
        report.frames_sent, report.frames_delivered, report.frames_corrupted, report.frames_lost
    );
    println!(
        "sms       : {} GET, {} NACK sent; {} ACK, {} ERR received",
        report.requests_sent, report.nacks_sent, report.acks_received, report.errs_received
    );
    println!(
        "pages     : {} clean, {} degraded, {} failed, {} hung ({} of {} URLs landed)",
        report.pages_clean,
        report.pages_degraded,
        report.pages_failed,
        report.pages_hung,
        report.urls_received,
        report.urls_requested
    );
    println!(
        "repair    : {} bursts / {} frames, max {} attempts on one page",
        report.repair_bursts, report.repair_frames, report.max_repair_attempts
    );
    println!(
        "memory    : peak {} B buffered, {} assemblies evicted",
        report.peak_reassembler_bytes, report.evicted_pages
    );
    assert_eq!(report.pages_hung, 0, "no reception may hang");
    assert_eq!(
        report.urls_received, report.urls_requested,
        "every requested page must finalize"
    );
    println!("OK: every requested page finalized, nothing hung");
}
