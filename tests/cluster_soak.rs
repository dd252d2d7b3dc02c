//! Distributed chaos soak acceptance (fault-tolerant cluster tentpole).
//!
//! Drives 50 transmitter sites behind a coordinator over fault-injected
//! links ([`sonic_core::net`]) through a broadcast day: seeded site
//! kill/restart cycles, severed-link windows, and a gateway flood hour.
//! Asserts the contract:
//!
//! * no hung pages — every site backlog drains once the day ends,
//! * every queue stays within its bound (ingress, RPC send, site backlog),
//! * killed sites are detected Down, restart from the shared disk tier,
//!   and receive a carousel `Resume`,
//! * the flood is shed at the ingress bound instead of growing memory,
//! * the report is byte-identical across reruns with the same seed at
//!   any worker count.
//!
//! The run is the default 2 h day; `cargo run --release --example
//! cluster_day` runs the full 24 h.

use sonic_core::net::rpc::MAX_QUEUED;
use sonic_core::server::cluster::{INGRESS_CAPACITY, MAX_BACKLOG_PAGES};
use sonic_sim::cluster::{run_cluster_soak, ClusterSoakConfig};

#[test]
fn cluster_day_survives_kills_floods_and_severed_links() {
    let mut cfg = ClusterSoakConfig {
        workers: 1,
        ..ClusterSoakConfig::default()
    };
    cfg.store_dir = Some(std::env::temp_dir().join(format!(
        "sonic-cluster-accept-w1-{}",
        std::process::id()
    )));
    let report = run_cluster_soak(&cfg);

    // The cluster actually broadcast, and the listener stage folded every
    // aired frame.
    assert!(report.frames_aired > 0, "{report:?}");
    assert_eq!(report.frames_heard, report.frames_aired, "{report:?}");
    assert!(report.distinct_pages_heard > 0, "{report:?}");

    // The chaos actually bit: sites died, were detected, and came back.
    assert!(report.kills >= 1, "{report:?}");
    assert_eq!(report.restarts, report.kills, "{report:?}");
    assert!(report.downs >= 1, "silence must trip health checks: {report:?}");
    assert!(report.recoveries >= 1, "{report:?}");
    assert!(report.resumes >= 1, "recovery must trigger Resume: {report:?}");
    assert!(
        report.resumed_jobs >= 1,
        "restarted sites must reload carousel jobs from the disk tier: {report:?}"
    );
    assert!(report.rpc_retries > 0, "deadlines must fire and retry: {report:?}");

    // The flood exceeded the gateway and was shed at the bound.
    assert!(report.sms_shed > 0, "{report:?}");
    assert!(
        report.peak_ingress_depth <= INGRESS_CAPACITY as u64,
        "{report:?}"
    );

    // Bounded queues everywhere.
    assert!(report.peak_rpc_queued <= MAX_QUEUED as u64, "{report:?}");
    assert!(report.peak_site_backlog_pages <= MAX_BACKLOG_PAGES as u64, "{report:?}");

    // No hung pages: every surviving backlog drained.
    assert_eq!(report.hung_pages, 0, "{report:?}");

    // Identical seed ⇒ identical report, at any worker count.
    let mut four = cfg.clone();
    four.workers = 4;
    four.store_dir = Some(std::env::temp_dir().join(format!(
        "sonic-cluster-accept-w4-{}",
        std::process::id()
    )));
    assert_eq!(report, run_cluster_soak(&four), "soak must replay exactly");
}
