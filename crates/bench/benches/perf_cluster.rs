//! Performance acceptance bench for the multi-site cluster PR.
//!
//! Measures **control-plane overhead**: the same simulated broadcast day —
//! hourly carousel refresh through the shared artifact store, `PushStored`
//! plus a health `Ping` to every transmitter site, sites loading from the
//! disk tier and airing the hour — run two ways:
//!
//! 1. **direct** — the coordinator-side loop calls `SiteNode::handle`
//!    in-process, no wire.
//! 2. **transport** — every request crosses the framed `[len][crc]` wire
//!    through a per-site `RpcClient` and a clean (fault-free) `SimLink`
//!    pipe pair, with deadlines, windows and response folding live.
//!
//! Both modes do identical render/store/schedule/air work from a cold
//! store, so the elapsed-time ratio isolates what the framing, CRC,
//! marshalling and RPC bookkeeping cost. Acceptance (full mode): the
//! transported day finishes within **15%** of the direct day, and both
//! modes ack every RPC identically.
//!
//! `--smoke` scales down (10 sites × 2 h), still asserts ack parity, and
//! reports the overhead without enforcing the gate — CI uses it to prove
//! the harness runs. Results go to `BENCH_cluster.json` either way.

use sonic_core::net::proto::{Request, Response};
use sonic_core::net::rpc::{JobClass, RpcClient, RpcPolicy};
use sonic_core::net::transport::{LinkFaultPlan, SimLink};
use sonic_core::server::cache::{share_store, ArtifactCache, TieredCache};
use sonic_core::server::cluster::{SiteConfig, SiteNode};
use sonic_core::server::pipeline::{self, PageJob};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_pagegen::{Corpus, PageId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Transported day may cost at most this fraction over the direct day.
const GATE_OVERHEAD_FRAC: f64 = 0.15;

/// Timed repetitions per mode; the minimum elapsed is scored (the usual
/// wall-clock denoising for a ratio gate).
const REPS: usize = 3;

/// One day's parameters.
#[derive(Clone, Copy)]
struct DayConfig {
    sites: usize,
    hours: u64,
    top_n: usize,
}

/// What one run produced (ack parity is asserted across modes).
#[derive(Default, PartialEq, Eq, Debug)]
struct DayOutcome {
    done: u64,
    pongs: u64,
    refused: u64,
    frames_aired: u64,
}

fn count(outcome: &mut DayOutcome, resp: &Response) {
    match resp {
        Response::Done { .. } => outcome.done += 1,
        Response::Pong { .. } => outcome.pongs += 1,
        Response::Refused { .. } => outcome.refused += 1,
    }
}

/// Runs one simulated broadcast day from a cold store in `dir`.
fn run_day(cfg: DayConfig, dir: &std::path::Path, transport: bool) -> DayOutcome {
    let store = share_store(ArtifactStore::open(dir, 256 << 20).expect("open store"));
    let renderer = Renderer::new(Corpus::small(cfg.top_n), 0.1);
    let mut tiered = TieredCache::with_store(ArtifactCache::new(64 << 20), store.clone());
    let mut sites: BTreeMap<u32, SiteNode> = (0..cfg.sites as u32)
        .map(|id| {
            let sc = SiteConfig {
                site_id: id,
                ..SiteConfig::default()
            };
            (id, SiteNode::new(sc, Some(store.clone())))
        })
        .collect();
    let mut clients: BTreeMap<u32, RpcClient> = (0..cfg.sites as u32)
        .map(|id| (id, RpcClient::new(RpcPolicy::default())))
        .collect();
    let mut links: BTreeMap<u32, SimLink> = (0..cfg.sites as u32)
        .map(|id| {
            let plan = LinkFaultPlan::clean(0xC1_05_7E_99 ^ u64::from(id));
            (id, SimLink::symmetric(plan))
        })
        .collect();

    let mut outcome = DayOutcome::default();
    for h in 0..cfg.hours {
        let hour_start = h as f64 * 3600.0;
        // The hour's carousel: refresh through the tiered cache so the
        // artifacts land in the shared store every site loads from.
        let jobs: Vec<PageJob> = (0..cfg.top_n)
            .map(|s| PageJob {
                id: PageId { site: s, page: 0 },
                hour: h,
            })
            .collect();
        pipeline::refresh_frames_only(&renderer, &mut tiered, &jobs);

        // Push the carousel + one health ping to every site.
        for id in 0..cfg.sites as u32 {
            let reqs = jobs
                .iter()
                .map(|j| Request::PushStored {
                    corpus_site: j.id.site as u32,
                    corpus_page: j.id.page as u32,
                    hour: h,
                })
                .chain(std::iter::once(Request::Ping));
            if transport {
                let client = clients.get_mut(&id).unwrap();
                for req in reqs {
                    let class = if matches!(req, Request::Ping) {
                        JobClass::Control
                    } else {
                        JobClass::Page
                    };
                    assert!(client.submit(class, req), "clean-link submit shed");
                }
            } else {
                let site = sites.get_mut(&id).unwrap();
                for req in reqs {
                    count(&mut outcome, &site.handle(req, hour_start));
                }
            }
        }

        // Transported mode: tick clients and service sites on a fine
        // cadence until every flight folds (clean links: a few rounds).
        if transport {
            let mut now = hour_start;
            let mut steps = 0u32;
            while clients.values().any(|c| c.has_pending(|_| true)) {
                for (id, client) in clients.iter_mut() {
                    let link = links.get_mut(id).unwrap();
                    for (_, resp) in client.tick(now, &mut link.a_to_b, &mut link.b_to_a) {
                        count(&mut outcome, &resp);
                    }
                }
                for (id, site) in sites.iter_mut() {
                    site.service(now, links.get_mut(id).unwrap());
                }
                now += 0.05;
                steps += 1;
                assert!(steps < 10_000, "clean-link RPCs failed to converge");
            }
        }

        // Air the hour everywhere.
        for site in sites.values_mut() {
            outcome.frames_aired += site.advance(3600.0).len() as u64;
        }
    }
    outcome
}

/// Best-of-`REPS` elapsed seconds for one mode (each rep on a cold store).
fn time_mode(cfg: DayConfig, transport: bool, label: &str) -> (f64, DayOutcome) {
    let mut best = f64::INFINITY;
    let mut outcome = DayOutcome::default();
    for rep in 0..REPS {
        let dir = std::env::temp_dir().join(format!(
            "sonic-perf-cluster-{}-{label}-{rep}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store dir");
        let t0 = Instant::now();
        outcome = run_day(cfg, &dir, transport);
        let elapsed = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        best = best.min(elapsed);
    }
    (best, outcome)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        DayConfig {
            sites: 10,
            hours: 2,
            top_n: 2,
        }
    } else {
        DayConfig {
            sites: 50,
            hours: 8,
            top_n: 4,
        }
    };
    let mut all_pass = true;

    let (direct_s, direct) = time_mode(cfg, false, "direct");
    let (wire_s, wire) = time_mode(cfg, true, "wire");

    // Ack parity: the wire must change nothing about what the fleet did.
    let parity_ok = direct == wire;
    all_pass &= parity_ok;
    println!(
        "parity         direct {:?} vs transport {:?}  [{}]",
        direct,
        wire,
        if parity_ok { "PASS" } else { "FAIL" },
    );

    let rpcs = direct.done + direct.pongs + direct.refused;
    let overhead = (wire_s - direct_s) / direct_s;
    let gate_enforced = !smoke;
    let gate_ok = !gate_enforced || overhead <= GATE_OVERHEAD_FRAC;
    all_pass &= gate_ok;
    println!(
        "overhead       {} sites x {} h, {} RPCs/day: direct {:.3} s, transport {:.3} s = {:+.1}% (gate <= {:.0}%)  [{}]",
        cfg.sites,
        cfg.hours,
        rpcs,
        direct_s,
        wire_s,
        overhead * 100.0,
        GATE_OVERHEAD_FRAC * 100.0,
        if !gate_enforced {
            "info"
        } else if gate_ok {
            "PASS"
        } else {
            "FAIL"
        },
    );

    let gate_json = if gate_enforced {
        format!("{GATE_OVERHEAD_FRAC:.2}")
    } else {
        "null".to_string()
    };
    let json = format!(
        "{{\n  \"bench\": \"perf_cluster\",\n  \"smoke\": {smoke},\n  \
         \"gate_enforced\": {gate_enforced},\n  \"results\": {{\n    \
         \"sites\": {},\n    \"hours\": {},\n    \"carousel_top_n\": {},\n    \
         \"rpcs_per_day\": {rpcs},\n    \"frames_aired\": {},\n    \
         \"direct_elapsed_s\": {direct_s:.3},\n    \
         \"transport_elapsed_s\": {wire_s:.3},\n    \
         \"overhead_frac\": {overhead:.4},\n    \
         \"gate_overhead_frac\": {gate_json},\n    \
         \"ack_parity\": {parity_ok}\n  }},\n  \"pass\": {all_pass}\n}}\n",
        cfg.sites, cfg.hours, cfg.top_n, direct.frames_aired,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_cluster.json");
    match std::fs::write(&out, json) {
        Ok(()) => println!("\nresults written to {}", out.display()),
        Err(e) => println!("\ncould not write {}: {e}", out.display()),
    }

    if !all_pass {
        println!("perf_cluster: some acceptance checks FAILED");
        std::process::exit(1);
    }
    println!("perf_cluster: all acceptance checks PASS");
}
