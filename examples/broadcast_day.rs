//! A day in the life of a SONIC transmitter: 24 hours of hourly content
//! churn, popularity pushes, and SMS-driven requests. Every event is known
//! up front, so the simulator is the event list sorted by time. Prints the
//! hourly backlog and request statistics.
//!
//! The popularity push runs through the content-addressed broadcast
//! artifact cache: the first push of the day builds every page cold
//! (render → strip encode → chunk → OFDM), the next hour's push reuses
//! unchanged pages verbatim and strip-delta rebuilds the changed ones —
//! both pushes are timed so the cache win is visible from the quickstart.
//!
//! Run with: `cargo run --release --example broadcast_day`

use sonic::core::server::render::Renderer;
use sonic::core::SonicServer;
use sonic::pagegen::Corpus;
use sonic::sim::workload::{generate, PageRequest};
use sonic::sms::gateway;
use sonic::sms::geo::Coverage;
use sonic::sms::{Delivery, SmsNetwork};

#[derive(Debug)]
enum Ev {
    /// A user's SMS request arrives at the gateway.
    Request(PageRequest),
    /// Hourly tick: popularity push + stats snapshot.
    HourTick(u64),
}

fn main() {
    let corpus = Corpus::standard();
    let cities = vec![
        sonic::sms::GeoPoint::new(31.52, 74.35),
        sonic::sms::GeoPoint::new(24.86, 67.00),
        sonic::sms::GeoPoint::new(33.68, 73.05),
    ];
    let requests = generate(&corpus, 24, 12.0, &cities, 0xDA7);
    println!(
        "== broadcast day: {} SMS requests over 24 h, 3 cities, 4 transmitters ==",
        requests.len()
    );

    let renderer = Renderer::new(corpus, 0.05);
    let mut server = SonicServer::new(renderer, Coverage::pakistan_demo(), 10_000.0);
    let mut sms = SmsNetwork::typical(1);
    let mut events: Vec<(f64, Ev)> = requests.into_iter().map(|r| (r.at_s, Ev::Request(r))).collect();
    events.extend((0..24u64).map(|h| (h as f64 * 3600.0 + 1.0, Ev::HourTick(h))));
    // Stable: events at the same instant fire in the order listed above.
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut acked = 0usize;
    let mut errors = 0usize;
    let mut lost = 0usize;
    let mut last_drain = 0.0f64;
    for (now, ev) in events {
        // Drain all transmitters for the elapsed wall time.
        let dt = now - last_drain;
        last_drain = now;
        for sched in server.schedulers.values_mut() {
            let _ = sched.advance(dt);
        }
        match ev {
            Ev::Request(r) => {
                let hour = (r.at_s / 3600.0) as u64;
                let url = server
                    .renderer()
                    .corpus()
                    .layout(r.page, hour)
                    .url;
                let msg = gateway::format_request(&url, &r.location);
                match sms.send(&msg, r.at_s).expect("gsm7") {
                    Delivery::Lost => lost += 1,
                    Delivery::Delivered { at, .. } => {
                        let reply = server.handle_sms(&msg, at);
                        if reply.starts_with("ACK") {
                            acked += 1;
                        } else {
                            errors += 1;
                        }
                    }
                }
            }
            Ev::HourTick(h) => {
                // Morning push of the most popular landing pages (§3.1),
                // repeated the following hour: the artifact cache serves
                // unchanged pages verbatim and delta-rebuilds the rest.
                if h == 6 || h == 7 {
                    let before = server.artifact_cache().stats;
                    let t = std::time::Instant::now();
                    server.push_popular(h, 5, now);
                    let elapsed = t.elapsed().as_secs_f64();
                    let s = server.artifact_cache().stats;
                    println!(
                        "hour {h:>2}: popularity push (top 5) {} in {:.3} s — {} cold / {} delta / {} reused verbatim",
                        if h == 6 { "built cold" } else { "warm via artifact cache" },
                        elapsed,
                        s.misses - before.misses,
                        s.delta_hits - before.delta_hits,
                        s.full_hits - before.full_hits,
                    );
                }
                let backlog_mb: f64 = server
                    .schedulers
                    .values()
                    .map(|s| s.backlog_bytes() as f64)
                    .sum::<f64>()
                    / 1e6;
                let sent_mb: f64 = server
                    .schedulers
                    .values()
                    .map(|s| s.transmitted_bytes as f64)
                    .sum::<f64>()
                    / 1e6;
                println!(
                    "hour {h:>2}: backlog {backlog_mb:>6.2} MB | transmitted {sent_mb:>6.2} MB | acks {acked} | errs {errors} | sms lost {lost}"
                );
            }
        }
    }
    println!("== done: {acked} pages acknowledged, {errors} gateway errors, {lost} SMS lost ==");
}
