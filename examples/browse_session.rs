//! A full SONIC browsing session (Figure 3 of the paper).
//!
//! User-C requests cnn-equivalent news via SMS (1); the SONIC server renders
//! it (2), schedules it on the Lahore transmitter (3), broadcasts it over
//! sound (4); user-C — and user-B, a downlink-only listener — receive it (5).
//! User-C then taps a hyperlink: cached pages load instantly, uncached ones
//! trigger a new SMS request.
//!
//! Run with: `cargo run --release --example browse_session`

use sonic::core::client::browser::ClickOutcome;
use sonic::core::frame::Frame;
use sonic::core::link;
use sonic::core::server::render::Renderer;
use sonic::core::{SonicClient, SonicServer};
use sonic::modem::profile::Profile;
use sonic::pagegen::{Corpus, PageId};
use sonic::sms::geo::Coverage;
use sonic::sms::{gateway, Delivery, GeoPoint, SmsNetwork};

fn main() {
    let profile = Profile::sonic_10k();
    let corpus = Corpus::standard();
    let landing_url = corpus.layout(PageId { site: 0, page: 0 }, 9).url;
    println!("== SONIC browse session ==");

    // Server with four transmitters (the paper's Pakistan scenario).
    let renderer = Renderer::new(corpus, 0.08);
    let mut server = SonicServer::new(renderer, Coverage::pakistan_demo(), 10_000.0);

    // User-C: smartphone + jack cable + paid SMS, in Lahore.
    let lahore = GeoPoint::new(31.52, 74.35);
    let mut user_c = SonicClient::new(720, Some(lahore));
    // User-B: integrated FM tuner, no SMS.
    let mut user_b = SonicClient::new(720, None);

    // (1) user-C requests the page via SMS.
    let mut sms = SmsNetwork::typical(7);
    let request = user_c.compose_request(&landing_url).expect("uplink user");
    println!("user-C -> SMS: {request}");
    let now = 9.0 * 3600.0;
    let arrival = match sms.send(&request, now).expect("gsm7") {
        Delivery::Delivered { at, segments } => {
            println!("carrier delivered in {:.1} s ({segments} segment)", at - now);
            at
        }
        Delivery::Lost => {
            println!("carrier lost the SMS; retrying once");
            now + 30.0
        }
    };

    // (2)(3) server renders and schedules; replies with an ACK.
    let reply = server.handle_sms(&request, arrival);
    println!("server -> SMS: {reply}");
    let ack = gateway::parse_ack(&reply).expect("ack");
    println!("user-C tunes to {:.1} MHz, page ETA {} s", ack.freq_mhz, ack.eta_s);

    // (4) the Lahore transmitter drains its queue into link frames, which we
    // modulate into audio and play over both users' paths.
    let lahore_sched = server
        .schedulers
        .get_mut(&1)
        .expect("Lahore transmitter id 1");
    let mut frames = Vec::new();
    while lahore_sched.backlog_bytes() > 0 {
        frames.extend(lahore_sched.advance(10.0));
    }
    println!("broadcasting {} frames", frames.len());
    let audio = link::modulate(&profile, &frames);
    println!("{:.1} s of air time", audio.len() as f64 / profile.sample_rate);

    // (5) both clients hear the same broadcast (cable-quality here), one
    // capture callback of the tuner's audio at a time; every frame comes
    // out as its burst completes, stamped with when that burst went on air.
    let on_air_at = arrival;
    let mut tuner = link::Receiver::new(&profile);
    let mut last_heard = on_air_at;
    let mut deliver = |frame: Frame, at_s: f64| {
        last_heard = on_air_at + at_s;
        user_c.receive_frame_at(frame.clone(), last_heard);
        user_b.receive_frame_at(frame, last_heard);
    };
    for callback in audio.chunks(4096) {
        tuner.push(callback, &mut deliver);
    }
    tuner.flush(&mut deliver);
    let stats = tuner.stats();
    println!(
        "tuner output: {} bursts, {} frames recovered, the last burst {:.1} s into the broadcast",
        stats.bursts_detected,
        stats.frames_ok,
        last_heard - on_air_at
    );
    let hour = (arrival / 3600.0) as u64;
    for (name, client) in [("user-C", &mut user_c), ("user-B", &mut user_b)] {
        for page_id in client.pending_pages() {
            let report = client.finalize_page(page_id, hour).expect("complete");
            println!(
                "{name} received {} (pixel loss {:.2}%)",
                report.url,
                report.pixel_loss * 100.0
            );
        }
    }

    // User-C taps the hero region (a hyperlink to an internal page).
    let cached = user_c.cache.get(&landing_url, hour).expect("cached");
    let hero = cached
        .clickmap
        .regions
        .iter()
        .find(|r| r.y > 100)
        .expect("hero link");
    let (dx, dy) = (
        ((hero.x + hero.w / 2) as f64 * 720.0 / 1080.0) as u16,
        ((hero.y + hero.h / 2) as f64 * 720.0 / 1080.0) as u16,
    );
    match user_c.click(&landing_url, dx, dy, hour) {
        ClickOutcome::SendRequest(next_sms) => {
            println!("user-C taps a story -> not cached -> SMS: {next_sms}");
        }
        ClickOutcome::CachedHit(url) => println!("user-C taps a story -> cached hit: {url}"),
        other => println!("user-C taps a story -> {other:?}"),
    }

    // User-B cannot request anything — downlink only.
    match user_b.click(&landing_url, dx, dy, hour) {
        ClickOutcome::UnavailableOffline(url) => {
            println!("user-B taps the same story -> offline, must wait for {url} to be broadcast");
        }
        other => println!("user-B -> {other:?}"),
    }
    println!("OK");
}
