//! Cross-crate integration: the full SONIC pipeline, server to client,
//! over physical channel models.

use sonic::core::client::browser::ClickOutcome;
use sonic::core::link;
use sonic::core::server::render::Renderer;
use sonic::core::{SonicClient, SonicServer};
use sonic::modem::profile::Profile;
use sonic::modem::ofdm::demodulator::GROUP_DELAY;
use sonic::modem::{demodulate_frames, modulate_frame};
use sonic::radio::stack::FmLink;
use sonic::pagegen::{Corpus, PageId};
use sonic::radio::channel::AcousticChannel;
use sonic::sms::geo::Coverage;
use sonic::sms::{gateway, GeoPoint};

/// Renders a small page, broadcasts it over a cable path and checks the
/// client sees a pixel-perfect (up to strip quantization) page.
#[test]
fn cable_end_to_end_is_lossless() {
    let profile = Profile::sonic_10k();
    let corpus = Corpus::small(2);
    let renderer = Renderer::new(corpus, 0.05);
    let mut server = SonicServer::new(renderer, Coverage::pakistan_demo(), 10_000.0);

    let url = server
        .renderer()
        .corpus()
        .layout(PageId { site: 1, page: 1 }, 3)
        .url;
    let page = server.get_page(&url, 3).expect("render");
    let frames = sonic::core::chunker::page_to_frames(&page);
    let audio = link::modulate(&profile, &frames);
    let (rx, stats) = link::demodulate(&profile, &audio);
    assert_eq!(stats.bursts_failed, 0);
    assert_eq!(rx.len(), frames.len());

    let mut client = SonicClient::new(720, None);
    for f in rx {
        client.receive_frame_at(f, 3.0 * 3600.0);
    }
    let report = client.finalize_page(page.page_id, 3).expect("complete");
    assert_eq!(report.url, url);
    assert!(report.pixel_loss < 1e-12);
}

/// SMS request → ACK → broadcast via the scheduler → client cache →
/// click resolution, all through public APIs.
#[test]
fn sms_request_to_click_roundtrip() {
    let profile = Profile::sonic_10k();
    let corpus = Corpus::small(3);
    let renderer = Renderer::new(corpus, 0.05);
    let mut server = SonicServer::new(renderer, Coverage::pakistan_demo(), 20_000.0);
    let lahore = GeoPoint::new(31.52, 74.35);
    let mut client = SonicClient::new(720, Some(lahore));

    let url = server
        .renderer()
        .corpus()
        .layout(PageId { site: 0, page: 0 }, 9)
        .url;
    let request = client.compose_request(&url).expect("uplink");
    let reply = server.handle_sms(&request, 9.0 * 3600.0);
    let ack = gateway::parse_ack(&reply).expect("ack reply");
    assert_eq!(ack.url, url);

    // Drain the Lahore scheduler fully and deliver over cable.
    let sched = server.schedulers.get_mut(&1).expect("lahore");
    let mut frames = Vec::new();
    while sched.backlog_bytes() > 0 {
        frames.extend(sched.advance(5.0));
    }
    let audio = link::modulate(&profile, &frames);
    let (rx, _) = link::demodulate(&profile, &audio);
    for f in rx {
        client.receive_frame_at(f, 9.0 * 3600.0);
    }
    for id in client.pending_pages() {
        client.finalize_page(id, 9).expect("complete");
    }
    assert_eq!(client.catalog(9), vec![url.clone()]);

    // A click on any region either hits cache or asks for an SMS.
    let cached = client.cache.get(&url, 9).expect("cached");
    let r = cached.clickmap.regions.first().expect("clickable page");
    let dx = ((r.x + r.w / 2) as f64 * 2.0 / 3.0) as u16;
    let dy = ((r.y + r.h / 2) as f64 * 2.0 / 3.0) as u16;
    match client.click(&url, dx, dy, 9) {
        ClickOutcome::SendRequest(sms) => assert!(gateway::parse_request(&sms).is_some()),
        ClickOutcome::CachedHit(_) | ClickOutcome::NotInteractive => {}
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// A noisy over-the-air hop: losses appear, interpolation repairs, and the
/// loss statistics stay consistent.
#[test]
fn acoustic_hop_losses_are_repaired() {
    let profile = Profile::sonic_10k();
    let corpus = Corpus::small(2);
    let rendered = corpus.render(PageId { site: 0, page: 1 }, 9, 0.05);
    let page = sonic::core::page::SimplifiedPage::from_raster(
        &rendered.url,
        &rendered.raster,
        rendered.clickmap,
        9,
        12,
    );
    let frames = sonic::core::chunker::page_to_frames(&page);
    let audio = link::modulate(&profile, &frames);
    // Choose a seed where the mid-range hop loses some but not all bursts.
    let rx_audio = AcousticChannel::new(0.8, 11).transmit(&audio);
    let (rx, _) = link::demodulate(&profile, &rx_audio);

    let mut client = SonicClient::new(720, None);
    let got = rx.len();
    for f in rx {
        client.receive_frame_at(f, 9.0 * 3600.0);
    }
    if got == 0 {
        return; // deep fade: nothing to assert beyond "no panic"
    }
    match client.finalize_page(page.page_id, 9) {
        Ok(report) => {
            assert!((0.0..=1.0).contains(&report.pixel_loss));
            let cached = client.cache.get(&rendered.url, 9).expect("stored");
            assert_eq!(cached.raster.width(), rendered.raster.width());
            assert_eq!(cached.raster.height(), rendered.raster.height());
        }
        Err(_) => {
            // Metadata lost entirely — acceptable outcome of a bad channel.
        }
    }
}

/// The same audio can carry frames for two different pages back-to-back.
#[test]
fn interleaved_pages_share_the_air() {
    let profile = Profile::audible_7k();
    let corpus = Corpus::small(2);
    let mk = |site: usize, page: usize| {
        let r = corpus.render(PageId { site, page }, 0, 0.03);
        sonic::core::page::SimplifiedPage::from_raster(&r.url, &r.raster, r.clickmap, 0, 12)
    };
    let a = mk(0, 0);
    let b = mk(1, 0);
    let mut frames = sonic::core::chunker::page_to_frames(&a);
    frames.extend(sonic::core::chunker::page_to_frames(&b));
    let audio = link::modulate(&profile, &frames);
    let (rx, _) = link::demodulate(&profile, &audio);
    let mut client = SonicClient::new(1080, None);
    for f in rx {
        client.receive_frame_at(f, 0.0);
    }
    let mut pending = client.pending_pages();
    pending.sort_unstable();
    assert_eq!(pending.len(), 2);
    for id in pending {
        let report = client.finalize_page(id, 0).expect("complete");
        assert!(report.pixel_loss < 1e-12, "{}", report.url);
    }
    assert_eq!(client.catalog(0).len(), 2);
}

/// The receiver keeps every 4th audio sample: a burst decodes whichever of
/// them its symbols fall between, straight off the cable and through the FM
/// link, and its start is placed within one kept sample.
#[test]
fn a_burst_decodes_at_every_lead_between_kept_samples() {
    let profile = Profile::sonic_10k();
    let payload: Vec<u8> = (0..300).map(|k| (k * 37 + k / 7) as u8).collect();
    let burst = modulate_frame(&profile, &payload);
    for lead in 0..8 {
        let mut cable = vec![0.0f32; lead];
        cable.extend(&burst);
        let fm = FmLink::new(-70.0, 7).transmit(&cable, None).mono;
        for (path, heard) in [("cable", &cable), ("FM at -70 dB", &fm)] {
            let got = demodulate_frames(&profile, heard);
            assert_eq!(got.len(), 1, "{path}, lead {lead}");
            assert_eq!(got[0].payload.as_ref().ok(), Some(&payload), "{path}, lead {lead}");
        }
        let start = demodulate_frames(&profile, &cable)[0].start_sample;
        let want = lead + profile.cp_len + GROUP_DELAY;
        assert!(start.abs_diff(want) <= 4, "lead {lead}: start {start}, want {want}");
    }
}
