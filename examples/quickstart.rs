//! Quickstart: one webpage, end to end, over a perfect audio path.
//!
//! Renders a synthetic webpage, strip-encodes it into SONIC's 100-byte
//! frames, modulates them with the 10 kbps OFDM profile, "plays" the audio
//! over a cable connection, and reassembles the page on the client.
//!
//! Run with: `cargo run --release --example quickstart`

use sonic::core::link;
use sonic::core::page::SimplifiedPage;
use sonic::core::SonicClient;
use sonic::modem::profile::Profile;
use sonic::pagegen::{Corpus, PageId};

fn main() {
    let profile = Profile::sonic_10k();
    println!("SONIC quickstart — profile {}, {:.1} kbps raw", profile.name, profile.raw_rate_bps() / 1000.0);

    // 1. The server side: render a page from the corpus at a small scale so
    //    the example runs in seconds (full pages are 1080 px wide).
    let corpus = Corpus::standard();
    let rendered = corpus.render(PageId { site: 0, page: 0 }, 9, 0.08);
    println!(
        "rendered {} ({}x{} px, {} click regions)",
        rendered.url,
        rendered.raster.width(),
        rendered.raster.height(),
        rendered.clickmap.regions.len()
    );
    let page = SimplifiedPage::from_raster(&rendered.url, &rendered.raster, rendered.clickmap, 9, 24);
    let frames = sonic::core::chunker::page_to_frames(&page);
    println!(
        "strip-coded to {} bytes -> {} link frames of 100 B",
        page.broadcast_bytes(),
        frames.len()
    );

    // 2. Modulate onto the 9.2 kHz audio carrier.
    let audio = link::modulate(&profile, &frames);
    println!(
        "modulated into {:.1} s of audio at {} Hz",
        audio.len() as f64 / profile.sample_rate,
        profile.sample_rate
    );

    // 3. The client side: demodulate (cable = lossless audio) and rebuild.
    let (received, stats) = link::demodulate(&profile, &audio);
    println!(
        "demodulated {} bursts, {} frames ok, {} failed bursts",
        stats.bursts_detected, stats.frames_ok, stats.bursts_failed
    );

    let mut client = SonicClient::new(720, None);
    for f in received {
        client.receive_frame_at(f, 9.0 * 3600.0);
    }
    let page_id = client.pending_pages()[0];
    let report = client.finalize_page(page_id, 9).expect("page complete");
    println!(
        "client reassembled {} — pixel loss {:.2}%, frame loss {:.2}%",
        report.url,
        report.pixel_loss * 100.0,
        report.frame_loss * 100.0
    );
    println!("catalog: {:?}", client.catalog(9));
    assert!(report.pixel_loss < 1e-9, "cable must deliver losslessly");
    println!("OK");
}
