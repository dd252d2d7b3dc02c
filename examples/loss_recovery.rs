//! Figure 1, live: a page transmitted over ~1 m of air, with real losses,
//! repaired by nearest-neighbor interpolation. Writes three PPM images
//! (received-with-holes, blacked-out, interpolated) under `target/`.
//!
//! Run with: `cargo run --release --example loss_recovery`

use sonic::core::link;
use sonic::core::page::SimplifiedPage;
use sonic::core::SonicClient;
use sonic::image::interpolate::recover;
use sonic::image::metrics::{edge_integrity, psnr};
use sonic::image::pgm::save_ppm;
use sonic::modem::profile::Profile;
use sonic::pagegen::{Corpus, PageId};
use sonic::radio::channel::AcousticChannel;
use std::path::Path;

fn main() {
    let profile = Profile::sonic_10k();
    let corpus = Corpus::standard();
    let rendered = corpus.render(PageId { site: 1, page: 0 }, 9, 0.06);
    println!(
        "page {} at {}x{}",
        rendered.url,
        rendered.raster.width(),
        rendered.raster.height()
    );
    let page = SimplifiedPage::from_raster(
        &rendered.url,
        &rendered.raster,
        rendered.clickmap,
        9,
        24,
    );
    let frames = sonic::core::chunker::page_to_frames(&page);
    println!("{} frames to transmit", frames.len());

    // Transmit over ~1 m of air; losses are expected.
    let audio = link::modulate(&profile, &frames);
    let distance = 0.9;
    let received_audio = AcousticChannel::new(distance, 0xF1).transmit(&audio);
    // The phone hears it a capture callback at a time; each frame reaches
    // the client stamped with when its burst went on air.
    let mut client = SonicClient::new(720, None);
    let mut microphone = link::Receiver::new(&profile);
    let mut deliver = |frame, at_s| client.receive_frame_at(frame, at_s);
    for callback in received_audio.chunks(4096) {
        microphone.push(callback, &mut deliver);
    }
    microphone.flush(&mut deliver);
    let stats = microphone.stats();
    println!(
        "over {distance} m: {} of {} frames recovered ({} bursts failed)",
        stats.frames_ok,
        frames.len(),
        stats.bursts_failed
    );
    let assembly = client.reassembler().assembly(page.page_id);
    if let Some(assembly) = assembly {
        println!(
            "first frame heard {:.1} s into the broadcast, last {:.1} s",
            assembly.first_seen_at(),
            assembly.last_seen_at()
        );
    }

    match assembly.map(|a| a.finalize()) {
        Some(Ok(received)) => {
            let repaired = recover(&received.raster, &received.mask);
            println!(
                "pixel loss {:.1}% -> after interpolation: PSNR {:.1} dB, edges {:.3}",
                received.mask.loss_rate() * 100.0,
                psnr(&rendered.raster, &repaired),
                edge_integrity(&rendered.raster, &repaired)
            );
            let dir = Path::new("target/loss_recovery");
            std::fs::create_dir_all(dir).expect("mkdir");
            save_ppm(&rendered.raster, &dir.join("original.ppm")).expect("write");
            save_ppm(&received.raster, &dir.join("received.ppm")).expect("write");
            save_ppm(&repaired, &dir.join("interpolated.ppm")).expect("write");
            println!("images written to {}", dir.display());
        }
        Some(Err(e)) => println!("page lost: {e} (metadata frames did not survive)"),
        None => println!("no frames of the page arrived at all"),
    }
    println!("OK");
}
