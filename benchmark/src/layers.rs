//! The only file of the benchmark that touches the repo's crates.
//!
//! Later changes to the repo may not edit the benchmark, so they must keep
//! what is named here compiling and meaning the same. Everything goes
//! through the `sonic` facade crate's public items:
//!
//! * `pagegen::{Corpus::{standard, small, layout, render}, PageId,
//!   RenderedPage}`
//! * `core::{FRAME_PAYLOAD, FRAME_SIZE}`, `pagegen::corpus::PAGES_PER_SITE`,
//!   `core::page::SimplifiedPage::{from_raster, page_id, url, strips}`,
//!   `core::chunker::page_to_frames`, `core::frame::Frame::{Strip, encode,
//!   page_id}`, `core::link::{modulate, demodulate, LinkStats,
//!   FRAMES_PER_BURST}`
//! * `core::SonicClient::{new, receive_frame_at, pending_pages,
//!   finalize_page, compose_request, compose_nack, reassembler, cache}`,
//!   `core::reassembly::{Reassembler::{with_config, push_at, take, assembly},
//!   ReassemblerConfig, PageAssembly::meta_complete,
//!   ReceivedPage::patch_from_prior}`
//! * `core::SonicServer::{new, handle_sms, pump_repairs, schedulers,
//!   repair.stats}`
//! * `core::server::{render::Renderer, pipeline::{refresh_carousel, PageJob,
//!   CarouselItem, CarouselSlot}, cache::{ArtifactCache::unbounded,
//!   TieredCache::with_store, share_store}, store::ArtifactStore::open,
//!   scheduler::{BroadcastScheduler::{new, enqueue_prechunked, enqueue_delta,
//!   advance, backlog_bytes}, SlotKind}}`
//! * `core::net::{proto::{encode_msg, decode_msg, Msg, Request, Response,
//!   RefuseCode}, codec::{encode_frame, FrameDecoder::{new, feed,
//!   next_frame}}}`
//! * `fec::FecPipeline::{new, encode, decode_soft}`,
//!   `modem::Profile::{sonic_10k, fec, sample_rate}`
//! * `radio::{mpx::{compose, decompose, MpxInput}, fm::{FmModulator,
//!   FmDemodulator}, channel::RfChannel, stack::FmLink}`
//! * `sms::{network::{SmsNetwork::{typical, send}, Delivery},
//!   gateway::parse_ack, geo::{Coverage::pakistan_demo, GeoPoint}}`
//! * `image::{raster::Raster, strip::decode, metrics::psnr}`
//! * `sim::cluster::{run_cluster_soak, ClusterSoakConfig, ClusterSoakReport}`
//!
//! Each function opens the spans named after the layers around its calls,
//! records the counts at the same boundaries, checks what came out, and
//! returns plain numbers. `dsp` has no span of its own: it is read through
//! `radio.*` and `modem.rx`.

use crate::trace::{Closed, Tracer};
use sonic::core::chunker::page_to_frames;
use sonic::core::frame::Frame;
use sonic::core::link;
use sonic::core::net::codec::{encode_frame, FrameDecoder};
use sonic::core::net::proto::{decode_msg, encode_msg, Msg, RefuseCode, Request, Response};
use sonic::core::page::SimplifiedPage;
use sonic::core::reassembly::{Reassembler, ReassemblerConfig};
use sonic::core::server::cache::{share_store, ArtifactCache, TieredCache};
use sonic::core::server::pipeline::{refresh_carousel, CarouselItem, CarouselSlot, PageJob};
use sonic::core::server::render::Renderer;
use sonic::core::server::scheduler::{BroadcastScheduler, SlotKind};
use sonic::core::server::store::ArtifactStore;
use sonic::core::{SonicClient, SonicServer, FRAME_PAYLOAD, FRAME_SIZE};
use sonic::fec::FecPipeline;
use sonic::image::metrics::psnr;
use sonic::image::raster::Raster;
use sonic::image::strip;
use sonic::modem::Profile;
use sonic::pagegen::{Corpus, PageId, RenderedPage};
use sonic::radio::channel::RfChannel;
use sonic::radio::fm::{FmDemodulator, FmModulator};
use sonic::radio::mpx::{compose, decompose, MpxInput};
use sonic::radio::stack::FmLink;
use sonic::sim::cluster::{run_cluster_soak, ClusterSoakConfig};
use sonic::sms::gateway;
use sonic::sms::geo::{Coverage, GeoPoint};
use sonic::sms::network::{Delivery, SmsNetwork};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Payload bytes of one link frame: the unit of goodput.
pub const FRAME_PAYLOAD_BYTES: f64 = FRAME_PAYLOAD as f64;
/// Scheduler drain rate of the trips' and the carousel's one transmitter.
const SCHEDULER_RATE_BPS: f64 = 10_000.0;
/// Sites of `Corpus::standard()`.
pub const STANDARD_SITES: usize = 25;
pub use sonic::pagegen::corpus::PAGES_PER_SITE;

/// What every trip needs and no trip changes.
pub struct Stack {
    corpus: Corpus,
    profile: Profile,
    fec: FecPipeline,
}

impl Stack {
    pub fn new() -> Self {
        let profile = Profile::sonic_10k();
        let fec = FecPipeline::new(profile.fec);
        Stack {
            corpus: Corpus::standard(),
            profile,
            fec,
        }
    }

    fn air_seconds(&self, samples: usize) -> f64 {
        samples as f64 / self.profile.sample_rate
    }
}

/// One page of the standard corpus at one hour.
#[derive(Clone, Copy, Debug)]
pub struct PageSpec {
    pub site: usize,
    pub page: usize,
    pub hour: u64,
}

impl PageSpec {
    fn id(&self) -> PageId {
        PageId {
            site: self.site,
            page: self.page,
        }
    }
}

/// The radio and SMS side of one `trip_fm` unit.
#[derive(Clone, Copy, Debug)]
pub struct FmSpec {
    pub rssi_db: f64,
    pub channel_seed: u64,
    pub sms_seed: u64,
}

/// One page's trip, as numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trip {
    /// `None` when the page was displayed and checked; else what went wrong.
    pub failure: Option<&'static str>,
    /// Audio seconds put on air for this page, repairs included.
    pub air_s: f64,
    /// Server wall: render, strip-encode, chunk, modulate (and on `trip_fm`
    /// the SMS handling and repair planning that stand in for them).
    pub tx_s: f64,
    /// Receiver wall: FM receive, demodulate, reassemble, finalize.
    pub rx_s: f64,
    /// Whole unit, channel simulation and SMS included.
    pub wall_s: f64,
    /// CRC-valid link frames handed to the reassembler.
    pub frames_accepted: f64,
    /// Share of pixels missing at display time, before interpolation.
    pub pixel_loss: f64,
    pub psnr_db: f64,
    /// Uplink SMS segments billed (GET and NACK, lost sends included).
    pub sms_segments: f64,
    /// FNV-1a of the displayed raster: two passes over the same inputs must
    /// display the same bytes.
    pub display_digest: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Where a stage's span goes: inside the open span, or — for work the
/// program did inside one of its own calls — replayed under that call's
/// already closed span.
#[derive(Clone, Copy)]
enum At {
    Here,
    ReplayUnder(Option<usize>),
}

fn open_at(tr: &mut Tracer, name: &'static str, at: At) {
    match at {
        At::Here => tr.open(name),
        At::ReplayUnder(parent) => tr.open_replayed(name, parent),
    }
}

/// `pagegen.render` span.
fn render(
    tr: &mut Tracer,
    corpus: &Corpus,
    id: PageId,
    hour: u64,
    scale: f64,
    at: At,
) -> (RenderedPage, Closed) {
    open_at(tr, "pagegen.render", at);
    let rendered = corpus.render(id, hour, scale);
    let pixels = rendered.raster.width() * rendered.raster.height();
    tr.count("pagegen.render.mpix", pixels as f64 * 1e-6);
    let closed = tr.close();
    (rendered, closed)
}

/// `image.strip_encode` span.
fn strip_encode(
    tr: &mut Tracer,
    rendered: &RenderedPage,
    hour: u64,
    at: At,
) -> (SimplifiedPage, Closed) {
    open_at(tr, "image.strip_encode", at);
    let page = SimplifiedPage::from_raster(
        &rendered.url,
        &rendered.raster,
        rendered.clickmap.clone(),
        hour as u16,
        12,
    );
    tr.count(
        "image.strip_encode.bytes_out",
        page.strips.total_bytes() as f64,
    );
    let closed = tr.close();
    (page, closed)
}

/// `core.chunk` span.
fn chunk(tr: &mut Tracer, page: &SimplifiedPage, at: At) -> (Vec<Frame>, Closed) {
    open_at(tr, "core.chunk", at);
    let frames = page_to_frames(page);
    tr.count("core.chunk.frames", frames.len() as f64);
    let closed = tr.close();
    (frames, closed)
}

/// `core.link_tx` span.
fn link_tx(tr: &mut Tracer, stack: &Stack, frames: &[Frame], at: At) -> (Vec<f32>, Closed) {
    open_at(tr, "core.link_tx", at);
    let audio = link::modulate(&stack.profile, frames);
    tr.count("core.link_tx.frames", frames.len() as f64);
    tr.count("core.link_tx.air_s", stack.air_seconds(audio.len()));
    let closed = tr.close();
    (audio, closed)
}

/// `core.link_rx` span.
fn link_rx(tr: &mut Tracer, stack: &Stack, audio: &[f32]) -> (Vec<Frame>, Closed) {
    tr.open("core.link_rx");
    let (frames, stats) = link::demodulate(&stack.profile, audio);
    tr.count("core.link_rx.bursts", stats.bursts_detected as f64);
    tr.count("core.link_rx.bursts_failed", stats.bursts_failed as f64);
    tr.count("core.link_rx.frames_ok", stats.frames_ok as f64);
    let closed = tr.close();
    (frames, closed)
}

/// `core.reassemble` span.
fn reassemble(tr: &mut Tracer, client: &mut SonicClient, frames: Vec<Frame>, now_s: f64) -> Closed {
    tr.open("core.reassemble");
    tr.count("core.reassemble.frames", frames.len() as f64);
    for frame in frames {
        client.receive_frame_at(frame, now_s);
    }
    tr.close()
}

/// `fec.encode` and `fec.decode`, replayed: the benchmark cannot open spans
/// inside `link::modulate`/`demodulate`, so the same burst payloads go
/// through the same FEC pipeline right after, as children of `tx` and `rx`.
/// The decode side sees clean ±1 soft bits on every workload. Traced runs
/// only. Returns whether every payload decoded back to itself.
fn replay_fec(tr: &mut Tracer, stack: &Stack, frames: &[Frame], tx: Closed, rx: Closed) -> bool {
    if !tr.keeps_spans() {
        return true;
    }
    let payloads: Vec<Vec<u8>> = frames
        .chunks(link::FRAMES_PER_BURST)
        .map(|group| group.iter().flat_map(|f| f.encode()).collect())
        .collect();
    tr.open_replayed("fec.encode", tx.id);
    let coded: Vec<Vec<u8>> = payloads.iter().map(|p| stack.fec.encode(p)).collect();
    tr.count("fec.bytes", payloads.iter().map(|p| p.len() as f64).sum());
    tr.close();
    let soft: Vec<Vec<f32>> = coded
        .iter()
        .map(|bits| {
            bits.iter()
                .map(|&b| if b == 0 { -1.0 } else { 1.0 })
                .collect()
        })
        .collect();
    tr.open_replayed("fec.decode", rx.id);
    let decoded: Vec<_> = soft
        .iter()
        .zip(&payloads)
        .map(|(s, p)| stack.fec.decode_soft(s, p.len()))
        .collect();
    tr.close();
    decoded
        .iter()
        .zip(&payloads)
        .all(|(d, p)| d.as_ref().is_ok_and(|d| d == p))
}

/// Display-time checks shared by both trips: finalizes the page, fetches
/// what the client would show and compares it with the rendered raster.
/// Returns the `image.finalize` span.
fn finalize(
    tr: &mut Tracer,
    client: &mut SonicClient,
    page_id: u32,
    url: &str,
    hour: u64,
    trip: &mut Trip,
) -> (Option<Raster>, Closed) {
    tr.open("image.finalize");
    let report = client.finalize_page(page_id, hour);
    let displayed = client.cache.get(url, hour).map(|cached| cached.raster);
    if let (Ok(report), Some(raster)) = (&report, &displayed) {
        trip.pixel_loss = report.pixel_loss;
        let pixels = (raster.width() * raster.height()) as f64;
        tr.count(
            "image.finalize.pixels_interp",
            (report.pixel_loss * pixels).round(),
        );
    }
    let closed = tr.close();
    match (report, displayed) {
        (Ok(report), Some(raster)) if report.url == url => {
            trip.display_digest = fnv1a(raster.bytes());
            (Some(raster), closed)
        }
        (Ok(_), _) => {
            trip.failure = Some("displayed page missing or under another url");
            (None, closed)
        }
        (Err(_), _) => {
            trip.failure = Some("finalize failed: metadata incomplete");
            (None, closed)
        }
    }
}

/// `trip_cable`: render → strip-encode → chunk → modulate → (audio handed
/// over unchanged) → demodulate → reassemble → finalize. Requires a page
/// with no pixel lost that displays exactly `strip::decode` of what was sent.
pub fn cable_trip(tr: &mut Tracer, stack: &Stack, spec: PageSpec, scale: f64) -> Trip {
    let mut trip = Trip::default();
    let mut client = SonicClient::new(720, None);
    tr.next_unit();
    tr.open("unit");
    let (rendered, t_render) = render(tr, &stack.corpus, spec.id(), spec.hour, scale, At::Here);
    let (page, t_encode) = strip_encode(tr, &rendered, spec.hour, At::Here);
    let (frames, t_chunk) = chunk(tr, &page, At::Here);
    let (audio, t_tx) = link_tx(tr, stack, &frames, At::Here);
    let (received, t_rx) = link_rx(tr, stack, &audio);
    trip.frames_accepted = received.len() as f64;
    let t_reassemble = reassemble(tr, &mut client, received, 0.0);
    let (displayed, t_finalize) = finalize(
        tr,
        &mut client,
        page.page_id,
        &page.url,
        spec.hour,
        &mut trip,
    );
    trip.wall_s = tr.close().secs;

    trip.air_s = stack.air_seconds(audio.len());
    trip.tx_s = t_render.secs + t_encode.secs + t_chunk.secs + t_tx.secs;
    trip.rx_s = t_rx.secs + t_reassemble.secs + t_finalize.secs;
    if !replay_fec(tr, stack, &frames, t_tx, t_rx) {
        trip.failure = Some("fec replay did not decode to its payload");
    }
    if let Some(displayed) = displayed {
        trip.psnr_db = psnr(&rendered.raster, &displayed);
        if trip.pixel_loss != 0.0 {
            trip.failure = Some("pixels lost on a clean cable");
        } else if displayed != strip::decode(&page.strips) {
            trip.failure = Some("displayed raster differs from strip::decode of the page");
        }
    }
    trip
}

/// NACK rounds a lossy page gets before it is displayed with what it has and
/// interpolation covers the rest.
const NACK_ROUNDS: usize = 2;
/// Broadcasts a page may take in all. A page that cannot be displayed at all
/// (metadata never arrived) is asked for again, as a user would; each full
/// broadcast carries the metadata twice, so even at the worst RSSI level
/// (half the bursts lost) ten of them failing is a once-in-10⁶ page.
const MAX_BROADCASTS: usize = 10;
/// Times a user re-sends an SMS the network lost.
const SMS_RESENDS: usize = 8;
/// Seconds a user waits before re-sending.
const SMS_RESEND_AFTER_S: f64 = 60.0;

/// Sends one uplink SMS inside an `sms.uplink` span, re-sending what the
/// network loses. Returns the arrival time at the gateway.
fn uplink(
    tr: &mut Tracer,
    net: &mut SmsNetwork,
    text: &str,
    mut now_s: f64,
    trip: &mut Trip,
) -> Option<f64> {
    tr.open("sms.uplink");
    let mut arrival = None;
    for _ in 0..SMS_RESENDS {
        match net.send(text, now_s) {
            Ok(Delivery::Delivered { at, segments }) => {
                trip.sms_segments += segments as f64;
                tr.count("sms.sim_latency_s", at - now_s);
                arrival = Some(at);
                break;
            }
            Ok(Delivery::Lost) => {
                // Billed all the same; one segment is the least it cost.
                trip.sms_segments += 1.0;
                now_s += SMS_RESEND_AFTER_S;
            }
            Err(_) => break,
        }
    }
    tr.close();
    arrival
}

/// Drains the one scheduler that has a backlog.
fn drain_scheduler(server: &mut SonicServer) -> Vec<Frame> {
    let mut frames = Vec::new();
    for scheduler in server.schedulers.values_mut() {
        while scheduler.backlog_bytes() > 0 {
            frames.extend(scheduler.advance(5.0));
        }
    }
    frames
}

/// The FM hop, split so each half gets its span: multiplex + FM modulate
/// (`radio.tx`), the RF channel (`radio.channel`), FM demodulate +
/// demultiplex (`radio.rx`). Bit-identical to `FmLink::transmit`, which
/// `fm_split_matches_fmlink` checks at set-up.
fn fm_hop(tr: &mut Tracer, mono: Vec<f32>, rssi_db: f64, seed: u64) -> (Vec<f32>, Closed) {
    tr.open("radio.tx");
    let composite = compose(&MpxInput {
        mono,
        stereo_diff: None,
        rds_bits: None,
    });
    let mut baseband = Vec::with_capacity(composite.len());
    FmModulator::default().modulate_into(&composite, &mut baseband);
    tr.count("radio.mpx_samples", composite.len() as f64);
    tr.close();

    tr.open("radio.channel");
    let received = RfChannel::new(rssi_db, seed).transmit(&baseband);
    tr.close();

    tr.open("radio.rx");
    let mut recovered = Vec::with_capacity(received.len());
    FmDemodulator::default().demodulate_into(&received, &mut recovered);
    let mono = decompose(&recovered).mono;
    let closed = tr.close();
    (mono, closed)
}

/// Set-up check of `trip_fm`: one burst through the benchmark's split FM
/// path equals the same burst through `FmLink::transmit`, bit for bit.
pub fn fm_split_matches_fmlink(stack: &Stack) -> bool {
    let rendered = stack.corpus.render(PageId { site: 0, page: 3 }, 9, 0.03);
    let page =
        SimplifiedPage::from_raster(&rendered.url, &rendered.raster, rendered.clickmap, 9, 12);
    let mut frames = page_to_frames(&page);
    frames.truncate(link::FRAMES_PER_BURST);
    let audio = link::modulate(&stack.profile, &frames);
    let (rssi_db, seed) = (-84.0, 0x5EED);
    let whole = FmLink::new(rssi_db, seed).transmit(&audio, None).mono;
    let (split, _) = fm_hop(&mut Tracer::new(false), audio, rssi_db, seed);
    whole.len() == split.len()
        && whole
            .iter()
            .zip(&split)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// `trip_fm`: the page is asked for by SMS, served by `SonicServer`, aired
/// through the software FM chain at the unit's RSSI, repaired by NACK
/// rounds and displayed with whatever arrived.
pub fn fm_trip(tr: &mut Tracer, stack: &Stack, spec: PageSpec, scale: f64, fm: FmSpec) -> Trip {
    let mut trip = Trip::default();
    let lahore = GeoPoint::new(31.52, 74.35);
    let mut client = SonicClient::new(720, Some(lahore));
    let mut server = SonicServer::new(
        Renderer::new(stack.corpus.clone(), scale),
        Coverage::pakistan_demo(),
        SCHEDULER_RATE_BPS,
    );
    let mut net = SmsNetwork::typical(fm.sms_seed);
    let url = stack.corpus.layout(spec.id(), spec.hour).url;
    let mut now_s = spec.hour as f64 * 3600.0 + 60.0;
    let mut channel_seed = fm.channel_seed;
    let mut page_id = None;
    // The first broadcast, kept for the replays after the unit.
    let mut first_air = None;

    tr.next_unit();
    tr.open("unit");
    let mut nacks_sent = 0;
    for _ in 0..MAX_BROADCASTS {
        // What the user sends: GET until the page can be displayed at all,
        // then NACK while the loss map says something is missing.
        let displayable = page_id.is_some_and(|id| {
            client
                .reassembler()
                .assembly(id)
                .is_some_and(|a| a.meta_complete())
        });
        let message = match page_id {
            Some(id) if displayable => {
                if nacks_sent == NACK_ROUNDS {
                    break;
                }
                nacks_sent += 1;
                match client.compose_nack(id) {
                    Some(nack) => nack,
                    None => break, // nothing missing
                }
            }
            _ => client.compose_request(&url).expect("client has a location"),
        };
        let Some(arrival) = uplink(tr, &mut net, &message, now_s, &mut trip) else {
            trip.failure = Some("sms never delivered");
            break;
        };
        now_s = arrival;

        // Server: answer the SMS, plan repairs, drain the transmitter.
        tr.open(if displayable {
            "core.repair"
        } else {
            "core.serve"
        });
        let reply = server.handle_sms(&message, now_s);
        if displayable {
            // Past the coalescing window and any backoff.
            now_s += 1000.0;
            server.pump_repairs(now_s);
        }
        let frames = drain_scheduler(&mut server);
        if displayable {
            tr.count("core.repair.frames", frames.len() as f64);
        }
        let served = tr.close();
        trip.tx_s += served.secs;
        if gateway::parse_ack(&reply).is_none() || frames.is_empty() {
            trip.failure = Some("server refused the request");
            break;
        }
        page_id = page_id.or(frames.first().map(Frame::page_id));

        // Air: modulate, FM hop with a fresh channel seed, demodulate.
        let (audio, t_tx) = link_tx(tr, stack, &frames, At::Here);
        let air_s = stack.air_seconds(audio.len());
        let (heard_audio, t_radio_rx) = fm_hop(tr, audio, fm.rssi_db, channel_seed);
        tr.count("radio.rx.s_per_air_s", t_radio_rx.secs / air_s);
        channel_seed = channel_seed.wrapping_add(0x9E37_79B9);
        let (received, t_rx) = link_rx(tr, stack, &heard_audio);
        now_s += air_s;
        trip.frames_accepted += received.len() as f64;
        let t_reassemble = reassemble(tr, &mut client, received, now_s);
        trip.air_s += air_s;
        trip.tx_s += t_tx.secs;
        trip.rx_s += t_radio_rx.secs + t_rx.secs + t_reassemble.secs;
        if first_air.is_none() {
            first_air = Some((frames, served, t_tx, t_rx));
        }
    }
    let displayed = match (trip.failure, page_id) {
        (None, Some(id)) => {
            let (displayed, t_finalize) = finalize(tr, &mut client, id, &url, spec.hour, &mut trip);
            trip.rx_s += t_finalize.secs;
            displayed
        }
        _ => None,
    };
    trip.wall_s = tr.close().secs;
    tr.count(
        "core.repair.nacks_accepted",
        server.repair.stats.nacks_accepted as f64,
    );
    tr.count(
        "core.repair.nacks_rejected",
        server.repair.stats.nacks_rejected as f64,
    );

    // Outside the unit: what `handle_sms` did inside (render, strip-encode,
    // chunk), replayed under `core.serve`, and the FEC of the first
    // broadcast. The render is also the reference the displayed page is
    // scored against.
    let under_serve = At::ReplayUnder(first_air.as_ref().and_then(|(_, served, ..)| served.id));
    let (rendered, _) = render(tr, &stack.corpus, spec.id(), spec.hour, scale, under_serve);
    let (page, _) = strip_encode(tr, &rendered, spec.hour, under_serve);
    chunk(tr, &page, under_serve);
    if let Some((frames, _, t_tx, t_rx)) = &first_air {
        if !replay_fec(tr, stack, frames, *t_tx, *t_rx) {
            trip.failure = Some("fec replay did not decode to its payload");
        }
    }
    if let Some(displayed) = displayed {
        if displayed.width() == rendered.raster.width()
            && displayed.height() == rendered.raster.height()
        {
            trip.psnr_db = psnr(&rendered.raster, &displayed);
        } else {
            trip.failure = Some("displayed page has other dimensions than the rendered one");
        }
    }
    trip
}

/// One carousel hour: what the server spent and what it put on air, page by
/// page in the plan's order.
#[derive(Clone, Debug)]
pub struct CarouselHour {
    pub cold: bool,
    /// Wall seconds of each page's refresh.
    pub refresh_s: Vec<f64>,
    /// Audio seconds each page's slot put on air; 0 for an unchanged page.
    pub air_s: Vec<f64>,
    pub scheduler_s: f64,
}

/// One carousel day, as numbers.
#[derive(Default)]
pub struct CarouselDay {
    /// Slots that did not decode to the artifact's raster, restart misses.
    pub failures: u64,
    /// Page-refreshes done (cold + warm + restart).
    pub refreshes: u64,
    /// The cold hour first, then the warm ones.
    pub hours: Vec<CarouselHour>,
    /// Store reopen plus the all-hit refresh.
    pub restart_s: f64,
    /// Warm-hour refreshes that found the page unchanged.
    pub warm_unchanged: u64,
    /// Frames the warm hours aired, and what airing every changed page
    /// whole would have cost.
    pub warm_frames_aired: f64,
    pub warm_frames_full: f64,
    /// Size of the store's files after the last warm hour.
    pub store_file_mb: f64,
    /// Per page-refresh wall seconds, every phase.
    pub unit_s: Vec<f64>,
    /// Traced runs: the changed pages, for `replay_carousel`.
    pub replays: Vec<RefreshReplay>,
}

/// Shape of one carousel day.
#[derive(Clone, Debug)]
pub struct CarouselPlan {
    /// Sites of `Corpus::small`.
    pub sites: usize,
    pub scale: f64,
    /// Refresh order of the catalog, one entry per page.
    pub order: Vec<(usize, usize)>,
    pub cold_hour: u64,
    pub warm_hours: u64,
}

fn open_tier(dir: &Path) -> std::io::Result<TieredCache> {
    let store = share_store(ArtifactStore::open(dir, u64::MAX)?);
    Ok(TieredCache::with_store(ArtifactCache::unbounded(), store))
}

fn slot_audio_samples(item: &CarouselItem) -> usize {
    match &item.slot {
        CarouselSlot::Unchanged => 0,
        CarouselSlot::Full => item.artifact.audio.len(),
        CarouselSlot::Delta { audio, .. } => audio.len(),
    }
}

/// Airs an hour's slots through a `BroadcastScheduler` (`core.scheduler`
/// span), then, untimed, reassembles every aired page, patches the columns
/// a delta left out from the client's prior raster and compares with
/// `strip::decode` of the artifact. Returns (scheduler wall, mismatches).
fn air_and_check(
    tr: &mut Tracer,
    items: &[CarouselItem],
    prior: &mut BTreeMap<String, Raster>,
) -> (f64, u64) {
    tr.open("core.scheduler");
    let mut scheduler = BroadcastScheduler::new(SCHEDULER_RATE_BPS);
    for item in items {
        match &item.slot {
            CarouselSlot::Unchanged => {}
            CarouselSlot::Full => {
                scheduler.enqueue_prechunked(
                    item.artifact.page.clone(),
                    item.artifact.frames.clone(),
                    0.0,
                );
            }
            CarouselSlot::Delta { frames, .. } => {
                scheduler.enqueue_delta(item.artifact.page.clone(), frames.clone(), 0.0);
            }
        }
    }
    let mut aired = Vec::new();
    loop {
        let frames = scheduler.advance(60.0);
        if frames.is_empty() {
            break;
        }
        aired.extend(frames);
    }
    tr.count("core.scheduler.frames", aired.len() as f64);
    let wall = tr.close().secs;

    let mut receiver = Reassembler::with_config(ReassemblerConfig {
        max_bytes: usize::MAX / 2,
        max_pages: usize::MAX / 2,
        page_deadline_s: f64::INFINITY,
        ..ReassemblerConfig::default()
    });
    for frame in aired {
        receiver.push_at(frame, 0.0);
    }
    let mut mismatches = 0;
    for item in items {
        if matches!(item.slot, CarouselSlot::Unchanged) {
            continue;
        }
        let page = &item.artifact.page;
        let Some(Ok(mut received)) = receiver.take(page.page_id) else {
            mismatches += 1;
            continue;
        };
        if let Some(prior) = prior.get(&received.url) {
            received.patch_from_prior(prior);
        }
        if received.raster != strip::decode(&page.strips) || received.url != page.url {
            mismatches += 1;
        }
        prior.insert(received.url, received.raster);
    }
    (wall, mismatches)
}

/// Which of the three uses of the cache/store layer a refresh is.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Cold,
    Warm,
    Restart,
}

impl Phase {
    fn span(self) -> &'static str {
        match self {
            Phase::Cold => "core.refresh_cold",
            Phase::Warm => "core.refresh_warm",
            Phase::Restart => "core.refresh_restart",
        }
    }
}

/// A changed page's refresh, to be replayed stage by stage once the
/// measuring is over: under which span, which page, and the frames its slot
/// aired.
pub struct RefreshReplay {
    under: Option<usize>,
    job: PageJob,
    aired: Arc<Vec<Frame>>,
}

/// Refreshes every page of `plan` for `hour`, one unit and one
/// `core.refresh_*` span per page. In a traced run each changed page is
/// noted in `day.replays`.
fn refresh_hour(
    tr: &mut Tracer,
    plan: &CarouselPlan,
    renderer: &Renderer,
    tier: &mut TieredCache,
    stack: &Stack,
    (hour, phase): (u64, Phase),
    day: &mut CarouselDay,
) -> (Vec<CarouselItem>, Vec<f64>) {
    let mut items = Vec::with_capacity(plan.order.len());
    let mut walls = Vec::with_capacity(plan.order.len());
    for &(site, page) in &plan.order {
        let job = PageJob {
            id: PageId { site, page },
            hour,
        };
        tr.next_unit();
        tr.open("unit");
        tr.open(phase.span());
        let (mut refreshed, _) = refresh_carousel(renderer, tier, &[job], &stack.profile);
        let item = refreshed.pop().expect("one job, one item");
        tr.count(
            match item.slot {
                CarouselSlot::Unchanged => "core.refresh.unchanged",
                CarouselSlot::Full => "core.refresh.full",
                CarouselSlot::Delta { .. } => "core.refresh.delta",
            },
            1.0,
        );
        let refreshed = tr.close();
        let unit = tr.close().secs;
        day.unit_s.push(unit);
        day.refreshes += 1;
        walls.push(unit);

        if tr.keeps_spans() {
            let aired = match &item.slot {
                CarouselSlot::Unchanged => None,
                CarouselSlot::Full => Some(item.artifact.frames.clone()),
                CarouselSlot::Delta { frames, .. } => Some(frames.clone()),
            };
            day.replays.extend(aired.map(|aired| RefreshReplay {
                under: refreshed.id,
                job,
                aired,
            }));
        }
        items.push(item);
    }
    (items, walls)
}

/// A finished day's store directory, kept so that its page-cache pages go
/// to the next day's store hour by hour.
///
/// The benchmark's host is a microVM whose hypervisor takes back guest
/// memory that has been free for two seconds and charges some 20 µs a page
/// to hand it out again: removing a day's 350 MB of files at once made the
/// last third of the next day's writes five to fifteen times slower than
/// the first two thirds, by an amount that is the host's and swings with
/// its load. Cutting yesterday's data file back before each hour by what
/// that hour wrote yesterday frees just the pages the hour is about to
/// take, and they are taken while still the guest's.
pub struct SpentStore {
    dir: PathBuf,
    /// Bytes each hour added to the directory, in the day's order.
    hour_bytes: Vec<u64>,
}

impl SpentStore {
    /// Cuts what hour `k` wrote off the end of the directory's largest file
    /// (the store's blobs, whatever the store calls them).
    fn release_hour(&self, k: usize) -> std::io::Result<()> {
        let largest = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| Some((e.metadata().ok()?.len(), e.path())))
            .max();
        let Some((len, path)) = largest else {
            return Ok(());
        };
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len.saturating_sub(self.hour_bytes[k]))
    }

    pub fn remove(self) -> std::io::Result<()> {
        std::fs::remove_dir_all(self.dir)
    }
}

/// `carousel_day`: one cold hour into an empty store, `warm_hours` hours of
/// churn, then everything dropped, the store reopened and the last hour
/// refreshed again. `dir` must not exist; it comes back as the `SpentStore`
/// for the next day, and `spent`, the day before's, is removed.
pub fn carousel_day(
    tr: &mut Tracer,
    stack: &Stack,
    plan: &CarouselPlan,
    dir: &Path,
    spent: Option<SpentStore>,
) -> std::io::Result<(CarouselDay, SpentStore)> {
    let mut day = CarouselDay::default();
    let renderer = Renderer::new(Corpus::small(plan.sites), plan.scale);
    let mut prior = BTreeMap::new();
    let last_hour = plan.cold_hour + plan.warm_hours;
    let mut hour_bytes = Vec::new();
    {
        let mut tier = open_tier(dir)?;
        for hour in plan.cold_hour..=last_hour {
            let phase = if hour == plan.cold_hour {
                Phase::Cold
            } else {
                Phase::Warm
            };
            if let Some(spent) = &spent {
                spent.release_hour(hour_bytes.len())?;
            }
            let (items, refresh_s) = refresh_hour(
                tr,
                plan,
                &renderer,
                &mut tier,
                stack,
                (hour, phase),
                &mut day,
            );
            let (scheduler_s, mismatches) = air_and_check(tr, &items, &mut prior);
            day.failures += mismatches;
            day.hours.push(CarouselHour {
                cold: phase == Phase::Cold,
                refresh_s,
                air_s: items
                    .iter()
                    .map(|item| stack.air_seconds(slot_audio_samples(item)))
                    .collect(),
                scheduler_s,
            });
            hour_bytes.push(dir_bytes(dir) - hour_bytes.iter().sum::<u64>());
            if phase == Phase::Warm {
                for item in &items {
                    let aired = match &item.slot {
                        CarouselSlot::Unchanged => {
                            day.warm_unchanged += 1;
                            continue;
                        }
                        CarouselSlot::Full => item.artifact.frames.len(),
                        CarouselSlot::Delta { frames, .. } => frames.len(),
                    };
                    day.warm_frames_aired += aired as f64;
                    day.warm_frames_full += item.artifact.frames.len() as f64;
                }
            }
        }
    }
    day.store_file_mb = dir_bytes(dir) as f64 / (1024.0 * 1024.0);
    if let Some(spent) = spent {
        spent.remove()?;
    }

    // Restart: nothing survives but the files.
    tr.open("core.store.open");
    let mut tier = open_tier(dir)?;
    let open_s = tr.close().secs;
    let (items, refresh_s) = refresh_hour(
        tr,
        plan,
        &renderer,
        &mut tier,
        stack,
        (last_hour, Phase::Restart),
        &mut day,
    );
    day.restart_s = open_s + refresh_s.iter().sum::<f64>();
    day.failures += items
        .iter()
        .filter(|item| !matches!(item.slot, CarouselSlot::Unchanged))
        .count() as u64;
    drop(tier);

    let spent = SpentStore {
        dir: dir.to_path_buf(),
        hour_bytes,
    };
    Ok((day, spent))
}

/// Traced runs, after the last day so that no timed hour feels it (replays
/// between days left the allocator in another state and cost the next day's
/// warm hours a fifth of their speed): each changed page's render,
/// strip-encode, chunk and modulate replayed under its refresh span, whose
/// self time is then what the cache, the hashing and the store cost; and one
/// cold hour on a RAM-only cache (`core.refresh_cold_ram`), the difference
/// to a day's cold hour being what writing the store cost.
pub fn replay_carousel(
    tr: &mut Tracer,
    stack: &Stack,
    plan: &CarouselPlan,
    replays: &[RefreshReplay],
) {
    let renderer = Renderer::new(Corpus::small(plan.sites), plan.scale);
    for replay in replays {
        let under = At::ReplayUnder(replay.under);
        let (rendered, _) = render(
            tr,
            renderer.corpus(),
            replay.job.id,
            replay.job.hour,
            plan.scale,
            under,
        );
        let (simplified, _) = strip_encode(tr, &rendered, replay.job.hour, under);
        chunk(tr, &simplified, under);
        link_tx(tr, stack, &replay.aired, under);
    }
    let mut ram = ArtifactCache::unbounded();
    tr.open("core.refresh_cold_ram");
    for &(site, page) in &plan.order {
        let job = PageJob {
            id: PageId { site, page },
            hour: plan.cold_hour,
        };
        refresh_carousel(&renderer, &mut ram, &[job], &stack.profile);
    }
    tr.close();
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One cluster soak, as numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Soak {
    pub failure: Option<&'static str>,
    pub wall_s: f64,
    /// Sites × simulated seconds.
    pub site_seconds: f64,
    /// Audio seconds the fleet aired.
    pub air_s: f64,
    pub pages_completed: f64,
    /// The whole report, for the same-seed-same-report check.
    pub report: String,
}

/// Shape of one soak; `smoke` shrinks it to a fraction of a second.
fn soak_config(seed: u64, dir: &Path, smoke: bool) -> ClusterSoakConfig {
    ClusterSoakConfig {
        hours: 1,
        seed,
        sites: if smoke { 4 } else { 8 },
        kills_per_hour: 1,
        // The flood (96 SMS a tick against an ingress that drains 64) is
        // most of a soak's wall; the smoke soak only trickles.
        flood_hour: 0,
        flood_per_tick: if smoke { 8 } else { 96 },
        workers: 1,
        store_dir: Some(dir.to_path_buf()),
        ..ClusterSoakConfig::default()
    }
}

/// `cluster_day` unit: one seeded soak of the control plane. Requires no
/// hung page and a restart for every kill.
pub fn cluster_soak(tr: &mut Tracer, seed: u64, dir: &Path, smoke: bool) -> Soak {
    let cfg = soak_config(seed, dir, smoke);
    tr.next_unit();
    tr.open("unit");
    tr.open("sim.cluster_soak");
    let report = run_cluster_soak(&cfg);
    tr.count("sim.cluster.frames_aired", report.frames_aired as f64);
    tr.count("sim.cluster.rpc_retries", report.rpc_retries as f64);
    tr.count("sim.cluster.failovers", report.failovers as f64);
    tr.count("sim.cluster.sms_shed", report.sms_shed as f64);
    tr.count("sim.cluster.hung_pages", report.hung_pages as f64);
    tr.close();
    let wall_s = tr.close().secs;
    let failure = if report.hung_pages != 0 {
        Some("pages still queued after the drain window")
    } else if report.restarts != report.kills {
        Some("a killed site never restarted")
    } else if report.frames_heard != report.frames_aired || report.frames_aired == 0 {
        Some("listeners did not hear what the fleet aired")
    } else {
        None
    };
    Soak {
        failure,
        wall_s,
        site_seconds: cfg.sites as f64 * report.ticks as f64 * cfg.tick_s,
        air_s: report.frames_aired as f64 * FRAME_SIZE as f64 * 8.0 / cfg.rate_bps,
        pages_completed: report.pages_completed as f64,
        report: format!("{report:?}"),
    }
}

/// The soak's request mix through the wire: `encode_msg` → `encode_frame` →
/// `FrameDecoder` → `decode_msg`, one `core.net.roundtrip` span around all
/// `messages`. Returns whether every message came back equal.
pub fn net_roundtrip(tr: &mut Tracer, messages: usize) -> bool {
    let frames: Vec<Frame> = (0..8u16)
        .map(|i| Frame::Strip {
            page_id: 0x50_4E_49_43,
            column: i,
            seq: 0,
            last: true,
            payload: vec![i as u8; FRAME_PAYLOAD],
        })
        .collect();
    let req = |id: u64, req: Request| Msg::Req { id, req };
    let resp = |id: u64, resp: Response| Msg::Resp { id, resp };
    // Pings and stored pushes dominate a soak; frame pushes (repairs),
    // resumes and refusals are the rare, large or odd ones.
    let mix: Vec<Msg> = vec![
        req(1, Request::Ping),
        resp(
            1,
            Response::Pong {
                site_id: 3,
                backlog_bytes: 91_200,
                backlog_pages: 4,
                pages_completed: 118,
            },
        ),
        req(
            2,
            Request::PushStored {
                corpus_site: 2,
                corpus_page: 0,
                hour: 7,
            },
        ),
        resp(2, Response::Done { eta_ms: 92_000 }),
        req(3, Request::Ping),
        resp(
            3,
            Response::Pong {
                site_id: 9,
                backlog_bytes: 0,
                backlog_pages: 0,
                pages_completed: 7,
            },
        ),
        req(
            4,
            Request::PushStored {
                corpus_site: 5,
                corpus_page: 0,
                hour: 7,
            },
        ),
        resp(
            4,
            Response::Refused {
                code: RefuseCode::Overloaded,
            },
        ),
        req(
            5,
            Request::PushFrames {
                page_id: 0x50_4E_49_43,
                kind: SlotKind::Repair,
                frames,
            },
        ),
        resp(5, Response::Done { eta_ms: 640 }),
        req(
            6,
            Request::Resume {
                hour: 7,
                slot: 2,
                jobs: vec![(0, 0), (1, 0), (2, 0), (3, 0)],
            },
        ),
        resp(
            6,
            Response::Refused {
                code: RefuseCode::StoreMiss,
            },
        ),
    ];
    let mut decoder = FrameDecoder::new();
    let (mut body, mut wire) = (Vec::new(), Vec::new());
    let mut wire_bytes = 0usize;
    let mut all_equal = true;
    tr.open("core.net.roundtrip");
    for i in 0..messages {
        let msg = &mix[i % mix.len()];
        body.clear();
        wire.clear();
        encode_msg(msg, &mut body);
        encode_frame(&body, &mut wire);
        wire_bytes += wire.len();
        decoder.feed(&wire);
        let back = decoder
            .next_frame()
            .and_then(|payload| decode_msg(&payload));
        all_equal &= back.as_ref() == Some(msg);
    }
    tr.count("core.net.msgs", messages as f64);
    tr.count("core.net.wire_bytes", wire_bytes as f64);
    tr.close();
    all_equal
}
