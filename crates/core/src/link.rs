//! Link ↔ PHY adaptation: batching 100-byte SONIC frames into OFDM bursts.
//!
//! A PHY burst costs 4 overhead symbols (preamble, training ×2, header), so
//! sending one 100-byte frame per burst would waste most of the airtime.
//! The link layer therefore packs [`FRAMES_PER_BURST`] frames per burst;
//! a burst lost to sync/header failure costs that many frames, which is the
//! granularity the loss experiments measure.

use crate::frame::{Frame, FRAME_SIZE};
use sonic_modem::frame::{
    modulate_frame_into, modulated_samples, DemodFrame, FrameCodec, MAX_PAYLOAD,
};
use sonic_modem::profile::Profile;

/// Link frames packed into one PHY burst (40 × 100 B = 4000 ≤ 4095).
pub const FRAMES_PER_BURST: usize = MAX_PAYLOAD / FRAME_SIZE;

/// Reception statistics at frame granularity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// PHY bursts detected.
    pub bursts_detected: usize,
    /// PHY bursts that failed (header/FEC/truncation).
    pub bursts_failed: usize,
    /// Link frames recovered with a valid CRC.
    pub frames_ok: usize,
    /// Link frames dropped (bad CRC or inside failed bursts is unknown —
    /// only counts frames that arrived but failed their CRC).
    pub frames_bad_crc: usize,
}

/// Modulates a frame sequence into audio, [`FRAMES_PER_BURST`] per burst.
/// The only function that turns frames into audio.
pub fn modulate(profile: &Profile, frames: &[Frame]) -> Vec<f32> {
    // Half a symbol of guard between bursts.
    let guard = profile.symbol_len() / 2;
    // Sized once, exactly, instead of doubling through tens of megabytes
    // of copies.
    let mut audio = Vec::with_capacity(
        frames
            .chunks(FRAMES_PER_BURST)
            .map(|group| modulated_samples(profile, group.len() * FRAME_SIZE) + guard)
            .sum(),
    );
    let mut payload = Vec::with_capacity(MAX_PAYLOAD);
    for group in frames.chunks(FRAMES_PER_BURST) {
        payload.clear();
        for f in group {
            payload.extend_from_slice(&f.encode());
        }
        modulate_frame_into(profile, &payload, &mut audio);
        audio.extend(std::iter::repeat_n(0.0, guard));
    }
    audio
}

/// The receiving end of the link: audio in as it is captured, link frames
/// out as their bursts complete, each with the time it went on air.
///
/// The frame-level face of [`FrameCodec::push`]: memory stays at one
/// burst's worth however long the station has been on.
#[derive(Debug)]
pub struct Receiver {
    codec: FrameCodec,
    /// Bursts the last push completed (kept for its capacity).
    bursts: Vec<DemodFrame>,
    stats: LinkStats,
}

impl Receiver {
    /// A receiver at the start of a stream.
    pub fn new(profile: &Profile) -> Self {
        Receiver {
            codec: FrameCodec::new(profile),
            bursts: Vec::new(),
            stats: LinkStats::default(),
        }
    }

    /// Takes the next `audio` of the stream and hands `on_frame` every link
    /// frame of every burst it completes, with `at_s`, the stream time in
    /// seconds at which that burst began.
    pub fn push(&mut self, audio: &[f32], on_frame: impl FnMut(Frame, f64)) {
        self.codec.push(audio, &mut self.bursts);
        self.deliver(on_frame);
    }

    /// Ends the stream: hands over what was held back, counts a burst the
    /// stream ended inside as failed, and is ready for a new stream (the
    /// [`stats`](Self::stats) carry on).
    pub fn flush(&mut self, on_frame: impl FnMut(Frame, f64)) {
        self.codec.flush(&mut self.bursts);
        self.deliver(on_frame);
    }

    /// Reception statistics since the receiver was built.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    fn deliver(&mut self, mut on_frame: impl FnMut(Frame, f64)) {
        let sample_rate = self.codec.profile().sample_rate;
        for burst in self.bursts.drain(..) {
            self.stats.bursts_detected += 1;
            let Ok(payload) = burst.payload else {
                self.stats.bursts_failed += 1;
                continue;
            };
            let at_s = burst.start_sample as f64 / sample_rate;
            for chunk in payload.chunks(FRAME_SIZE) {
                match Frame::decode(chunk) {
                    Ok(f) => {
                        self.stats.frames_ok += 1;
                        on_frame(f, at_s);
                    }
                    // A trailing partial chunk (`FrameError::BadSize`) is a
                    // malformed batch; anything else failed its CRC.
                    Err(_) => self.stats.frames_bad_crc += 1,
                }
            }
        }
    }
}

/// Demodulates audio back into link frames with loss accounting: a
/// [`Receiver`] given the whole buffer at once.
pub fn demodulate(profile: &Profile, audio: &[f32]) -> (Vec<Frame>, LinkStats) {
    let mut receiver = Receiver::new(profile);
    let mut frames = Vec::new();
    let mut keep = |frame, _| frames.push(frame);
    receiver.push(audio, &mut keep);
    receiver.flush(&mut keep);
    (frames, receiver.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| Frame::Strip {
                page_id: 7,
                column: (i % 40) as u16,
                seq: (i / 40) as u16,
                last: false,
                payload: vec![(i % 251) as u8; 86],
            })
            .collect()
    }

    #[test]
    fn roundtrip_one_burst() {
        let p = Profile::sonic_10k();
        let fs = frames(5);
        let audio = modulate(&p, &fs);
        let (got, stats) = demodulate(&p, &audio);
        assert_eq!(got, fs);
        assert_eq!(stats.bursts_detected, 1);
        assert_eq!(stats.bursts_failed, 0);
        assert_eq!(stats.frames_ok, 5);
    }

    #[test]
    fn roundtrip_multiple_bursts() {
        let p = Profile::sonic_10k();
        let fs = frames(FRAMES_PER_BURST + 3);
        let audio = modulate(&p, &fs);
        let (got, stats) = demodulate(&p, &audio);
        assert_eq!(got.len(), fs.len());
        assert_eq!(stats.bursts_detected, 2);
        assert_eq!(got, fs);
    }

    #[test]
    fn forty_frames_fit_one_burst() {
        assert_eq!(FRAMES_PER_BURST, 40);
        let p = Profile::sonic_10k();
        let fs = frames(40);
        let audio = modulate(&p, &fs);
        let (_, stats) = demodulate(&p, &audio);
        assert_eq!(stats.bursts_detected, 1);
    }

    #[test]
    fn empty_input_is_silence() {
        let p = Profile::sonic_10k();
        assert!(modulate(&p, &[]).is_empty());
    }
}
