//! `SimTransport`: an in-process simulated byte link with seeded faults.
//!
//! A [`Pipe`] is one direction of a link: `send` splits the outgoing bytes
//! into MTU-sized chunks (modelling partial writes — a frame can be torn
//! across chunks and lose its tail), rolls **one fate per write** and
//! applies it to one hash-chosen chunk; `recv_into` delivers the chunks
//! due by `now`. Per-write fates keep a message's survival odds
//! independent of its size — with per-chunk coin flips a large page push
//! would essentially never arrive intact and retries could not converge.
//! Every fate is a pure function of `(seed, nonce, chunk index)` through
//! `sonic_radio::faults`' SplitMix64 ladder, so a run is
//! byte-identical for a given seed at any wall clock or host — lint rule
//! R3 applies to this module.
//!
//! A [`SimLink`] pairs two pipes into a duplex coordinator↔site link.

use sonic_radio::faults::{mix, mix3, unit_f64};
use std::collections::VecDeque;

/// A seeded impairment schedule for one pipe direction.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultPlan {
    /// Seed for every per-chunk decision.
    pub seed: u64,
    /// Write granularity in bytes: one `send` becomes `ceil(len/mtu)`
    /// chunks (the partial-write / torn-frame model).
    pub mtu: usize,
    /// Base one-way latency in seconds.
    pub base_latency_s: f64,
    /// Uniform extra latency in `[0, jitter_s)` per chunk.
    pub jitter_s: f64,
    /// Probability a write silently loses one chunk (tearing the frames
    /// that chunk carried).
    pub drop_prob: f64,
    /// Probability a write arrives with one bit flipped in one chunk.
    pub corrupt_prob: f64,
    /// Probability one chunk of a write is delayed past its successors
    /// (reordering).
    pub reorder_prob: f64,
    /// Severed-link windows `(start_s, end_s)`: sends are refused and
    /// chunks already in flight that would arrive inside a window drop.
    pub down: Vec<(f64, f64)>,
    /// Latency spikes `(start_s, end_s, extra_s)` added to chunks sent in
    /// the window.
    pub spikes: Vec<(f64, f64, f64)>,
}

impl LinkFaultPlan {
    /// A clean link: small fixed latency, no impairments.
    pub fn clean(seed: u64) -> Self {
        LinkFaultPlan {
            seed,
            mtu: 1400,
            base_latency_s: 0.02,
            jitter_s: 0.0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            reorder_prob: 0.0,
            down: Vec::new(),
            spikes: Vec::new(),
        }
    }

    /// A hostile backhaul: small MTU (every message torn into several
    /// chunks), loss, corruption, reordering and jitter.
    pub fn hostile(seed: u64) -> Self {
        LinkFaultPlan {
            seed,
            mtu: 48,
            base_latency_s: 0.08,
            jitter_s: 0.25,
            drop_prob: 0.02,
            corrupt_prob: 0.01,
            reorder_prob: 0.05,
            down: Vec::new(),
            spikes: Vec::new(),
        }
    }

    /// Whether the link is severed at `t_s`.
    pub fn down_at(&self, t_s: f64) -> bool {
        self.down.iter().any(|&(a, b)| t_s >= a && t_s < b)
    }

    /// Latency-spike surcharge for a chunk sent at `t_s`.
    fn spike_extra(&self, t_s: f64) -> f64 {
        self.spikes
            .iter()
            .filter(|&&(a, b, _)| t_s >= a && t_s < b)
            .map(|&(_, _, x)| x)
            .sum()
    }
}

/// One in-flight chunk.
#[derive(Debug, Clone)]
struct Chunk {
    arrival_s: f64,
    seq: u64,
    bytes: Vec<u8>,
}

/// Pipe counters (soak assertions and diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Chunks accepted by `send`.
    pub chunks_sent: u64,
    /// Payload bytes accepted by `send`.
    pub bytes_sent: u64,
    /// Chunks lost in flight (drop fate or severed on arrival).
    pub chunks_dropped: u64,
    /// Chunks delivered with a flipped bit.
    pub chunks_corrupted: u64,
    /// `send` calls refused because the link was severed.
    pub sends_refused: u64,
    /// Payload bytes delivered to the receiver.
    pub bytes_delivered: u64,
}

/// One direction of a simulated link.
#[derive(Debug)]
pub struct Pipe {
    /// The impairment schedule.
    pub plan: LinkFaultPlan,
    inflight: VecDeque<Chunk>,
    nonce: u64,
    /// Latest in-order scheduled arrival: the stream-order floor. Jitter
    /// delays delivery but never permutes it (a TCP-like stream); only an
    /// explicit reorder fate may overtake this horizon.
    horizon_s: f64,
    /// Counters.
    pub stats: PipeStats,
}

impl Pipe {
    /// A pipe under `plan`.
    pub fn new(plan: LinkFaultPlan) -> Self {
        Pipe {
            plan,
            inflight: VecDeque::new(),
            nonce: 0,
            horizon_s: 0.0,
            stats: PipeStats::default(),
        }
    }

    /// Queues `bytes` for delivery, chunk by chunk. Returns `false` (and
    /// accepts nothing) when the link is severed at `now_s` — the caller
    /// sees a failed write, exactly like a reset socket.
    pub fn send(&mut self, bytes: &[u8], now_s: f64) -> bool {
        if self.plan.down_at(now_s) {
            self.stats.sends_refused += 1;
            return false;
        }
        if bytes.is_empty() {
            return true;
        }
        let mtu = self.plan.mtu.max(1);
        let n_chunks = bytes.len().div_ceil(mtu);
        // One fate per write, applied to one hash-chosen victim chunk: a
        // write is damaged with probability `drop + corrupt + reorder`
        // regardless of how many chunks it spans.
        let msg_h = mix3(self.plan.seed, self.nonce, 0xC4);
        let roll = unit_f64(mix(msg_h ^ 0x11));
        let fate = if roll < self.plan.drop_prob {
            1 // the victim chunk is silently lost
        } else if roll < self.plan.drop_prob + self.plan.corrupt_prob {
            2 // the victim chunk takes a bit flip
        } else if roll < self.plan.drop_prob + self.plan.corrupt_prob + self.plan.reorder_prob {
            3 // the victim chunk is displaced past its successors
        } else {
            0
        };
        let victim = (mix(msg_h ^ 0x33) as usize) % n_chunks;
        for (i, chunk) in bytes.chunks(mtu).enumerate() {
            let h = mix3(msg_h, i as u64, 0x55);
            self.nonce = self.nonce.wrapping_add(1);
            self.stats.chunks_sent += 1;
            self.stats.bytes_sent += chunk.len() as u64;
            let fated = i == victim;
            if fated && fate == 1 {
                self.stats.chunks_dropped += 1;
                continue; // lost in flight: the frame it carried is torn
            }
            let mut bytes = chunk.to_vec();
            if fated && fate == 2 {
                let pos = (mix(h ^ 0x33) as usize) % bytes.len();
                let bit = 1u8 << (mix(h ^ 0x44) % 8);
                bytes[pos] ^= bit;
                self.stats.chunks_corrupted += 1;
            }
            let mut arrival = now_s
                + self.plan.base_latency_s
                + self.plan.jitter_s * unit_f64(mix(h ^ 0x55))
                + self.plan.spike_extra(now_s);
            if fated && fate == 3 {
                // Push this chunk past its successors' nominal arrivals —
                // the one fate allowed to break stream order.
                arrival += self.plan.base_latency_s + self.plan.jitter_s + 0.01;
            } else {
                // Stream semantics: jitter stretches the pipe but delivery
                // stays in send order.
                arrival = arrival.max(self.horizon_s);
                self.horizon_s = arrival;
            }
            let seq = self.nonce;
            // Insert sorted by (arrival, seq): delivery order is a pure
            // function of the schedule, independent of poll cadence. Scan
            // from the back — stream-ordered arrivals append at the tail,
            // so the common case is O(1).
            let at = self
                .inflight
                .iter()
                .rposition(|c| (c.arrival_s, c.seq) <= (arrival, seq))
                .map_or(0, |i| i + 1);
            self.inflight.insert(at, Chunk { arrival_s: arrival, seq, bytes });
        }
        true
    }

    /// Appends every chunk due by `now_s` to `out`, in schedule order.
    /// Chunks whose arrival falls inside a severed window are dropped —
    /// the sever tears whatever was mid-flight.
    pub fn recv_into(&mut self, now_s: f64, out: &mut Vec<u8>) {
        while let Some(front) = self.inflight.front() {
            if front.arrival_s > now_s {
                break;
            }
            let Some(chunk) = self.inflight.pop_front() else {
                break;
            };
            if self.plan.down_at(chunk.arrival_s) {
                self.stats.chunks_dropped += 1;
                continue;
            }
            self.stats.bytes_delivered += chunk.bytes.len() as u64;
            out.extend_from_slice(&chunk.bytes);
        }
    }

    /// Chunks currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Drops every in-flight chunk (a crashed endpoint loses its socket
    /// buffers). Returns the number of chunks lost.
    pub fn flush_inflight(&mut self) -> usize {
        let n = self.inflight.len();
        self.stats.chunks_dropped += n as u64;
        self.inflight.clear();
        n
    }
}

/// A duplex link: `a_to_b` carries coordinator→site traffic, `b_to_a` the
/// replies.
#[derive(Debug)]
pub struct SimLink {
    /// Forward direction.
    pub a_to_b: Pipe,
    /// Reverse direction.
    pub b_to_a: Pipe,
}

impl SimLink {
    /// A link whose two directions share fault characteristics but use
    /// independent seeds (derived from the plans').
    pub fn new(forward: LinkFaultPlan, reverse: LinkFaultPlan) -> Self {
        SimLink {
            a_to_b: Pipe::new(forward),
            b_to_a: Pipe::new(reverse),
        }
    }

    /// A symmetric link from one plan (reverse seed derived).
    pub fn symmetric(plan: LinkFaultPlan) -> Self {
        let mut reverse = plan.clone();
        reverse.seed = mix(plan.seed ^ 0xB1DA);
        SimLink::new(plan, reverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::codec::{frame_bytes, FrameDecoder};

    #[test]
    fn clean_pipe_delivers_in_order_after_latency() {
        let mut p = Pipe::new(LinkFaultPlan::clean(1));
        assert!(p.send(b"hello ", 0.0));
        assert!(p.send(b"world", 0.001));
        let mut out = Vec::new();
        p.recv_into(0.01, &mut out);
        assert!(out.is_empty(), "nothing before latency elapses");
        p.recv_into(0.05, &mut out);
        assert_eq!(out, b"hello world");
        assert_eq!(p.stats.bytes_delivered, 11);
    }

    #[test]
    fn same_seed_same_stream_any_poll_cadence() {
        let run = |polls: &[f64]| {
            let mut p = Pipe::new(LinkFaultPlan::hostile(42));
            let mut out = Vec::new();
            for i in 0..40u64 {
                let payload = vec![i as u8; 100 + (i as usize % 37)];
                p.send(&frame_bytes(&payload), i as f64 * 0.1);
            }
            for &t in polls {
                p.recv_into(t, &mut out);
            }
            p.recv_into(1e9, &mut out);
            (out, p.stats)
        };
        let coarse = run(&[10.0]);
        let fine: (Vec<u8>, PipeStats) = run(&(0..1000).map(|i| i as f64 * 0.01).collect::<Vec<_>>());
        assert_eq!(coarse, fine, "delivery is a pure function of the seed");
    }

    #[test]
    fn severed_window_refuses_sends_and_tears_inflight() {
        let mut plan = LinkFaultPlan::clean(7);
        plan.base_latency_s = 1.0;
        plan.down = vec![(10.0, 20.0)];
        let mut p = Pipe::new(plan);
        assert!(p.send(b"before", 5.0)); // arrives at 6.0: fine
        assert!(p.send(b"torn", 9.5)); // arrives at 10.5: inside the sever
        assert!(!p.send(b"refused", 15.0));
        let mut out = Vec::new();
        p.recv_into(30.0, &mut out);
        assert_eq!(out, b"before");
        assert_eq!(p.stats.sends_refused, 1);
        assert_eq!(p.stats.chunks_dropped, 1);
    }

    #[test]
    fn hostile_pipe_with_codec_yields_only_crc_valid_frames() {
        let mut p = Pipe::new(LinkFaultPlan::hostile(3));
        let payloads: Vec<Vec<u8>> = (0..200u32)
            .map(|i| (0..(40 + i as usize % 200)).map(|j| (i as u8).wrapping_add(j as u8)).collect())
            .collect();
        for (i, payload) in payloads.iter().enumerate() {
            p.send(&frame_bytes(payload), i as f64 * 0.05);
        }
        let mut bytes = Vec::new();
        p.recv_into(1e9, &mut bytes);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        let got = d.drain_frames();
        assert!(!got.is_empty(), "some frames must survive");
        assert!(got.len() < payloads.len(), "some frames must be torn");
        for f in &got {
            assert!(payloads.contains(f), "no phantom frames");
        }
        assert!(d.stats.resyncs > 0, "torn frames force resyncs");
    }

    #[test]
    fn latency_spike_delays_chunks_sent_in_window() {
        let mut plan = LinkFaultPlan::clean(9);
        plan.base_latency_s = 0.1;
        plan.spikes = vec![(10.0, 11.0, 5.0)];
        let mut p = Pipe::new(plan);
        p.send(b"spiked", 10.5);
        let mut out = Vec::new();
        p.recv_into(11.0, &mut out);
        assert!(out.is_empty(), "held by the spike");
        p.recv_into(15.7, &mut out);
        assert_eq!(out, b"spiked");
    }

    #[test]
    fn crash_flush_drops_inflight_chunks() {
        let mut p = Pipe::new(LinkFaultPlan::clean(11));
        p.send(b"doomed bytes", 0.0);
        assert!(p.in_flight() > 0);
        assert_eq!(p.flush_inflight(), 1);
        let mut out = Vec::new();
        p.recv_into(1e9, &mut out);
        assert!(out.is_empty());
    }
}
