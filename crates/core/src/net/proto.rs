//! Control-plane messages between the coordinator and its sites.
//!
//! Hand-rolled big-endian serialization over the [`super::codec`] wire
//! framing: one encoded `Msg` per wire frame, read back through
//! [`ByteReader`]. Decoding is *total* — any byte sequence either parses
//! or returns `None`; a truncated or tag-corrupted message can never panic
//! (the outer CRC makes this rare, but the decoder does not rely on it).
//!
//! Link [`Frame`]s ride inside [`Request::PushFrames`] in their on-air
//! 100-byte encoding, so payload integrity is double-checked: the wire
//! frame's CRC-32 first, each link frame's own CRC-32 after.

use crate::frame::{Frame, FRAME_SIZE};
use crate::server::scheduler::SlotKind;
use sonic_image::bitio::ByteReader;

/// Most link frames allowed in one `PushFrames` message. A full page at
/// paper scales is a few hundred frames; the bound only rejects damaged
/// or adversarial length words.
pub const MAX_FRAMES_PER_MSG: usize = 4096;

/// Most carousel jobs allowed in one `Resume` message.
pub const MAX_JOBS_PER_MSG: usize = 65_536;

/// Why a site refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseCode {
    /// The referenced artifact is not in the site's store tier.
    StoreMiss,
    /// The site's scheduler backlog is full (load shed).
    Overloaded,
    /// The request could not be interpreted.
    BadRequest,
}

impl RefuseCode {
    fn to_byte(self) -> u8 {
        match self {
            RefuseCode::StoreMiss => 1,
            RefuseCode::Overloaded => 2,
            RefuseCode::BadRequest => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RefuseCode::StoreMiss),
            2 => Some(RefuseCode::Overloaded),
            3 => Some(RefuseCode::BadRequest),
            _ => None,
        }
    }
}

/// A coordinator→site request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Health probe; also the backlog poll.
    Ping,
    /// Enqueue a carousel page the site can load from the shared artifact
    /// store (the cheap path: ~26 bytes on the wire, frames re-derived
    /// site-side from the disk tier).
    PushStored {
        /// Corpus site index of the artifact key.
        corpus_site: u32,
        /// Corpus page index of the artifact key.
        corpus_page: u32,
        /// Hour the artifact was refreshed for.
        hour: u64,
    },
    /// Enqueue pre-chunked link frames (query-result pages and repair
    /// bursts, which never touch the artifact store).
    PushFrames {
        /// On-air page id the frames belong to.
        page_id: u32,
        /// Carousel slot class the frames occupy.
        kind: SlotKind,
        /// The link frames, each individually CRC-protected.
        frames: Vec<Frame>,
    },
    /// Warm-restart instruction: reload the hour's carousel from the
    /// store, skipping the first `slot` jobs (already aired before the
    /// crash).
    Resume {
        /// Hour whose carousel to resume.
        hour: u64,
        /// Jobs already completed — resume after them.
        slot: u32,
        /// The hour's carousel as (corpus site, corpus page) keys.
        jobs: Vec<(u32, u32)>,
    },
}

/// A site→coordinator response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Health + backlog snapshot.
    Pong {
        /// Responding transmitter site id.
        site_id: u32,
        /// Scheduler backlog in bytes.
        backlog_bytes: u64,
        /// Scheduler backlog in pages.
        backlog_pages: u32,
        /// Queue entries fully aired since the site (re)started.
        pages_completed: u64,
    },
    /// Request accepted; `eta_ms` estimates broadcast completion.
    Done {
        /// Milliseconds until the pushed content finishes airing.
        eta_ms: u64,
    },
    /// Request refused.
    Refused {
        /// Why.
        code: RefuseCode,
    },
}

/// One framed control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A request with its RPC correlation id.
    Req {
        /// Correlation id echoed by the response.
        id: u64,
        /// Body.
        req: Request,
    },
    /// A response correlated to a request id.
    Resp {
        /// The request's correlation id.
        id: u64,
        /// Body.
        resp: Response,
    },
}

fn slot_kind_byte(kind: SlotKind) -> u8 {
    match kind {
        SlotKind::Full => 0,
        SlotKind::Delta => 1,
        SlotKind::Repair => 2,
    }
}

fn slot_kind_from(b: u8) -> Option<SlotKind> {
    match b {
        0 => Some(SlotKind::Full),
        1 => Some(SlotKind::Delta),
        2 => Some(SlotKind::Repair),
        _ => None,
    }
}

/// Serializes `msg` into `out` (append-only).
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    match msg {
        Msg::Req { id, req } => {
            out.push(0x01);
            out.extend_from_slice(&id.to_be_bytes());
            match req {
                Request::Ping => out.push(0x10),
                Request::PushStored {
                    corpus_site,
                    corpus_page,
                    hour,
                } => {
                    out.push(0x11);
                    out.extend_from_slice(&corpus_site.to_be_bytes());
                    out.extend_from_slice(&corpus_page.to_be_bytes());
                    out.extend_from_slice(&hour.to_be_bytes());
                }
                Request::PushFrames {
                    page_id,
                    kind,
                    frames,
                } => {
                    out.push(0x12);
                    out.extend_from_slice(&page_id.to_be_bytes());
                    out.push(slot_kind_byte(*kind));
                    // lint: checked-cast — a page is at most a few thousand frames, far below u32::MAX
                    out.extend_from_slice(&(frames.len() as u32).to_be_bytes());
                    for f in frames {
                        out.extend_from_slice(&f.encode());
                    }
                }
                Request::Resume { hour, slot, jobs } => {
                    out.push(0x13);
                    out.extend_from_slice(&hour.to_be_bytes());
                    out.extend_from_slice(&slot.to_be_bytes());
                    // lint: checked-cast — resume job lists are small (one entry per in-flight page)
                    out.extend_from_slice(&(jobs.len() as u32).to_be_bytes());
                    for &(s, p) in jobs {
                        out.extend_from_slice(&s.to_be_bytes());
                        out.extend_from_slice(&p.to_be_bytes());
                    }
                }
            }
        }
        Msg::Resp { id, resp } => {
            out.push(0x02);
            out.extend_from_slice(&id.to_be_bytes());
            match resp {
                Response::Pong {
                    site_id,
                    backlog_bytes,
                    backlog_pages,
                    pages_completed,
                } => {
                    out.push(0x20);
                    out.extend_from_slice(&site_id.to_be_bytes());
                    out.extend_from_slice(&backlog_bytes.to_be_bytes());
                    out.extend_from_slice(&backlog_pages.to_be_bytes());
                    out.extend_from_slice(&pages_completed.to_be_bytes());
                }
                Response::Done { eta_ms } => {
                    out.push(0x21);
                    out.extend_from_slice(&eta_ms.to_be_bytes());
                }
                Response::Refused { code } => {
                    out.push(0x22);
                    out.push(code.to_byte());
                }
            }
        }
    }
}

/// Deserializes one message. Total: returns `None` on any malformed,
/// truncated or trailing-garbage input.
pub fn decode_msg(buf: &[u8]) -> Option<Msg> {
    let mut c = ByteReader::new(buf);
    let msg = match c.u8()? {
        0x01 => {
            let id = c.u64()?;
            let req = match c.u8()? {
                0x10 => Request::Ping,
                0x11 => Request::PushStored {
                    corpus_site: c.u32()?,
                    corpus_page: c.u32()?,
                    hour: c.u64()?,
                },
                0x12 => {
                    let page_id = c.u32()?;
                    let kind = slot_kind_from(c.u8()?)?;
                    let n = c.u32()? as usize;
                    if n > MAX_FRAMES_PER_MSG {
                        return None;
                    }
                    let mut frames = Vec::with_capacity(n);
                    for _ in 0..n {
                        let raw = c.take(FRAME_SIZE)?;
                        frames.push(Frame::decode(raw).ok()?);
                    }
                    Request::PushFrames {
                        page_id,
                        kind,
                        frames,
                    }
                }
                0x13 => {
                    let hour = c.u64()?;
                    let slot = c.u32()?;
                    let n = c.u32()? as usize;
                    if n > MAX_JOBS_PER_MSG {
                        return None;
                    }
                    let mut jobs = Vec::with_capacity(n);
                    for _ in 0..n {
                        jobs.push((c.u32()?, c.u32()?));
                    }
                    Request::Resume { hour, slot, jobs }
                }
                _ => return None,
            };
            Msg::Req { id, req }
        }
        0x02 => {
            let id = c.u64()?;
            let resp = match c.u8()? {
                0x20 => Response::Pong {
                    site_id: c.u32()?,
                    backlog_bytes: c.u64()?,
                    backlog_pages: c.u32()?,
                    pages_completed: c.u64()?,
                },
                0x21 => Response::Done { eta_ms: c.u64()? },
                0x22 => Response::Refused {
                    code: RefuseCode::from_byte(c.u8()?)?,
                },
                _ => return None,
            };
            Msg::Resp { id, resp }
        }
        _ => return None,
    };
    if c.remaining() != 0 {
        return None; // trailing bytes: not a clean message
    }
    Some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::page_to_frames;
    use crate::page::SimplifiedPage;
    use sonic_image::clickmap::ClickMap;
    use sonic_image::raster::{Raster, Rgb};

    fn round_trip(msg: Msg) {
        let mut bytes = Vec::new();
        encode_msg(&msg, &mut bytes);
        assert_eq!(decode_msg(&bytes), Some(msg));
    }

    #[test]
    fn all_message_kinds_round_trip() {
        round_trip(Msg::Req { id: 1, req: Request::Ping });
        round_trip(Msg::Req {
            id: u64::MAX,
            req: Request::PushStored {
                corpus_site: 3,
                corpus_page: 9,
                hour: 17,
            },
        });
        round_trip(Msg::Req {
            id: 2,
            req: Request::Resume {
                hour: 5,
                slot: 3,
                jobs: vec![(0, 0), (1, 4), (9, 2)],
            },
        });
        round_trip(Msg::Resp {
            id: 7,
            resp: Response::Pong {
                site_id: 4,
                backlog_bytes: 123_456,
                backlog_pages: 17,
                pages_completed: 99,
            },
        });
        round_trip(Msg::Resp { id: 8, resp: Response::Done { eta_ms: 65_000 } });
        round_trip(Msg::Resp {
            id: 9,
            resp: Response::Refused { code: RefuseCode::StoreMiss },
        });
        round_trip(Msg::Resp {
            id: 10,
            resp: Response::Refused { code: RefuseCode::Overloaded },
        });
        round_trip(Msg::Resp {
            id: 11,
            resp: Response::Refused { code: RefuseCode::BadRequest },
        });
    }

    #[test]
    fn push_frames_round_trips_link_frames() {
        let img = Raster::filled(6, 30, Rgb::new(10, 40, 90));
        let page = SimplifiedPage::from_raster("https://w.pk/", &img, ClickMap::default(), 1, 2);
        let frames = page_to_frames(&page);
        let msg = Msg::Req {
            id: 41,
            req: Request::PushFrames {
                page_id: page.page_id,
                kind: crate::server::scheduler::SlotKind::Repair,
                frames: frames.clone(),
            },
        };
        let mut bytes = Vec::new();
        encode_msg(&msg, &mut bytes);
        match decode_msg(&bytes) {
            Some(Msg::Req {
                req: Request::PushFrames { frames: got, .. },
                ..
            }) => assert_eq!(got, frames),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn truncations_and_flips_never_panic() {
        let msg = Msg::Req {
            id: 3,
            req: Request::Resume {
                hour: 1,
                slot: 0,
                jobs: vec![(1, 2), (3, 4)],
            },
        };
        let mut bytes = Vec::new();
        encode_msg(&msg, &mut bytes);
        for cut in 0..bytes.len() {
            let _ = decode_msg(&bytes[..cut]); // must not panic
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = decode_msg(&b); // must not panic
        }
    }

    #[test]
    fn absurd_length_words_are_rejected_not_allocated() {
        // A Resume claiming u32::MAX jobs must fail fast.
        let mut bytes = Vec::new();
        bytes.push(0x01);
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.push(0x13);
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_msg(&bytes), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Vec::new();
        encode_msg(&Msg::Req { id: 1, req: Request::Ping }, &mut bytes);
        assert!(decode_msg(&bytes).is_some());
        bytes.push(0);
        assert_eq!(decode_msg(&bytes), None);
    }
}
