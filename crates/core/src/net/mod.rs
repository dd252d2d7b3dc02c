//! The cluster wire layer: framed transport between the coordinator and
//! its transmitter sites (ROADMAP item 1's "real socket boundary").
//!
//! Three stacked pieces, each independently testable:
//!
//! * [`codec`] — the `[len: u32][crc: u32][payload]` wire framing with
//!   byte-stream resynchronisation. Everything that crosses a link goes
//!   through it, so torn writes and bit flips surface as CRC failures and
//!   skipped bytes, never as phantom messages.
//! * [`transport`] — `SimTransport`: an in-process simulated byte link
//!   with seeded fault injection (partial writes, drops, corruption,
//!   reordering, latency spikes, severed windows). Every impairment is a
//!   pure function of `(seed, time, nonce)`, mirroring
//!   `sonic_radio::faults` — same seed, same byte stream, at any wall
//!   clock.
//! * [`proto`] + [`rpc`] — the control-plane messages (carousel pushes,
//!   repair bursts, health pings, warm-restart resumes) and the client
//!   machinery that retries them under per-RPC deadlines, exponential
//!   backoff, bounded queues and health-checked failover.
//!
//! The cluster built on top lives in `crate::server::cluster`.

pub mod codec;
pub mod proto;
pub mod rpc;
pub mod transport;

pub use codec::{FrameDecoder, MAX_WIRE_PAYLOAD, WIRE_HEADER};
pub use proto::{Msg, Request, Response};
pub use rpc::{JobClass, RpcClient};
pub use transport::{LinkFaultPlan, Pipe, SimLink};
