//! `wormhole-serve`: a resident campaign service over warm substrates.
//!
//! Building a synthetic Internet dominates the cost of every one-shot
//! campaign run — at the thousandfold scale the substrate build takes
//! multiples of the campaign itself. This crate keeps a long-lived
//! process holding one built [`wormhole_topo::Internet`] per scale and
//! serves campaign, trace, and lint requests over a length-prefixed
//! JSON protocol on a local Unix socket:
//!
//! * [`proto`] — the framing (4-byte big-endian length + JSON text)
//!   and the crate's one JSON reader, [`proto::Object`];
//! * [`history`] — a bounded circular buffer of recent campaign
//!   reports;
//! * [`server`] — the typed [`Request`] decoder, the accept loop, the
//!   per-scale warm-substrate store, the streaming campaign handler,
//!   and a blocking [`Client`].
//!
//! Campaign responses stream incrementally — one frame per merged
//! trace, emitted through the same [`wormhole_probe::TraceSink`] path
//! as `wormhole-cli campaign --emit jsonl` — and end with the
//! canonical byte-stable report, so a serve session and a batch CLI
//! run agree byte for byte. Every response carries a `warm` flag
//! proving whether the substrate was reused or built for this request.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod history;
pub mod proto;
pub mod server;

pub use history::{History, HistoryEntry};
pub use proto::{read_frame, write_frame};
pub use server::{Client, Request, ServeConfig, Server, ServerHandle};
