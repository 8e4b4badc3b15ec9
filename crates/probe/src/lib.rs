//! `wormhole-probe`: the measurement tool layer (scamper stand-in).
//!
//! * [`traceroute`](mod@traceroute) — ICMP-echo Paris traceroute with
//!   retries, gap limits, and the paper's start-at-TTL-2 campaign
//!   preset;
//! * [`ping`](mod@ping) — echo-request probing for TTL fingerprinting;
//! * [`trace`] — trace/hop records, rendered in the paper's Fig. 4
//!   listing style;
//! * [`session`] — per-vantage-point sessions with probe budget
//!   accounting;
//! * [`sink`] — streaming consumers of completed traces
//!   ([`TraceSink`], the shared JSONL emitter).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ping;
pub mod session;
pub mod sink;
pub mod trace;
pub mod traceroute;
pub mod wire;

pub use ping::{ping, PingFailure, PingReply, PingResult};
pub use session::{Session, SessionStats};
pub use sink::{phase_jsonl, stats_jsonl, trace_jsonl, JsonlSink, NullSink, TraceSink};
pub use trace::{AddrPath, HopOutcome, Trace, TraceHop};
pub use traceroute::{traceroute, TracerouteOpts};
