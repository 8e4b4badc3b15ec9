//! Streaming consumers of completed traces.
//!
//! A [`TraceSink`] receives traces one at a time as probing completes
//! them, so consumers (a JSONL emitter, a serving socket, an
//! incremental aggregator) never need a whole phase buffered in front
//! of them. The campaign layer drives one with merged traces in
//! global order, which is how the batch CLI's `--emit jsonl` mode and
//! `wormhole-serve` share a single emission path.

use crate::trace::{HopOutcome, Trace};
use std::io::Write;
use wormhole_net::{EngineStats, ReplyKind};

/// A consumer of completed traces and engine-counter deltas.
///
/// `vp` is caller-defined attribution (the campaign passes the
/// vantage-point index).
pub trait TraceSink {
    /// One completed trace.
    fn on_trace(&mut self, vp: usize, trace: &Trace);

    /// Engine counters accumulated since the previous `on_stats` call
    /// (the campaign calls it once per phase).
    fn on_stats(&mut self, delta: &EngineStats) {
        let _ = delta;
    }

    /// A phase boundary marker (campaign-level sinks only).
    fn on_phase(&mut self, phase: &str) {
        let _ = phase;
    }
}

/// The do-nothing sink: `Campaign::run` streams into this.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_trace(&mut self, _vp: usize, _trace: &Trace) {}
}

/// The difference between two cumulative counter snapshots (all fields
/// are monotone counters, so `after - before` is well-defined).
pub fn stats_delta(before: &EngineStats, after: &EngineStats) -> EngineStats {
    EngineStats {
        probes: after.probes - before.probes,
        crossings: after.crossings - before.crossings,
        replies: after.replies - before.replies,
        lost: after.lost - before.lost,
        heap_allocs: after.heap_allocs - before.heap_allocs,
    }
}

/// Streams traces as JSON Lines: one self-contained JSON object per
/// line, hand-rendered with a fixed field order so the same campaign
/// emits byte-identical streams from the CLI and from `wormhole-serve`.
pub struct JsonlSink<W: Write> {
    out: W,
    emit_stats: bool,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing trace lines to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            emit_stats: false,
        }
    }

    /// Also emit `{"type":"stats",...}` delta lines and
    /// `{"type":"phase",...}` markers.
    pub fn with_stats(mut self) -> JsonlSink<W> {
        self.emit_stats = true;
        self
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn on_trace(&mut self, vp: usize, trace: &Trace) {
        let _ = writeln!(self.out, "{}", trace_jsonl(vp, trace));
    }

    fn on_stats(&mut self, delta: &EngineStats) {
        if self.emit_stats {
            let _ = writeln!(self.out, "{}", stats_jsonl(delta));
        }
    }

    fn on_phase(&mut self, phase: &str) {
        if self.emit_stats {
            let _ = writeln!(self.out, "{{\"type\":\"phase\",\"phase\":\"{phase}\"}}");
        }
    }
}

fn kind_label(kind: ReplyKind) -> &'static str {
    match kind {
        ReplyKind::EchoReply => "echo-reply",
        ReplyKind::TimeExceeded => "time-exceeded",
        ReplyKind::DestUnreachable => "unreachable",
    }
}

fn outcome_label(outcome: HopOutcome) -> &'static str {
    match outcome {
        HopOutcome::Replied => "replied",
        HopOutcome::Silent => "silent",
        HopOutcome::RateLimited => "rate-limited",
        HopOutcome::Unreachable => "unreachable",
        HopOutcome::Lost => "lost",
        HopOutcome::BudgetExhausted => "budget-exhausted",
    }
}

/// Renders one trace as a single JSON line (no trailing newline).
/// Every value is either numeric, boolean, or a string with no
/// escapable characters (dotted-quad addresses, fixed enum labels), so
/// no escaping pass is needed — asserted in tests.
pub fn trace_jsonl(vp: usize, t: &Trace) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(128 + t.hops.len() * 96);
    let _ = write!(
        s,
        "{{\"type\":\"trace\",\"vp\":{vp},\"src\":\"{}\",\"dst\":\"{}\",\"flow\":{},\
         \"reached\":{},\"probes\":{},\"truncated\":{},\"hops\":[",
        t.src, t.dst, t.flow, t.reached, t.probes, t.truncated
    );
    for (i, h) in t.hops.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"ttl\":{}", h.ttl);
        if let Some(a) = h.addr {
            let _ = write!(s, ",\"addr\":\"{a}\"");
        }
        if let Some(ttl) = h.reply_ip_ttl {
            let _ = write!(s, ",\"reply_ttl\":{ttl}");
        }
        if let Some(rtt) = h.rtt_ms {
            let _ = write!(s, ",\"rtt_ms\":{rtt:.6}");
        }
        if let Some(kind) = h.kind {
            let _ = write!(s, ",\"kind\":\"{}\"", kind_label(kind));
        }
        if !h.labels.is_empty() {
            s.push_str(",\"labels\":[");
            for (k, lse) in h.labels.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{lse}\"");
            }
            s.push(']');
        }
        let _ = write!(
            s,
            ",\"outcome\":\"{}\",\"attempts\":{}}}",
            outcome_label(h.outcome),
            h.attempts
        );
    }
    s.push_str("]}");
    s
}

/// Renders an engine-counter delta as a single JSON line.
pub fn stats_jsonl(d: &EngineStats) -> String {
    format!(
        "{{\"type\":\"stats\",\"probes\":{},\"crossings\":{},\"replies\":{},\"lost\":{},\
         \"heap_allocs\":{}}}",
        d.probes, d.crossings, d.replies, d.lost, d.heap_allocs
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceHop;
    use wormhole_net::{Addr, Label, Lse};

    fn sample() -> Trace {
        let replied = TraceHop {
            ttl: 2,
            addr: Some(Addr::new(10, 0, 0, 1)),
            reply_ip_ttl: Some(253),
            rtt_ms: Some(1.25),
            labels: [Lse::new(Label(19), 1), Lse::new(Label(20), 2)]
                .into_iter()
                .collect(),
            kind: Some(ReplyKind::TimeExceeded),
            outcome: HopOutcome::Replied,
            attempts: 1,
            truth: None,
        };
        Trace {
            src: Addr::new(10, 9, 0, 1),
            dst: Addr::new(10, 0, 0, 9),
            flow: 7,
            hops: vec![replied, TraceHop::star(3)],
            reached: false,
            probes: 4,
            truncated: false,
        }
    }

    #[test]
    fn trace_line_shape() {
        let line = trace_jsonl(3, &sample());
        assert!(line.starts_with("{\"type\":\"trace\",\"vp\":3,"));
        assert!(line.contains("\"dst\":\"10.0.0.9\""));
        assert!(line.contains("\"rtt_ms\":1.250000"));
        assert!(line.contains("\"kind\":\"time-exceeded\""));
        assert!(line.contains("\"outcome\":\"lost\""));
        assert!(line.contains("\"labels\":[\"MPLS Label 19 TTL=1\",\"MPLS Label 20 TTL=2\"]"));
        assert!(line.ends_with("]}"));
        assert!(!line.contains('\n'));
        // No value needs JSON escaping: addresses are dotted quads and
        // enum labels are fixed — the whole line must stay escape-free.
        assert!(!line.contains('\\'));
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonlSink::new(Vec::new()).with_stats();
        sink.on_phase("probe");
        sink.on_trace(0, &sample());
        sink.on_stats(&EngineStats {
            probes: 4,
            crossings: 9,
            replies: 3,
            lost: 1,
            heap_allocs: 0,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"type\":\"phase\",\"phase\":\"probe\"}");
        assert!(lines[1].starts_with("{\"type\":\"trace\""));
        assert_eq!(
            lines[2],
            "{\"type\":\"stats\",\"probes\":4,\"crossings\":9,\"replies\":3,\"lost\":1,\
             \"heap_allocs\":0}"
        );
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let before = EngineStats {
            probes: 10,
            crossings: 50,
            replies: 8,
            lost: 2,
            heap_allocs: 0,
        };
        let mut after = before.clone();
        after.merge(&EngineStats {
            probes: 5,
            crossings: 21,
            replies: 4,
            lost: 1,
            heap_allocs: 0,
        });
        let d = stats_delta(&before, &after);
        assert_eq!(d.probes, 5);
        assert_eq!(d.crossings, 21);
        assert_eq!(d.replies, 4);
        assert_eq!(d.lost, 1);
    }
}
