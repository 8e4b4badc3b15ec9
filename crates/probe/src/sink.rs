//! Streaming consumers of completed traces.
//!
//! A [`TraceSink`] receives traces one at a time as probing completes
//! them, so consumers (a JSONL emitter, a serving socket, an
//! incremental aggregator) never need a whole phase buffered in front
//! of them. The campaign layer drives one with merged traces in
//! global order, which is how the batch CLI's `--emit jsonl` mode and
//! `wormhole-serve` share a single emission path.

use crate::trace::{HopOutcome, Trace};
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use wormhole_net::text::{addr, boolean, int, lse};
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

/// Streams a campaign as JSON Lines: one self-contained JSON object per
/// line — phase markers, [`write_trace_jsonl`] traces and engine
/// counter deltas — hand-rendered with a fixed field order so the same
/// campaign emits byte-identical streams from the CLI and from
/// `wormhole-serve`.
///
/// Each line is rendered into one reused buffer and handed to the
/// sink's framing: a newline after it ([`JsonlSink::new`]) or the
/// caller's own ([`JsonlSink::framed`], serve's length-prefixed
/// frames). The first write error is kept: the sink writes nothing
/// after it, and the next [`JsonlSink::flush`] or
/// [`JsonlSink::finish`] returns it, so a closed destination surfaces
/// once.
pub struct JsonlSink<W: Write> {
    out: W,
    frame: fn(&mut W, &str) -> io::Result<()>,
    line: String,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing newline-terminated lines to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink::framed(out, |out, line| {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")
        })
    }

    /// A sink writing each line to `out` through `frame`.
    pub fn framed(out: W, frame: fn(&mut W, &str) -> io::Result<()>) -> JsonlSink<W> {
        JsonlSink {
            out,
            frame,
            line: String::new(),
            error: None,
        }
    }

    /// Renders one line through `render` and writes it, unless an
    /// earlier line failed.
    pub fn write_line(&mut self, render: impl FnOnce(&mut String) -> fmt::Result) {
        if self.error.is_none() {
            self.line.clear();
            render(&mut self.line).expect("writing to a String cannot fail");
            self.error = (self.frame)(&mut self.out, &self.line).err();
        }
    }

    /// Flushes the writer, or returns the error a line met (once).
    pub fn flush(&mut self) -> io::Result<()> {
        self.error.take().map_or_else(|| self.out.flush(), Err)
    }

    /// The writer, flushed, or the first error writing or flushing it
    /// met.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush().map(|()| self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn on_trace(&mut self, vp: usize, trace: &Trace) {
        self.write_line(|s| write_trace_jsonl(s, vp, trace));
    }

    /// `{"type":"stats",…}`, every counter of the delta.
    fn on_stats(&mut self, d: &EngineStats) {
        self.write_line(|s| {
            write!(
                s,
                "{{\"type\":\"stats\",\"probes\":{},\"crossings\":{},\"replies\":{},\"lost\":{},\
                 \"heap_allocs\":{}}}",
                d.probes, d.crossings, d.replies, d.lost, d.heap_allocs
            )
        });
    }

    /// `{"type":"phase",…}`. Phase names are fixed labels that need no
    /// escaping.
    fn on_phase(&mut self, phase: &str) {
        self.write_line(|s| write!(s, "{{\"type\":\"phase\",\"phase\":\"{phase}\"}}"));
    }
}

/// Writes one trace as a single JSON line (no trailing newline).
/// Every value is either numeric, boolean, or a string with no
/// escapable characters (dotted-quad addresses, label entries, fixed
/// enum labels), so no escaping pass is needed — asserted in tests.
pub fn write_trace_jsonl<W: fmt::Write>(w: &mut W, vp: usize, t: &Trace) -> fmt::Result {
    w.write_str("{\"type\":\"trace\",\"vp\":")?;
    int(w, vp as u64)?;
    w.write_str(",\"src\":\"")?;
    addr(w, t.src)?;
    w.write_str("\",\"dst\":\"")?;
    addr(w, t.dst)?;
    w.write_str("\",\"flow\":")?;
    int(w, u64::from(t.flow))?;
    w.write_str(",\"reached\":")?;
    boolean(w, t.reached)?;
    w.write_str(",\"probes\":")?;
    int(w, u64::from(t.probes))?;
    w.write_str(",\"truncated\":")?;
    boolean(w, t.truncated)?;
    w.write_str(",\"hops\":[")?;
    for (i, h) in t.hops.iter().enumerate() {
        w.write_str(if i > 0 { ",{\"ttl\":" } else { "{\"ttl\":" })?;
        int(w, u64::from(h.ttl))?;
        if let Some(a) = h.addr {
            w.write_str(",\"addr\":\"")?;
            addr(w, a)?;
            w.write_char('"')?;
        }
        if let Some(ttl) = h.reply_ip_ttl {
            w.write_str(",\"reply_ttl\":")?;
            int(w, u64::from(ttl))?;
        }
        if let Some(rtt) = h.rtt_ms {
            write!(w, ",\"rtt_ms\":{rtt:.6}")?;
        }
        if let Some(kind) = h.kind {
            w.write_str(match kind {
                ReplyKind::EchoReply => ",\"kind\":\"echo-reply\"",
                ReplyKind::TimeExceeded => ",\"kind\":\"time-exceeded\"",
                ReplyKind::DestUnreachable => ",\"kind\":\"unreachable\"",
            })?;
        }
        if !h.labels.is_empty() {
            w.write_str(",\"labels\":[")?;
            for (k, e) in h.labels.iter().enumerate() {
                w.write_str(if k > 0 { ",\"" } else { "\"" })?;
                lse(w, e)?;
                w.write_char('"')?;
            }
            w.write_char(']')?;
        }
        w.write_str(match h.outcome {
            HopOutcome::Replied => ",\"outcome\":\"replied\",\"attempts\":",
            HopOutcome::Silent => ",\"outcome\":\"silent\",\"attempts\":",
            HopOutcome::RateLimited => ",\"outcome\":\"rate-limited\",\"attempts\":",
            HopOutcome::Unreachable => ",\"outcome\":\"unreachable\",\"attempts\":",
            HopOutcome::Lost => ",\"outcome\":\"lost\",\"attempts\":",
            HopOutcome::BudgetExhausted => ",\"outcome\":\"budget-exhausted\",\"attempts\":",
        })?;
        int(w, u64::from(h.attempts))?;
        w.write_char('}')?;
    }
    w.write_str("]}")
}

/// [`write_trace_jsonl`] into a fresh `String`. Outside tests only the
/// benchmark's `probe.trace_jsonl` layer calls it; the benchmark change
/// in ROADMAP.md can time the writer instead and delete this.
pub fn trace_jsonl(vp: usize, t: &Trace) -> String {
    let mut s = String::with_capacity(128 + t.hops.len() * 96);
    write_trace_jsonl(&mut s, vp, t).expect("writing to a String cannot fail");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceHop;
    use proptest::prelude::*;
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

    /// The trace line as `write!` renders it: every field through its
    /// `Display` impl.
    fn reference_line(vp: usize, t: &Trace) -> String {
        let mut s = format!(
            "{{\"type\":\"trace\",\"vp\":{vp},\"src\":\"{}\",\"dst\":\"{}\",\"flow\":{},\
             \"reached\":{},\"probes\":{},\"truncated\":{},\"hops\":[",
            t.src, t.dst, t.flow, t.reached, t.probes, t.truncated
        );
        for (i, h) in t.hops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s += &format!("{{\"ttl\":{}", h.ttl);
            if let Some(a) = h.addr {
                s += &format!(",\"addr\":\"{a}\"");
            }
            if let Some(ttl) = h.reply_ip_ttl {
                s += &format!(",\"reply_ttl\":{ttl}");
            }
            if let Some(rtt) = h.rtt_ms {
                s += &format!(",\"rtt_ms\":{rtt:.6}");
            }
            if let Some(kind) = h.kind {
                s += &format!(",\"kind\":\"{}\"", kind_label(kind));
            }
            if !h.labels.is_empty() {
                let labels: Vec<String> = h.labels.iter().map(|e| format!("\"{e}\"")).collect();
                s += &format!(",\"labels\":[{}]", labels.join(","));
            }
            s += &format!(
                ",\"outcome\":\"{}\",\"attempts\":{}}}",
                outcome_label(h.outcome),
                h.attempts
            );
        }
        s + "]}"
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
        assert_eq!(line, reference_line(3, &sample()));
    }

    proptest! {
        #[test]
        fn trace_lines_match_std_formatting(
            ids in (any::<u32>(), any::<u32>(), any::<u16>(), any::<u32>()),
            hop in (any::<u32>(), any::<u8>(), 0u32..1_000_000, any::<u8>()),
            labels in (0u32..=0xF_FFFF, any::<u8>(), 0u32..=0xF_FFFF, any::<u8>()),
            vp in any::<usize>(),
        ) {
            let (src, dst, flow, probes) = ids;
            let (at, ttl, rtt, pick) = hop;
            let (l1, t1, l2, t2) = labels;
            let stack: wormhole_net::LabelStack =
                [Lse::new(Label(l1), t1), Lse::new(Label(l2), t2)].into_iter().collect();
            let kinds = [ReplyKind::EchoReply, ReplyKind::TimeExceeded, ReplyKind::DestUnreachable];
            let replied = TraceHop {
                ttl,
                addr: Some(Addr(at)),
                reply_ip_ttl: (pick & 1 == 1).then_some(ttl),
                rtt_ms: (pick & 2 == 2).then_some(f64::from(rtt) / 1000.0),
                labels: if pick & 4 == 4 { stack } else { Default::default() },
                kind: (pick & 8 == 8).then_some(kinds[usize::from(pick) % 3]),
                outcome: HopOutcome::Replied,
                attempts: pick,
                truth: None,
            };
            let outcomes = [
                HopOutcome::Replied,
                HopOutcome::Silent,
                HopOutcome::RateLimited,
                HopOutcome::Unreachable,
                HopOutcome::Lost,
                HopOutcome::BudgetExhausted,
            ];
            let star = TraceHop {
                outcome: outcomes[usize::from(pick) % 6],
                ..TraceHop::star(ttl)
            };
            let t = Trace {
                src: Addr(src),
                dst: Addr(dst),
                flow,
                hops: vec![star, replied],
                reached: pick & 16 == 16,
                probes,
                truncated: pick & 32 == 32,
            };
            prop_assert_eq!(trace_jsonl(vp, &t), reference_line(vp, &t));
        }
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_phase("probe");
        sink.on_trace(0, &sample());
        sink.on_stats(&EngineStats {
            probes: 4,
            crossings: 9,
            replies: 3,
            lost: 1,
            heap_allocs: 0,
        });
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"type\":\"phase\",\"phase\":\"probe\"}");
        assert_eq!(lines[1], trace_jsonl(0, &sample()));
        assert_eq!(
            lines[2],
            "{\"type\":\"stats\",\"probes\":4,\"crossings\":9,\"replies\":3,\"lost\":1,\
             \"heap_allocs\":0}"
        );
    }

    #[test]
    fn a_failed_write_stops_the_stream_and_surfaces_once() {
        /// Accepts `.0` more writes, then fails every one.
        #[derive(Debug)]
        struct Closed(usize);
        impl Write for Closed {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 = self.0.checked_sub(1).ok_or(io::ErrorKind::BrokenPipe)?;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Closed(3));
        sink.on_phase("probe");
        sink.on_trace(0, &sample());
        sink.on_trace(1, &sample());
        sink.write_line(|s| s.write_str("done"));
        assert_eq!(sink.out.0, 0, "nothing is written after the failed line");
        assert_eq!(sink.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert!(sink.finish().is_ok(), "the error surfaces once");
    }
}
