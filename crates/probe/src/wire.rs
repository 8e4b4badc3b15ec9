//! Wire codecs for probe-layer records.
//!
//! Distributed campaign workers ship completed traces and ping results
//! back to the master as length-prefixed shard files
//! (`wormhole_core::distributed`); these [`Wire`] impls define the
//! byte layout of the probe-layer payloads. Floats travel as raw IEEE
//! bits, so a decoded record is *equal* to the encoded one — not
//! merely close — which is what lets a file-level merge reproduce the
//! in-process report byte for byte.

use crate::ping::{PingFailure, PingReply, PingResult};
use crate::trace::{HopOutcome, Trace, TraceHop};
use crate::traceroute::TracerouteOpts;
use wormhole_net::wire::{Reader, Wire, WireError};

impl Wire for TracerouteOpts {
    fn put(&self, out: &mut Vec<u8>) {
        self.start_ttl.put(out);
        self.max_ttl.put(out);
        self.attempts.put(out);
        self.gap_limit.put(out);
        self.probe_budget.put(out);
        self.backoff_ms.put(out);
        self.adaptive.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<TracerouteOpts, WireError> {
        let start_ttl = Wire::take(r)?;
        if start_ttl == 0 {
            // The engine refuses TTL-0 probes; reject them at decode.
            return Err(WireError::Corrupt("traceroute start TTL 0"));
        }
        Ok(TracerouteOpts {
            start_ttl,
            max_ttl: Wire::take(r)?,
            attempts: Wire::take(r)?,
            gap_limit: Wire::take(r)?,
            probe_budget: Wire::take(r)?,
            backoff_ms: Wire::take(r)?,
            adaptive: Wire::take(r)?,
        })
    }
}

impl Wire for HopOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            HopOutcome::Replied => 0,
            HopOutcome::Silent => 1,
            HopOutcome::RateLimited => 2,
            HopOutcome::Unreachable => 3,
            HopOutcome::Lost => 4,
            HopOutcome::BudgetExhausted => 5,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<HopOutcome, WireError> {
        Ok(match u8::take(r)? {
            0 => HopOutcome::Replied,
            1 => HopOutcome::Silent,
            2 => HopOutcome::RateLimited,
            3 => HopOutcome::Unreachable,
            4 => HopOutcome::Lost,
            5 => HopOutcome::BudgetExhausted,
            _ => return Err(WireError::Corrupt("hop outcome tag")),
        })
    }
}

impl Wire for TraceHop {
    fn put(&self, out: &mut Vec<u8>) {
        self.ttl.put(out);
        self.addr.put(out);
        self.reply_ip_ttl.put(out);
        self.rtt_ms.put(out);
        self.labels.put(out);
        self.kind.put(out);
        self.outcome.put(out);
        self.attempts.put(out);
        self.truth.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<TraceHop, WireError> {
        Ok(TraceHop {
            ttl: Wire::take(r)?,
            addr: Wire::take(r)?,
            reply_ip_ttl: Wire::take(r)?,
            rtt_ms: Wire::take(r)?,
            labels: Wire::take(r)?,
            kind: Wire::take(r)?,
            outcome: Wire::take(r)?,
            attempts: Wire::take(r)?,
            truth: Wire::take(r)?,
        })
    }
}

impl Wire for Trace {
    fn put(&self, out: &mut Vec<u8>) {
        self.src.put(out);
        self.dst.put(out);
        self.flow.put(out);
        self.hops.put(out);
        self.reached.put(out);
        self.probes.put(out);
        self.truncated.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Trace, WireError> {
        Ok(Trace {
            src: Wire::take(r)?,
            dst: Wire::take(r)?,
            flow: Wire::take(r)?,
            hops: Wire::take(r)?,
            reached: Wire::take(r)?,
            probes: Wire::take(r)?,
            truncated: Wire::take(r)?,
        })
    }
}

impl Wire for PingFailure {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            PingFailure::RateLimited => 0,
            PingFailure::Silent => 1,
            PingFailure::Unreachable => 2,
            PingFailure::Lost => 3,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<PingFailure, WireError> {
        Ok(match u8::take(r)? {
            0 => PingFailure::RateLimited,
            1 => PingFailure::Silent,
            2 => PingFailure::Unreachable,
            3 => PingFailure::Lost,
            _ => return Err(WireError::Corrupt("ping failure tag")),
        })
    }
}

impl Wire for PingReply {
    fn put(&self, out: &mut Vec<u8>) {
        self.from.put(out);
        self.reply_ip_ttl.put(out);
        self.rtt_ms.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<PingReply, WireError> {
        Ok(PingReply {
            from: Wire::take(r)?,
            reply_ip_ttl: Wire::take(r)?,
            rtt_ms: Wire::take(r)?,
        })
    }
}

impl Wire for PingResult {
    fn put(&self, out: &mut Vec<u8>) {
        self.reply.put(out);
        self.attempts.put(out);
        self.last_failure.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<PingResult, WireError> {
        Ok(PingResult {
            reply: Wire::take(r)?,
            attempts: Wire::take(r)?,
            last_failure: Wire::take(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::wire::{from_bytes, to_bytes};
    use wormhole_net::{Addr, Lse, ReplyKind, RouterId};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn trace_round_trips() {
        let hop = TraceHop {
            ttl: 3,
            addr: Some(Addr(0x0A00_0102)),
            reply_ip_ttl: Some(253),
            rtt_ms: Some(17.25),
            labels: vec![Lse::new(wormhole_net::Label(300), 4)],
            kind: Some(ReplyKind::TimeExceeded),
            outcome: HopOutcome::Replied,
            attempts: 1,
            truth: Some(RouterId(9)),
        };
        let star = TraceHop {
            ttl: 4,
            addr: None,
            reply_ip_ttl: None,
            rtt_ms: None,
            labels: Vec::new(),
            kind: None,
            outcome: HopOutcome::Silent,
            attempts: 2,
            truth: None,
        };
        round_trip(&hop);
        round_trip(&star);
        round_trip(&Trace {
            src: Addr(1),
            dst: Addr(2),
            flow: 7,
            hops: vec![hop, star],
            reached: false,
            probes: 11,
            truncated: true,
        });
    }

    #[test]
    fn ping_round_trips() {
        round_trip(&PingResult::empty());
        round_trip(&PingResult {
            reply: Some(PingReply {
                from: Addr(77),
                reply_ip_ttl: 64,
                rtt_ms: 3.5,
            }),
            attempts: 2,
            last_failure: Some(PingFailure::Lost),
        });
    }

    #[test]
    fn bad_tags_are_corrupt() {
        let bytes = vec![9u8];
        assert!(from_bytes::<HopOutcome>(&bytes).is_err());
        assert!(from_bytes::<PingFailure>(&bytes).is_err());
    }
}
