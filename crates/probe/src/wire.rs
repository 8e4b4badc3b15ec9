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
use crate::trace::{AddrPath, HopOutcome, Trace, TraceHop};
use crate::traceroute::TracerouteOpts;
use wormhole_net::wire::{Reader, Wire, WireError};
use wormhole_net::Addr;

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

/// Encoded like the `Vec<Option<Addr>>` it stands for.
impl Wire for AddrPath {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for hop in self.iter() {
            hop.put(out);
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<AddrPath, WireError> {
        Vec::<Option<Addr>>::take(r).map(AddrPath::from)
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
    use wormhole_net::packet::LABEL_STACK_CAP;
    use wormhole_net::wire::{from_bytes, to_bytes};
    use wormhole_net::{Label, LabelStack, Lse, ReplyKind, RouterId};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
        assert_eq!(to_bytes(&back), bytes);
    }

    fn labeled_hop() -> TraceHop {
        TraceHop {
            ttl: 3,
            addr: Some(Addr(0x0A00_0102)),
            reply_ip_ttl: Some(253),
            rtt_ms: Some(17.25),
            labels: [Lse::new(Label(300), 4), Lse::new(Label(0), 4)]
                .into_iter()
                .collect(),
            kind: Some(ReplyKind::TimeExceeded),
            outcome: HopOutcome::Replied,
            attempts: 1,
            truth: Some(RouterId(9)),
        }
    }

    fn sample_trace() -> Trace {
        let star = TraceHop {
            ttl: 4,
            addr: None,
            reply_ip_ttl: None,
            rtt_ms: None,
            labels: LabelStack::empty(),
            kind: None,
            outcome: HopOutcome::Silent,
            attempts: 2,
            truth: None,
        };
        Trace {
            src: Addr(1),
            dst: Addr(2),
            flow: 7,
            hops: vec![labeled_hop(), star],
            reached: false,
            probes: 11,
            truncated: true,
        }
    }

    #[test]
    fn trace_round_trips() {
        let trace = sample_trace();
        round_trip(&trace.hops[0]);
        round_trip(&trace.hops[1]);
        round_trip(&trace);
        round_trip(&AddrPath::of(&trace.hops));
        let long: Vec<Option<Addr>> = (0..9).map(|i| (i % 3 > 0).then_some(Addr(i))).collect();
        round_trip(&AddrPath::from(long.clone()));
        // A path travels exactly as the vector it stands for.
        assert_eq!(to_bytes(&AddrPath::from(long.clone())), to_bytes(&long));
        assert_eq!(
            to_bytes(&AddrPath::of(&trace.hops)),
            to_bytes(&trace.addr_path())
        );
    }

    #[test]
    fn hop_labels_keep_the_vector_layout() {
        // The fields in order, the labels as the `Vec<Lse>` a hop once
        // carried: a length, then the entries.
        let hop = labeled_hop();
        let mut bytes = Vec::new();
        hop.ttl.put(&mut bytes);
        hop.addr.put(&mut bytes);
        hop.reply_ip_ttl.put(&mut bytes);
        hop.rtt_ms.put(&mut bytes);
        hop.labels.as_slice().to_vec().put(&mut bytes);
        hop.kind.put(&mut bytes);
        hop.outcome.put(&mut bytes);
        hop.attempts.put(&mut bytes);
        hop.truth.put(&mut bytes);
        assert_eq!(to_bytes(&hop), bytes);
    }

    #[test]
    fn every_truncation_of_a_trace_is_an_error() {
        let bytes = to_bytes(&sample_trace());
        for len in 0..bytes.len() {
            assert_eq!(
                from_bytes::<Trace>(&bytes[..len]),
                Err(WireError::Truncated),
                "truncated to {len} bytes"
            );
        }
    }

    #[test]
    fn a_hop_quoting_too_many_labels_is_corrupt() {
        // A hop whose label count exceeds the inline stack's capacity
        // decodes to a typed error, with or without the entries behind
        // it, and never reaches the stack's overflow assertion.
        let hop = labeled_hop();
        for (count, entries) in [(LABEL_STACK_CAP + 1, LABEL_STACK_CAP + 1), (usize::MAX, 0)] {
            let mut bytes = Vec::new();
            hop.ttl.put(&mut bytes);
            hop.addr.put(&mut bytes);
            hop.reply_ip_ttl.put(&mut bytes);
            hop.rtt_ms.put(&mut bytes);
            count.put(&mut bytes);
            for _ in 0..entries {
                Lse::new(Label(16), 1).put(&mut bytes);
            }
            hop.kind.put(&mut bytes);
            hop.outcome.put(&mut bytes);
            hop.attempts.put(&mut bytes);
            hop.truth.put(&mut bytes);
            assert_eq!(
                from_bytes::<TraceHop>(&bytes),
                Err(WireError::Corrupt("label stack depth"))
            );
        }
        // At exactly the capacity the hop decodes.
        let full = TraceHop {
            labels: (0..LABEL_STACK_CAP as u32)
                .map(|l| Lse::new(Label(16 + l), 1))
                .collect(),
            ..hop
        };
        round_trip(&full);
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
