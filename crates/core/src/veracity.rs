//! Revelation-veracity screening: cross-checking a revealed hop set
//! against independent evidence.
//!
//! The revelation techniques of [`crate::reveal`] assume an honest
//! Internet: routers quote truthful TTLs (so the Table 1 taxonomy and
//! RTLA's `<255, 64>` pair hold) and load balancers respect the
//! per-flow invariant (so re-traces are stable and never forge loops).
//! A deceptive router breaks those assumptions without breaking the
//! recursion itself — it happily "reveals" hop sets that are artifacts.
//!
//! [`screen_revelation`] grades each outcome into a [`Veracity`] tier
//! from evidence the campaign already holds:
//!
//! * **loop/duplicate screens** — a re-trace that revisits an address,
//!   a hop list that repeats one, or a failed per-flow stability
//!   repeat ([`RevealedTunnel::retrace_mismatch`]) is positive proof
//!   of a non-Paris artifact → [`Veracity::Contradicted`];
//! * **quoted-TTL plausibility** — every honest reply stack starts at
//!   255, 128 or 64; an inferred initial of 32, or a complete pair
//!   outside the Table 1 taxonomy, is positive proof of TTL spoofing →
//!   [`Veracity::Contradicted`];
//! * **return-path consistency** — where the egress signature permits
//!   RTLA, the return tunnel length must agree with the revealed
//!   forward length within [`wormhole_lint::RTLA_GAP_TOLERANCE`];
//! * **corroboration** — a complete, fully-responsive revelation whose
//!   every participant carries a plausible echo-reply fingerprint (and
//!   whose RTLA gap, when measurable, is consistent) earns
//!   [`Veracity::Corroborated`]. Anything short of that stays
//!   [`Veracity::Unverified`].
//!
//! Honest fault scenarios can only *lose* evidence (loss, silence,
//! rate limiting), never fabricate it, so an honest campaign can never
//! produce `Contradicted` — which is what keeps honest campaign
//! reports byte-identical with screening enabled.
//!
//! [`RevealedTunnel::retrace_mismatch`]: crate::reveal::RevealedTunnel::retrace_mismatch

use crate::reveal::{Confidence, RevelationOutcome, Veracity};
use std::collections::HashSet;
use wormhole_lint::{RTLA_GAP_TOLERANCE, SIGNATURE_TAXONOMY};
use wormhole_net::Addr;

/// The initial TTLs an honest reply stack can carry (Table 1: every
/// vendor class initialises time-exceeded and echo replies at one of
/// these). [`crate::fingerprint::infer_initial_ttl`] also snaps to 32,
/// so an inferred initial of 32 only ever comes from a spoofed quote.
pub const PLAUSIBLE_REPLY_INITS: [u8; 3] = [255, 128, 64];

/// Screens one revelation outcome against the independent evidence.
///
/// `signature_of` resolves a participant address to its inferred
/// `(te, er)` initial-TTL pair (either half may be unobserved); `rtl`
/// is the RTLA return-tunnel length measured at the egress, when its
/// signature allowed the measurement.
pub fn screen_revelation<F>(out: &RevelationOutcome, signature_of: F, rtl: Option<i32>) -> Veracity
where
    F: Fn(Addr) -> (Option<u8>, Option<u8>),
{
    let (tunnel, complete) = match out {
        RevelationOutcome::Complete { tunnel, .. } => (tunnel, true),
        RevelationOutcome::Partial { tunnel, .. } => (tunnel, false),
        RevelationOutcome::Abandoned { .. } => return Veracity::Unverified,
    };
    // Positive artifact evidence contradicts whatever was claimed —
    // including an empty "nothing hidden" result, whose re-traces
    // cannot be trusted either.
    if tunnel.revisits > 0 || tunnel.retrace_mismatch {
        return Veracity::Contradicted;
    }
    let hops = tunnel.hops();
    let mut seen: HashSet<Addr> = [tunnel.ingress, tunnel.egress].into_iter().collect();
    if hops.iter().any(|&h| !seen.insert(h)) {
        return Veracity::Contradicted;
    }
    // Quoted-TTL plausibility over every participant (revealed hops
    // plus the egress the recursion hung off).
    let mut er_confirmed = 0usize;
    for &addr in hops.iter().chain(std::iter::once(&tunnel.egress)) {
        let (te, er) = signature_of(addr);
        if te.is_some_and(|t| !PLAUSIBLE_REPLY_INITS.contains(&t))
            || er.is_some_and(|e| !PLAUSIBLE_REPLY_INITS.contains(&e))
        {
            return Veracity::Contradicted;
        }
        if let (Some(te), Some(er)) = (te, er) {
            if !SIGNATURE_TAXONOMY.contains(&(te, er)) {
                return Veracity::Contradicted;
            }
        }
        if er.is_some() {
            er_confirmed += 1;
        }
    }
    if tunnel.is_empty() {
        // Nothing hidden: no artifact evidence, but nothing to
        // corroborate either.
        return Veracity::Unverified;
    }
    // Corroboration demands positive evidence on every front: the
    // recursion converged, every re-trace hop replied, every
    // participant carries a plausible echo-reply fingerprint, and the
    // return-path length agrees where RTLA could measure it.
    let rtl_consistent = match rtl {
        Some(r) => (r - tunnel.forward_tunnel_length() as i32).abs() <= RTLA_GAP_TOLERANCE,
        None => true,
    };
    if complete
        && out.confidence() == Some(Confidence::High)
        && tunnel.stars == 0
        && er_confirmed == hops.len() + 1
        && rtl_consistent
    {
        Veracity::Corroborated
    } else {
        Veracity::Unverified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reveal::{RevealStep, RevealedHop, RevealedTunnel};

    fn addr(n: u8) -> Addr {
        Addr::new(10, 0, 0, n)
    }

    fn tunnel(hops: &[u8]) -> RevealedTunnel {
        RevealedTunnel {
            ingress: addr(1),
            egress: addr(9),
            target: addr(10),
            steps: vec![RevealStep {
                target: addr(9),
                new_hops: hops
                    .iter()
                    .map(|&n| RevealedHop {
                        addr: addr(n),
                        labeled: false,
                        rtt_ms: None,
                        truth: None,
                    })
                    .collect(),
            }],
            extra_probes: 8,
            revisits: 0,
            stars: 0,
            retrace_mismatch: false,
        }
    }

    fn juniper(_: Addr) -> (Option<u8>, Option<u8>) {
        (Some(255), Some(64))
    }

    #[test]
    fn clean_complete_revelation_is_corroborated() {
        let out = RevelationOutcome::complete(tunnel(&[2, 3, 4]));
        assert_eq!(
            screen_revelation(&out, juniper, Some(4)),
            Veracity::Corroborated
        );
        // Consistent even without an RTLA measurement.
        assert_eq!(
            screen_revelation(&out, juniper, None),
            Veracity::Corroborated
        );
    }

    #[test]
    fn revisits_and_retrace_instability_contradict() {
        let mut t = tunnel(&[2, 3]);
        t.revisits = 1;
        let out = RevelationOutcome::complete(t);
        assert_eq!(
            screen_revelation(&out, juniper, None),
            Veracity::Contradicted
        );

        let mut t = tunnel(&[2, 3]);
        t.retrace_mismatch = true;
        let out = RevelationOutcome::complete(t);
        assert_eq!(
            screen_revelation(&out, juniper, None),
            Veracity::Contradicted
        );

        // Even an empty "nothing hidden" claim is contradicted by
        // artifact-ridden re-traces.
        let mut t = tunnel(&[]);
        t.revisits = 2;
        let out = RevelationOutcome::complete(t);
        assert_eq!(
            screen_revelation(&out, juniper, None),
            Veracity::Contradicted
        );
    }

    #[test]
    fn duplicate_hops_contradict() {
        let out = RevelationOutcome::complete(tunnel(&[2, 3, 2]));
        assert_eq!(
            screen_revelation(&out, juniper, None),
            Veracity::Contradicted
        );
    }

    #[test]
    fn implausible_ttls_contradict() {
        let out = RevelationOutcome::complete(tunnel(&[2, 3]));
        // A 32-initial echo reply matches no honest vendor stack.
        let spoofed = |_| (None, Some(32u8));
        assert_eq!(
            screen_revelation(&out, spoofed, None),
            Veracity::Contradicted
        );
        // A complete pair outside the Table 1 taxonomy.
        let off_taxonomy = |_| (Some(128u8), Some(64u8));
        assert_eq!(
            screen_revelation(&out, off_taxonomy, None),
            Veracity::Contradicted
        );
    }

    #[test]
    fn missing_evidence_stays_unverified() {
        let out = RevelationOutcome::complete(tunnel(&[2, 3]));
        // One hop never got its echo-reply fingerprint.
        let partial = |a: Addr| {
            if a == addr(2) {
                (None, None)
            } else {
                (Some(255), Some(64))
            }
        };
        assert_eq!(screen_revelation(&out, partial, None), Veracity::Unverified);
        // An inconsistent RTLA gap blocks corroboration without proving
        // an artifact (asymmetric tunnels exist).
        assert_eq!(
            screen_revelation(&out, juniper, Some(9)),
            Veracity::Unverified
        );
        // Nothing hidden, nothing to corroborate.
        let none = RevelationOutcome::complete(tunnel(&[]));
        assert_eq!(
            screen_revelation(&none, juniper, None),
            Veracity::Unverified
        );
        // Abandoned attempts have no hop set to screen.
        let abandoned = RevelationOutcome::Abandoned {
            reason: crate::reveal::AbandonReason::IngressNotObserved,
        };
        assert_eq!(
            screen_revelation(&abandoned, juniper, None),
            Veracity::Unverified
        );
    }

    #[test]
    fn degraded_retraces_block_corroboration() {
        let mut t = tunnel(&[2, 3]);
        t.stars = 3;
        let out = match RevelationOutcome::complete(t) {
            RevelationOutcome::Complete {
                tunnel, veracity, ..
            } => RevelationOutcome::Complete {
                tunnel,
                confidence: Confidence::Low,
                veracity,
            },
            _ => unreachable!(),
        };
        assert_eq!(screen_revelation(&out, juniper, None), Veracity::Unverified);
    }
}
