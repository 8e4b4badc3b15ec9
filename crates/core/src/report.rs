//! The canonical campaign report.
//!
//! [`CampaignResult::report`] renders everything a campaign observed
//! into one byte-stable text; the determinism tests, the distributed
//! merge and `wormhole-serve` all compare or ship these bytes.
//! [`CampaignResult::write_report`] is the one renderer behind it,
//! written against any [`fmt::Write`] sink, so a consumer that only
//! prints or checksums the report streams it there instead.
//!
//! Addresses, integers, booleans and label stacks go through the hand
//! writers of [`wormhole_net::text`], which print the bytes the
//! `Display`/`Debug` impls print (`Some(3)`, `[10.0.0.1, 10.0.0.2]`,
//! `Lse { label: Label(16), … }`) at about half the cost of `write!`.
//! Only RTTs keep `std` float formatting (`{:.6}`), for its exact
//! rounding.

use crate::campaign::CampaignResult;
use crate::reveal::{RevealMethod, RevealedTunnel, RevelationOutcome, Veracity};
use std::fmt::{self, Write};
use wormhole_net::text::{addr, boolean, int, list, lse_debug, opt_int};
use wormhole_net::{Addr, ReplyKind};
use wormhole_probe::{HopOutcome, Trace, TraceHop};

impl CampaignResult {
    /// A canonical, byte-stable rendering of everything the campaign
    /// observed: trace transcripts in probing order, observation maps
    /// and revelations in address order, probe accounting per shard.
    /// Two runs of the same `(topology, config, seed)` must produce
    /// equal reports at **any** `jobs` setting — the determinism
    /// regression tests compare these byte for byte.
    pub fn report(&self) -> CampaignReport {
        // Per-line sizes measured on the campaign rows (a hop line runs
        // ~96 bytes, a trace header ~80), so the report is written with
        // one allocation.
        let hops: usize = self.traces.iter().map(|t| t.hops.len()).sum();
        let mut text = String::with_capacity(
            96 * hops
                + 80 * (self.traces.len() + self.candidates.len())
                + 16 * (self.targets.len() + self.hdns.len())
                + 40 * (self.te_obs.len() + self.er_obs.len() + self.fingerprints.len())
                + 120 * self.revelations.len()
                + 256,
        );
        self.write_report(&mut text)
            .expect("writing to a String cannot fail");
        CampaignReport { text }
    }

    /// Writes the text of [`CampaignResult::report`] to `w`.
    pub fn write_report<W: Write>(&self, w: &mut W) -> fmt::Result {
        w.write_str("snapshot nodes=")?;
        int(w, self.snapshot.num_nodes() as u64)?;
        w.write_str("\nhdns=")?;
        list(w, self.hdns.iter(), |w, &n| int(w, n as u64))?;
        w.write_str("\ntargets=[")?;
        for (i, &a) in self.targets.iter().enumerate() {
            if i > 0 {
                w.write_char(' ')?;
            }
            addr(w, a)?;
        }
        w.write_str("]\n")?;
        for (i, t) in self.traces.iter().enumerate() {
            write_trace(w, i, self.trace_vps[i], t)?;
        }
        let mut te: Vec<_> = self.te_obs.iter().collect();
        te.sort_by_key(|&(a, _)| *a);
        for (&a, &(vp, ttl)) in te {
            w.write_str("te ")?;
            addr(w, a)?;
            w.write_str(" vp=")?;
            int(w, vp as u64)?;
            w.write_str(" ttl=")?;
            int(w, u64::from(ttl))?;
            w.write_char('\n')?;
        }
        let mut er: Vec<_> = self.er_obs.iter().collect();
        er.sort_by_key(|&(a, _)| *a);
        for (&a, &ttl) in er {
            w.write_str("er ")?;
            addr(w, a)?;
            w.write_str(" ttl=")?;
            int(w, u64::from(ttl))?;
            w.write_char('\n')?;
        }
        let mut sigs: Vec<_> = self.fingerprints.iter().collect();
        sigs.sort_by_key(|&(a, _)| a);
        for (a, s) in sigs {
            w.write_str("sig ")?;
            addr(w, a)?;
            w.write_str(" te=")?;
            opt_int(w, s.te)?;
            w.write_str(" er=")?;
            opt_int(w, s.er)?;
            w.write_char('\n')?;
        }
        for c in &self.candidates {
            w.write_str("candidate ")?;
            addr(w, c.ingress)?;
            w.write_str("->")?;
            addr(w, c.egress)?;
            w.write_str(" d=")?;
            addr(w, c.target)?;
            w.write_str(" asn=")?;
            int(w, u64::from(c.asn.0))?;
            w.write_str(" vp=")?;
            int(w, c.vp_index as u64)?;
            w.write_str(" trace=")?;
            int(w, c.trace_index as u64)?;
            w.write_char('\n')?;
        }
        let mut revs: Vec<_> = self.revelations.iter().collect();
        revs.sort_by_key(|&(pair, _)| *pair);
        for (&(x, y), out) in revs {
            write_revelation(w, x, y, out)?;
        }
        w.write_str("probes=")?;
        int(w, self.probes)?;
        w.write_str(" by_vp=")?;
        list(w, self.probes_by_vp.iter(), |w, &p| int(w, p))?;
        w.write_str("\ndegraded_shards=")?;
        int(w, self.degraded_shards.len() as u64)?;
        w.write_char('\n')?;
        for d in &self.degraded_shards {
            w.write_str("degraded vp=")?;
            int(w, d.vp as u64)?;
            w.write_str(" phase=")?;
            w.write_str(d.phase)?;
            w.write_str(" msg=")?;
            w.write_str(&d.message)?;
            w.write_char('\n')?;
        }
        Ok(())
    }

    /// Writes the line that closes a campaign's JSONL transcript
    /// (without its newline): trace and probe counts and the snapshot
    /// checksum.
    pub fn write_done_jsonl<W: Write>(&self, w: &mut W) -> fmt::Result {
        write!(
            w,
            "{{\"type\":\"done\",\"traces\":{},\"probes\":{},\"snapshot_checksum\":{}}}",
            self.traces.len(),
            self.probes,
            self.snapshot_checksum
        )
    }
}

/// One trace: its header line, then one line per hop.
fn write_trace<W: Write>(w: &mut W, index: usize, vp: usize, t: &Trace) -> fmt::Result {
    w.write_str("trace ")?;
    int(w, index as u64)?;
    w.write_str(" vp=")?;
    int(w, vp as u64)?;
    w.write_str(" dst=")?;
    addr(w, t.dst)?;
    w.write_str(" flow=")?;
    int(w, u64::from(t.flow))?;
    w.write_str(" reached=")?;
    boolean(w, t.reached)?;
    w.write_str(" probes=")?;
    int(w, u64::from(t.probes))?;
    w.write_str(" truncated=")?;
    boolean(w, t.truncated)?;
    w.write_char('\n')?;
    for h in &t.hops {
        write_hop(w, h)?;
    }
    Ok(())
}

fn write_hop<W: Write>(w: &mut W, h: &TraceHop) -> fmt::Result {
    w.write_str("  ")?;
    int(w, u64::from(h.ttl))?;
    let Some(a) = h.addr else {
        w.write_str(" * outcome=")?;
        w.write_str(outcome_name(h.outcome))?;
        w.write_str(" attempts=")?;
        int(w, u64::from(h.attempts))?;
        return w.write_char('\n');
    };
    w.write_char(' ')?;
    addr(w, a)?;
    w.write_str(" ttl=")?;
    opt_int(w, h.reply_ip_ttl)?;
    w.write_str(match h.kind {
        Some(ReplyKind::EchoReply) => " kind=Some(EchoReply) rtt=",
        Some(ReplyKind::TimeExceeded) => " kind=Some(TimeExceeded) rtt=",
        Some(ReplyKind::DestUnreachable) => " kind=Some(DestUnreachable) rtt=",
        None => " kind=None rtt=",
    })?;
    if let Some(rtt) = h.rtt_ms {
        write!(w, "{rtt:.6}")?;
    }
    w.write_str(" labels=")?;
    list(w, h.labels.iter(), lse_debug)?;
    w.write_str(" attempts=")?;
    int(w, u64::from(h.attempts))?;
    w.write_char('\n')
}

/// One revelation line. The veracity marker appears only on
/// contradicted revelations. Honest scenarios can never be
/// contradicted (artifact screens require positive evidence of
/// deception), so honest reports keep their exact historical bytes.
fn write_revelation<W: Write>(w: &mut W, x: Addr, y: Addr, out: &RevelationOutcome) -> fmt::Result {
    w.write_str("revealed ")?;
    addr(w, x)?;
    w.write_str("->")?;
    addr(w, y)?;
    let confidence = match out {
        RevelationOutcome::Complete {
            tunnel, confidence, ..
        } if !tunnel.is_empty() => {
            w.write_str(" complete")?;
            write_tunnel(w, tunnel)?;
            confidence
        }
        RevelationOutcome::Complete { confidence, .. } => {
            w.write_str(" nothing-hidden")?;
            confidence
        }
        RevelationOutcome::Partial {
            tunnel,
            missing,
            confidence,
            ..
        } => {
            w.write_str(" partial missing=")?;
            w.write_str(missing.label())?;
            write_tunnel(w, tunnel)?;
            confidence
        }
        RevelationOutcome::Abandoned { reason } => {
            w.write_str(" abandoned reason=")?;
            w.write_str(reason.label())?;
            return w.write_char('\n');
        }
    };
    w.write_str(" confidence=")?;
    w.write_str(confidence.label())?;
    if out.veracity() == Veracity::Contradicted {
        w.write_str(" veracity=contradicted")?;
    }
    w.write_char('\n')
}

/// ` method=… hops=[…] extra_probes=…` of a revealed tunnel; the hops
/// in forward order, as [`RevealedTunnel::hops`] lists them.
fn write_tunnel<W: Write>(w: &mut W, tunnel: &RevealedTunnel) -> fmt::Result {
    w.write_str(" method=")?;
    w.write_str(match tunnel.method() {
        RevealMethod::Dpr => "Dpr",
        RevealMethod::Brpr => "Brpr",
        RevealMethod::Either => "Either",
        RevealMethod::Hybrid => "Hybrid",
    })?;
    w.write_str(" hops=")?;
    let hops = tunnel.steps.iter().rev().flat_map(|s| &s.new_hops);
    list(w, hops, |w, h| addr(w, h.addr))?;
    w.write_str(" extra_probes=")?;
    int(w, tunnel.extra_probes)
}

/// A hop outcome's variant name, as its derived `Debug` prints it.
fn outcome_name(outcome: HopOutcome) -> &'static str {
    match outcome {
        HopOutcome::Replied => "Replied",
        HopOutcome::Silent => "Silent",
        HopOutcome::RateLimited => "RateLimited",
        HopOutcome::Unreachable => "Unreachable",
        HopOutcome::Lost => "Lost",
        HopOutcome::BudgetExhausted => "BudgetExhausted",
    }
}

/// The canonical campaign output: a deterministic rendering used to
/// verify that sharded execution merges into the exact same bytes as
/// serial execution. Compare with `==`; read with
/// [`CampaignReport::text`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CampaignReport {
    text: String,
}

impl CampaignReport {
    /// The canonical report text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The report text, without copying it.
    pub fn into_text(self) -> String {
        self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reveal::{
        AbandonReason, Confidence, MissingPart, RevealStep, RevealedHop, RevealedTunnel,
    };
    use wormhole_net::{Label, LabelStack, Lse, RouterId};

    fn a(c: u8, d: u8) -> Addr {
        Addr::new(10, 0, c, d)
    }

    fn line(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
        let mut s = String::new();
        write(&mut s).unwrap();
        s
    }

    fn labeled_hop() -> TraceHop {
        TraceHop {
            ttl: 3,
            addr: Some(a(0, 2)),
            reply_ip_ttl: Some(253),
            rtt_ms: Some(17.25),
            labels: [Lse::new(Label(300), 4), Lse::new(Label(0), 1)]
                .into_iter()
                .collect(),
            kind: Some(ReplyKind::TimeExceeded),
            outcome: HopOutcome::Replied,
            attempts: 2,
            truth: Some(RouterId(9)),
        }
    }

    #[test]
    fn outcome_names_are_what_debug_prints() {
        for o in [
            HopOutcome::Replied,
            HopOutcome::Silent,
            HopOutcome::RateLimited,
            HopOutcome::Unreachable,
            HopOutcome::Lost,
            HopOutcome::BudgetExhausted,
        ] {
            assert_eq!(outcome_name(o), format!("{o:?}"));
        }
    }

    #[test]
    fn hop_lines() {
        assert_eq!(
            line(|w| write_hop(w, &labeled_hop())),
            "  3 10.0.0.2 ttl=Some(253) kind=Some(TimeExceeded) rtt=17.250000 \
             labels=[Lse { label: Label(300), tc: 0, bottom: false, ttl: 4 }, \
             Lse { label: Label(0), tc: 0, bottom: true, ttl: 1 }] attempts=2\n"
        );
        let star = TraceHop {
            outcome: HopOutcome::RateLimited,
            attempts: 4,
            ..TraceHop::star(12)
        };
        assert_eq!(
            line(|w| write_hop(w, &star)),
            "  12 * outcome=RateLimited attempts=4\n"
        );
        // A reply without a reply TTL, kind or RTT, and no labels.
        let bare = TraceHop {
            ttl: 255,
            addr: Some(Addr::new(192, 168, 255, 0)),
            reply_ip_ttl: None,
            rtt_ms: None,
            labels: LabelStack::empty(),
            kind: None,
            outcome: HopOutcome::Replied,
            attempts: 1,
            truth: None,
        };
        assert_eq!(
            line(|w| write_hop(w, &bare)),
            "  255 192.168.255.0 ttl=None kind=None rtt= labels=[] attempts=1\n"
        );
    }

    #[test]
    fn trace_header_line() {
        let t = Trace {
            src: a(9, 1),
            dst: a(0, 9),
            flow: 65_535,
            hops: vec![TraceHop::star(2)],
            reached: true,
            probes: 1_000_000,
            truncated: false,
        };
        assert_eq!(
            line(|w| write_trace(w, 4_294_967_296, 17, &t)),
            "trace 4294967296 vp=17 dst=10.0.0.9 flow=65535 reached=true probes=1000000 \
             truncated=false\n  2 * outcome=Lost attempts=0\n"
        );
    }

    fn tunnel(steps: &[&[u8]]) -> RevealedTunnel {
        RevealedTunnel {
            ingress: a(0, 1),
            egress: a(0, 9),
            target: a(0, 10),
            steps: steps
                .iter()
                .map(|hops| RevealStep {
                    target: a(0, 9),
                    new_hops: hops
                        .iter()
                        .map(|&d| RevealedHop {
                            addr: a(1, d),
                            labeled: false,
                            rtt_ms: None,
                            truth: None,
                        })
                        .collect(),
                })
                .collect(),
            extra_probes: 12,
            revisits: 0,
            stars: 3,
            retrace_mismatch: false,
        }
    }

    #[test]
    fn revelation_lines() {
        let (x, y) = (a(0, 1), a(0, 9));
        let partial = RevelationOutcome::Partial {
            tunnel: tunnel(&[&[2], &[1]]),
            missing: MissingPart::StepLimit,
            confidence: Confidence::Medium,
            veracity: Veracity::Unverified,
        };
        assert_eq!(
            line(|w| write_revelation(w, x, y, &partial)),
            "revealed 10.0.0.1->10.0.0.9 partial missing=step-limit method=Brpr \
             hops=[10.0.1.1, 10.0.1.2] extra_probes=12 confidence=medium\n"
        );
        let contradicted = RevelationOutcome::Complete {
            tunnel: tunnel(&[&[1, 2, 3]]),
            confidence: Confidence::High,
            veracity: Veracity::Contradicted,
        };
        assert_eq!(
            line(|w| write_revelation(w, x, y, &contradicted)),
            "revealed 10.0.0.1->10.0.0.9 complete method=Dpr \
             hops=[10.0.1.1, 10.0.1.2, 10.0.1.3] extra_probes=12 confidence=high \
             veracity=contradicted\n"
        );
        let hybrid = RevelationOutcome::Partial {
            tunnel: tunnel(&[&[3, 4], &[], &[2]]),
            missing: MissingPart::IngressLostMidway,
            confidence: Confidence::High,
            veracity: Veracity::Contradicted,
        };
        assert_eq!(
            line(|w| write_revelation(w, x, y, &hybrid)),
            "revealed 10.0.0.1->10.0.0.9 partial missing=ingress-lost-midway \
             method=Hybrid hops=[10.0.1.2, 10.0.1.3, 10.0.1.4] extra_probes=12 \
             confidence=high veracity=contradicted\n"
        );
        let either = RevelationOutcome::complete(tunnel(&[&[7]]));
        assert_eq!(
            line(|w| write_revelation(w, x, y, &either)),
            "revealed 10.0.0.1->10.0.0.9 complete method=Either hops=[10.0.1.7] \
             extra_probes=12 confidence=high\n"
        );
        let nothing = RevelationOutcome::Complete {
            tunnel: tunnel(&[]),
            confidence: Confidence::Low,
            veracity: Veracity::Corroborated,
        };
        assert_eq!(
            line(|w| write_revelation(w, x, y, &nothing)),
            "revealed 10.0.0.1->10.0.0.9 nothing-hidden confidence=low\n"
        );
        let abandoned = RevelationOutcome::Abandoned {
            reason: AbandonReason::WorkerPanicked,
        };
        assert_eq!(
            line(|w| write_revelation(w, x, y, &abandoned)),
            "revealed 10.0.0.1->10.0.0.9 abandoned reason=worker-panicked\n"
        );
    }
}
