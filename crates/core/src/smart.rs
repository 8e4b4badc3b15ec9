//! The paper's envisioned "modified traceroute" (§8, Table 6):
//! a traceroute that *detects* invisible tunnels on the fly — FRPLA's
//! shift and RTLA's gap as triggers — and immediately runs DPR/BRPR to
//! splice the hidden hops into the output.
//!
//! This is the conclusion's future-work artefact, built from the same
//! primitives as the campaign: for every consecutive same-AS hop pair
//! `(X, Y)` of the base trace, the egress `Y`'s reply TTLs are analysed;
//! when the shift (or gap) clears the trigger threshold, the §4
//! recursion runs and the revealed LSRs are inserted between `X` and
//! `Y`, annotated with the evidence that triggered them.

use crate::fingerprint::{infer_initial_ttl, Signature};
use crate::frpla::rfa_of_hop;
use crate::reveal::{reveal_between, Confidence, RevealOpts};
use crate::rtla::return_tunnel_length;
use wormhole_net::{Addr, Asn, ReplyKind};
use wormhole_probe::{Session, Trace, TraceHop};

/// What triggered a revelation attempt at a hop.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Trigger {
    /// FRPLA: the return path is `shift` hops longer than the forward
    /// one.
    FrplaShift(i32),
    /// RTLA: the `<255,64>` gap measured a `rtl`-hop return tunnel.
    RtlaGap(i32),
}

/// One hop of a smart trace: either observed directly or revealed.
#[derive(Clone, Debug)]
pub struct SmartHop {
    /// The hop's address.
    pub addr: Addr,
    /// The owning AS, when the mapper knows it.
    pub asn: Option<Asn>,
    /// `None` for directly observed hops; the trigger evidence for
    /// revealed ones.
    pub revealed_by: Option<Trigger>,
    /// For revealed hops, the revelation's re-trace quality; `None` for
    /// directly observed hops.
    pub confidence: Option<Confidence>,
}

/// A traceroute with invisible tunnels spliced in.
#[derive(Clone, Debug)]
pub struct SmartTrace {
    /// The destination.
    pub dst: Addr,
    /// Observed + revealed hops, in forward order.
    pub hops: Vec<SmartHop>,
    /// The underlying base trace.
    pub base: Trace,
    /// Revelation attempts that triggered but exposed nothing (UHP
    /// suspects).
    pub unrevealed_triggers: Vec<(Addr, Trigger)>,
    /// Extra probes spent beyond the base trace.
    pub extra_probes: u64,
}

impl SmartTrace {
    /// Number of hops revealed (not directly observed).
    pub fn revealed_count(&self) -> usize {
        self.hops.iter().filter(|h| h.revealed_by.is_some()).count()
    }
}

/// Options for [`smart_traceroute`].
#[derive(Clone, Debug)]
pub struct SmartOpts {
    /// Minimum FRPLA shift that triggers revelation. The paper warns
    /// (§3.4) that per-trace FRPLA confuses routing asymmetry with
    /// tunnels, so this should stay ≥ 2; RTLA, when available, overrides
    /// the decision.
    pub shift_threshold: i32,
    /// Ping egresses to compute the RTLA gap (costs one probe per hop
    /// pair, buys precision on `<255,64>` LERs).
    pub use_rtla: bool,
    /// The revelation recursion options.
    pub reveal: RevealOpts,
}

impl Default for SmartOpts {
    fn default() -> SmartOpts {
        SmartOpts {
            shift_threshold: 2,
            use_rtla: true,
            reveal: RevealOpts::default(),
        }
    }
}

fn trigger_for(sess: &mut Session<'_>, hop: &TraceHop, opts: &SmartOpts) -> Option<Trigger> {
    if hop.kind != Some(ReplyKind::TimeExceeded) {
        return None;
    }
    if hop.is_labeled() {
        // A label-quoting hop is visibly inside an explicit LSP; its
        // return TTL is inflated by the ICMP label-switched detour, not
        // by an invisible tunnel.
        return None;
    }
    let addr = hop.addr?;
    let te_observed = hop.reply_ip_ttl?;
    if opts.use_rtla {
        if let Some(p) = sess.ping(addr).reply {
            let sig = Signature {
                te: Some(infer_initial_ttl(te_observed)),
                er: Some(infer_initial_ttl(p.reply_ip_ttl)),
            };
            if let Some(rtl) = return_tunnel_length(sig, te_observed, p.reply_ip_ttl) {
                // RTLA is authoritative on <255,64> LERs: a measured
                // return tunnel triggers, a measured zero suppresses
                // even a positive FRPLA shift (routing asymmetry).
                return (rtl >= 1).then_some(Trigger::RtlaGap(rtl));
            }
        }
    }
    let rfa = rfa_of_hop(hop)?;
    (rfa.rfa >= opts.shift_threshold).then_some(Trigger::FrplaShift(rfa.rfa))
}

/// Runs the tunnel-aware traceroute.
///
/// `as_of` maps addresses to ASes (a Team-Cymru-style lookup); pairs
/// whose endpoints map to different ASes are never analysed, matching
/// the campaign's rule.
pub fn smart_traceroute<F>(
    sess: &mut Session<'_>,
    dst: Addr,
    mut as_of: F,
    opts: &SmartOpts,
) -> SmartTrace
where
    F: FnMut(Addr) -> Option<Asn>,
{
    let probes_before = sess.engine_stats().probes;
    let base = sess.traceroute(dst);
    let responsive: Vec<(Addr, TraceHop)> = base
        .hops
        .iter()
        .filter_map(|h| h.addr.map(|a| (a, *h)))
        .collect();
    let mut hops: Vec<SmartHop> = Vec::with_capacity(responsive.len());
    let mut unrevealed = Vec::new();
    for (i, &(addr, ref hop)) in responsive.iter().enumerate() {
        // Analyse the pair (previous, this) when both map to one AS.
        let pair_trigger = match i.checked_sub(1).map(|j| &responsive[j]) {
            Some(&(x, ref prev)) => {
                let same_as = match (as_of(x), as_of(addr)) {
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                };
                if same_as && x != addr && !prev.is_labeled() {
                    trigger_for(sess, hop, opts).map(|t| (x, t))
                } else {
                    None
                }
            }
            None => None,
        };
        if let Some((x, trigger)) = pair_trigger {
            let out = reveal_between(sess, x, addr, dst, &opts.reveal);
            match out.tunnel() {
                Some(t) => {
                    for revealed in t.hops() {
                        hops.push(SmartHop {
                            addr: revealed,
                            asn: as_of(revealed),
                            revealed_by: Some(trigger),
                            confidence: out.confidence(),
                        });
                    }
                }
                None => {
                    unrevealed.push((addr, trigger));
                }
            }
        }
        hops.push(SmartHop {
            addr,
            asn: as_of(addr),
            revealed_by: None,
            confidence: None,
        });
    }
    SmartTrace {
        dst,
        hops,
        base,
        unrevealed_triggers: unrevealed,
        extra_probes: sess.engine_stats().probes - probes_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_probe::TracerouteOpts;
    use wormhole_topo::{gns3_fig2, gns3_fig2_with, Fig2Config, Fig2Opts, Scenario};

    fn run(s: &Scenario, opts: &SmartOpts) -> SmartTrace {
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let net = &s.net;
        smart_traceroute(&mut sess, s.target, |a| net.owner_asn(a), opts)
    }

    fn names(s: &Scenario, t: &SmartTrace) -> Vec<String> {
        t.hops
            .iter()
            .map(|h| s.net.router(s.net.owner(h.addr).unwrap()).name.clone())
            .collect()
    }

    #[test]
    fn splices_invisible_cisco_tunnel_via_frpla() {
        let s = gns3_fig2(Fig2Config::BackwardRecursive);
        let t = run(&s, &SmartOpts::default());
        assert_eq!(
            names(&s, &t),
            ["CE1", "PE1", "P1", "P2", "P3", "PE2", "CE2"]
        );
        assert_eq!(t.revealed_count(), 3);
        // Cisco LERs: FRPLA triggered (no <255,64> signature).
        assert!(matches!(
            t.hops[2].revealed_by,
            Some(Trigger::FrplaShift(3))
        ));
        assert_eq!(t.hops[2].confidence, Some(Confidence::High));
        assert_eq!(t.hops[0].confidence, None);
        assert!(t.unrevealed_triggers.is_empty());
        assert!(t.extra_probes > 0);
    }

    #[test]
    fn rtla_triggers_on_juniper_and_dpr_reveals() {
        let s = gns3_fig2_with(Fig2Opts::preset_juniper_ler(Fig2Config::ExplicitRoute));
        let t = run(&s, &SmartOpts::default());
        assert_eq!(t.revealed_count(), 3);
        assert!(matches!(t.hops[2].revealed_by, Some(Trigger::RtlaGap(3))));
    }

    #[test]
    fn visible_tunnels_do_not_trigger() {
        let s = gns3_fig2(Fig2Config::Default);
        let t = run(&s, &SmartOpts::default());
        assert_eq!(t.revealed_count(), 0);
        assert!(t.unrevealed_triggers.is_empty());
        // The base trace already shows everything.
        assert_eq!(t.hops.len(), 7);
    }

    #[test]
    fn uhp_triggers_nothing_and_reveals_nothing() {
        let s = gns3_fig2(Fig2Config::TotallyInvisible);
        let t = run(&s, &SmartOpts::default());
        // PE2 is invisible: the only same-AS pair inside AS2 never forms,
        // so no trigger fires and nothing is revealed.
        assert_eq!(t.revealed_count(), 0);
    }

    #[test]
    fn rtla_suppresses_false_frpla_positives() {
        // A Juniper egress with a measured zero-length return tunnel
        // must not trigger even if FRPLA sees asymmetry: craft this by
        // running against the visible Juniper preset where RFA is 0
        // anyway, then check the suppression path type-checks by
        // lowering the threshold to 0 (everything would FRPLA-trigger).
        let s = gns3_fig2_with(Fig2Opts::preset_juniper_ler(Fig2Config::Default));
        let t = run(
            &s,
            &SmartOpts {
                shift_threshold: 0,
                ..SmartOpts::default()
            },
        );
        // RTLA measured 0 on every <255,64> egress: no revelation ran
        // from a false trigger (the visible trace has nothing to hide).
        assert_eq!(t.revealed_count(), 0);
    }
}
