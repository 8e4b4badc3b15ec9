//! Table 3 — cross-validation of DPR/BRPR on *explicit* tunnels.
//!
//! The paper re-ran its revelation techniques against tunnels that were
//! visible (label-quoting) in a PlanetLab campaign, checking that the
//! re-discovered content matches. We do the same against a variant of
//! the synthetic Internet whose personas enable `ttl-propagate`:
//! explicit Ingress–Egress pairs are extracted from labeled trace
//! segments, the recursion re-runs blind, and outcomes fall into the
//! paper's five buckets.

use crate::util::{pct, Report};
use std::collections::BTreeMap;
use wormhole_core::{reveal_between, RevealMethod, RevealOpts, RevelationOutcome};
use wormhole_net::{Addr, Asn, FaultPlan};
use wormhole_probe::{Session, TracerouteOpts};
use wormhole_topo::{generate, paper_personas, Internet, InternetConfig};

/// An explicit tunnel extracted from a labeled trace.
#[derive(Clone, Debug)]
pub struct ExplicitTunnel {
    /// The ingress LER address (hop before the labeled run).
    pub ingress: Addr,
    /// The egress LER address (hop after the labeled run).
    pub egress: Addr,
    /// The labeled LSR addresses, in forward order.
    pub lsrs: Vec<Addr>,
    /// The common AS.
    pub asn: Asn,
    /// The observing vantage point.
    pub vp: usize,
}

/// The five Table 3 buckets.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Bucket {
    /// "BRPR or DPR fail".
    Fail,
    /// "DPR successful".
    Dpr,
    /// "BRPR successful".
    Brpr,
    /// "hybrid DPR/BRPR".
    Hybrid,
    /// "BRPR or DPR" (single-LSR tunnels, indistinguishable).
    Either,
}

impl Bucket {
    fn label(self) -> &'static str {
        match self {
            Bucket::Fail => "BRPR or DPR fail",
            Bucket::Dpr => "DPR successful",
            Bucket::Brpr => "BRPR successful",
            Bucket::Hybrid => "hybrid DPR/BRPR",
            Bucket::Either => "BRPR or DPR",
        }
    }
}

/// Generates the visible variant of the paper Internet.
pub fn visible_internet(seed: u64, quick: bool) -> Internet {
    let mut personas = paper_personas();
    for p in &mut personas {
        p.propagate_share = 1.0;
    }
    let cfg = if quick {
        InternetConfig {
            seed,
            personas: personas.into_iter().take(4).collect(),
            n_stubs: 8,
            n_vps: 3,
            peer_prob: 1.0,
            silent_share: 0.0,
            tier1: 0,
        }
    } else {
        InternetConfig {
            seed,
            personas,
            ..InternetConfig::default()
        }
    };
    generate(&cfg)
}

/// Extracts unique explicit Ingress–Egress pairs with fully revealed
/// LSR runs (the paper's extraction rule: both LERs in the same AS, no
/// anonymous hops inside).
pub fn explicit_tunnels(internet: &Internet) -> Vec<ExplicitTunnel> {
    let net = &internet.net;
    let mut sessions: Vec<Session<'_>> = internet
        .vps
        .iter()
        .map(|&vp| {
            let mut s = Session::new(net, &internet.cp, vp);
            s.set_opts(TracerouteOpts::campaign());
            s
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let loopbacks: Vec<Addr> = net
        .routers()
        .iter()
        .filter(|r| !r.config.is_host)
        .map(|r| r.loopback)
        .collect();
    for (i, &target) in loopbacks.iter().enumerate() {
        let vp = i % sessions.len();
        let trace = sessions[vp].traceroute(target);
        let hops: Vec<&wormhole_probe::TraceHop> =
            trace.hops.iter().filter(|h| h.addr.is_some()).collect();
        let mut idx = 0usize;
        while idx < hops.len() {
            if !hops[idx].is_labeled() {
                idx += 1;
                continue;
            }
            let start = idx;
            while idx < hops.len() && hops[idx].is_labeled() {
                idx += 1;
            }
            // hops[start..idx] is the labeled run. Keep *transit*
            // tunnels only: the egress must be followed by at least one
            // more hop — when the trace target itself terminates the
            // LSP, the "egress" is a loopback whose re-trace would stay
            // label-switched (not the paper's setting, where pairs come
            // from traces crossing the AS).
            if start == 0 || idx + 1 >= hops.len() {
                continue;
            }
            let ingress = hops[start - 1].addr.expect("responsive");
            let egress = hops[idx].addr.expect("responsive");
            let lsrs: Vec<Addr> = hops[start..idx]
                .iter()
                .map(|h| h.addr.expect("responsive"))
                .collect();
            let asns: Vec<Option<Asn>> = std::iter::once(ingress)
                .chain(lsrs.iter().copied())
                .chain(std::iter::once(egress))
                .map(|a| net.owner_asn(a))
                .collect();
            let Some(Some(asn)) = asns.first().copied() else {
                continue;
            };
            if !asns.iter().all(|&a| a == Some(asn)) {
                continue;
            }
            if seen.insert((ingress, egress)) {
                out.push(ExplicitTunnel {
                    ingress,
                    egress,
                    lsrs,
                    asn,
                    vp,
                });
            }
        }
    }
    out
}

/// Classifies one re-run outcome against the known explicit content.
/// Returns `None` for the paper's *excluded* case: the re-trace never
/// re-discovered the ingress (9,407 of 14,771 pairs in the paper were
/// dropped this way before Table 3 was computed).
pub fn classify(outcome: &RevelationOutcome, explicit: &ExplicitTunnel) -> Option<Bucket> {
    if outcome.is_abandoned() {
        return None;
    }
    let Some(t) = outcome.tunnel() else {
        return Some(Bucket::Fail);
    };
    if t.len() != explicit.lsrs.len() {
        // The paper's success criteria require the exact hop count.
        return Some(Bucket::Fail);
    }
    if !t.any_labeled() {
        // All labels disappeared: DPR's success criterion.
        return Some(match t.method() {
            RevealMethod::Either => Bucket::Either,
            RevealMethod::Brpr => Bucket::Brpr,
            RevealMethod::Hybrid => Bucket::Hybrid,
            RevealMethod::Dpr => Bucket::Dpr,
        });
    }
    // Labels persisted: BRPR's criterion — each revealing step's *last*
    // hop (the PHP Last Hop) must be unlabeled.
    let stepwise_ok = t
        .steps
        .iter()
        .filter(|s| !s.new_hops.is_empty())
        .all(|s| s.new_hops.last().is_some_and(|h| !h.labeled));
    Some(if stepwise_ok {
        Bucket::Brpr
    } else {
        Bucket::Fail
    })
}

/// Runs the cross-validation with the paper's mild probing noise;
/// returns `(bucket counts, excluded)`.
pub fn cross_validate(
    internet: &Internet,
    tunnels: &[ExplicitTunnel],
) -> (BTreeMap<Bucket, usize>, usize) {
    // Mild fault injection: the paper's re-runs also failed on probing
    // noise, which populates the Fail bucket.
    let faults = FaultPlan {
        loss: 0.002,
        icmp_loss: 0.01,
        ..FaultPlan::default()
    };
    cross_validate_with(internet, tunnels, &faults, 99)
}

/// One session per vantage point of `internet`, with the campaign's
/// traceroute options and VP `i` drawing its fault RNG from `seed + i`:
/// the sessions every explicit-tunnel replay (Table 3, the fault sweep,
/// the adversarial sweep) runs its revelations on.
pub fn replay_sessions<'a>(
    internet: &'a Internet,
    faults: &FaultPlan,
    seed: u64,
) -> Vec<Session<'a>> {
    internet
        .vps
        .iter()
        .enumerate()
        .map(|(i, &vp)| {
            let mut s = Session::with_faults(
                &internet.net,
                &internet.cp,
                vp,
                faults.clone(),
                seed + i as u64,
            );
            s.set_opts(TracerouteOpts::campaign());
            s
        })
        .collect()
}

/// Runs the cross-validation under an arbitrary [`FaultPlan`].
pub fn cross_validate_with(
    internet: &Internet,
    tunnels: &[ExplicitTunnel],
    faults: &FaultPlan,
    seed: u64,
) -> (BTreeMap<Bucket, usize>, usize) {
    let mut counts: BTreeMap<Bucket, usize> = BTreeMap::new();
    let mut excluded = 0usize;
    let mut sessions = replay_sessions(internet, faults, seed);
    for tun in tunnels {
        let sess = &mut sessions[tun.vp];
        let outcome = reveal_between(
            sess,
            tun.ingress,
            tun.egress,
            tun.egress,
            &RevealOpts::default(),
        );
        match classify(&outcome, tun) {
            Some(bucket) => *counts.entry(bucket).or_insert(0) += 1,
            None => excluded += 1,
        }
    }
    (counts, excluded)
}

/// Runs the experiment.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new("table3", "Cross-validation on explicit tunnels (Table 3)");
    let internet = visible_internet(20, quick);
    let tunnels = explicit_tunnels(&internet);
    assert!(
        !tunnels.is_empty(),
        "visible personas must expose explicit tunnels"
    );
    let (counts, excluded) = cross_validate(&internet, &tunnels);
    let total: usize = counts.values().sum();
    report.line(format!(
        "{} pairs extracted; {excluded} excluded (ingress/egress not re-discovered, as in the paper)",
        tunnels.len()
    ));
    let mut rows = vec![vec![
        "bucket".to_string(),
        "pairs".to_string(),
        "share".to_string(),
    ]];
    for bucket in [
        Bucket::Fail,
        Bucket::Dpr,
        Bucket::Brpr,
        Bucket::Hybrid,
        Bucket::Either,
    ] {
        let n = counts.get(&bucket).copied().unwrap_or(0);
        rows.push(vec![
            bucket.label().to_string(),
            n.to_string(),
            pct(n, total),
        ]);
    }
    report.table(&rows);
    report.line(format!(
        "{} unique Ingress–Egress pairs across {} ASes",
        total,
        tunnels
            .iter()
            .map(|t| t.asn)
            .collect::<std::collections::HashSet<_>>()
            .len()
    ));
    // Paper shape: successes dominate (92% overall), DPR is the largest
    // success bucket on Juniper-heavy deployments, BRPR the smallest.
    let fail = counts.get(&Bucket::Fail).copied().unwrap_or(0);
    let dpr = counts.get(&Bucket::Dpr).copied().unwrap_or(0);
    let either = counts.get(&Bucket::Either).copied().unwrap_or(0);
    assert!(
        (fail as f64) < 0.25 * total as f64,
        "failures must stay a small minority ({fail}/{total})"
    );
    assert!(dpr + either > total / 2, "DPR-family buckets dominate");
    report.line("Revelation re-discovers explicit tunnel content in the vast majority of cases.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_validation_buckets() {
        let r = run(true);
        assert!(r.lines.iter().any(|l| l.contains("Ingress–Egress pairs")));
    }
}
