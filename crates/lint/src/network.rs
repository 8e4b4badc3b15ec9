//! `W1xx` — topology and MPLS-configuration rules over a built
//! [`Network`]. A network that `ControlPlane::build` rejects (an
//! inter-AS link without a relationship, a disconnected AS, an invalid
//! TE path) never reaches them: it has no plane to lint.

use crate::diag::{Diagnostic, Location, Severity};
use std::collections::{HashMap, HashSet};
use wormhole_net::{Asn, Network, RouterId};

/// W101: a host (vantage point / stub end-system) configured with an
/// MPLS data plane.
pub fn host_runs_mpls(net: &Network, out: &mut Vec<Diagnostic>) {
    for r in net.routers() {
        if r.config.is_host && r.config.mpls {
            out.push(Diagnostic::new(
                "W101",
                Severity::Error,
                Location::Router(r.name.clone()),
                "host is configured with an MPLS data plane",
                "hosts must use RouterConfig::host(); move MPLS to a transit router",
            ));
        }
    }
}

/// W102: a router with no interfaces at all — it can never appear on a
/// forwarding path, so any config on it is dead weight.
pub fn isolated_router(net: &Network, out: &mut Vec<Diagnostic>) {
    for r in net.routers() {
        if r.ifaces.is_empty() {
            out.push(Diagnostic::new(
                "W102",
                Severity::Warn,
                Location::Router(r.name.clone()),
                "router has no links",
                "connect it with NetworkBuilder::link or drop it from the topology",
            ));
        }
    }
}

/// W105: an intra-AS link between two MPLS routers whose LDP
/// advertising policies differ — the LDP session is asymmetric, so one
/// direction label-switches prefixes the other never binds. Real
/// mixed-vendor ASes do run like this (Cisco defaults to all prefixes,
/// Juniper to loopbacks only), hence a warning, not an error.
pub fn ldp_asymmetry(net: &Network, out: &mut Vec<Diagnostic>) {
    for l in net.links() {
        if l.inter_as {
            continue;
        }
        let (ra, rb) = (net.router(l.a.router), net.router(l.b.router));
        if !(ra.config.mpls && rb.config.mpls) {
            continue;
        }
        if ra.config.ldp_policy != rb.config.ldp_policy {
            out.push(Diagnostic::new(
                "W105",
                Severity::Warn,
                Location::Pair(
                    ra.ifaces[l.a.iface as usize].addr,
                    rb.ifaces[l.b.iface as usize].addr,
                ),
                format!(
                    "asymmetric LDP session: {} advertises {:?}, {} advertises {:?}",
                    ra.name, ra.config.ldp_policy, rb.name, rb.config.ldp_policy
                ),
                "align RouterConfig::ldp on both ends (or accept vendor-default asymmetry)",
            ));
        }
    }
}

/// W106: the LERs (MPLS border routers) of one AS disagree on
/// `ttl-propagate` — some of the AS's LSPs will be visible and some
/// invisible. Operators do deploy this deliberately (the paper's China
/// Telecom persona propagates on ~85% of routers), hence a warning.
pub fn ttl_propagate_mismatch(net: &Network, out: &mut Vec<Diagnostic>) {
    for &asn in net.as_list() {
        let lers: Vec<_> = net
            .borders(asn)
            .into_iter()
            .map(|r| net.router(r))
            .filter(|r| r.config.mpls)
            .collect();
        let on = lers.iter().filter(|r| r.config.ttl_propagate).count();
        if on != 0 && on != lers.len() {
            out.push(Diagnostic::new(
                "W106",
                Severity::Warn,
                Location::As(asn),
                format!(
                    "ttl-propagate differs across AS{}'s LERs ({on} of {} propagate): \
                     LSPs between them mix visible and invisible behaviour",
                    asn.0,
                    lers.len()
                ),
                "set ttl_propagate uniformly on the AS's border routers (or accept partial deployment)",
            ));
        }
    }
}

/// W107: an RSVP-TE tunnel whose head or tail is not an LER (an MPLS
/// border router of its AS) — autoroute can never attract transit
/// traffic into it.
pub fn te_endpoint_not_ler(net: &Network, out: &mut Vec<Diagnostic>) {
    for t in net.te_tunnels() {
        let (Some(&head), Some(&tail)) = (t.path.first(), t.path.last()) else {
            continue; // ControlPlane::build rejects an empty path
        };
        let asn = net.router(head).asn;
        let borders: HashSet<RouterId> = net.borders(asn).into_iter().collect();
        for end in [head, tail] {
            let r = net.router(end);
            if !r.config.mpls || !borders.contains(&end) {
                out.push(Diagnostic::new(
                    "W107",
                    Severity::Error,
                    Location::Tunnel(t.id),
                    format!(
                        "tunnel endpoint {} is not an LER of AS{} ({})",
                        r.name,
                        asn.0,
                        if r.config.mpls {
                            "no inter-AS link"
                        } else {
                            "MPLS disabled"
                        }
                    ),
                    "terminate TE tunnels on MPLS-enabled border routers",
                ));
            }
        }
    }
}

/// W110: an AS mixing PHP and UHP popping across its MPLS routers —
/// consistent per-AS popping is the common deployment; a mix is worth
/// noting when interpreting revelation results (UHP LSPs resist every
/// technique) but breaks nothing.
pub fn popping_mismatch(net: &Network, out: &mut Vec<Diagnostic>) {
    let mut per_as: HashMap<Asn, (usize, usize)> = HashMap::new();
    for r in net.routers() {
        if r.config.mpls {
            let e = per_as.entry(r.asn).or_default();
            match r.config.popping {
                wormhole_net::PoppingMode::Php => e.0 += 1,
                wormhole_net::PoppingMode::Uhp => e.1 += 1,
            }
        }
    }
    for (asn, (php, uhp)) in per_as {
        if php > 0 && uhp > 0 {
            out.push(Diagnostic::new(
                "W110",
                Severity::Info,
                Location::As(asn),
                format!(
                    "AS{} mixes popping modes ({php} PHP, {uhp} UHP routers)",
                    asn.0
                ),
                "expect mixed revelation behaviour; unify popping for a uniform AS persona",
            ));
        }
    }
}

/// Runs every `W1xx` rule.
pub(crate) fn check(net: &Network) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    host_runs_mpls(net, &mut out);
    isolated_router(net, &mut out);
    ldp_asymmetry(net, &mut out);
    ttl_propagate_mismatch(net, &mut out);
    te_endpoint_not_ler(net, &mut out);
    popping_mismatch(net, &mut out);
    out
}
