//! `W1xx` — topology and MPLS-configuration rules over a built
//! [`Network`] (and, for the control-plane rules, a [`ControlPlane`]).

use crate::diag::{Diagnostic, Location, Severity};
use std::collections::{HashMap, HashSet, VecDeque};
use wormhole_net::{AsPrefixes, Asn, ControlPlane, LabelAction, Network, RouterId};

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

/// W103: an inter-AS link between two ASes with no declared BGP
/// relationship — valley-free routing will never use it and the
/// control-plane build will reject the network.
pub fn missing_as_rel(net: &Network, out: &mut Vec<Diagnostic>) {
    let declared: HashSet<(Asn, Asn)> = net
        .as_rels()
        .iter()
        .flat_map(|r| [(r.a, r.b), (r.b, r.a)])
        .collect();
    for l in net.links() {
        if !l.inter_as {
            continue;
        }
        let (ra, rb) = (net.router(l.a.router), net.router(l.b.router));
        if !declared.contains(&(ra.asn, rb.asn)) {
            out.push(Diagnostic::new(
                "W103",
                Severity::Error,
                Location::Pair(
                    ra.ifaces[l.a.iface as usize].addr,
                    rb.ifaces[l.b.iface as usize].addr,
                ),
                format!(
                    "inter-AS link {}–{} has no declared relationship between AS{} and AS{}",
                    ra.name, rb.name, ra.asn.0, rb.asn.0
                ),
                "declare it with NetworkBuilder::as_rel (provider-customer or peer)",
            ));
        }
    }
}

/// W104: an AS whose members are not mutually reachable over intra-AS
/// links — its IGP has no solution and the control plane cannot build.
pub fn disconnected_as(net: &Network, out: &mut Vec<Diagnostic>) {
    for &asn in net.as_list() {
        let members = net.as_members(asn);
        if members.len() < 2 {
            continue;
        }
        let mut seen: HashSet<RouterId> = HashSet::new();
        let mut queue: VecDeque<RouterId> = VecDeque::new();
        seen.insert(members[0]);
        queue.push_back(members[0]);
        while let Some(rid) = queue.pop_front() {
            for iface in &net.router(rid).ifaces {
                let peer = iface.peer;
                if net.router(peer).asn == asn && seen.insert(peer) {
                    queue.push_back(peer);
                }
            }
        }
        if seen.len() != members.len() {
            let stranded = members.iter().find(|r| !seen.contains(r)).copied();
            out.push(Diagnostic::new(
                "W104",
                Severity::Error,
                Location::As(asn),
                format!(
                    "AS{} is internally disconnected ({} of {} members reachable{})",
                    asn.0,
                    seen.len(),
                    members.len(),
                    stranded
                        .map(|r| format!("; e.g. {} is stranded", net.router(r).name))
                        .unwrap_or_default()
                ),
                "add intra-AS links until every member is reachable",
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
            continue; // an empty path is X205's finding
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

/// W108: a prefix-table entry with no reachable next hop — an owner
/// set that is empty, or owners that no longer hold any address inside
/// the prefix. FIBs, LDP FECs and LFIBs all key on these slots, so a
/// dead slot silently black-holes everything resolved through it.
///
/// `ControlPlane::build` only produces consistent tables; this rule
/// exists for tables mutated by what-if studies (the fields of
/// [`AsPrefixes`] are public for exactly that).
pub fn unreachable_prefix(net: &Network, tables: &[AsPrefixes], out: &mut Vec<Diagnostic>) {
    for table in tables {
        for (slot, prefix) in table.prefixes.iter().enumerate() {
            // A malformed owner CSR is D509's finding; read around it.
            let span = table.owner_base.get(slot..slot + 2);
            let Some(owners) = span.and_then(|w| table.owner_ids.get(w[0] as usize..w[1] as usize))
            else {
                continue;
            };
            let location = Location::Prefix {
                asn: table.asn,
                prefix: *prefix,
            };
            if owners.is_empty() {
                out.push(Diagnostic::new(
                    "W108",
                    Severity::Error,
                    location,
                    "prefix-table slot has no owner: no next hop can ever reach it",
                    "remove the slot or register the router owning an address in the prefix",
                ));
                continue;
            }
            let live = owners.iter().any(|&rid| {
                let r = net.router(rid);
                prefix.contains(r.loopback) || r.ifaces.iter().any(|i| prefix.contains(i.addr))
            });
            if !live {
                out.push(Diagnostic::new(
                    "W108",
                    Severity::Error,
                    location,
                    "no registered owner holds an address inside the prefix",
                    "rebuild the table with AsPrefixes::build after changing addresses",
                ));
            }
        }
    }
}

/// W109: a dangling LFIB label-swap — a `Swap(l)` branch towards a
/// neighbor whose LFIB has no entry for `l`. Label-switched packets
/// taking that branch are dropped mid-LSP with no ICMP trail.
///
/// As with W108, `ControlPlane::build` cannot produce this; it guards
/// entries installed through `ControlPlane::inject_lfib_entry`, so only
/// explicit entries are checked. A computed LDP entry swaps to the label
/// its next router advertises for the same FEC, and that router, in the
/// same connected AS and not owning the FEC, routes it.
pub fn dangling_label_swap(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) {
    for r in net.routers() {
        for (label, entry) in cp.lfib_explicit(r.id) {
            for hop in entry.branches() {
                let LabelAction::Swap(next_label) = hop.action else {
                    continue;
                };
                if cp.lfib_entry(hop.next, next_label).is_none() {
                    out.push(Diagnostic::new(
                        "W109",
                        Severity::Error,
                        Location::Router(r.name.clone()),
                        format!(
                            "LFIB entry for label {} swaps to label {} towards {}, \
                             which has no such incoming label",
                            label.0,
                            next_label.0,
                            net.router(hop.next).name
                        ),
                        "install the matching entry downstream or withdraw the binding",
                    ));
                }
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

/// Runs every rule that needs only the [`Network`] (W101–W107, W110).
pub fn check(net: &Network) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    host_runs_mpls(net, &mut out);
    isolated_router(net, &mut out);
    missing_as_rel(net, &mut out);
    disconnected_as(net, &mut out);
    ldp_asymmetry(net, &mut out);
    ttl_propagate_mismatch(net, &mut out);
    te_endpoint_not_ler(net, &mut out);
    popping_mismatch(net, &mut out);
    out
}

/// Runs every network rule including the control-plane checks
/// (adds W108, W109).
pub fn check_full(net: &Network, cp: &ControlPlane) -> Vec<Diagnostic> {
    let mut out = check(net);
    unreachable_prefix(net, &cp.as_prefixes, &mut out);
    dangling_label_swap(net, cp, &mut out);
    out
}
