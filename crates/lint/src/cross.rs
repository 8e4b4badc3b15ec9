//! `X2xx` — cross-layer rules: `wormhole-topo` scenarios, personas and
//! generated Internets validated against the `wormhole-net` layer they
//! claim to describe.

use crate::diag::{Diagnostic, Location, Severity};
use wormhole_net::{Network, RouterId};
use wormhole_topo::{AsPersona, GroundTruth, Internet, Scenario};

/// X201: a vantage point whose router is not configured as a host — a
/// VP that participates in routing/MPLS corrupts every measurement
/// taken from it.
pub fn vp_not_host(net: &Network, vp: RouterId, out: &mut Vec<Diagnostic>) {
    let r = net.router(vp);
    if !r.config.is_host {
        out.push(Diagnostic::new(
            "X201",
            Severity::Error,
            Location::Router(r.name.clone()),
            "vantage point is not a host (it would transit and label-switch traffic)",
            "build vantage points with RouterConfig::host()",
        ));
    }
}

/// X202: the scenario's probing target is unknown to the network or
/// unreachable from its vantage point — every trace would be all stars.
pub fn target_unreachable(s: &Scenario, out: &mut Vec<Diagnostic>) {
    if s.net.owner(s.target).is_none() {
        out.push(Diagnostic::new(
            "X202",
            Severity::Error,
            Location::Addr(s.target),
            "scenario target is owned by no router in the network",
            "point Scenario::target at a router loopback or interface address",
        ));
        return;
    }
    let gt = GroundTruth::new(&s.net, &s.cp);
    if gt.forward_path(s.vp, s.target, 1).is_none() {
        out.push(Diagnostic::new(
            "X202",
            Severity::Error,
            Location::Addr(s.target),
            "scenario target does not answer probes from the vantage point",
            "check AS relationships and router `replies` flags along the path",
        ));
    }
}

/// X203: a persona whose vendor mix cannot be sampled — empty, or with
/// non-finite / non-positive weights.
pub fn persona_bad_vendor_mix(p: &AsPersona, out: &mut Vec<Diagnostic>) {
    for (kind, mix) in [("edge", p.edge_vendors), ("core", p.core_vendors)] {
        let total: f64 = mix.iter().map(|&(_, w)| w).sum();
        let broken =
            mix.is_empty() || mix.iter().any(|&(_, w)| !w.is_finite() || w < 0.0) || total <= 0.0;
        if broken {
            out.push(Diagnostic::new(
                "X203",
                Severity::Error,
                Location::Persona(p.name.to_string()),
                format!("{kind} vendor mix is unusable (weights must be finite, ≥ 0, and sum > 0)"),
                "give every vendor a positive share, e.g. [(CiscoIos, 0.6), (JuniperJunos, 0.4)]",
            ));
        }
    }
}

/// X204: a persona that expands to an empty (or edge-less) topology —
/// no router can ever be generated for its AS.
pub fn persona_empty_topology(p: &AsPersona, out: &mut Vec<Diagnostic>) {
    if p.pops == 0 || p.edges_per_pop == 0 {
        out.push(Diagnostic::new(
            "X204",
            Severity::Error,
            Location::Persona(p.name.to_string()),
            format!(
                "persona expands to a degenerate AS ({} PoPs × {} edge routers)",
                p.pops, p.edges_per_pop
            ),
            "use at least one PoP with at least one edge router",
        ));
    }
}

/// X206: a persona referencing routers the generated network does not
/// contain — its AS is absent or its member count does not match the
/// persona's PoP arithmetic.
pub fn persona_missing_routers(net: &Network, p: &AsPersona, out: &mut Vec<Diagnostic>) {
    if net.as_index(p.asn).is_none() {
        out.push(Diagnostic::new(
            "X206",
            Severity::Error,
            Location::Persona(p.name.to_string()),
            format!(
                "persona AS{} does not exist in the generated network",
                p.asn.0
            ),
            "generate the Internet from a config that includes this persona",
        ));
        return;
    }
    let members = net.as_members(p.asn).len();
    if members != p.router_count() {
        out.push(Diagnostic::new(
            "X206",
            Severity::Error,
            Location::Persona(p.name.to_string()),
            format!(
                "persona expects {} routers in AS{} but the network holds {}",
                p.router_count(),
                p.asn.0,
                members
            ),
            "regenerate the network or fix the persona's pops/edges_per_pop",
        ));
    }
}

/// Lints a persona standalone (X203, X204).
pub fn check_persona(p: &AsPersona) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    persona_bad_vendor_mix(p, &mut out);
    persona_empty_topology(p, &mut out);
    out
}

/// Lints a Fig. 2-style scenario: every network rule, the `D5xx`
/// dense-plane verifier, plus the scenario-level cross checks (X201,
/// X202).
pub fn check_scenario(s: &Scenario) -> Vec<Diagnostic> {
    let mut out = crate::check_plane(&s.net, &s.cp);
    vp_not_host(&s.net, s.vp, &mut out);
    target_unreachable(s, &mut out);
    crate::normalize(&mut out);
    out
}

/// Lints a generated Internet: every network rule, the `D5xx`
/// dense-plane verifier, plus vantage-point and persona cross checks.
pub fn check_internet(i: &Internet) -> Vec<Diagnostic> {
    let mut out = crate::check_plane(&i.net, &i.cp);
    for &vp in &i.vps {
        vp_not_host(&i.net, vp, &mut out);
    }
    for p in &i.personas {
        persona_bad_vendor_mix(p, &mut out);
        persona_empty_topology(p, &mut out);
        persona_missing_routers(&i.net, p, &mut out);
    }
    crate::normalize(&mut out);
    out
}
