//! Router model: interfaces, per-router configuration, vendor defaults.

use crate::addr::{Addr, Prefix};
use crate::ids::{Asn, LinkId, RouterId};
use crate::vendor::{LdpPolicy, PoppingMode, Vendor};

/// A router interface: one end of a point-to-point link.
#[derive(Clone, Debug)]
pub struct Interface {
    /// The interface's own address on the link subnet.
    pub addr: Addr,
    /// The link subnet (a `/31` in generated topologies).
    pub prefix: Prefix,
    /// The link this interface terminates.
    pub link: LinkId,
    /// The router on the other end.
    pub peer: RouterId,
    /// The peer's address on the shared subnet.
    pub peer_addr: Addr,
}

/// Per-router configuration: vendor family plus the MPLS knobs whose
/// combinations Table 2 of the paper enumerates.
#[derive(Clone, Debug, PartialEq)]
pub struct RouterConfig {
    /// The vendor family (fixes initial-TTL signature and LDP default).
    pub vendor: Vendor,
    /// Whether MPLS/LDP forwarding is enabled at all.
    pub mpls: bool,
    /// The `ttl-propagate` option (RFC 3443): when `false`, the ingress
    /// sets LSE-TTL to 255 instead of copying the IP-TTL, hiding the
    /// tunnel from traceroute.
    pub ttl_propagate: bool,
    /// PHP (implicit null) vs UHP (explicit null).
    pub popping: PoppingMode,
    /// Which prefixes this router advertises labels for.
    pub ldp_policy: LdpPolicy,
    /// Whether ICMP time-exceeded messages quote the received MPLS label
    /// stack (RFC 4950).
    pub rfc4950: bool,
    /// The RFC 3443 `min(IP-TTL, LSE-TTL)` rule applied when the last
    /// label is popped. Standard on Cisco and Juniper; configurable so
    /// the ablation benches can remove the FRPLA/RTLA signal.
    pub min_on_exit: bool,
    /// Whether the router answers probes at all (`false` models the
    /// anonymous hops every campaign encounters).
    pub replies: bool,
    /// True for measurement hosts (vantage points / targets behind CEs):
    /// hosts originate and sink packets but the campaign never treats
    /// them as routers.
    pub is_host: bool,
}

impl RouterConfig {
    /// A plain IP router of the given vendor: MPLS off, all defaults on.
    pub fn ip_router(vendor: Vendor) -> RouterConfig {
        RouterConfig {
            vendor,
            mpls: false,
            ttl_propagate: true,
            popping: PoppingMode::Php,
            ldp_policy: vendor.default_ldp_policy(),
            rfc4950: true,
            min_on_exit: true,
            replies: true,
            is_host: false,
        }
    }

    /// An MPLS/LDP router with the vendor's factory defaults
    /// (`ttl-propagate` on, PHP, vendor LDP policy).
    pub fn mpls_router(vendor: Vendor) -> RouterConfig {
        RouterConfig {
            mpls: true,
            ..RouterConfig::ip_router(vendor)
        }
    }

    /// An end host (vantage point or destination).
    pub fn host() -> RouterConfig {
        RouterConfig {
            is_host: true,
            ..RouterConfig::ip_router(Vendor::BrocadeLinux)
        }
    }

    /// Returns `self` with `ttl-propagate` disabled (the invisible-tunnel
    /// configuration: `no mpls ip propagate-ttl`).
    pub fn no_ttl_propagate(mut self) -> RouterConfig {
        self.ttl_propagate = false;
        self
    }

    /// Returns `self` with UHP (explicit null) enabled
    /// (`mpls ldp explicit-null`).
    pub fn uhp(mut self) -> RouterConfig {
        self.popping = PoppingMode::Uhp;
        self
    }

    /// Returns `self` with the LDP advertising policy overridden
    /// (e.g. `mpls ldp label allocate global host-routes`).
    pub fn ldp(mut self, policy: LdpPolicy) -> RouterConfig {
        self.ldp_policy = policy;
        self
    }

    /// Returns `self` with RFC 4950 stack quoting disabled (old OSes).
    pub fn without_rfc4950(mut self) -> RouterConfig {
        self.rfc4950 = false;
        self
    }

    /// Returns `self` configured to never answer probes.
    pub fn silent(mut self) -> RouterConfig {
        self.replies = false;
        self
    }
}

/// A router: identity, addresses, interfaces, and configuration.
#[derive(Clone, Debug)]
pub struct Router {
    /// Dense identifier inside the network.
    pub id: RouterId,
    /// Human-readable name (used by scenario outputs, e.g. "PE1").
    pub name: String,
    /// The AS this router belongs to.
    pub asn: Asn,
    /// The router's loopback address (`/32`).
    pub loopback: Addr,
    /// The router's interfaces.
    pub ifaces: Vec<Interface>,
    /// The configuration knobs.
    pub config: RouterConfig,
}

impl Router {
    /// True if `addr` is the loopback or any interface address.
    pub fn owns(&self, addr: Addr) -> bool {
        self.loopback == addr || self.ifaces.iter().any(|i| i.addr == addr)
    }

    /// Every address the router holds: the loopback, then each
    /// interface's in order.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        std::iter::once(self.loopback).chain(self.ifaces.iter().map(|i| i.addr))
    }

    /// The interface (index) whose address is `addr`, if any.
    pub fn iface_by_addr(&self, addr: Addr) -> Option<usize> {
        self.ifaces.iter().position(|i| i.addr == addr)
    }

    /// The interface (index) facing `peer`, if any. With parallel links
    /// the first one is returned.
    pub fn iface_to(&self, peer: RouterId) -> Option<usize> {
        self.ifaces.iter().position(|i| i.peer == peer)
    }

    /// All neighbor router ids (deduplicated, insertion order).
    pub fn neighbors(&self) -> Vec<RouterId> {
        let mut out = Vec::with_capacity(self.ifaces.len());
        for i in &self.ifaces {
            if !out.contains(&i.peer) {
                out.push(i.peer);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_router() -> Router {
        Router {
            id: RouterId(0),
            name: "PE1".into(),
            asn: Asn(2),
            loopback: Addr::new(10, 2, 0, 1),
            ifaces: vec![
                Interface {
                    addr: Addr::new(10, 2, 64, 0),
                    prefix: "10.2.64.0/31".parse().unwrap(),
                    link: LinkId(0),
                    peer: RouterId(1),
                    peer_addr: Addr::new(10, 2, 64, 1),
                },
                Interface {
                    addr: Addr::new(10, 2, 64, 2),
                    prefix: "10.2.64.2/31".parse().unwrap(),
                    link: LinkId(1),
                    peer: RouterId(2),
                    peer_addr: Addr::new(10, 2, 64, 3),
                },
            ],
            config: RouterConfig::mpls_router(Vendor::CiscoIos),
        }
    }

    #[test]
    fn ownership_and_lookup() {
        let r = sample_router();
        assert!(r.owns(Addr::new(10, 2, 0, 1)));
        assert!(r.owns(Addr::new(10, 2, 64, 2)));
        assert!(!r.owns(Addr::new(10, 2, 64, 1)));
        assert_eq!(r.iface_by_addr(Addr::new(10, 2, 64, 2)), Some(1));
        assert_eq!(r.iface_to(RouterId(2)), Some(1));
        assert_eq!(r.iface_to(RouterId(9)), None);
        assert_eq!(r.neighbors(), vec![RouterId(1), RouterId(2)]);
    }

    #[test]
    fn config_builders_compose() {
        let c = RouterConfig::mpls_router(Vendor::JuniperJunos)
            .no_ttl_propagate()
            .uhp();
        assert!(c.mpls);
        assert!(!c.ttl_propagate);
        assert_eq!(c.popping, PoppingMode::Uhp);
        assert_eq!(c.ldp_policy, LdpPolicy::LoopbackOnly);
        let c = RouterConfig::mpls_router(Vendor::CiscoIos).ldp(LdpPolicy::LoopbackOnly);
        assert_eq!(c.ldp_policy, LdpPolicy::LoopbackOnly);
        assert!(RouterConfig::host().is_host);
        assert!(!RouterConfig::ip_router(Vendor::CiscoIos).mpls);
        assert!(!RouterConfig::mpls_router(Vendor::CiscoIos).silent().replies);
        assert!(
            !RouterConfig::mpls_router(Vendor::CiscoIos)
                .without_rfc4950()
                .rfc4950
        );
    }
}
