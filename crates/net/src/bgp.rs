//! AS-level routing: Gao–Rexford valley-free route selection.
//!
//! The measurement techniques never inspect BGP state, but the *shape*
//! of inter-domain routing matters twice in the paper: external transit
//! traffic is label-switched towards the BGP next hop (the egress border
//! loopback), and hot-potato egress selection makes forward and return
//! paths asymmetric — the noise FRPLA must average out (§3.4, Fig 7).

use crate::error::NetError;
use crate::net::{Network, RelKind};
use std::collections::{BinaryHeap, HashMap};

/// Preference class of an AS-level route, lower is better
/// (customer > peer > provider in operator revenue terms).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum RouteClass {
    /// Learned from a customer (or the origin itself).
    Customer = 0,
    /// Learned from a settlement-free peer.
    Peer = 1,
    /// Learned from a provider.
    Provider = 2,
}

/// The AS-level routing table: for every destination AS, each AS's set
/// of equally-best next-hop ASes. [`crate::ControlPlane::build`]
/// computes it for the hot-potato external-route pass and drops it;
/// the plane stores only the classes that pass yields.
///
/// The next-hop sets live in one `u32` CSR: pair `(dst, src)` owns the
/// span `next_base[dst * n + src] .. next_base[dst * n + src + 1]` of
/// `next_pool`, so the `n²` sets cost two flat arrays instead of `n²`
/// small heap vectors.
#[derive(Debug, Clone)]
pub struct Bgp {
    /// Number of ASes the table covers.
    n: usize,
    /// CSR offsets into `next_pool`; length `n * n + 1`.
    next_base: Vec<u32>,
    /// Concatenated dense AS indices of the best next-hop ASes from
    /// `src` towards `dst` (an empty span ⇒ unreachable; `src == dst` ⇒
    /// empty by convention).
    next_pool: Vec<u32>,
}

/// Neighbor view used during route computation.
struct AsAdj {
    /// `neighbors[x]`: `(y, class)` pairs where `class` is what `y`
    /// assigns to a route it learns from `x`.
    neighbors: Vec<Vec<(usize, RouteClass)>>,
}

fn build_adj(net: &Network) -> Result<AsAdj, NetError> {
    let n = net.as_list().len();
    let mut neighbors = vec![Vec::new(); n];
    let mut declared: HashMap<(usize, usize), ()> = HashMap::new();
    for rel in net.as_rels() {
        let (Some(a), Some(b)) = (net.as_index(rel.a), net.as_index(rel.b)) else {
            continue; // relationship about an AS with no routers
        };
        declared.insert((a.min(b), a.max(b)), ());
        match rel.kind {
            RelKind::ProviderCustomer => {
                // a provides transit to b. A route propagated a→b is
                // provider-learned at b; a route propagated b→a is
                // customer-learned at a.
                neighbors[a].push((b, RouteClass::Provider));
                neighbors[b].push((a, RouteClass::Customer));
            }
            RelKind::Peer => {
                neighbors[a].push((b, RouteClass::Peer));
                neighbors[b].push((a, RouteClass::Peer));
            }
        }
    }
    // Every physical inter-AS link must be covered by a relationship.
    for link in net.links() {
        if !link.inter_as {
            continue;
        }
        let asn_a = net.router(link.a.router).asn;
        let asn_b = net.router(link.b.router).asn;
        let ia = net
            .as_index(asn_a)
            .ok_or(NetError::UnregisteredAs { asn: asn_a })?;
        let ib = net
            .as_index(asn_b)
            .ok_or(NetError::UnregisteredAs { asn: asn_b })?;
        if !declared.contains_key(&(ia.min(ib), ia.max(ib))) {
            return Err(NetError::MissingAsRel { a: asn_a, b: asn_b });
        }
    }
    Ok(AsAdj { neighbors })
}

impl Bgp {
    /// Computes valley-free best routes for every (destination, source)
    /// AS pair.
    pub fn compute(net: &Network) -> Result<Bgp, NetError> {
        let adj = build_adj(net)?;
        let n = net.as_list().len();
        let mut next_base = Vec::with_capacity(n * n + 1);
        let mut next_pool = Vec::new();
        next_base.push(0u32);
        for dst in 0..n {
            for set in &Self::single_dest(&adj, n, dst) {
                next_pool.extend(set.iter().map(|&x| x as u32));
                next_base.push(next_pool.len() as u32);
            }
        }
        next_pool.shrink_to_fit();
        Ok(Bgp {
            n,
            next_base,
            next_pool,
        })
    }

    /// Dijkstra over the `(class, hops)` lattice for one destination:
    /// each AS's set of best next-hop ASes.
    ///
    /// An AS `x` exports its route to neighbor `y` only when `y` is its
    /// customer, or when `x`'s own route is customer-learned / originated
    /// — the classic valley-free export rule.
    fn single_dest(adj: &AsAdj, n: usize, dst: usize) -> Vec<Vec<usize>> {
        use std::cmp::Reverse;
        let mut best: Vec<Option<(RouteClass, u32)>> = vec![None; n];
        let mut nexts: Vec<Vec<usize>> = vec![Vec::new(); n];
        best[dst] = Some((RouteClass::Customer, 0));
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((RouteClass::Customer, 0u32, dst)));
        while let Some(Reverse((class, hops, x))) = heap.pop() {
            if best[x] != Some((class, hops)) {
                continue; // superseded
            }
            for &(y, class_at_y) in &adj.neighbors[x] {
                // Export rule: x -> y allowed if y is x's customer, i.e.
                // y would class the route "Provider"; otherwise only
                // customer routes (and the origin's own) are exported.
                let exporting_down = class_at_y == RouteClass::Provider;
                if !exporting_down && class != RouteClass::Customer {
                    continue;
                }
                let cand = (class_at_y, hops + 1);
                match best[y] {
                    Some(cur) if cur < cand => {}
                    Some(cur) if cur == cand => {
                        if !nexts[y].contains(&x) {
                            nexts[y].push(x);
                        }
                    }
                    _ => {
                        best[y] = Some(cand);
                        nexts[y] = vec![x];
                        heap.push(Reverse((cand.0, cand.1, y)));
                    }
                }
            }
        }
        nexts
    }

    /// The best next-hop AS indices from `src` towards `dst` (dense
    /// indices).
    #[inline]
    pub fn next_hops(&self, dst: usize, src: usize) -> &[u32] {
        let cell = dst * self.n + src;
        &self.next_pool[self.next_base[cell] as usize..self.next_base[cell + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkOpts, NetworkBuilder};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;
    use crate::Asn;

    /// `bgp.next_hops` resolved through [`Network::as_index`].
    fn next_hop_asns(bgp: &Bgp, net: &Network, dst: Asn, src: Asn) -> Vec<Asn> {
        let (Some(d), Some(s)) = (net.as_index(dst), net.as_index(src)) else {
            return Vec::new();
        };
        bgp.next_hops(d, s)
            .iter()
            .map(|&i| net.as_list()[i as usize])
            .collect()
    }

    /// AS1 --customer-of--> AS2 (transit) <--customer-- AS3;
    /// AS2 peers with AS4; AS4 provides AS5.
    fn net5() -> Network {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        let r4 = b.add_router("r4", Asn(4), cfg.clone());
        let r5 = b.add_router("r5", Asn(5), cfg.clone());
        b.link(r1, r2, LinkOpts::default());
        b.link(r2, r3, LinkOpts::default());
        b.link(r2, r4, LinkOpts::default());
        b.link(r4, r5, LinkOpts::default());
        b.as_rel(Asn(2), Asn(1), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(4), RelKind::Peer);
        b.as_rel(Asn(4), Asn(5), RelKind::ProviderCustomer);
        b.build().unwrap()
    }

    #[test]
    fn transit_through_provider() {
        let net = net5();
        let bgp = Bgp::compute(&net).unwrap();
        // AS1 reaches AS3 via its provider AS2.
        assert_eq!(next_hop_asns(&bgp, &net, Asn(3), Asn(1)), vec![Asn(2)]);
        // AS3 reaches AS1 via AS2 as well.
        assert_eq!(next_hop_asns(&bgp, &net, Asn(1), Asn(3)), vec![Asn(2)]);
    }

    #[test]
    fn peering_is_not_transit() {
        let net = net5();
        let bgp = Bgp::compute(&net).unwrap();
        // AS2 reaches AS5 through its peer AS4 (AS4 exports its customer).
        assert_eq!(next_hop_asns(&bgp, &net, Asn(5), Asn(2)), vec![Asn(4)]);
        // And AS1 (customer of AS2) reaches AS5 via AS2.
        assert_eq!(next_hop_asns(&bgp, &net, Asn(5), Asn(1)), vec![Asn(2)]);
        // AS5 reaches AS1: AS5 -> AS4 (provider) -> peer AS2 -> customer.
        assert_eq!(next_hop_asns(&bgp, &net, Asn(1), Asn(5)), vec![Asn(4)]);
    }

    #[test]
    fn customer_routes_preferred_over_peer() {
        // AS2 has both a customer path and a peer path to AS6:
        // AS2 -> AS3 (customer) -> AS6 (customer of AS3)
        // AS2 -> AS4 (peer), AS4 -> AS6 (customer of AS4)
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        let r4 = b.add_router("r4", Asn(4), cfg.clone());
        let r6 = b.add_router("r6", Asn(6), cfg.clone());
        b.link(r2, r3, LinkOpts::default());
        b.link(r2, r4, LinkOpts::default());
        b.link(r3, r6, LinkOpts::default());
        b.link(r4, r6, LinkOpts::default());
        b.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(4), RelKind::Peer);
        b.as_rel(Asn(3), Asn(6), RelKind::ProviderCustomer);
        b.as_rel(Asn(4), Asn(6), RelKind::ProviderCustomer);
        let net = b.build().unwrap();
        let bgp = Bgp::compute(&net).unwrap();
        assert_eq!(next_hop_asns(&bgp, &net, Asn(6), Asn(2)), vec![Asn(3)]);
    }

    #[test]
    fn ecmp_as_level_ties_kept() {
        // Two equally-good customer paths from AS1 to AS4.
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        let r4 = b.add_router("r4", Asn(4), cfg.clone());
        b.link(r1, r2, LinkOpts::default());
        b.link(r1, r3, LinkOpts::default());
        b.link(r2, r4, LinkOpts::default());
        b.link(r3, r4, LinkOpts::default());
        b.as_rel(Asn(1), Asn(2), RelKind::ProviderCustomer);
        b.as_rel(Asn(1), Asn(3), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(4), RelKind::ProviderCustomer);
        b.as_rel(Asn(3), Asn(4), RelKind::ProviderCustomer);
        let net = b.build().unwrap();
        let bgp = Bgp::compute(&net).unwrap();
        let mut nh = next_hop_asns(&bgp, &net, Asn(4), Asn(1));
        nh.sort();
        assert_eq!(nh, vec![Asn(2), Asn(3)]);
    }

    #[test]
    fn undeclared_inter_as_link_is_an_error() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg);
        b.link(r1, r2, LinkOpts::default());
        let net = b.build().unwrap();
        assert!(matches!(
            Bgp::compute(&net),
            Err(NetError::MissingAsRel { .. })
        ));
    }

    #[test]
    fn valley_paths_rejected() {
        // AS1 and AS3 are both customers of nobody, peers of AS2? No:
        // peer-peer-peer chains must not provide transit:
        // AS1 - peer - AS2 - peer - AS3: AS1 cannot reach AS3.
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        b.link(r1, r2, LinkOpts::default());
        b.link(r2, r3, LinkOpts::default());
        b.as_rel(Asn(1), Asn(2), RelKind::Peer);
        b.as_rel(Asn(2), Asn(3), RelKind::Peer);
        let net = b.build().unwrap();
        let bgp = Bgp::compute(&net).unwrap();
        assert!(next_hop_asns(&bgp, &net, Asn(3), Asn(1)).is_empty());
        // Direct peers still reach each other.
        assert_eq!(next_hop_asns(&bgp, &net, Asn(2), Asn(1)), vec![Asn(2)]);
    }
}
