//! Per-AS IGP shortest paths (OSPF/IS-IS stand-in).
//!
//! Each AS's interior routing is an ECMP-aware shortest-path computation
//! over its intra-AS links with per-direction metrics. The control plane
//! runs one Dijkstra per member and keeps the distance matrix: FIB next
//! hops, LDP LSP construction and BGP hot-potato egress selection all
//! derive from it.

use crate::ids::{Asn, RouterId};
use crate::net::Network;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "Unreachable" distance sentinel.
pub const INF: u32 = u32::MAX / 2;

/// The IGP view of one AS: members, the all-pairs distance matrix, and
/// the precomputed all-pairs ECMP first-hop sets in CSR layout.
#[derive(Debug, Clone)]
pub struct AsIgp {
    /// The AS.
    pub asn: Asn,
    /// Member routers, in [`Network::as_members`] order — ascending
    /// router id, so a member's local index is its rank and
    /// [`AsIgp::local_index`] is a binary search, not a hash.
    pub members: Vec<RouterId>,
    /// `dist[s][d]`: shortest metric from member `s` to member `d`
    /// (local indices).
    pub dist: Vec<Vec<u32>>,
    /// CSR offsets into [`Self::fh_data`]: pair `(s, d)` owns the span
    /// `fh_index[s * n + d] .. fh_index[s * n + d + 1]`.
    fh_index: Vec<u32>,
    /// Concatenated `(iface index, neighbor)` first-hop sets.
    fh_data: Vec<(u32, RouterId)>,
}

/// One resolved intra-AS adjacency of a member: the interface, the
/// neighbor, the neighbor's local index and the outgoing metric — read
/// by both Dijkstra and the first-hop precompute.
#[derive(Copy, Clone)]
struct Adj {
    iface: u32,
    peer: RouterId,
    local: u32,
    metric: u32,
}

impl AsIgp {
    /// Computes the IGP view of `asn`.
    pub fn compute(net: &Network, asn: Asn) -> AsIgp {
        let members: Vec<RouterId> = net.as_members(asn).to_vec();
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let n = members.len();
        // Resolve every member's intra-AS neighbors once, in interface
        // order, as a CSR over local indices.
        let mut adj_base = Vec::with_capacity(n + 1);
        let mut adj: Vec<Adj> = Vec::new();
        adj_base.push(0u32);
        for &s in &members {
            for (idx, iface) in net.router(s).ifaces.iter().enumerate() {
                if net.link(iface.link).inter_as {
                    continue;
                }
                let Ok(local) = members.binary_search(&iface.peer) else {
                    continue;
                };
                adj.push(Adj {
                    iface: idx as u32,
                    peer: iface.peer,
                    local: local as u32,
                    metric: edge_metric(net, s, idx),
                });
            }
            adj_base.push(adj.len() as u32);
        }
        let rows = |u: usize| &adj[adj_base[u] as usize..adj_base[u + 1] as usize];

        let mut heap = BinaryHeap::new();
        let dist: Vec<Vec<u32>> = (0..n)
            .map(|src| dijkstra(&adj_base, &adj, src, &mut heap))
            .collect();

        // Precompute every (s, d) ECMP first-hop set once, so per-hop
        // forwarding decisions borrow a slice instead of re-deriving
        // (and allocating) the set on every packet.
        let mut fh_index = Vec::with_capacity(n * n + 1);
        let mut fh_data = Vec::new();
        fh_index.push(0u32);
        for (ls, row) in dist.iter().enumerate() {
            let out = rows(ls);
            for (ld, &total) in row.iter().enumerate() {
                if total < INF && ls != ld {
                    for a in out {
                        if a.metric.saturating_add(dist[a.local as usize][ld]) == total {
                            fh_data.push((a.iface, a.peer));
                        }
                    }
                }
                fh_index.push(fh_data.len() as u32);
            }
        }
        AsIgp {
            asn,
            members,
            dist,
            fh_index,
            fh_data,
        }
    }

    /// The local (dense) index of member `r`, if it is one.
    #[inline]
    pub fn local_index(&self, r: RouterId) -> Option<usize> {
        self.members.binary_search(&r).ok()
    }

    /// Shortest metric from local member `ls` to local member `ld`.
    #[inline]
    pub fn distance_local(&self, ls: usize, ld: usize) -> u32 {
        self.dist[ls][ld]
    }

    /// The ECMP first-hop set from local member `ls` towards local
    /// member `ld` (see [`AsIgp::first_hops`]).
    #[inline]
    pub fn first_hops_local(&self, ls: usize, ld: usize) -> &[(u32, RouterId)] {
        let cell = ls * self.members.len() + ld;
        let lo = self.fh_index[cell] as usize;
        let hi = self.fh_index[cell + 1] as usize;
        &self.fh_data[lo..hi]
    }

    /// Shortest metric from `s` to `d` (router ids; `INF` if either is
    /// not a member or unreachable).
    pub fn distance(&self, s: RouterId, d: RouterId) -> u32 {
        match (self.local_index(s), self.local_index(d)) {
            (Some(ls), Some(ld)) => self.dist[ls][ld],
            _ => INF,
        }
    }

    /// The ECMP first-hop set from `s` towards `d`: every
    /// `(iface index, neighbor)` of `s` lying on a shortest path.
    /// Empty when `d` is unreachable or `s == d`. Borrowed from the
    /// table precomputed by [`AsIgp::compute`]; no per-call allocation.
    pub fn first_hops(&self, s: RouterId, d: RouterId) -> &[(u32, RouterId)] {
        match (self.local_index(s), self.local_index(d)) {
            (Some(ls), Some(ld)) => self.first_hops_local(ls, ld),
            _ => &[],
        }
    }

    /// True when every member can reach every other member.
    pub fn connected(&self) -> bool {
        self.dist.iter().all(|row| row.iter().all(|&d| d < INF))
    }

    /// A member unreachable from the first member, if any.
    pub fn find_unreachable(&self) -> Option<RouterId> {
        let row = self.dist.first()?;
        row.iter().position(|&d| d >= INF).map(|i| self.members[i])
    }

    /// The raw first-hop CSR `(fh_index, fh_data)`, for the D5xx
    /// dense-plane verifier's well-formedness checks.
    pub fn first_hop_csr(&self) -> (&[u32], &[(u32, RouterId)]) {
        (&self.fh_index, &self.fh_data)
    }

    /// Mutable first-hop CSR offsets (test-only mutation hook).
    #[cfg(feature = "mutation")]
    pub fn fh_index_mut(&mut self) -> &mut Vec<u32> {
        &mut self.fh_index
    }
}

/// The IGP metric of `router`'s `iface_idx`-th interface in the outgoing
/// direction.
pub fn edge_metric(net: &Network, router: RouterId, iface_idx: usize) -> u32 {
    let iface = &net.router(router).ifaces[iface_idx];
    let link = net.link(iface.link);
    if link.a.router == router && link.a.iface == iface_idx as u32 {
        link.metric_ab
    } else {
        link.metric_ba
    }
}

/// Single-source shortest metrics over the adjacency CSR
/// `(adj_base, adj)`; `heap` is scratch reused across sources.
fn dijkstra(
    adj_base: &[u32],
    adj: &[Adj],
    src: usize,
    heap: &mut BinaryHeap<Reverse<(u32, usize)>>,
) -> Vec<u32> {
    let mut dist = vec![INF; adj_base.len() - 1];
    dist[src] = 0;
    heap.clear();
    heap.push(Reverse((0u32, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for a in &adj[adj_base[u] as usize..adj_base[u + 1] as usize] {
            let v = a.local as usize;
            let nd = d.saturating_add(a.metric);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkOpts, NetworkBuilder};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    /// Square AS: a-b, b-d, a-c, c-d, plus an expensive direct a-d.
    fn square() -> (Network, [RouterId; 4]) {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let a = b.add_router("a", Asn(1), cfg.clone());
        let bb = b.add_router("b", Asn(1), cfg.clone());
        let c = b.add_router("c", Asn(1), cfg.clone());
        let d = b.add_router("d", Asn(1), cfg.clone());
        b.link(a, bb, LinkOpts::symmetric(10, 1.0));
        b.link(bb, d, LinkOpts::symmetric(10, 1.0));
        b.link(a, c, LinkOpts::symmetric(10, 1.0));
        b.link(c, d, LinkOpts::symmetric(10, 1.0));
        b.link(a, d, LinkOpts::symmetric(100, 1.0));
        (b.build().unwrap(), [a, bb, c, d])
    }

    #[test]
    fn shortest_distances() {
        let (net, [a, bb, c, d]) = square();
        let igp = AsIgp::compute(&net, Asn(1));
        assert_eq!(igp.distance(a, d), 20);
        assert_eq!(igp.distance(a, bb), 10);
        assert_eq!(igp.distance(a, c), 10);
        assert_eq!(igp.distance(d, a), 20);
        assert_eq!(igp.distance(a, a), 0);
        assert!(igp.connected());
        assert!(igp.find_unreachable().is_none());
    }

    #[test]
    fn ecmp_first_hops() {
        let (net, [a, bb, c, d]) = square();
        let igp = AsIgp::compute(&net, Asn(1));
        let mut fh: Vec<RouterId> = igp.first_hops(a, d).iter().map(|&(_, r)| r).collect();
        fh.sort();
        assert_eq!(fh, vec![bb, c]);
        // Direct expensive edge not part of the set.
        assert!(!fh.contains(&d));
        // Single path a->b.
        assert_eq!(igp.first_hops(a, bb).len(), 1);
        // Self: empty.
        assert!(igp.first_hops(a, a).is_empty());
    }

    #[test]
    fn asymmetric_metrics() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router("x", Asn(1), cfg.clone());
        let y = b.add_router("y", Asn(1), cfg.clone());
        let z = b.add_router("z", Asn(1), cfg.clone());
        // x->y cheap, y->x expensive; detour via z costs 2+2.
        b.link(
            x,
            y,
            LinkOpts {
                delay_ms: 1.0,
                metric_ab: 1,
                metric_ba: 10,
            },
        );
        b.link(x, z, LinkOpts::symmetric(2, 1.0));
        b.link(z, y, LinkOpts::symmetric(2, 1.0));
        let net = b.build().unwrap();
        let igp = AsIgp::compute(&net, Asn(1));
        assert_eq!(igp.distance(x, y), 1);
        assert_eq!(igp.distance(y, x), 4); // via z
        let fh = igp.first_hops(y, x);
        assert_eq!(fh.len(), 1);
        assert_eq!(fh[0].1, z);
    }

    #[test]
    fn disconnected_detected() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router("x", Asn(1), cfg.clone());
        let y = b.add_router("y", Asn(1), cfg.clone());
        b.link(x, y, LinkOpts::default());
        let lonely = b.add_router("lonely", Asn(1), cfg);
        let net = b.build().unwrap();
        let igp = AsIgp::compute(&net, Asn(1));
        assert!(!igp.connected());
        assert_eq!(igp.find_unreachable(), Some(lonely));
    }

    #[test]
    fn inter_as_links_ignored_by_igp() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router("x", Asn(1), cfg.clone());
        let y = b.add_router("y", Asn(2), cfg);
        b.link(x, y, LinkOpts::default());
        let net = b.build().unwrap();
        let igp = AsIgp::compute(&net, Asn(1));
        assert_eq!(igp.members.len(), 1);
        assert!(igp.first_hops(x, y).is_empty());
    }
}
