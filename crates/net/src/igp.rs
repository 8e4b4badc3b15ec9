//! Per-AS IGP shortest paths (OSPF/IS-IS stand-in).
//!
//! Each AS's interior routing is an ECMP-aware shortest-path computation
//! over its intra-AS links with per-direction metrics. The control plane
//! runs one Dijkstra per member and keeps only the distance matrix: FIB
//! next hops, LDP LSP construction and BGP hot-potato egress selection
//! all derive from it. The ECMP first hops of a member are not stored;
//! [`AsIgp::next_hop_masks`] re-derives them from the matrix and the
//! member's [`Adj`] list, one bit per adjacency, whenever the plane is
//! built or verified.

use crate::ids::{Asn, RouterId};
use crate::net::Network;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "Unreachable" distance sentinel.
pub const INF: u32 = u32::MAX / 2;

/// Most adjacencies a next-hop mask names: one bit each.
pub const MASK_BITS: usize = 64;

/// The IGP view of one AS: its members and the all-pairs distance
/// matrix.
#[derive(Debug, Clone)]
pub struct AsIgp {
    /// The AS.
    pub asn: Asn,
    /// Member routers, in [`Network::as_members`] order — ascending
    /// router id, so a member's local index is its rank and
    /// [`AsIgp::local_index`] is a binary search, not a hash.
    pub members: Vec<RouterId>,
    /// Row-major `n × n` distance matrix: `dist[s * n + d]` is the
    /// shortest metric from member `s` to member `d` (local indices);
    /// [`AsIgp::row`] reads one source's row.
    pub dist: Vec<u32>,
}

/// One intra-AS adjacency of a member: the interface, the neighbor,
/// the neighbor's local index and the outgoing metric — read by
/// Dijkstra, by [`AsIgp::next_hop_masks`] and by the `D505` verifier.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Adj {
    /// Interface index on the member.
    pub iface: u32,
    /// The neighbor across it.
    pub peer: RouterId,
    /// The neighbor's local index.
    pub local: u32,
    /// [`edge_metric`] of the interface.
    pub metric: u32,
}

/// Appends `router`'s adjacencies to the routers of `members` (an
/// AS's members, ascending) to `out`, in interface order; links to
/// other ASes are skipped.
pub fn adjacencies_into(net: &Network, members: &[RouterId], router: RouterId, out: &mut Vec<Adj>) {
    for (idx, iface) in net.router(router).ifaces.iter().enumerate() {
        if net.link(iface.link).inter_as {
            continue;
        }
        let Ok(local) = members.binary_search(&iface.peer) else {
            continue;
        };
        out.push(Adj {
            iface: idx as u32,
            peer: iface.peer,
            local: local as u32,
            metric: edge_metric(net, router, idx),
        });
    }
}

impl AsIgp {
    /// Computes the IGP view of `asn`.
    pub fn compute(net: &Network, asn: Asn) -> AsIgp {
        let members: Vec<RouterId> = net.as_members(asn).to_vec();
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let n = members.len();
        // Resolve every member's neighbors once, as a CSR over local
        // indices.
        let mut adj_base = Vec::with_capacity(n + 1);
        let mut adj: Vec<Adj> = Vec::new();
        adj_base.push(0u32);
        for &s in &members {
            adjacencies_into(net, &members, s, &mut adj);
            adj_base.push(adj.len() as u32);
        }

        let mut heap = BinaryHeap::new();
        let mut dist = vec![INF; n * n];
        for src in 0..n {
            dijkstra(
                &adj_base,
                &adj,
                src,
                &mut dist[src * n..(src + 1) * n],
                &mut heap,
            );
        }
        AsIgp { asn, members, dist }
    }

    /// The local (dense) index of member `r`, if it is one.
    #[inline]
    pub fn local_index(&self, r: RouterId) -> Option<usize> {
        self.members.binary_search(&r).ok()
    }

    /// The shortest metrics from local member `ls` to every member, in
    /// local-index order.
    #[inline]
    pub fn row(&self, ls: usize) -> &[u32] {
        let n = self.members.len();
        &self.dist[ls * n..(ls + 1) * n]
    }

    /// Shortest metric from local member `ls` to local member `ld`.
    #[inline]
    pub fn distance_local(&self, ls: usize, ld: usize) -> u32 {
        self.dist[ls * self.members.len() + ld]
    }

    /// Shortest metric from `s` to `d` (router ids; `INF` if either is
    /// not a member or unreachable).
    pub fn distance(&self, s: RouterId, d: RouterId) -> u32 {
        match (self.local_index(s), self.local_index(d)) {
            (Some(ls), Some(ld)) => self.distance_local(ls, ld),
            _ => INF,
        }
    }

    /// Local member `ls`'s ECMP next hops towards every member, as one
    /// mask per member in local-index order written to `masks`: bit `b`
    /// of `masks[d]` is set when `adj[b]` — one of `ls`'s adjacencies as
    /// [`adjacencies_into`] lists them, in any order — starts a
    /// shortest path to `d`, i.e. `metric + dist(peer, d) == dist(ls,
    /// d) < INF`. `masks[ls]` is empty. Each adjacency's distance row is
    /// read contiguously, once.
    ///
    /// # Panics
    /// Panics when `adj` holds more than [`MASK_BITS`] adjacencies.
    pub fn next_hop_masks(&self, adj: &[Adj], ls: usize, masks: &mut Vec<u64>) {
        assert!(adj.len() <= MASK_BITS, "{} adjacencies", adj.len());
        let row = self.row(ls);
        masks.clear();
        masks.resize(row.len(), 0);
        for (b, a) in adj.iter().enumerate() {
            let metric = u64::from(a.metric);
            let via = self.row(a.local as usize);
            for ((m, &total), &rest) in masks.iter_mut().zip(row).zip(via) {
                let on_path = total < INF && metric + u64::from(rest) == u64::from(total);
                *m |= u64::from(on_path) << b;
            }
        }
        masks[ls] = 0;
    }

    /// True when every member can reach every other member.
    pub fn connected(&self) -> bool {
        self.dist.iter().all(|&d| d < INF)
    }

    /// A member unreachable from the first member, if any.
    pub fn find_unreachable(&self) -> Option<RouterId> {
        self.row(0)
            .iter()
            .position(|&d| d >= INF)
            .map(|i| self.members[i])
    }

    /// Heap bytes reserved by the view's tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::control::vec_bytes;
        vec_bytes(&self.members) + vec_bytes(&self.dist)
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
/// `(adj_base, adj)` into `dist` (one entry per member, all `INF` on
/// entry); `heap` is scratch reused across sources.
fn dijkstra(
    adj_base: &[u32],
    adj: &[Adj],
    src: usize,
    dist: &mut [u32],
    heap: &mut BinaryHeap<Reverse<(u32, usize)>>,
) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkOpts, NetworkBuilder};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    /// The ECMP first hops from `s` towards `d`, read off `s`'s
    /// next-hop mask towards `d`, in interface order.
    fn hops(net: &Network, igp: &AsIgp, s: RouterId, d: RouterId) -> Vec<(u32, RouterId)> {
        let mut adj = Vec::new();
        adjacencies_into(net, &igp.members, s, &mut adj);
        let (Some(ls), Some(ld)) = (igp.local_index(s), igp.local_index(d)) else {
            return Vec::new();
        };
        let mut masks = Vec::new();
        igp.next_hop_masks(&adj, ls, &mut masks);
        adj.iter()
            .enumerate()
            .filter(|&(b, _)| masks[ld] >> b & 1 == 1)
            .map(|(_, a)| (a.iface, a.peer))
            .collect()
    }

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
        let mut fh: Vec<RouterId> = hops(&net, &igp, a, d).iter().map(|&(_, r)| r).collect();
        fh.sort();
        assert_eq!(fh, vec![bb, c]);
        // Direct expensive edge not part of the set.
        assert!(!fh.contains(&d));
        // Single path a->b.
        assert_eq!(hops(&net, &igp, a, bb).len(), 1);
        // Self: empty.
        assert!(hops(&net, &igp, a, a).is_empty());
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
        let fh = hops(&net, &igp, y, x);
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
        // No next hop leads to the unreachable member.
        assert!(hops(&net, &igp, x, lonely).is_empty());
        assert_eq!(hops(&net, &igp, x, y).len(), 1);
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
        let mut adj = Vec::new();
        adjacencies_into(&net, &igp.members, x, &mut adj);
        assert!(adj.is_empty());
    }
}
