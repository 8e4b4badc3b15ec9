//! A test-only reference for the shared control-plane oracles: the
//! plain `RouterId`-keyed formulation — members found through a hash
//! map, one Dijkstra per member straight over the routers' interfaces,
//! first hops re-derived per `(source, destination)` pair, the logical
//! FIB built as nested per-router tables then grouped, and the
//! hot-potato external route chosen per `(router, destination AS)`.
//!
//! [`assert_reference_equivalent`] checks that `AsIgp`'s distance
//! matrix, the first hops `AsIgp::first_hops_over` derives from it
//! (against the reference's all-pairs first-hop CSR) and `logical_fib`
//! (the FIB's next-hop groups) are exactly what this reference
//! produces, and that the plane stores that FIB; [`assert_ext_reference_equivalent`] checks every
//! external route the plane answers.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use wormhole_net::igp::{adjacencies_into, edge_metric, INF};
use wormhole_net::prefixes::AsPrefixes;
use wormhole_net::{logical_fib, Asn, ControlPlane, ExtRoute, FibTables, Network, RouterId};

/// The reference IGP view of one AS.
pub struct RefIgp {
    local: HashMap<RouterId, usize>,
    dist: Vec<Vec<u32>>,
    fh_index: Vec<u32>,
    fh_data: Vec<(u32, RouterId)>,
}

impl RefIgp {
    fn distance(&self, s: RouterId, d: RouterId) -> u32 {
        match (self.local.get(&s), self.local.get(&d)) {
            (Some(&ls), Some(&ld)) => self.dist[ls][ld],
            _ => INF,
        }
    }

    fn first_hops(&self, s: RouterId, d: RouterId) -> &[(u32, RouterId)] {
        let (Some(&ls), Some(&ld)) = (self.local.get(&s), self.local.get(&d)) else {
            return &[];
        };
        let cell = ls * self.dist.len() + ld;
        &self.fh_data[self.fh_index[cell] as usize..self.fh_index[cell + 1] as usize]
    }
}

fn ref_igp(net: &Network, asn: Asn) -> RefIgp {
    let members = net.as_members(asn);
    let local: HashMap<RouterId, usize> =
        members.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let dist: Vec<Vec<u32>> = members
        .iter()
        .map(|&src| {
            let mut dist = vec![INF; members.len()];
            dist[local[&src]] = 0;
            let mut heap = BinaryHeap::new();
            heap.push(Reverse((0u32, local[&src])));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for (idx, iface) in net.router(members[u]).ifaces.iter().enumerate() {
                    if net.link(iface.link).inter_as {
                        continue;
                    }
                    let Some(&v) = local.get(&iface.peer) else {
                        continue;
                    };
                    let nd = d.saturating_add(edge_metric(net, members[u], idx));
                    if nd < dist[v] {
                        dist[v] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            dist
        })
        .collect();
    let mut fh_index = vec![0u32];
    let mut fh_data = Vec::new();
    for (ls, &s) in members.iter().enumerate() {
        for (ld, &total) in dist[ls].iter().enumerate() {
            if total < INF && ls != ld {
                for (idx, iface) in net.router(s).ifaces.iter().enumerate() {
                    if net.link(iface.link).inter_as {
                        continue;
                    }
                    let Some(&ln) = local.get(&iface.peer) else {
                        continue;
                    };
                    if edge_metric(net, s, idx).saturating_add(dist[ln][ld]) == total {
                        fh_data.push((idx as u32, iface.peer));
                    }
                }
            }
            fh_index.push(fh_data.len() as u32);
        }
    }
    RefIgp {
        local,
        dist,
        fh_index,
        fh_data,
    }
}

fn ref_logical_fib(net: &Network, igp: &[RefIgp], as_prefixes: &[AsPrefixes]) -> FibTables {
    let mut tables: Vec<Vec<Vec<(u32, RouterId)>>> = vec![Vec::new(); net.num_routers()];
    for (as_idx, ap) in as_prefixes.iter().enumerate() {
        let view = &igp[as_idx];
        for &rid in net.as_members(ap.asn) {
            let table = &mut tables[rid.index()];
            table.resize(ap.len(), Vec::new());
            for slot in 0..ap.len() as u32 {
                let owners = ap.owners(slot);
                if owners.contains(&rid) {
                    continue;
                }
                let best = owners
                    .iter()
                    .map(|&o| view.distance(rid, o))
                    .min()
                    .unwrap_or(INF);
                if best >= INF {
                    continue;
                }
                let mut hops: Vec<(u32, RouterId)> = Vec::new();
                for &o in owners {
                    if view.distance(rid, o) != best {
                        continue;
                    }
                    for &h in view.first_hops(rid, o) {
                        if !hops.contains(&h) {
                            hops.push(h);
                        }
                    }
                }
                hops.sort_by_key(|&(i, r)| (r, i));
                table[slot as usize] = hops;
            }
        }
    }
    // Each router's distinct sets, numbered by first appearance in
    // slot order.
    let mut fib = FibTables {
        groups: vec![0],
        ..FibTables::default()
    };
    for table in &tables {
        fib.base.push(fib.index.len() as u32);
        fib.group_base.push(fib.groups.len() as u32 - 1);
        let mut distinct: Vec<&Vec<(u32, RouterId)>> = Vec::new();
        for hops in table {
            let g = distinct.iter().position(|&d| d == hops).unwrap_or_else(|| {
                distinct.push(hops);
                fib.pool.extend_from_slice(hops);
                fib.groups.push(fib.pool.len() as u32);
                distinct.len() - 1
            });
            fib.index
                .push(u16::try_from(g).expect("a router's groups fit a u16"));
        }
    }
    fib.base.push(fib.index.len() as u32);
    fib.group_base.push(fib.groups.len() as u32 - 1);
    fib
}

/// Asserts that `cp`'s distance matrices, and the first hops derived
/// from them, equal the reference; returns the reference.
pub fn assert_igp_reference_equivalent(
    net: &Network,
    cp: &ControlPlane,
    what: &str,
) -> Vec<RefIgp> {
    let reference: Vec<RefIgp> = net.as_list().iter().map(|&asn| ref_igp(net, asn)).collect();
    assert_eq!(cp.igp.len(), reference.len(), "{what}: AS count");
    for (view, want) in cp.igp.iter().zip(&reference) {
        assert_eq!(
            view.members.len(),
            want.dist.len(),
            "{what}: {:?}",
            view.asn
        );
        for (ls, row) in want.dist.iter().enumerate() {
            assert_eq!(view.row(ls), row, "{what}: {:?} distances", view.asn);
        }
        let mut adj = Vec::new();
        for (ls, &s) in view.members.iter().enumerate() {
            adj.clear();
            adjacencies_into(net, &view.members, s, &mut adj);
            for (ld, &d) in view.members.iter().enumerate() {
                assert!(
                    view.first_hops_over(&adj, ls, ld)
                        .eq(want.first_hops(s, d).iter().copied()),
                    "{what}: {:?} first hops {s:?} → {d:?}",
                    view.asn
                );
            }
        }
    }
    reference
}

/// Asserts that `cp`'s IGP views and the logical FIB derived from them
/// equal the reference, and that `cp` stores exactly that FIB.
pub fn assert_reference_equivalent(net: &Network, cp: &ControlPlane, what: &str) {
    let reference = assert_igp_reference_equivalent(net, cp, what);
    let fib = logical_fib(net, &cp.igp, &cp.as_prefixes).expect("groups fit");
    let want = ref_logical_fib(net, &reference, &cp.as_prefixes);
    assert!(
        fib == want,
        "{what}: logical FIB groups differ from the reference"
    );
    let v = cp.dense_view();
    assert!(
        (
            v.fib_base,
            v.fib_index,
            v.fib_group_base,
            v.fib_groups,
            v.fib_pool
        ) == (
            want.base.as_slice(),
            want.index.as_slice(),
            want.group_base.as_slice(),
            want.groups.as_slice(),
            want.pool.as_slice()
        ),
        "{what}: stored FIB differs from the reference"
    );
}

/// The reference hot-potato route of `router` (in AS `src`) towards
/// AS `dst`: leave over the router's own first interface to a best next
/// AS, else head for the IGP-nearest border holding one (ties to the
/// lowest router id), else unreachable.
fn ref_ext_route(
    net: &Network,
    cp: &ControlPlane,
    igp: &RefIgp,
    router: RouterId,
    dst: usize,
) -> ExtRoute {
    let src_asn = net.router(router).asn;
    let src = net.as_index(src_asn).expect("registered AS");
    if src == dst {
        return ExtRoute::Unreachable;
    }
    let best_next = cp.bgp.next_hops(dst, src);
    let mut candidates: Vec<(RouterId, u32)> = Vec::new();
    for &b in net.as_members(src_asn) {
        for (idx, iface) in net.router(b).ifaces.iter().enumerate() {
            let peer_as = net.as_index(net.router(iface.peer).asn);
            if net.link(iface.link).inter_as
                && peer_as.is_some_and(|p| best_next.contains(&(p as u32)))
            {
                candidates.push((b, idx as u32));
            }
        }
    }
    if let Some(&(_, iface)) = candidates.iter().find(|c| c.0 == router) {
        return ExtRoute::Direct { iface };
    }
    match candidates
        .iter()
        .map(|&(b, _)| (igp.distance(router, b), b))
        .min()
    {
        Some((d, egress)) if d < INF => ExtRoute::ViaEgress { egress },
        _ => ExtRoute::Unreachable,
    }
}

/// Asserts that `cp.ext_route` equals the reference on every `(router,
/// destination AS)` cell.
pub fn assert_ext_reference_equivalent(net: &Network, cp: &ControlPlane, what: &str) {
    let reference: Vec<RefIgp> = net.as_list().iter().map(|&asn| ref_igp(net, asn)).collect();
    for r in net.routers() {
        let igp = &reference[net.as_index(r.asn).expect("registered AS")];
        for dst in 0..net.as_list().len() {
            assert_eq!(
                cp.ext_route(r.id, dst),
                ref_ext_route(net, cp, igp, r.id, dst),
                "{what}: {} towards AS #{dst}",
                r.name
            );
        }
    }
}
