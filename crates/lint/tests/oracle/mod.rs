//! A test-only reference for the shared control-plane oracles: the
//! plain `RouterId`-keyed formulation — members found through a hash
//! map, one Dijkstra per member straight over the routers' interfaces,
//! first hops re-derived per `(source, destination)` pair, and the
//! logical FIB built as nested per-router tables then flattened.
//!
//! [`assert_reference_equivalent`] checks that `AsIgp` (distance matrix
//! and first-hop CSR) and `logical_fib` (the FIB CSR) produce exactly
//! what this reference produces, and that the plane stores that FIB.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use wormhole_net::igp::{edge_metric, INF};
use wormhole_net::prefixes::AsPrefixes;
use wormhole_net::{logical_fib, Asn, ControlPlane, FibTables, Network, RouterId};

/// The reference IGP view of one AS.
struct RefIgp {
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
    let mut fib = FibTables::default();
    for table in &tables {
        fib.base.push(fib.spans.len() as u32);
        for hops in table {
            fib.spans.push((fib.pool.len() as u32, hops.len() as u32));
            fib.pool.extend_from_slice(hops);
        }
    }
    fib.base.push(fib.spans.len() as u32);
    fib
}

/// Asserts that `cp`'s IGP views and the logical FIB derived from them
/// equal the reference, and that `cp` stores exactly that FIB.
pub fn assert_reference_equivalent(net: &Network, cp: &ControlPlane, what: &str) {
    let reference: Vec<RefIgp> = net.as_list().iter().map(|&asn| ref_igp(net, asn)).collect();
    assert_eq!(cp.igp.len(), reference.len(), "{what}: AS count");
    for (view, want) in cp.igp.iter().zip(&reference) {
        assert_eq!(view.dist, want.dist, "{what}: {:?} distances", view.asn);
        assert_eq!(
            view.first_hop_csr(),
            (want.fh_index.as_slice(), want.fh_data.as_slice()),
            "{what}: {:?} first-hop CSR",
            view.asn
        );
    }
    let fib = logical_fib(net, &cp.igp, &cp.as_prefixes);
    let want = ref_logical_fib(net, &reference, &cp.as_prefixes);
    assert!(
        fib == want,
        "{what}: logical FIB CSR differs from the reference"
    );
    let v = cp.dense_view();
    assert!(
        (v.fib_base, v.fib_spans, v.fib_pool)
            == (
                want.base.as_slice(),
                want.spans.as_slice(),
                want.pool.as_slice()
            ),
        "{what}: stored FIB differs from the reference"
    );
}
