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
//!
//! [`assert_ldp_reference_equivalent`] pins the plane's closed-form LDP
//! labels against the sequential allocator the plane once stored per
//! `(router, slot)` ([`ref_ldp_window`]), and every LFIB entry — LDP
//! and explicit — against the per-router row that allocator and the
//! RSVP-TE program yield ([`ref_lfib_row`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use wormhole_net::igp::{adjacencies_into, edge_metric, INF};
use wormhole_net::prefixes::AsPrefixes;
use wormhole_net::router::Router;
use wormhole_net::{
    logical_fib, te_group, te_program, Asn, ControlPlane, ExtRoute, FibTables, Label, LabelAction,
    LabelValue, LdpPolicy, LfibEntry, LfibHop, Network, PoppingMode, RouterId,
};

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

/// The reference LDP allocator: `router`'s advertisement for every slot
/// of its AS table, in slot order, allocated sequentially (empty when
/// it runs no LDP). Labels run from `16 + router % 61` up over the FECs
/// it advertises and does not own; owned ones take the null label its
/// popping mode asks for.
pub fn ref_ldp_window(
    net: &Network,
    cp: &ControlPlane,
    router: &Router,
) -> Vec<Option<LabelValue>> {
    let c = &router.config;
    let table = net.as_index(router.asn).map(|i| &cp.as_prefixes[i]);
    let Some(ap) = table.filter(|_| c.mpls && c.ldp_policy != LdpPolicy::None) else {
        return Vec::new();
    };
    let mut next_label = Label::FIRST_DYNAMIC.0 + router.id.0 % 61;
    (0..ap.len() as u32)
        .map(|slot| {
            let advertise = match c.ldp_policy {
                LdpPolicy::AllPrefixes => true,
                LdpPolicy::LoopbackOnly => ap.prefix(slot).len == 32,
                LdpPolicy::None => false,
            };
            if !advertise {
                return None;
            }
            Some(if ap.owners(slot).contains(&router.id) {
                match c.popping {
                    PoppingMode::Php => LabelValue::ImplicitNull,
                    PoppingMode::Uhp => LabelValue::ExplicitNull,
                }
            } else {
                next_label += 1;
                LabelValue::Real(Label(next_label - 1))
            })
        })
        .collect()
}

/// Where a reference LFIB record comes from.
#[derive(Copy, Clone, Debug)]
pub enum RefSource {
    /// The LDP entry for this FEC slot.
    Ldp(u32),
    /// This index of the router's group of the TE transit program.
    Te(usize),
}

/// The reference LFIB row of one router, as `(label, source)` in
/// strictly increasing label order: one LDP record per real label in
/// `window` whose FEC is `routed`, plus one per entry of `te` (the
/// router's group of the TE transit program). A TE entry overrides an
/// LDP one on the same label, and a later tunnel an earlier one.
pub fn ref_lfib_row(
    window: &[Option<LabelValue>],
    routed: impl Fn(u32) -> bool,
    te: &[(RouterId, Label, LfibEntry)],
) -> Vec<(u32, RefSource)> {
    let mut row: Vec<(u32, usize, RefSource)> = Vec::new();
    for (slot, value) in window.iter().enumerate() {
        if let Some(LabelValue::Real(label)) = value {
            if routed(slot as u32) {
                row.push((label.0, row.len(), RefSource::Ldp(slot as u32)));
            }
        }
    }
    for (k, &(_, label, _)) in te.iter().enumerate() {
        row.push((label.0, row.len(), RefSource::Te(k)));
    }
    row.sort_unstable_by_key(|&(label, precedence, _)| (label, Reverse(precedence)));
    row.dedup_by_key(|e| e.0);
    row.into_iter()
        .map(|(label, _, src)| (label, src))
        .collect()
}

/// Asserts that `cp.advertised` equals [`ref_ldp_window`] on every
/// `(router, slot)` (and advertises nothing past the AS table), and
/// that `cp.lfib_entries` of every router equals [`ref_lfib_row`]
/// entry for entry: label, FEC and branches, an LDP entry's branches
/// being its FIB span with the action the reference window of each
/// next router implies.
pub fn assert_ldp_reference_equivalent(net: &Network, cp: &ControlPlane, what: &str) {
    let windows: Vec<Vec<Option<LabelValue>>> = net
        .routers()
        .iter()
        .map(|r| ref_ldp_window(net, cp, r))
        .collect();
    let (transit, _) = te_program(net).expect("valid tunnels");
    let mut te_next = 0;
    let mut real = 0;
    for r in net.routers() {
        let window = &windows[r.id.index()];
        let slots = net.as_index(r.asn).map_or(0, |a| cp.as_prefixes[a].len());
        for slot in 0..=slots as u32 {
            let want = window.get(slot as usize).copied().flatten();
            assert_eq!(
                cp.advertised(r.id, slot),
                want,
                "{what}: {} slot {slot}",
                r.name
            );
            if let Some(LabelValue::Real(label)) = want {
                assert_eq!(
                    cp.ldp_fec(r.id, label),
                    Some(slot),
                    "{what}: {} {label}",
                    r.name
                );
                real += 1;
            }
        }
        let te = te_group(&transit, &mut te_next, r.id);
        let routed = |slot| cp.fib_entry(r.id, slot).is_some();
        let want: Vec<(Label, u32, Vec<LfibHop>)> = ref_lfib_row(window, routed, te)
            .into_iter()
            .map(|(label, source)| match source {
                RefSource::Ldp(slot) => {
                    let hops = cp.fib_entry(r.id, slot).unwrap_or(&[]);
                    let branches = hops.iter().map(|&(iface, next)| {
                        let action = match windows[next.index()].get(slot as usize) {
                            Some(Some(LabelValue::Real(l))) => LabelAction::Swap(*l),
                            Some(Some(LabelValue::ExplicitNull)) => LabelAction::SwapExplicitNull,
                            _ => LabelAction::Pop,
                        };
                        LfibHop {
                            iface,
                            next,
                            action,
                        }
                    });
                    (Label(label), slot, branches.collect())
                }
                RefSource::Te(k) => (Label(label), te[k].2.slot, te[k].2.nexthops.clone()),
            })
            .collect();
        let got: Vec<(Label, u32, Vec<LfibHop>)> = cp
            .lfib_entries(r.id)
            .map(|(label, e)| (label, e.slot, e.branches().collect()))
            .collect();
        assert_eq!(got, want, "{what}: LFIB of {}", r.name);
    }
    assert!(
        real > 0 || windows.iter().all(Vec::is_empty),
        "{what}: LDP runs but advertises no real label"
    );
}
