//! `D5xx` — dense-plane verification.
//!
//! The packet-walk hot path runs on flattened control-plane tables
//! (label-sorted LFIB rows over shared entry and branch pools,
//! `te_heads`/`te_routes` CSR, `fib_base`/`fib_spans`/`fib_pool`,
//! [`LdpBindings`] and [`AsIgp`] CSRs, build-time destination-resolution
//! tables, the three-level address→owner index). These rules
//! cross-check every flat table against the logical model it encodes —
//! re-derived through the same oracles [`ControlPlane::build`] itself
//! uses ([`logical_fib`], [`te_program`], [`ldp_label_action`],
//! `LdpBindings::compute`) — and against its own structural invariants. The verifier shares *oracles* with the build,
//! never outputs: every logical table is recomputed from the
//! [`Network`] here, not read back from the plane under test.
//!
//! The checks are *staged*: a malformed CSR shape (D501/D503/D505/D506/
//! D508 structure, D509 trie) gates the content comparison that would
//! read through it, so one seeded corruption surfaces as exactly one
//! rule — the property the mutation self-test in `tests/mutations.rs`
//! pins for every corruption class.

use crate::diag::{Diagnostic, Location, Severity};
use std::collections::HashSet;
use wormhole_net::igp::{edge_metric, INF};
use wormhole_net::{
    ldp_label_action, logical_fib, te_program, Addr, ControlPlane, FibTables, Label, LabelValue,
    LdpBindings, LfibRef, Network, RouterId, OWNER_DIR_SIZE,
};

fn err(code: &'static str, location: Location, message: String, hint: &str) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, location, message, hint)
}

/// True when `offsets` is a well-formed CSR offset array over a pool of
/// `pool_len` items with `groups` groups; pushes `code` findings if not.
fn check_csr_offsets(
    code: &'static str,
    what: &str,
    offsets: &[u32],
    groups: usize,
    pool_len: usize,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let mut ok = true;
    if offsets.len() != groups + 1 {
        out.push(err(
            code,
            Location::Network,
            format!(
                "{what}: {} offsets for {groups} groups (want {})",
                offsets.len(),
                groups + 1
            ),
            "rebuild the control plane; the offset table lost or gained rows",
        ));
        return false;
    }
    if offsets[0] != 0 {
        out.push(err(
            code,
            Location::Network,
            format!("{what}: first offset is {} (want 0)", offsets[0]),
            "CSR offsets must start at the pool origin",
        ));
        ok = false;
    }
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            out.push(err(
                code,
                Location::Network,
                format!("{what}: offsets decrease ({} then {})", w[0], w[1]),
                "CSR offsets must be monotone non-decreasing",
            ));
            ok = false;
            break;
        }
    }
    if *offsets.last().unwrap() as usize != pool_len {
        out.push(err(
            code,
            Location::Network,
            format!(
                "{what}: last offset {} does not close the pool of {pool_len}",
                offsets.last().unwrap()
            ),
            "orphan pool slots (or a span past the end) — rebuild the table",
        ));
        ok = false;
    }
    ok
}

/// D501: `te_heads`/`te_routes` CSR well-formedness.
fn te_csr_shape(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let v = cp.dense_view();
    let mut ok = check_csr_offsets(
        "D501",
        "te_heads",
        v.te_heads,
        net.num_routers(),
        v.te_routes.len(),
        out,
    );
    if ok {
        for r in 0..net.num_routers() {
            let span = &v.te_routes[v.te_heads[r] as usize..v.te_heads[r + 1] as usize];
            if span.windows(2).any(|w| w[0].0 >= w[1].0) {
                out.push(err(
                    "D501",
                    Location::Router(net.router(RouterId(r as u32)).name.clone()),
                    "TE autoroute tails are not strictly sorted within the head's group"
                        .to_string(),
                    "te_route() binary-searches tails; an unsorted group breaks every lookup",
                ));
                ok = false;
            }
        }
    }
    ok
}

/// D502: the flattened TE autoroute table must equal the logical TE
/// program re-derived from the declared tunnels.
fn te_agreement(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) {
    let Ok((_, expected)) = te_program(net) else {
        return; // invalid tunnel declarations are X205/W107 territory
    };
    let v = cp.dense_view();
    let mut actual = Vec::with_capacity(v.te_routes.len());
    for r in 0..net.num_routers() {
        for &(tail, route) in &v.te_routes[v.te_heads[r] as usize..v.te_heads[r + 1] as usize] {
            actual.push(((RouterId(r as u32), tail), route));
        }
    }
    if actual.len() != expected.len() {
        out.push(err(
            "D502",
            Location::Network,
            format!(
                "dense TE table holds {} autoroutes, the tunnel declarations produce {}",
                actual.len(),
                expected.len()
            ),
            "the CSR flattening dropped or duplicated a head's steering decision",
        ));
    }
    let mut reported = 0;
    for (a, e) in actual.iter().zip(expected.iter()) {
        if a != e && reported < 8 {
            let head = net.router(e.0 .0).name.clone();
            out.push(err(
                "D502",
                Location::Router(head),
                format!("dense TE autoroute {a:?} disagrees with the logical program {e:?}"),
                "rebuild the control plane; the autoroute was rewritten after flattening",
            ));
            reported += 1;
        }
    }
}

/// D503: [`LdpBindings`] CSR well-formedness: every router's window is
/// empty or exactly its AS's prefix count.
fn ldp_csr_shape(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let (base, pool) = cp.bindings.csr();
    let mut ok = check_csr_offsets("D503", "ldp base", base, net.num_routers(), pool.len(), out);
    if ok {
        for r in net.routers() {
            let window = (base[r.id.index() + 1] - base[r.id.index()]) as usize;
            let want = net.as_index(r.asn).map_or(0, |i| cp.as_prefixes[i].len());
            if window != 0 && window != want {
                out.push(err(
                    "D503",
                    Location::Router(r.name.clone()),
                    format!("LDP window of {window} slots against an AS table of {want}"),
                    "slot-indexed lookups would read a neighbor's advertisements",
                ));
                ok = false;
            }
        }
    }
    ok
}

/// D504: the stored bindings must equal a fresh deterministic
/// recomputation.
fn ldp_agreement(net: &Network, cp: &ControlPlane, fresh: &LdpBindings, out: &mut Vec<Diagnostic>) {
    let (base, pool) = cp.bindings.csr();
    let (fbase, fpool) = fresh.csr();
    if base != fbase {
        out.push(err(
            "D504",
            Location::Network,
            "stored LDP offsets disagree with a fresh recomputation".to_string(),
            "LdpBindings::compute is deterministic; the stored table was edited",
        ));
        return;
    }
    let mut reported = 0;
    for r in net.routers() {
        let (lo, hi) = (base[r.id.index()] as usize, base[r.id.index() + 1] as usize);
        if pool[lo..hi] != fpool[lo..hi] && reported < 8 {
            out.push(err(
                "D504",
                Location::Router(r.name.clone()),
                "stored LDP advertisements disagree with a fresh recomputation".to_string(),
                "a label or null-mode was flipped after build; LSPs through this router break",
            ));
            reported += 1;
        }
    }
}

/// D505: per-AS IGP first-hop CSR well-formedness and first-hop
/// optimality. Returns `true` only when every AS is clean (the logical
/// FIB is only trusted then).
fn igp_check(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let mut all_ok = true;
    // Per source: each interface's peer as a local index and its
    // outgoing metric, resolved once instead of per listed hop.
    let mut nbr: Vec<(Option<usize>, u32)> = Vec::new();
    for view in &cp.igp {
        let n = view.members.len();
        let (fh_index, fh_data) = view.first_hop_csr();
        let loc = || Location::As(view.asn);
        if view.dist.len() != n || view.dist.iter().any(|row| row.len() != n) {
            out.push(err(
                "D505",
                loc(),
                "distance matrix is not members × members".to_string(),
                "rebuild the IGP view",
            ));
            all_ok = false;
            continue;
        }
        if (0..n).any(|i| view.dist[i][i] != 0) {
            out.push(err(
                "D505",
                loc(),
                "a member is a nonzero distance from itself".to_string(),
                "the diagonal of the distance matrix must be zero",
            ));
            all_ok = false;
            continue;
        }
        let mut shape_ok = true;
        if fh_index.len() != n * n + 1
            || fh_index[0] != 0
            || fh_index.windows(2).any(|w| w[1] < w[0])
            || *fh_index.last().unwrap_or(&0) as usize != fh_data.len()
        {
            out.push(err(
                "D505",
                loc(),
                "first-hop CSR offsets are malformed".to_string(),
                "offsets must be n²+1 monotone values closing the data pool",
            ));
            shape_ok = false;
        }
        if !shape_ok {
            all_ok = false;
            continue;
        }
        for ls in 0..n {
            let s = view.members[ls];
            let router = net.router(s);
            nbr.clear();
            nbr.extend(
                router
                    .ifaces
                    .iter()
                    .enumerate()
                    .map(|(idx, iface)| (view.local_index(iface.peer), edge_metric(net, s, idx))),
            );
            for ld in 0..n {
                let cell = ls * n + ld;
                let span = &fh_data[fh_index[cell] as usize..fh_index[cell + 1] as usize];
                let total = view.dist[ls][ld];
                if ls == ld || total >= INF {
                    if !span.is_empty() {
                        out.push(err(
                            "D505",
                            loc(),
                            format!(
                                "{} lists first hops towards {} despite {}",
                                router.name,
                                net.router(view.members[ld]).name,
                                if ls == ld {
                                    "being it"
                                } else {
                                    "unreachability"
                                }
                            ),
                            "self and unreachable spans must be empty",
                        ));
                        all_ok = false;
                    }
                    continue;
                }
                if span.is_empty() {
                    out.push(err(
                        "D505",
                        loc(),
                        format!(
                            "{} has no first hop towards reachable {}",
                            router.name,
                            net.router(view.members[ld]).name
                        ),
                        "every reachable destination needs at least one ECMP first hop",
                    ));
                    all_ok = false;
                    continue;
                }
                for &(idx, peer) in span {
                    let bad = match router.ifaces.get(idx as usize) {
                        None => true,
                        Some(iface) => {
                            let (lp, w) = nbr[idx as usize];
                            iface.peer != peer
                                || lp.is_none_or(|lp| w.saturating_add(view.dist[lp][ld]) != total)
                        }
                    };
                    if bad {
                        out.push(err(
                            "D505",
                            loc(),
                            format!(
                                "first hop ({idx}, {}) from {} is not on a shortest path",
                                net.router(peer).name,
                                router.name
                            ),
                            "every listed hop must satisfy edge + remaining = total distance",
                        ));
                        all_ok = false;
                    }
                }
            }
        }
    }
    all_ok
}

/// D506: LFIB row shape. The row offsets must be a CSR over the entry
/// pool, each row's labels strictly increasing with its first label
/// recorded in `lfib_lo` (the direct-index origin of every lookup), and
/// the entries' branch runs must tile the branch pool, one or more
/// branches each. Returns `true` when the whole LFIB is well-shaped.
fn lfib_shape(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let v = cp.dense_view();
    let n = net.num_routers();
    let mut ok = check_csr_offsets(
        "D506",
        "lfib base",
        v.lfib_base,
        n,
        v.lfib_entries.len(),
        out,
    );
    if v.lfib_lo.len() != n {
        out.push(err(
            "D506",
            Location::Network,
            format!("{} LFIB row origins for {n} routers", v.lfib_lo.len()),
            "lfib_lo must hold one label per router",
        ));
        ok = false;
    }
    if ok {
        for r in net.routers() {
            let i = r.id.index();
            let row = &v.lfib_entries[v.lfib_base[i] as usize..v.lfib_base[i + 1] as usize];
            let loc = || Location::Router(r.name.clone());
            if row.windows(2).any(|w| w[0].label >= w[1].label) {
                out.push(err(
                    "D506",
                    loc(),
                    "LFIB row labels are not strictly increasing".to_string(),
                    "lfib_entry() indexes and binary-searches the row; duplicates shadow each other",
                ));
                ok = false;
            }
            let first = row.first().map_or(0, |e| e.label);
            if v.lfib_lo[i] != first {
                out.push(err(
                    "D506",
                    loc(),
                    format!(
                        "LFIB row origin {} disagrees with the row's first label {first}",
                        v.lfib_lo[i]
                    ),
                    "direct-indexed lookups would land on the wrong entry",
                ));
                ok = false;
            }
        }
    }
    // Branch runs start at 0 and strictly increase: each entry owns at
    // least one branch and no two entries share one.
    let mut prev: Option<u32> = None;
    for (i, e) in v.lfib_entries.iter().enumerate() {
        if prev.map_or(e.hops != 0, |p| e.hops <= p) {
            out.push(err(
                "D506",
                Location::Network,
                format!(
                    "LFIB entry #{i} starts its branches at {}, breaking the pool tiling after {prev:?}",
                    e.hops
                ),
                "branch runs must tile lfib_hops in order, at least one branch per entry",
            ));
            ok = false;
            break;
        }
        prev = Some(e.hops);
    }
    let closes = v.lfib_entries.last().map_or(v.lfib_hops.is_empty(), |e| {
        (e.hops as usize) < v.lfib_hops.len()
    });
    if ok && !closes {
        out.push(err(
            "D506",
            Location::Network,
            format!(
                "the last LFIB entry's branches do not end inside the pool of {}",
                v.lfib_hops.len()
            ),
            "the final entry needs at least one branch, and no pool slot may be orphaned",
        ));
        ok = false;
    }
    ok
}

/// Where an expected LFIB entry comes from.
#[derive(Copy, Clone)]
enum Want {
    /// An LDP entry for this FEC slot, over the logical FIB's hops.
    Ldp(u32),
    /// This index of the TE transit program.
    Te(usize),
}

/// True when `installed` is exactly the LDP entry a router derives for
/// `slot` over the next-hop set `hops` — [`ldp_label_action`] per
/// branch, compared in place.
fn ldp_entry_matches(
    fresh: &LdpBindings,
    slot: u32,
    hops: &[(u32, RouterId)],
    installed: LfibRef<'_>,
) -> bool {
    installed.slot == slot
        && installed.nexthops.len() == hops.len()
        && installed
            .nexthops
            .iter()
            .zip(hops)
            .all(|(h, &(iface, next))| {
                h.iface == iface
                    && h.next == next
                    && h.action == ldp_label_action(fresh, next, slot)
            })
}

/// D507: the installed LFIB must equal the logical program — LDP
/// entries derived from recomputed bindings over the logical FIB, plus
/// the TE transit chain. Anything else is stale, missing, or rewritten.
///
/// Per router, the expected labels form a sorted want-list (a TE entry
/// overrides an LDP one on the same label, a later tunnel an earlier
/// one — the build's insertion order); the installed entries are then
/// matched by binary search and compared in place.
fn lfib_agreement(
    net: &Network,
    cp: &ControlPlane,
    fresh: &LdpBindings,
    fib: &FibTables,
    out: &mut Vec<Diagnostic>,
) {
    let Ok((mut te_transit, _)) = te_program(net) else {
        return;
    };
    // Grouped by router; the stable sort keeps tunnel order within each
    // group.
    te_transit.sort_by_key(|&(rid, _, _)| rid);
    let mut te_next = 0;
    // `(label, precedence, source)`: later precedence wins a label.
    let mut want: Vec<(u32, usize, Want)> = Vec::new();
    let mut seen: Vec<bool> = Vec::new();
    for r in net.routers() {
        want.clear();
        for (slot, value) in fresh.advertisements(r.id) {
            let LabelValue::Real(in_label) = value else {
                continue;
            };
            if !fib.hops(r.id, slot).is_empty() {
                want.push((in_label.0, want.len(), Want::Ldp(slot)));
            }
        }
        while te_next < te_transit.len() && te_transit[te_next].0 == r.id {
            want.push((te_transit[te_next].1 .0, want.len(), Want::Te(te_next)));
            te_next += 1;
        }
        want.sort_unstable_by_key(|&(label, precedence, _)| (label, std::cmp::Reverse(precedence)));
        want.dedup_by_key(|w| w.0);
        seen.clear();
        seen.resize(want.len(), false);
        for (label, installed) in cp.lfib_entries(r.id) {
            match want.binary_search_by_key(&label.0, |w| w.0) {
                Err(_) => out.push(err(
                    "D507",
                    Location::Router(r.name.clone()),
                    format!("stale LFIB entry for label {label}: no LDP binding or TE tunnel produces it"),
                    "nothing can address this entry correctly; it was injected or left behind",
                )),
                Ok(i) => {
                    seen[i] = true;
                    let agrees = match want[i].2 {
                        Want::Ldp(slot) => {
                            ldp_entry_matches(fresh, slot, fib.hops(r.id, slot), installed)
                        }
                        Want::Te(t) => {
                            let e = &te_transit[t].2;
                            installed.slot == e.slot && installed.nexthops == e.nexthops
                        }
                    };
                    if !agrees {
                        out.push(err(
                            "D507",
                            Location::Router(r.name.clone()),
                            format!("LFIB entry for label {label} disagrees with the logical program"),
                            "the entry was rewritten after build; LSPs through it break mid-path",
                        ));
                    }
                }
            }
        }
        for (w, _) in want.iter().zip(&seen).filter(|&(_, &seen)| !seen) {
            out.push(err(
                "D507",
                Location::Router(r.name.clone()),
                format!(
                    "missing LFIB entry for label {}: the logical program installs it",
                    Label(w.0)
                ),
                "labeled packets for this FEC would die here with an unlabeled fallback",
            ));
        }
    }
}

/// D508: FIB CSR shape (one span per slot, spans tiling the pool) and,
/// when the structure holds, dense/logical content agreement.
fn fib_check(net: &Network, cp: &ControlPlane, fib: Option<&FibTables>, out: &mut Vec<Diagnostic>) {
    let v = cp.dense_view();
    let mut ok = check_csr_offsets(
        "D508",
        "fib_base",
        v.fib_base,
        net.num_routers(),
        v.fib_spans.len(),
        out,
    );
    if ok {
        for r in net.routers() {
            let slots = (v.fib_base[r.id.index() + 1] - v.fib_base[r.id.index()]) as usize;
            let want = net.as_index(r.asn).map_or(0, |i| cp.as_prefixes[i].len());
            if slots != want {
                out.push(err(
                    "D508",
                    Location::Router(r.name.clone()),
                    format!("{slots} FIB spans against an AS table of {want} slots"),
                    "every router owns exactly one span per prefix slot of its AS",
                ));
                ok = false;
            }
        }
    }
    let mut cursor = 0u32;
    for (i, &(start, len)) in v.fib_spans.iter().enumerate() {
        if start != cursor {
            out.push(err(
                "D508",
                Location::Network,
                format!("FIB span #{i} starts at {start}, breaking the pool tiling at {cursor}"),
                "spans must tile fib_pool contiguously in order; a span was resized or moved",
            ));
            ok = false;
            break;
        }
        cursor += len;
    }
    if ok && cursor as usize != v.fib_pool.len() {
        out.push(err(
            "D508",
            Location::Network,
            format!(
                "FIB spans cover {cursor} pool entries of {}",
                v.fib_pool.len()
            ),
            "orphan pool entries after the last span — the flattening drifted",
        ));
        ok = false;
    }
    let Some(fib) = fib else { return };
    if !ok {
        return;
    }
    let mut reported = 0;
    for r in net.routers() {
        for slot in 0..fib.slots(r.id) as u32 {
            let dense = cp.fib_entry(r.id, slot).unwrap_or(&[]);
            if dense != fib.hops(r.id, slot) && reported < 8 {
                out.push(err(
                    "D508",
                    Location::Router(r.name.clone()),
                    format!("dense FIB entry for slot {slot} disagrees with the logical FIB"),
                    "rebuild the control plane; the flattened span was edited",
                ));
                reported += 1;
            }
        }
    }
}

/// D509: prefix-trie round-trips per AS. Returns one clean flag per AS
/// table (content checks that read through a corrupt trie are skipped).
fn trie_roundtrip(cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> Vec<bool> {
    let mut clean = Vec::with_capacity(cp.as_prefixes.len());
    for ap in &cp.as_prefixes {
        let mut ok = true;
        if ap.owners.len() != ap.prefixes.len() {
            out.push(err(
                "D509",
                Location::As(ap.asn),
                format!(
                    "{} prefixes but {} owner sets",
                    ap.prefixes.len(),
                    ap.owners.len()
                ),
                "slots index both tables; they must stay parallel",
            ));
            ok = false;
        }
        let mut seen = HashSet::new();
        for (slot, &p) in ap.prefixes.iter().enumerate() {
            if !seen.insert(p) {
                out.push(err(
                    "D509",
                    Location::Prefix {
                        asn: ap.asn,
                        prefix: p,
                    },
                    "duplicate prefix in the AS table".to_string(),
                    "two slots share one prefix; the trie can only resolve one of them",
                ));
                ok = false;
                continue;
            }
            let probe = p.nth(0);
            match ap.lookup(probe) {
                None => {
                    out.push(err(
                        "D509",
                        Location::Prefix {
                            asn: ap.asn,
                            prefix: p,
                        },
                        "trie lookup misses an address inside its own prefix".to_string(),
                        "the LPM index lost this slot; FIB decisions for it blackhole",
                    ));
                    ok = false;
                }
                Some(got) => {
                    let covering = (got as usize) < ap.prefixes.len() && {
                        let q = ap.prefix(got);
                        q.contains(probe) && q.len >= p.len
                    };
                    if got != slot as u32 && !covering {
                        out.push(err(
                            "D509",
                            Location::Prefix {
                                asn: ap.asn,
                                prefix: p,
                            },
                            format!("trie resolves slot {slot} to non-covering slot {got}"),
                            "the LPM index was remapped; lookups land in the wrong FEC",
                        ));
                        ok = false;
                    }
                }
            }
        }
        clean.push(ok);
    }
    clean
}

/// D510: the memoized destination-resolution tables must round-trip
/// through a live trie lookup (skipped per-AS when D509 fired — the
/// trie itself is then the liar).
fn dst_resolution(net: &Network, cp: &ControlPlane, trie_ok: &[bool], out: &mut Vec<Diagnostic>) {
    let v = cp.dense_view();
    let n = net.num_routers();
    if v.loopback_slot.len() != n || v.router_as_idx.len() != n {
        out.push(err(
            "D510",
            Location::Network,
            "destination-resolution tables are not router-indexed".to_string(),
            "loopback_slot and router_as_idx must hold one entry per router",
        ));
        return;
    }
    let base_ok = check_csr_offsets(
        "D510",
        "iface_slot_base",
        v.iface_slot_base,
        n,
        v.iface_slot.len(),
        out,
    );
    for r in net.routers() {
        let i = r.id.index();
        let logical_idx = net.as_index(r.asn);
        if v.router_as_idx[i] != logical_idx.map_or(u32::MAX, |x| x as u32) {
            out.push(err(
                "D510",
                Location::Router(r.name.clone()),
                format!(
                    "router_as_idx {} disagrees with the network's AS index {:?}",
                    v.router_as_idx[i], logical_idx
                ),
                "external-route lookups would index a foreign AS's tables",
            ));
        }
        let Some(idx) = logical_idx else { continue };
        if !trie_ok.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let ap = &cp.as_prefixes[idx];
        let want = ap.lookup(r.loopback).unwrap_or(u32::MAX);
        if v.loopback_slot[i] != want {
            out.push(err(
                "D510",
                Location::Router(r.name.clone()),
                format!(
                    "memoized loopback slot {} disagrees with trie lookup {want}",
                    v.loopback_slot[i]
                ),
                "every packet addressed to this loopback resolves to the wrong FEC",
            ));
        }
        if !base_ok {
            continue;
        }
        let base = v.iface_slot_base[i] as usize;
        let width = v.iface_slot_base[i + 1] as usize - base;
        if width != r.ifaces.len() {
            out.push(err(
                "D510",
                Location::Router(r.name.clone()),
                format!("{width} interface slots for {} interfaces", r.ifaces.len()),
                "the iface_slot window must match the router's interface count",
            ));
            continue;
        }
        for (j, ifc) in r.ifaces.iter().enumerate() {
            let want = ap.lookup(ifc.addr).unwrap_or(u32::MAX);
            if v.iface_slot[base + j] != want {
                out.push(err(
                    "D510",
                    Location::Interface {
                        router: r.name.clone(),
                        addr: ifc.addr,
                    },
                    format!(
                        "memoized interface slot {} disagrees with trie lookup {want}",
                        v.iface_slot[base + j]
                    ),
                    "probes addressed to this interface resolve to the wrong FEC",
                ));
            }
        }
    }
}

/// D511: the memoized owner hash (`Network::owner`, the map `DstCache`
/// resolves destinations through) must agree with the routers that
/// actually hold each address, and with the owning AS's trie.
fn owner_hash(net: &Network, cp: &ControlPlane, trie_ok: &[bool], out: &mut Vec<Diagnostic>) {
    for (addr, rid) in net.addresses() {
        let r = net.router(rid);
        let holds = r.loopback == addr || r.ifaces.iter().any(|i| i.addr == addr);
        if !holds {
            out.push(err(
                "D511",
                Location::Addr(addr),
                format!(
                    "owner hash maps the address to {}, which does not hold it",
                    r.name
                ),
                "DstCache would resolve probes here to the wrong router",
            ));
        }
    }
    for r in net.routers() {
        let mut addrs = vec![r.loopback];
        addrs.extend(r.ifaces.iter().map(|i| i.addr));
        for addr in addrs {
            if net.owner(addr) != Some(r.id) {
                out.push(err(
                    "D511",
                    Location::Addr(addr),
                    format!(
                        "owner hash resolves {}'s address to {:?}",
                        r.name,
                        net.owner(addr).map(|o| net.router(o).name.clone())
                    ),
                    "every held address must map back to its holder",
                ));
                continue;
            }
            let Some(idx) = net.as_index(r.asn) else {
                continue;
            };
            if !trie_ok.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let ap = &cp.as_prefixes[idx];
            if let Some(slot) = ap.lookup(addr) {
                if !ap.owners(slot).contains(&r.id) {
                    out.push(err(
                        "D511",
                        Location::Addr(addr),
                        format!(
                            "owner hash says {} but the trie's slot owners disagree",
                            r.name
                        ),
                        "the memoized owner hash can never disagree with the trie",
                    ));
                }
            }
        }
    }
}

/// D512: the dense address→owner index (`ControlPlane::owner_of`, the
/// three-level replacement for the owner hash the engine's `DstCache`
/// resolves destinations through) must be well-shaped and must agree
/// with the routers that actually hold each address.
///
/// Shape first: every /8's directory page must be page-aligned, in
/// bounds and its own (two /8s sharing a page would alias each other's
/// addresses), every page must belong to a /8, and the `(start, len)`
/// block runs must tile the pool in directory order, none longer than a
/// block. Only a well-shaped index is content-checked, in both
/// directions: every held address resolves to its holder, and every
/// populated pool entry names a router that holds the decoded address.
/// The comparison runs against the routers directly — **not** the owner
/// hash — so a poisoned hash (D511) and a poisoned dense index (D512)
/// each fire exactly their own rule.
fn owner_index(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) {
    let v = cp.dense_view();
    let dir_len = v.owner_dir.len();
    let mut ok = true;
    if !dir_len.is_multiple_of(OWNER_DIR_SIZE) {
        out.push(err(
            "D512",
            Location::Network,
            format!("owner directory length {dir_len} is not a whole number of pages"),
            "a truncated final page makes the last /8's blocks read out of bounds",
        ));
        ok = false;
    }
    let mut seen_pages: HashSet<u32> = HashSet::new();
    for (top, &page) in v.owner_top.iter().enumerate() {
        if page == u32::MAX {
            continue;
        }
        let base = page as usize;
        if !base.is_multiple_of(OWNER_DIR_SIZE) || base + OWNER_DIR_SIZE > dir_len {
            out.push(err(
                "D512",
                Location::Network,
                format!(
                    "owner directory page for {top}/8 points at {base} (directory len {dir_len})"
                ),
                "a misaligned or out-of-bounds page base corrupts every lookup in its /8",
            ));
            ok = false;
            continue;
        }
        if !seen_pages.insert(page) {
            out.push(err(
                "D512",
                Location::Network,
                format!("two /8s share the owner directory page at {base}"),
                "aliased pages let one /8's addresses shadow another's owners",
            ));
            ok = false;
        }
    }
    if ok && seen_pages.len() * OWNER_DIR_SIZE != dir_len {
        out.push(err(
            "D512",
            Location::Network,
            format!(
                "{} owner directory pages, {} of them reachable from a /8",
                dir_len / OWNER_DIR_SIZE,
                seen_pages.len()
            ),
            "an orphan page is dead weight no lookup can reach — rebuild the index",
        ));
        ok = false;
    }
    let mut cursor = 0usize;
    for (i, &(start, len)) in v.owner_dir.iter().enumerate() {
        if start as usize != cursor || len as usize > OWNER_DIR_SIZE {
            out.push(err(
                "D512",
                Location::Network,
                format!("owner block run #{i} ({start}, {len}) breaks the pool tiling at {cursor}"),
                "runs must tile owner_pool in directory order, each within its /20 block",
            ));
            ok = false;
            break;
        }
        cursor += len as usize;
    }
    if ok && cursor != v.owner_pool.len() {
        out.push(err(
            "D512",
            Location::Network,
            format!(
                "owner block runs cover {cursor} pool entries of {}",
                v.owner_pool.len()
            ),
            "orphan pool entries after the last run — the index drifted",
        ));
        ok = false;
    }
    if !ok {
        return;
    }
    // Forward: every address a router holds resolves to that router.
    for r in net.routers() {
        let mut addrs = vec![r.loopback];
        addrs.extend(r.ifaces.iter().map(|i| i.addr));
        for addr in addrs {
            if cp.owner_of(addr) != Some(r.id) {
                out.push(err(
                    "D512",
                    Location::Addr(addr),
                    format!(
                        "dense owner index resolves {}'s address to {:?}",
                        r.name,
                        cp.owner_of(addr).map(|o| net.router(o).name.clone())
                    ),
                    "the engine's DstCache would resolve probes here to the wrong router",
                ));
            }
        }
    }
    // Reverse: every populated pool entry names a holder of the decoded
    // address — a poisoned entry for an unowned address is a lie too.
    for (top, &page) in v.owner_top.iter().enumerate() {
        if page == u32::MAX {
            continue;
        }
        for block in 0..OWNER_DIR_SIZE {
            let (start, len) = v.owner_dir[page as usize + block];
            for off in 0..len {
                let raw = v.owner_pool[(start + off) as usize];
                if raw == 0 {
                    continue;
                }
                let addr = Addr(((top as u32) << 24) | ((block as u32) << 12) | off);
                let rid = RouterId(raw - 1);
                let holds = (rid.index()) < net.num_routers() && {
                    let r = net.router(rid);
                    r.loopback == addr || r.ifaces.iter().any(|i| i.addr == addr)
                };
                if !holds {
                    let name =
                        (rid.index() < net.num_routers()).then(|| net.router(rid).name.clone());
                    out.push(err(
                        "D512",
                        Location::Addr(addr),
                        format!(
                            "dense owner index maps the address to {name:?}, which does not hold it"
                        ),
                        "stale or poisoned index entries resolve unowned space to a live router",
                    ));
                }
            }
        }
    }
}

/// Runs every `D5xx` rule over a built control plane. Shape rules run
/// unconditionally; content rules are gated on the shapes they read
/// through, so each corruption is reported by the rule that owns it.
pub fn verify_dense(net: &Network, cp: &ControlPlane) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let te_ok = te_csr_shape(net, cp, &mut out);
    let ldp_ok = ldp_csr_shape(net, cp, &mut out);
    let igp_ok = igp_check(net, cp, &mut out);
    let lfib_ok = lfib_shape(net, cp, &mut out);
    let trie_ok = trie_roundtrip(cp, &mut out);
    if te_ok {
        te_agreement(net, cp, &mut out);
    }
    let fresh = LdpBindings::compute(net, &cp.as_prefixes);
    if ldp_ok {
        ldp_agreement(net, cp, &fresh, &mut out);
    }
    let fib = igp_ok.then(|| logical_fib(net, &cp.igp, &cp.as_prefixes));
    fib_check(net, cp, fib.as_ref(), &mut out);
    if let Some(fib) = &fib {
        if lfib_ok {
            lfib_agreement(net, cp, &fresh, fib, &mut out);
        }
    }
    dst_resolution(net, cp, &trie_ok, &mut out);
    owner_hash(net, cp, &trie_ok, &mut out);
    owner_index(net, cp, &mut out);
    out
}
