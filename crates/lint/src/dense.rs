//! `D5xx` — dense-plane verification.
//!
//! The packet-walk hot path runs on flattened control-plane tables
//! (label-sorted explicit LFIB rows, `te_heads`/`te_routes` CSR, the
//! FIB's per-router next-hop groups, the per-AS external-route classes,
//! the two [`LdpBindings`] tables LDP labels are computed from, the
//! [`AsIgp`](wormhole_net::AsIgp) distance matrices, build-time
//! destination-resolution tables) and on the network's three-level
//! address→owner index. These rules cross-check every flat table
//! against the logical model it encodes — re-derived through the same
//! oracles [`ControlPlane::build`] itself loops over ([`FibOracle`],
//! [`ExtOracle`], [`te_program`], [`te_row`], [`ldp_label_action`]),
//! or recounted from the AS tables (the LDP tables) — and against its
//! own structural invariants. The verifier shares *oracles* with the
//! build, never outputs: every logical row is recomputed from the
//! [`Network`] here, not read back from the plane under test. The
//! content rules D507 and D508 run in one pass over the routers
//! (`router_pass`), recomputing one router's rows at a time into
//! reused buffers, and D513 one AS at a time (`ext_content`), so the
//! check never holds a second copy of the forwarding state. No LDP
//! label is stored, so none is compared: D504 checks the tables every
//! label is computed from, in one pass over the slots and owners.
//!
//! The checks are *staged*: a malformed shape (D501/D503/D505/D506/
//! D508/D513 structure, D509 slot tables) gates the content comparison that
//! would read through it, so one seeded corruption surfaces as exactly
//! one rule — the property the mutation self-test in
//! `tests/mutations.rs` pins for every corruption class.

use crate::diag::{Diagnostic, Location, Severity};
use std::collections::HashSet;
use wormhole_net::igp::{adjacencies_into, INF};
use wormhole_net::{
    ldp_label_action, te_group, te_program, te_row, Addr, ControlPlane, ExtOracle, ExtRoute,
    FibOracle, Label, LdpBindings, LdpPolicy, LfibHop, Network, Prefix, RouterId, OWNER_DIR_SIZE,
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

/// D503: the shape of the [`LdpBindings`] tables. The per-AS `/32`
/// numbers must be a CSR with one entry per slot of each AS table, the
/// `/32` slots a CSR over the ASes, and the own rows a CSR over the
/// routers, each row strictly increasing below the number of slots its
/// router counts. Returns `true` when all hold, so [`ldp_content`] may
/// read them.
fn ldp_shape(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let v = cp.dense_view();
    let n_as = cp.as_prefixes.len();
    let (numbers, hosts) = (v.ldp_host_number_base, v.ldp_host_slot_base);
    let mut ok = check_csr_offsets(
        "D503",
        "ldp /32 number base",
        numbers,
        n_as,
        v.ldp_host_number.len(),
        out,
    ) & check_csr_offsets(
        "D503",
        "ldp /32 slot base",
        hosts,
        n_as,
        v.ldp_host_slot.len(),
        out,
    );
    if ok {
        for (a, ap) in cp.as_prefixes.iter().enumerate() {
            let window = (numbers[a + 1] - numbers[a]) as usize;
            if window != ap.len() {
                out.push(err(
                    "D503",
                    Location::As(ap.asn),
                    format!("{window} /32 numbers for an AS table of {} slots", ap.len()),
                    "every LDP label of the AS would be computed from a neighbor AS's numbers",
                ));
                ok = false;
            }
        }
    }
    let n = net.num_routers();
    if !check_csr_offsets(
        "D503",
        "ldp own base",
        v.ldp_own_base,
        n,
        v.ldp_own.len(),
        out,
    ) {
        return false;
    }
    let windows_ok = ok;
    for r in net.routers() {
        let i = r.id.index();
        let row = &v.ldp_own[v.ldp_own_base[i] as usize..v.ldp_own_base[i + 1] as usize];
        // Positions number the slots, or a loopback-only router's /32s.
        let counted = match net.as_index(r.asn) {
            _ if !windows_ok => usize::MAX,
            None => 0,
            Some(a) if r.config.ldp_policy == LdpPolicy::LoopbackOnly => {
                (hosts[a + 1] - hosts[a]) as usize
            }
            Some(a) => cp.as_prefixes[a].len(),
        };
        if row.windows(2).any(|w| w[0] >= w[1]) || row.iter().any(|&p| p as usize >= counted) {
            out.push(err(
                "D503",
                Location::Router(r.name.clone()),
                format!("own row {row:?} is not strictly increasing below {counted}"),
                "labels are ranked past the own positions in order; the row must be a sorted set",
            ));
            ok = false;
        }
    }
    ok
}

/// D504: the [`LdpBindings`] tables against a recount from the AS
/// tables, in one pass over the slots and their owners. Each AS's
/// `/32` numbers and `/32` slots must number its `/32` slots in slot
/// order, and each router that runs LDP must list exactly the counted
/// positions of the slots of its AS table that list it as an owner (a
/// router that runs none, nothing). Every LDP label is computed from
/// these tables, so they are all there is to compare. Returns `true`
/// when they agree.
fn ldp_content(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let v = cp.dense_view();
    let mut found = Capped::default();
    let (mut numbers, mut hosts) = (Vec::new(), Vec::new());
    for (a, ap) in cp.as_prefixes.iter().enumerate() {
        numbers.clear();
        hosts.clear();
        for (s, p) in ap.prefixes.iter().enumerate() {
            if p.len == 32 {
                numbers.push(hosts.len() as u32);
                hosts.push(s as u32);
            } else {
                numbers.push(LdpBindings::NOT_HOST);
            }
        }
        let (nb, hb) = (v.ldp_host_number_base, v.ldp_host_slot_base);
        let stored_numbers = &v.ldp_host_number[nb[a] as usize..nb[a + 1] as usize];
        let stored_hosts = &v.ldp_host_slot[hb[a] as usize..hb[a + 1] as usize];
        if stored_numbers != numbers || stored_hosts != hosts {
            found.push(|| {
                err(
                    "D504",
                    Location::As(ap.asn),
                    "stored /32 numbering disagrees with the AS table".to_string(),
                    "every label a loopback-only router computes past the first wrong slot is shifted",
                )
            });
        }
    }
    let home: Vec<Option<usize>> = net.routers().iter().map(|r| net.as_index(r.asn)).collect();
    let loopback_only: Vec<bool> = net
        .routers()
        .iter()
        .map(|r| r.config.ldp_policy == LdpPolicy::LoopbackOnly)
        .collect();
    let mut owned = vec![0usize; net.num_routers()];
    for (a, ap) in cp.as_prefixes.iter().enumerate() {
        for s in 0..ap.len() as u32 {
            for o in ap.owners(s) {
                let member = home.get(o.index()) == Some(&Some(a));
                if member && (!loopback_only[o.index()] || ap.prefix(s).len == 32) {
                    owned[o.index()] += 1;
                }
            }
        }
    }
    for r in net.routers() {
        let i = r.id.index();
        let row = &v.ldp_own[v.ldp_own_base[i] as usize..v.ldp_own_base[i + 1] as usize];
        let want = if LdpBindings::runs_ldp(r) {
            owned[i]
        } else {
            0
        };
        let agrees = row.len() == want
            && home[i].is_none_or(|a| {
                let ap = &cp.as_prefixes[a];
                let hosts = &v.ldp_host_slot[v.ldp_host_slot_base[a] as usize..];
                row.iter().all(|&p| {
                    let slot = if loopback_only[i] {
                        hosts[p as usize]
                    } else {
                        p
                    };
                    ap.owners(slot).contains(&r.id)
                })
            });
        if !agrees {
            found.push(|| {
                err(
                    "D504",
                    Location::Router(r.name.clone()),
                    format!("own row {row:?} disagrees with the slots the AS table gives it"),
                    "a flipped null advertisement: LSPs through this router swap to labels nobody computes",
                )
            });
        }
    }
    let clean = found.misses == 0;
    out.extend(found.found);
    clean
}

/// D505: per-AS IGP distance matrices. Each must be `n × n` with a
/// zero diagonal, and every off-diagonal cell the Bellman fixed point
/// over the source's intra-AS adjacencies: a finite distance is the
/// minimum of edge + remaining over the neighbors that reach the
/// destination, and a distance is [`INF`] exactly when none does. The
/// FIB's first hops are derived from these distances, so this is what
/// makes them shortest. Returns `true` only when every AS is clean
/// (the logical FIB is only trusted then).
fn igp_check(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let mut all_ok = true;
    let mut adj = Vec::new();
    for view in &cp.igp {
        let n = view.members.len();
        let loc = || Location::As(view.asn);
        if view.dist.len() != n * n {
            out.push(err(
                "D505",
                loc(),
                "distance matrix is not members × members".to_string(),
                "rebuild the IGP view",
            ));
            all_ok = false;
            continue;
        }
        if (0..n).any(|i| view.distance_local(i, i) != 0) {
            out.push(err(
                "D505",
                loc(),
                "a member is a nonzero distance from itself".to_string(),
                "the diagonal of the distance matrix must be zero",
            ));
            all_ok = false;
            continue;
        }
        for (ls, &s) in view.members.iter().enumerate() {
            adj.clear();
            adjacencies_into(net, &view.members, s, &mut adj);
            for (ld, &stored) in view.row(ls).iter().enumerate() {
                if ls == ld {
                    continue;
                }
                let best = adj
                    .iter()
                    .filter_map(|a| {
                        let rest = view.distance_local(a.local as usize, ld);
                        (rest < INF).then(|| a.metric.saturating_add(rest))
                    })
                    .min()
                    .filter(|&d| d < INF)
                    .unwrap_or(INF);
                if stored != best {
                    let show = |d: u32| {
                        if d >= INF {
                            "unreachable".to_string()
                        } else {
                            d.to_string()
                        }
                    };
                    out.push(err(
                        "D505",
                        loc(),
                        format!(
                            "distance {} → {} is {}, its neighbors give {}",
                            net.router(s).name,
                            net.router(view.members[ld]).name,
                            show(stored),
                            show(best)
                        ),
                        "every distance must be the minimum of edge + remaining over the \
                         source's neighbors — the shortest-path fixed point",
                    ));
                    all_ok = false;
                }
            }
        }
    }
    all_ok
}

/// D506: explicit LFIB row shape. The row offsets must be a CSR over
/// the entries, each row's labels strictly increasing (lookups
/// binary-search the row) and each entry's FEC a slot of its router's
/// AS table, or none for RSVP-TE. The entries' branch runs must tile
/// the branch pool, one or more branches each, and every branch leave
/// over an interface of its row's router towards that interface's
/// peer. Returns `true` when the whole LFIB is well-shaped.
fn lfib_shape(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let v = cp.dense_view();
    let n = net.num_routers();
    let rows_ok = check_csr_offsets(
        "D506",
        "lfib base",
        v.lfib_base,
        n,
        v.lfib_explicit.len(),
        out,
    );
    // Branch runs start at 0 and strictly increase: each entry owns at
    // least one branch and no two entries share one.
    let mut tiles = true;
    let mut prev: Option<u32> = None;
    for (i, e) in v.lfib_explicit.iter().enumerate() {
        if prev.map_or(e.hops != 0, |p| e.hops <= p) {
            out.push(err(
                "D506",
                Location::Network,
                format!(
                    "explicit LFIB entry #{i} starts its branches at {}, breaking the pool tiling after {prev:?}",
                    e.hops
                ),
                "branch runs must tile lfib_hops in order, at least one branch per entry",
            ));
            tiles = false;
            break;
        }
        prev = Some(e.hops);
    }
    let closes = v.lfib_explicit.last().map_or(v.lfib_hops.is_empty(), |e| {
        (e.hops as usize) < v.lfib_hops.len()
    });
    if tiles && !closes {
        out.push(err(
            "D506",
            Location::Network,
            format!(
                "the last explicit LFIB entry's branches do not end inside the pool of {}",
                v.lfib_hops.len()
            ),
            "the final entry needs at least one branch, and no pool slot may be orphaned",
        ));
        tiles = false;
    }
    let mut ok = rows_ok && tiles;
    if !rows_ok {
        return false;
    }
    for r in net.routers() {
        let i = r.id.index();
        let (start, end) = (v.lfib_base[i] as usize, v.lfib_base[i + 1] as usize);
        let row = &v.lfib_explicit[start..end];
        let loc = || Location::Router(r.name.clone());
        if row.windows(2).any(|w| w[0].label >= w[1].label) {
            out.push(err(
                "D506",
                loc(),
                "LFIB row labels are not strictly increasing".to_string(),
                "lfib_entry() binary-searches the row; duplicates shadow each other",
            ));
            ok = false;
        }
        let slots = net.as_index(r.asn).map_or(0, |a| cp.as_prefixes[a].len());
        for (k, e) in row.iter().enumerate() {
            let label = Label(e.label);
            if e.slot != u32::MAX && e.slot as usize >= slots {
                out.push(err(
                    "D506",
                    loc(),
                    format!(
                        "LFIB entry for label {label} names FEC slot {} of an AS table of {slots}",
                        e.slot
                    ),
                    "an entry's FEC is a slot of its router's AS table, or none for RSVP-TE",
                ));
                ok = false;
            }
            if !tiles {
                continue;
            }
            let hops_end = v
                .lfib_explicit
                .get(start + k + 1)
                .map_or(v.lfib_hops.len(), |n| n.hops as usize);
            let stray = v.lfib_hops[e.hops as usize..hops_end].iter().find(|h| {
                r.ifaces
                    .get(h.iface as usize)
                    .is_none_or(|f| f.peer != h.next)
            });
            if let Some(h) = stray {
                out.push(err(
                    "D506",
                    loc(),
                    format!(
                        "LFIB entry for label {label} leaves over interface {} towards {}, not a link of this router",
                        h.iface, h.next
                    ),
                    "the entry sits in another router's row, or names a link its router lacks",
                ));
                ok = false;
            }
        }
    }
    ok
}

/// D508, shape half: one FIB cell per slot of each router's AS table,
/// each naming one of the router's next-hop groups, the groups numbered
/// by first appearance in slot order with none left unnamed, and the
/// groups tiling the pool in order. Returns `true` when the tables
/// hold, so the content half (in [`router_pass`]) may read through them.
fn fib_shape(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let v = cp.dense_view();
    let n = net.num_routers();
    let groups = v.fib_groups.len().saturating_sub(1);
    let mut ok = check_csr_offsets("D508", "fib_base", v.fib_base, n, v.fib_index.len(), out);
    ok &= check_csr_offsets("D508", "fib_group_base", v.fib_group_base, n, groups, out);
    ok &= check_csr_offsets(
        "D508",
        "fib_groups",
        v.fib_groups,
        groups,
        v.fib_pool.len(),
        out,
    );
    if !ok {
        return false;
    }
    for r in net.routers() {
        let i = r.id.index();
        let cells = &v.fib_index[v.fib_base[i] as usize..v.fib_base[i + 1] as usize];
        let want = net.as_index(r.asn).map_or(0, |a| cp.as_prefixes[a].len());
        let loc = || Location::Router(r.name.clone());
        if cells.len() != want {
            out.push(err(
                "D508",
                loc(),
                format!(
                    "{} FIB cells against an AS table of {want} slots",
                    cells.len()
                ),
                "every router owns exactly one cell per prefix slot of its AS",
            ));
            ok = false;
            continue;
        }
        let count = (v.fib_group_base[i + 1] - v.fib_group_base[i]) as usize;
        let mut next = 0;
        if let Some((slot, g)) = cells.iter().enumerate().find_map(|(slot, &g)| {
            let g = usize::from(g);
            next += usize::from(g == next);
            (g >= count || g >= next).then_some((slot, g))
        }) {
            out.push(err(
                "D508",
                loc(),
                format!("FIB cell for slot {slot} names next-hop group {g} of {count}"),
                "a router's groups are numbered by first appearance in slot order, below their count",
            ));
            ok = false;
        } else if next != count {
            out.push(err(
                "D508",
                loc(),
                format!("{count} next-hop groups, {next} of them named by a FIB cell"),
                "an orphan group is dead weight no lookup can reach",
            ));
            ok = false;
        }
    }
    ok
}

/// D513, shape half: the external-route class table of every AS. One
/// class cell per `(source AS, destination AS)`, each AS's class block
/// a whole number of member-wide classes tiling the word pool in AS
/// order, every router's local index its position among its AS's
/// members, and every class cell below its AS's class count, classes
/// numbered by first destination AS with none left unnamed. Every word
/// must unpack, a `Direct` interface must be an inter-AS interface of
/// the member it belongs to, and a `ViaEgress` egress a member of the
/// same AS. Returns `true` when the tables hold, so the content half
/// ([`ext_content`]) may read through them.
fn ext_shape(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> bool {
    let v = cp.dense_view();
    let (n, as_list) = (net.num_routers(), net.as_list());
    let n_as = as_list.len();
    if v.ext_blocks.len() != n_as + 1 || v.ext_class.len() != n_as * n_as || v.ext_local.len() != n
    {
        out.push(err(
            "D513",
            Location::Network,
            format!(
                "{} class blocks, {} class cells and {} local indices for {n_as} ASes and {n} routers",
                v.ext_blocks.len(),
                v.ext_class.len(),
                v.ext_local.len()
            ),
            "rebuild the control plane; the class tables lost or gained rows",
        ));
        return false;
    }
    let mut ok = true;
    let mut cursor = 0;
    for (s, &asn) in as_list.iter().enumerate() {
        let members = net.as_members(asn);
        let (first, width) = v.ext_blocks[s];
        let end = v.ext_blocks[s + 1].0;
        let tiles = first == cursor
            && end >= first
            && width as usize == members.len()
            && (end - first).checked_rem(width).unwrap_or(end - first) == 0;
        if !tiles {
            out.push(err(
                "D513",
                Location::As(asn),
                format!(
                    "class block ({first}, {width}) up to {end} breaks the word tiling at {cursor} for {} members",
                    members.len()
                ),
                "each AS's classes are member-wide and tile the word pool in AS order",
            ));
            ok = false;
            break;
        }
        cursor = end;
        if let Some((i, m)) = members
            .iter()
            .enumerate()
            .find(|&(i, m)| v.ext_local[m.index()] as usize != i)
        {
            out.push(err(
                "D513",
                Location::Router(net.router(*m).name.clone()),
                format!(
                    "external-route local index {} for member #{i} of {asn}",
                    v.ext_local[m.index()]
                ),
                "ext_route() would read another member's decision",
            ));
            ok = false;
        }
    }
    if ok && cursor as usize != v.ext_words.len() {
        out.push(err(
            "D513",
            Location::Network,
            format!("class blocks cover {cursor} words of {}", v.ext_words.len()),
            "orphan words after the last class block — the table drifted",
        ));
        ok = false;
    }
    if !ok {
        return false;
    }
    for (s, &asn) in as_list.iter().enumerate() {
        let members = net.as_members(asn);
        let (first, width) = v.ext_blocks[s];
        let words = &v.ext_words[first as usize..v.ext_blocks[s + 1].0 as usize];
        let count = words.len().checked_div(width as usize).unwrap_or(1);
        let loc = || Location::As(asn);
        let mut next = 0;
        let row = &v.ext_class[s * n_as..(s + 1) * n_as];
        if let Some((dst, c)) = as_list.iter().zip(row).find_map(|(dst, &c)| {
            let c = usize::from(c);
            next += usize::from(c == next);
            (c >= count || c >= next).then_some((dst, c))
        }) {
            out.push(err(
                "D513",
                loc(),
                format!("class cell towards {dst} names class {c} of {count}"),
                "an AS's classes are numbered by first destination AS, below their count",
            ));
            ok = false;
        } else if next != count {
            out.push(err(
                "D513",
                loc(),
                format!("{count} external-route classes, {next} of them named by a cell"),
                "an orphan class is dead weight no lookup can reach",
            ));
            ok = false;
        }
        for (k, &w) in words.iter().enumerate() {
            let member = net.router(members[k % members.len()]);
            let bad = match ExtRoute::unpack(w) {
                None => Some(format!("word {w:#x} packs no route")),
                Some(ExtRoute::Direct { iface }) => member
                    .ifaces
                    .get(iface as usize)
                    .is_none_or(|i| !net.link(i.link).inter_as)
                    .then(|| format!("Direct over iface {iface}, not an inter-AS interface")),
                Some(ExtRoute::ViaEgress { egress }) => (egress.index() >= n
                    || net.router(egress).asn != asn)
                    .then(|| format!("ViaEgress towards {egress}, not a member of {asn}")),
                Some(ExtRoute::Unreachable) => None,
            };
            if let Some(what) = bad {
                out.push(err(
                    "D513",
                    Location::Router(member.name.clone()),
                    format!(
                        "external-route class {} of {asn}: {what}",
                        k / members.len()
                    ),
                    "the walk would leave over a wrong interface or towards a foreign egress",
                ));
                ok = false;
                break;
            }
        }
    }
    ok
}

/// D513, content half: every AS's stored classes against the build's
/// own hot-potato oracle ([`ExtOracle`]). Each distinct candidate set
/// of an AS is resolved once: the first cell with it must name a class
/// equal to the recomputed one, and every later cell with it the same
/// class.
fn ext_content(net: &Network, cp: &ControlPlane, out: &mut Vec<Diagnostic>) {
    let v = cp.dense_view();
    let as_list = net.as_list();
    let n_as = as_list.len();
    if cp.igp.len() != n_as {
        return; // the oracle needs one IGP view per AS
    }
    let mut oracle = ExtOracle::new(net, &cp.igp, &cp.bgp);
    // The AS's candidate set numbers → the class their first cell names.
    let mut class_of: Vec<u16> = Vec::new();
    let mut found = Capped::default();
    for (s, &asn) in as_list.iter().enumerate() {
        if oracle.load(s).is_err() {
            continue; // an unregistered peer AS is X2xx territory
        }
        class_of.clear();
        let (first, width) = (v.ext_blocks[s].0 as usize, v.ext_blocks[s].1 as usize);
        let row = &v.ext_class[s * n_as..(s + 1) * n_as];
        for (d, (&dst, &c)) in as_list.iter().zip(row).enumerate() {
            let wrong = match oracle.resolve(d) {
                (_, Some(words)) => {
                    class_of.push(c);
                    let at = first + usize::from(c) * width;
                    (v.ext_words[at..at + width] != *words)
                        .then(|| format!("class {c}, which disagrees with the hot-potato oracle"))
                }
                (set, None) => (class_of[set] != c).then(|| {
                    format!(
                        "class {c}, where the same candidate borders have class {}",
                        class_of[set]
                    )
                }),
            };
            if let Some(what) = wrong {
                found.push(|| {
                    err(
                        "D513",
                        Location::As(asn),
                        format!("external routes towards {dst}: {what}"),
                        "rebuild the control plane; a stored egress decision was edited",
                    )
                });
            }
        }
    }
    out.extend(found.found);
}

/// Which content comparisons [`router_pass`] runs, as the shape stage
/// left them. Every gate also needs the slot tables (D509): the oracles
/// read slot owners through them.
#[derive(Copy, Clone)]
struct Gates {
    /// D508 content: the IGP views (D505) and the FIB CSR hold.
    fib: bool,
    /// D507: the IGP views (D505), the explicit LFIB rows (D506) and
    /// the LDP tables (D503/D504) hold.
    lfib: bool,
}

/// Capped findings of one rule: the first [`Capped::CAP`] in router
/// order are kept, but every miss counts against cleanliness.
#[derive(Default)]
struct Capped {
    found: Vec<Diagnostic>,
    misses: usize,
}

impl Capped {
    const CAP: usize = 8;

    fn push(&mut self, d: impl FnOnce() -> Diagnostic) {
        if self.misses < Self::CAP {
            self.found.push(d());
        }
        self.misses += 1;
    }
}

/// The content rules D507 and D508 in one pass over the routers.
///
/// Each router's logical FIB row ([`FibOracle::row_into`]) is
/// recomputed into reused scratch buffers — never larger than one AS's
/// slots — and compared in place with the stored FIB spans (D508). D507
/// matches the router's explicit LFIB entries against the row the
/// build's own [`te_row`] oracle yields over the TE transit program:
/// each program entry must be installed branch for branch. An installed
/// entry the program lacks must override an LDP label whose FEC is
/// routed, with exactly the branches LDP computes (the logical FIB
/// span, each hop's [`ldp_label_action`]); any other is stale. LDP
/// entries are computed, not installed, so they cannot drift; D507 runs
/// only over clean LDP tables (D503/D504), which the override check
/// inverts labels through.
fn router_pass(net: &Network, cp: &ControlPlane, gates: Gates, out: &mut Vec<Diagnostic>) {
    // Invalid tunnel declarations are X205/W107 territory.
    let te_transit = gates
        .lfib
        .then(|| te_program(net).ok())
        .flatten()
        .map(|(t, _)| t);
    let mut oracle = FibOracle::new(net, &cp.igp, &cp.as_prefixes);
    let (mut spans, mut hops, mut want) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen: Vec<bool> = Vec::new();
    let mut te_next = 0;
    let mut d508 = Capped::default();
    let mut d507 = Vec::new();
    for r in net.routers() {
        let loc = || Location::Router(r.name.clone());
        spans.clear();
        hops.clear();
        if gates.fib || te_transit.is_some() {
            oracle.row_into(r.id, &mut spans, &mut hops);
        }
        let logical = |slot: usize| {
            spans
                .get(slot)
                .map_or(&[][..], |&(s, l)| &hops[s as usize..(s + l) as usize])
        };
        if gates.fib {
            for slot in 0..spans.len() {
                if cp.fib_entry(r.id, slot as u32).unwrap_or(&[]) != logical(slot) {
                    d508.push(|| {
                        err(
                            "D508",
                            loc(),
                            format!(
                                "dense FIB entry for slot {slot} disagrees with the logical FIB"
                            ),
                            "rebuild the control plane; the flattened span was edited",
                        )
                    });
                }
            }
        }
        let Some(te_transit) = &te_transit else {
            continue;
        };
        let te = te_group(te_transit, &mut te_next, r.id);
        te_row(te, &mut want);
        seen.clear();
        seen.resize(want.len(), false);
        for (label, installed) in cp.lfib_explicit(r.id) {
            let agrees = match want.binary_search_by_key(&label, |&k| te[k].1) {
                Ok(i) => {
                    seen[i] = true;
                    let e = &te[want[i]].2;
                    installed.slot == e.slot && installed.branches().eq(e.nexthops.iter().copied())
                }
                Err(_) => {
                    let routed = cp
                        .ldp_fec(r.id, label)
                        .filter(|&slot| !logical(slot as usize).is_empty());
                    let Some(slot) = routed else {
                        d507.push(err(
                            "D507",
                            loc(),
                            format!("stale LFIB entry for label {label}: no LDP binding or TE tunnel produces it"),
                            "nothing can address this entry correctly; it was injected or left behind",
                        ));
                        continue;
                    };
                    installed.slot == slot
                        && installed.branches().eq(logical(slot as usize).iter().map(
                            |&(iface, next)| LfibHop {
                                iface,
                                next,
                                action: ldp_label_action(cp, next, slot),
                            },
                        ))
                }
            };
            if !agrees {
                d507.push(err(
                    "D507",
                    loc(),
                    format!("LFIB entry for label {label} disagrees with the logical program"),
                    "the entry was rewritten after build; LSPs through it break mid-path",
                ));
            }
        }
        for (&k, _) in want.iter().zip(&seen).filter(|&(_, &seen)| !seen) {
            d507.push(err(
                "D507",
                loc(),
                format!(
                    "missing LFIB entry for label {}: the logical program installs it",
                    te[k].1
                ),
                "labeled packets for this FEC would die here with an unlabeled fallback",
            ));
        }
    }
    out.extend(d508.found);
    out.extend(d507);
}

/// D509: each AS's slot table — the owner CSR over its slots is
/// well-formed and no prefix holds two slots. Returns one clean flag
/// per AS table: the content checks that read owners or slots through
/// a table (D504/D507/D508 through the oracles, D510 per AS) are
/// skipped when it is not.
fn slot_tables(cp: &ControlPlane, out: &mut Vec<Diagnostic>) -> Vec<bool> {
    let mut clean = Vec::with_capacity(cp.as_prefixes.len());
    let mut sorted = Vec::new();
    for ap in &cp.as_prefixes {
        let mut ok = check_csr_offsets(
            "D509",
            &format!("{} owner offsets", ap.asn),
            &ap.owner_base,
            ap.prefixes.len(),
            ap.owner_ids.len(),
            out,
        );
        sorted.clear();
        sorted.extend_from_slice(&ap.prefixes);
        sorted.sort_unstable();
        for run in sorted.chunk_by(|a, b| a == b).filter(|run| run.len() > 1) {
            out.push(err(
                "D509",
                Location::Prefix {
                    asn: ap.asn,
                    prefix: run[0],
                },
                format!("prefix holds {} slots in the AS table", run.len()),
                "each slot is one FEC; two slots for one prefix split its labels and FIB entries",
            ));
            ok = false;
        }
        clean.push(ok);
    }
    clean
}

/// D510: the memoized destination-resolution tables. `router_as_idx`
/// must equal the network's dense AS index, and every memoized slot
/// must hold the prefix of the address it resolves — the router's
/// loopback `/32`, or that interface's prefix — and list the router
/// among the slot's owners. Slots are checked in an AS only when its
/// table passed D509 (a malformed table is then the liar).
fn dst_resolution(net: &Network, cp: &ControlPlane, slots_ok: &[bool], out: &mut Vec<Diagnostic>) {
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
        if !slots_ok.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let ap = &cp.as_prefixes[idx];
        // The finding for a memoized `slot` that should resolve an
        // address of `r` inside `prefix`, if it does not.
        let wrong = |slot: u32, prefix: Prefix| {
            if slot as usize >= ap.len() || ap.prefix(slot) != prefix {
                Some((
                    format!("memoized slot {slot} does not hold {prefix}"),
                    "packets addressed here resolve to the wrong FEC",
                ))
            } else if !ap.owners(slot).contains(&r.id) {
                Some((
                    format!(
                        "slot {slot} of {prefix} does not list {} among its owners",
                        r.name
                    ),
                    "the FIB would route this address towards routers that do not hold it",
                ))
            } else {
                None
            }
        };
        if let Some((message, hint)) = wrong(v.loopback_slot[i], r.loopback.host_prefix()) {
            out.push(err("D510", Location::Router(r.name.clone()), message, hint));
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
            if let Some((message, hint)) = wrong(v.iface_slot[base + j], ifc.prefix) {
                let at = Location::Interface {
                    router: r.name.clone(),
                    addr: ifc.addr,
                };
                out.push(err("D510", at, message, hint));
            }
        }
    }
}

/// D512: the network's three-level address→owner index (what
/// [`Network::owner`] reads for the engine's `DstCache`, the
/// campaign's alias resolution and every ground-truth check) must be
/// well-shaped and must agree with the routers that actually hold each
/// address.
///
/// Shape first: every /8's directory page must be page-aligned, in
/// bounds and its own (two /8s sharing a page would alias each other's
/// addresses), every page must belong to a /8, and the `(start, len)`
/// block runs must tile the pool in directory order, none longer than a
/// block. Only a well-shaped index is content-checked, in both
/// directions: every held address resolves to its holder, and every
/// populated pool entry names a router that holds the decoded address.
fn owner_index(net: &Network, out: &mut Vec<Diagnostic>) {
    let ix = net.owner_index();
    let dir_len = ix.dir.len();
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
    for (top, &page) in ix.top.iter().enumerate() {
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
    for (i, &(start, len)) in ix.dir.iter().enumerate() {
        if start as usize != cursor || len as usize > OWNER_DIR_SIZE {
            out.push(err(
                "D512",
                Location::Network,
                format!("owner block run #{i} ({start}, {len}) breaks the pool tiling at {cursor}"),
                "runs must tile the owner pool in directory order, each within its /20 block",
            ));
            ok = false;
            break;
        }
        cursor += len as usize;
    }
    if ok && cursor != ix.pool.len() {
        out.push(err(
            "D512",
            Location::Network,
            format!(
                "owner block runs cover {cursor} pool entries of {}",
                ix.pool.len()
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
        for addr in r.addrs() {
            let got = net.owner(addr);
            if got != Some(r.id) {
                out.push(err(
                    "D512",
                    Location::Addr(addr),
                    format!(
                        "dense owner index resolves {}'s address to {:?}",
                        r.name,
                        got.map(|o| net.router(o).name.clone())
                    ),
                    "the engine's DstCache would resolve probes here to the wrong router",
                ));
            }
        }
    }
    // Reverse: every populated pool entry names a holder of the decoded
    // address — a poisoned entry for an unowned address is a lie too.
    for (top, &page) in ix.top.iter().enumerate() {
        if page == u32::MAX {
            continue;
        }
        for block in 0..OWNER_DIR_SIZE {
            let (start, len) = ix.dir[page as usize + block];
            for off in 0..len {
                let raw = ix.pool[(start + off) as usize];
                if raw == 0 {
                    continue;
                }
                let addr = Addr(((top as u32) << 24) | ((block as u32) << 12) | off);
                let rid = RouterId(raw - 1);
                let holds = rid.index() < net.num_routers() && net.router(rid).owns(addr);
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
    let ldp_ok = ldp_shape(net, cp, &mut out);
    let igp_ok = igp_check(net, cp, &mut out);
    let lfib_ok = lfib_shape(net, cp, &mut out);
    let fib_ok = fib_shape(net, cp, &mut out);
    let ext_ok = ext_shape(net, cp, &mut out);
    let slots_ok = slot_tables(cp, &mut out);
    let tables_ok = slots_ok.iter().all(|&ok| ok);
    if te_ok {
        te_agreement(net, cp, &mut out);
    }
    let ldp_clean = ldp_ok && tables_ok && ldp_content(net, cp, &mut out);
    let gates = Gates {
        fib: igp_ok && fib_ok && tables_ok,
        lfib: igp_ok && lfib_ok && ldp_clean,
    };
    router_pass(net, cp, gates, &mut out);
    if igp_ok && ext_ok {
        ext_content(net, cp, &mut out);
    }
    dst_resolution(net, cp, &slots_ok, &mut out);
    owner_index(net, &mut out);
    out
}
