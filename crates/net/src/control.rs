//! Control-plane assembly: FIBs, BGP external routes, and LFIBs.
//!
//! [`ControlPlane::build`] computes, from an immutable [`Network`]:
//!
//! 1. per-AS IGP distance matrices ([`AsIgp`]), in parallel across
//!    ASes (`build_with_jobs`) with a deterministic AS-ordered merge;
//! 2. per-router intra-AS FIBs (ECMP next-hop sets towards the nearest
//!    owner of each internal prefix), emitted directly as one shared
//!    pool with per-router offset tables ([`FibTables`]);
//! 3. per-router external routes: hot-potato egress selection over the
//!    valley-free AS-level routes ([`Bgp`]);
//! 4. LDP bindings ([`LdpBindings`]) and per-router LFIBs implementing
//!    swap / PHP-pop / explicit-null-swap, stored as dense label
//!    windows (labels are small integers we allocate ourselves) with a
//!    sorted overflow for outliers (RSVP-TE labels, injected entries).

use crate::addr::Addr;
use crate::bgp::Bgp;
use crate::error::NetError;
use crate::ids::{Asn, Label, LinkId, RouterId};
use crate::igp::{AsIgp, INF};
use crate::ldp::{LabelValue, LdpBindings};
use crate::net::Network;
use crate::prefixes::AsPrefixes;
use crate::vendor::PoppingMode;
use std::collections::HashMap;

/// A route towards an external AS.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtRoute {
    /// No valley-free route exists.
    Unreachable,
    /// This router is the egress border: forward over its own eBGP
    /// interface.
    Direct {
        /// Interface index of the eBGP link to use.
        iface: u32,
    },
    /// Forward towards the chosen egress border's loopback (the BGP
    /// next hop); MPLS ingresses push the label bound to that loopback.
    ViaEgress {
        /// The selected egress border router.
        egress: RouterId,
    },
}

/// Why [`ControlPlane::from_cache_payload`] rejected a payload.
#[derive(Debug)]
pub enum CachePayloadError {
    /// The payload bytes did not decode, or the decoded tables'
    /// dimensions do not match the network they were paired with.
    Decode(crate::wire::WireError),
    /// The plane could not be assembled over this network (the same
    /// errors a cold [`ControlPlane::build_with_jobs`] can hit).
    Assemble(NetError),
}

impl std::fmt::Display for CachePayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CachePayloadError::Decode(e) => write!(f, "cache payload: {e}"),
            CachePayloadError::Assemble(e) => write!(f, "cache payload assembly: {e:?}"),
        }
    }
}

impl std::error::Error for CachePayloadError {}

/// What an LFIB entry does with the top label.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LabelAction {
    /// Replace the top label (mid-LSP forwarding).
    Swap(Label),
    /// Remove the top label (Penultimate Hop Popping, or a downstream
    /// neighbor without a binding — Cisco "untagged").
    Pop,
    /// Replace the top label with explicit null (penultimate hop of a
    /// UHP LSP).
    SwapExplicitNull,
}

/// One ECMP branch of an LFIB entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LfibHop {
    /// Outgoing interface index.
    pub iface: u32,
    /// The next router.
    pub next: RouterId,
    /// The label operation on this branch.
    pub action: LabelAction,
}

/// An LFIB entry: incoming label → FEC and ECMP branches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LfibEntry {
    /// The FEC (prefix slot in the router's AS table).
    pub slot: u32,
    /// ECMP branches.
    pub nexthops: Vec<LfibHop>,
}

/// Labels further than this from a router's dense LDP run go to the
/// sorted overflow instead of growing the window (RSVP-TE labels live
/// at `500_000+`, far from the LDP runs that start near `16`).
const LFIB_WINDOW_SPAN: u32 = 4096;

/// The LFIB of one router: a dense label window (direct indexing for
/// the contiguous LDP run) plus a small sorted overflow for outliers.
#[derive(Debug, Clone, Default)]
struct RouterLfib {
    /// Label value of `window[0]`.
    lo: u32,
    /// `window[label - lo]`, `None` for gaps.
    window: Vec<Option<LfibEntry>>,
    /// Entries outside the window, sorted by label value.
    overflow: Vec<(u32, LfibEntry)>,
    /// Number of installed entries (window `Some`s + overflow).
    len: usize,
}

impl RouterLfib {
    #[inline]
    fn get(&self, label: Label) -> Option<&LfibEntry> {
        let v = label.0;
        if v >= self.lo {
            if let Some(Some(e)) = self.window.get((v - self.lo) as usize) {
                return Some(e);
            }
        }
        self.overflow
            .binary_search_by_key(&v, |&(l, _)| l)
            .ok()
            .map(|i| &self.overflow[i].1)
    }

    fn insert(&mut self, label: Label, entry: LfibEntry) {
        let v = label.0;
        if self.window.is_empty() {
            self.lo = v;
            self.window.push(Some(entry));
            self.len += 1;
            self.absorb_overflow();
            return;
        }
        let hi = self.lo + self.window.len() as u32;
        if v >= self.lo && v < hi {
            let slot = &mut self.window[(v - self.lo) as usize];
            if slot.is_none() {
                self.len += 1;
            }
            *slot = Some(entry);
            return;
        }
        if v >= hi && v - self.lo < LFIB_WINDOW_SPAN {
            self.window.resize_with((v - self.lo + 1) as usize, || None);
            self.window[(v - self.lo) as usize] = Some(entry);
            self.len += 1;
            self.absorb_overflow();
            return;
        }
        if v < self.lo && hi - v <= LFIB_WINDOW_SPAN {
            let shift = (self.lo - v) as usize;
            let mut grown: Vec<Option<LfibEntry>> = Vec::with_capacity(self.window.len() + shift);
            grown.resize_with(shift, || None);
            grown.append(&mut self.window);
            self.window = grown;
            self.lo = v;
            self.window[0] = Some(entry);
            self.len += 1;
            self.absorb_overflow();
            return;
        }
        match self.overflow.binary_search_by_key(&v, |&(l, _)| l) {
            Ok(i) => self.overflow[i] = (v, entry),
            Err(i) => {
                self.overflow.insert(i, (v, entry));
                self.len += 1;
            }
        }
    }

    /// Migrates overflow entries that the (re)grown window now covers,
    /// so every label has exactly one home.
    fn absorb_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        let lo = self.lo;
        let hi = self.lo + self.window.len() as u32;
        let mut kept = Vec::with_capacity(self.overflow.len());
        for (v, e) in self.overflow.drain(..) {
            if v >= lo && v < hi {
                self.window[(v - lo) as usize] = Some(e);
            } else {
                kept.push((v, e));
            }
        }
        self.overflow = kept;
    }

    fn iter(&self) -> impl Iterator<Item = (Label, &LfibEntry)> + '_ {
        let lo = self.lo;
        self.window
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| e.as_ref().map(|e| (Label(lo + i as u32), e)))
            .chain(self.overflow.iter().map(|(v, e)| (Label(*v), e)))
    }
}

/// A TE autoroute decision: `(out iface, first hop, label to push)`.
pub type TeRoute = (u32, RouterId, Option<Label>);

/// Bit flags of the per-router walk-table configuration byte — the
/// [`RouterConfig`](crate::router::RouterConfig) knobs the engine's hot
/// loop consults, condensed into one byte per router so a forwarding
/// step reads a single dense-table row instead of chasing the full
/// `Router` struct.
pub mod walk {
    /// MPLS/LDP forwarding enabled.
    pub const MPLS: u8 = 1 << 0;
    /// RFC 3443 `ttl-propagate` on.
    pub const TTL_PROPAGATE: u8 = 1 << 1;
    /// RFC 4950 label-stack quoting on.
    pub const RFC4950: u8 = 1 << 2;
    /// `min(IP-TTL, LSE-TTL)` applied when the last label pops.
    pub const MIN_ON_EXIT: u8 = 1 << 3;
    /// The router answers probes.
    pub const REPLIES: u8 = 1 << 4;
    /// The router is a measurement host.
    pub const IS_HOST: u8 = 1 << 5;
}

/// One flat interface record of the walk tables: everything the
/// engine's hot loop reads per wire crossing, inlined from
/// [`crate::router::Interface`] and [`crate::net::Link`] so a crossing
/// is one indexed load instead of three dependent pointer chases.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WalkIface {
    /// The interface's own address.
    pub addr: Addr,
    /// The peer's address on the shared subnet (the arrival address).
    pub peer_addr: Addr,
    /// The router on the other end.
    pub peer: RouterId,
    /// The link this interface terminates (flap schedules key on it).
    pub link: LinkId,
    /// One-way propagation delay of the link, in milliseconds.
    pub delay_ms: f64,
}

/// Addresses per page of the dense owner index (and the page
/// alignment): the low 12 bits of an address index into a page, the
/// high 20 bits select it.
pub const OWNER_PAGE_SIZE: usize = 1 << 12;

/// The computed control plane of a network.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    /// Per-AS internal prefix tables (dense AS index order).
    pub as_prefixes: Vec<AsPrefixes>,
    /// Per-AS IGP views.
    pub igp: Vec<AsIgp>,
    /// AS-level routes.
    pub bgp: Bgp,
    /// LDP advertisements.
    pub bindings: LdpBindings,
    /// The intra-AS FIB CSR, as [`logical_fib`] emits it.
    fib: FibTables,
    /// External forwarding, flattened row-major:
    /// `ext[router.index() * ext_stride + dst_as_index]`. One flat
    /// array instead of a `Vec<Vec<_>>` keeps the per-hop inter-AS
    /// lookup a single indexed load with no pointer chase.
    ext: Vec<ExtRoute>,
    /// Row stride of [`Self::ext`]: the number of ASes.
    ext_stride: usize,
    /// Per-router dense LFIBs.
    lfib: Vec<RouterLfib>,
    /// Router → span of [`Self::te_routes`] headed there; length
    /// `num_routers + 1`. Almost every router heads no tunnel, so the
    /// miss path is two adjacent loads.
    te_heads: Vec<u32>,
    /// `(tail, (out iface, first hop, label to push))`, grouped by head
    /// router and sorted by tail within each group.
    te_routes: Vec<(RouterId, TeRoute)>,
    /// FIB slot of each router's loopback inside its own AS table
    /// (`u32::MAX` = none). The packet walk only ever longest-prefix
    /// matches addresses inside the AS that owns them, so these tables
    /// pay every trie walk once at build time.
    loopback_slot: Vec<u32>,
    /// Router → base index into [`Self::iface_slot`]; length
    /// `num_routers + 1`.
    iface_slot_base: Vec<u32>,
    /// FIB slot of each interface address inside its owner's own AS
    /// table (`u32::MAX` = none), in router-then-interface order.
    iface_slot: Vec<u32>,
    /// Dense AS index of each router's own AS (`u32::MAX` = the AS is
    /// unregistered, which `NetworkBuilder` never produces).
    router_as_idx: Vec<u32>,
    /// Level-1 page table of the dense address→owner index:
    /// `addr >> 12` → base of a [`OWNER_PAGE_SIZE`]-entry page in
    /// [`Self::owner_pool`] (`u32::MAX` = no address in that /20).
    /// Addresses come from the builder's contiguous pools, so the
    /// handful of live pages replace the per-leg owner hash with two
    /// dependent array loads.
    owner_page: Vec<u32>,
    /// Concatenated owner pages: `owner router id + 1`, `0` = unowned.
    owner_pool: Vec<u32>,
    /// Per-router configuration byte (see [`walk`]).
    walk_flags: Vec<u8>,
    /// Per-router vendor initial TTL for time-exceeded replies.
    walk_te_ttl: Vec<u8>,
    /// Per-router vendor initial TTL for echo replies.
    walk_er_ttl: Vec<u8>,
    /// Per-router loopback address.
    walk_loopback: Vec<Addr>,
    /// Flat interface records in router-then-interface order, indexed
    /// through [`Self::iface_slot_base`] (same CSR as `iface_slot`).
    walk_iface: Vec<WalkIface>,
}

/// Phase-1 output for one AS: its IGP view and prefix table.
fn compute_as(net: &Network, asn: Asn) -> Result<(AsIgp, AsPrefixes), NetError> {
    let view = AsIgp::compute(net, asn);
    if let Some(unreachable) = view.find_unreachable() {
        return Err(NetError::DisconnectedAs { asn, unreachable });
    }
    let prefixes = AsPrefixes::build(net, asn);
    Ok((view, prefixes))
}

/// A per-router intra-AS FIB in CSR layout: router `r` owns the spans
/// `base[r]..base[r + 1]` of [`FibTables::spans`], one per prefix slot
/// of its own AS table, and each `(start, len)` span indexes the
/// concatenated ECMP next-hop sets in [`FibTables::pool`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FibTables {
    /// Router → base index into `spans`; length `num_routers + 1`.
    pub base: Vec<u32>,
    /// `(start, len)` into `pool` per `(router, slot)`.
    pub spans: Vec<(u32, u32)>,
    /// Concatenated ECMP next-hop sets `(iface index, next router)`.
    pub pool: Vec<(u32, RouterId)>,
}

impl FibTables {
    /// Number of slot spans `router` owns.
    #[inline]
    pub fn slots(&self, router: RouterId) -> usize {
        (self.base[router.index() + 1] - self.base[router.index()]) as usize
    }

    /// The next-hop set of `router` for `slot`; empty for connected,
    /// unreachable and out-of-table slots.
    #[inline]
    pub fn hops(&self, router: RouterId, slot: u32) -> &[(u32, RouterId)] {
        if slot as usize >= self.slots(router) {
            return &[];
        }
        let (start, len) = self.spans[self.base[router.index()] as usize + slot as usize];
        &self.pool[start as usize..(start + len) as usize]
    }
}

/// The *logical* intra-AS FIB: for every router, the per-slot ECMP
/// next-hop set towards the nearest owner of each internal prefix of
/// its own AS (empty for connected or unreachable prefixes), sorted by
/// `(next router, iface)`. [`ControlPlane::build`] stores the result as
/// its FIB; the `wormhole-lint` D5xx verifier re-derives it to
/// cross-check the stored tables, so build and verifier stay in
/// lockstep by construction.
///
/// Every owner is mapped to its IGP local index once per AS, so the
/// per-`(router, slot)` loop reads distance rows and first-hop spans
/// directly and writes each hop set straight into the pool: no hashing
/// and no allocation per cell.
pub fn logical_fib(net: &Network, igp: &[AsIgp], as_prefixes: &[AsPrefixes]) -> FibTables {
    const NONE: u32 = u32::MAX;
    let n = net.num_routers();
    // Router → (AS index, local index in that AS's IGP view).
    let mut home = vec![(NONE, NONE); n];
    // Per AS: slot → its owners' local indices, as a CSR.
    let mut owners: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(as_prefixes.len());
    for (as_idx, ap) in as_prefixes.iter().enumerate() {
        let view = &igp[as_idx];
        let local = |r: RouterId| view.local_index(r).map_or(NONE, |l| l as u32);
        for &rid in net.as_members(ap.asn) {
            home[rid.index()] = (as_idx as u32, local(rid));
        }
        let mut base = Vec::with_capacity(ap.len() + 1);
        let mut locals = Vec::new();
        base.push(0u32);
        for slot in 0..ap.len() as u32 {
            locals.extend(ap.owners(slot).iter().map(|&o| local(o)));
            base.push(locals.len() as u32);
        }
        owners.push((base, locals));
    }
    let mut fib = FibTables {
        base: Vec::with_capacity(n + 1),
        ..FibTables::default()
    };
    for &(as_idx, ls) in &home {
        fib.base.push(fib.spans.len() as u32);
        if as_idx == NONE {
            continue;
        }
        let view = &igp[as_idx as usize];
        let (obase, olocals) = &owners[as_idx as usize];
        let row = (ls != NONE).then(|| &view.dist[ls as usize]);
        for slot in 0..as_prefixes[as_idx as usize].len() {
            let start = fib.pool.len();
            let slot_owners = &olocals[obase[slot] as usize..obase[slot + 1] as usize];
            // Connected routes (the router owns the prefix) and routers
            // outside the IGP view keep an empty span.
            if let Some(row) = row.filter(|_| !slot_owners.contains(&ls)) {
                let dist = |o: u32| if o == NONE { INF } else { row[o as usize] };
                let best = slot_owners.iter().map(|&o| dist(o)).min().unwrap_or(INF);
                if best < INF {
                    for &o in slot_owners {
                        if dist(o) != best {
                            continue;
                        }
                        for &h in view.first_hops_local(ls as usize, o as usize) {
                            if !fib.pool[start..].contains(&h) {
                                fib.pool.push(h);
                            }
                        }
                    }
                    fib.pool[start..].sort_unstable_by_key(|&(i, r)| (r, i));
                }
            }
            fib.spans
                .push((start as u32, (fib.pool.len() - start) as u32));
        }
    }
    fib.base.push(fib.spans.len() as u32);
    fib
}

/// The label operation a router applies on a branch towards `next` for
/// FEC `slot`, following `next`'s LDP advertisement: swap to its real
/// label, pop on implicit null or a missing binding (Cisco "untagged"),
/// swap-to-explicit-null on UHP.
#[inline]
pub fn ldp_label_action(bindings: &LdpBindings, next: RouterId, slot: u32) -> LabelAction {
    match bindings.advertised(next, slot) {
        Some(LabelValue::Real(out_label)) => LabelAction::Swap(out_label),
        Some(LabelValue::ImplicitNull) => LabelAction::Pop,
        Some(LabelValue::ExplicitNull) => LabelAction::SwapExplicitNull,
        // Downstream has no binding: "untagged".
        None => LabelAction::Pop,
    }
}

/// The LFIB branches a router installs for FEC `slot` given its ECMP
/// next-hop set `hops`, each with its [`ldp_label_action`]. Used by
/// [`ControlPlane::build`]; the D5xx verifier compares installed
/// branches against [`ldp_label_action`] in place.
pub fn ldp_lfib_hops(bindings: &LdpBindings, slot: u32, hops: &[(u32, RouterId)]) -> Vec<LfibHop> {
    hops.iter()
        .map(|&(iface, next)| LfibHop {
            iface,
            next,
            action: ldp_label_action(bindings, next, slot),
        })
        .collect()
}

/// The label program of every RSVP-TE tunnel: the transit LFIB entries
/// to install (in tunnel-then-path order) and the per-`(head, tail)`
/// autoroute decisions sorted by `(head, tail)` (a later tunnel on the
/// same pair wins, as in [`ControlPlane::build`]). Fails when a tunnel
/// path is invalid or lacks a physical adjacency.
#[allow(clippy::type_complexity)] // the two halves of the TE program
pub fn te_program(
    net: &Network,
) -> Result<
    (
        Vec<(RouterId, Label, LfibEntry)>,
        Vec<((RouterId, RouterId), TeRoute)>,
    ),
    NetError,
> {
    let mut transit = Vec::new();
    let mut te_autoroute = HashMap::new();
    for t in net.te_tunnels() {
        t.validate(net)
            .map_err(|reason| NetError::InvalidTeTunnel { reason })?;
        for i in 1..t.path.len().saturating_sub(1) {
            let cur = t.path[i];
            let next = t.path[i + 1];
            let iface = net
                .router(cur)
                .iface_to(next)
                .ok_or(NetError::MissingAdjacency {
                    from: cur,
                    to: next,
                })? as u32;
            let action = if i + 1 == t.path.len() - 1 {
                match t.popping {
                    PoppingMode::Php => LabelAction::Pop,
                    PoppingMode::Uhp => LabelAction::SwapExplicitNull,
                }
            } else {
                LabelAction::Swap(t.label_into(i + 1))
            };
            transit.push((
                cur,
                t.label_into(i),
                LfibEntry {
                    slot: u32::MAX, // TE entries carry no LDP FEC
                    nexthops: vec![LfibHop {
                        iface,
                        next,
                        action,
                    }],
                },
            ));
        }
        let first = t.path[1];
        let head = t.head();
        let iface = net
            .router(head)
            .iface_to(first)
            .ok_or(NetError::MissingAdjacency {
                from: head,
                to: first,
            })? as u32;
        let push = if t.path.len() == 2 {
            match t.popping {
                PoppingMode::Php => None, // one-hop LSP degenerates
                PoppingMode::Uhp => Some(Label::EXPLICIT_NULL),
            }
        } else {
            Some(t.label_into(1))
        };
        te_autoroute.insert((t.head(), t.tail()), (iface, first, push));
    }
    let mut te_list: Vec<((RouterId, RouterId), TeRoute)> = te_autoroute.into_iter().collect();
    te_list.sort_by_key(|&((h, t), _)| (h, t));
    Ok((transit, te_list))
}

impl ControlPlane {
    /// Computes the full control plane, using every available core for
    /// the per-AS phase. Fails when an AS is internally disconnected or
    /// an inter-AS link lacks a declared relationship.
    pub fn build(net: &Network) -> Result<ControlPlane, NetError> {
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ControlPlane::build_with_jobs(net, jobs)
    }

    /// Computes the full control plane with at most `jobs` worker
    /// threads for the per-AS IGP/prefix phase (one Dijkstra per AS
    /// member — the dominant build cost at scale). The result is
    /// byte-identical at any job count: workers fill disjoint AS-index
    /// slots and the merge walks them in AS order, so the first error
    /// by AS index wins deterministically.
    pub fn build_with_jobs(net: &Network, jobs: usize) -> Result<ControlPlane, NetError> {
        let bgp = Bgp::compute(net)?;
        ControlPlane::assemble(net, jobs, bgp, None)
    }

    /// The substrate-cache payload: the two build phases whose cost
    /// dominates at scale (valley-free BGP and the hot-potato external
    /// route table), encoded with [`crate::wire`]. Everything else in
    /// the plane is cheap to recompute from the network, so
    /// [`ControlPlane::from_cache_payload`] rebuilds it instead of
    /// trusting more serialized state than necessary.
    pub fn cache_payload(&self) -> Vec<u8> {
        use crate::wire::Wire as _;
        let mut out = Vec::new();
        self.bgp.put(&mut out);
        self.ext.put(&mut out);
        out
    }

    /// Rebuilds the control plane from a [`ControlPlane::cache_payload`]
    /// over the *same* network. The cached BGP table and external-route
    /// table skip the expensive phases; every other table is assembled
    /// from `net` exactly as [`ControlPlane::build_with_jobs`] would, so
    /// the result is byte-identical to a cold build. A payload whose
    /// external-route table does not match the network's dimensions is
    /// rejected as corrupt (the caller's config checksum should have
    /// caught the mismatch earlier).
    pub fn from_cache_payload(
        net: &Network,
        jobs: usize,
        payload: &[u8],
    ) -> Result<ControlPlane, CachePayloadError> {
        use crate::wire::{Reader, Wire as _, WireError};
        let mut r = Reader::new(payload);
        let bgp = Bgp::take(&mut r).map_err(CachePayloadError::Decode)?;
        let ext: Vec<ExtRoute> = Vec::take(&mut r).map_err(CachePayloadError::Decode)?;
        if !r.is_empty() {
            return Err(CachePayloadError::Decode(WireError::Corrupt(
                "trailing bytes",
            )));
        }
        let n_as = net.as_list().len();
        if ext.len() != n_as * net.num_routers() || bgp.next_as.len() != n_as {
            return Err(CachePayloadError::Decode(WireError::Corrupt(
                "cached table dimensions do not match the network",
            )));
        }
        ControlPlane::assemble(net, jobs, bgp, Some(ext)).map_err(CachePayloadError::Assemble)
    }

    /// The shared tail of [`ControlPlane::build_with_jobs`] and
    /// [`ControlPlane::from_cache_payload`]: everything after BGP.
    /// `cached_ext` skips the hot-potato external-route loop (the
    /// dominant single phase at thousandfold scale) when a cache
    /// supplied the table.
    fn assemble(
        net: &Network,
        jobs: usize,
        bgp: Bgp,
        cached_ext: Option<Vec<ExtRoute>>,
    ) -> Result<ControlPlane, NetError> {
        let as_list = net.as_list();
        let n_as = as_list.len();
        let jobs = jobs.max(1).min(n_as.max(1));

        let mut slots: Vec<Option<Result<(AsIgp, AsPrefixes), NetError>>> = Vec::new();
        slots.resize_with(n_as, || None);
        if jobs <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(compute_as(net, as_list[i]));
            }
        } else {
            let chunk = n_as.div_ceil(jobs);
            std::thread::scope(|scope| {
                for (ci, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                    let base = ci * chunk;
                    scope.spawn(move || {
                        for (j, slot) in chunk_slots.iter_mut().enumerate() {
                            *slot = Some(compute_as(net, as_list[base + j]));
                        }
                    });
                }
            });
        }
        let mut as_prefixes = Vec::with_capacity(n_as);
        let mut igp = Vec::with_capacity(n_as);
        for slot in slots.into_iter().flatten() {
            let (view, prefixes) = slot?;
            igp.push(view);
            as_prefixes.push(prefixes);
        }
        let bindings = LdpBindings::compute(net, &as_prefixes);

        // Intra-AS FIBs, emitted directly in their stored CSR form.
        let fib = logical_fib(net, &igp, &as_prefixes);

        // External routes with hot-potato egress selection (or the
        // cached table, which this loop produced on a previous build).
        let compute_ext = cached_ext.is_none();
        let mut ext =
            cached_ext.unwrap_or_else(|| vec![ExtRoute::Unreachable; n_as * net.num_routers()]);
        // Per source AS: its borders' inter-AS interfaces as
        // `(border, iface, peer AS index, border local index)`, resolved
        // once instead of per destination AS.
        let mut links: Vec<(RouterId, u32, usize, usize)> = Vec::new();
        // Per destination: the `(border, iface, border local index)`
        // candidates reaching a best next AS.
        let mut candidates: Vec<(RouterId, u32, usize)> = Vec::new();
        for (src_as, &asn) in as_list.iter().enumerate() {
            if !compute_ext {
                break;
            }
            let view = &igp[src_as];
            let members = net.as_members(asn);
            links.clear();
            for (lb, &b) in members.iter().enumerate() {
                for (idx, iface) in net.router(b).ifaces.iter().enumerate() {
                    if !net.link(iface.link).inter_as {
                        continue;
                    }
                    let peer_as = net.router(iface.peer).asn;
                    let peer_idx = net
                        .as_index(peer_as)
                        .ok_or(NetError::UnregisteredAs { asn: peer_as })?;
                    links.push((b, idx as u32, peer_idx, lb));
                }
            }
            #[allow(clippy::needless_range_loop)] // dst_as indexes two tables
            for dst_as in 0..n_as {
                if dst_as == src_as {
                    continue;
                }
                let best_next = bgp.next_hops(dst_as, src_as);
                if best_next.is_empty() {
                    continue;
                }
                // `links` is in (border, iface) order, so the
                // candidates are too.
                candidates.clear();
                candidates.extend(
                    links
                        .iter()
                        .filter(|l| best_next.contains(&l.2))
                        .map(|&(b, iface, _, lb)| (b, iface, lb)),
                );
                if candidates.is_empty() {
                    continue; // relationship without a physical link
                }
                for (lr, &rid) in members.iter().enumerate() {
                    if let Some(&(_, iface, _)) = candidates.iter().find(|c| c.0 == rid) {
                        ext[rid.index() * n_as + dst_as] = ExtRoute::Direct { iface };
                        continue;
                    }
                    // Nearest candidate border (hot potato).
                    let choice = candidates
                        .iter()
                        .map(|&(b, _, lb)| (view.distance_local(lr, lb), b))
                        .min();
                    if let Some((d, egress)) = choice {
                        if d < crate::igp::INF {
                            ext[rid.index() * n_as + dst_as] = ExtRoute::ViaEgress { egress };
                        }
                    }
                }
            }
        }

        // LFIBs: one entry per real incoming label.
        let mut lfib: Vec<RouterLfib> = vec![RouterLfib::default(); net.num_routers()];
        for ap in as_prefixes.iter() {
            for &rid in net.as_members(ap.asn) {
                for (slot, value) in bindings.advertisements(rid) {
                    let LabelValue::Real(in_label) = value else {
                        continue;
                    };
                    let hops = ldp_lfib_hops(&bindings, slot, fib.hops(rid, slot));
                    if !hops.is_empty() {
                        lfib[rid.index()].insert(
                            in_label,
                            LfibEntry {
                                slot,
                                nexthops: hops,
                            },
                        );
                    }
                }
            }
        }

        // RSVP-TE tunnels: validate paths, install the label chain at
        // every transit LSR, and flatten the heads' autoroute decisions
        // into a CSR table grouped by head.
        let (te_transit, te_list) = te_program(net)?;
        for (cur, in_label, entry) in te_transit {
            lfib[cur.index()].insert(in_label, entry);
        }
        let mut te_heads = Vec::with_capacity(net.num_routers() + 1);
        let mut te_routes = Vec::with_capacity(te_list.len());
        let mut cursor = 0usize;
        for r in 0..net.num_routers() {
            te_heads.push(te_routes.len() as u32);
            while cursor < te_list.len() && te_list[cursor].0 .0.index() == r {
                let ((_, tail), route) = te_list[cursor];
                te_routes.push((tail, route));
                cursor += 1;
            }
        }
        te_heads.push(te_routes.len() as u32);

        // Dense destination-resolution tables: the forwarding decision
        // only ever LPMs an address inside the AS that owns it (the
        // destination's own table, or the egress border's loopback in
        // the border's own table), so every slot the walk can ask for
        // is resolved here, once, instead of per packet leg.
        let mut loopback_slot = vec![u32::MAX; net.num_routers()];
        let mut router_as_idx = vec![u32::MAX; net.num_routers()];
        let mut iface_slot_base = Vec::with_capacity(net.num_routers() + 1);
        let mut iface_slot = Vec::new();
        iface_slot_base.push(0u32);
        for (i, r) in net.routers().iter().enumerate() {
            match net.as_index(r.asn) {
                Some(idx) => {
                    let ap = &as_prefixes[idx];
                    router_as_idx[i] = idx as u32;
                    if let Some(s) = ap.lookup(r.loopback) {
                        loopback_slot[i] = s;
                    }
                    for ifc in &r.ifaces {
                        iface_slot.push(ap.lookup(ifc.addr).unwrap_or(u32::MAX));
                    }
                }
                None => iface_slot.resize(iface_slot.len() + r.ifaces.len(), u32::MAX),
            }
            iface_slot_base.push(iface_slot.len() as u32);
        }

        // Dense address→owner index. Walking the routers (not the owner
        // hash) keeps page allocation order — and thus the table bytes —
        // deterministic across builds and job counts.
        let mut owner_page = vec![u32::MAX; 1 << 20];
        let mut owner_pool: Vec<u32> = Vec::new();
        {
            let mut index = |addr: Addr, rid: RouterId| {
                let hi = (addr.0 >> 12) as usize;
                if owner_page[hi] == u32::MAX {
                    owner_page[hi] = owner_pool.len() as u32;
                    owner_pool.resize(owner_pool.len() + OWNER_PAGE_SIZE, 0);
                }
                let base = owner_page[hi] as usize;
                owner_pool[base + (addr.0 & 0xFFF) as usize] = rid.0 + 1;
            };
            for r in net.routers() {
                index(r.loopback, r.id);
                for ifc in &r.ifaces {
                    index(ifc.addr, r.id);
                }
            }
        }

        // Flat walk tables: the per-router configuration byte, vendor
        // TTL signatures, loopbacks and interface records the engine's
        // hot loop reads — one cache-friendly row per router instead of
        // the pointer-heavy `Router` struct.
        let n = net.num_routers();
        let mut walk_flags = Vec::with_capacity(n);
        let mut walk_te_ttl = Vec::with_capacity(n);
        let mut walk_er_ttl = Vec::with_capacity(n);
        let mut walk_loopback = Vec::with_capacity(n);
        let mut walk_iface = Vec::with_capacity(iface_slot.len());
        for r in net.routers() {
            let c = &r.config;
            let mut f = 0u8;
            if c.mpls {
                f |= walk::MPLS;
            }
            if c.ttl_propagate {
                f |= walk::TTL_PROPAGATE;
            }
            if c.rfc4950 {
                f |= walk::RFC4950;
            }
            if c.min_on_exit {
                f |= walk::MIN_ON_EXIT;
            }
            if c.replies {
                f |= walk::REPLIES;
            }
            if c.is_host {
                f |= walk::IS_HOST;
            }
            walk_flags.push(f);
            walk_te_ttl.push(c.vendor.te_init_ttl());
            walk_er_ttl.push(c.vendor.er_init_ttl());
            walk_loopback.push(r.loopback);
            for ifc in &r.ifaces {
                walk_iface.push(WalkIface {
                    addr: ifc.addr,
                    peer_addr: ifc.peer_addr,
                    peer: ifc.peer,
                    link: ifc.link,
                    delay_ms: net.link(ifc.link).delay_ms,
                });
            }
        }

        Ok(ControlPlane {
            as_prefixes,
            igp,
            bgp,
            bindings,
            fib,
            ext,
            ext_stride: n_as,
            lfib,
            te_heads,
            te_routes,
            loopback_slot,
            iface_slot_base,
            iface_slot,
            router_as_idx,
            owner_page,
            owner_pool,
            walk_flags,
            walk_te_ttl,
            walk_er_ttl,
            walk_loopback,
            walk_iface,
        })
    }

    /// The router owning `addr`, through the dense owner index — two
    /// dependent array loads, the replacement for the per-leg owner
    /// hash. Agrees with [`Network::owner`] by construction (the D512
    /// dense-plane rule cross-checks it against the routers).
    #[inline]
    pub fn owner_of(&self, addr: Addr) -> Option<RouterId> {
        let page = self.owner_page[(addr.0 >> 12) as usize];
        if page == u32::MAX {
            return None;
        }
        let v = self.owner_pool[page as usize + (addr.0 & 0xFFF) as usize];
        if v == 0 {
            None
        } else {
            Some(RouterId(v - 1))
        }
    }

    /// The walk-table configuration byte of `router` (see [`walk`]).
    #[inline]
    pub fn router_flags(&self, router: RouterId) -> u8 {
        self.walk_flags[router.index()]
    }

    /// The vendor initial TTL `router` stamps on time-exceeded (and
    /// unreachable) replies.
    #[inline]
    pub fn te_init_ttl(&self, router: RouterId) -> u8 {
        self.walk_te_ttl[router.index()]
    }

    /// The vendor initial TTL `router` stamps on echo replies.
    #[inline]
    pub fn er_init_ttl(&self, router: RouterId) -> u8 {
        self.walk_er_ttl[router.index()]
    }

    /// The loopback address of `router`, from the flat walk table.
    #[inline]
    pub fn loopback_addr(&self, router: RouterId) -> Addr {
        self.walk_loopback[router.index()]
    }

    /// The flat interface records of `router`, in interface order.
    #[inline]
    pub fn walk_ifaces(&self, router: RouterId) -> &[WalkIface] {
        let lo = self.iface_slot_base[router.index()] as usize;
        let hi = self.iface_slot_base[router.index() + 1] as usize;
        &self.walk_iface[lo..hi]
    }

    /// The dense AS index of `router`'s own AS, raw (`u32::MAX` = the
    /// AS is unregistered) — the branch-free form the hot loop compares
    /// against a destination's cached AS index.
    #[inline]
    pub(crate) fn router_as_raw(&self, router: RouterId) -> u32 {
        self.router_as_idx[router.index()]
    }

    /// The FIB slot of `router`'s loopback inside its own AS table.
    #[inline]
    pub fn loopback_slot(&self, router: RouterId) -> Option<u32> {
        let s = self.loopback_slot[router.index()];
        (s != u32::MAX).then_some(s)
    }

    /// The FIB slot of `router`'s interface `iface`'s address inside
    /// its own AS table.
    #[inline]
    pub fn iface_slot(&self, router: RouterId, iface: usize) -> Option<u32> {
        let base = self.iface_slot_base[router.index()] as usize;
        let s = self.iface_slot[base + iface];
        (s != u32::MAX).then_some(s)
    }

    /// The dense AS index of `router`'s own AS.
    #[inline]
    pub fn router_as_index(&self, router: RouterId) -> Option<usize> {
        let i = self.router_as_idx[router.index()];
        (i != u32::MAX).then_some(i as usize)
    }

    /// The intra-AS ECMP next-hop set of `router` for prefix `slot`, as
    /// `(iface index, next router)` pairs. `None` when the router owns
    /// the prefix or it is unreachable.
    #[inline]
    pub fn fib_entry(&self, router: RouterId, slot: u32) -> Option<&[(u32, RouterId)]> {
        let hops = self.fib.hops(router, slot);
        (!hops.is_empty()).then_some(hops)
    }

    /// The external route of `router` towards the AS with dense index
    /// `dst_as`.
    #[inline]
    pub fn ext_route(&self, router: RouterId, dst_as: usize) -> ExtRoute {
        self.ext[router.index() * self.ext_stride + dst_as]
    }

    /// The LFIB entry of `router` for incoming `label`.
    #[inline]
    pub fn lfib_entry(&self, router: RouterId, label: Label) -> Option<&LfibEntry> {
        self.lfib[router.index()].get(label)
    }

    /// Number of LFIB entries installed at `router`.
    pub fn lfib_size(&self, router: RouterId) -> usize {
        self.lfib[router.index()].len
    }

    /// Iterates over every LFIB entry installed at `router`, as
    /// `(incoming label, entry)` pairs (arbitrary order).
    pub fn lfib_entries(&self, router: RouterId) -> impl Iterator<Item = (Label, &LfibEntry)> + '_ {
        self.lfib[router.index()].iter()
    }

    /// Installs (or overwrites) an LFIB entry at `router` — a what-if
    /// mutator for fault-injection studies and for exercising the
    /// static checks: `build` only ever produces consistent LFIBs, so
    /// dangling label-swaps can only be created deliberately.
    pub fn inject_lfib_entry(&mut self, router: RouterId, label: Label, entry: LfibEntry) {
        self.lfib[router.index()].insert(label, entry);
    }

    /// The TE autoroute decision at `head` for traffic towards `tail`
    /// (its BGP next hop or its own addresses):
    /// `(out iface, first hop, label to push)`.
    #[inline]
    pub fn te_route(
        &self,
        head: RouterId,
        tail: RouterId,
    ) -> Option<(u32, RouterId, Option<Label>)> {
        let lo = self.te_heads[head.index()] as usize;
        let hi = self.te_heads[head.index() + 1] as usize;
        let span = &self.te_routes[lo..hi];
        if span.is_empty() {
            return None;
        }
        span.binary_search_by_key(&tail, |&(t, _)| t)
            .ok()
            .map(|i| span[i].1)
    }

    /// Borrows every flat destination/forwarding table at once, for the
    /// D5xx dense-plane verifier. The packet walk never goes through
    /// this view — it exists so an external checker can audit CSR
    /// well-formedness without the tables becoming public fields.
    pub fn dense_view(&self) -> DenseView<'_> {
        DenseView {
            fib_base: &self.fib.base,
            fib_spans: &self.fib.spans,
            fib_pool: &self.fib.pool,
            te_heads: &self.te_heads,
            te_routes: &self.te_routes,
            loopback_slot: &self.loopback_slot,
            iface_slot_base: &self.iface_slot_base,
            iface_slot: &self.iface_slot,
            router_as_idx: &self.router_as_idx,
            owner_page: &self.owner_page,
            owner_pool: &self.owner_pool,
        }
    }

    /// Borrows the raw window/overflow representation of `router`'s
    /// LFIB, for the D5xx dense-plane verifier.
    pub fn lfib_raw(&self, router: RouterId) -> LfibRaw<'_> {
        let t = &self.lfib[router.index()];
        LfibRaw {
            lo: t.lo,
            window: &t.window,
            overflow: &t.overflow,
            len: t.len,
        }
    }
}

/// A read-only borrow of every flat table inside a [`ControlPlane`],
/// exposed for invariant verification (see [`ControlPlane::dense_view`]).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DenseView<'a> {
    /// Router → base index into `fib_spans`; length `num_routers + 1`.
    pub fib_base: &'a [u32],
    /// `(start, len)` into `fib_pool` per `(router, slot)`.
    pub fib_spans: &'a [(u32, u32)],
    /// Concatenated ECMP next-hop sets `(iface index, next router)`.
    pub fib_pool: &'a [(u32, RouterId)],
    /// Router → span of `te_routes` headed there; length
    /// `num_routers + 1`.
    pub te_heads: &'a [u32],
    /// `(tail, route)` grouped by head, sorted by tail within a group.
    pub te_routes: &'a [(RouterId, TeRoute)],
    /// FIB slot of each router's loopback (`u32::MAX` = none).
    pub loopback_slot: &'a [u32],
    /// Router → base index into `iface_slot`; length `num_routers + 1`.
    pub iface_slot_base: &'a [u32],
    /// FIB slot of each interface address (`u32::MAX` = none).
    pub iface_slot: &'a [u32],
    /// Dense AS index of each router's own AS (`u32::MAX` = none).
    pub router_as_idx: &'a [u32],
    /// Level-1 page table of the dense owner index (`u32::MAX` = no
    /// page for that /20).
    pub owner_page: &'a [u32],
    /// Concatenated owner pages (`owner id + 1`, `0` = unowned).
    pub owner_pool: &'a [u32],
}

/// A read-only borrow of one router's raw LFIB representation (see
/// [`ControlPlane::lfib_raw`]).
#[derive(Copy, Clone, Debug)]
pub struct LfibRaw<'a> {
    /// Label value of `window[0]`.
    pub lo: u32,
    /// `window[label - lo]`, `None` for gaps.
    pub window: &'a [Option<LfibEntry>],
    /// Entries outside the window, sorted by label value.
    pub overflow: &'a [(u32, LfibEntry)],
    /// Claimed number of installed entries.
    pub len: usize,
}

/// Test-only mutation hooks (`mutation` cargo feature): `&mut` access
/// to the private dense tables so the lint crate's mutation self-test
/// can seed one corruption per D5xx rule. Nothing in the simulator
/// calls these.
#[cfg(feature = "mutation")]
impl ControlPlane {
    /// Mutable `te_heads` CSR offsets.
    pub fn te_heads_mut(&mut self) -> &mut Vec<u32> {
        &mut self.te_heads
    }

    /// Mutable `te_routes` pool.
    pub fn te_routes_mut(&mut self) -> &mut Vec<(RouterId, TeRoute)> {
        &mut self.te_routes
    }

    /// Mutable `fib_base` CSR offsets.
    pub fn fib_base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.fib.base
    }

    /// Mutable `fib_spans` table.
    pub fn fib_spans_mut(&mut self) -> &mut Vec<(u32, u32)> {
        &mut self.fib.spans
    }

    /// Mutable `fib_pool`.
    pub fn fib_pool_mut(&mut self) -> &mut Vec<(u32, RouterId)> {
        &mut self.fib.pool
    }

    /// Mutable per-router loopback slot table.
    pub fn loopback_slot_mut(&mut self) -> &mut Vec<u32> {
        &mut self.loopback_slot
    }

    /// Mutable interface slot table.
    pub fn iface_slot_mut(&mut self) -> &mut Vec<u32> {
        &mut self.iface_slot
    }

    /// Mutable interface slot CSR offsets.
    pub fn iface_slot_base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.iface_slot_base
    }

    /// Mutable router → AS index table.
    pub fn router_as_idx_mut(&mut self) -> &mut Vec<u32> {
        &mut self.router_as_idx
    }

    /// Mutable LFIB overflow list of `router`.
    pub fn lfib_overflow_mut(&mut self, router: RouterId) -> &mut Vec<(u32, LfibEntry)> {
        &mut self.lfib[router.index()].overflow
    }

    /// Mutable LFIB window of `router`.
    pub fn lfib_window_mut(&mut self, router: RouterId) -> &mut Vec<Option<LfibEntry>> {
        &mut self.lfib[router.index()].window
    }

    /// Rebinds `addr` to `owner` in the dense owner index without
    /// touching the routers that actually hold the address (test-only
    /// mutation hook for the D512 owner-index invariant check).
    pub fn poison_owner_index(&mut self, addr: Addr, owner: RouterId) {
        let hi = (addr.0 >> 12) as usize;
        if self.owner_page[hi] == u32::MAX {
            self.owner_page[hi] = self.owner_pool.len() as u32;
            self.owner_pool
                .resize(self.owner_pool.len() + OWNER_PAGE_SIZE, 0);
        }
        let base = self.owner_page[hi] as usize;
        self.owner_pool[base + (addr.0 & 0xFFF) as usize] = owner.0 + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Asn;
    use crate::net::{LinkOpts, NetworkBuilder, RelKind};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    /// AS1(h) -- AS2: a - b - c (MPLS line) -- AS3(t).
    fn line_net() -> (Network, [RouterId; 5]) {
        let mut bld = NetworkBuilder::new();
        let h = bld.add_router("h", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let a = bld.add_router("a", Asn(2), RouterConfig::mpls_router(Vendor::CiscoIos));
        let b = bld.add_router("b", Asn(2), RouterConfig::mpls_router(Vendor::CiscoIos));
        let c = bld.add_router("c", Asn(2), RouterConfig::mpls_router(Vendor::CiscoIos));
        let t = bld.add_router("t", Asn(3), RouterConfig::ip_router(Vendor::CiscoIos));
        bld.link(h, a, LinkOpts::default());
        bld.link(a, b, LinkOpts::default());
        bld.link(b, c, LinkOpts::default());
        bld.link(c, t, LinkOpts::default());
        bld.as_rel(Asn(2), Asn(1), RelKind::ProviderCustomer);
        bld.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        (bld.build().unwrap(), [h, a, b, c, t])
    }

    #[test]
    fn fib_points_to_nearest_owner() {
        let (net, [_, a, b, c, _]) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let ap = &cp.as_prefixes[as2];
        let slot = ap.lookup(net.router(c).loopback).unwrap();
        let e = cp.fib_entry(a, slot).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].1, b);
        // Owner has no FIB entry (connected).
        assert!(cp.fib_entry(c, slot).is_none());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (net, [_, a, _, c, _]) = line_net();
        let serial = ControlPlane::build_with_jobs(&net, 1).unwrap();
        let par = ControlPlane::build_with_jobs(&net, 4).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let slot = serial.as_prefixes[as2]
            .lookup(net.router(c).loopback)
            .unwrap();
        assert_eq!(serial.fib_entry(a, slot), par.fib_entry(a, slot));
        for r in 0..net.num_routers() as u32 {
            let rid = RouterId(r);
            assert_eq!(serial.lfib_size(rid), par.lfib_size(rid));
        }
        assert_eq!(serial.igp.len(), par.igp.len());
        for (s, p) in serial.igp.iter().zip(par.igp.iter()) {
            assert_eq!(s.asn, p.asn);
            assert_eq!(s.dist, p.dist);
        }
    }

    #[test]
    fn cache_payload_round_trips() {
        let (net, [_, a, _, c, _]) = line_net();
        let cold = ControlPlane::build(&net).unwrap();
        let payload = cold.cache_payload();
        let warm = ControlPlane::from_cache_payload(&net, 1, &payload).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let slot = cold.as_prefixes[as2]
            .lookup(net.router(c).loopback)
            .unwrap();
        assert_eq!(cold.fib_entry(a, slot), warm.fib_entry(a, slot));
        for r in 0..net.num_routers() as u32 {
            let rid = RouterId(r);
            assert_eq!(cold.lfib_size(rid), warm.lfib_size(rid));
            for dst_as in 0..net.as_list().len() {
                assert_eq!(cold.ext_route(rid, dst_as), warm.ext_route(rid, dst_as));
            }
        }
        // A second encode of the warm plane is byte-identical.
        assert_eq!(payload, warm.cache_payload());
    }

    #[test]
    fn cache_payload_rejects_corruption() {
        let (net, _) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let payload = cp.cache_payload();
        // Truncation is caught by the decoder.
        let err = ControlPlane::from_cache_payload(&net, 1, &payload[..payload.len() - 3]);
        assert!(matches!(err, Err(CachePayloadError::Decode(_))));
        // A payload built for a different network fails the dimension check.
        let mut bld = NetworkBuilder::new();
        let x = bld.add_router("x", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let y = bld.add_router("y", Asn(2), RouterConfig::ip_router(Vendor::CiscoIos));
        bld.link(x, y, LinkOpts::default());
        bld.as_rel(Asn(1), Asn(2), RelKind::Peer);
        let other = bld.build().unwrap();
        let err = ControlPlane::from_cache_payload(&other, 1, &payload);
        assert!(matches!(err, Err(CachePayloadError::Decode(_))));
    }

    #[test]
    fn ext_routes_direct_and_via_egress() {
        let (net, [h, a, b, c, t]) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let as3 = net.as_index(Asn(3)).unwrap();
        // c is the egress border towards AS3.
        assert!(matches!(cp.ext_route(c, as3), ExtRoute::Direct { .. }));
        assert_eq!(cp.ext_route(a, as3), ExtRoute::ViaEgress { egress: c });
        assert_eq!(cp.ext_route(b, as3), ExtRoute::ViaEgress { egress: c });
        // AS1's router reaches AS3 through its provider.
        let as1_h = cp.ext_route(h, as3);
        assert!(matches!(as1_h, ExtRoute::Direct { .. }));
        // And t's route back to AS1.
        let as1 = net.as_index(Asn(1)).unwrap();
        assert!(matches!(cp.ext_route(t, as1), ExtRoute::Direct { .. }));
    }

    #[test]
    fn lfib_swap_then_pop() {
        let (net, [_, a, b, c, _]) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let ap = &cp.as_prefixes[as2];
        let slot = ap.lookup(net.router(c).loopback).unwrap();
        // a pushes b's label; b's LFIB entry for it pops (c advertised
        // implicit null for its own loopback): a 2-hop LSP a -> b -> c.
        let LabelValue::Real(lb) = cp.bindings.advertised(b, slot).unwrap() else {
            panic!("b should advertise a real label");
        };
        let entry = cp.lfib_entry(b, lb).unwrap();
        assert_eq!(entry.slot, slot);
        assert_eq!(entry.nexthops.len(), 1);
        assert_eq!(entry.nexthops[0].next, c);
        assert_eq!(entry.nexthops[0].action, LabelAction::Pop);
        // a itself advertises a real label whose entry swaps to b's.
        let LabelValue::Real(la) = cp.bindings.advertised(a, slot).unwrap() else {
            panic!()
        };
        let entry_a = cp.lfib_entry(a, la).unwrap();
        assert_eq!(entry_a.nexthops[0].action, LabelAction::Swap(lb));
        assert!(cp.lfib_size(a) > 0);
    }

    #[test]
    fn lfib_window_handles_sparse_and_injected_labels() {
        // A dense run, a far-away TE-style label, and labels straddling
        // the window edges must all round-trip through the same table.
        let mut t = RouterLfib::default();
        let entry = |slot: u32| LfibEntry {
            slot,
            nexthops: vec![LfibHop {
                iface: 0,
                next: RouterId(1),
                action: LabelAction::Pop,
            }],
        };
        for v in [20u32, 18, 19, 22] {
            t.insert(Label(v), entry(v));
        }
        t.insert(Label(500_007), entry(7)); // overflow (TE range)
        t.insert(Label(16), entry(16)); // front growth
        assert_eq!(t.len, 6);
        for v in [16u32, 18, 19, 20, 22] {
            assert_eq!(t.get(Label(v)).map(|e| e.slot), Some(v), "label {v}");
        }
        assert_eq!(t.get(Label(500_007)).map(|e| e.slot), Some(7));
        assert!(t.get(Label(17)).is_none());
        assert!(t.get(Label(21)).is_none());
        assert!(t.get(Label(500_008)).is_none());
        // Overwrites don't double-count.
        t.insert(Label(20), entry(99));
        assert_eq!(t.len, 6);
        assert_eq!(t.get(Label(20)).map(|e| e.slot), Some(99));
        assert_eq!(t.iter().count(), 6);
    }

    #[test]
    fn disconnected_as_rejected() {
        let mut bld = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        bld.add_router("x", Asn(1), cfg.clone());
        bld.add_router("y", Asn(1), cfg);
        let net = bld.build().unwrap();
        assert!(matches!(
            ControlPlane::build(&net),
            Err(NetError::DisconnectedAs { .. })
        ));
    }

    #[test]
    fn uhp_penultimate_swaps_explicit_null() {
        let mut bld = NetworkBuilder::new();
        let a = bld.add_router("a", Asn(1), RouterConfig::mpls_router(Vendor::CiscoIos));
        let b = bld.add_router("b", Asn(1), RouterConfig::mpls_router(Vendor::CiscoIos));
        let c = bld.add_router(
            "c",
            Asn(1),
            RouterConfig::mpls_router(Vendor::CiscoIos).uhp(),
        );
        bld.link(a, b, LinkOpts::default());
        bld.link(b, c, LinkOpts::default());
        let net = bld.build().unwrap();
        let cp = ControlPlane::build(&net).unwrap();
        let ap = &cp.as_prefixes[0];
        let slot = ap.lookup(net.router(c).loopback).unwrap();
        let LabelValue::Real(lb) = cp.bindings.advertised(b, slot).unwrap() else {
            panic!()
        };
        let entry = cp.lfib_entry(b, lb).unwrap();
        assert_eq!(entry.nexthops[0].action, LabelAction::SwapExplicitNull);
        let _ = a;
    }
}
