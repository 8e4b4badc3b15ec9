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
//!    swap / PHP-pop / explicit-null-swap, stored as label-sorted rows
//!    over shared entry and branch pools (see [`LfibRecord`]).
//!
//! Every table is sized to what it holds: [`ControlPlane::table_bytes`]
//! reports the heap each one reserves.

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

/// A route towards an external AS. The plane stores each one packed
/// into a `u32` ([`ExtRoute::pack`]), the same word the substrate cache
/// writes.
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

impl ExtRoute {
    /// Packs the route into one `u32`: tag in the low two bits
    /// (`0` unreachable, `1` direct, `2` via egress), payload above.
    #[inline]
    pub(crate) const fn pack(self) -> u32 {
        match self {
            ExtRoute::Unreachable => 0,
            ExtRoute::Direct { iface } => 1 | (iface << 2),
            ExtRoute::ViaEgress { egress } => 2 | (egress.0 << 2),
        }
    }

    /// Unpacks a word written by [`ExtRoute::pack`]; `None` for a word
    /// no route packs to.
    #[inline]
    pub(crate) const fn unpack(packed: u32) -> Option<ExtRoute> {
        Some(match packed & 0b11 {
            0 if packed == 0 => ExtRoute::Unreachable,
            1 => ExtRoute::Direct { iface: packed >> 2 },
            2 => ExtRoute::ViaEgress {
                egress: RouterId(packed >> 2),
            },
            _ => return None,
        })
    }
}

/// Heap bytes a vector reserves: capacity × element size.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
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

/// An LFIB entry to install: incoming label → FEC and ECMP branches.
/// The TE program and [`ControlPlane::inject_lfib_entry`] speak this
/// owned form; installed entries are read back as [`LfibRef`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LfibEntry {
    /// The FEC (prefix slot in the router's AS table).
    pub slot: u32,
    /// ECMP branches.
    pub nexthops: Vec<LfibHop>,
}

/// An installed LFIB entry, borrowed from the plane's pools.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LfibRef<'a> {
    /// The FEC (prefix slot in the router's AS table; `u32::MAX` for
    /// RSVP-TE entries).
    pub slot: u32,
    /// ECMP branches.
    pub nexthops: &'a [LfibHop],
}

/// One installed LFIB entry in the shared entry pool. Router `r`'s
/// entries are `entries[base[r]..base[r + 1]]`, sorted by strictly
/// increasing label; an entry's branches run from its `hops` to the
/// next entry's (the last entry's to the end of the branch pool).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LfibRecord {
    /// Incoming label value.
    pub label: u32,
    /// The FEC slot (`u32::MAX` for RSVP-TE entries).
    pub slot: u32,
    /// Start of the entry's branches in the branch pool.
    pub hops: u32,
}

/// Every router's LFIB as label-sorted rows over one entry pool and
/// one branch pool. LDP allocates each router's labels as one
/// increasing run, so `label - lo[r]` is the entry's position in its
/// row; a miss there (a gap, an RSVP-TE label at `500_000+`, an
/// injected entry) falls back to a binary search of the row prefix
/// the label can occupy.
#[derive(Debug, Clone, Default)]
struct LfibTables {
    /// Router → first entry of its row; length `num_routers + 1`.
    base: Vec<u32>,
    /// Label of each router's first entry (`0` for an empty row).
    lo: Vec<u32>,
    /// Installed entries, row after row.
    entries: Vec<LfibRecord>,
    /// Concatenated ECMP branches.
    hops: Vec<LfibHop>,
}

impl LfibTables {
    /// Empty tables with room for `routers` rows.
    fn with_rows(routers: usize) -> LfibTables {
        let mut base = Vec::with_capacity(routers + 1);
        base.push(0);
        LfibTables {
            base,
            lo: Vec::with_capacity(routers),
            ..LfibTables::default()
        }
    }

    /// Appends an entry to the open row; labels must increase.
    fn push(&mut self, label: u32, slot: u32, hops: impl IntoIterator<Item = LfibHop>) {
        let row_start = *self.base.last().expect("base starts at 0") as usize;
        debug_assert!(self.entries[row_start..]
            .last()
            .is_none_or(|e| e.label < label));
        self.entries.push(LfibRecord {
            label,
            slot,
            hops: self.hops.len() as u32,
        });
        self.hops.extend(hops);
    }

    /// Closes the open row (the next router's row starts after it).
    fn end_row(&mut self) {
        let start = *self.base.last().expect("base starts at 0") as usize;
        self.lo.push(self.entries.get(start).map_or(0, |e| e.label));
        self.base.push(self.entries.len() as u32);
    }

    /// Releases the growth slack of the two pools.
    fn shrink(&mut self) {
        self.entries.shrink_to_fit();
        self.hops.shrink_to_fit();
    }

    /// Entry `i` of the entry pool, with its branches.
    #[inline]
    fn entry(&self, i: usize) -> LfibRef<'_> {
        let e = self.entries[i];
        let end = self
            .entries
            .get(i + 1)
            .map_or(self.hops.len(), |n| n.hops as usize);
        LfibRef {
            slot: e.slot,
            nexthops: &self.hops[e.hops as usize..end],
        }
    }

    /// The entry pool range of `router`'s row.
    #[inline]
    fn row(&self, router: RouterId) -> std::ops::Range<usize> {
        self.base[router.index()] as usize..self.base[router.index() + 1] as usize
    }

    #[inline]
    fn get(&self, router: RouterId, label: Label) -> Option<LfibRef<'_>> {
        let r = router.index();
        let (start, end) = (self.base[r] as usize, self.base[r + 1] as usize);
        let guess = start + label.0.wrapping_sub(self.lo[r]) as usize;
        let i = if guess < end && self.entries[guess].label == label.0 {
            guess
        } else {
            self.search(start..end, label)?
        };
        Some(self.entry(i))
    }

    /// The slow path of [`LfibTables::get`]: labels strictly increase
    /// along a row, so `label` sits at most `label - lo` entries in.
    #[cold]
    fn search(&self, row: std::ops::Range<usize>, label: Label) -> Option<usize> {
        let lo = self.entries.get(row.start)?.label;
        let upto = row.end.min(
            row.start
                .saturating_add((label.0.checked_sub(lo)? as usize) + 1),
        );
        self.entries[row.start..upto]
            .binary_search_by_key(&label.0, |e| e.label)
            .ok()
            .map(|i| row.start + i)
    }

    fn iter(&self, router: RouterId) -> impl Iterator<Item = (Label, LfibRef<'_>)> + '_ {
        self.row(router)
            .map(|i| (Label(self.entries[i].label), self.entry(i)))
    }

    /// A copy of the tables with `entry` installed (or overwritten)
    /// under `label` at `router`.
    fn with_entry(&self, router: RouterId, label: Label, entry: &LfibEntry) -> LfibTables {
        let mut out = LfibTables::with_rows(self.lo.len());
        for r in 0..self.lo.len() {
            let rid = RouterId(r as u32);
            let mut pending = (rid == router).then_some(entry);
            for (l, e) in self.iter(rid) {
                if let Some(new) = pending.filter(|_| label <= l) {
                    out.push(label.0, new.slot, new.nexthops.iter().copied());
                    pending = None;
                    if label == l {
                        continue; // overwritten
                    }
                }
                out.push(l.0, e.slot, e.nexthops.iter().copied());
            }
            if let Some(new) = pending {
                out.push(label.0, new.slot, new.nexthops.iter().copied());
            }
            out.end_row();
        }
        out.shrink();
        out
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.base)
            + vec_bytes(&self.lo)
            + vec_bytes(&self.entries)
            + vec_bytes(&self.hops)
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

/// Blocks per directory page of the dense owner index, and addresses
/// per block: an address's top 8 bits pick its /8's directory page, the
/// next 12 its /20 block in that page, the low 12 its offset in the
/// block.
pub const OWNER_DIR_SIZE: usize = 1 << 12;

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
    /// External forwarding, flattened row-major and packed
    /// ([`ExtRoute::pack`]): `ext[router.index() * ext_stride +
    /// dst_as_index]`. One flat array instead of a `Vec<Vec<_>>` keeps
    /// the per-hop inter-AS lookup a single indexed load with no
    /// pointer chase.
    ext: Vec<u32>,
    /// Row stride of [`Self::ext`]: the number of ASes.
    ext_stride: usize,
    /// Per-router LFIB rows.
    lfib: LfibTables,
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
    /// First level of the dense address→owner index, inline so it
    /// costs no pointer chase: `addr >> 24` → base of that /8's
    /// [`OWNER_DIR_SIZE`]-entry page in [`Self::owner_dir`] (`u32::MAX`
    /// = no address in the /8).
    owner_top: [u32; 256],
    /// Per used /8, one `(start, len)` run of [`Self::owner_pool`] per
    /// /20 block: block offset `o` lives at `owner_pool[start + o]` when
    /// `o < len`. The builder hands out addresses from the front of
    /// each pool, so a run ends at the block's highest held address and
    /// the runs tile the pool in directory order. Together the three
    /// levels replace the per-leg owner hash with three array loads.
    owner_dir: Vec<(u32, u32)>,
    /// Concatenated runs: `owner router id + 1`, `0` = unowned.
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

/// Where an LFIB entry comes from while a router's row is assembled.
#[derive(Copy, Clone)]
enum LfibSource {
    /// The LDP entry for this FEC slot.
    Ldp(u32),
    /// This index of the (router-grouped) TE transit program.
    Te(usize),
}

/// The `owner_dir` index of `addr`'s /20 block and its offset in the
/// block, under a first level that covers `addr`'s /8.
#[inline]
fn owner_slot(owner_top: &[u32; 256], addr: Addr) -> (usize, u32) {
    let block = owner_top[(addr.0 >> 24) as usize] as usize + ((addr.0 >> 12) & 0xFFF) as usize;
    (block, addr.0 & 0xFFF)
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
    let spans = home
        .iter()
        .filter(|&&(as_idx, _)| as_idx != NONE)
        .map(|&(as_idx, _)| as_prefixes[as_idx as usize].len())
        .sum();
    let mut fib = FibTables {
        base: Vec::with_capacity(n + 1),
        spans: Vec::with_capacity(spans),
        pool: Vec::new(),
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
    fib.pool.shrink_to_fit();
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
pub fn ldp_lfib_hops<'a>(
    bindings: &'a LdpBindings,
    slot: u32,
    hops: &'a [(u32, RouterId)],
) -> impl Iterator<Item = LfibHop> + 'a {
    hops.iter().map(move |&(iface, next)| LfibHop {
        iface,
        next,
        action: ldp_label_action(bindings, next, slot),
    })
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
        // The packed words are exactly `Vec<ExtRoute>`'s encoding.
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
        let ext: Vec<u32> = Vec::take(&mut r).map_err(CachePayloadError::Decode)?;
        if !r.is_empty() {
            return Err(CachePayloadError::Decode(WireError::Corrupt(
                "trailing bytes",
            )));
        }
        if ext.iter().any(|&w| ExtRoute::unpack(w).is_none()) {
            return Err(CachePayloadError::Decode(WireError::Corrupt(
                "ExtRoute tag",
            )));
        }
        let n_as = net.as_list().len();
        if ext.len() != n_as * net.num_routers() || bgp.num_as() != n_as {
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
        cached_ext: Option<Vec<u32>>,
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
        let mut ext = cached_ext
            .unwrap_or_else(|| vec![ExtRoute::Unreachable.pack(); n_as * net.num_routers()]);
        // Per source AS: its borders' inter-AS interfaces as
        // `(border, iface, peer AS index, border local index)`, resolved
        // once instead of per destination AS.
        let mut links: Vec<(RouterId, u32, u32, usize)> = Vec::new();
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
                    links.push((b, idx as u32, peer_idx as u32, lb));
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
                        ext[rid.index() * n_as + dst_as] = ExtRoute::Direct { iface }.pack();
                        continue;
                    }
                    // Nearest candidate border (hot potato).
                    let choice = candidates
                        .iter()
                        .map(|&(b, _, lb)| (view.distance_local(lr, lb), b))
                        .min();
                    if let Some((d, egress)) = choice {
                        if d < crate::igp::INF {
                            ext[rid.index() * n_as + dst_as] =
                                ExtRoute::ViaEgress { egress }.pack();
                        }
                    }
                }
            }
        }

        // LFIBs: one entry per real incoming label with a next hop,
        // plus the RSVP-TE label chain at every transit LSR. Per router
        // the labels form a `(label, precedence, source)` list: a TE
        // entry overrides an LDP one on the same label and a later
        // tunnel an earlier one, then the row is written in label order.
        let (mut te_transit, te_list) = te_program(net)?;
        // Grouped by router; the stable sort keeps tunnel order.
        te_transit.sort_by_key(|&(rid, _, _)| rid);
        let mut lfib = LfibTables::with_rows(net.num_routers());
        // Upper bounds (an LDP entry is one FIB span and its hops), so
        // the pools never regrow; `shrink` trims them afterwards.
        lfib.entries.reserve(fib.spans.len() + te_transit.len());
        lfib.hops.reserve(fib.pool.len() + te_transit.len());
        let mut row: Vec<(u32, usize, LfibSource)> = Vec::new();
        let mut te_next = 0;
        for r in net.routers() {
            row.clear();
            for (slot, value) in bindings.advertisements(r.id) {
                if let LabelValue::Real(in_label) = value {
                    if !fib.hops(r.id, slot).is_empty() {
                        row.push((in_label.0, row.len(), LfibSource::Ldp(slot)));
                    }
                }
            }
            while te_next < te_transit.len() && te_transit[te_next].0 == r.id {
                row.push((te_transit[te_next].1 .0, row.len(), LfibSource::Te(te_next)));
                te_next += 1;
            }
            row.sort_unstable_by_key(|&(label, precedence, _)| {
                (label, std::cmp::Reverse(precedence))
            });
            row.dedup_by_key(|e| e.0);
            for &(label, _, source) in &row {
                match source {
                    LfibSource::Ldp(slot) => lfib.push(
                        label,
                        slot,
                        ldp_lfib_hops(&bindings, slot, fib.hops(r.id, slot)),
                    ),
                    LfibSource::Te(t) => {
                        let entry = &te_transit[t].2;
                        lfib.push(label, entry.slot, entry.nexthops.iter().copied())
                    }
                }
            }
            lfib.end_row();
        }
        lfib.shrink();

        // Flatten the TE heads' autoroute decisions into a CSR table
        // grouped by head.
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
        let num_ifaces = net.routers().iter().map(|r| r.ifaces.len()).sum();
        let mut iface_slot_base = Vec::with_capacity(net.num_routers() + 1);
        let mut iface_slot = Vec::with_capacity(num_ifaces);
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

        // Dense address→owner index, sized in three passes over the
        // routers' addresses: mark the used /8s, stretch each /20
        // block's run to its highest held offset, then fill the runs.
        // Walking the routers (not the owner hash) keeps the table bytes
        // deterministic across builds and job counts.
        let addrs = || {
            net.routers().iter().flat_map(|r| {
                std::iter::once((r.loopback, r.id)).chain(r.ifaces.iter().map(|i| (i.addr, r.id)))
            })
        };
        let mut owner_top = [u32::MAX; 256];
        for (addr, _) in addrs() {
            owner_top[(addr.0 >> 24) as usize] = 0;
        }
        let mut pages = 0u32;
        for top in owner_top.iter_mut().filter(|t| **t == 0) {
            *top = pages * OWNER_DIR_SIZE as u32;
            pages += 1;
        }
        let mut owner_dir = vec![(0u32, 0u32); pages as usize * OWNER_DIR_SIZE];
        for (addr, _) in addrs() {
            let (block, off) = owner_slot(&owner_top, addr);
            let run = &mut owner_dir[block];
            run.1 = run.1.max(off + 1);
        }
        let mut cursor = 0u32;
        for run in &mut owner_dir {
            run.0 = cursor;
            cursor += run.1;
        }
        let mut owner_pool = vec![0u32; cursor as usize];
        for (addr, rid) in addrs() {
            let (block, off) = owner_slot(&owner_top, addr);
            owner_pool[(owner_dir[block].0 + off) as usize] = rid.0 + 1;
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
            owner_top,
            owner_dir,
            owner_pool,
            walk_flags,
            walk_te_ttl,
            walk_er_ttl,
            walk_loopback,
            walk_iface,
        })
    }

    /// The router owning `addr`, through the dense owner index — three
    /// array loads, the first from the plane itself — the replacement
    /// for the per-leg owner hash. Agrees with [`Network::owner`] by
    /// construction (the D512 dense-plane rule cross-checks it against
    /// the routers).
    #[inline]
    pub fn owner_of(&self, addr: Addr) -> Option<RouterId> {
        match self.owner_pool[self.owner_pos(addr)?] {
            0 => None,
            v => Some(RouterId(v - 1)),
        }
    }

    /// The position of `addr` in the owner pool, when its block run
    /// covers it.
    #[inline]
    fn owner_pos(&self, addr: Addr) -> Option<usize> {
        if self.owner_top[(addr.0 >> 24) as usize] == u32::MAX {
            return None;
        }
        let (block, off) = owner_slot(&self.owner_top, addr);
        let (start, len) = self.owner_dir[block];
        (off < len).then_some((start + off) as usize)
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
        // Every stored word unpacks: the build packs it, and a cached
        // table is checked on load.
        ExtRoute::unpack(self.ext[router.index() * self.ext_stride + dst_as])
            .unwrap_or(ExtRoute::Unreachable)
    }

    /// The LFIB entry of `router` for incoming `label`.
    #[inline]
    pub fn lfib_entry(&self, router: RouterId, label: Label) -> Option<LfibRef<'_>> {
        self.lfib.get(router, label)
    }

    /// Number of LFIB entries installed at `router`.
    pub fn lfib_size(&self, router: RouterId) -> usize {
        self.lfib.row(router).len()
    }

    /// Iterates over every LFIB entry installed at `router`, as
    /// `(incoming label, entry)` pairs in increasing label order.
    pub fn lfib_entries(
        &self,
        router: RouterId,
    ) -> impl Iterator<Item = (Label, LfibRef<'_>)> + '_ {
        self.lfib.iter(router)
    }

    /// Installs (or overwrites) an LFIB entry at `router` — a what-if
    /// mutator for fault-injection studies and for exercising the
    /// static checks: `build` only ever produces consistent LFIBs, so
    /// dangling label-swaps can only be created deliberately. Rewrites
    /// the pools, so it costs a pass over every installed entry.
    pub fn inject_lfib_entry(&mut self, router: RouterId, label: Label, entry: LfibEntry) {
        self.lfib = self.lfib.with_entry(router, label, &entry);
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
            lfib_base: &self.lfib.base,
            lfib_lo: &self.lfib.lo,
            lfib_entries: &self.lfib.entries,
            lfib_hops: &self.lfib.hops,
            te_heads: &self.te_heads,
            te_routes: &self.te_routes,
            loopback_slot: &self.loopback_slot,
            iface_slot_base: &self.iface_slot_base,
            iface_slot: &self.iface_slot,
            router_as_idx: &self.router_as_idx,
            owner_top: &self.owner_top,
            owner_dir: &self.owner_dir,
            owner_pool: &self.owner_pool,
        }
    }

    /// The heap each table of the plane reserves, in bytes (capacity ×
    /// element size, nested vectors included), in a fixed table order.
    /// The inline first level of the owner index is part of the plane
    /// itself and not counted.
    pub fn table_bytes(&self) -> Vec<(&'static str, usize)> {
        vec![
            (
                "igp",
                vec_bytes(&self.igp) + self.igp.iter().map(AsIgp::heap_bytes).sum::<usize>(),
            ),
            (
                "prefixes",
                vec_bytes(&self.as_prefixes)
                    + self
                        .as_prefixes
                        .iter()
                        .map(AsPrefixes::heap_bytes)
                        .sum::<usize>(),
            ),
            ("bgp", self.bgp.heap_bytes()),
            ("ldp bindings", self.bindings.heap_bytes()),
            (
                "fib",
                vec_bytes(&self.fib.base) + vec_bytes(&self.fib.spans) + vec_bytes(&self.fib.pool),
            ),
            ("ext", vec_bytes(&self.ext)),
            ("lfib", self.lfib.heap_bytes()),
            ("te", vec_bytes(&self.te_heads) + vec_bytes(&self.te_routes)),
            (
                "dst resolution",
                vec_bytes(&self.loopback_slot)
                    + vec_bytes(&self.iface_slot_base)
                    + vec_bytes(&self.iface_slot)
                    + vec_bytes(&self.router_as_idx),
            ),
            (
                "owner index",
                vec_bytes(&self.owner_dir) + vec_bytes(&self.owner_pool),
            ),
            (
                "walk",
                vec_bytes(&self.walk_flags)
                    + vec_bytes(&self.walk_te_ttl)
                    + vec_bytes(&self.walk_er_ttl)
                    + vec_bytes(&self.walk_loopback)
                    + vec_bytes(&self.walk_iface),
            ),
        ]
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
    /// Router → first entry of its LFIB row in `lfib_entries`; length
    /// `num_routers + 1`.
    pub lfib_base: &'a [u32],
    /// Label of each router's first LFIB entry (`0` for an empty row).
    pub lfib_lo: &'a [u32],
    /// Installed LFIB entries, row after row, labels strictly
    /// increasing within a row.
    pub lfib_entries: &'a [LfibRecord],
    /// Concatenated LFIB branches; an entry's run ends where the next
    /// entry's starts.
    pub lfib_hops: &'a [LfibHop],
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
    /// `/8` → base of its page in `owner_dir` (`u32::MAX` = none).
    pub owner_top: &'a [u32; 256],
    /// Per used /8, one `(start, len)` run of `owner_pool` per /20.
    pub owner_dir: &'a [(u32, u32)],
    /// Concatenated runs (`owner id + 1`, `0` = unowned).
    pub owner_pool: &'a [u32],
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

    /// Mutable LFIB row offsets.
    pub fn lfib_base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.lfib.base
    }

    /// Mutable LFIB entry pool.
    pub fn lfib_entries_mut(&mut self) -> &mut Vec<LfibRecord> {
        &mut self.lfib.entries
    }

    /// Mutable LFIB branch pool.
    pub fn lfib_hops_mut(&mut self) -> &mut Vec<LfibHop> {
        &mut self.lfib.hops
    }

    /// Mutable owner-index block directory.
    pub fn owner_dir_mut(&mut self) -> &mut Vec<(u32, u32)> {
        &mut self.owner_dir
    }

    /// Rebinds the indexed address `addr` to `owner` in the dense owner
    /// index without touching the routers that actually hold it
    /// (test-only mutation hook for the D512 owner-index invariant
    /// check). Panics when the index does not cover `addr`.
    pub fn poison_owner_index(&mut self, addr: Addr, owner: RouterId) {
        let pos = self
            .owner_pos(addr)
            .expect("the owner index covers the address");
        self.owner_pool[pos] = owner.0 + 1;
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
    fn lfib_rows_handle_sparse_and_injected_labels() {
        // A dense run with a gap, a far-away TE-style label, and
        // injected labels before, inside and after the run must all
        // round-trip through the same rows.
        let hop = |iface: u32| LfibHop {
            iface,
            next: RouterId(1),
            action: LabelAction::Pop,
        };
        let mut t = LfibTables::with_rows(2);
        t.end_row(); // router 0: empty
        for v in [18u32, 19, 20, 22, 500_007] {
            t.push(v, v, [hop(v), hop(v + 1)]);
        }
        t.end_row();
        let r = RouterId(1);
        assert_eq!((t.row(RouterId(0)).len(), t.row(r).len()), (0, 5));
        assert!(t.get(RouterId(0), Label(18)).is_none());
        for v in [18u32, 19, 20, 22, 500_007] {
            let e = t.get(r, Label(v)).unwrap_or_else(|| panic!("label {v}"));
            assert_eq!((e.slot, e.nexthops), (v, &[hop(v), hop(v + 1)][..]));
        }
        for v in [0u32, 17, 21, 23, 500_008] {
            assert!(t.get(r, Label(v)).is_none(), "label {v}");
        }
        let entry = |slot: u32| LfibEntry {
            slot,
            nexthops: vec![hop(slot)],
        };
        let t = t
            .with_entry(r, Label(16), &entry(16)) // before the run
            .with_entry(r, Label(21), &entry(21)) // fills the gap
            .with_entry(r, Label(20), &entry(99)) // overwrites
            .with_entry(r, Label(700_000), &entry(7)); // after TE
        let labels: Vec<u32> = t.iter(r).map(|(l, _)| l.0).collect();
        assert_eq!(labels, [16, 18, 19, 20, 21, 22, 500_007, 700_000]);
        assert_eq!(t.lo, [0, 16]);
        let e = t.get(r, Label(20)).unwrap();
        assert_eq!((e.slot, e.nexthops), (99, &[hop(99)][..]));
        let e = t.get(r, Label(22)).unwrap();
        assert_eq!(e.nexthops, &[hop(22), hop(23)][..]);
        assert_eq!(t.get(r, Label(700_000)).unwrap().slot, 7);
    }

    #[test]
    fn owner_index_covers_exactly_the_held_addresses() {
        let (net, _) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        for r in net.routers() {
            assert_eq!(cp.owner_of(r.loopback), Some(r.id));
            for i in &r.ifaces {
                assert_eq!(cp.owner_of(i.addr), Some(r.id));
                assert_eq!(cp.owner_of(Addr(i.addr.0 + 4096)), None);
            }
        }
        assert_eq!(cp.owner_of(Addr::new(192, 0, 2, 1)), None);
        // Each run ends at its block's highest held address.
        let v = cp.dense_view();
        let held = net
            .routers()
            .iter()
            .map(|r| 1 + r.ifaces.len())
            .sum::<usize>();
        assert!(
            v.owner_pool.len() < 2 * held + 8,
            "{} entries",
            v.owner_pool.len()
        );
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
