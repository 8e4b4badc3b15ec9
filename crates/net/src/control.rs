//! Control-plane assembly: FIBs, BGP external routes, and LFIBs.
//!
//! [`ControlPlane::build`] computes, from an immutable [`Network`], in
//! one serial pass:
//!
//! 1. per-AS IGP distance matrices ([`AsIgp`]), AS by AS;
//! 2. per-router intra-AS FIBs (ECMP next-hop sets towards the nearest
//!    owner of each internal prefix, derived router by router from the
//!    distance matrix by [`FibOracle`] as one bitmask over the router's
//!    adjacencies per slot), each router's distinct masks stored once
//!    as next-hop groups with one `u16` group number per prefix slot
//!    ([`FibTables`]);
//! 3. external routes: hot-potato egress selection over the valley-free
//!    AS-level routes ([`Bgp`], computed before step 1 and dropped once
//!    this step has read it), each source AS's distinct vectors of
//!    member decisions stored once as classes with one `u16` class
//!    number per destination AS ([`ExtOracle`]);
//! 4. LDP and the LFIBs implementing swap / PHP-pop /
//!    explicit-null-swap. LDP labels are a closed form over two small
//!    tables ([`LdpBindings`]), so an LDP entry is computed on each
//!    lookup: the label inverts to its FEC, whose FIB next hops are the
//!    branches. Only RSVP-TE transit entries and what-if injections are
//!    stored, as label-sorted explicit rows ([`LfibExplicit`]).
//!
//! Every table is sized to what it holds: [`ControlPlane::table_bytes`]
//! reports the heap each one reserves.

use crate::addr::Addr;
use crate::bgp::Bgp;
use crate::error::NetError;
use crate::hash::WordMap;
use crate::ids::{Label, LinkId, RouterId};
use crate::igp::{adjacencies_into, Adj, AsIgp, INF, MASK_BITS};
use crate::ldp::{LabelValue, LdpBindings};
use crate::net::Network;
use crate::prefixes::AsPrefixes;
use crate::vendor::{LdpPolicy, PoppingMode};
use std::collections::hash_map::Entry;
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
    pub const fn pack(self) -> u32 {
        match self {
            ExtRoute::Unreachable => 0,
            ExtRoute::Direct { iface } => 1 | (iface << 2),
            ExtRoute::ViaEgress { egress } => 2 | (egress.0 << 2),
        }
    }

    /// Unpacks a word written by [`ExtRoute::pack`]; `None` for a word
    /// no route packs to.
    #[inline]
    pub const fn unpack(packed: u32) -> Option<ExtRoute> {
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
    /// errors a cold [`ControlPlane::build`] can hit).
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

/// An LFIB entry, borrowed from the plane: its FEC and a view of its
/// ECMP branches. An LDP entry is not stored; its branches are its
/// FEC's FIB next hops, each with the [`ldp_label_action`] its next
/// router's advertisement implies, derived on every read. RSVP-TE
/// transit entries and what-if injections read their explicitly
/// installed branches. Both kinds answer the same [`LfibRef::len`] /
/// [`LfibRef::branch`] view without allocating.
#[derive(Copy, Clone)]
pub struct LfibRef<'a> {
    /// The FEC (prefix slot in the router's AS table; `u32::MAX` for
    /// RSVP-TE entries).
    pub slot: u32,
    branches: LfibBranches<'a>,
}

/// Where an [`LfibRef`]'s branches come from.
#[derive(Copy, Clone)]
enum LfibBranches<'a> {
    /// An LDP entry: the FEC's FIB next-hop set, each hop's action
    /// following its next router's advertisement.
    Derived {
        hops: &'a [(u32, RouterId)],
        cp: &'a ControlPlane,
    },
    /// Branches installed explicitly (RSVP-TE transit, injections).
    Explicit(&'a [LfibHop]),
}

impl<'a> LfibRef<'a> {
    /// Number of ECMP branches.
    #[inline]
    pub fn len(&self) -> usize {
        match self.branches {
            LfibBranches::Derived { hops, .. } => hops.len(),
            LfibBranches::Explicit(hops) => hops.len(),
        }
    }

    /// True for an entry with no branch (a corrupted plane, or an
    /// injected entry without branches).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Branch `i`. Panics when `i >= len()`.
    #[inline]
    pub fn branch(&self, i: usize) -> LfibHop {
        match self.branches {
            LfibBranches::Derived { hops, cp } => {
                let (iface, next) = hops[i];
                LfibHop {
                    iface,
                    next,
                    action: ldp_label_action(cp, next, self.slot),
                }
            }
            LfibBranches::Explicit(hops) => hops[i],
        }
    }

    /// Every branch, in ECMP order.
    pub fn branches(self) -> impl Iterator<Item = LfibHop> + 'a {
        (0..self.len()).map(move |i| self.branch(i))
    }

    /// True for an LDP entry, whose branches are derived from the FIB.
    pub fn is_derived(&self) -> bool {
        matches!(self.branches, LfibBranches::Derived { .. })
    }
}

impl PartialEq for LfibRef<'_> {
    /// Entries are equal when they forward alike: same FEC and the same
    /// branches in the same order, however each is stored.
    fn eq(&self, other: &Self) -> bool {
        self.slot == other.slot && self.branches().eq(other.branches())
    }
}

impl Eq for LfibRef<'_> {}

impl std::fmt::Debug for LfibRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LfibRef")
            .field("slot", &self.slot)
            .field("derived", &self.is_derived())
            .field("branches", &self.branches().collect::<Vec<_>>())
            .finish()
    }
}

/// One explicitly installed LFIB entry (RSVP-TE transit or a what-if
/// injection): its incoming label and FEC, and where its branches start
/// in the branch pool. They run to the next entry's start (the last
/// entry's to the end of the pool).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LfibExplicit {
    /// Incoming label value.
    pub label: u32,
    /// The FEC slot (`u32::MAX` for RSVP-TE entries).
    pub slot: u32,
    /// Start of the entry's branches in the branch pool.
    pub hops: u32,
}

/// Every router's explicit LFIB entries as label-sorted rows: router
/// `r`'s are `entries[base[r]..base[r + 1]]`, labels strictly
/// increasing, their branches concatenated in one pool. A generated
/// Internet installs none, so a lookup's miss is two adjacent loads.
#[derive(Debug, Clone, Default)]
struct LfibTables {
    /// Router → first entry of its row; length `num_routers + 1`.
    base: Vec<u32>,
    /// Explicit entries, row after row.
    entries: Vec<LfibExplicit>,
    /// Concatenated branches of the entries.
    hops: Vec<LfibHop>,
}

impl LfibTables {
    /// Empty tables with room for `routers` rows.
    fn with_rows(routers: usize) -> LfibTables {
        let mut base = Vec::with_capacity(routers + 1);
        base.push(0);
        LfibTables {
            base,
            ..LfibTables::default()
        }
    }

    /// Appends an entry to the open row; labels must increase.
    fn push(&mut self, label: u32, slot: u32, hops: impl IntoIterator<Item = LfibHop>) {
        let row_start = *self.base.last().expect("base starts at 0") as usize;
        debug_assert!(self.entries[row_start..]
            .last()
            .is_none_or(|e| e.label < label));
        self.entries.push(LfibExplicit {
            label,
            slot,
            hops: self.hops.len() as u32,
        });
        self.hops.extend(hops);
    }

    /// Closes the open row (the next router's row starts after it).
    fn end_row(&mut self) {
        self.base.push(self.entries.len() as u32);
    }

    /// Releases the growth slack of the pools.
    fn shrink(&mut self) {
        self.entries.shrink_to_fit();
        self.hops.shrink_to_fit();
    }

    /// The branches of entry `i`.
    #[inline]
    fn branches(&self, i: usize) -> &[LfibHop] {
        let end = self
            .entries
            .get(i + 1)
            .map_or(self.hops.len(), |n| n.hops as usize);
        &self.hops[self.entries[i].hops as usize..end]
    }

    /// The entries of `router`'s row.
    #[inline]
    fn row(&self, router: RouterId) -> &[LfibExplicit] {
        &self.entries[self.base[router.index()] as usize..self.base[router.index() + 1] as usize]
    }

    /// The index of `router`'s entry for `label`.
    #[inline]
    fn find(&self, router: RouterId, label: Label) -> Option<usize> {
        let start = self.base[router.index()] as usize;
        self.row(router)
            .binary_search_by_key(&label.0, |e| e.label)
            .ok()
            .map(|i| start + i)
    }

    /// A copy of the tables with `entry` installed (or overwriting the
    /// entry) under `label` at `router`.
    fn with_entry(&self, router: RouterId, label: Label, entry: &LfibEntry) -> LfibTables {
        let routers = self.base.len() - 1;
        let mut out = LfibTables::with_rows(routers);
        for r in (0..routers as u32).map(RouterId) {
            let mut pending = (r == router).then_some(entry);
            let start = self.base[r.index()] as usize;
            for (i, e) in self.row(r).iter().enumerate() {
                if let Some(new) = pending.filter(|_| label.0 <= e.label) {
                    out.push(label.0, new.slot, new.nexthops.iter().copied());
                    pending = None;
                    if label.0 == e.label {
                        continue; // overwritten
                    }
                }
                out.push(e.label, e.slot, self.branches(start + i).iter().copied());
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
        vec_bytes(&self.base) + vec_bytes(&self.entries) + vec_bytes(&self.hops)
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
    /// LDP advertises `/32` loopback routes only
    /// ([`LdpPolicy::LoopbackOnly`](crate::vendor::LdpPolicy::LoopbackOnly)).
    pub const LOOPBACK_ONLY: u8 = 1 << 6;
    /// The router requests Ultimate Hop Popping: it advertises explicit
    /// null for the prefixes it owns.
    pub const UHP: u8 = 1 << 7;
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

/// The computed control plane of a network.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    /// Per-AS internal prefix tables (dense AS index order).
    pub as_prefixes: Vec<AsPrefixes>,
    /// Per-AS IGP views.
    pub igp: Vec<AsIgp>,
    /// The tables LDP advertisements are computed from.
    pub bindings: LdpBindings,
    /// The intra-AS FIB's next-hop groups, as [`logical_fib`] emits
    /// them.
    fib: FibTables,
    /// External forwarding as per-AS classes of member decisions.
    ext: ExtTables,
    /// Per-router explicit LFIB rows.
    lfib: LfibTables,
    /// Router → span of [`Self::te_routes`] headed there; length
    /// `num_routers + 1`. Almost every router heads no tunnel, so the
    /// miss path is two adjacent loads.
    te_heads: Vec<u32>,
    /// `(tail, (out iface, first hop, label to push))`, grouped by head
    /// router and sorted by tail within each group.
    te_routes: Vec<(RouterId, TeRoute)>,
    /// FIB slot of each router's loopback inside its own AS table
    /// (`u32::MAX` = none). The packet walk only ever resolves
    /// addresses inside the AS that owns them, and
    /// [`AsPrefixes::build`] numbers each of those slots, so these
    /// tables are written straight from the build.
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

/// A per-router intra-AS FIB that stores each distinct ECMP next-hop
/// set of a router once. Router `r` owns the cells `base[r]..base[r +
/// 1]` of [`FibTables::index`], one per prefix slot of its own AS table,
/// and the groups `group_base[r]..group_base[r + 1]` of
/// [`FibTables::groups`]. A cell holds the router-local number of its
/// slot's hop set, groups being numbered by first appearance in slot
/// order (the empty set included); group `g`'s hops are
/// `pool[groups[g]..groups[g + 1]]`, sorted by `(next router, iface)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FibTables {
    /// Router → first cell in `index`; length `num_routers + 1`.
    pub base: Vec<u32>,
    /// Router-local group number per `(router, slot)`.
    pub index: Vec<u16>,
    /// Router → first group in `groups`; length `num_routers + 1`.
    pub group_base: Vec<u32>,
    /// Group → first hop in `pool`; one more entry than there are
    /// groups, the last closing the pool.
    pub groups: Vec<u32>,
    /// Concatenated ECMP next-hop sets `(iface index, next router)`.
    pub pool: Vec<(u32, RouterId)>,
}

impl FibTables {
    /// The next-hop set of `router` for `slot`; empty for connected,
    /// unreachable and out-of-table slots, and for a cell whose group
    /// number is past the router's groups.
    #[inline]
    pub fn hops(&self, router: RouterId, slot: u32) -> &[(u32, RouterId)] {
        let r = router.index();
        let cell = self.base[r] as usize + slot as usize;
        if cell >= self.base[r + 1] as usize {
            return &[];
        }
        let g = self.group_base[r] as usize + usize::from(self.index[cell]);
        if g >= self.group_base[r + 1] as usize {
            return &[];
        }
        self.pool
            .get(self.groups[g] as usize..self.groups[g + 1] as usize)
            .unwrap_or(&[])
    }

    /// Appends one router's FIB: `row`'s masks, each mapped to the
    /// router's group with that mask, a new group for a mask not seen
    /// before in slot order. A group is found by bit for the empty mask
    /// and the 64 one-bit masks, through `multi` (scratch, reset here)
    /// for every other mask.
    fn push_row(&mut self, row: FibRow<'_>, multi: &mut WordMap<u64, u16>) -> Result<(), NetError> {
        let first = self.groups.len() - 1;
        self.base.push(self.index.len() as u32);
        self.group_base.push(first as u32);
        let mut single: [Option<u16>; MASK_BITS + 1] = [None; MASK_BITS + 1];
        multi.clear();
        for &mask in row.masks {
            let g = if mask & mask.wrapping_sub(1) == 0 {
                let bit = if mask == 0 {
                    MASK_BITS
                } else {
                    mask.trailing_zeros() as usize
                };
                match single[bit] {
                    Some(g) => g,
                    None => *single[bit].insert(self.push_group(first, row, mask)?),
                }
            } else {
                match multi.entry(mask) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => *e.insert(self.push_group(first, row, mask)?),
                }
            };
            self.index.push(g);
        }
        Ok(())
    }

    /// Appends `row`'s hops for `mask` as the next group of the router
    /// whose groups start at `first`; its router-local number.
    fn push_group(&mut self, first: usize, row: FibRow<'_>, mask: u64) -> Result<u16, NetError> {
        let g =
            u16::try_from(self.groups.len() - 1 - first).map_err(|_| NetError::TableOverflow {
                table: "FIB next-hop groups of one router",
                entries: self.groups.len() - first,
            })?;
        self.pool.extend(row.hops(mask));
        self.groups.push(self.pool.len() as u32);
        Ok(g)
    }
}

/// One router's logical intra-AS FIB, as [`FibOracle::row`] derives
/// it: one next-hop mask per slot of its AS table, bit `b` naming
/// `adj[b]`. A connected, unreachable or unrouted slot has the empty
/// mask.
#[derive(Copy, Clone, Debug)]
pub struct FibRow<'o> {
    /// One mask per prefix slot of the router's AS table.
    pub masks: &'o [u64],
    /// The router's intra-AS adjacencies, sorted by `(peer, iface)`:
    /// the order of a group's hops in [`FibTables`].
    pub adj: &'o [Adj],
}

impl<'o> FibRow<'o> {
    /// The hops `mask` names, `(iface, next router)` in bit order,
    /// which is `(next router, iface)` order.
    pub fn hops(self, mask: u64) -> impl Iterator<Item = (u32, RouterId)> + 'o {
        let adj = self.adj;
        let mut rest = mask;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let a = adj.get(rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some((a.iface, a.peer))
        })
    }
}

/// The per-router FIB oracle: the *logical* intra-AS FIB of one router
/// at a time ([`FibRow`]) — per slot of its own AS's prefix table, the
/// ECMP next-hop set towards the nearest owners of the prefix (empty
/// for connected or unreachable prefixes) as a bitmask over the
/// router's adjacencies. [`logical_fib`] loops it over every router to
/// build the plane's FIB; the `wormhole-lint` D5xx verifier calls it
/// router by router, so build and verifier stay in lockstep by
/// construction.
///
/// The oracle keeps one AS's slot owners, mapped to IGP local indices
/// over the table's own owner offsets, and re-targets them when a
/// router of another AS comes up. Per row it sorts the router's
/// intra-AS adjacencies by `(peer, iface)`, fills one mask per AS
/// member from the distance matrix ([`AsIgp::next_hop_masks`]), then
/// gives each slot the mask of its nearest owner, the OR of the masks
/// of owners tied at that distance. Nothing is hashed or allocated per
/// cell, and no all-pairs first-hop table is ever kept.
#[derive(Debug)]
pub struct FibOracle<'a> {
    net: &'a Network,
    igp: &'a [AsIgp],
    as_prefixes: &'a [AsPrefixes],
    /// The AS whose owners are loaded.
    loaded: Option<usize>,
    /// The loaded table's `owner_ids` as local indices (`u32::MAX` =
    /// outside the IGP view), spanned by its `owner_base`.
    owner_locals: Vec<u32>,
    /// The adjacencies of the router whose row is derived, sorted by
    /// `(peer, iface)`.
    adj: Vec<Adj>,
    /// That router's next-hop mask towards each member of its AS.
    toward: Vec<u64>,
    /// That router's mask per slot.
    masks: Vec<u64>,
}

impl<'a> FibOracle<'a> {
    /// An oracle over the given per-AS IGP views and prefix tables.
    pub fn new(net: &'a Network, igp: &'a [AsIgp], as_prefixes: &'a [AsPrefixes]) -> Self {
        FibOracle {
            net,
            igp,
            as_prefixes,
            loaded: None,
            owner_locals: Vec::new(),
            adj: Vec::new(),
            toward: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// The AS index whose table `router` forwards over, if any.
    fn home(&self, router: RouterId) -> Option<usize> {
        self.net
            .as_index(self.net.router(router).asn)
            .filter(|&i| i < self.as_prefixes.len() && i < self.igp.len())
    }

    /// Number of masks [`FibOracle::row`] yields for `router`.
    pub fn row_len(&self, router: RouterId) -> usize {
        self.home(router).map_or(0, |i| self.as_prefixes[i].len())
    }

    /// `router`'s logical FIB row: one mask per slot of its AS table,
    /// none for a router outside every registered AS. Fails when the
    /// router has more intra-AS adjacencies than a mask has bits.
    pub fn row(&mut self, router: RouterId) -> Result<FibRow<'_>, NetError> {
        const NONE: u32 = u32::MAX;
        self.masks.clear();
        self.adj.clear();
        let Some(as_idx) = self.home(router) else {
            return Ok(FibRow {
                masks: &self.masks,
                adj: &self.adj,
            });
        };
        let view = &self.igp[as_idx];
        let ap = &self.as_prefixes[as_idx];
        let local = |r: RouterId| view.local_index(r).map_or(NONE, |l| l as u32);
        if self.loaded != Some(as_idx) {
            self.owner_locals.clear();
            self.owner_locals
                .extend(ap.owner_ids.iter().map(|&o| local(o)));
            self.loaded = Some(as_idx);
        }
        let ls = local(router);
        if ls == NONE {
            // Outside the IGP view: every slot is unrouted.
            self.masks.resize(ap.len(), 0);
            return Ok(FibRow {
                masks: &self.masks,
                adj: &self.adj,
            });
        }
        adjacencies_into(self.net, &view.members, router, &mut self.adj);
        if self.adj.len() > MASK_BITS {
            return Err(NetError::TableOverflow {
                table: "FIB next-hop mask over one router's intra-AS adjacencies",
                entries: self.adj.len(),
            });
        }
        self.adj.sort_unstable_by_key(|a| (a.peer, a.iface));
        view.next_hop_masks(&self.adj, ls as usize, &mut self.toward);
        let dist = view.row(ls as usize);
        self.masks.extend(ap.owner_base.windows(2).map(|w| {
            let (mut best, mut mask) = (INF, 0);
            for &o in &self.owner_locals[w[0] as usize..w[1] as usize] {
                if o == ls {
                    // Connected: the router owns the prefix.
                    return 0;
                }
                let d = if o == NONE { INF } else { dist[o as usize] };
                if d < best {
                    (best, mask) = (d, self.toward[o as usize]);
                } else if d == best && d < INF {
                    mask |= self.toward[o as usize];
                }
            }
            mask
        }));
        Ok(FibRow {
            masks: &self.masks,
            adj: &self.adj,
        })
    }
}

/// The *logical* intra-AS FIB of every router: [`FibOracle::row`] in
/// router order, each row's distinct masks stored once as the router's
/// next-hop groups, numbered by first appearance, as
/// [`ControlPlane::build`] stores them. Fails when a router has more
/// intra-AS adjacencies than a mask has bits, or more distinct
/// next-hop sets than a `u16` numbers.
pub fn logical_fib(
    net: &Network,
    igp: &[AsIgp],
    as_prefixes: &[AsPrefixes],
) -> Result<FibTables, NetError> {
    let n = net.num_routers();
    let mut oracle = FibOracle::new(net, igp, as_prefixes);
    let cells = (0..n as u32).map(|r| oracle.row_len(RouterId(r))).sum();
    let mut fib = FibTables {
        base: Vec::with_capacity(n + 1),
        index: Vec::with_capacity(cells),
        group_base: Vec::with_capacity(n + 1),
        groups: vec![0],
        pool: Vec::new(),
    };
    let mut multi = WordMap::default();
    for r in 0..n as u32 {
        fib.push_row(oracle.row(RouterId(r))?, &mut multi)?;
    }
    fib.base.push(fib.index.len() as u32);
    fib.group_base.push(fib.groups.len() as u32 - 1);
    fib.groups.shrink_to_fit();
    fib.pool.shrink_to_fit();
    Ok(fib)
}

/// External routes, storing each source AS's distinct decision
/// vectors once. A *class* of a source AS is one packed [`ExtRoute`]
/// word per member, in member order; the AS's classes are numbered by
/// the first destination AS that uses them, so a build and a cache
/// restore number them alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ExtTables {
    /// `class[src_as * n_as + dst_as]`: the source AS's class towards
    /// the destination AS.
    class: Vec<u16>,
    /// Per AS, `(first word of its classes, members per class)`, then a
    /// closing `(words.len(), 0)`; length `n_as + 1`.
    blocks: Vec<(u32, u32)>,
    /// The classes' packed words, AS after AS, class after class.
    words: Vec<u32>,
    /// Router → its position among its AS's members.
    local: Vec<u32>,
}

impl ExtTables {
    /// The packed route of `router`, a member of the AS with dense
    /// index `src_as`, towards the AS with dense index `dst_as`; any
    /// index out of range reads as [`ExtRoute::Unreachable`]'s word.
    #[inline]
    fn word(&self, src_as: usize, router: RouterId, dst_as: usize) -> u32 {
        let n_as = self.blocks.len().saturating_sub(1);
        if src_as >= n_as || dst_as >= n_as {
            return ExtRoute::Unreachable.pack();
        }
        let class = usize::from(self.class[src_as * n_as + dst_as]);
        let (first, width) = self.blocks[src_as];
        let word = first as usize + class * width as usize + self.local[router.index()] as usize;
        if word >= self.blocks[src_as + 1].0 as usize {
            return ExtRoute::Unreachable.pack();
        }
        self.words[word]
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.class)
            + vec_bytes(&self.blocks)
            + vec_bytes(&self.words)
            + vec_bytes(&self.local)
    }
}

/// Fills [`ExtTables`] AS by AS in dense AS order: [`ExtBuilder::open`]
/// an AS, then push its class towards each destination AS in order.
struct ExtBuilder {
    ext: ExtTables,
    /// The open AS's classes → their numbers.
    ids: WordMap<Vec<u32>, u16>,
}

impl ExtBuilder {
    fn new(net: &Network) -> ExtBuilder {
        let n_as = net.as_list().len();
        let mut local = vec![0; net.num_routers()];
        for &asn in net.as_list() {
            for (i, r) in net.as_members(asn).iter().enumerate() {
                local[r.index()] = i as u32;
            }
        }
        ExtBuilder {
            ext: ExtTables {
                class: Vec::with_capacity(n_as * n_as),
                blocks: Vec::with_capacity(n_as + 1),
                words: Vec::new(),
                local,
            },
            ids: WordMap::default(),
        }
    }

    /// Starts the next AS, of `members` routers.
    fn open(&mut self, members: usize) {
        self.ids.clear();
        self.ext
            .blocks
            .push((self.ext.words.len() as u32, members as u32));
    }

    /// The number of the open AS's class `words` (one per member),
    /// appending it when it is new.
    fn intern(&mut self, words: &[u32]) -> Result<u16, NetError> {
        if let Some(&c) = self.ids.get(words) {
            return Ok(c);
        }
        let c = u16::try_from(self.ids.len()).map_err(|_| NetError::TableOverflow {
            table: "external-route classes of one AS",
            entries: self.ids.len() + 1,
        })?;
        self.ext.words.extend_from_slice(words);
        self.ids.insert(words.to_vec(), c);
        Ok(c)
    }

    fn finish(mut self) -> ExtTables {
        self.ext.blocks.push((self.ext.words.len() as u32, 0));
        self.ext.words.shrink_to_fit();
        self.ext
    }
}

/// The per-AS hot-potato oracle: one source AS's external routes, a
/// class at a time. Towards a destination AS, the *candidates* are the
/// source AS's inter-AS interfaces reaching one of its best BGP next
/// ASes; a member holding a candidate leaves over its own (the first
/// in interface order), any other heads for the IGP-nearest candidate
/// border (ties to the lowest router id). [`ExtOracle::resolve`]
/// computes each distinct candidate set's class once.
/// [`ControlPlane::build`] stores the classes it yields; the
/// `wormhole-lint` D513 verifier recomputes the stored classes with the
/// same oracle.
#[derive(Debug)]
pub struct ExtOracle<'a> {
    net: &'a Network,
    igp: &'a [AsIgp],
    routes: &'a Bgp,
    /// The loaded source AS.
    src_as: usize,
    /// Its borders' inter-AS interfaces as `(border, iface, peer AS
    /// index, border local index)`, in `(border, iface)` order.
    links: Vec<(RouterId, u32, u32, usize)>,
    /// Non-empty best-next-AS sets resolved so far → their candidate
    /// set number.
    by_next: WordMap<&'a [u32], usize>,
    /// The candidate set number of the empty best-next-AS set (most
    /// destinations of a stub AS), once resolved.
    unreachable: Option<usize>,
    /// Candidate sets (positions in `links`) → their number, by first
    /// appearance.
    by_cands: WordMap<Vec<u32>, usize>,
    /// Scratch: one candidate set, then its class words.
    cands: Vec<u32>,
    words: Vec<u32>,
}

impl<'a> ExtOracle<'a> {
    /// An oracle over the given per-AS IGP views and AS-level routes.
    pub fn new(net: &'a Network, igp: &'a [AsIgp], routes: &'a Bgp) -> Self {
        ExtOracle {
            net,
            igp,
            routes,
            src_as: 0,
            links: Vec::new(),
            by_next: WordMap::default(),
            unreachable: None,
            by_cands: WordMap::default(),
            cands: Vec::new(),
            words: Vec::new(),
        }
    }

    /// Loads source AS `src_as` (a dense AS index below the IGP views'
    /// count): its members' inter-AS interfaces. Fails when one leads
    /// into an unregistered AS.
    pub fn load(&mut self, src_as: usize) -> Result<(), NetError> {
        self.src_as = src_as;
        self.links.clear();
        self.by_next.clear();
        self.unreachable = None;
        self.by_cands.clear();
        for (lb, &b) in self.igp[src_as].members.iter().enumerate() {
            for (idx, iface) in self.net.router(b).ifaces.iter().enumerate() {
                if !self.net.link(iface.link).inter_as {
                    continue;
                }
                let peer_as = self.net.router(iface.peer).asn;
                let peer_idx = self
                    .net
                    .as_index(peer_as)
                    .ok_or(NetError::UnregisteredAs { asn: peer_as })?;
                self.links.push((b, idx as u32, peer_idx as u32, lb));
            }
        }
        Ok(())
    }

    /// The loaded AS's candidate set towards `dst_as` (none towards
    /// itself or an AS it has no route to), as its number among the
    /// sets this AS has resolved so far, numbered by first appearance.
    /// The first time a set appears, its class comes with it: one
    /// packed [`ExtRoute`] word per member, in member order.
    pub fn resolve(&mut self, dst_as: usize) -> (usize, Option<&[u32]>) {
        let next: &'a [u32] = if dst_as == self.src_as {
            &[]
        } else {
            self.routes.next_hops(dst_as, self.src_as)
        };
        let known = match next {
            [] => self.unreachable,
            _ => self.by_next.get(next).copied(),
        };
        if let Some(set) = known {
            return (set, None);
        }
        self.cands.clear();
        self.cands.extend(
            self.links
                .iter()
                .enumerate()
                .filter(|(_, l)| next.contains(&l.2))
                .map(|(i, _)| i as u32),
        );
        let fresh = self.by_cands.len();
        let set = *self.by_cands.entry(self.cands.clone()).or_insert(fresh);
        match next {
            [] => self.unreachable = Some(set),
            _ => {
                self.by_next.insert(next, set);
            }
        }
        if set != fresh {
            return (set, None);
        }
        self.words.clear();
        let view = &self.igp[self.src_as];
        let cands = || self.cands.iter().map(|&i| self.links[i as usize]);
        for (lr, &rid) in view.members.iter().enumerate() {
            let route = match cands().find(|c| c.0 == rid) {
                Some((_, iface, _, _)) => ExtRoute::Direct { iface },
                None => match cands()
                    .map(|(b, _, _, lb)| (view.distance_local(lr, lb), b))
                    .min()
                {
                    Some((d, egress)) if d < INF => ExtRoute::ViaEgress { egress },
                    _ => ExtRoute::Unreachable,
                },
            };
            self.words.push(route.pack());
        }
        (set, Some(&self.words))
    }
}

/// The external-route classes of every AS, each distinct candidate set
/// resolved once through [`ExtOracle`].
fn hot_potato_ext(net: &Network, igp: &[AsIgp], bgp: &Bgp) -> Result<ExtTables, NetError> {
    let mut oracle = ExtOracle::new(net, igp, bgp);
    let mut out = ExtBuilder::new(net);
    // The open AS's candidate set numbers → their classes.
    let mut class_of: Vec<u16> = Vec::new();
    for (src_as, view) in igp.iter().enumerate() {
        oracle.load(src_as)?;
        out.open(view.members.len());
        class_of.clear();
        for dst_as in 0..igp.len() {
            let (set, words) = oracle.resolve(dst_as);
            if let Some(words) = words {
                class_of.push(out.intern(words)?);
            }
            out.ext.class.push(class_of[set]);
        }
    }
    Ok(out.finish())
}

/// The label operation a router applies on a branch towards `next` for
/// FEC `slot`, following `next`'s LDP advertisement: swap to its real
/// label, pop on implicit null or a missing binding (Cisco "untagged"),
/// swap-to-explicit-null on UHP. Every LDP entry's branches are derived
/// through it on each read (see [`LfibRef`]).
#[inline]
pub fn ldp_label_action(cp: &ControlPlane, next: RouterId, slot: u32) -> LabelAction {
    match cp.advertised(next, slot) {
        Some(LabelValue::Real(out_label)) => LabelAction::Swap(out_label),
        Some(LabelValue::ImplicitNull) => LabelAction::Pop,
        Some(LabelValue::ExplicitNull) => LabelAction::SwapExplicitNull,
        // Downstream has no binding: "untagged".
        None => LabelAction::Pop,
    }
}

/// The label program of every RSVP-TE tunnel: the transit LFIB entries
/// to install (grouped by router, in tunnel-then-path order within each
/// group, as [`te_row`] reads them) and the per-`(head, tail)`
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
    // The stable sort keeps tunnel order within each router's group.
    transit.sort_by_key(|&(rid, _, _)| rid);
    let mut te_list: Vec<((RouterId, RouterId), TeRoute)> = te_autoroute.into_iter().collect();
    te_list.sort_by_key(|&((h, t), _)| (h, t));
    Ok((transit, te_list))
}

/// The explicit LFIB row a router's group `te` of the TE transit program
/// installs: fills `row` with the indices into `te` of the entries that
/// win their labels, in strictly increasing label order. A later tunnel
/// overrides an earlier one on the same label. [`ControlPlane::build`]
/// writes the rows it yields; the D5xx verifier matches installed rows
/// against it.
pub fn te_row(te: &[(RouterId, Label, LfibEntry)], row: &mut Vec<usize>) {
    row.clear();
    row.extend(0..te.len());
    row.sort_unstable_by_key(|&k| (te[k].1, std::cmp::Reverse(k)));
    row.dedup_by_key(|&mut k| te[k].1);
}

/// The router-grouped slice of a TE transit program that belongs to
/// `router`, starting at `*next` (advanced past it); call in router
/// order.
pub fn te_group<'a>(
    transit: &'a [(RouterId, Label, LfibEntry)],
    next: &mut usize,
    router: RouterId,
) -> &'a [(RouterId, Label, LfibEntry)] {
    let start = *next;
    while *next < transit.len() && transit[*next].0 == router {
        *next += 1;
    }
    &transit[start..*next]
}

impl ControlPlane {
    /// Computes the full control plane in one serial pass. Fails when an
    /// AS is internally disconnected or an inter-AS link lacks a
    /// declared relationship; the first failing AS in AS order wins.
    pub fn build(net: &Network) -> Result<ControlPlane, NetError> {
        let bgp = Bgp::compute(net)?;
        // The AS-level routes live only as long as the pass reading them.
        ControlPlane::assemble(net, move |igp| hot_potato_ext(net, igp, &bgp))
    }

    /// The substrate-cache payload: the external-route table, the
    /// output of the build phases whose cost dominates at scale
    /// (valley-free BGP and the hot-potato egress pass), encoded with
    /// [`crate::wire`]. Everything else in the plane is cheap to
    /// recompute from the network, so
    /// [`ControlPlane::from_cache_payload`] rebuilds it instead of
    /// trusting more serialized state than necessary. The routes are
    /// written as a cell count, then one [`ExtRoute::pack`] word per
    /// `(router, destination AS)` cell, router-major, with the classes
    /// expanded on the fly.
    pub fn cache_payload(&self) -> Vec<u8> {
        use crate::wire::Wire as _;
        let mut out = Vec::new();
        let (n, n_as) = (self.router_as_idx.len(), self.ext.blocks.len() - 1);
        (n * n_as).put(&mut out);
        out.reserve(4 * n * n_as);
        for r in (0..n as u32).map(RouterId) {
            let src_as = self.router_as_raw(r) as usize;
            for dst_as in 0..n_as {
                out.extend_from_slice(&self.ext.word(src_as, r, dst_as).to_le_bytes());
            }
        }
        out
    }

    /// Rebuilds the control plane from a [`ControlPlane::cache_payload`]
    /// over the *same* network. The cached external-route table skips
    /// the expensive phases; every other table is assembled
    /// from `net` exactly as [`ControlPlane::build`] would, so
    /// the result is byte-identical to a cold build. A payload whose
    /// external-route table does not match the network's dimensions is
    /// rejected as corrupt (the caller's config checksum should have
    /// caught the mismatch earlier).
    pub fn from_cache_payload(
        net: &Network,
        payload: &[u8],
    ) -> Result<ControlPlane, CachePayloadError> {
        use crate::wire::{Reader, Wire as _, WireError};
        let corrupt = |what| CachePayloadError::Decode(WireError::Corrupt(what));
        let mut r = Reader::new(payload);
        // The per-cell words are read in place from the payload.
        let cells = usize::take(&mut r).map_err(CachePayloadError::Decode)?;
        let bytes = cells
            .checked_mul(4)
            .ok_or(corrupt("ExtRoute table length"))
            .and_then(|len| r.take_bytes(len).map_err(CachePayloadError::Decode))?;
        if !r.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        let n_as = net.as_list().len();
        if cells != n_as * net.num_routers() {
            return Err(corrupt("cached table dimensions do not match the network"));
        }
        // Per AS, its members' rows are copied in order into a
        // destination-major scratch of that AS's cells only, so each
        // class is a contiguous slice.
        let mut ext = ExtBuilder::new(net);
        let mut cols = Vec::new();
        for &asn in net.as_list() {
            let members = net.as_members(asn);
            let k = members.len();
            ext.open(k);
            cols.clear();
            cols.resize(n_as * k, 0u32);
            for (i, m) in members.iter().enumerate() {
                let row = &bytes[4 * m.index() * n_as..4 * (m.index() + 1) * n_as];
                for (dst_as, w) in row.chunks_exact(4).enumerate() {
                    let w = u32::from_le_bytes(w.try_into().expect("4 bytes"));
                    ExtRoute::unpack(w).ok_or(corrupt("ExtRoute tag"))?;
                    cols[dst_as * k + i] = w;
                }
            }
            for dst_as in 0..n_as {
                let c = ext
                    .intern(&cols[dst_as * k..(dst_as + 1) * k])
                    .map_err(CachePayloadError::Assemble)?;
                ext.ext.class.push(c);
            }
        }
        ControlPlane::assemble(net, |_| Ok(ext.finish())).map_err(CachePayloadError::Assemble)
    }

    /// The shared tail of [`ControlPlane::build`] and
    /// [`ControlPlane::from_cache_payload`]: everything after BGP.
    /// `ext` yields the external-route classes from the IGP views, once
    /// the FIBs are built: the hot-potato pass on a cold build, the
    /// restored classes on a cache hit.
    fn assemble(
        net: &Network,
        ext: impl FnOnce(&[AsIgp]) -> Result<ExtTables, NetError>,
    ) -> Result<ControlPlane, NetError> {
        let as_list = net.as_list();
        let n_as = as_list.len();
        let mut as_prefixes = Vec::with_capacity(n_as);
        let mut igp = Vec::with_capacity(n_as);
        let mut addr_slots = Vec::with_capacity(n_as);
        for &asn in as_list {
            let view = AsIgp::compute(net, asn);
            if let Some(unreachable) = view.find_unreachable() {
                return Err(NetError::DisconnectedAs { asn, unreachable });
            }
            let (prefixes, held) = AsPrefixes::build(net, asn);
            igp.push(view);
            as_prefixes.push(prefixes);
            addr_slots.push(held);
        }
        // Intra-AS FIBs, emitted directly as next-hop groups.
        let fib = logical_fib(net, &igp, &as_prefixes)?;

        // External routes with hot-potato egress selection (or the
        // cached classes, which this pass produced on a previous build).
        let ext = ext(&igp)?;

        // Explicit LFIB rows: the RSVP-TE label chain at every transit
        // LSR, in label order. LDP entries are computed on lookup.
        let (te_transit, te_list) = te_program(net)?;
        let mut lfib = LfibTables::with_rows(net.num_routers());
        lfib.entries.reserve_exact(te_transit.len());
        lfib.hops.reserve_exact(te_transit.len());
        let mut row = Vec::new();
        let mut te_next = 0;
        for r in net.routers() {
            let te = te_group(&te_transit, &mut te_next, r.id);
            te_row(te, &mut row);
            for &k in &row {
                let (_, label, entry) = &te[k];
                lfib.push(label.0, entry.slot, entry.nexthops.iter().copied());
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
        // only ever resolves an address inside the AS that owns it (the
        // destination's own table, or the egress border's loopback in
        // the border's own table), and the AS table numbered each such
        // slot as it was built. They land here, router by router, so
        // the walk reads one slot instead of resolving per packet leg.
        let n = net.num_routers();
        let mut loopback_slot = vec![u32::MAX; n];
        let mut router_as_idx = vec![u32::MAX; n];
        let mut iface_slot_base = Vec::with_capacity(n + 1);
        iface_slot_base.push(0u32);
        for r in net.routers() {
            iface_slot_base.push(iface_slot_base[r.id.index()] + r.ifaces.len() as u32);
        }
        let mut iface_slot = vec![u32::MAX; iface_slot_base[n] as usize];
        for (idx, held) in addr_slots.iter().enumerate() {
            // `held` is member by member: the loopback, then each
            // interface.
            let mut k = 0;
            for &rid in net.as_members(as_list[idx]) {
                let i = rid.index();
                let ifaces = iface_slot_base[i] as usize..iface_slot_base[i + 1] as usize;
                router_as_idx[i] = idx as u32;
                loopback_slot[i] = held[k];
                iface_slot[ifaces.clone()].copy_from_slice(&held[k + 1..k + 1 + ifaces.len()]);
                k += 1 + ifaces.len();
            }
        }

        // Flat walk tables: the per-router configuration byte, vendor
        // TTL signatures, loopbacks and interface records the engine's
        // hot loop reads — one cache-friendly row per router instead of
        // the pointer-heavy `Router` struct.
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
            if c.ldp_policy == LdpPolicy::LoopbackOnly {
                f |= walk::LOOPBACK_ONLY;
            }
            if c.popping == PoppingMode::Uhp {
                f |= walk::UHP;
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

        let bindings = LdpBindings::build(
            net,
            &as_prefixes,
            &loopback_slot,
            &iface_slot_base,
            &iface_slot,
        );
        Ok(ControlPlane {
            as_prefixes,
            igp,
            bindings,
            fib,
            ext,
            lfib,
            te_heads,
            te_routes,
            loopback_slot,
            iface_slot_base,
            iface_slot,
            router_as_idx,
            walk_flags,
            walk_te_ttl,
            walk_er_ttl,
            walk_loopback,
            walk_iface,
        })
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
        let word = self
            .ext
            .word(self.router_as_raw(router) as usize, router, dst_as);
        // A word no route packs to reads as unreachable.
        ExtRoute::unpack(word).unwrap_or(ExtRoute::Unreachable)
    }

    /// What `router` advertises for FEC `slot` (a slot in its own AS's
    /// prefix table), if anything: the closed form over
    /// [`LdpBindings`].
    #[inline]
    pub fn advertised(&self, router: RouterId, slot: u32) -> Option<LabelValue> {
        let i = router.index();
        self.bindings
            .advertised(router, self.router_as_idx[i], self.walk_flags[i], slot)
    }

    /// The FEC slot `router` advertises the real label `label` for, if
    /// any: the inverse of [`ControlPlane::advertised`].
    #[inline]
    pub fn ldp_fec(&self, router: RouterId, label: Label) -> Option<u32> {
        let i = router.index();
        self.bindings
            .fec(router, self.router_as_idx[i], self.walk_flags[i], label)
    }

    /// The LDP entry of `router` for FEC `slot`: its FIB next hops, when
    /// it has any.
    #[inline]
    fn ldp_entry(&self, router: RouterId, slot: u32) -> Option<LfibRef<'_>> {
        let hops = self.fib_entry(router, slot)?;
        Some(LfibRef {
            slot,
            branches: LfibBranches::Derived { hops, cp: self },
        })
    }

    /// The view of explicit entry `i`.
    #[inline]
    fn explicit_ref(&self, i: usize) -> LfibRef<'_> {
        LfibRef {
            slot: self.lfib.entries[i].slot,
            branches: LfibBranches::Explicit(self.lfib.branches(i)),
        }
    }

    /// The LFIB entry of `router` for incoming `label`: an explicit
    /// entry when one is installed, else the LDP entry of the FEC the
    /// label was advertised for, when that FEC is routed.
    #[inline]
    pub fn lfib_entry(&self, router: RouterId, label: Label) -> Option<LfibRef<'_>> {
        if let Some(i) = self.lfib.find(router, label) {
            return Some(self.explicit_ref(i));
        }
        self.ldp_entry(router, self.ldp_fec(router, label)?)
    }

    /// [`ControlPlane::lfib_entry`] for a `label` the caller computed as
    /// `router`'s advertisement for FEC `slot` (`advertised(router, slot)
    /// == Real(label)`): the explicit row still wins, but the label is not
    /// inverted. The walk carries the FEC from the hop that chose the
    /// label.
    #[inline]
    pub(crate) fn lfib_entry_for(
        &self,
        router: RouterId,
        label: Label,
        slot: u32,
    ) -> Option<LfibRef<'_>> {
        debug_assert_eq!(self.ldp_fec(router, label), Some(slot));
        if let Some(i) = self.lfib.find(router, label) {
            return Some(self.explicit_ref(i));
        }
        self.ldp_entry(router, slot)
    }

    /// Number of LFIB entries at `router`.
    pub fn lfib_size(&self, router: RouterId) -> usize {
        self.lfib_entries(router).count()
    }

    /// The explicit entries installed at `router` (RSVP-TE transit and
    /// injections), as `(incoming label, entry)` pairs in increasing
    /// label order.
    pub fn lfib_explicit(
        &self,
        router: RouterId,
    ) -> impl Iterator<Item = (Label, LfibRef<'_>)> + '_ {
        let start = self.lfib.base[router.index()] as usize;
        (start..start + self.lfib.row(router).len())
            .map(move |i| (Label(self.lfib.entries[i].label), self.explicit_ref(i)))
    }

    /// Iterates over every LFIB entry of `router`, as `(incoming label,
    /// entry)` pairs in increasing label order: its LDP entries merged
    /// with its explicit ones, an explicit entry winning its label.
    pub fn lfib_entries(
        &self,
        router: RouterId,
    ) -> impl Iterator<Item = (Label, LfibRef<'_>)> + '_ {
        let slots = self
            .router_as_index(router)
            .map_or(0, |a| self.as_prefixes[a].len() as u32);
        let mut ldp = (0..slots)
            .filter_map(move |slot| match self.advertised(router, slot) {
                Some(LabelValue::Real(label)) => Some((label, self.ldp_entry(router, slot)?)),
                _ => None,
            })
            .peekable();
        let mut explicit = self.lfib_explicit(router).peekable();
        std::iter::from_fn(move || match (ldp.peek(), explicit.peek()) {
            (Some(&(a, _)), Some(&(b, _))) if a < b => ldp.next(),
            (Some(&(a, _)), Some(&(b, _))) => {
                if a == b {
                    ldp.next(); // overridden
                }
                explicit.next()
            }
            (Some(_), None) => ldp.next(),
            (None, _) => explicit.next(),
        })
    }

    /// Installs (or overwrites) an LFIB entry at `router` with explicit
    /// branches — a what-if mutator for fault-injection studies and for
    /// exercising the static checks: `build` only ever produces
    /// consistent LFIBs, so dangling label-swaps can only be created
    /// deliberately. An entry on an LDP label overrides the computed one.
    /// Rewrites the explicit tables, so it costs a pass over every
    /// explicit entry.
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
            fib_index: &self.fib.index,
            fib_group_base: &self.fib.group_base,
            fib_groups: &self.fib.groups,
            fib_pool: &self.fib.pool,
            ext_class: &self.ext.class,
            ext_blocks: &self.ext.blocks,
            ext_words: &self.ext.words,
            ext_local: &self.ext.local,
            ldp_host_number_base: &self.bindings.host_number_base,
            ldp_host_number: &self.bindings.host_number,
            ldp_host_slot_base: &self.bindings.host_slot_base,
            ldp_host_slot: &self.bindings.host_slot,
            ldp_own_base: &self.bindings.own_base,
            ldp_own: &self.bindings.own,
            lfib_base: &self.lfib.base,
            lfib_explicit: &self.lfib.entries,
            lfib_hops: &self.lfib.hops,
            te_heads: &self.te_heads,
            te_routes: &self.te_routes,
            loopback_slot: &self.loopback_slot,
            iface_slot_base: &self.iface_slot_base,
            iface_slot: &self.iface_slot,
            router_as_idx: &self.router_as_idx,
        }
    }

    /// The heap each table of the plane reserves, in bytes (capacity ×
    /// element size, nested vectors included), in a fixed table order.
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
            ("ldp bindings", self.bindings.heap_bytes()),
            (
                "fib",
                vec_bytes(&self.fib.base)
                    + vec_bytes(&self.fib.index)
                    + vec_bytes(&self.fib.group_base)
                    + vec_bytes(&self.fib.groups)
                    + vec_bytes(&self.fib.pool),
            ),
            ("ext", self.ext.heap_bytes()),
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
    /// Router → first cell in `fib_index`; length `num_routers + 1`.
    pub fib_base: &'a [u32],
    /// Router-local next-hop group number per `(router, slot)`.
    pub fib_index: &'a [u16],
    /// Router → first group in `fib_groups`; length `num_routers + 1`.
    pub fib_group_base: &'a [u32],
    /// Group → first hop in `fib_pool`, plus a closing offset.
    pub fib_groups: &'a [u32],
    /// Concatenated ECMP next-hop sets `(iface index, next router)`.
    pub fib_pool: &'a [(u32, RouterId)],
    /// Class of each `(source AS, destination AS)` cell, row-major.
    pub ext_class: &'a [u16],
    /// Per AS `(first word, members per class)`, plus a closing
    /// `(words, 0)`.
    pub ext_blocks: &'a [(u32, u32)],
    /// Packed [`ExtRoute`] words, one per member per class.
    pub ext_words: &'a [u32],
    /// Router → its position among its AS's members.
    pub ext_local: &'a [u32],
    /// AS → first entry of its window in `ldp_host_number`; length
    /// `num_as + 1`.
    pub ldp_host_number_base: &'a [u32],
    /// Per AS, each slot's `/32` number (`u32::MAX` = not a `/32`).
    pub ldp_host_number: &'a [u32],
    /// AS → first entry of its window in `ldp_host_slot`; length
    /// `num_as + 1`.
    pub ldp_host_slot_base: &'a [u32],
    /// Per AS, its `/32` slots in slot order (the slot of each `/32`
    /// number).
    pub ldp_host_slot: &'a [u32],
    /// Router → first entry of its row in `ldp_own`; length
    /// `num_routers + 1`.
    pub ldp_own_base: &'a [u32],
    /// Per LDP router, the counted positions of the slots it owns,
    /// strictly increasing (see [`LdpBindings`]).
    pub ldp_own: &'a [u32],
    /// Router → first entry of its explicit LFIB row in
    /// `lfib_explicit`; length `num_routers + 1`.
    pub lfib_base: &'a [u32],
    /// Explicitly installed entries, row after row, labels strictly
    /// increasing within a row.
    pub lfib_explicit: &'a [LfibExplicit],
    /// Concatenated explicit branches; an explicit entry's run ends
    /// where the next one's starts.
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

    /// Mutable per-`(router, slot)` FIB group numbers.
    pub fn fib_index_mut(&mut self) -> &mut Vec<u16> {
        &mut self.fib.index
    }

    /// Mutable `fib_pool`.
    pub fn fib_pool_mut(&mut self) -> &mut Vec<(u32, RouterId)> {
        &mut self.fib.pool
    }

    /// Mutable per-`(source AS, destination AS)` external-route classes.
    pub fn ext_class_mut(&mut self) -> &mut Vec<u16> {
        &mut self.ext.class
    }

    /// Mutable packed external-route class words.
    pub fn ext_words_mut(&mut self) -> &mut Vec<u32> {
        &mut self.ext.words
    }

    /// Mutable per-router loopback slot table.
    pub fn loopback_slot_mut(&mut self) -> &mut Vec<u32> {
        &mut self.loopback_slot
    }

    /// Mutable interface slot table.
    pub fn iface_slot_mut(&mut self) -> &mut Vec<u32> {
        &mut self.iface_slot
    }

    /// Mutable explicit LFIB row offsets.
    pub fn lfib_base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.lfib.base
    }

    /// Mutable explicit LFIB entries.
    pub fn lfib_explicit_mut(&mut self) -> &mut Vec<LfibExplicit> {
        &mut self.lfib.entries
    }

    /// Mutable explicit LFIB branch pool.
    pub fn lfib_hops_mut(&mut self) -> &mut Vec<LfibHop> {
        &mut self.lfib.hops
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
        let slot = cp.loopback_slot(c).unwrap();
        let e = cp.fib_entry(a, slot).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].1, b);
        // Owner has no FIB entry (connected).
        assert!(cp.fib_entry(c, slot).is_none());
    }

    #[test]
    fn cache_payload_round_trips() {
        let (net, [_, a, _, c, _]) = line_net();
        let cold = ControlPlane::build(&net).unwrap();
        let payload = cold.cache_payload();
        let warm = ControlPlane::from_cache_payload(&net, &payload).unwrap();
        let slot = cold.loopback_slot(c).unwrap();
        assert_eq!(warm.loopback_slot(c), Some(slot));
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
        let err = ControlPlane::from_cache_payload(&net, &payload[..payload.len() - 3]);
        assert!(matches!(err, Err(CachePayloadError::Decode(_))));
        // So is an external-route word no route packs to (the last
        // cell's): tag 3, or an unreachable tag with a payload.
        for word in [3u32, 4] {
            let mut bad = payload.clone();
            let at = bad.len() - 4;
            bad[at..].copy_from_slice(&word.to_le_bytes());
            let err = ControlPlane::from_cache_payload(&net, &bad);
            assert!(matches!(
                err,
                Err(CachePayloadError::Decode(crate::wire::WireError::Corrupt(
                    "ExtRoute tag"
                )))
            ));
        }
        // A payload built for a different network fails the dimension check.
        let mut bld = NetworkBuilder::new();
        let x = bld.add_router("x", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let y = bld.add_router("y", Asn(2), RouterConfig::ip_router(Vendor::CiscoIos));
        bld.link(x, y, LinkOpts::default());
        bld.as_rel(Asn(1), Asn(2), RelKind::Peer);
        let other = bld.build().unwrap();
        let err = ControlPlane::from_cache_payload(&other, &payload);
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
    fn out_of_range_group_and_class_read_as_no_route() {
        let (net, [h, a, _, c, _]) = line_net();
        let mut cp = ControlPlane::build(&net).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let as3 = net.as_index(Asn(3)).unwrap();
        let slot = cp.loopback_slot(c).unwrap();
        assert!(cp.fib_entry(a, slot).is_some());
        let cell = cp.fib.base[a.index()] as usize + slot as usize;
        cp.fib.index[cell] = u16::MAX;
        assert_eq!(cp.fib_entry(a, slot), None);
        assert_ne!(cp.ext_route(a, as3), ExtRoute::Unreachable);
        cp.ext.class[as2 * net.as_list().len() + as3] = u16::MAX;
        assert_eq!(cp.ext_route(a, as3), ExtRoute::Unreachable);
        // Out-of-range AS indices too.
        assert_eq!(cp.ext_route(h, usize::MAX), ExtRoute::Unreachable);
    }

    #[test]
    fn u16_overflow_is_a_typed_error() {
        // One router with 65,537 distinct next-hop masks over 17
        // adjacencies.
        let n = usize::from(u16::MAX) + 2;
        let masks: Vec<u64> = (1..=n as u64).collect();
        let adj: Vec<Adj> = (0..17)
            .map(|iface| Adj {
                iface,
                peer: RouterId(0),
                local: 0,
                metric: 1,
            })
            .collect();
        let row = FibRow {
            masks: &masks,
            adj: &adj,
        };
        let mut fib = FibTables {
            groups: vec![0],
            ..FibTables::default()
        };
        let err = fib.push_row(row, &mut WordMap::default());
        assert!(matches!(err, Err(NetError::TableOverflow { entries, .. }) if entries == n));
        // One AS with 65,537 distinct classes.
        let (net, _) = line_net();
        let mut ext = ExtBuilder::new(&net);
        ext.open(1);
        for w in 0..n as u32 - 1 {
            assert_eq!(ext.intern(&[w]).unwrap(), w as u16);
        }
        assert!(matches!(
            ext.intern(&[u32::MAX]),
            Err(NetError::TableOverflow { entries, .. }) if entries == n
        ));
    }

    /// One AS: a hub with `spokes` neighbours, each its own link.
    fn hub(spokes: usize) -> (Network, RouterId, Vec<RouterId>) {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let hub = b.add_router("hub", Asn(1), cfg.clone());
        let spokes: Vec<RouterId> = (0..spokes)
            .map(|i| b.add_router(&format!("s{i}"), Asn(1), cfg.clone()))
            .collect();
        for &s in &spokes {
            b.link(hub, s, LinkOpts::default());
        }
        (b.build().unwrap(), hub, spokes)
    }

    #[test]
    fn more_adjacencies_than_mask_bits_is_a_typed_error() {
        // 64 adjacencies fill the mask: the last spoke is its top bit.
        let (net, h, spokes) = hub(MASK_BITS);
        let cp = ControlPlane::build(&net).unwrap();
        let last = spokes[MASK_BITS - 1];
        let slot = cp.loopback_slot(last).unwrap();
        assert_eq!(cp.fib_entry(h, slot), Some(&[(63, last)][..]));
        let (net, _, _) = hub(MASK_BITS + 1);
        let err = ControlPlane::build(&net).unwrap_err();
        assert!(
            matches!(err, NetError::TableOverflow { entries: 65, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn lfib_swap_then_pop() {
        let (net, [_, a, b, c, _]) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let slot = cp.loopback_slot(c).unwrap();
        // a pushes b's label; b's LFIB entry for it pops (c advertised
        // implicit null for its own loopback): a 2-hop LSP a -> b -> c.
        let LabelValue::Real(lb) = cp.advertised(b, slot).unwrap() else {
            panic!("b should advertise a real label");
        };
        let entry = cp.lfib_entry(b, lb).unwrap();
        assert_eq!(entry.slot, slot);
        assert!(entry.is_derived());
        assert_eq!(entry.len(), 1);
        assert_eq!(entry.branch(0).next, c);
        assert_eq!(entry.branch(0).action, LabelAction::Pop);
        // a itself advertises a real label whose entry swaps to b's.
        let LabelValue::Real(la) = cp.advertised(a, slot).unwrap() else {
            panic!()
        };
        let entry_a = cp.lfib_entry(a, la).unwrap();
        assert_eq!(entry_a.branch(0).action, LabelAction::Swap(lb));
        assert!(cp.lfib_size(a) > 0);
    }

    #[test]
    fn explicit_rows_keep_label_order_through_injections() {
        // Injected labels before, between and after a row's entries,
        // and over one of them, keep the row sorted; each entry keeps
        // its slot and branches.
        let hop = |iface: u32| LfibHop {
            iface,
            next: RouterId(1),
            action: LabelAction::Pop,
        };
        let mut t = LfibTables::with_rows(2);
        t.end_row(); // router 0: empty
        t.push(20, 20, [hop(20)]);
        t.push(500_007, u32::MAX, [hop(7), hop(8)]);
        t.end_row();
        let r = RouterId(1);
        assert_eq!((t.row(RouterId(0)).len(), t.row(r).len()), (0, 2));
        assert!(t.find(RouterId(0), Label(20)).is_none());
        let entry = |slot: u32| LfibEntry {
            slot,
            nexthops: vec![hop(slot)],
        };
        let t = t
            .with_entry(r, Label(16), &entry(16)) // before the row
            .with_entry(r, Label(21), &entry(21)) // between
            .with_entry(r, Label(20), &entry(99)) // overwrites
            .with_entry(r, Label(700_000), &entry(7)); // after
        let labels: Vec<u32> = t.row(r).iter().map(|e| e.label).collect();
        assert_eq!(labels, [16, 20, 21, 500_007, 700_000]);
        let explicit = |l: u32| {
            let i = t.find(r, Label(l)).unwrap_or_else(|| panic!("label {l}"));
            (t.entries[i].slot, t.branches(i))
        };
        assert_eq!(explicit(16), (16, &[hop(16)][..]));
        assert_eq!(explicit(20), (99, &[hop(99)][..]));
        assert_eq!(explicit(500_007), (u32::MAX, &[hop(7), hop(8)][..]));
        assert_eq!(explicit(700_000), (7, &[hop(7)][..]));
        for l in [0u32, 17, 22, 500_008] {
            assert!(t.find(r, Label(l)).is_none(), "label {l}");
        }
    }

    #[test]
    fn explicit_entry_overrides_the_computed_one() {
        let (net, [_, a, _, c, _]) = line_net();
        let mut cp = ControlPlane::build(&net).unwrap();
        let slot = cp.loopback_slot(c).unwrap();
        let Some(LabelValue::Real(la)) = cp.advertised(a, slot) else {
            panic!("a should advertise a real label");
        };
        assert_eq!(cp.ldp_fec(a, la), Some(slot));
        let before: Vec<Label> = cp.lfib_entries(a).map(|(l, _)| l).collect();
        let nexthops = vec![LfibHop {
            iface: 0,
            next: net.router(a).ifaces[0].peer,
            action: LabelAction::Pop,
        }];
        cp.inject_lfib_entry(a, la, LfibEntry { slot: 7, nexthops });
        let e = cp.lfib_entry(a, la).unwrap();
        assert!(!e.is_derived());
        assert_eq!(e.slot, 7);
        // Same labels, the overridden one now explicit.
        let after: Vec<(Label, bool)> = cp
            .lfib_entries(a)
            .map(|(l, e)| (l, e.is_derived()))
            .collect();
        let want: Vec<(Label, bool)> = before.iter().map(|&l| (l, l != la)).collect();
        assert_eq!(after, want);
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
        let slot = cp.loopback_slot(c).unwrap();
        let LabelValue::Real(lb) = cp.advertised(b, slot).unwrap() else {
            panic!()
        };
        let entry = cp.lfib_entry(b, lb).unwrap();
        assert_eq!(entry.branch(0).action, LabelAction::SwapExplicitNull);
        let _ = a;
    }
}
