//! The forwarding engine: moves packets through the network applying
//! vendor-accurate IP/MPLS TTL semantics.
//!
//! The TTL rules implemented here reproduce, bit for bit, the emulation
//! outputs of the paper's Fig. 4 (all four configurations, including the
//! bracketed return TTLs):
//!
//! * an originating router does **not** decrement its own packets;
//! * a forwarding router decrements the IP-TTL only for **unlabeled**
//!   packets; expiry (decrement to 0) elicits a time-exceeded whose
//!   source is the **incoming interface** address;
//! * the ingress push sets LSE-TTL to the (already decremented) IP-TTL
//!   when `ttl-propagate` is on, and to 255 otherwise (RFC 3443);
//! * LSRs decrement only the top LSE-TTL; on expiry the time-exceeded
//!   reply is first label-switched **to the end of the LSP** (with a
//!   fresh 255 LSE-TTL) unless the generator is the penultimate hop;
//! * popping the last label (PHP at the penultimate hop, or explicit
//!   null at a UHP egress) applies `IP-TTL ← min(IP-TTL, LSE-TTL)` and
//!   forwards **without** an IP decrement;
//! * a UHP egress receiving explicit null decrements the LSE-TTL (so
//!   visible UHP tunnels still reveal the egress) before popping.
//!
//! # Execution model
//!
//! [`Engine::send`] walks one probe through its round trip in three
//! plain steps: the forward leg, building the reply the probe elicits
//! (echo-reply, time-exceeded or unreachable), then the reply's return
//! leg. Each leg is a loop over one router visit at a time until the
//! packet is delivered, elicits an ICMP reply, or is dropped. That is
//! the only walk; [`Engine::send_batch`] is a convenience loop over
//! it.
//!
//! One leg state carries the whole round trip. The reply is written
//! over the probe in place, and the same state is reset in place for
//! the return leg, so a send builds no second packet, leg state or
//! path buffer; path buffers exist only while ground-truth recording
//! is on. The return leg is bound for the probe's source: when that is
//! the origin's own loopback (every probe a `Session` sends) its route
//! cache is filled from the origin directly, with no address lookup.
//! Most of a campaign's probes are one-hop bootstrap traces that die
//! at the vantage point itself, so this fixed part of a send, not the
//! per-hop walk, is what bounds them.
//!
//! A Paris traceroute holds everything that picks a probe's forward
//! path constant, so the probe at TTL t+1 retraces, visit for visit,
//! the path the probe at TTL t took. The probe state remembers the
//! last forward leg, and the next probe of the same trace resumes it
//! just before the visit where it ended, with its TTLs lifted and the
//! wire faults of the crossings before that point drawn again in order
//! (`Engine::run_resumed` has the exactness argument). The forward
//! work of an L-hop trace so grows as L instead of L². Return legs are
//! always walked from the replier.
//!
//! All per-hop state the walk consults lives in the
//! [`ControlPlane`]'s dense walk tables — flag bytes, vendor TTLs and
//! flat interface records — and in the [`Network`]'s paged
//! address→owner index, so the steady-state walk performs no hashing
//! and never dereferences the heavyweight `Router` objects.

use crate::addr::Addr;
use crate::control::{walk, ControlPlane, ExtRoute, LabelAction};
use crate::fault::FaultPlan;
use crate::ids::{Label, LinkId, RouterId};
use crate::net::Network;
use crate::packet::{IcmpPayload, LabelStack, Lse, Packet};
use crate::state::ProbeState;
use crate::substrate::SubstrateRef;
use rand::Rng;

/// Hard cap on router visits per packet (loop guard).
const MAX_VISITS: usize = 255;

/// Counters kept by the engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Probes injected via [`Engine::send`].
    pub probes: u64,
    /// Wire crossings (a proxy for simulated traffic volume).
    pub crossings: u64,
    /// Replies delivered back to the prober.
    pub replies: u64,
    /// Probes lost for any reason.
    pub lost: u64,
    /// Heap allocations the engine performed on behalf of packets —
    /// charged once per leg, for its path-recording buffer. Packets,
    /// label stacks and ICMP payloads are inline `Copy` data, so with
    /// path recording off ([`Engine::set_record_paths`]) this stays at
    /// zero: the steady-state walk never touches the heap.
    pub heap_allocs: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters into this one. Every field
    /// is a plain sum, so aggregating a fleet of per-worker engines is
    /// order-independent — the campaign relies on that to report one
    /// deterministic total at any job count.
    pub fn merge(&mut self, other: &EngineStats) {
        self.probes += other.probes;
        self.crossings += other.crossings;
        self.replies += other.replies;
        self.lost += other.lost;
        self.heap_allocs += other.heap_allocs;
    }
}

/// The kind of reply observed by the prober.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReplyKind {
    /// ICMP echo-reply (probe reached its destination).
    EchoReply,
    /// ICMP time-exceeded.
    TimeExceeded,
    /// ICMP destination-unreachable.
    DestUnreachable,
}

/// Everything the prober observes about a reply, plus simulator ground
/// truth for validation (`fwd_path`/`ret_path` — never consulted by the
/// measurement techniques).
#[derive(Clone, Debug)]
pub struct ReplyInfo {
    /// Reply kind.
    pub kind: ReplyKind,
    /// The reply's IP source address (for time-exceeded: the incoming
    /// interface of the replying router).
    pub from: Addr,
    /// The reply's IP-TTL as received by the prober — the bracketed
    /// value of the paper's Fig. 4, input to FRPLA and RTLA.
    pub ip_ttl: u8,
    /// RFC 4950 quoted label stack, if any.
    pub mpls_ext: LabelStack,
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Ground truth: the router that generated the reply. Unlike the
    /// path vectors this is always recorded — it is a single `Copy` id.
    pub replier: RouterId,
    /// Ground truth: routers the probe traversed (starting at the
    /// origin, ending at the replying/delivering router). Empty when
    /// path recording is off ([`Engine::set_record_paths`]).
    pub fwd_path: Vec<RouterId>,
    /// Ground truth: routers the reply traversed. Empty when path
    /// recording is off ([`Engine::set_record_paths`]).
    pub ret_path: Vec<RouterId>,
}

/// Why a probe produced no reply.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Random loss on a link.
    Loss,
    /// No route towards the destination (and no unreachable generated).
    NoRoute,
    /// The router at the expiry point is configured silent, or is
    /// persistently silent under the fault plan.
    Silent,
    /// ICMP generation suppressed (memoryless rate limiting).
    IcmpSuppressed,
    /// ICMP generation denied by a per-router token-bucket rate
    /// limiter ([`crate::fault::RateLimit`]).
    RateLimited,
    /// The link was down under the fault plan's flap schedule.
    LinkDown,
    /// Loop guard tripped.
    Loop,
    /// A label arrived at a router without a matching LFIB entry.
    BadLabel,
    /// A reply itself expired or failed to come back.
    ReplyLost,
}

/// Outcome of a probe.
#[derive(Clone, Debug)]
pub enum SendOutcome {
    /// A reply came back to the prober.
    Reply(ReplyInfo),
    /// Nothing came back.
    Lost {
        /// Where the probe (or its reply) died, if known.
        at: Option<RouterId>,
        /// Why.
        reason: DropReason,
    },
}

impl SendOutcome {
    /// The reply, if any.
    pub fn reply(&self) -> Option<&ReplyInfo> {
        match self {
            SendOutcome::Reply(r) => Some(r),
            SendOutcome::Lost { .. } => None,
        }
    }
}

/// How one leg ended. The packet itself stays in the [`LegState`]: a
/// leg that ends in an ICMP reply has already written the reply over
/// the packet it answers.
enum Leg {
    /// The packet reached the router owning its destination.
    Delivered { at: RouterId },
    /// `at` answered with an ICMP error, now in the leg's packet.
    Reply {
        at: RouterId,
        /// `Some((iface, next))` when the reply must be injected
        /// directly on the wire (label-switched to the tunnel end).
        first_hop: Option<(u32, RouterId)>,
    },
    /// The packet died at `at`.
    Dropped { at: RouterId, reason: DropReason },
}

struct NextHop {
    iface: u32,
    next: RouterId,
    push: Option<Label>,
    /// The FEC `next` advertised `push` for, when LDP chose the label.
    fec: Option<u32>,
}

/// Per-leg destination route cache. A packet's destination is fixed
/// for the whole leg, so everything derived from it is paid once per
/// leg — not at every hop. Resolution is pure dense-table arithmetic:
/// the owner comes from the [`Network`]'s paged address→owner index
/// (three array loads, no hashing), and the one O(degree) scan the
/// engine used to run *per hop* — "is the destination my directly
/// connected neighbor's interface?" — collapses to a precomputed
/// `(router, iface, next)` triple: a non-loopback destination address
/// sits on exactly one link, so the only router whose connected scan
/// can ever succeed is that link's far side.
#[derive(Clone, Copy, Debug)]
struct DstCache {
    resolved: bool,
    owner: Option<RouterId>,
    /// The owner's raw AS index (`u32::MAX` = none) for branch-free
    /// same-AS comparisons against [`ControlPlane::router_as_raw`].
    dst_as_raw: u32,
    dst_idx: Option<usize>,
    /// The destination's FIB slot inside its own AS table — the only
    /// table `decide` ever matches it against.
    slot: Option<u32>,
    /// `(router, iface, next)` of the unique connected hop that
    /// delivers to a non-loopback destination; `None` for loopbacks.
    conn: Option<(RouterId, u32, RouterId)>,
}

impl DstCache {
    fn new() -> DstCache {
        DstCache {
            resolved: false,
            owner: None,
            dst_as_raw: u32::MAX,
            dst_idx: None,
            slot: None,
            conn: None,
        }
    }

    /// The router owning `dst`, resolved once per leg via the dense
    /// owner index. Also fixes the destination's AS, its own-AS FIB
    /// slot, and the unique connected hop for non-loopback addresses.
    /// The hot path is the memoized hit — one predictable branch and a
    /// field read per visit; the once-per-leg fill stays out of line.
    #[inline]
    fn resolve(&mut self, sub: SubstrateRef<'_>, dst: Addr) -> Option<RouterId> {
        if !self.resolved {
            self.fill(sub, dst);
        }
        self.owner
    }

    /// The cache for `owner`'s own loopback, resolved up front from the
    /// router itself: exactly what [`DstCache::fill`] derives for that
    /// address, without the owner-index lookup.
    fn own_loopback(sub: SubstrateRef<'_>, owner: RouterId) -> DstCache {
        DstCache {
            resolved: true,
            owner: Some(owner),
            dst_as_raw: sub.cp.router_as_raw(owner),
            dst_idx: sub.cp.router_as_index(owner),
            slot: sub.cp.loopback_slot(owner),
            conn: None,
        }
    }

    #[inline(never)]
    fn fill(&mut self, sub: SubstrateRef<'_>, dst: Addr) {
        self.resolved = true;
        self.owner = sub.net.owner(dst);
        if let Some(o) = self.owner {
            self.dst_as_raw = sub.cp.router_as_raw(o);
            self.dst_idx = sub.cp.router_as_index(o);
            if sub.cp.loopback_addr(o) == dst {
                self.slot = sub.cp.loopback_slot(o);
            } else {
                let ifaces = sub.cp.walk_ifaces(o);
                if let Some(idx) = ifaces.iter().position(|i| i.addr == dst) {
                    self.slot = sub.cp.iface_slot(o, idx);
                    // The far side of the destination's link is the
                    // one router that can deliver it as a connected
                    // neighbor (the builder assigns every address
                    // exactly once).
                    let link = sub.net.link(ifaces[idx].link);
                    let far = if link.a.router == o { link.b } else { link.a };
                    self.conn = Some((far.router, far.iface, o));
                }
            }
        }
    }
}

/// A probe's whole round trip: the packet in motion plus everything
/// the per-hop step reads. The probe's forward leg runs in it; the
/// reply it elicits is written over the probe in `pkt`, and
/// [`LegState::turn`] resets the state in place for the return leg.
struct LegState {
    pkt: Packet,
    /// The FEC slot `cur` advertised the top label for, when this walk
    /// took that label from LDP one hop back: the LFIB lookup at `cur`
    /// then skips inverting the label.
    fec: Option<(Label, u32)>,
    /// Whether a `ttl-propagate` router pushed the top label, so that
    /// its LSE-TTL moves with the IP-TTL the probe was sent with.
    lse_tracks_ip: bool,
    /// Whether the leg's wire crossings are logged in the
    /// [`LastLeg`] (remembered forward legs only).
    remembered: bool,
    cur: RouterId,
    in_iface_addr: Option<Addr>,
    via_wire: bool,
    visits: usize,
    dst: DstCache,
    /// The current leg's ground-truth router path. It stays empty, and
    /// never allocates, while path recording is off.
    path: Vec<RouterId>,
}

impl LegState {
    /// A probe sitting at `origin`, its forward leg not yet started.
    fn new(origin: RouterId, pkt: Packet) -> LegState {
        LegState {
            pkt,
            fec: None,
            lse_tracks_ip: false,
            remembered: false,
            cur: origin,
            in_iface_addr: None,
            via_wire: false,
            visits: 0,
            dst: DstCache::new(),
            path: Vec::new(),
        }
    }

    /// Restarts the state for the return leg: the reply in `pkt` sits
    /// at its generator `at`, bound for the destination `dst` resolves.
    fn turn(&mut self, at: RouterId, dst: DstCache) {
        self.fec = None;
        self.remembered = false;
        self.cur = at;
        self.in_iface_addr = None;
        self.via_wire = false;
        self.visits = 0;
        self.dst = dst;
    }

    /// Where the walk stands: the fields a forward leg changes from
    /// visit to visit.
    fn cursor(&self) -> Cursor {
        Cursor {
            ip_ttl: self.pkt.ip_ttl,
            stack: self.pkt.stack,
            fec: self.fec,
            lse_tracks_ip: self.lse_tracks_ip,
            cur: self.cur,
            in_iface_addr: self.in_iface_addr,
            via_wire: self.via_wire,
            visits: self.visits,
        }
    }

    /// Puts the walk where `c` stood.
    fn set_cursor(&mut self, c: &Cursor) {
        self.pkt.ip_ttl = c.ip_ttl;
        self.pkt.stack = c.stack;
        self.fec = c.fec;
        self.lse_tracks_ip = c.lse_tracks_ip;
        self.cur = c.cur;
        self.in_iface_addr = c.in_iface_addr;
        self.via_wire = c.via_wire;
        self.visits = c.visits;
    }

    fn drop_here(&self, reason: DropReason) -> Leg {
        Leg::Dropped {
            at: self.cur,
            reason,
        }
    }
}

/// The [`LegState`] fields a forward leg changes from visit to visit.
/// The rest stays fixed until the visit that ends the leg: the probe's
/// addresses, flow and payload, and the destination cache, which only
/// fills. The elapsed time is left out: a resumed probe adds up its own.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    ip_ttl: u8,
    stack: LabelStack,
    fec: Option<(Label, u32)>,
    lse_tracks_ip: bool,
    cur: RouterId,
    in_iface_addr: Option<Addr>,
    via_wire: bool,
    visits: usize,
}

/// What fixes a probe's forward path, hop for hop, when no router
/// salts its ECMP hash per probe: Paris traceroute holds all of it
/// constant over a trace, so only the TTL and the sequence number
/// change from one probe to the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PathKey {
    origin: RouterId,
    src: Addr,
    dst: Addr,
    flow: u16,
    id: u16,
}

/// The forward leg of the last probe a [`ProbeState`] sent that can be
/// resumed: the next probe with the same [`PathKey`] and a TTL no lower
/// takes the same path up to where this leg ended, so [`Engine::send`]
/// starts it there instead of at the origin.
#[derive(Clone, Debug, Default)]
pub(crate) struct LastLeg {
    /// The key and TTL of the probe that walked the leg, and the leg's
    /// destination cache; `None` when nothing is remembered.
    probe: Option<(PathKey, u8, DstCache)>,
    /// Where that probe stood after its last wire crossing, just before
    /// the visit that ended its leg, or at the origin if it crossed
    /// none.
    at: Option<Cursor>,
    /// The wire crossings walked before `at`, in order.
    crossings: Vec<Crossing>,
}

/// One wire crossing of a remembered leg: the router it left and what
/// [`Engine::cross`] reads of the link, so a replay reads no interface
/// table.
#[derive(Clone, Copy, Debug)]
struct Crossing {
    from: RouterId,
    link: LinkId,
    delay_ms: f64,
}

impl LastLeg {
    /// Forgets the leg; the crossing log keeps its allocation.
    pub(crate) fn clear(&mut self) {
        self.probe = None;
        self.at = None;
        self.crossings.clear();
    }

    /// Where a probe with `key` sent at `ttl` resumes: the remembered
    /// cursor, its TTLs lifted by `Δ = ttl − remembered TTL` (see
    /// [`Engine::run_resumed`]), and the destination cache. `None` when
    /// the probe walks from the origin.
    fn resume(&self, key: PathKey, ttl: u8) -> Option<(Cursor, DstCache)> {
        let (k, t, dst) = self.probe?;
        let mut c = self.at?;
        if k != key || ttl < t || usize::from(ttl) + c.visits > 254 {
            return None;
        }
        let lift = ttl - t;
        c.ip_ttl += lift;
        if c.lse_tracks_ip {
            if let Some(top) = c.stack.top_mut() {
                top.ttl += lift;
            }
        }
        Some((c, dst))
    }
}

/// The forwarding engine: an immutable [`SubstrateRef`] (shared
/// topology + routing state) plus an owned, mutable [`ProbeState`]
/// (fault RNG stream and counters). The split is what lets campaign
/// workers run engines concurrently over one substrate with no locks.
pub struct Engine<'a> {
    sub: SubstrateRef<'a>,
    /// Record ground-truth router paths (`fwd_path`/`ret_path` on
    /// [`ReplyInfo`]). On by default for validation; measurement
    /// sessions turn it off, which makes the steady-state packet walk
    /// allocation-free (see [`EngineStats::heap_allocs`]).
    record_paths: bool,
    /// The mutable half: fault plan, RNG stream, counters.
    pub state: ProbeState,
}

impl<'a> Engine<'a> {
    /// A deterministic, fault-free engine.
    pub fn new(net: &'a Network, cp: &'a ControlPlane) -> Engine<'a> {
        Engine::with_faults(net, cp, FaultPlan::none(), 0)
    }

    /// An engine with fault injection, seeded for reproducibility.
    pub fn with_faults(
        net: &'a Network,
        cp: &'a ControlPlane,
        faults: FaultPlan,
        seed: u64,
    ) -> Engine<'a> {
        Engine::over(SubstrateRef::new(net, cp), ProbeState::new(faults, seed))
    }

    /// An engine over a substrate handle with externally-built state —
    /// the constructor campaign workers use. A forward leg the state
    /// remembers from another substrate is forgotten.
    pub fn over(sub: SubstrateRef<'a>, mut state: ProbeState) -> Engine<'a> {
        state.last_leg.clear();
        Engine {
            sub,
            record_paths: true,
            state,
        }
    }

    /// Turns ground-truth path recording (`fwd_path`/`ret_path` on
    /// [`ReplyInfo`]) on or off. It is on by default.
    pub fn set_record_paths(&mut self, record: bool) {
        self.record_paths = record;
    }

    /// The network this engine forwards over.
    pub fn network(&self) -> &'a Network {
        self.sub.net
    }

    /// The substrate handle.
    pub fn substrate(&self) -> SubstrateRef<'a> {
        self.sub
    }

    /// The traffic counters.
    pub fn stats(&self) -> &EngineStats {
        &self.state.stats
    }

    /// Advances the worker's virtual clock by `ms` — retry backoff in
    /// virtual time. Rate-limiter buckets refill and flap schedules
    /// progress against this clock, so backing off genuinely trades
    /// probing time for reply budget.
    pub fn wait(&mut self, ms: f64) {
        self.state.wait(ms);
    }

    /// Sends `pkt` from `origin` and runs the simulation to completion:
    /// the forward leg, the reply it elicits, then the reply's return
    /// leg. A Paris probe resumes the forward leg the previous probe of
    /// its trace walked.
    pub fn send(&mut self, origin: RouterId, pkt: Packet) -> SendOutcome {
        assert!(pkt.ip_ttl >= 1, "probes need a TTL of at least 1");
        self.state.stats.probes += 1;
        self.state.tick_probe();
        let probe_src = pkt.src;

        let mut f = LegState::new(origin, pkt);
        self.start_path(&mut f);
        let end = match self.path_key(origin, &pkt) {
            Some(key) => self.run_resumed(&mut f, key),
            None => self.run_leg(&mut f),
        };
        let (kind, at, first_hop) = match end {
            // Probe reached its destination: echo requests elicit an
            // echo-reply; anything else just sinks.
            Leg::Delivered { at } => match self.echo_reply(at, &mut f.pkt) {
                Ok(()) => (ReplyKind::EchoReply, at, None),
                Err(reason) => return self.lost(Some(at), reason),
            },
            Leg::Reply { at, first_hop } => {
                // `f.pkt` holds what `icmp_expired` or
                // `icmp_unreachable` wrote over the probe.
                let kind = match f.pkt.payload {
                    IcmpPayload::DestUnreachable { .. } => ReplyKind::DestUnreachable,
                    _ => ReplyKind::TimeExceeded,
                };
                (kind, at, first_hop)
            }
            Leg::Dropped { at, reason } => return self.lost(Some(at), reason),
        };

        // The return leg: the reply, already in `f.pkt`, goes back to
        // the probe's source. A probe sent from the origin's own
        // loopback (every `Session` probe) resolves that destination
        // from the origin itself; any other source goes through the
        // owner index. Either way the leg delivers only at the router
        // owning the probe source.
        let from = f.pkt.src;
        let fwd_path = std::mem::take(&mut f.path);
        let dst = if probe_src == self.sub.cp.loopback_addr(origin) {
            DstCache::own_loopback(self.sub, origin)
        } else {
            DstCache::new()
        };
        f.turn(at, dst);
        self.start_path(&mut f);
        if let Some((iface, next)) = first_hop {
            // Label-switched replies skip the replier's forwarding
            // decision and go straight onto the wire.
            if let Some(Leg::Dropped { at, reason }) = self.hop(&mut f, iface, next) {
                return self.lost(Some(at), reason);
            }
        }
        match self.run_leg(&mut f) {
            Leg::Delivered { .. } => {
                self.state.stats.replies += 1;
                // The quoted stack is inline `Copy` data — no clone.
                let mpls_ext = match f.pkt.payload {
                    IcmpPayload::TimeExceeded { mpls_ext, .. } => mpls_ext,
                    _ => LabelStack::empty(),
                };
                SendOutcome::Reply(ReplyInfo {
                    kind,
                    from,
                    ip_ttl: f.pkt.ip_ttl,
                    mpls_ext,
                    rtt_ms: f.pkt.elapsed_ms,
                    replier: at,
                    fwd_path,
                    ret_path: f.path,
                })
            }
            Leg::Reply { at: died, .. } => self.lost(Some(died), DropReason::ReplyLost),
            Leg::Dropped { at: died, reason } => self.lost(Some(died), reason),
        }
    }

    /// Sends every packet in `pkts` from `origin`, appending one
    /// outcome per packet (in input order) to `out`. Exactly a
    /// [`Engine::send`] loop: outcomes, [`EngineStats`] and the virtual
    /// clock are those of sending the packets one by one.
    pub fn send_batch(&mut self, origin: RouterId, pkts: &[Packet], out: &mut Vec<SendOutcome>) {
        out.extend(pkts.iter().map(|&p| self.send(origin, p)));
    }

    fn lost(&mut self, at: Option<RouterId>, reason: DropReason) -> SendOutcome {
        self.state.stats.lost += 1;
        SendOutcome::Lost { at, reason }
    }

    /// Starts the leg's ground-truth path at its current router when
    /// path recording is on, charging the leg's one heap allocation.
    /// With recording off the path stays an unallocated `Vec::new()`,
    /// so the whole walk is heap-free.
    fn start_path(&mut self, f: &mut LegState) {
        if self.record_paths {
            self.state.stats.heap_allocs += 1;
            f.path.reserve(8);
            f.path.push(f.cur);
        }
    }

    /// Steps `f` one router visit at a time until its leg ends.
    fn run_leg(&mut self, f: &mut LegState) -> Leg {
        loop {
            if let Some(end) = self.leg_step(f) {
                return end;
            }
        }
    }

    /// The key of `pkt`'s forward path when the probe may resume a
    /// remembered leg: an echo request, with no ground-truth path to
    /// record and no router that salts its ECMP hash per probe.
    fn path_key(&self, origin: RouterId, pkt: &Packet) -> Option<PathKey> {
        let IcmpPayload::EchoRequest { id, .. } = pkt.payload else {
            return None;
        };
        if self.record_paths || self.state.faults.non_paris.is_some() {
            return None;
        }
        Some(PathKey {
            origin,
            src: pkt.src,
            dst: pkt.dst,
            flow: pkt.flow,
            id,
        })
    }

    /// Runs the forward leg of the probe in `f`, whose path `key`
    /// fixes, and remembers it in the state's [`LastLeg`].
    ///
    /// When the last leg has the same key and a TTL `Δ` no higher, this
    /// probe takes the same path up to the visit that ended that leg:
    /// every router on the way made the same choice, and no TTL it
    /// checked could have expired sooner. So the walk restarts from the
    /// remembered state, lifted by `Δ`: the IP-TTL always moves by
    /// `Δ`, and the top LSE-TTL too when a `ttl-propagate` router
    /// pushed it (RFC 3443 copies the IP-TTL then; otherwise it starts
    /// at 255 whatever the probe's TTL). Popping the last label takes
    /// `min(IP-TTL, LSE-TTL − 1)`, which stays the IP-TTL on both
    /// probes as long as TTL + visits ≤ 254; past that the leg is walked
    /// from the origin. The remembered crossings are crossed again in order
    /// ([`Engine::cross`]: link flaps at this probe's clock, loss and
    /// jitter drawn from the same stream a full walk draws from), and
    /// no other part of a visit that does not end the leg draws from
    /// the fault plan or the clock.
    fn run_resumed(&mut self, f: &mut LegState, key: PathKey) -> Leg {
        let ttl = f.pkt.ip_ttl;
        f.remembered = true;
        let replayed = match self.state.last_leg.resume(key, ttl) {
            Some((at, dst)) => {
                f.set_cursor(&at);
                f.dst = dst;
                let n = self.state.last_leg.crossings.len();
                for i in 0..n {
                    let c = self.state.last_leg.crossings[i];
                    if let Err(reason) = self.cross(c.link, c.delay_ms, &mut f.pkt.elapsed_ms) {
                        return Leg::Dropped { at: c.from, reason };
                    }
                }
                n
            }
            None => {
                let last = &mut self.state.last_leg;
                last.probe = None;
                last.at = Some(f.cursor());
                last.crossings.clear();
                0
            }
        };
        // `hop` logs each crossing and the cursor after it.
        let end = self.run_leg(f);
        let last = &mut self.state.last_leg;
        // A resumed probe that crossed nothing ended where the last leg
        // did, which so stays as remembered.
        if last.probe.is_none() || last.crossings.len() > replayed {
            last.probe = Some((key, ttl, f.dst));
        }
        end
    }

    /// One router visit: moves the leg's packet forward by one hop, or
    /// ends the leg (`Some`) with delivery, an ICMP reply, or a drop.
    fn leg_step(&mut self, f: &mut LegState) -> Option<Leg> {
        f.visits += 1;
        if f.visits > MAX_VISITS {
            return Some(f.drop_here(DropReason::Loop));
        }
        let cur = f.cur;
        let flags = self.sub.cp.router_flags(cur);
        let mut skip_decrement = false;

        // --- MPLS processing ---------------------------------------
        if f.via_wire && f.pkt.is_labeled() {
            // A labeled packet with an empty stack is malformed;
            // treat it as a bad label instead of panicking.
            let Some(&top) = f.pkt.stack.top() else {
                return Some(f.drop_here(DropReason::BadLabel));
            };
            if top.label == Label::EXPLICIT_NULL {
                // UHP egress, RFC 3443 short-pipe semantics (what
                // reproduces the paper's Fig. 4d): the LSE-TTL is
                // discarded — no `min` copy — and the egress charges
                // the tunnel's single IP decrement *without* an
                // expiry check (a 0-TTL packet is still handed to
                // the final hop, where it is delivered or expires).
                f.pkt.stack.pop();
                if !f.pkt.stack.is_empty() {
                    // Nested stacks are outside our LDP model.
                    return Some(f.drop_here(DropReason::BadLabel));
                }
                if f.dst.resolve(self.sub, f.pkt.dst) != Some(cur) {
                    f.pkt.ip_ttl = f.pkt.ip_ttl.saturating_sub(1);
                }
                skip_decrement = true;
                // fall through to IP processing
            } else {
                let entry = match f.fec.take() {
                    Some((label, slot)) if label == top.label => {
                        self.sub.cp.lfib_entry_for(cur, label, slot)
                    }
                    _ => self.sub.cp.lfib_entry(cur, top.label),
                };
                let Some(entry) = entry else {
                    return Some(f.drop_here(DropReason::BadLabel));
                };
                if entry.is_empty() {
                    return Some(f.drop_here(DropReason::BadLabel));
                }
                let hop = entry.branch(pick_index(
                    entry.len(),
                    f.pkt.flow,
                    self.ecmp_salt(cur, &f.pkt),
                ));
                if top.ttl <= 1 {
                    // LSE expiry: the reply is label-switched to the
                    // end of the LSP unless we are the penultimate
                    // hop (whose action pops the last label).
                    let downstream = match hop.action {
                        LabelAction::Swap(l) => Some((l, hop.iface, hop.next)),
                        LabelAction::SwapExplicitNull => {
                            Some((Label::EXPLICIT_NULL, hop.iface, hop.next))
                        }
                        LabelAction::Pop => None,
                    };
                    return Some(self.icmp_expired(f, downstream));
                }
                match hop.action {
                    LabelAction::Swap(l) => {
                        if let Some(lse) = f.pkt.stack.top_mut() {
                            lse.ttl -= 1;
                            lse.label = l;
                        }
                        if entry.is_derived() {
                            f.fec = Some((l, entry.slot));
                        }
                    }
                    LabelAction::SwapExplicitNull => {
                        if let Some(lse) = f.pkt.stack.top_mut() {
                            lse.ttl -= 1;
                            lse.label = Label::EXPLICIT_NULL;
                        }
                    }
                    LabelAction::Pop => {
                        if let Some(lse) = f.pkt.stack.pop() {
                            if f.pkt.stack.is_empty() && flags & walk::MIN_ON_EXIT != 0 {
                                f.pkt.ip_ttl = f.pkt.ip_ttl.min(lse.ttl.saturating_sub(1));
                            }
                        }
                    }
                }
                return self.hop(f, hop.iface, hop.next);
            }
        }

        // --- IP processing ------------------------------------------
        // Addresses are owned by exactly one router, so the cached
        // owner *is* the "does this router own the destination?" check,
        // without the per-hop interface scan.
        if f.dst.resolve(self.sub, f.pkt.dst) == Some(cur) {
            return Some(Leg::Delivered { at: cur });
        }
        if f.via_wire && !skip_decrement {
            if f.pkt.ip_ttl <= 1 {
                return Some(self.icmp_expired(f, None));
            }
            f.pkt.ip_ttl -= 1;
        }
        let nh = match self.decide(cur, &f.pkt, &mut f.dst) {
            Some(nh) => nh,
            None => return Some(self.icmp_unreachable(f)),
        };
        if let Some(label) = nh.push {
            debug_assert!(f.pkt.stack.is_empty());
            let lse_ttl = if flags & walk::TTL_PROPAGATE != 0 {
                f.pkt.ip_ttl
            } else {
                255
            };
            f.pkt.stack.push(Lse::new(label, lse_ttl));
            f.lse_tracks_ip = flags & walk::TTL_PROPAGATE != 0;
            f.fec = nh.fec.map(|slot| (label, slot));
        }
        self.hop(f, nh.iface, nh.next)
    }

    /// Moves `f`'s packet out of `f.cur`'s `iface` onto `next`, or ends
    /// the leg where the wire dropped it. Reads only the control plane's
    /// flat interface records — link id, delay and the peer's address
    /// are inlined there at plane-build time.
    fn hop(&mut self, f: &mut LegState, iface: u32, next: RouterId) -> Option<Leg> {
        let from = f.cur;
        let wi = self.sub.cp.walk_ifaces(from)[iface as usize];
        if let Err(reason) = self.cross(wi.link, wi.delay_ms, &mut f.pkt.elapsed_ms) {
            return Some(f.drop_here(reason));
        }
        if self.record_paths {
            f.path.push(next);
        }
        f.cur = next;
        f.in_iface_addr = Some(wi.peer_addr);
        f.via_wire = true;
        if f.remembered {
            let last = &mut self.state.last_leg;
            last.crossings.push(Crossing {
                from,
                link: wi.link,
                delay_ms: wi.delay_ms,
            });
            last.at = Some(f.cursor());
        }
        None
    }

    /// Crosses `link`, adding its one-way `delay_ms` to `elapsed_ms`.
    /// The one place a crossing meets the fault plan, in a fixed order:
    /// the flap check, the loss draw, the delay, the jitter draw. A
    /// resumed leg replays its remembered crossings through it too.
    #[inline]
    fn cross(
        &mut self,
        link: LinkId,
        delay_ms: f64,
        elapsed_ms: &mut f64,
    ) -> Result<(), DropReason> {
        self.state.stats.crossings += 1;
        if let Some(fl) = self.state.faults.flaps {
            if fl.is_down(link, self.state.now_ms) {
                return Err(DropReason::LinkDown);
            }
        }
        if self.state.faults.loss > 0.0
            && self.state.rng.get().gen::<f64>() < self.state.faults.loss
        {
            return Err(DropReason::Loss);
        }
        *elapsed_ms += delay_ms;
        if self.state.faults.jitter_ms > 0.0 {
            *elapsed_ms += self.state.rng.get().gen::<f64>() * self.state.faults.jitter_ms;
        }
        Ok(())
    }

    /// The initial TTL of an ICMP packet originated at `cur`: the
    /// control plane's honest vendor value, unless the fault plan's
    /// quoted-TTL spoof covers `cur` (`kind`: 0 = time-exceeded /
    /// unreachable, 1 = echo-reply).
    fn reply_init_ttl(&self, cur: RouterId, kind: u8, key: u64) -> u8 {
        let honest = if kind == 0 {
            self.sub.cp.te_init_ttl(cur)
        } else {
            self.sub.cp.er_init_ttl(cur)
        };
        match self.state.faults.ttl_spoof {
            Some(t) => t.initial_ttl(cur, kind, key, honest),
            None => honest,
        }
    }

    /// The ECMP salt at `cur` for `pkt`: the router id, perturbed per
    /// probe when the fault plan makes `cur` a non-Paris load balancer
    /// (the perturbation is zero for every honest router, so the flow
    /// hash is untouched on honest paths).
    fn ecmp_salt(&self, cur: RouterId, pkt: &Packet) -> u32 {
        match self.state.faults.non_paris {
            Some(n) => cur.0 ^ n.probe_salt(cur, probe_key(pkt)),
            None => cur.0,
        }
    }

    /// Whether `cur`'s AS hides the interior interface `dst` — the
    /// egress-hiding deception. Only router-owned, same-AS, non-loopback
    /// addresses are hidden: host targets and loopback pings stay
    /// honest, so ordinary traceroutes still complete.
    fn hides_egress(&self, cur: RouterId, dst: Addr) -> bool {
        let Some(eh) = self.state.faults.egress_hide else {
            return false;
        };
        let asn = self.sub.cp.router_as_raw(cur);
        if !eh.hides(asn) {
            return false;
        }
        let Some(owner) = self.sub.net.owner(dst) else {
            return false;
        };
        self.sub.cp.router_as_raw(owner) == asn
            && self.sub.cp.router_flags(owner) & walk::IS_HOST == 0
            && self.sub.cp.loopback_addr(owner) != dst
    }

    /// Answers an echo request delivered at `at` by writing the
    /// echo-reply over it, or says why `at` stays silent.
    fn echo_reply(&mut self, at: RouterId, pkt: &mut Packet) -> Result<(), DropReason> {
        let IcmpPayload::EchoRequest { id, seq } = pkt.payload else {
            return Err(DropReason::ReplyLost);
        };
        let flags = self.sub.cp.router_flags(at);
        if flags & walk::REPLIES == 0
            || (flags & walk::IS_HOST == 0 && self.state.faults.is_persistently_silent(at))
            || self.hides_egress(at, pkt.dst)
        {
            return Err(DropReason::Silent);
        }
        if !self.state.allow_er(at, flags & walk::MPLS != 0) {
            return Err(DropReason::RateLimited);
        }
        *pkt = Packet {
            src: pkt.dst,
            dst: pkt.src,
            ip_ttl: self.reply_init_ttl(at, 1, probe_key(pkt)),
            flow: pkt.flow,
            payload: IcmpPayload::EchoReply { id, seq },
            stack: LabelStack::empty(),
            elapsed_ms: pkt.elapsed_ms,
        };
        Ok(())
    }

    /// Ends the leg at `f.cur`, where `f.pkt` expired: writes the
    /// time-exceeded over it, or drops it.
    ///
    /// `downstream` carries the label and wire hop when the reply must
    /// first be label-switched to the end of the LSP.
    fn icmp_expired(
        &mut self,
        f: &mut LegState,
        downstream: Option<(Label, u32, RouterId)>,
    ) -> Leg {
        let cur = f.cur;
        let expired = &f.pkt;
        let flags = self.sub.cp.router_flags(cur);
        if expired.payload.is_error() {
            // Never ICMP about ICMP errors.
            return f.drop_here(DropReason::ReplyLost);
        }
        if flags & walk::REPLIES == 0
            || (flags & walk::IS_HOST == 0 && self.state.faults.is_persistently_silent(cur))
            || self.hides_egress(cur, expired.dst)
        {
            return f.drop_here(DropReason::Silent);
        }
        if !self.state.allow_te(cur, flags & walk::MPLS != 0) {
            return f.drop_here(DropReason::RateLimited);
        }
        if self.state.faults.icmp_loss > 0.0
            && self.state.rng.get().gen::<f64>() < self.state.faults.icmp_loss
        {
            return f.drop_here(DropReason::IcmpSuppressed);
        }
        let (quoted_id, quoted_seq) = match expired.payload {
            IcmpPayload::EchoRequest { id, seq } => (id, seq),
            _ => (0, 0),
        };
        // RFC 4950 quote: a plain `Copy` of the inline stack.
        let mpls_ext = if flags & walk::RFC4950 != 0 && expired.is_labeled() {
            expired.stack
        } else {
            LabelStack::empty()
        };
        let mut stack = LabelStack::empty();
        let first_hop = downstream.map(|(label, iface, next)| {
            stack.push(Lse::new(label, 255));
            (iface, next)
        });
        f.pkt = Packet {
            src: f
                .in_iface_addr
                .unwrap_or_else(|| self.sub.cp.loopback_addr(cur)),
            dst: expired.src,
            ip_ttl: self.reply_init_ttl(cur, 0, probe_key(expired)),
            flow: expired.flow,
            payload: IcmpPayload::TimeExceeded {
                quoted_id,
                quoted_seq,
                quoted_dst: expired.dst,
                mpls_ext,
            },
            stack,
            elapsed_ms: expired.elapsed_ms,
        };
        Leg::Reply { at: cur, first_hop }
    }

    /// Ends the leg at `f.cur`, which has no route for `f.pkt`: writes
    /// the destination-unreachable over it, or drops it.
    fn icmp_unreachable(&mut self, f: &mut LegState) -> Leg {
        let cur = f.cur;
        let pkt = &f.pkt;
        let flags = self.sub.cp.router_flags(cur);
        if pkt.payload.is_error()
            || flags & walk::REPLIES == 0
            || (flags & walk::IS_HOST == 0 && self.state.faults.is_persistently_silent(cur))
        {
            return f.drop_here(DropReason::NoRoute);
        }
        if !self.state.allow_te(cur, flags & walk::MPLS != 0) {
            return f.drop_here(DropReason::RateLimited);
        }
        let (quoted_id, quoted_seq) = match pkt.payload {
            IcmpPayload::EchoRequest { id, seq } => (id, seq),
            _ => (0, 0),
        };
        f.pkt = Packet {
            src: f
                .in_iface_addr
                .unwrap_or_else(|| self.sub.cp.loopback_addr(cur)),
            dst: pkt.src,
            ip_ttl: self.reply_init_ttl(cur, 0, probe_key(pkt)),
            flow: pkt.flow,
            payload: IcmpPayload::DestUnreachable {
                quoted_id,
                quoted_seq,
            },
            stack: LabelStack::empty(),
            elapsed_ms: pkt.elapsed_ms,
        };
        Leg::Reply {
            at: cur,
            first_hop: None,
        }
    }

    /// The IP forwarding decision at `cur` for `pkt` (stack empty).
    fn decide(&mut self, cur: RouterId, pkt: &Packet, dst: &mut DstCache) -> Option<NextHop> {
        let owner = dst.resolve(self.sub, pkt.dst);
        // Connected /31 neighbor? The one router whose connected scan
        // can succeed was precomputed with the destination (the far
        // side of the destination's link) — an O(1) compare per hop
        // instead of an O(degree) interface scan.
        if let Some((conn_at, iface, next)) = dst.conn {
            if conn_at == cur {
                return Some(NextHop {
                    iface,
                    next,
                    push: None,
                    fec: None,
                });
            }
        }
        let owner = owner?;
        if dst.dst_as_raw == self.sub.cp.router_as_raw(cur) {
            // RSVP-TE autoroute: destinations owned by a tunnel tail
            // enter the tunnel at its head.
            if let Some((iface, next, push)) = self.sub.cp.te_route(cur, owner) {
                return Some(NextHop {
                    iface,
                    next,
                    push,
                    fec: None,
                });
            }
            // The destination's slot in its own AS table — which is
            // exactly this AS — resolved once at plane-build time.
            let slot = dst.slot?;
            self.intra_hop(cur, slot, pkt)
        } else {
            let dst_idx = dst.dst_idx?;
            match self.sub.cp.ext_route(cur, dst_idx) {
                ExtRoute::Unreachable => None,
                ExtRoute::Direct { iface } => Some(NextHop {
                    iface,
                    next: self.sub.cp.walk_ifaces(cur)[iface as usize].peer,
                    push: None,
                    fec: None,
                }),
                ExtRoute::ViaEgress { egress } => {
                    // RSVP-TE autoroute towards the BGP next hop.
                    if let Some((iface, next, push)) = self.sub.cp.te_route(cur, egress) {
                        return Some(NextHop {
                            iface,
                            next,
                            push,
                            fec: None,
                        });
                    }
                    // Otherwise route (and LDP-label-switch) towards
                    // the egress border's loopback; the egress is a
                    // border of this very AS, so its build-time
                    // own-AS slot is the slot to match here.
                    let slot = self.sub.cp.loopback_slot(egress)?;
                    self.intra_hop(cur, slot, pkt)
                }
            }
        }
    }

    fn intra_hop(&self, cur: RouterId, slot: u32, pkt: &Packet) -> Option<NextHop> {
        let entry = self.sub.cp.fib_entry(cur, slot)?;
        let &(iface, next) = pick(entry, pkt.flow, self.ecmp_salt(cur, pkt));
        let (push, fec) = if self.sub.cp.router_flags(cur) & walk::MPLS != 0 {
            match self.sub.cp.advertised(next, slot) {
                Some(crate::ldp::LabelValue::Real(l)) => (Some(l), Some(slot)),
                Some(crate::ldp::LabelValue::ExplicitNull) => (Some(Label::EXPLICIT_NULL), None),
                Some(crate::ldp::LabelValue::ImplicitNull) | None => (None, None),
            }
        } else {
            (None, None)
        };
        Some(NextHop {
            iface,
            next,
            push,
            fec,
        })
    }
}

/// The per-probe identity the deceptive fault hashes key on: the echo
/// `(id, seq)` pair of the probe, or of the probe an ICMP error quotes
/// — so both legs of one probe's flight see the same key.
fn probe_key(pkt: &Packet) -> u64 {
    let (id, seq) = match pkt.payload {
        IcmpPayload::EchoRequest { id, seq } | IcmpPayload::EchoReply { id, seq } => (id, seq),
        IcmpPayload::TimeExceeded {
            quoted_id,
            quoted_seq,
            ..
        }
        | IcmpPayload::DestUnreachable {
            quoted_id,
            quoted_seq,
        } => (quoted_id, quoted_seq),
    };
    (u64::from(id) << 16) | u64::from(seq)
}

/// Deterministic per-flow ECMP choice.
fn pick<T>(options: &[T], flow: u16, salt: u32) -> &T {
    &options[pick_index(options.len(), flow, salt)]
}

/// The index [`pick`] chooses among `len` ECMP options: FNV-1a over
/// flow and salt, modulo `len`.
fn pick_index(len: usize, flow: u16, salt: u32) -> usize {
    debug_assert!(len > 0);
    if len == 1 {
        return 0;
    }
    let mut h: u32 = 0x811c_9dc5;
    for b in flow.to_le_bytes().into_iter().chain(salt.to_le_bytes()) {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h as usize % len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Asn;
    use crate::net::{LinkOpts, Network, NetworkBuilder, RelKind};
    use crate::router::RouterConfig;
    use crate::vendor::{LdpPolicy, PoppingMode, Vendor};

    /// The paper's Fig. 2 line: VP - CE1 |AS1| PE1 - P1 - P2 - P3 - PE2
    /// |AS2, MPLS| - CE2 |AS3|, with a host VP and a host target.
    fn fig2(pe_cfg: RouterConfig, p_cfg: RouterConfig) -> (Network, RouterId, Addr) {
        let mut b = NetworkBuilder::new();
        let vp = b.add_router("VP", Asn(1), RouterConfig::host());
        let ce1 = b.add_router("CE1", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let pe1 = b.add_router("PE1", Asn(2), pe_cfg.clone());
        let p1 = b.add_router("P1", Asn(2), p_cfg.clone());
        let p2 = b.add_router("P2", Asn(2), p_cfg.clone());
        let p3 = b.add_router("P3", Asn(2), p_cfg);
        let pe2 = b.add_router("PE2", Asn(2), pe_cfg);
        let ce2 = b.add_router("CE2", Asn(3), RouterConfig::ip_router(Vendor::CiscoIos));
        for (x, y) in [
            (vp, ce1),
            (ce1, pe1),
            (pe1, p1),
            (p1, p2),
            (p2, p3),
            (p3, pe2),
            (pe2, ce2),
        ] {
            b.link(x, y, LinkOpts::symmetric(10, 1.0));
        }
        b.as_rel(Asn(2), Asn(1), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        let net = b.build().unwrap();
        let target = net.router_by_name("CE2").unwrap().loopback;
        let vp = net.router_by_name("VP").unwrap().id;
        (net, vp, target)
    }

    fn probe(net: &Network, cp: &ControlPlane, vp: RouterId, dst: Addr, ttl: u8) -> SendOutcome {
        let mut eng = Engine::new(net, cp);
        let src = net.router(vp).loopback;
        eng.send(vp, Packet::echo_request(src, dst, ttl, 1, 1, ttl as u16))
    }

    #[test]
    fn visible_tunnel_reveals_all_hops() {
        // Default config: ttl-propagate on → every LSR replies, with
        // RFC4950 label quotes.
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let names: Vec<String> = (1..=7)
            .map(|ttl| {
                let out = probe(&net, &cp, vp, target, ttl);
                let r = out.reply().expect("reply");
                let owner = net.owner(r.from).unwrap();
                net.router(owner).name.clone()
            })
            .collect();
        assert_eq!(names, ["CE1", "PE1", "P1", "P2", "P3", "PE2", "CE2"]);
        // Mid-LSP hops quote their labels.
        let out = probe(&net, &cp, vp, target, 4);
        let r = out.reply().unwrap();
        assert_eq!(r.mpls_ext.len(), 1);
        assert_eq!(r.mpls_ext[0].ttl, 1);
        // Fig 4a return TTLs: P1 247, P2 248, P3 251, PE2 250, CE2 249.
        let ttls: Vec<u8> = (1..=7)
            .map(|ttl| probe(&net, &cp, vp, target, ttl).reply().unwrap().ip_ttl)
            .collect();
        assert_eq!(ttls, [255, 254, 247, 248, 251, 250, 249]);
    }

    #[test]
    fn invisible_tunnel_hides_lsrs() {
        // no-ttl-propagate on the LERs (applied network-wide here, as in
        // the paper's "Backward Recursive" scenario).
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos).no_ttl_propagate();
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let names: Vec<String> = (1..=4)
            .map(|ttl| {
                let out = probe(&net, &cp, vp, target, ttl);
                let owner = net.owner(out.reply().unwrap().from).unwrap();
                net.router(owner).name.clone()
            })
            .collect();
        // Fig 4b: CE1, PE1, PE2, CE2 — LSRs invisible.
        assert_eq!(names, ["CE1", "PE1", "PE2", "CE2"]);
        // Fig 4b return TTLs: [255, 254, 250, 250].
        let ttls: Vec<u8> = (1..=4)
            .map(|ttl| probe(&net, &cp, vp, target, ttl).reply().unwrap().ip_ttl)
            .collect();
        assert_eq!(ttls, [255, 254, 250, 250]);
    }

    #[test]
    fn totally_invisible_with_uhp() {
        // UHP + no-ttl-propagate: even the egress disappears (Fig 4d).
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos)
            .no_ttl_propagate()
            .uhp();
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let names: Vec<String> = (1..=3)
            .map(|ttl| {
                let out = probe(&net, &cp, vp, target, ttl);
                let owner = net.owner(out.reply().unwrap().from).unwrap();
                net.router(owner).name.clone()
            })
            .collect();
        assert_eq!(names, ["CE1", "PE1", "CE2"]);
        let ttls: Vec<u8> = (1..=3)
            .map(|ttl| probe(&net, &cp, vp, target, ttl).reply().unwrap().ip_ttl)
            .collect();
        assert_eq!(ttls, [255, 254, 252]);
    }

    #[test]
    fn ping_round_trip_and_rtt() {
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let out = probe(&net, &cp, vp, target, 64);
        let r = out.reply().unwrap();
        assert_eq!(r.kind, ReplyKind::EchoReply);
        assert_eq!(r.from, target);
        // 7 links each way at 1 ms.
        assert!((r.rtt_ms - 14.0).abs() < 1e-9);
        // Cisco echo-reply initial TTL 255; symmetric return path
        // CE2→PE2 (dec+push 254) →LSP (min 251)→ PE1 (250) → CE1 (249).
        assert_eq!(r.ip_ttl, 249);
    }

    #[test]
    fn unreachable_destination() {
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, _) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let out = probe(&net, &cp, vp, Addr::new(9, 9, 9, 9), 64);
        match out {
            SendOutcome::Reply(r) => assert_eq!(r.kind, ReplyKind::DestUnreachable),
            SendOutcome::Lost { .. } => panic!("expected unreachable reply"),
        }
    }

    #[test]
    fn silent_router_yields_star() {
        let mut b = NetworkBuilder::new();
        let vp = b.add_router("VP", Asn(1), RouterConfig::host());
        let r1 = b.add_router(
            "mute",
            Asn(1),
            RouterConfig::ip_router(Vendor::CiscoIos).silent(),
        );
        let r2 = b.add_router("end", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        b.link(vp, r1, LinkOpts::default());
        b.link(r1, r2, LinkOpts::default());
        let net = b.build().unwrap();
        let cp = ControlPlane::build(&net).unwrap();
        let mut eng = Engine::new(&net, &cp);
        let src = net.router(vp).loopback;
        let dst = net.router(r2).loopback;
        let out = eng.send(vp, Packet::echo_request(src, dst, 1, 1, 1, 1));
        assert!(matches!(
            out,
            SendOutcome::Lost {
                reason: DropReason::Silent,
                ..
            }
        ));
        // But it still forwards.
        let out = eng.send(vp, Packet::echo_request(src, dst, 5, 1, 1, 2));
        assert!(out.reply().is_some());
    }

    #[test]
    fn loss_injection_drops_probes() {
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let mut eng = Engine::with_faults(&net, &cp, FaultPlan::with_loss(0.5).unwrap(), 42);
        let src = net.router(vp).loopback;
        let mut lost = 0;
        for seq in 0..50 {
            let out = eng.send(vp, Packet::echo_request(src, target, 64, 1, 1, seq));
            if out.reply().is_none() {
                lost += 1;
            }
        }
        assert!(lost > 10, "expected substantial loss, got {lost}");
        assert!(eng.stats().lost > 0);
        assert_eq!(eng.stats().probes, 50);
    }

    #[test]
    fn te_rate_limiter_throttles_then_refills() {
        use crate::fault::RateLimit;
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let plan = FaultPlan {
            te_limit: Some(RateLimit {
                per_sec: 1.0,
                burst: 2.0,
                mpls_only: true,
            }),
            ..FaultPlan::default()
        };
        let mut eng = Engine::with_faults(&net, &cp, plan, 0);
        let src = net.router(vp).loopback;
        // TTL 3 expires at P1 (an MPLS LSR): the first two expiries
        // drain its burst, the third is rate limited.
        for seq in 0..2 {
            let out = eng.send(vp, Packet::echo_request(src, target, 3, 1, 1, seq));
            assert!(out.reply().is_some(), "burst token {seq} must pass");
        }
        let out = eng.send(vp, Packet::echo_request(src, target, 3, 1, 1, 2));
        assert!(matches!(
            out,
            SendOutcome::Lost {
                reason: DropReason::RateLimited,
                ..
            }
        ));
        // TTL 2 expires at PE1 — its own bucket is untouched.
        let out = eng.send(vp, Packet::echo_request(src, target, 2, 1, 1, 3));
        assert!(out.reply().is_some());
        // Waiting in virtual time refills P1's bucket.
        eng.wait(2_000.0);
        let out = eng.send(vp, Packet::echo_request(src, target, 3, 1, 1, 4));
        assert!(out.reply().is_some(), "bucket must refill after waiting");
        // The mpls_only limiter never throttles the plain-IP CE1.
        for seq in 10..20 {
            let out = eng.send(vp, Packet::echo_request(src, target, 1, 1, 1, seq));
            assert!(out.reply().is_some());
        }
    }

    #[test]
    fn persistently_silent_router_forwards_but_never_replies() {
        use crate::fault::SilentSet;
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        // Find a salt under which P2 (and only P2, among the routers we
        // probe) is silent, to keep the assertion sharp.
        let p2 = net.router_by_name("P2").unwrap().id;
        let salt = (0u64..)
            .find(|&s| {
                let set = SilentSet {
                    share: 0.12,
                    salt: s,
                };
                set.contains(p2)
                    && !["CE1", "PE1", "P1", "P3", "PE2", "CE2"]
                        .iter()
                        .any(|n| set.contains(net.router_by_name(n).unwrap().id))
            })
            .unwrap();
        let plan = FaultPlan {
            silent: Some(SilentSet { share: 0.12, salt }),
            ..FaultPlan::default()
        };
        let mut eng = Engine::with_faults(&net, &cp, plan, 0);
        let src = net.router(vp).loopback;
        // TTL 4 expires at P2: persistently silent.
        let out = eng.send(vp, Packet::echo_request(src, target, 4, 1, 1, 1));
        assert!(matches!(
            out,
            SendOutcome::Lost {
                reason: DropReason::Silent,
                ..
            }
        ));
        // Deterministic: silent again, not probabilistically.
        let out = eng.send(vp, Packet::echo_request(src, target, 4, 1, 1, 2));
        assert!(out.reply().is_none());
        // Still forwards: the target (a host, exempt from silence)
        // answers through it.
        let out = eng.send(vp, Packet::echo_request(src, target, 64, 1, 1, 3));
        assert_eq!(out.reply().unwrap().kind, ReplyKind::EchoReply);
    }

    #[test]
    fn flapping_link_drops_in_its_down_window() {
        use crate::fault::FlapSchedule;
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let plan = FaultPlan {
            flaps: Some(FlapSchedule {
                share: 1.0,
                salt: 3,
                period_ms: 1_000.0,
                // 10% duty cycle: a 7-hop round trip crosses 14 links,
                // so most probes still die somewhere, but not all.
                down_ms: 100.0,
            }),
            ..FaultPlan::default()
        };
        let mut eng = Engine::with_faults(&net, &cp, plan, 0);
        let src = net.router(vp).loopback;
        let mut down = 0usize;
        for seq in 0..40 {
            let out = eng.send(vp, Packet::echo_request(src, target, 64, 1, 1, seq));
            if matches!(
                out,
                SendOutcome::Lost {
                    reason: DropReason::LinkDown,
                    ..
                }
            ) {
                down += 1;
            }
        }
        assert!(down > 5, "a 50% duty cycle must drop probes, got {down}");
        assert!(down < 40, "links must come back up");
    }

    #[test]
    fn ground_truth_paths_recorded() {
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let out = probe(&net, &cp, vp, target, 64);
        let r = out.reply().unwrap();
        let names: Vec<&str> = r
            .fwd_path
            .iter()
            .map(|&id| net.router(id).name.as_str())
            .collect();
        assert_eq!(names, ["VP", "CE1", "PE1", "P1", "P2", "P3", "PE2", "CE2"]);
        assert_eq!(r.ret_path.first(), Some(&r.fwd_path[7]));
        assert_eq!(r.ret_path.last(), Some(&vp));
    }

    #[test]
    fn walk_is_allocation_free_without_path_recording() {
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let mut eng = Engine::new(&net, &cp);
        eng.set_record_paths(false);
        let src = net.router(vp).loopback;
        for ttl in 1..=7 {
            let out = eng.send(vp, Packet::echo_request(src, target, ttl, 1, 1, ttl as u16));
            assert!(out.reply().is_some());
        }
        assert_eq!(
            eng.stats().heap_allocs,
            0,
            "steady-state walk must not touch the heap"
        );
        // Replies still carry the replier and the RFC 4950 quote, even
        // though the path vectors stay empty.
        let out = eng.send(vp, Packet::echo_request(src, target, 4, 1, 1, 99));
        let r = out.reply().unwrap();
        assert!(r.fwd_path.is_empty());
        assert!(r.ret_path.is_empty());
        assert_eq!(net.router(r.replier).name, "P2");
        assert_eq!(r.mpls_ext.len(), 1);
        // Recording back on: paths return, and the alloc counter moves.
        eng.set_record_paths(true);
        let out = eng.send(vp, Packet::echo_request(src, target, 64, 1, 1, 100));
        let r = out.reply().unwrap();
        assert!(!r.fwd_path.is_empty());
        assert_eq!(eng.stats().heap_allocs, 2, "one path buffer per leg");
    }

    #[test]
    fn flow_pick_is_deterministic() {
        let v = [1, 2, 3, 4];
        let a = pick(&v, 7, 13);
        let b = pick(&v, 7, 13);
        assert_eq!(a, b);
        // Different flows spread over options.
        let mut seen = std::collections::HashSet::new();
        for flow in 0..64 {
            seen.insert(*pick(&v, flow, 13));
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn ttl_spoofing_router_lies_deterministically() {
        use crate::fault::TtlSpoof;
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let src = net.router(vp).loopback;
        let p2 = net.router_by_name("P2").unwrap().id;
        // Honest baseline: a TTL-4 probe expires at P2, whose
        // time-exceeded arrives with ip_ttl 248 (init 255, 7 hops back).
        let honest = {
            let mut eng = Engine::new(&net, &cp);
            eng.send(vp, Packet::echo_request(src, target, 4, 1, 1, 1))
                .reply()
                .unwrap()
                .ip_ttl
        };
        assert_eq!(honest, 248);
        // Pick a salt under which P2's spoofed TE init differs from the
        // honest 255 for the probe key used below ((id=1) << 16 | seq=1).
        let key = (1u64 << 16) | 1;
        let salt = (0u64..)
            .find(|&s| {
                let t = TtlSpoof {
                    share: 1.0,
                    salt: s,
                    per_probe: false,
                };
                t.initial_ttl(p2, 0, key, 255) != 255
            })
            .unwrap();
        let spoof = TtlSpoof {
            share: 1.0,
            salt,
            per_probe: false,
        };
        let plan = FaultPlan {
            ttl_spoof: Some(spoof),
            ..FaultPlan::default()
        };
        let mut eng = Engine::with_faults(&net, &cp, plan, 0);
        let lied = eng
            .send(vp, Packet::echo_request(src, target, 4, 1, 1, 1))
            .reply()
            .unwrap()
            .ip_ttl;
        // Snapping the observed TTL up to the initial-TTL menu (what the
        // campaign's fingerprint inference does) recovers the forged
        // initial, not the honest 255.
        let forged_init = spoof.initial_ttl(p2, 0, key, 255);
        let infer = |ttl: u8| {
            [32u8, 64, 128, 255]
                .into_iter()
                .find(|&m| m >= ttl)
                .unwrap()
        };
        assert_eq!(infer(honest), 255);
        assert_eq!(infer(lied), forged_init);
        assert_ne!(lied, honest, "the spoof must be observable");
        // Per-router mode: the same lie on every probe.
        let again = eng
            .send(vp, Packet::echo_request(src, target, 4, 1, 1, 2))
            .reply()
            .unwrap()
            .ip_ttl;
        assert_eq!(again, lied);
    }

    #[test]
    fn non_paris_lb_forks_same_flow_probes() {
        use crate::fault::NonParisLb;
        // A diamond: R1 load-balances two equal-cost paths to R3.
        let mut b = NetworkBuilder::new();
        let ip = || RouterConfig::ip_router(Vendor::CiscoIos);
        let vp = b.add_router("VP", Asn(1), RouterConfig::host());
        let r1 = b.add_router("R1", Asn(1), ip());
        let r2a = b.add_router("R2a", Asn(1), ip());
        let r2b = b.add_router("R2b", Asn(1), ip());
        let r3 = b.add_router("R3", Asn(1), ip());
        for (x, y) in [(vp, r1), (r1, r2a), (r1, r2b), (r2a, r3), (r2b, r3)] {
            b.link(x, y, LinkOpts::default());
        }
        let net = b.build().unwrap();
        let cp = ControlPlane::build(&net).unwrap();
        let src = net.router(vp).loopback;
        let dst = net.router(r3).loopback;
        let mid_router = |eng: &mut Engine, seq: u16| {
            let out = eng.send(vp, Packet::echo_request(src, dst, 2, 1, 1, seq));
            net.owner(out.reply().unwrap().from).unwrap()
        };
        // Paris-honest: one flow, one path — every probe meets the same
        // middle router.
        let mut honest = Engine::new(&net, &cp);
        let first = mid_router(&mut honest, 0);
        assert!((1..16).all(|seq| mid_router(&mut honest, seq) == first));
        // Non-Paris: the same flow forks per probe across both branches,
        // deterministically per seq.
        let plan = FaultPlan {
            non_paris: Some(NonParisLb {
                share: 1.0,
                salt: 0x1B4A,
            }),
            ..FaultPlan::default()
        };
        let mut forked = Engine::with_faults(&net, &cp, plan.clone(), 0);
        let mids: Vec<RouterId> = (0..16).map(|seq| mid_router(&mut forked, seq)).collect();
        let distinct: std::collections::HashSet<RouterId> = mids.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "per-probe hashing must fork the flow");
        let mut rerun = Engine::with_faults(&net, &cp, plan, 99);
        let mids2: Vec<RouterId> = (0..16).map(|seq| mid_router(&mut rerun, seq)).collect();
        assert_eq!(mids, mids2, "forking is pure in the probe key");
    }

    #[test]
    fn egress_hiding_as_darkens_interior_interfaces() {
        use crate::fault::EgressHide;
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let src = net.router(vp).loopback;
        let p2 = net.router_by_name("P2").unwrap().id;
        let iface_dst = net.router(p2).ifaces[0].addr;
        let plan = FaultPlan {
            egress_hide: Some(EgressHide {
                share: 1.0,
                salt: 0xE6E5,
            }),
            ..FaultPlan::default()
        };
        let mut eng = Engine::with_faults(&net, &cp, plan, 0);
        // A re-trace aimed at P2's interface: mid-path expiries inside
        // the hiding AS go dark...
        let out = eng.send(vp, Packet::echo_request(src, iface_dst, 3, 1, 1, 1));
        assert!(matches!(
            out,
            SendOutcome::Lost {
                reason: DropReason::Silent,
                ..
            }
        ));
        // ...and so does delivery at the interface itself.
        let out = eng.send(vp, Packet::echo_request(src, iface_dst, 64, 1, 1, 2));
        assert!(matches!(
            out,
            SendOutcome::Lost {
                reason: DropReason::Silent,
                ..
            }
        ));
        // Host- and loopback-bound probes stay honest: the ordinary
        // traceroute to the target still completes end to end.
        for ttl in 1..=7u8 {
            let out = eng.send(
                vp,
                Packet::echo_request(src, target, ttl, 1, 1, 10 + ttl as u16),
            );
            assert!(out.reply().is_some(), "honest path broke at ttl {ttl}");
        }
    }

    /// What the prober sees of `out`, and the replier.
    fn seen(out: &SendOutcome) -> String {
        match out {
            SendOutcome::Reply(r) => format!(
                "{:?} from {} ttl {} {:?} rtt {:x} by {:?}",
                r.kind,
                r.from,
                r.ip_ttl,
                r.mpls_ext,
                r.rtt_ms.to_bits(),
                r.replier
            ),
            SendOutcome::Lost { at, reason } => format!("lost at {at:?}: {reason:?}"),
        }
    }

    /// Two engines over one network, fault plan and seed: `resumed`
    /// keeps path recording off and so resumes remembered forward legs;
    /// `full` records paths and so walks every leg from the origin.
    struct Twins<'a> {
        resumed: Engine<'a>,
        full: Engine<'a>,
    }

    impl<'a> Twins<'a> {
        fn new(net: &'a Network, cp: &'a ControlPlane, plan: FaultPlan) -> Twins<'a> {
            let mut resumed = Engine::with_faults(net, cp, plan.clone(), 7);
            resumed.set_record_paths(false);
            Twins {
                resumed,
                full: Engine::with_faults(net, cp, plan, 7),
            }
        }

        /// Sends `pkt` from `origin` through both engines and asserts
        /// that they see the same. Returns the outcome and whether the
        /// resuming engine resumed a remembered leg.
        fn send(&mut self, origin: RouterId, pkt: Packet) -> (SendOutcome, bool) {
            let key = self.resumed.path_key(origin, &pkt).expect("a Paris probe");
            let resumes = self
                .resumed
                .state
                .last_leg
                .resume(key, pkt.ip_ttl)
                .is_some();
            let got = self.resumed.send(origin, pkt);
            let want = self.full.send(origin, pkt);
            assert_eq!(seen(&got), seen(&want), "TTL {}", pkt.ip_ttl);
            let (a, b) = (self.resumed.stats(), self.full.stats());
            assert_eq!(
                (a.probes, a.crossings, a.replies, a.lost),
                (b.probes, b.crossings, b.replies, b.lost),
                "counters after TTL {}",
                pkt.ip_ttl
            );
            (got, resumes)
        }

        fn wait(&mut self, ms: f64) {
            self.resumed.wait(ms);
            self.full.wait(ms);
        }
    }

    /// The Fig. 2 line with an RSVP-TE tunnel PE1 → PE2 and no LDP.
    fn fig2_te(popping: PoppingMode, ttl_propagate: bool) -> (Network, RouterId, Addr) {
        let mut mpls = RouterConfig::mpls_router(Vendor::CiscoIos).ldp(LdpPolicy::None);
        mpls.ttl_propagate = ttl_propagate;
        mpls.popping = popping;
        let mut b = NetworkBuilder::new();
        let vp = b.add_router("VP", Asn(1), RouterConfig::host());
        let ce1 = b.add_router("CE1", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let line: Vec<RouterId> = ["PE1", "P1", "P2", "P3", "PE2"]
            .into_iter()
            .map(|n| b.add_router(n, Asn(2), mpls.clone()))
            .collect();
        let ce2 = b.add_router("CE2", Asn(3), RouterConfig::ip_router(Vendor::CiscoIos));
        let chain: Vec<RouterId> = [vp, ce1]
            .into_iter()
            .chain(line.iter().copied())
            .chain([ce2])
            .collect();
        for w in chain.windows(2) {
            b.link(w[0], w[1], LinkOpts::symmetric(10, 1.0));
        }
        b.as_rel(Asn(2), Asn(1), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        b.te_tunnel(line, popping);
        let net = b.build().unwrap();
        let target = net.router(ce2).loopback;
        (net, vp, target)
    }

    fn name(net: &Network, out: &SendOutcome) -> String {
        net.router(out.reply().expect("a reply").replier)
            .name
            .clone()
    }

    #[test]
    fn resumed_uhp_probes_expire_twice_at_the_router_behind_the_egress() {
        // Fig. 4d towards the VP: PE1, the UHP egress, charges the
        // tunnel's one IP decrement without an expiry check, so CE1
        // answers both the probe that reaches it with IP-TTL 0 and the
        // one that reaches it with 1. The second resumes the first's
        // leg just before CE1, its IP-TTL lifted from 0 to 1.
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos)
            .no_ttl_propagate()
            .uhp();
        let (net, vp, _) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let ce2 = net.router_by_name("CE2").unwrap().id;
        let (src, dst) = (net.router(ce2).loopback, net.router(vp).loopback);
        let mut t = Twins::new(&net, &cp, FaultPlan::none());
        let mut names = Vec::new();
        for ttl in 1..=4u8 {
            let (out, resumed) = t.send(ce2, Packet::echo_request(src, dst, ttl, 1, 1, ttl.into()));
            assert_eq!(resumed, ttl > 1, "TTL {ttl}");
            names.push(name(&net, &out));
        }
        assert_eq!(names, ["PE2", "CE1", "CE1", "VP"]);
        // The same TTL resumes; a lower TTL, or another echo id, walks
        // from the origin.
        let (out, resumed) = t.send(ce2, Packet::echo_request(src, dst, 4, 1, 1, 9));
        assert!(resumed, "the same TTL resumes");
        assert_eq!(name(&net, &out), "VP");
        let (_, resumed) = t.send(ce2, Packet::echo_request(src, dst, 2, 1, 1, 10));
        assert!(!resumed, "a lower TTL walks in full");
        let (_, resumed) = t.send(ce2, Packet::echo_request(src, dst, 3, 1, 2, 11));
        assert!(!resumed, "another echo id walks in full");
    }

    #[test]
    fn resumed_php_probes_keep_min_on_exit_with_and_without_propagation() {
        // Fig. 4a (ttl-propagate: the LSE-TTL copies the IP-TTL, so it
        // is lifted with it) and Fig. 4b (no-ttl-propagate: the LSE-TTL
        // starts at 255 and is not), every TTL sent twice; then TTLs
        // near 255, where popping's `min` could pick the LSE-TTL and the
        // probe walks in full.
        for (cfg, want) in [
            (
                RouterConfig::mpls_router(Vendor::CiscoIos),
                vec![255, 254, 247, 248, 251, 250, 249],
            ),
            (
                RouterConfig::mpls_router(Vendor::CiscoIos).no_ttl_propagate(),
                vec![255, 254, 250, 250],
            ),
        ] {
            let (net, vp, target) = fig2(cfg.clone(), cfg);
            let cp = ControlPlane::build(&net).unwrap();
            let src = net.router(vp).loopback;
            let mut t = Twins::new(&net, &cp, FaultPlan::none());
            let mut got = Vec::new();
            let mut resumes = 0;
            for ttl in 1..=want.len() as u8 {
                for seq in 0..2u16 {
                    let pkt =
                        Packet::echo_request(src, target, ttl, 1, 1, u16::from(ttl) * 2 + seq);
                    let (out, resumed) = t.send(vp, pkt);
                    resumes += usize::from(resumed);
                    if seq == 0 {
                        got.push(out.reply().unwrap().ip_ttl);
                    }
                }
            }
            assert_eq!(got, want);
            assert_eq!(
                resumes,
                2 * want.len() - 1,
                "all but the first probe resume"
            );
            for ttl in 245..=255u8 {
                let (_, resumed) =
                    t.send(vp, Packet::echo_request(src, target, ttl, 1, 2, ttl.into()));
                if ttl == 255 {
                    assert!(!resumed, "TTL 255 walks in full");
                }
            }
        }
    }

    #[test]
    fn resumed_probes_cross_rsvp_te_tunnels_like_full_walks() {
        // An RSVP-TE head pushes at the tunnel entrance; with
        // ttl-propagate the LSRs expire the probes on the LSE-TTL and
        // quote it (RFC 4950), so the lift must reach the LSE-TTL too.
        for (popping, propagate) in [
            (PoppingMode::Php, true),
            (PoppingMode::Php, false),
            (PoppingMode::Uhp, true),
            (PoppingMode::Uhp, false),
        ] {
            let (net, vp, target) = fig2_te(popping, propagate);
            let cp = ControlPlane::build(&net).unwrap();
            let src = net.router(vp).loopback;
            let mut t = Twins::new(&net, &cp, FaultPlan::none());
            let mut quotes = Vec::new();
            for ttl in 1..=8u8 {
                for seq in 0..2u16 {
                    let pkt =
                        Packet::echo_request(src, target, ttl, 1, 1, u16::from(ttl) * 2 + seq);
                    let (out, resumed) = t.send(vp, pkt);
                    assert_eq!(resumed, ttl > 1 || seq > 0);
                    let r = out.reply().expect("every hop answers");
                    if seq == 0 && r.mpls_ext.len() == 1 {
                        quotes.push(r.mpls_ext[0].ttl);
                    }
                    if r.kind == ReplyKind::EchoReply {
                        break;
                    }
                }
            }
            if propagate {
                assert_eq!(
                    quotes,
                    [1, 1, 1],
                    "{popping:?}: the LSRs expire on the LSE-TTL"
                );
            }
        }
    }

    #[test]
    fn a_same_ttl_retry_after_a_loss_resumes_with_fresh_draws() {
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let src = net.router(vp).loopback;
        let plan = FaultPlan {
            jitter_ms: 0.5,
            ..FaultPlan::with_loss(0.08).unwrap()
        };
        let mut t = Twins::new(&net, &cp, plan);
        let mut seq = 0u16;
        let mut retried = 0;
        for ttl in 1..=7u8 {
            let mut lost = false;
            for _ in 0..6 {
                seq += 1;
                let (out, resumed) = t.send(vp, Packet::echo_request(src, target, ttl, 1, 1, seq));
                if lost && resumed {
                    retried += 1;
                }
                lost = matches!(
                    out,
                    SendOutcome::Lost {
                        reason: DropReason::Loss,
                        ..
                    }
                );
                if out.reply().is_some() {
                    break;
                }
            }
        }
        assert!(retried > 0, "no resumed retry followed a loss");
    }

    #[test]
    fn a_flap_on_a_replayed_crossing_drops_the_resumed_probe() {
        use crate::fault::FlapSchedule;
        use crate::state::PROBE_PACING_MS;
        let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
        let (net, vp, target) = fig2(cfg.clone(), cfg);
        let cp = ControlPlane::build(&net).unwrap();
        let src = net.router(vp).loopback;
        let flaps = FlapSchedule {
            share: 1.0,
            salt: 3,
            period_ms: 1_000.0,
            down_ms: 100.0,
        };
        let plan = FaultPlan {
            flaps: Some(flaps),
            ..FaultPlan::default()
        };
        let first = net.router(vp).ifaces[0].link;
        let mut t = Twins::new(&net, &cp, plan);
        // The virtual wait after which the next probe finds the VP's
        // own link down (or up).
        let wait_until = |t: &Twins<'_>, down: bool| {
            let now = t.resumed.state.now_ms + PROBE_PACING_MS;
            (0..1_000)
                .map(f64::from)
                .find(|&w| flaps.is_down(first, now + w) == down)
                .unwrap()
        };
        // TTL 4 expires at P2; send it until the whole round trip is up.
        let mut seq = 0u16;
        let mut probe = |t: &mut Twins<'_>| {
            seq += 1;
            t.send(vp, Packet::echo_request(src, target, 4, 1, 1, seq))
        };
        while probe(&mut t).0.reply().is_none() {
            t.wait(50.0);
        }
        // The retry replays VP → CE1 first, and that link is now down.
        let w = wait_until(&t, true);
        t.wait(w);
        let (out, resumed) = probe(&mut t);
        assert!(resumed);
        assert!(matches!(
            out,
            SendOutcome::Lost {
                at: Some(at),
                reason: DropReason::LinkDown
            } if at == vp
        ));
        // The remembered leg survives the drop: once the link is back
        // the next retry resumes it again.
        let w = wait_until(&t, false);
        t.wait(w);
        let (_, resumed) = probe(&mut t);
        assert!(resumed);
    }

    #[test]
    fn a_state_moved_to_another_network_forgets_its_leg() {
        // One line and one addressing plan, visible tunnel on one side,
        // invisible on the other: a leg remembered on the first would
        // resume into the wrong TTL behaviour on the second.
        let visible = RouterConfig::mpls_router(Vendor::CiscoIos);
        let hidden = visible.clone().no_ttl_propagate();
        let (a, vp, target) = fig2(visible.clone(), visible);
        let (b, _, _) = fig2(hidden.clone(), hidden);
        let (cpa, cpb) = (
            ControlPlane::build(&a).unwrap(),
            ControlPlane::build(&b).unwrap(),
        );
        let src = a.router(vp).loopback;
        let pkt = |ttl: u8| Packet::echo_request(src, target, ttl, 1, 1, ttl.into());
        let mut on_a = Engine::new(&a, &cpa);
        on_a.set_record_paths(false);
        on_a.send(vp, pkt(3));
        assert!(on_a.state.last_leg.probe.is_some());
        let mut moved = Engine::over(SubstrateRef::new(&b, &cpb), on_a.state.clone());
        moved.set_record_paths(false);
        let got = moved.send(vp, pkt(4));
        let want = Engine::new(&b, &cpb).send(vp, pkt(4));
        assert_eq!(seen(&got), seen(&want));
        assert_eq!(name(&b, &got), "CE2");
    }
}
