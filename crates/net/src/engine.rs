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
//! it. All per-hop state the walk consults lives in the
//! [`ControlPlane`]'s dense walk tables — flag bytes, vendor TTLs and
//! flat interface records — and in the [`Network`]'s paged
//! address→owner index, so the steady-state walk performs no hashing
//! and never dereferences the heavyweight `Router` objects.

use crate::addr::Addr;
use crate::control::{walk, ControlPlane, ExtRoute, LabelAction};
use crate::fault::FaultPlan;
use crate::ids::{Label, RouterId};
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
    /// charged once per path-recording buffer. Packets, label stacks
    /// and ICMP payloads are inline `Copy` data, so with path recording
    /// off ([`Engine::set_record_paths`]) this stays at zero: the
    /// steady-state walk never touches the heap.
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

enum Leg {
    Delivered {
        at: RouterId,
        pkt: Packet,
        path: Vec<RouterId>,
    },
    Reply {
        reply: Packet,
        at: RouterId,
        /// `Some((iface, next))` when the reply must be injected
        /// directly on the wire (label-switched to the tunnel end).
        first_hop: Option<(u32, RouterId)>,
        path: Vec<RouterId>,
    },
    Dropped {
        at: RouterId,
        reason: DropReason,
    },
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

/// One leg of a probe's round trip (the probe out, or its reply back):
/// the packet in motion plus everything the per-hop step reads.
struct LegState {
    pkt: Packet,
    /// The FEC slot `cur` advertised the top label for, when this walk
    /// took that label from LDP one hop back: the LFIB lookup at `cur`
    /// then skips inverting the label.
    fec: Option<(Label, u32)>,
    cur: RouterId,
    in_iface_addr: Option<Addr>,
    via_wire: bool,
    visits: usize,
    dst: DstCache,
    path: Vec<RouterId>,
}

impl LegState {
    fn drop_here(&self, reason: DropReason) -> Leg {
        Leg::Dropped {
            at: self.cur,
            reason,
        }
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
    /// the constructor campaign workers use.
    pub fn over(sub: SubstrateRef<'a>, state: ProbeState) -> Engine<'a> {
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

    /// The control plane in use.
    pub fn control_plane(&self) -> &'a ControlPlane {
        self.sub.cp
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
    /// leg.
    pub fn send(&mut self, origin: RouterId, pkt: Packet) -> SendOutcome {
        assert!(pkt.ip_ttl >= 1, "probes need a TTL of at least 1");
        self.state.stats.probes += 1;
        self.state.tick_probe();
        let probe_src = pkt.src;

        let mut fwd = self.leg_new(origin, pkt);
        let (kind, at, reply, first_hop, fwd_path) = match self.run_leg(&mut fwd) {
            Leg::Delivered { at, pkt, path } => {
                // Probe reached its destination: echo requests elicit an
                // echo-reply; anything else just sinks.
                let IcmpPayload::EchoRequest { id, seq } = pkt.payload else {
                    return self.lost(Some(at), DropReason::ReplyLost);
                };
                let flags = self.sub.cp.router_flags(at);
                if flags & walk::REPLIES == 0
                    || (flags & walk::IS_HOST == 0 && self.state.faults.is_persistently_silent(at))
                    || self.hides_egress(at, pkt.dst)
                {
                    return self.lost(Some(at), DropReason::Silent);
                }
                if !self.state.allow_er(at, flags & walk::MPLS != 0) {
                    return self.lost(Some(at), DropReason::RateLimited);
                }
                let reply = Packet {
                    src: pkt.dst,
                    dst: pkt.src,
                    ip_ttl: self.reply_init_ttl(at, 1, probe_key(&pkt)),
                    flow: pkt.flow,
                    payload: IcmpPayload::EchoReply { id, seq },
                    stack: LabelStack::empty(),
                    elapsed_ms: pkt.elapsed_ms,
                };
                (ReplyKind::EchoReply, at, reply, None, path)
            }
            Leg::Reply {
                reply,
                at,
                first_hop,
                path,
            } => {
                let kind = match reply.payload {
                    IcmpPayload::TimeExceeded { .. } => ReplyKind::TimeExceeded,
                    IcmpPayload::DestUnreachable { .. } => ReplyKind::DestUnreachable,
                    // Error legs always carry ICMP errors; drop anything
                    // else rather than crash the probing session.
                    _ => return self.lost(Some(at), DropReason::ReplyLost),
                };
                (kind, at, reply, first_hop, path)
            }
            Leg::Dropped { at, reason } => return self.lost(Some(at), reason),
        };

        let from = reply.src;
        let mut ret = self.leg_new(at, reply);
        if let Some((iface, next)) = first_hop {
            // Label-switched replies skip the replier's forwarding
            // decision and go straight onto the wire.
            match self.cross(at, iface, &mut ret.pkt) {
                Ok(arrival) => {
                    ret.cur = next;
                    ret.in_iface_addr = Some(arrival);
                    ret.via_wire = true;
                    if self.record_paths {
                        ret.path.push(next);
                    }
                }
                Err(reason) => return self.lost(Some(at), reason),
            }
        }
        match self.run_leg(&mut ret) {
            Leg::Delivered { at: end, pkt, path }
                if pkt.dst == probe_src && self.sub.net.owner(probe_src) == Some(end) =>
            {
                self.state.stats.replies += 1;
                // The quoted stack is inline `Copy` data — no clone.
                let mpls_ext = match pkt.payload {
                    IcmpPayload::TimeExceeded { mpls_ext, .. } => mpls_ext,
                    _ => LabelStack::empty(),
                };
                SendOutcome::Reply(ReplyInfo {
                    kind,
                    from,
                    ip_ttl: pkt.ip_ttl,
                    mpls_ext,
                    rtt_ms: pkt.elapsed_ms,
                    replier: at,
                    fwd_path,
                    ret_path: path,
                })
            }
            Leg::Delivered { at: died, .. } | Leg::Reply { at: died, .. } => {
                self.lost(Some(died), DropReason::ReplyLost)
            }
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

    /// A fresh leg with the packet sitting at `origin`.
    fn leg_new(&mut self, origin: RouterId, pkt: Packet) -> LegState {
        // `Vec::new()` does not allocate; with recording off the path
        // buffer never grows, so the whole walk stays heap-free.
        let mut f = LegState {
            pkt,
            fec: None,
            cur: origin,
            in_iface_addr: None,
            via_wire: false,
            visits: 0,
            dst: DstCache::new(),
            path: Vec::new(),
        };
        if self.record_paths {
            self.state.stats.heap_allocs += 1;
            f.path.reserve(8);
            f.path.push(origin);
        }
        f
    }

    /// Steps `f` one router visit at a time until its leg ends.
    fn run_leg(&mut self, f: &mut LegState) -> Leg {
        loop {
            if let Some(end) = self.leg_step(f) {
                return end;
            }
        }
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
                if self.sub.net.owner(f.pkt.dst) != Some(cur) {
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
                    let path = std::mem::take(&mut f.path);
                    return Some(self.icmp_expired(cur, &f.pkt, f.in_iface_addr, downstream, path));
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
                return match self.cross(cur, hop.iface, &mut f.pkt) {
                    Ok(arrival) => {
                        f.cur = hop.next;
                        f.in_iface_addr = Some(arrival);
                        f.via_wire = true;
                        if self.record_paths {
                            f.path.push(f.cur);
                        }
                        None
                    }
                    Err(reason) => Some(f.drop_here(reason)),
                };
            }
        }

        // --- IP processing ------------------------------------------
        // Addresses are owned by exactly one router, so the cached
        // owner *is* the "does this router own the destination?" check,
        // without the per-hop interface scan.
        if f.dst.resolve(self.sub, f.pkt.dst) == Some(cur) {
            return Some(Leg::Delivered {
                at: cur,
                pkt: f.pkt,
                path: std::mem::take(&mut f.path),
            });
        }
        if f.via_wire && !skip_decrement {
            if f.pkt.ip_ttl <= 1 {
                let path = std::mem::take(&mut f.path);
                return Some(self.icmp_expired(cur, &f.pkt, f.in_iface_addr, None, path));
            }
            f.pkt.ip_ttl -= 1;
        }
        let nh = match self.decide(cur, &f.pkt, &mut f.dst) {
            Some(nh) => nh,
            None => {
                let path = std::mem::take(&mut f.path);
                return Some(self.icmp_unreachable(cur, &f.pkt, f.in_iface_addr, path));
            }
        };
        if let Some(label) = nh.push {
            debug_assert!(f.pkt.stack.is_empty());
            let lse_ttl = if flags & walk::TTL_PROPAGATE != 0 {
                f.pkt.ip_ttl
            } else {
                255
            };
            f.pkt.stack.push(Lse::new(label, lse_ttl));
            f.fec = nh.fec.map(|slot| (label, slot));
        }
        match self.cross(cur, nh.iface, &mut f.pkt) {
            Ok(arrival) => {
                f.cur = nh.next;
                f.in_iface_addr = Some(arrival);
                f.via_wire = true;
                if self.record_paths {
                    f.path.push(f.cur);
                }
                None
            }
            Err(reason) => Some(f.drop_here(reason)),
        }
    }

    /// Crosses the wire out of `router`'s `iface`; returns the arrival
    /// interface address on the peer. Reads only the control plane's
    /// flat interface records — link id, delay and the peer's address
    /// are inlined there at plane-build time.
    fn cross(
        &mut self,
        router: RouterId,
        iface: u32,
        pkt: &mut Packet,
    ) -> Result<Addr, DropReason> {
        self.state.stats.crossings += 1;
        let wi = self.sub.cp.walk_ifaces(router)[iface as usize];
        if let Some(fl) = self.state.faults.flaps {
            if fl.is_down(wi.link, self.state.now_ms) {
                return Err(DropReason::LinkDown);
            }
        }
        if self.state.faults.loss > 0.0
            && self.state.rng.get().gen::<f64>() < self.state.faults.loss
        {
            return Err(DropReason::Loss);
        }
        pkt.elapsed_ms += wi.delay_ms;
        if self.state.faults.jitter_ms > 0.0 {
            pkt.elapsed_ms += self.state.rng.get().gen::<f64>() * self.state.faults.jitter_ms;
        }
        Ok(wi.peer_addr)
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

    /// Builds the time-exceeded leg for an expiry at `cur`.
    ///
    /// `downstream` carries the label and wire hop when the reply must
    /// first be label-switched to the end of the LSP.
    fn icmp_expired(
        &mut self,
        cur: RouterId,
        expired: &Packet,
        in_iface_addr: Option<Addr>,
        downstream: Option<(Label, u32, RouterId)>,
        path: Vec<RouterId>,
    ) -> Leg {
        let flags = self.sub.cp.router_flags(cur);
        if expired.payload.is_error() {
            // Never ICMP about ICMP errors.
            return Leg::Dropped {
                at: cur,
                reason: DropReason::ReplyLost,
            };
        }
        if flags & walk::REPLIES == 0
            || (flags & walk::IS_HOST == 0 && self.state.faults.is_persistently_silent(cur))
        {
            return Leg::Dropped {
                at: cur,
                reason: DropReason::Silent,
            };
        }
        if self.hides_egress(cur, expired.dst) {
            return Leg::Dropped {
                at: cur,
                reason: DropReason::Silent,
            };
        }
        if !self.state.allow_te(cur, flags & walk::MPLS != 0) {
            return Leg::Dropped {
                at: cur,
                reason: DropReason::RateLimited,
            };
        }
        if self.state.faults.icmp_loss > 0.0
            && self.state.rng.get().gen::<f64>() < self.state.faults.icmp_loss
        {
            return Leg::Dropped {
                at: cur,
                reason: DropReason::IcmpSuppressed,
            };
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
        let mut reply = Packet {
            src: in_iface_addr.unwrap_or_else(|| self.sub.cp.loopback_addr(cur)),
            dst: expired.src,
            ip_ttl: self.reply_init_ttl(cur, 0, probe_key(expired)),
            flow: expired.flow,
            payload: IcmpPayload::TimeExceeded {
                quoted_id,
                quoted_seq,
                quoted_dst: expired.dst,
                mpls_ext,
            },
            stack: LabelStack::empty(),
            elapsed_ms: expired.elapsed_ms,
        };
        let first_hop = downstream.map(|(label, iface, next)| {
            reply.stack.push(Lse::new(label, 255));
            (iface, next)
        });
        Leg::Reply {
            reply,
            at: cur,
            first_hop,
            path,
        }
    }

    fn icmp_unreachable(
        &mut self,
        cur: RouterId,
        pkt: &Packet,
        in_iface_addr: Option<Addr>,
        path: Vec<RouterId>,
    ) -> Leg {
        let flags = self.sub.cp.router_flags(cur);
        if pkt.payload.is_error()
            || flags & walk::REPLIES == 0
            || (flags & walk::IS_HOST == 0 && self.state.faults.is_persistently_silent(cur))
        {
            return Leg::Dropped {
                at: cur,
                reason: DropReason::NoRoute,
            };
        }
        if !self.state.allow_te(cur, flags & walk::MPLS != 0) {
            return Leg::Dropped {
                at: cur,
                reason: DropReason::RateLimited,
            };
        }
        let (quoted_id, quoted_seq) = match pkt.payload {
            IcmpPayload::EchoRequest { id, seq } => (id, seq),
            _ => (0, 0),
        };
        let reply = Packet {
            src: in_iface_addr.unwrap_or_else(|| self.sub.cp.loopback_addr(cur)),
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
            reply,
            at: cur,
            first_hop: None,
            path,
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
    use crate::vendor::Vendor;

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
        assert!(eng.stats().heap_allocs > 0);
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
}
