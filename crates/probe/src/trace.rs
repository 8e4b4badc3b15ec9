//! Trace records: what a measurement host observes.

use std::fmt;
use std::ops::Deref;
use wormhole_net::{Addr, DropReason, LabelStack, ReplyKind, RouterId};

/// What ultimately happened at a hop — the typed replacement for the
/// bare `*`. A real prober cannot always tell these apart, but scamper
/// distinguishes at least rate-limited silence (late/absent ICMP under
/// load) from dead paths, and the campaign's graceful-degradation
/// accounting needs the distinction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HopOutcome {
    /// A reply arrived.
    Replied,
    /// Every attempt died to a (configured or persistently) silent
    /// router.
    Silent,
    /// Every attempt was suppressed by ICMP rate limiting.
    RateLimited,
    /// No route towards the destination and no unreachable came back.
    Unreachable,
    /// Probes or replies were lost in transit (loss, flaps, loops).
    Lost,
    /// The per-trace probe budget ran out before this hop could be
    /// (re)tried.
    BudgetExhausted,
}

impl HopOutcome {
    /// Classifies a terminal [`DropReason`] (the *last* failure of the
    /// hop's retry loop decides the outcome).
    pub fn from_drop(reason: DropReason) -> HopOutcome {
        match reason {
            DropReason::Silent => HopOutcome::Silent,
            DropReason::IcmpSuppressed | DropReason::RateLimited => HopOutcome::RateLimited,
            DropReason::NoRoute => HopOutcome::Unreachable,
            _ => HopOutcome::Lost,
        }
    }
}

/// One traceroute hop. `Copy`: the quoted label stack is stored
/// inline, so a hop owns no heap memory.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceHop {
    /// The probe TTL that elicited this hop.
    pub ttl: u8,
    /// The replying address (`None` ⇒ `*`).
    pub addr: Option<Addr>,
    /// The reply's IP-TTL as received — the paper's bracketed value,
    /// input to FRPLA/RTLA.
    pub reply_ip_ttl: Option<u8>,
    /// Round-trip time, when a reply arrived.
    pub rtt_ms: Option<f64>,
    /// RFC 4950 quoted label stack entries, top of stack first.
    pub labels: LabelStack,
    /// What kind of reply arrived.
    pub kind: Option<ReplyKind>,
    /// What happened at this hop (typed star/rate-limited/unreachable
    /// instead of a bare `None`).
    pub outcome: HopOutcome,
    /// Probe attempts spent on this hop.
    pub attempts: u8,
    /// Simulator instrumentation: the true router behind `addr`. Never
    /// consulted by measurement code; used by validation and tests.
    pub truth: Option<RouterId>,
}

impl TraceHop {
    /// A non-responding hop (`*`).
    pub fn star(ttl: u8) -> TraceHop {
        TraceHop {
            ttl,
            addr: None,
            reply_ip_ttl: None,
            rtt_ms: None,
            labels: LabelStack::empty(),
            kind: None,
            outcome: HopOutcome::Lost,
            attempts: 0,
            truth: None,
        }
    }

    /// True when the hop carries at least one quoted MPLS label.
    pub fn is_labeled(&self) -> bool {
        !self.labels.is_empty()
    }
}

/// Hops an [`AddrPath`] holds without a heap buffer.
const INLINE_HOPS: usize = 3;

/// A trace's address sequence, one entry per hop with `None` for a
/// star: the content of [`Trace::addr_path`] without, for short paths,
/// its heap vector. A path of up to three hops is stored inline, and
/// most bootstrap traces are one hop long (the vantage point's own
/// no-route unreachable); longer paths live on the heap.
#[derive(Clone)]
pub struct AddrPath(PathRepr);

#[derive(Clone)]
enum PathRepr {
    Inline(u8, [Option<Addr>; INLINE_HOPS]),
    Heap(Vec<Option<Addr>>),
}

impl AddrPath {
    /// The address sequence of `hops`.
    pub fn of(hops: &[TraceHop]) -> AddrPath {
        AddrPath::from_iter_sized(hops.len(), hops.iter().map(|h| h.addr))
    }

    /// A path of exactly `len` entries drawn from `hops`.
    fn from_iter_sized(len: usize, hops: impl Iterator<Item = Option<Addr>>) -> AddrPath {
        if len > INLINE_HOPS {
            return AddrPath(PathRepr::Heap(hops.collect()));
        }
        let mut inline = [None; INLINE_HOPS];
        for (slot, hop) in inline.iter_mut().zip(hops) {
            *slot = hop;
        }
        AddrPath(PathRepr::Inline(len as u8, inline))
    }

    /// The entries as a slice.
    pub fn as_slice(&self) -> &[Option<Addr>] {
        match &self.0 {
            PathRepr::Inline(len, hops) => &hops[..usize::from(*len)],
            PathRepr::Heap(hops) => hops,
        }
    }

    /// The entries as a vector.
    pub fn into_vec(self) -> Vec<Option<Addr>> {
        match self.0 {
            PathRepr::Inline(len, hops) => hops[..usize::from(len)].to_vec(),
            PathRepr::Heap(hops) => hops,
        }
    }
}

impl From<Vec<Option<Addr>>> for AddrPath {
    fn from(hops: Vec<Option<Addr>>) -> AddrPath {
        if hops.len() > INLINE_HOPS {
            AddrPath(PathRepr::Heap(hops))
        } else {
            AddrPath::from_iter_sized(hops.len(), hops.into_iter())
        }
    }
}

impl Deref for AddrPath {
    type Target = [Option<Addr>];

    fn deref(&self) -> &[Option<Addr>] {
        self.as_slice()
    }
}

impl PartialEq for AddrPath {
    fn eq(&self, other: &AddrPath) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for AddrPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// A complete traceroute.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Probe source address (the vantage point).
    pub src: Addr,
    /// Probe destination.
    pub dst: Addr,
    /// The Paris flow identifier (constant across the trace).
    pub flow: u16,
    /// Hops in TTL order, starting at the configured start TTL.
    pub hops: Vec<TraceHop>,
    /// True when an echo-reply from `dst` terminated the trace.
    pub reached: bool,
    /// Probe packets this trace spent.
    pub probes: u32,
    /// True when the per-trace probe budget cut the trace short.
    pub truncated: bool,
}

impl Trace {
    /// The last hop that produced a reply.
    pub fn last_responsive(&self) -> Option<&TraceHop> {
        self.hops.iter().rev().find(|h| h.addr.is_some())
    }

    /// The last `n` responsive hops, oldest first (the campaign looks at
    /// the final `X, Y, D` triple, §4).
    pub fn last_responsive_n(&self, n: usize) -> Vec<&TraceHop> {
        let mut out: Vec<&TraceHop> = self
            .hops
            .iter()
            .rev()
            .filter(|h| h.addr.is_some())
            .take(n)
            .collect();
        out.reverse();
        out
    }

    /// The hop that answered with `addr`, if any.
    pub fn hop_of(&self, addr: Addr) -> Option<&TraceHop> {
        self.hops.iter().find(|h| h.addr == Some(addr))
    }

    /// The address sequence (with `None` for stars) for graph building.
    pub fn addr_path(&self) -> Vec<Option<Addr>> {
        self.hops.iter().map(|h| h.addr).collect()
    }

    /// True when any hop quotes MPLS labels (an *explicit* tunnel).
    pub fn has_labels(&self) -> bool {
        self.hops.iter().any(TraceHop::is_labeled)
    }

    /// Number of responsive hops.
    pub fn responsive_count(&self) -> usize {
        self.hops.iter().filter(|h| h.addr.is_some()).count()
    }

    /// Number of responsive hops whose address already appeared at an
    /// earlier TTL of this trace. Deterministic per-flow forwarding
    /// never revisits a router, so a non-zero count is positive evidence
    /// of a forged loop/cycle artifact (a non-Paris load balancer
    /// forking the per-probe path; Viger et al.).
    pub fn revisits(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.hops
            .iter()
            .filter_map(|h| h.addr)
            .filter(|&a| !seen.insert(a))
            .count()
    }

    /// Number of non-responsive hops (`*`).
    pub fn stars(&self) -> usize {
        self.hops.len() - self.responsive_count()
    }
}

impl fmt::Display for Trace {
    /// Paris-traceroute-style rendering, matching the paper's Fig. 4
    /// listings: `hop addr [return-ttl]` and quoted `MPLS Label n TTL=t`
    /// continuation lines.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "$pt {}", self.dst)?;
        for hop in &self.hops {
            match hop.addr {
                Some(addr) => {
                    write!(f, "{:>2}  {}", hop.ttl, addr)?;
                    if let Some(ttl) = hop.reply_ip_ttl {
                        write!(f, " [{ttl}]")?;
                    }
                    writeln!(f)?;
                    for lse in hop.labels.iter() {
                        writeln!(f, "      {lse}")?;
                    }
                }
                None => writeln!(f, "{:>2}  *", hop.ttl)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::{Label, Lse};

    fn hop(ttl: u8, last_octet: u8) -> TraceHop {
        TraceHop {
            ttl,
            addr: Some(Addr::new(10, 0, 0, last_octet)),
            reply_ip_ttl: Some(250),
            rtt_ms: Some(3.5),
            labels: LabelStack::empty(),
            kind: Some(ReplyKind::TimeExceeded),
            outcome: HopOutcome::Replied,
            attempts: 1,
            truth: None,
        }
    }

    fn sample() -> Trace {
        Trace {
            src: Addr::new(10, 9, 0, 1),
            dst: Addr::new(10, 0, 0, 9),
            flow: 3,
            hops: vec![hop(1, 1), TraceHop::star(2), hop(3, 3)],
            reached: false,
            probes: 4,
            truncated: false,
        }
    }

    #[test]
    fn last_responsive_skips_stars() {
        let t = sample();
        assert_eq!(t.last_responsive().unwrap().ttl, 3);
        assert_eq!(t.responsive_count(), 2);
        let last2 = t.last_responsive_n(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].ttl, 1);
        assert_eq!(last2[1].ttl, 3);
    }

    #[test]
    fn addr_path_keeps_stars() {
        let t = sample();
        let p = t.addr_path();
        assert_eq!(p.len(), 3);
        assert!(p[1].is_none());
    }

    #[test]
    fn short_and_long_addr_paths_hold_the_same_entries() {
        let mut t = sample();
        for len in 0..=6 {
            t.hops.truncate(len);
            while t.hops.len() < len {
                let ttl = t.hops.len() as u8 + 1;
                t.hops.push(hop(ttl, ttl));
            }
            let path = AddrPath::of(&t.hops);
            assert_eq!(path.as_slice(), t.addr_path().as_slice());
            assert_eq!(path, AddrPath::from(t.addr_path()));
            assert_eq!(path.clone().into_vec(), t.addr_path());
            assert_eq!(format!("{path:?}"), format!("{:?}", t.addr_path()));
        }
    }

    #[test]
    fn display_is_paris_style() {
        let mut t = sample();
        t.hops[0].labels.push(Lse::new(Label(19), 1));
        let s = t.to_string();
        assert!(s.contains("$pt 10.0.0.9"));
        assert!(s.contains("10.0.0.1 [250]"));
        assert!(s.contains("MPLS Label 19 TTL=1"));
        assert!(s.contains(" 2  *"));
        assert!(t.has_labels());
    }

    #[test]
    fn hop_of_finds_address() {
        let t = sample();
        assert!(t.hop_of(Addr::new(10, 0, 0, 3)).is_some());
        assert!(t.hop_of(Addr::new(10, 0, 0, 99)).is_none());
    }

    #[test]
    fn revisits_counts_forged_loops() {
        let mut t = sample();
        assert_eq!(t.revisits(), 0);
        assert_eq!(t.stars(), 1);
        // The TTL-1 router "reappears" at TTL 4 — a loop artifact.
        t.hops.push(hop(4, 1));
        assert_eq!(t.revisits(), 1);
        t.hops.push(hop(5, 1));
        assert_eq!(t.revisits(), 2);
    }
}
