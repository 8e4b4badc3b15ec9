//! Packet model: IPv4 packets, ICMP payloads, and MPLS label stacks.
//!
//! The model is deliberately semantic rather than byte-exact: it carries
//! every field the measurement techniques of the paper depend on (IP-TTL,
//! LSE-TTL, RFC 4950 quoted stacks, reply kinds, flow identifiers for
//! Paris traceroute) and nothing else.
//!
//! [`LabelStack`] is an inline fixed-capacity array rather than a `Vec`:
//! real deployments in the model never stack more than two labels
//! (LDP/TE transport + explicit null), so a `Copy` stack makes the whole
//! [`Packet`] — and the RFC 4950 quoted stack inside ICMP errors —
//! copyable without touching the heap on the per-hop path.

use crate::addr::Addr;
use crate::ids::Label;
use std::fmt;
use std::ops::Deref;

/// An MPLS Label Stack Entry (RFC 3032): label, traffic class, bottom of
/// stack flag, and the LSE-TTL that RFC 3443 TTL processing manipulates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Lse {
    /// The 20-bit label value.
    pub label: Label,
    /// Traffic Class (formerly EXP) bits.
    pub tc: u8,
    /// Bottom-of-stack flag.
    pub bottom: bool,
    /// The LSE time-to-live.
    pub ttl: u8,
}

impl Lse {
    /// A fresh LSE with the given label and TTL (TC zero; `bottom` is
    /// recomputed whenever the stack changes).
    pub fn new(label: Label, ttl: u8) -> Lse {
        Lse {
            label,
            tc: 0,
            bottom: true,
            ttl,
        }
    }

    const ZERO: Lse = Lse {
        label: Label(0),
        tc: 0,
        bottom: true,
        ttl: 0,
    };
}

impl fmt::Display for Lse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MPLS Label {} TTL={}", self.label.0, self.ttl)
    }
}

/// Maximum label-stack depth the simulator supports. The deployments the
/// paper profiles never exceed two (a transport label plus explicit
/// null); the extra headroom covers what-if topologies.
pub const LABEL_STACK_CAP: usize = 4;

/// An MPLS label stack; index 0 is the top of the stack. Stored inline
/// (`Copy`, no heap) — see the module docs.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct LabelStack {
    len: u8,
    entries: [Lse; LABEL_STACK_CAP],
}

impl Default for LabelStack {
    fn default() -> LabelStack {
        LabelStack::empty()
    }
}

impl LabelStack {
    /// An empty stack (a plain IP packet).
    pub const fn empty() -> LabelStack {
        LabelStack {
            len: 0,
            entries: [Lse::ZERO; LABEL_STACK_CAP],
        }
    }

    /// True when no label is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The top (outermost) entry, if any.
    pub fn top(&self) -> Option<&Lse> {
        self.as_slice().first()
    }

    /// Mutable access to the top entry.
    pub fn top_mut(&mut self) -> Option<&mut Lse> {
        let n = self.len as usize;
        self.entries[..n].first_mut()
    }

    /// Pushes `lse` on top of the stack, fixing bottom-of-stack flags.
    ///
    /// # Panics
    /// When the stack already holds [`LABEL_STACK_CAP`] entries; the
    /// control plane never builds label chains that deep.
    pub fn push(&mut self, lse: Lse) {
        let n = self.len as usize;
        assert!(n < LABEL_STACK_CAP, "label stack overflow");
        for i in (0..n).rev() {
            self.entries[i + 1] = self.entries[i];
        }
        self.entries[0] = lse;
        self.len += 1;
        self.fix_bottom();
    }

    /// Pops the top entry, fixing bottom-of-stack flags.
    pub fn pop(&mut self) -> Option<Lse> {
        if self.len == 0 {
            return None;
        }
        let lse = self.entries[0];
        let n = self.len as usize;
        for i in 1..n {
            self.entries[i - 1] = self.entries[i];
        }
        self.len -= 1;
        self.fix_bottom();
        Some(lse)
    }

    /// Number of entries.
    pub fn depth(&self) -> usize {
        self.len as usize
    }

    /// The entries as a slice, top of stack first.
    pub fn as_slice(&self) -> &[Lse] {
        &self.entries[..self.len as usize]
    }

    /// Appends `lse` below the current bottom exactly as given, its
    /// bottom-of-stack flag untouched, so the wire decoder rebuilds a
    /// quoted stack bit for bit. The caller checks the capacity first.
    pub(crate) fn append_verbatim(&mut self, lse: Lse) {
        let n = self.len as usize;
        self.entries[n] = lse;
        self.len += 1;
    }

    fn fix_bottom(&mut self) {
        let n = self.len as usize;
        for (i, lse) in self.entries[..n].iter_mut().enumerate() {
            lse.bottom = i + 1 == n;
        }
    }
}

impl Deref for LabelStack {
    type Target = [Lse];

    fn deref(&self) -> &[Lse] {
        self.as_slice()
    }
}

/// The same text as the `Debug` of a `Vec<Lse>` holding the entries,
/// so a stack renders like the vector it replaces.
impl fmt::Debug for LabelStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<Lse> for LabelStack {
    fn from_iter<T: IntoIterator<Item = Lse>>(iter: T) -> LabelStack {
        let mut stack = LabelStack::empty();
        for lse in iter {
            let n = stack.len as usize;
            assert!(n < LABEL_STACK_CAP, "label stack overflow");
            stack.entries[n] = lse;
            stack.len += 1;
        }
        stack.fix_bottom();
        stack
    }
}

/// The kind of probe or reply a packet carries.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum IcmpPayload {
    /// ICMP echo-request (what scamper's ICMP-Paris traceroute and ping
    /// send). `id`/`seq` identify the probe.
    EchoRequest {
        /// Echo identifier (per measurement session).
        id: u16,
        /// Echo sequence number (per probe).
        seq: u16,
    },
    /// ICMP echo-reply.
    EchoReply {
        /// Echo identifier copied from the request.
        id: u16,
        /// Echo sequence copied from the request.
        seq: u16,
    },
    /// ICMP time-exceeded, quoting the expired probe and optionally the
    /// MPLS label stack of the expired packet (RFC 4950).
    TimeExceeded {
        /// Echo id of the quoted probe.
        quoted_id: u16,
        /// Echo seq of the quoted probe.
        quoted_seq: u16,
        /// Destination address of the quoted probe.
        quoted_dst: Addr,
        /// RFC 4950 MPLS extension: the label stack of the packet whose
        /// TTL expired, as received by the replying router. Empty when
        /// the router does not implement RFC 4950 or the packet carried
        /// no labels.
        mpls_ext: LabelStack,
    },
    /// ICMP destination-unreachable (quotes the probe like time-exceeded).
    DestUnreachable {
        /// Echo id of the quoted probe.
        quoted_id: u16,
        /// Echo seq of the quoted probe.
        quoted_seq: u16,
    },
}

impl IcmpPayload {
    /// True for the two error kinds (time-exceeded / unreachable), which
    /// must never elicit further ICMP errors.
    pub fn is_error(&self) -> bool {
        matches!(
            self,
            IcmpPayload::TimeExceeded { .. } | IcmpPayload::DestUnreachable { .. }
        )
    }
}

/// A simulated packet: an IPv4 header, an ICMP payload, and an optional
/// MPLS label stack "below" the frame header. `Copy` — moving a packet
/// through the engine never allocates.
#[derive(Copy, Clone, Debug)]
pub struct Packet {
    /// IPv4 source address.
    pub src: Addr,
    /// IPv4 destination address.
    pub dst: Addr,
    /// The IPv4 time-to-live.
    pub ip_ttl: u8,
    /// Flow identifier: stands in for the (src, dst, proto, checksum)
    /// 5-tuple fields that Paris traceroute keeps constant so that
    /// per-flow ECMP hashing picks a stable path.
    pub flow: u16,
    /// The ICMP payload.
    pub payload: IcmpPayload,
    /// The MPLS label stack (empty ⇒ plain IP packet).
    pub stack: LabelStack,
    /// Accumulated one-way propagation delay, in milliseconds. The engine
    /// adds each traversed link's delay; a reply inherits the probe's
    /// accumulated delay so its final value is the RTT.
    pub elapsed_ms: f64,
}

impl Packet {
    /// Builds an echo-request probe.
    pub fn echo_request(src: Addr, dst: Addr, ip_ttl: u8, flow: u16, id: u16, seq: u16) -> Packet {
        Packet {
            src,
            dst,
            ip_ttl,
            flow,
            payload: IcmpPayload::EchoRequest { id, seq },
            stack: LabelStack::empty(),
            elapsed_ms: 0.0,
        }
    }

    /// True when the packet currently carries at least one label.
    pub fn is_labeled(&self) -> bool {
        !self.stack.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_push_pop_maintains_bottom_flags() {
        let mut s = LabelStack::empty();
        s.push(Lse::new(Label(16), 255));
        assert!(s[0].bottom);
        s.push(Lse::new(Label(17), 255));
        assert!(!s[0].bottom);
        assert!(s[1].bottom);
        assert_eq!(s.depth(), 2);
        let top = s.pop().unwrap();
        assert_eq!(top.label, Label(17));
        assert!(s[0].bottom);
        assert_eq!(s.pop().unwrap().label, Label(16));
        assert!(s.pop().is_none());
    }

    #[test]
    fn stack_is_inline_and_copyable() {
        let mut s = LabelStack::empty();
        s.push(Lse::new(Label(16), 31));
        let copied = s; // Copy, not move: no heap behind the stack
        s.push(Lse::new(Label(17), 255));
        assert_eq!(copied.depth(), 1);
        assert_eq!(s.depth(), 2);
        assert_eq!(copied.as_slice(), [Lse::new(Label(16), 31)]);
    }

    #[test]
    fn stack_collects_from_iterator_in_order() {
        let s: LabelStack = [Lse::new(Label(5), 9), Lse::new(Label(6), 8)]
            .into_iter()
            .collect();
        assert_eq!(s.depth(), 2);
        assert_eq!(s[0].label, Label(5));
        assert!(!s[0].bottom);
        assert!(s[1].bottom);
    }

    #[test]
    fn lse_display_matches_traceroute_style() {
        let lse = Lse::new(Label(19), 1);
        assert_eq!(lse.to_string(), "MPLS Label 19 TTL=1");
    }

    #[test]
    fn error_classification() {
        let te = IcmpPayload::TimeExceeded {
            quoted_id: 1,
            quoted_seq: 2,
            quoted_dst: Addr::new(1, 2, 3, 4),
            mpls_ext: LabelStack::empty(),
        };
        assert!(te.is_error());
        assert!(!IcmpPayload::EchoRequest { id: 0, seq: 0 }.is_error());
        assert!(!IcmpPayload::EchoReply { id: 0, seq: 0 }.is_error());
    }

    #[test]
    fn echo_request_builder() {
        let p = Packet::echo_request(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 64, 7, 9, 3);
        assert_eq!(p.ip_ttl, 64);
        assert!(!p.is_labeled());
        assert_eq!(p.flow, 7);
    }
}
