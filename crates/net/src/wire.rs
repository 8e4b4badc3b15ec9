//! Hand-rolled length-prefixed binary codec for the files the
//! distributed campaign exchanges (shard specs, shard results, the
//! substrate cache).
//!
//! The format is deliberately boring: little-endian fixed-width
//! integers, `u64` length prefixes on sequences, one tag byte per
//! `Option`/`Result`/enum variant, and `f64` as raw IEEE-754 bits so
//! every value round-trips *exactly* — the distributed merge promises
//! byte-identical campaign reports, so the codec must never lose a bit
//! to text formatting. There is no versioning or reflection here;
//! every file that uses the codec carries its own magic + version
//! header and is consumed by the same build that wrote it.

use std::fmt;

/// Why decoding failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// The bytes decoded to an impossible value (bad tag, length
    /// overflow, non-UTF-8 string …).
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::Corrupt(what) => write!(f, "corrupt input: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a byte buffer being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// A value with an exact binary encoding. `put` appends the encoding to
/// `out`; `take` consumes exactly what `put` wrote. Round-trip is
/// byte-exact: `take(put(v)) == v` and re-encoding yields the same
/// bytes.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value from `r`.
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take_bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::take(r)?).map_err(|_| WireError::Corrupt("usize overflow"))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool tag")),
        }
    }
}

impl Wire for f64 {
    /// Raw IEEE-754 bits: the round-trip is exact, including NaN
    /// payloads and signed zeros.
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::take(r)?))
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::take(r)?;
        let bytes = r.take_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("non-UTF-8 string"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            _ => Err(WireError::Corrupt("Option tag")),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.put(out);
            }
            Err(e) => {
                out.push(1);
                e.put(out);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(Ok(T::take(r)?)),
            1 => Ok(Err(E::take(r)?)),
            _ => Err(WireError::Corrupt("Result tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::take(r)?;
        // Guard the pre-allocation: a corrupt length must not OOM the
        // process before the (inevitable) Truncated error surfaces.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.put(out);)+
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($name::take(r)?,)+))
            }
        }
    };
}

wire_tuple!(A, B);
wire_tuple!(A, B, C);
wire_tuple!(A, B, C, D);

impl Wire for crate::Addr {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::Addr(u32::take(r)?))
    }
}

impl Wire for crate::RouterId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::RouterId(u32::take(r)?))
    }
}

impl Wire for crate::Label {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::Label(u32::take(r)?))
    }
}

impl Wire for crate::Asn {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::Asn(u32::take(r)?))
    }
}

impl Wire for crate::Lse {
    fn put(&self, out: &mut Vec<u8>) {
        self.label.put(out);
        self.tc.put(out);
        self.bottom.put(out);
        self.ttl.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::Lse {
            label: crate::Label::take(r)?,
            tc: u8::take(r)?,
            bottom: bool::take(r)?,
            ttl: u8::take(r)?,
        })
    }
}

/// Encoded like a `Vec<Lse>`: the depth, then the entries top first.
/// A depth over [`crate::packet::LABEL_STACK_CAP`] is corrupt input;
/// it never reaches the stack's overflow assertion.
impl Wire for crate::LabelStack {
    fn put(&self, out: &mut Vec<u8>) {
        self.depth().put(out);
        for lse in self.iter() {
            lse.put(out);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let depth = usize::take(r)?;
        if depth > crate::packet::LABEL_STACK_CAP {
            return Err(WireError::Corrupt("label stack depth"));
        }
        let mut stack = crate::LabelStack::empty();
        for _ in 0..depth {
            stack.append_verbatim(crate::Lse::take(r)?);
        }
        Ok(stack)
    }
}

impl Wire for crate::ReplyKind {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            crate::ReplyKind::EchoReply => 0,
            crate::ReplyKind::TimeExceeded => 1,
            crate::ReplyKind::DestUnreachable => 2,
        });
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::take(r)? {
            0 => crate::ReplyKind::EchoReply,
            1 => crate::ReplyKind::TimeExceeded,
            2 => crate::ReplyKind::DestUnreachable,
            _ => return Err(WireError::Corrupt("ReplyKind tag")),
        })
    }
}

impl Wire for crate::EngineStats {
    fn put(&self, out: &mut Vec<u8>) {
        self.probes.put(out);
        self.crossings.put(out);
        self.replies.put(out);
        self.lost.put(out);
        self.heap_allocs.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::EngineStats {
            probes: u64::take(r)?,
            crossings: u64::take(r)?,
            replies: u64::take(r)?,
            lost: u64::take(r)?,
            heap_allocs: u64::take(r)?,
        })
    }
}

impl Wire for crate::RateLimit {
    fn put(&self, out: &mut Vec<u8>) {
        self.per_sec.put(out);
        self.burst.put(out);
        self.mpls_only.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::RateLimit {
            per_sec: f64::take(r)?,
            burst: f64::take(r)?,
            mpls_only: bool::take(r)?,
        })
    }
}

impl Wire for crate::SilentSet {
    fn put(&self, out: &mut Vec<u8>) {
        self.share.put(out);
        self.salt.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::SilentSet {
            share: f64::take(r)?,
            salt: u64::take(r)?,
        })
    }
}

impl Wire for crate::FlapSchedule {
    fn put(&self, out: &mut Vec<u8>) {
        self.share.put(out);
        self.salt.put(out);
        self.period_ms.put(out);
        self.down_ms.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::FlapSchedule {
            share: f64::take(r)?,
            salt: u64::take(r)?,
            period_ms: f64::take(r)?,
            down_ms: f64::take(r)?,
        })
    }
}

impl Wire for crate::TtlSpoof {
    fn put(&self, out: &mut Vec<u8>) {
        self.share.put(out);
        self.salt.put(out);
        self.per_probe.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::TtlSpoof {
            share: f64::take(r)?,
            salt: u64::take(r)?,
            per_probe: bool::take(r)?,
        })
    }
}

impl Wire for crate::NonParisLb {
    fn put(&self, out: &mut Vec<u8>) {
        self.share.put(out);
        self.salt.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::NonParisLb {
            share: f64::take(r)?,
            salt: u64::take(r)?,
        })
    }
}

impl Wire for crate::EgressHide {
    fn put(&self, out: &mut Vec<u8>) {
        self.share.put(out);
        self.salt.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::EgressHide {
            share: f64::take(r)?,
            salt: u64::take(r)?,
        })
    }
}

impl Wire for crate::FaultPlan {
    /// The full plan travels in every shard spec so a worker process
    /// reproduces the master's fault behavior bit for bit — floats as
    /// raw IEEE bits, every optional behavior tagged.
    fn put(&self, out: &mut Vec<u8>) {
        self.loss.put(out);
        self.icmp_loss.put(out);
        self.jitter_ms.put(out);
        self.te_limit.put(out);
        self.er_limit.put(out);
        self.silent.put(out);
        self.flaps.put(out);
        self.ttl_spoof.put(out);
        self.non_paris.put(out);
        self.egress_hide.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::FaultPlan {
            loss: f64::take(r)?,
            icmp_loss: f64::take(r)?,
            jitter_ms: f64::take(r)?,
            te_limit: Wire::take(r)?,
            er_limit: Wire::take(r)?,
            silent: Wire::take(r)?,
            flaps: Wire::take(r)?,
            ttl_spoof: Wire::take(r)?,
            non_paris: Wire::take(r)?,
            egress_hide: Wire::take(r)?,
        })
    }
}

/// FNV-1a (64-bit) over a byte buffer — the integrity checksum trailing
/// every shard/cache file. Not cryptographic; it catches truncation and
/// bit rot, which is all a same-machine file handoff needs.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut c = Checksum::default();
    c.bytes(bytes);
    c.finish()
}

/// [`checksum`], fed in pieces: bytes through [`Checksum::bytes`] or
/// text through [`fmt::Write`], so a report can be checksummed as it
/// is rendered, never held whole.
#[derive(Clone, Copy, Debug)]
pub struct Checksum(u64);

impl Default for Checksum {
    /// The checksum of nothing yet.
    fn default() -> Checksum {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    /// Feeds `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The checksum of everything fed.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Checksum {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Encodes one value to a fresh buffer (convenience for file writers).
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.put(&mut out);
    out
}

/// Decodes one value from a buffer, requiring every byte be consumed.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::take(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, EngineStats, Label, Lse, ReplyKind};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes).expect("decodes"), v);
        // Re-encoding is byte-stable.
        assert_eq!(to_bytes(&from_bytes::<T>(&bytes).unwrap()), bytes);
    }

    #[test]
    fn primitives_round_trip_exactly() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(String::from("wörmhole"));
        round_trip(-0.0f64);
        round_trip(f64::MAX);
        // NaN needs a bit-level comparison.
        let bytes = to_bytes(&f64::NAN);
        assert_eq!(
            from_bytes::<f64>(&bytes).unwrap().to_bits(),
            f64::NAN.to_bits()
        );
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some(vec![String::from("a"), String::from("b")]));
        round_trip(Result::<u32, String>::Ok(7));
        round_trip(Result::<u32, String>::Err("worker panicked".into()));
        round_trip((Addr::new(10, 0, 0, 1), 3u8, Some(2.5f64)));
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(Addr::new(192, 168, 0, 1));
        round_trip(crate::RouterId(41));
        round_trip(crate::Asn(3257));
        round_trip(Lse::new(Label(19), 1));
        let stack: crate::LabelStack = [Lse::new(Label(19), 1), Lse::new(Label(3), 2)]
            .into_iter()
            .collect();
        round_trip(stack);
        round_trip(crate::LabelStack::empty());
        // A stack travels exactly as the `Vec<Lse>` of its entries.
        assert_eq!(to_bytes(&stack), to_bytes(&stack.as_slice().to_vec()));
        round_trip(ReplyKind::TimeExceeded);
        round_trip(EngineStats {
            probes: 1,
            crossings: 2,
            replies: 3,
            lost: 4,
            heap_allocs: 0,
        });
    }

    #[test]
    fn fault_plan_round_trips() {
        round_trip(crate::FaultPlan::none());
        round_trip(crate::FaultPlan {
            loss: 0.02,
            icmp_loss: 0.01,
            jitter_ms: 0.5,
            te_limit: Some(crate::RateLimit {
                per_sec: 10.0,
                burst: 4.0,
                mpls_only: true,
            }),
            er_limit: None,
            silent: Some(crate::SilentSet {
                share: 0.1,
                salt: 7,
            }),
            flaps: Some(crate::FlapSchedule {
                share: 0.05,
                salt: 9,
                period_ms: 100.0,
                down_ms: 10.0,
            }),
            ttl_spoof: Some(crate::TtlSpoof {
                share: 0.2,
                salt: 3,
                per_probe: false,
            }),
            non_paris: Some(crate::NonParisLb {
                share: 0.1,
                salt: 5,
            }),
            egress_hide: Some(crate::EgressHide {
                share: 0.3,
                salt: 1,
            }),
        });
    }

    #[test]
    fn corrupt_input_is_a_typed_error() {
        assert_eq!(
            from_bytes::<bool>(&[9]),
            Err(WireError::Corrupt("bool tag"))
        );
        assert_eq!(from_bytes::<u32>(&[1, 2]), Err(WireError::Truncated));
        let mut ok = to_bytes(&vec![1u8, 2]);
        ok.push(0xFF);
        assert_eq!(
            from_bytes::<Vec<u8>>(&ok),
            Err(WireError::Corrupt("trailing bytes"))
        );
        // A forged huge length dies with Truncated, not an OOM.
        let mut huge = Vec::new();
        u64::MAX.put(&mut huge);
        assert_eq!(from_bytes::<Vec<u8>>(&huge), Err(WireError::Truncated));
        // A quoted stack deeper than the inline capacity is corrupt,
        // whether or not its entries follow.
        let deep = vec![Lse::new(Label(16), 1); crate::packet::LABEL_STACK_CAP + 1];
        assert_eq!(
            from_bytes::<crate::LabelStack>(&to_bytes(&deep)),
            Err(WireError::Corrupt("label stack depth"))
        );
        assert_eq!(
            from_bytes::<crate::LabelStack>(&to_bytes(&u64::MAX)),
            Err(WireError::Corrupt("label stack depth"))
        );
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"wormhole");
        assert_eq!(a, checksum(b"wormhole"));
        assert_ne!(a, checksum(b"wormhol3"));
        assert_ne!(checksum(b""), 0);
        // Fed in pieces, bytes or text, it is the one-shot checksum.
        let mut c = Checksum::default();
        c.bytes(b"worm");
        fmt::Write::write_str(&mut c, "hole").unwrap();
        assert_eq!(c.finish(), a);
    }
}
