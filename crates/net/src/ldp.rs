//! LDP label distribution (RFC 5036 semantics, downstream unsolicited).
//!
//! Each MPLS router allocates an incoming label per FEC it advertises —
//! all internal prefixes on Cisco, loopback host routes only on Juniper
//! — and advertises the *null* labels for prefixes it owns: implicit
//! null requests Penultimate Hop Popping, explicit null requests
//! Ultimate Hop Popping (paper §2.1).

use crate::ids::{Label, RouterId};
use crate::net::Network;
use crate::prefixes::AsPrefixes;
use crate::router::Router;
use crate::vendor::{LdpPolicy, PoppingMode};

/// A label advertisement for a FEC.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LabelValue {
    /// An ordinary label: "switch to me with this label".
    Real(Label),
    /// Implicit null (label 3, never on the wire): "pop before me" (PHP).
    ImplicitNull,
    /// Explicit null (label 0): "swap to 0, I pop myself" (UHP).
    ExplicitNull,
}

/// The complete set of LDP bindings: per router, FEC slot → advertised
/// label. Slots index the router's own AS's [`AsPrefixes`] table.
///
/// Stored as a CSR-style dense table — router `i`'s slot window is
/// `pool[base[i]..base[i+1]]`, directly indexed by slot — because
/// [`LdpBindings::advertised`] runs once per IP hop on the packet
/// walk's hot path, where a per-router hash map lookup was measurable.
/// Each advertisement is packed into one `u32` (`LdpBindings::pack`):
/// labels are 20-bit values, so the top of the range holds the two
/// null modes and the "not advertised" sentinel.
#[derive(Debug, Clone)]
pub struct LdpBindings {
    /// `num_routers + 1` offsets into `pool`.
    base: Vec<u32>,
    /// Slot-indexed packed advertisements; [`LdpBindings::NONE`] marks
    /// a slot the router does not advertise (e.g. non-/32 prefixes
    /// under `LoopbackOnly`).
    pool: Vec<u32>,
}

impl LdpBindings {
    /// Packed "not advertised" slot.
    const NONE: u32 = u32::MAX;
    /// Packed implicit null.
    const IMPLICIT_NULL: u32 = u32::MAX - 1;
    /// Packed explicit null.
    const EXPLICIT_NULL: u32 = u32::MAX - 2;

    /// Packs an advertisement into its pool word.
    #[inline]
    fn pack(value: LabelValue) -> u32 {
        match value {
            LabelValue::ImplicitNull => Self::IMPLICIT_NULL,
            LabelValue::ExplicitNull => Self::EXPLICIT_NULL,
            LabelValue::Real(l) => {
                debug_assert!(
                    l.0 < Self::EXPLICIT_NULL,
                    "label {l} collides with a sentinel"
                );
                l.0
            }
        }
    }

    /// Unpacks a pool word written by `LdpBindings::pack`.
    #[inline]
    pub fn unpack(word: u32) -> Option<LabelValue> {
        match word {
            Self::NONE => None,
            Self::IMPLICIT_NULL => Some(LabelValue::ImplicitNull),
            Self::EXPLICIT_NULL => Some(LabelValue::ExplicitNull),
            l => Some(LabelValue::Real(Label(l))),
        }
    }

    /// Computes every router's advertisements: [`LdpBindings::window`]
    /// for each router, in router order.
    pub fn compute(net: &Network, as_prefixes: &[AsPrefixes]) -> LdpBindings {
        let mut base = Vec::with_capacity(net.num_routers() + 1);
        let mut pool = Vec::new();
        base.push(0u32);
        for r in net.routers() {
            Self::window(net, as_prefixes, r, &mut pool);
            base.push(pool.len() as u32);
        }
        pool.shrink_to_fit();
        LdpBindings { base, pool }
    }

    /// The width of `router`'s advertisement window: its AS's slot
    /// count when it runs LDP, else `0`.
    pub fn window_len(net: &Network, as_prefixes: &[AsPrefixes], router: &Router) -> usize {
        Self::table(net, as_prefixes, router).map_or(0, AsPrefixes::len)
    }

    /// The AS table `router` advertises over, when it runs LDP.
    fn table<'a>(
        net: &Network,
        as_prefixes: &'a [AsPrefixes],
        router: &Router,
    ) -> Option<&'a AsPrefixes> {
        let runs_ldp = router.config.mpls && router.config.ldp_policy != LdpPolicy::None;
        let table = net.as_index(router.asn).and_then(|i| as_prefixes.get(i));
        table.filter(|_| runs_ldp)
    }

    /// The per-router oracle: appends `router`'s advertisement window —
    /// one packed word per slot of its AS table, or nothing when it
    /// runs no LDP — to `out`. [`LdpBindings::compute`] concatenates the
    /// windows; the D5xx verifier recomputes one router at a time into a
    /// reused buffer.
    pub fn window(net: &Network, as_prefixes: &[AsPrefixes], router: &Router, out: &mut Vec<u32>) {
        let Some(ap) = Self::table(net, as_prefixes, router) else {
            return;
        };
        let rid = router.id;
        // Offset the label space per router so adjacent LSRs quote
        // visibly distinct labels (as real tables do).
        let mut next_label = Label::FIRST_DYNAMIC.0 + (rid.0 % 61);
        let start = out.len();
        out.resize(start + ap.len(), Self::NONE);
        let table = &mut out[start..];
        for slot in 0..ap.len() as u32 {
            let advertise = match router.config.ldp_policy {
                LdpPolicy::AllPrefixes => true,
                LdpPolicy::LoopbackOnly => ap.prefix(slot).len == 32,
                LdpPolicy::None => false,
            };
            if !advertise {
                continue;
            }
            let value = if ap.owners(slot).contains(&rid) {
                match router.config.popping {
                    PoppingMode::Php => LabelValue::ImplicitNull,
                    PoppingMode::Uhp => LabelValue::ExplicitNull,
                }
            } else {
                let l = Label(next_label);
                next_label += 1;
                LabelValue::Real(l)
            };
            table[slot as usize] = Self::pack(value);
        }
    }

    /// What `router` advertised for FEC `slot` (slot in its own AS's
    /// prefix table), if anything.
    #[inline]
    pub fn advertised(&self, router: RouterId, slot: u32) -> Option<LabelValue> {
        let start = self.base[router.index()] as usize;
        let end = self.base[router.index() + 1] as usize;
        let i = start + slot as usize;
        if i < end {
            Self::unpack(self.pool[i])
        } else {
            None
        }
    }

    /// Iterates over `(slot, value)` advertised by `router`.
    pub fn advertisements(&self, router: RouterId) -> impl Iterator<Item = (u32, LabelValue)> + '_ {
        let start = self.base[router.index()] as usize;
        let end = self.base[router.index() + 1] as usize;
        Self::unpack_window(&self.pool[start..end])
    }

    /// Iterates over the `(slot, value)` advertisements of a window of
    /// packed words (as [`LdpBindings::window`] writes them).
    pub fn unpack_window(window: &[u32]) -> impl Iterator<Item = (u32, LabelValue)> + '_ {
        window
            .iter()
            .enumerate()
            .filter_map(|(slot, &w)| Self::unpack(w).map(|v| (slot as u32, v)))
    }

    /// Number of FECs `router` advertises.
    pub fn count(&self, router: RouterId) -> usize {
        self.advertisements(router).count()
    }

    /// The raw CSR representation `(base, packed pool)`, for the D5xx
    /// dense-plane verifier's well-formedness checks.
    pub fn csr(&self) -> (&[u32], &[u32]) {
        (&self.base, &self.pool)
    }

    /// Heap bytes reserved by the two tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::control::vec_bytes(&self.base) + crate::control::vec_bytes(&self.pool)
    }

    /// Mutable CSR offsets (test-only mutation hook).
    #[cfg(feature = "mutation")]
    pub fn base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.base
    }

    /// Mutable advertisement pool (test-only mutation hook).
    #[cfg(feature = "mutation")]
    pub fn pool_mut(&mut self) -> &mut Vec<u32> {
        &mut self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPlane;
    use crate::ids::Asn;
    use crate::net::{LinkOpts, NetworkBuilder};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    /// x - y - z in one AS; x is MPLS Cisco, y MPLS Juniper, z IP-only.
    fn mixed_as() -> (Network, [RouterId; 3]) {
        let mut b = NetworkBuilder::new();
        let x = b.add_router("x", Asn(1), RouterConfig::mpls_router(Vendor::CiscoIos));
        let y = b.add_router("y", Asn(1), RouterConfig::mpls_router(Vendor::JuniperJunos));
        let z = b.add_router("z", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        b.link(x, y, LinkOpts::default());
        b.link(y, z, LinkOpts::default());
        (b.build().unwrap(), [x, y, z])
    }

    fn prefixes(net: &Network) -> Vec<AsPrefixes> {
        net.as_list()
            .iter()
            .map(|&asn| AsPrefixes::build(net, asn).0)
            .collect()
    }

    #[test]
    fn cisco_advertises_all_juniper_loopbacks_only() {
        let (net, [x, y, z]) = mixed_as();
        let aps = prefixes(&net);
        let ldp = LdpBindings::compute(&net, &aps);
        // 3 loopbacks + 2 /31s = 5 prefixes; Cisco advertises all.
        assert_eq!(ldp.count(x), 5);
        // Juniper: only the three /32 loopbacks.
        assert_eq!(ldp.count(y), 3);
        // IP-only router: nothing.
        assert_eq!(ldp.count(z), 0);
    }

    #[test]
    fn owners_advertise_null() {
        let (net, [x, _, _]) = mixed_as();
        let cp = ControlPlane::build(&net).unwrap();
        let ldp = &cp.bindings;
        let own_slot = cp.loopback_slot(x).unwrap();
        assert_eq!(ldp.advertised(x, own_slot), Some(LabelValue::ImplicitNull));
        // A prefix x does not own gets a real, dynamic label.
        let other_slot = cp.loopback_slot(RouterId(2)).unwrap();
        match ldp.advertised(x, other_slot) {
            Some(LabelValue::Real(l)) => assert!(!l.is_reserved()),
            other => panic!("expected real label, got {other:?}"),
        }
    }

    #[test]
    fn uhp_owners_advertise_explicit_null() {
        let mut b = NetworkBuilder::new();
        let x = b.add_router(
            "x",
            Asn(1),
            RouterConfig::mpls_router(Vendor::CiscoIos).uhp(),
        );
        let y = b.add_router("y", Asn(1), RouterConfig::mpls_router(Vendor::CiscoIos));
        b.link(x, y, LinkOpts::default());
        let net = b.build().unwrap();
        let cp = ControlPlane::build(&net).unwrap();
        let ldp = &cp.bindings;
        let slot = cp.loopback_slot(x).unwrap();
        assert_eq!(ldp.advertised(x, slot), Some(LabelValue::ExplicitNull));
        // y still uses PHP for its own prefixes.
        let slot_y = cp.loopback_slot(y).unwrap();
        assert_eq!(ldp.advertised(y, slot_y), Some(LabelValue::ImplicitNull));
    }

    #[test]
    fn labels_unique_per_router() {
        let (net, [x, _, _]) = mixed_as();
        let aps = prefixes(&net);
        let ldp = LdpBindings::compute(&net, &aps);
        let mut seen = std::collections::HashSet::new();
        for (_, v) in ldp.advertisements(x) {
            if let LabelValue::Real(l) = v {
                assert!(seen.insert(l), "duplicate incoming label {l}");
            }
        }
        assert!(!seen.is_empty());
    }
}
