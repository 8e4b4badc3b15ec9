//! LDP label distribution (RFC 5036 semantics, downstream unsolicited).
//!
//! Each MPLS router allocates an incoming label per FEC it advertises —
//! all internal prefixes on Cisco, loopback host routes only on Juniper
//! — and advertises the *null* labels for prefixes it owns: implicit
//! null requests Penultimate Hop Popping, explicit null requests
//! Ultimate Hop Popping (paper §2.1).
//!
//! Allocation is a closed form, so no per-`(router, slot)` label is
//! stored. A router numbers the FECs it advertises a real label for in
//! slot order, from `16 + router % 61` up (adjacent LSRs quote visibly
//! distinct labels, as real tables do). The FECs it *counts* are every
//! slot of its AS table, or only the `/32` slots under
//! [`LdpPolicy::LoopbackOnly`]; the counted ones it owns take a null
//! label and no number. So the label of a counted slot is its position
//! among the counted slots, less the router's own counted slots below
//! it, and the inverse walks the same small tables ([`LdpBindings`]).

use crate::control::walk;
use crate::ids::{Label, RouterId};
use crate::net::Network;
use crate::prefixes::AsPrefixes;
use crate::vendor::LdpPolicy;

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

/// The tables every LDP advertisement is computed from. Per AS, the
/// `/32` slots are numbered in slot order, both ways (slot → number,
/// number → slot); per LDP router, the positions among its counted
/// slots of the slots it owns. A slot's position among the counted
/// slots is the slot itself under [`LdpPolicy::AllPrefixes`] and its
/// `/32` number under [`LdpPolicy::LoopbackOnly`]. The advertising
/// policy and popping mode come from the router's walk flags
/// ([`walk::LOOPBACK_ONLY`], [`walk::UHP`]) and its AS from the plane's
/// AS index, so
/// [`ControlPlane::advertised`](crate::control::ControlPlane::advertised)
/// and its inverse never read the `Router` struct.
#[derive(Debug, Clone)]
pub struct LdpBindings {
    /// AS → first entry of its window in `host_number`; length
    /// `num_as + 1`.
    pub(crate) host_number_base: Vec<u32>,
    /// Per AS, one entry per slot: its `/32` number, or `u32::MAX` for
    /// a slot that is not a `/32`.
    pub(crate) host_number: Vec<u32>,
    /// AS → first entry of its window in `host_slot`; length
    /// `num_as + 1`.
    pub(crate) host_slot_base: Vec<u32>,
    /// Per AS, the slot of each `/32` number: its `/32` slots in slot
    /// order.
    pub(crate) host_slot: Vec<u32>,
    /// Router → first entry of its row in `own`; length
    /// `num_routers + 1`.
    pub(crate) own_base: Vec<u32>,
    /// Per LDP router, the counted positions of the slots it owns
    /// (those of its loopback and interface prefixes that it counts),
    /// strictly increasing. A router that runs no LDP has an empty row;
    /// one that does counts at least its loopback's slot.
    pub(crate) own: Vec<u32>,
}

impl LdpBindings {
    /// Marks a slot that is not a `/32` in `host_number`.
    pub const NOT_HOST: u32 = u32::MAX;

    /// Builds the tables from the AS tables and the router-indexed
    /// slot tables the plane writes during its build (`loopback_slot`,
    /// and `iface_slot` in the `iface_slot_base` CSR).
    pub(crate) fn build(
        net: &Network,
        as_prefixes: &[AsPrefixes],
        loopback_slot: &[u32],
        iface_slot_base: &[u32],
        iface_slot: &[u32],
    ) -> LdpBindings {
        let mut host_number_base = Vec::with_capacity(as_prefixes.len() + 1);
        let mut host_slot_base = Vec::with_capacity(as_prefixes.len() + 1);
        let slots: usize = as_prefixes.iter().map(AsPrefixes::len).sum();
        let (mut host_number, mut host_slot) = (Vec::with_capacity(slots), Vec::new());
        for ap in as_prefixes {
            host_number_base.push(host_number.len() as u32);
            host_slot_base.push(host_slot.len() as u32);
            let first = host_slot.len();
            for (s, p) in ap.prefixes.iter().enumerate() {
                if p.len == 32 {
                    host_number.push((host_slot.len() - first) as u32);
                    host_slot.push(s as u32);
                } else {
                    host_number.push(Self::NOT_HOST);
                }
            }
        }
        host_number_base.push(host_number.len() as u32);
        host_slot_base.push(host_slot.len() as u32);
        host_slot.shrink_to_fit();

        let mut own_base = Vec::with_capacity(net.num_routers() + 1);
        let (mut own, mut row) = (Vec::new(), Vec::new());
        own_base.push(0);
        for r in net.routers() {
            if let Some(a) = net.as_index(r.asn).filter(|_| Self::runs_ldp(r)) {
                let i = r.id.index();
                let numbers =
                    &host_number[host_number_base[a] as usize..host_number_base[a + 1] as usize];
                let loopback_only = r.config.ldp_policy == LdpPolicy::LoopbackOnly;
                row.clear();
                row.push(loopback_slot[i]);
                row.extend_from_slice(
                    &iface_slot[iface_slot_base[i] as usize..iface_slot_base[i + 1] as usize],
                );
                row.retain(|&s| s != u32::MAX);
                if loopback_only {
                    row.retain_mut(|s| {
                        *s = numbers[*s as usize];
                        *s != Self::NOT_HOST
                    });
                }
                row.sort_unstable();
                row.dedup();
                own.extend_from_slice(&row);
            }
            own_base.push(own.len() as u32);
        }
        own.shrink_to_fit();
        LdpBindings {
            host_number_base,
            host_number,
            host_slot_base,
            host_slot,
            own_base,
            own,
        }
    }

    /// True when `router` runs LDP: MPLS on and an advertising policy.
    pub fn runs_ldp(router: &crate::router::Router) -> bool {
        router.config.mpls && router.config.ldp_policy != LdpPolicy::None
    }

    /// The first label `router` allocates.
    #[inline]
    fn first_label(router: RouterId) -> u32 {
        Label::FIRST_DYNAMIC.0 + router.0 % 61
    }

    /// `router`'s row of own counted positions; `None` when it runs no
    /// LDP (or its row is out of range).
    #[inline]
    fn own(&self, router: RouterId) -> Option<&[u32]> {
        let i = router.index();
        let (lo, hi) = (*self.own_base.get(i)?, *self.own_base.get(i + 1)?);
        self.own
            .get(lo as usize..hi as usize)
            .filter(|row| !row.is_empty())
    }

    /// The window of AS `home` (dense index) in a per-AS table.
    #[inline]
    fn window<'a>(base: &[u32], pool: &'a [u32], home: u32) -> Option<&'a [u32]> {
        let a = home as usize;
        let (lo, hi) = (*base.get(a)?, *base.get(a + 1)?);
        pool.get(lo as usize..hi as usize)
    }

    /// What `router` (AS index `home`, walk flags `flags`) advertises
    /// for FEC `slot` of its AS table, if anything.
    #[inline]
    pub(crate) fn advertised(
        &self,
        router: RouterId,
        home: u32,
        flags: u8,
        slot: u32,
    ) -> Option<LabelValue> {
        let own = self.own(router)?;
        let numbers = Self::window(&self.host_number_base, &self.host_number, home)?;
        let number = *numbers.get(slot as usize)?;
        let position = if flags & walk::LOOPBACK_ONLY == 0 {
            slot
        } else if number != Self::NOT_HOST {
            number
        } else {
            return None; // a loopback-only router counts /32s only
        };
        // Rows are a few entries long: a branch-free pass counts the own
        // positions below and spots an own one.
        let (mut own_below, mut owned) = (0, false);
        for &o in own {
            own_below += u32::from(o < position);
            owned |= o == position;
        }
        if owned {
            return Some(if flags & walk::UHP != 0 {
                LabelValue::ExplicitNull
            } else {
                LabelValue::ImplicitNull
            });
        }
        let rank = position.checked_sub(own_below)?; // a malformed row
        Some(LabelValue::Real(Label(Self::first_label(router) + rank)))
    }

    /// The inverse of [`LdpBindings::advertised`]: the slot `router`
    /// advertises the real label `label` for, if any.
    #[inline]
    pub(crate) fn fec(&self, router: RouterId, home: u32, flags: u8, label: Label) -> Option<u32> {
        let own = self.own(router)?;
        let loopback_only = flags & walk::LOOPBACK_ONLY != 0;
        let counted = if loopback_only {
            Self::window(&self.host_slot_base, &self.host_slot, home)?
        } else {
            Self::window(&self.host_number_base, &self.host_number, home)?
        };
        // The label's rank among the router's real labels, moved past
        // the positions it owns up to there, is the FEC's position.
        let mut position = label.0.checked_sub(Self::first_label(router))?;
        if position as usize >= counted.len() {
            return None;
        }
        // Sorted rows: once an own position lies past `position`, so
        // do the rest, so a branch-free pass over the row suffices.
        for &o in own {
            position += u32::from(o <= position);
        }
        if loopback_only {
            counted.get(position as usize).copied()
        } else {
            ((position as usize) < counted.len()).then_some(position)
        }
    }

    /// Heap bytes reserved by the tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::control::vec_bytes;
        vec_bytes(&self.host_number_base)
            + vec_bytes(&self.host_number)
            + vec_bytes(&self.host_slot_base)
            + vec_bytes(&self.host_slot)
            + vec_bytes(&self.own_base)
            + vec_bytes(&self.own)
    }

    /// Mutable per-AS window offsets into the `/32` numbers (test-only
    /// mutation hook).
    #[cfg(feature = "mutation")]
    pub fn host_number_base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.host_number_base
    }

    /// Mutable own-position rows (test-only mutation hook).
    #[cfg(feature = "mutation")]
    pub fn own_mut(&mut self) -> &mut Vec<u32> {
        &mut self.own
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
    fn mixed_as() -> (Network, ControlPlane, [RouterId; 3]) {
        let mut b = NetworkBuilder::new();
        let x = b.add_router("x", Asn(1), RouterConfig::mpls_router(Vendor::CiscoIos));
        let y = b.add_router("y", Asn(1), RouterConfig::mpls_router(Vendor::JuniperJunos));
        let z = b.add_router("z", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        b.link(x, y, LinkOpts::default());
        b.link(y, z, LinkOpts::default());
        let net = b.build().unwrap();
        let cp = ControlPlane::build(&net).unwrap();
        (net, cp, [x, y, z])
    }

    /// `(slot, value)` of every advertisement of `router`.
    fn advertisements(cp: &ControlPlane, router: RouterId) -> Vec<(u32, LabelValue)> {
        (0..cp.as_prefixes[0].len() as u32)
            .filter_map(|s| cp.advertised(router, s).map(|v| (s, v)))
            .collect()
    }

    #[test]
    fn cisco_advertises_all_juniper_loopbacks_only() {
        let (_, cp, [x, y, z]) = mixed_as();
        // 3 loopbacks + 2 /31s = 5 prefixes; Cisco advertises all.
        assert_eq!(advertisements(&cp, x).len(), 5);
        // Juniper: only the three /32 loopbacks.
        assert_eq!(advertisements(&cp, y).len(), 3);
        // IP-only router: nothing.
        assert!(advertisements(&cp, z).is_empty());
        // Past the AS table: nothing.
        assert_eq!(cp.advertised(x, 5), None);
    }

    #[test]
    fn owners_advertise_null() {
        let (_, cp, [x, _, z]) = mixed_as();
        let own_slot = cp.loopback_slot(x).unwrap();
        assert_eq!(cp.advertised(x, own_slot), Some(LabelValue::ImplicitNull));
        // A prefix x does not own gets a real, dynamic label.
        let other_slot = cp.loopback_slot(z).unwrap();
        match cp.advertised(x, other_slot) {
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
        let slot = cp.loopback_slot(x).unwrap();
        assert_eq!(cp.advertised(x, slot), Some(LabelValue::ExplicitNull));
        // y still uses PHP for its own prefixes.
        let slot_y = cp.loopback_slot(y).unwrap();
        assert_eq!(cp.advertised(y, slot_y), Some(LabelValue::ImplicitNull));
    }

    #[test]
    fn labels_run_in_slot_order_and_invert() {
        let (_, cp, [x, y, z]) = mixed_as();
        for r in [x, y] {
            let real: Vec<(u32, Label)> = advertisements(&cp, r)
                .into_iter()
                .filter_map(|(s, v)| match v {
                    LabelValue::Real(l) => Some((s, l)),
                    _ => None,
                })
                .collect();
            assert!(!real.is_empty());
            // One increasing run from the router's first label.
            for (k, &(slot, l)) in real.iter().enumerate() {
                assert_eq!(l.0, LdpBindings::first_label(r) + k as u32);
                assert_eq!(cp.ldp_fec(r, l), Some(slot));
            }
            let past = Label(real.last().unwrap().1 .0 + 1);
            assert_eq!(cp.ldp_fec(r, past), None);
            assert_eq!(cp.ldp_fec(r, Label(LdpBindings::first_label(r) - 1)), None);
        }
        assert_eq!(cp.ldp_fec(z, Label(LdpBindings::first_label(z))), None);
    }
}
