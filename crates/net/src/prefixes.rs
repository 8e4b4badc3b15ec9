//! Per-AS internal prefix tables.
//!
//! Every AS advertises a set of *internal* prefixes through its IGP:
//! member loopbacks (`/32` host routes) and the `/31` subnets of links
//! touching the AS (including its side of eBGP links). The table is the
//! shared vocabulary of the control plane: FIB entries, LDP FECs and
//! LFIB entries all refer to dense *slots* in it.
//!
//! Slots are numbered as the table is built, by first appearance over
//! the members in member order (each member's loopback, then its
//! interfaces). The only addresses the packet walk resolves to a slot
//! are a router's loopback and interface addresses inside its own AS,
//! and [`AsPrefixes::build`] hands back the slot of each as it numbers
//! them, so nothing looks an address up by longest-prefix match.

use crate::addr::Prefix;
use crate::hash::WordMap;
use crate::ids::{Asn, RouterId};
use crate::net::Network;

/// The internal prefixes of one AS, with each slot's owners as a CSR.
#[derive(Debug, Clone)]
pub struct AsPrefixes {
    /// The AS.
    pub asn: Asn,
    /// Slot → prefix.
    pub prefixes: Vec<Prefix>,
    /// Slot → first entry of [`Self::owner_ids`]; length `slots + 1`.
    pub owner_base: Vec<u32>,
    /// Each slot's owners — the members holding an address inside its
    /// prefix — in member order, slot after slot.
    pub owner_ids: Vec<RouterId>,
}

impl AsPrefixes {
    /// Collects the internal prefixes of `asn`. Also returns the slot
    /// of every address the members hold, member by member: the
    /// loopback's slot, then one per interface in interface order.
    pub fn build(net: &Network, asn: Asn) -> (AsPrefixes, Vec<u32>) {
        let members = net.as_members(asn);
        let held = members
            .iter()
            .map(|&rid| 1 + net.router(rid).ifaces.len())
            .sum();
        let mut prefixes = Vec::new();
        let mut index: WordMap<Prefix, u32> = WordMap::default();
        index.reserve(held);
        let mut addr_slots = Vec::with_capacity(held);
        // One `(slot, owner)` pair per distinct slot a member holds.
        let mut owned: Vec<(u32, RouterId)> = Vec::with_capacity(held);
        for &rid in members {
            let r = net.router(rid);
            let run = addr_slots.len();
            let held_prefixes =
                std::iter::once(r.loopback.host_prefix()).chain(r.ifaces.iter().map(|i| i.prefix));
            for prefix in held_prefixes {
                let next = prefixes.len() as u32;
                let slot = *index.entry(prefix).or_insert(next);
                if slot == next {
                    prefixes.push(prefix);
                }
                if !addr_slots[run..].contains(&slot) {
                    owned.push((slot, rid));
                }
                addr_slots.push(slot);
            }
        }
        prefixes.shrink_to_fit();
        // Counting sort by slot; stable, so each slot keeps its owners
        // in member order.
        let mut owner_base = vec![0u32; prefixes.len() + 1];
        for &(slot, _) in &owned {
            owner_base[slot as usize + 1] += 1;
        }
        for s in 1..owner_base.len() {
            owner_base[s] += owner_base[s - 1];
        }
        let mut cursor = owner_base.clone();
        let mut owner_ids = vec![RouterId(0); owned.len()];
        for &(slot, rid) in &owned {
            owner_ids[cursor[slot as usize] as usize] = rid;
            cursor[slot as usize] += 1;
        }
        (
            AsPrefixes {
                asn,
                prefixes,
                owner_base,
                owner_ids,
            },
            addr_slots,
        )
    }

    /// The prefix stored at `slot`.
    pub fn prefix(&self, slot: u32) -> Prefix {
        self.prefixes[slot as usize]
    }

    /// The owners of `slot`.
    pub fn owners(&self, slot: u32) -> &[RouterId] {
        let s = slot as usize;
        &self.owner_ids[self.owner_base[s] as usize..self.owner_base[s + 1] as usize]
    }

    /// Heap bytes reserved by the table and its owner CSR.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::control::vec_bytes;
        vec_bytes(&self.prefixes) + vec_bytes(&self.owner_base) + vec_bytes(&self.owner_ids)
    }

    /// Number of prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True when the AS has no prefixes (no members).
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPlane;
    use crate::net::{LinkOpts, NetworkBuilder, RelKind};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    fn line3() -> (Network, [RouterId; 3]) {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router("x", Asn(1), cfg.clone());
        let y = b.add_router("y", Asn(1), cfg.clone());
        let z = b.add_router("z", Asn(2), cfg);
        b.link(x, y, LinkOpts::default());
        b.link(y, z, LinkOpts::default());
        b.as_rel(Asn(1), Asn(2), RelKind::Peer);
        (b.build().unwrap(), [x, y, z])
    }

    #[test]
    fn slots_numbered_by_first_appearance() {
        let (net, [x, y, _]) = line3();
        let (ap, slots) = AsPrefixes::build(&net, Asn(1));
        // x: loopback, x–y link; y: loopback, x–y link, y–z link.
        assert_eq!(slots, [0, 1, 2, 1, 3]);
        assert_eq!(ap.len(), 4);
        assert_eq!(ap.prefix(2), net.router(y).loopback.host_prefix());
        assert_eq!(ap.owner_base, [0, 1, 3, 4, 5]);
        assert_eq!(ap.owners(1), &[x, y]);
        assert_eq!(ap.owners(3), &[y]);
    }

    #[test]
    fn collects_loopbacks_and_links() {
        let (net, [x, y, _]) = line3();
        let cp = ControlPlane::build(&net).unwrap();
        let ap = &cp.as_prefixes[net.as_index(Asn(1)).unwrap()];
        // 2 loopbacks + 1 intra link + 1 inter-AS link subnet.
        assert_eq!(ap.len(), 4);
        let slot = cp.loopback_slot(x).unwrap();
        assert_eq!(ap.prefix(slot), net.router(x).loopback.host_prefix());
        assert_eq!(ap.owners(slot), &[x]);
        // The intra-AS /31 is one slot, owned by both endpoints.
        let slot = cp.iface_slot(x, 0).unwrap();
        assert_eq!(cp.iface_slot(y, 0), Some(slot));
        assert_eq!(ap.prefix(slot), net.router(x).ifaces[0].prefix);
        assert_eq!(ap.owners(slot), &[x, y]);
    }

    #[test]
    fn inter_as_subnet_owned_by_local_border_only() {
        let (net, [_, y, z]) = line3();
        let cp = ControlPlane::build(&net).unwrap();
        let inter_prefix = net.router(z).ifaces[0].prefix;
        let ap1 = &cp.as_prefixes[net.as_index(Asn(1)).unwrap()];
        let slot = cp.iface_slot(y, 1).expect("inter-AS subnet visible in AS1");
        assert_eq!(ap1.prefix(slot), inter_prefix);
        assert_eq!(ap1.owners(slot), &[y]);
        // And from AS2's point of view, owned by z only.
        let ap2 = &cp.as_prefixes[net.as_index(Asn(2)).unwrap()];
        let slot = cp.iface_slot(z, 0).unwrap();
        assert_eq!(ap2.prefix(slot), inter_prefix);
        assert_eq!(ap2.owners(slot), &[z]);
    }
}
