//! Per-AS internal prefix tables.
//!
//! Every AS advertises a set of *internal* prefixes through its IGP:
//! member loopbacks (`/32` host routes) and the `/31` subnets of links
//! touching the AS (including its side of eBGP links). The table is the
//! shared vocabulary of the control plane: FIB entries, LDP FECs and
//! LFIB entries all refer to dense *slots* in it.

use crate::addr::{Addr, Prefix};
use crate::ids::{Asn, RouterId};
use crate::net::Network;
use crate::trie::PrefixTrie;
use std::collections::HashMap;

/// The internal prefixes of one AS, with owners and an LPM index.
#[derive(Debug, Clone)]
pub struct AsPrefixes {
    /// The AS.
    pub asn: Asn,
    /// Slot → prefix.
    pub prefixes: Vec<Prefix>,
    /// Slot → member routers owning an address inside the prefix.
    pub owners: Vec<Vec<RouterId>>,
    /// Address → slot, longest-prefix-match.
    pub lpm: PrefixTrie<u32>,
}

impl AsPrefixes {
    /// Collects the internal prefixes of `asn`.
    pub fn build(net: &Network, asn: Asn) -> AsPrefixes {
        let mut prefixes: Vec<Prefix> = Vec::new();
        let mut owners: Vec<Vec<RouterId>> = Vec::new();
        let mut index: HashMap<Prefix, u32> = HashMap::new();
        let mut add = |prefix: Prefix, owner: RouterId| {
            let slot = *index.entry(prefix).or_insert_with(|| {
                prefixes.push(prefix);
                owners.push(Vec::new());
                (prefixes.len() - 1) as u32
            });
            let o = &mut owners[slot as usize];
            if !o.contains(&owner) {
                o.push(owner);
            }
        };
        for &rid in net.as_members(asn) {
            let r = net.router(rid);
            add(r.loopback.host_prefix(), rid);
            for iface in &r.ifaces {
                add(iface.prefix, rid);
            }
        }
        let mut lpm = PrefixTrie::new();
        for (slot, p) in prefixes.iter().enumerate() {
            lpm.insert(*p, slot as u32);
        }
        AsPrefixes {
            asn,
            prefixes,
            owners,
            lpm,
        }
    }

    /// The slot whose prefix best matches `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<u32> {
        self.lpm.lookup(addr).map(|(_, &slot)| slot)
    }

    /// The prefix stored at `slot`.
    pub fn prefix(&self, slot: u32) -> Prefix {
        self.prefixes[slot as usize]
    }

    /// The owners of `slot`.
    pub fn owners(&self, slot: u32) -> &[RouterId] {
        &self.owners[slot as usize]
    }

    /// Heap bytes reserved by the table, its owner sets and its trie.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::control::vec_bytes;
        vec_bytes(&self.prefixes)
            + vec_bytes(&self.owners)
            + self.owners.iter().map(vec_bytes).sum::<usize>()
            + self.lpm.heap_bytes()
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
    use crate::net::{LinkOpts, NetworkBuilder};
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
        (b.build().unwrap(), [x, y, z])
    }

    #[test]
    fn collects_loopbacks_and_links() {
        let (net, [x, y, _]) = line3();
        let ap = AsPrefixes::build(&net, Asn(1));
        // 2 loopbacks + 1 intra link + 1 inter-AS link subnet.
        assert_eq!(ap.len(), 4);
        let lo_x = net.router(x).loopback.host_prefix();
        let slot = ap.lookup(net.router(x).loopback).unwrap();
        assert_eq!(ap.prefix(slot), lo_x);
        assert_eq!(ap.owners(slot), &[x]);
        // The intra-AS /31 has both endpoints as owners.
        let link_addr = net.router(x).ifaces[0].addr;
        let slot = ap.lookup(link_addr).unwrap();
        let mut o = ap.owners(slot).to_vec();
        o.sort();
        assert_eq!(o, vec![x, y]);
    }

    #[test]
    fn inter_as_subnet_owned_by_local_border_only() {
        let (net, [_, y, z]) = line3();
        let ap1 = AsPrefixes::build(&net, Asn(1));
        let inter_prefix = net.router(z).ifaces[0].prefix;
        let slot = ap1
            .lookup(inter_prefix.nth(0))
            .expect("inter-AS subnet visible in AS1");
        assert_eq!(ap1.prefix(slot), inter_prefix);
        assert_eq!(ap1.owners(slot), &[y]);
        // And from AS2's point of view, owned by z only.
        let ap2 = AsPrefixes::build(&net, Asn(2));
        let slot = ap2.lookup(inter_prefix.nth(1)).unwrap();
        assert_eq!(ap2.owners(slot), &[z]);
    }

    #[test]
    fn lookup_misses_foreign_space() {
        let (net, _) = line3();
        let ap = AsPrefixes::build(&net, Asn(1));
        assert!(ap.lookup(Addr::new(8, 8, 8, 8)).is_none());
        assert!(!ap.is_empty());
    }
}
