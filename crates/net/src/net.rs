//! The network container and its builder.

use crate::addr::{Addr, AddrAllocator, Prefix};
use crate::control::vec_bytes;
use crate::error::NetError;
use crate::ids::{Asn, LinkId, PortRef, RouterId};
use crate::router::{Interface, Router, RouterConfig};
use crate::te::TeTunnel;
use crate::vendor::PoppingMode;
use std::collections::HashMap;

/// A bidirectional point-to-point link between two router interfaces.
#[derive(Clone, Debug)]
pub struct Link {
    /// Dense identifier.
    pub id: LinkId,
    /// One endpoint.
    pub a: PortRef,
    /// The other endpoint.
    pub b: PortRef,
    /// The shared `/31` subnet.
    pub prefix: Prefix,
    /// One-way propagation delay in milliseconds.
    pub delay_ms: f64,
    /// IGP metric in the a→b direction.
    pub metric_ab: u32,
    /// IGP metric in the b→a direction.
    pub metric_ba: u32,
    /// True when the endpoints are in different ASes (an eBGP link).
    pub inter_as: bool,
}

/// Business relationship between two ASes (Gao–Rexford model).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RelKind {
    /// The first AS is the *provider* of the second.
    ProviderCustomer,
    /// Settlement-free peering.
    Peer,
}

/// An AS-level relationship edge.
#[derive(Copy, Clone, Debug)]
pub struct AsRel {
    /// First AS (the provider for [`RelKind::ProviderCustomer`]).
    pub a: Asn,
    /// Second AS (the customer for [`RelKind::ProviderCustomer`]).
    pub b: Asn,
    /// The relationship kind.
    pub kind: RelKind,
}

/// Options for a new link.
#[derive(Copy, Clone, Debug)]
pub struct LinkOpts {
    /// One-way propagation delay in milliseconds.
    pub delay_ms: f64,
    /// IGP metric a→b.
    pub metric_ab: u32,
    /// IGP metric b→a.
    pub metric_ba: u32,
}

impl Default for LinkOpts {
    fn default() -> LinkOpts {
        LinkOpts {
            delay_ms: 1.0,
            metric_ab: 10,
            metric_ba: 10,
        }
    }
}

impl LinkOpts {
    /// Symmetric metric and delay.
    pub fn symmetric(metric: u32, delay_ms: f64) -> LinkOpts {
        LinkOpts {
            delay_ms,
            metric_ab: metric,
            metric_ba: metric,
        }
    }
}

/// Blocks per directory page of the owner index, and addresses per
/// block: an address's top 8 bits pick its /8's directory page, the
/// next 12 its /20 block in that page, the low 12 its offset in the
/// block.
pub const OWNER_DIR_SIZE: usize = 1 << 12;

/// The dense address→owner index over the blocks in use: three array
/// loads from an address to the router holding it, the first from the
/// index itself. The builder hands out addresses from the front of each
/// pool, so every level stays within a small factor of the addresses it
/// indexes. Only [`NetworkBuilder::build`] makes one, so the levels
/// always agree; the fields are public for reading.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct OwnerIndex {
    /// First level, inline so it costs no pointer chase: `addr >> 24` →
    /// base of that /8's [`OWNER_DIR_SIZE`]-entry page in
    /// [`Self::dir`] (`u32::MAX` = no address in the /8).
    pub top: [u32; 256],
    /// Per used /8, one `(start, len)` run of [`Self::pool`] per /20
    /// block: block offset `o` lives at `pool[start + o]` when `o <
    /// len`. A run ends at the block's highest held address and the
    /// runs tile the pool in directory order.
    pub dir: Vec<(u32, u32)>,
    /// Concatenated runs: `owner router id + 1`, `0` = unowned.
    pub pool: Vec<u32>,
}

/// The `dir` index of `addr`'s /20 block and its offset in the block,
/// under a first level that covers `addr`'s /8.
#[inline]
fn owner_slot(top: &[u32; 256], addr: Addr) -> (usize, u32) {
    let block = top[(addr.0 >> 24) as usize] as usize + ((addr.0 >> 12) & 0xFFF) as usize;
    (block, addr.0 & 0xFFF)
}

impl OwnerIndex {
    /// Indexes every router address in three passes: mark the used
    /// /8s, stretch each /20 block's run to its highest held offset,
    /// then fill the runs. Walking the routers in id order keeps the
    /// table bytes deterministic; an address met twice is a
    /// [`NetError::DuplicateAddress`] naming its first holder (in
    /// router order, loopback before interfaces) and the second.
    fn build(routers: &[Router]) -> Result<OwnerIndex, NetError> {
        let addrs = || {
            routers
                .iter()
                .flat_map(|r| r.addrs().map(move |a| (a, r.id)))
        };
        let mut top = [u32::MAX; 256];
        for (addr, _) in addrs() {
            top[(addr.0 >> 24) as usize] = 0;
        }
        let mut pages = 0u32;
        for t in top.iter_mut().filter(|t| **t == 0) {
            *t = pages * OWNER_DIR_SIZE as u32;
            pages += 1;
        }
        let mut dir = vec![(0u32, 0u32); pages as usize * OWNER_DIR_SIZE];
        for (addr, _) in addrs() {
            let (block, off) = owner_slot(&top, addr);
            let run = &mut dir[block];
            run.1 = run.1.max(off + 1);
        }
        let mut cursor = 0u32;
        for run in &mut dir {
            run.0 = cursor;
            cursor += run.1;
        }
        let mut pool = vec![0u32; cursor as usize];
        for (addr, rid) in addrs() {
            let (block, off) = owner_slot(&top, addr);
            let entry = &mut pool[(dir[block].0 + off) as usize];
            if *entry != 0 {
                return Err(NetError::DuplicateAddress {
                    addr,
                    first: RouterId(*entry - 1),
                    second: rid,
                });
            }
            *entry = rid.0 + 1;
        }
        Ok(OwnerIndex { top, dir, pool })
    }

    /// The router holding `addr`.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<RouterId> {
        match self.pool[self.pos(addr)?] {
            0 => None,
            v => Some(RouterId(v - 1)),
        }
    }

    /// The position of `addr` in the pool, when its block run covers
    /// it.
    #[inline]
    fn pos(&self, addr: Addr) -> Option<usize> {
        if self.top[(addr.0 >> 24) as usize] == u32::MAX {
            return None;
        }
        let (block, off) = owner_slot(&self.top, addr);
        let (start, len) = self.dir[block];
        (off < len).then_some((start + off) as usize)
    }

    /// The heap the index reserves, in bytes; the inline first level is
    /// not counted.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.dir) + vec_bytes(&self.pool)
    }
}

/// An immutable network: routers, links, AS relationships, and the
/// address-ownership index. Built once through [`NetworkBuilder`]; the
/// control plane ([`crate::control::ControlPlane`]) is computed from it.
#[derive(Clone, Debug)]
pub struct Network {
    routers: Vec<Router>,
    links: Vec<Link>,
    as_rels: Vec<AsRel>,
    te_tunnels: Vec<TeTunnel>,
    owners: OwnerIndex,
    as_list: Vec<Asn>,
    as_index: HashMap<Asn, usize>,
    as_members: Vec<Vec<RouterId>>,
}

impl Network {
    /// All routers, indexed by [`RouterId`].
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// The router with the given id.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with the given id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The declared AS-level relationships.
    pub fn as_rels(&self) -> &[AsRel] {
        &self.as_rels
    }

    /// The configured RSVP-TE tunnels.
    pub fn te_tunnels(&self) -> &[TeTunnel] {
        &self.te_tunnels
    }

    /// The router owning `addr` (loopback or interface address),
    /// through the dense owner index.
    #[inline]
    pub fn owner(&self, addr: Addr) -> Option<RouterId> {
        self.owners.get(addr)
    }

    /// The AS owning `addr`, through its owner router.
    pub fn owner_asn(&self, addr: Addr) -> Option<Asn> {
        self.owner(addr).map(|r| self.router(r).asn)
    }

    /// All ASes present, in registration order.
    pub fn as_list(&self) -> &[Asn] {
        &self.as_list
    }

    /// The dense index of an AS (used by per-AS control-plane tables).
    pub fn as_index(&self, asn: Asn) -> Option<usize> {
        self.as_index.get(&asn).copied()
    }

    /// The routers of an AS.
    pub fn as_members(&self, asn: Asn) -> &[RouterId] {
        match self.as_index(asn) {
            Some(i) => &self.as_members[i],
            None => &[],
        }
    }

    /// A router by name (linear scan; intended for scenarios/tests).
    pub fn router_by_name(&self, name: &str) -> Option<&Router> {
        self.routers.iter().find(|r| r.name == name)
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The address→owner index [`Self::owner`] reads, for the D512
    /// invariant check and footprint accounting.
    pub fn owner_index(&self) -> &OwnerIndex {
        &self.owners
    }

    /// Mutable owner-index block directory (test-only mutation hook for
    /// the D512 owner-index invariant check).
    #[cfg(feature = "mutation")]
    pub fn owner_dir_mut(&mut self) -> &mut Vec<(u32, u32)> {
        &mut self.owners.dir
    }

    /// Rebinds the indexed address `addr` to `owner` (`None` = unowned)
    /// in the owner index without touching the routers that actually
    /// hold it (test-only mutation hook for the D512 owner-index
    /// invariant check). Panics when the index does not cover `addr`.
    #[cfg(feature = "mutation")]
    pub fn poison_owner_index(&mut self, addr: Addr, owner: Option<RouterId>) {
        let pos = self
            .owners
            .pos(addr)
            .expect("the owner index covers the address");
        self.owners.pool[pos] = owner.map_or(0, |o| o.0 + 1);
    }

    /// Border routers of `asn`: members with at least one inter-AS link.
    pub fn borders(&self, asn: Asn) -> Vec<RouterId> {
        self.as_members(asn)
            .iter()
            .copied()
            .filter(|&r| {
                self.router(r)
                    .ifaces
                    .iter()
                    .any(|i| self.link(i.link).inter_as)
            })
            .collect()
    }
}

/// Incrementally constructs a [`Network`].
///
/// Loopbacks are auto-allocated as `10.<as-index>.0.0/18` host addresses
/// and intra-AS link subnets from `10.<as-index>.64.0/18` for the first
/// 246 ASes (denser `/20` pools in the upper halves of the same space
/// carry the plan to 1266 ASes — see `NetworkBuilder::as_pools`);
/// inter-AS link subnets come from the shared `172.16.0.0/12` pool, so
/// address ownership is readable straight from traces. Explicit
/// addresses can be supplied for hand-built scenarios.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    routers: Vec<Router>,
    links: Vec<Link>,
    as_rels: Vec<AsRel>,
    te_tunnels: Vec<TeTunnel>,
    as_list: Vec<Asn>,
    as_index: HashMap<Asn, usize>,
    loopback_alloc: Vec<AddrAllocator>,
    link_alloc: Vec<AddrAllocator>,
    inter_as_alloc: Option<AddrAllocator>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    fn as_slot(&mut self, asn: Asn) -> usize {
        if let Some(&i) = self.as_index.get(&asn) {
            return i;
        }
        let i = self.as_list.len();
        let (loopbacks, links) = NetworkBuilder::as_pools(i);
        self.as_list.push(asn);
        self.as_index.insert(asn, i);
        self.loopback_alloc.push(AddrAllocator::new(loopbacks));
        self.link_alloc.push(AddrAllocator::new(links));
        i
    }

    /// The address plan: AS slot → `(loopback pool, intra-AS link
    /// pool)`.
    ///
    /// The first 246 slots keep the original `/18` pair in the lower
    /// half of `10.<slot+1>.0.0/16`, so every address of a topology
    /// that fit the old plan is byte-identical under this one. Slots
    /// beyond 245 pack four ASes per second octet as `/20` pairs in
    /// the **upper** half (`.128.0` and up), which the legacy plan
    /// never touched — capacity 246 + 255·4 = 1266 ASes, enough for
    /// thousand-AS internets, with 4094 loopbacks and 2048 `/31` link
    /// subnets per extended AS.
    ///
    /// # Panics
    /// When `i` exceeds the 1266-slot plan.
    fn as_pools(i: usize) -> (Prefix, Prefix) {
        if i < 246 {
            let base = (i + 1) as u8; // 10.0/16 reserved for hosts-less use
            (
                Prefix::new(Addr::new(10, base, 0, 0), 18),
                Prefix::new(Addr::new(10, base, 64, 0), 18),
            )
        } else {
            let j = i - 246;
            let second = 1 + j / 4;
            assert!(second <= 255, "address plan supports at most 1266 ASes");
            let third = 128 + (j % 4) as u8 * 32;
            (
                Prefix::new(Addr::new(10, second as u8, third, 0), 20),
                Prefix::new(Addr::new(10, second as u8, third + 16, 0), 20),
            )
        }
    }

    /// Adds a router with an auto-allocated loopback.
    pub fn add_router(&mut self, name: &str, asn: Asn, config: RouterConfig) -> RouterId {
        let slot = self.as_slot(asn);
        let loopback = self.loopback_alloc[slot]
            .alloc_host()
            .expect("loopback pool exhausted");
        self.add_router_with_loopback(name, asn, config, loopback)
    }

    /// Adds a router with an explicit loopback address.
    pub fn add_router_with_loopback(
        &mut self,
        name: &str,
        asn: Asn,
        config: RouterConfig,
        loopback: Addr,
    ) -> RouterId {
        self.as_slot(asn);
        let id = RouterId(self.routers.len() as u32);
        self.routers.push(Router {
            id,
            name: name.to_string(),
            asn,
            loopback,
            ifaces: Vec::new(),
            config,
        });
        id
    }

    /// Connects two routers with an auto-allocated `/31` subnet. Returns
    /// the new link id. Intra-AS subnets come from the first router's AS
    /// pool; inter-AS subnets from the shared pool.
    pub fn link(&mut self, a: RouterId, b: RouterId, opts: LinkOpts) -> LinkId {
        let (asn_a, asn_b) = (self.routers[a.index()].asn, self.routers[b.index()].asn);
        let prefix = if asn_a == asn_b {
            let slot = self.as_index[&asn_a];
            self.link_alloc[slot]
                .alloc_subnet(31)
                .expect("link pool exhausted")
        } else {
            self.inter_as_alloc
                .get_or_insert_with(|| {
                    AddrAllocator::new(Prefix::new(Addr::new(172, 16, 0, 0), 12))
                })
                .alloc_subnet(31)
                .expect("inter-AS link pool exhausted")
        };
        self.link_with_prefix(a, b, prefix, opts)
    }

    /// Connects two routers over an explicit `/31` subnet: `a` receives
    /// the even address, `b` the odd one.
    pub fn link_with_prefix(
        &mut self,
        a: RouterId,
        b: RouterId,
        prefix: Prefix,
        opts: LinkOpts,
    ) -> LinkId {
        assert_eq!(prefix.len, 31, "links use /31 subnets");
        assert_ne!(a, b, "self-links are not allowed");
        let id = LinkId(self.links.len() as u32);
        let (addr_a, addr_b) = (prefix.nth(0), prefix.nth(1));
        let iface_a = self.routers[a.index()].ifaces.len() as u32;
        let iface_b = self.routers[b.index()].ifaces.len() as u32;
        let inter_as = self.routers[a.index()].asn != self.routers[b.index()].asn;
        self.routers[a.index()].ifaces.push(Interface {
            addr: addr_a,
            prefix,
            link: id,
            peer: b,
            peer_addr: addr_b,
        });
        self.routers[b.index()].ifaces.push(Interface {
            addr: addr_b,
            prefix,
            link: id,
            peer: a,
            peer_addr: addr_a,
        });
        self.links.push(Link {
            id,
            a: PortRef {
                router: a,
                iface: iface_a,
            },
            b: PortRef {
                router: b,
                iface: iface_b,
            },
            prefix,
            delay_ms: opts.delay_ms,
            metric_ab: opts.metric_ab,
            metric_ba: opts.metric_ba,
            inter_as,
        });
        id
    }

    /// Declares an AS-level business relationship.
    pub fn as_rel(&mut self, a: Asn, b: Asn, kind: RelKind) {
        self.as_rels.push(AsRel { a, b, kind });
    }

    /// Pins an RSVP-TE tunnel along an explicit router path (head LER
    /// first, tail LER last). Validated when the control plane is
    /// built. Returns the tunnel id.
    pub fn te_tunnel(&mut self, path: Vec<RouterId>, popping: PoppingMode) -> u32 {
        let id = self.te_tunnels.len() as u32;
        self.te_tunnels.push(TeTunnel { id, path, popping });
        id
    }

    /// Finalises the network, indexing every address and validating
    /// that no two holders share one.
    pub fn build(self) -> Result<Network, NetError> {
        let owners = OwnerIndex::build(&self.routers)?;
        let mut as_members = vec![Vec::new(); self.as_list.len()];
        for r in &self.routers {
            as_members[self.as_index[&r.asn]].push(r.id);
        }
        Ok(Network {
            routers: self.routers,
            links: self.links,
            as_rels: self.as_rels,
            te_tunnels: self.te_tunnels,
            owners,
            as_list: self.as_list,
            as_index: self.as_index,
            as_members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;

    fn two_as_net() -> Network {
        let mut b = NetworkBuilder::new();
        let r1 = b.add_router("A1", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let r2 = b.add_router("A2", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let r3 = b.add_router("B1", Asn(2), RouterConfig::ip_router(Vendor::JuniperJunos));
        b.link(r1, r2, LinkOpts::default());
        b.link(r2, r3, LinkOpts::default());
        b.as_rel(Asn(1), Asn(2), RelKind::ProviderCustomer);
        b.build().unwrap()
    }

    #[test]
    fn builder_allocates_readable_addresses() {
        let net = two_as_net();
        let a1 = net.router_by_name("A1").unwrap();
        assert_eq!(a1.loopback, Addr::new(10, 1, 0, 0));
        let b1 = net.router_by_name("B1").unwrap();
        assert_eq!(b1.loopback, Addr::new(10, 2, 0, 0));
        // Intra-AS link in AS1's pool, inter-AS link in 172.16/12.
        assert_eq!(net.link(LinkId(0)).prefix.addr, Addr::new(10, 1, 64, 0));
        assert_eq!(net.link(LinkId(1)).prefix.addr.octets()[0], 172);
        assert!(net.link(LinkId(1)).inter_as);
        assert!(!net.link(LinkId(0)).inter_as);
    }

    #[test]
    fn owner_index() {
        let net = two_as_net();
        let a2 = net.router_by_name("A2").unwrap();
        assert_eq!(net.owner(a2.loopback), Some(a2.id));
        assert_eq!(net.owner(a2.ifaces[0].addr), Some(a2.id));
        assert_eq!(net.owner_asn(a2.loopback), Some(Asn(1)));
        assert_eq!(net.owner(Addr::new(9, 9, 9, 9)), None);
        for r in net.routers() {
            assert_eq!(net.owner(r.loopback), Some(r.id));
            for i in &r.ifaces {
                assert_eq!(net.owner(i.addr), Some(r.id));
                assert_eq!(net.owner(Addr(i.addr.0 + 4096)), None);
            }
        }
        assert_eq!(net.owner(Addr::new(192, 0, 2, 1)), None);
        // Each run ends at its block's highest held address.
        let ix = net.owner_index();
        let held = net
            .routers()
            .iter()
            .map(|r| 1 + r.ifaces.len())
            .sum::<usize>();
        assert!(ix.pool.len() < 2 * held + 8, "{} entries", ix.pool.len());
    }

    /// Explicit loopbacks `10.0.0.1` and `10.0.0.5` (one /20 run with a
    /// gap), `192.168.1.1`, and one link over `172.16.0.0/31`: three /8s.
    fn three_slash8_net() -> Network {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router_with_loopback("X", Asn(1), cfg.clone(), Addr::new(10, 0, 0, 1));
        let y = b.add_router_with_loopback("Y", Asn(1), cfg.clone(), Addr::new(10, 0, 0, 5));
        let z = b.add_router_with_loopback("Z", Asn(2), cfg, Addr::new(192, 168, 1, 1));
        b.link(x, y, LinkOpts::default());
        let p = Prefix::new(Addr::new(172, 16, 0, 0), 31);
        b.link_with_prefix(y, z, p, LinkOpts::default());
        b.as_rel(Asn(1), Asn(2), RelKind::Peer);
        b.build().unwrap()
    }

    #[test]
    fn owner_index_resolves_every_address_across_three_slash8s() {
        let net = three_slash8_net();
        let mut held = 0;
        for r in net.routers() {
            for addr in r.addrs() {
                assert_eq!(net.owner(addr), Some(r.id), "{addr}");
                held += 1;
            }
        }
        let ix = net.owner_index();
        let pages = ix.top.iter().filter(|&&t| t != u32::MAX).count();
        assert_eq!(pages, 3);
        assert_eq!(ix.dir.len(), 3 * OWNER_DIR_SIZE);
        assert_eq!(ix.pool.iter().filter(|&&e| e != 0).count(), held);
    }

    #[test]
    fn owner_index_misses_every_unheld_address() {
        let net = three_slash8_net();
        for addr in [
            Addr::new(10, 0, 0, 3),        // a gap inside a used /20 run
            Addr::new(10, 0, 0, 6),        // one past that run's end
            Addr::new(10, 0, 16, 1),       // an unused /20 of a used /8
            Addr::new(11, 0, 0, 1),        // an unused /8
            Addr::new(0, 0, 0, 0),         // the lowest address
            Addr::new(255, 255, 255, 255), // the highest address
        ] {
            assert_eq!(net.owner(addr), None, "{addr}");
            assert_eq!(net.owner_asn(addr), None, "{addr}");
        }
    }

    /// The clash the former owner hash reported: walking routers in id
    /// order, loopback before interfaces, the first address inserted
    /// twice with its earlier holder.
    fn hash_clash(net: NetworkBuilder) -> (Addr, RouterId, RouterId) {
        let mut seen = HashMap::new();
        for r in &net.routers {
            for addr in r.addrs() {
                if let Some(prev) = seen.insert(addr, r.id) {
                    return (addr, prev, r.id);
                }
            }
        }
        panic!("no clash")
    }

    fn build_clash(b: NetworkBuilder) -> (Addr, RouterId, RouterId) {
        match b.build() {
            Err(NetError::DuplicateAddress {
                addr,
                first,
                second,
            }) => (addr, first, second),
            other => panic!("expected a duplicate address, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_address_pairs_match_the_hash_era_pairs() {
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        // Routers R0.. with loopbacks 10.0.0.<100 + i>, linked pairwise
        // over the given /31s, then one more router W with `w_loopback`.
        let net = |links: &[(u32, u32, Addr)], w_loopback: Option<Addr>| {
            let mut b = NetworkBuilder::new();
            for i in 0..4u8 {
                let lo = Addr::new(10, 0, 0, 100 + i);
                b.add_router_with_loopback(&format!("R{i}"), Asn(1), cfg.clone(), lo);
            }
            for &(a, c, base) in links {
                let p = Prefix::new(base, 31);
                b.link_with_prefix(RouterId(a), RouterId(c), p, LinkOpts::default());
            }
            if let Some(lo) = w_loopback {
                b.add_router_with_loopback("W", Asn(1), cfg.clone(), lo);
            }
            b
        };
        let cases = [
            // R2's interface takes R0's loopback.
            (
                vec![(2, 3, Addr::new(10, 0, 0, 100))],
                None,
                (Addr::new(10, 0, 0, 100), RouterId(0), RouterId(2)),
            ),
            // W's loopback takes R0's interface.
            (
                vec![(0, 1, Addr::new(10, 9, 0, 0))],
                Some(Addr::new(10, 9, 0, 0)),
                (Addr::new(10, 9, 0, 0), RouterId(0), RouterId(4)),
            ),
            // Two links over one /31: R2's interface takes R0's.
            (
                vec![
                    (0, 1, Addr::new(10, 9, 0, 0)),
                    (2, 3, Addr::new(10, 9, 0, 0)),
                ],
                None,
                (Addr::new(10, 9, 0, 0), RouterId(0), RouterId(2)),
            ),
        ];
        for (links, w, want) in cases {
            assert_eq!(hash_clash(net(&links, w)), want);
            assert_eq!(build_clash(net(&links, w)), want);
        }
    }

    #[test]
    fn membership_and_borders() {
        let net = two_as_net();
        assert_eq!(net.as_members(Asn(1)).len(), 2);
        assert_eq!(net.as_members(Asn(2)).len(), 1);
        assert_eq!(net.as_members(Asn(7)).len(), 0);
        let borders = net.borders(Asn(1));
        assert_eq!(borders, vec![net.router_by_name("A2").unwrap().id]);
    }

    #[test]
    fn duplicate_addresses_rejected() {
        let mut b = NetworkBuilder::new();
        let lo = Addr::new(10, 9, 9, 9);
        b.add_router_with_loopback("X", Asn(1), RouterConfig::host(), lo);
        b.add_router_with_loopback("Y", Asn(1), RouterConfig::host(), lo);
        assert!(matches!(b.build(), Err(NetError::DuplicateAddress { .. })));
    }

    #[test]
    fn address_plan_extends_past_246_ases_without_moving_legacy_pools() {
        // Legacy slots keep the exact /18 pairs (byte-compatibility
        // with every pre-extension topology)...
        assert_eq!(
            NetworkBuilder::as_pools(0),
            (
                Prefix::new(Addr::new(10, 1, 0, 0), 18),
                Prefix::new(Addr::new(10, 1, 64, 0), 18)
            )
        );
        assert_eq!(
            NetworkBuilder::as_pools(245),
            (
                Prefix::new(Addr::new(10, 246, 0, 0), 18),
                Prefix::new(Addr::new(10, 246, 64, 0), 18)
            )
        );
        // ...and extended slots pack /20 pairs into the upper halves.
        assert_eq!(
            NetworkBuilder::as_pools(246),
            (
                Prefix::new(Addr::new(10, 1, 128, 0), 20),
                Prefix::new(Addr::new(10, 1, 144, 0), 20)
            )
        );
        assert_eq!(
            NetworkBuilder::as_pools(249),
            (
                Prefix::new(Addr::new(10, 1, 224, 0), 20),
                Prefix::new(Addr::new(10, 1, 240, 0), 20)
            )
        );
        assert_eq!(
            NetworkBuilder::as_pools(1265),
            (
                Prefix::new(Addr::new(10, 255, 224, 0), 20),
                Prefix::new(Addr::new(10, 255, 240, 0), 20)
            )
        );
        // No pool overlaps any other across the whole plan.
        let pools: Vec<Prefix> = (0..1266)
            .flat_map(|i| {
                let (lo, li) = NetworkBuilder::as_pools(i);
                [lo, li]
            })
            .collect();
        for (i, a) in pools.iter().enumerate() {
            for b in &pools[i + 1..] {
                assert!(
                    !a.covers(b) && !b.covers(a),
                    "pools {a:?} and {b:?} overlap"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 1266")]
    fn address_plan_rejects_slot_1266() {
        let _ = NetworkBuilder::as_pools(1266);
    }

    #[test]
    fn thousand_as_builder_allocates_disjoint_addresses() {
        let mut b = NetworkBuilder::new();
        let mut ids = Vec::new();
        for asn in 0..1000u32 {
            let r1 = b.add_router(
                &format!("R{asn}a"),
                Asn(asn + 1),
                RouterConfig::ip_router(Vendor::CiscoIos),
            );
            let r2 = b.add_router(
                &format!("R{asn}b"),
                Asn(asn + 1),
                RouterConfig::ip_router(Vendor::CiscoIos),
            );
            b.link(r1, r2, LinkOpts::default());
            ids.push(r1);
        }
        // Chain the ASes so the network is connected.
        for w in ids.windows(2) {
            b.link(w[0], w[1], LinkOpts::default());
        }
        for asn in 1..1000u32 {
            b.as_rel(Asn(asn), Asn(asn + 1), RelKind::Peer);
        }
        let net = b.build().expect("duplicate-free thousand-AS address plan");
        assert_eq!(net.routers().len(), 2000);
        // Legacy region untouched: first AS still gets the old bytes.
        assert_eq!(net.routers()[0].loopback, Addr::new(10, 1, 0, 0));
        // Extended region in the upper halves.
        let r = &net.routers()[2 * 246];
        assert_eq!(r.loopback.octets()[2] & 0x80, 0x80);
        assert_eq!(net.owner(r.loopback), Some(r.id));
    }

    #[test]
    fn link_endpoints_see_each_other() {
        let net = two_as_net();
        let a1 = net.router_by_name("A1").unwrap();
        let a2 = net.router_by_name("A2").unwrap();
        let i = &a1.ifaces[0];
        assert_eq!(i.peer, a2.id);
        assert_eq!(i.peer_addr, a2.ifaces[0].addr);
        assert_eq!(i.prefix, a2.ifaces[0].prefix);
        assert_ne!(i.addr, a2.ifaces[0].addr);
    }
}
