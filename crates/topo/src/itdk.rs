//! ITDK-style router-level snapshots.
//!
//! CAIDA's Internet Topology Data Kit aggregates traceroute paths into a
//! router-level graph (alias resolution) with node-to-AS annotations.
//! The paper's campaign is *driven* by such a snapshot: high-degree
//! nodes (degree ≥ 128) mark suspected tunnel endpoints, and the target
//! list is built from their one- and two-hop neighborhoods (§4).
//!
//! Aggregation is incremental: an [`ItdkBuilder`] accepts one IP path
//! at a time ([`ItdkBuilder::ingest`]) and updates the node/link/address
//! tables in O(new hops), so a campaign can feed it trace-by-trace as
//! shard merges complete instead of materializing every path and
//! rebuilding from scratch. [`ItdkBuilder::finish`] then *canonicalizes*
//! the accumulated graph — nodes renumbered in ascending resolver-key
//! order, per-node address lists sorted — so the finished
//! [`ItdkSnapshot`] is byte-identical regardless of the order paths were
//! ingested in. [`ItdkSnapshot::build`] is the batch convenience wrapper
//! over the same builder.
//!
//! Alias resolution is delegated to a caller-supplied resolver (tests
//! and campaigns use simulator ground truth; an imperfect resolver can
//! be injected to study its effect).

use std::collections::{BTreeSet, HashSet};
use std::hash::BuildHasherDefault;
use wormhole_net::{wire, Addr, Asn, Network, WordHasher, WordMap};

/// An alias-resolved node key plus its AS annotation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeInfo {
    /// Stable router key (e.g. the simulator's router id).
    pub key: u64,
    /// The node's AS, when known.
    pub asn: Option<Asn>,
}

impl NodeInfo {
    /// Ground-truth alias resolution and node-to-AS mapping over `net`
    /// (the CAIDA / Team Cymru stand-in): an address a router owns
    /// resolves to that router and its AS; any other address stays a
    /// node of its own under a sentinel key, with no AS.
    #[inline]
    pub fn resolve(net: &Network, addr: Addr) -> NodeInfo {
        match net.owner(addr) {
            Some(r) => NodeInfo {
                key: u64::from(r.0),
                asn: Some(net.router(r).asn),
            },
            None => NodeInfo {
                key: 0xFFFF_0000_0000_0000 | u64::from(addr.0),
                asn: None,
            },
        }
    }
}

/// Incrementally aggregates IP paths into a router-level graph.
///
/// Ingest order is observable only through the builder's *internal*
/// node numbering; [`ItdkBuilder::finish`] erases it by renumbering
/// nodes canonically, so two builders fed the same path *set* in any
/// order finish into equal snapshots. The live accessors
/// ([`ItdkBuilder::num_nodes`] etc.) expose the running totals a
/// campaign records as per-phase deltas, and
/// [`ItdkBuilder::checksum`] fingerprints the accumulated graph
/// order-independently without finishing it.
///
/// The tables are flat: one list of `(node, address)` pairs and one of
/// links, each in discovery order, with a hash set that keeps a link
/// from being listed twice. Only the canonical pass behind
/// [`ItdkBuilder::snapshot`] and [`ItdkBuilder::checksum`] groups and
/// sorts them, so ingesting a path allocates nothing per node. The
/// lists repeat what the address map and the link set hold: the pass
/// reads them because walking the hash tables instead made each of
/// `snapshot` and `checksum` ~0.05 ms slower on a tenfold campaign.
#[derive(Debug, Clone, Default)]
pub struct ItdkBuilder {
    keys: Vec<u64>,
    asns: Vec<Option<Asn>>,
    /// Every interned address with its node, in intern order.
    addrs: Vec<(u32, Addr)>,
    addr_to_node: WordMap<Addr, u32>,
    key_to_node: WordMap<u64, u32>,
    /// Every undirected link once, as `(lower, higher)` node indices,
    /// in discovery order.
    links: Vec<(u32, u32)>,
    /// `links` as `lower << 32 | higher` words, for the duplicate test.
    link_set: HashSet<u64, BuildHasherDefault<WordHasher>>,
    ingested: u64,
}

impl ItdkBuilder {
    /// An empty builder.
    pub fn new() -> ItdkBuilder {
        ItdkBuilder::default()
    }

    /// Ingests one IP path. Hops are addresses; `None` marks a
    /// non-responding hop, which (as in the paper's cleaned dataset)
    /// breaks adjacency instead of creating a pseudo-node. `resolve`
    /// maps an address to its node.
    pub fn ingest<R>(&mut self, path: &[Option<Addr>], resolve: R)
    where
        R: FnMut(Addr) -> NodeInfo,
    {
        self.ingest_hops(path.iter().copied(), resolve);
    }

    /// [`ItdkBuilder::ingest`] over the hops of a path as they are
    /// produced, so a caller holding a trace need not collect its
    /// address path first.
    pub fn ingest_hops<I, R>(&mut self, hops: I, mut resolve: R)
    where
        I: IntoIterator<Item = Option<Addr>>,
        R: FnMut(Addr) -> NodeInfo,
    {
        let mut prev: Option<u32> = None;
        for hop in hops {
            let Some(addr) = hop else {
                prev = None;
                continue;
            };
            let node = self.intern(addr, &mut resolve);
            if let Some(p) = prev {
                let (lo, hi) = (p.min(node), p.max(node));
                if lo != hi && self.link_set.insert(u64::from(lo) << 32 | u64::from(hi)) {
                    self.links.push((lo, hi));
                }
            }
            prev = Some(node);
        }
        self.ingested += 1;
    }

    fn intern<R>(&mut self, addr: Addr, resolve: &mut R) -> u32
    where
        R: FnMut(Addr) -> NodeInfo,
    {
        if let Some(&n) = self.addr_to_node.get(&addr) {
            return n;
        }
        let info = resolve(addr);
        let node = *self.key_to_node.entry(info.key).or_insert_with(|| {
            self.keys.push(info.key);
            self.asns.push(info.asn);
            u32::try_from(self.keys.len() - 1).expect("node count fits u32")
        });
        self.addr_to_node.insert(addr, node);
        self.addrs.push((node, addr));
        node
    }

    /// Paths ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Nodes accumulated so far.
    pub fn num_nodes(&self) -> usize {
        self.keys.len()
    }

    /// Undirected links accumulated so far.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Distinct addresses interned so far.
    pub fn num_addresses(&self) -> usize {
        self.addr_to_node.len()
    }

    /// An order-independent fingerprint of the accumulated graph:
    /// FNV-1a over nodes in ascending key order (key, AS, sorted
    /// addresses) and links as ascending `(key, key)` pairs. Equal for
    /// any ingest order of the same path set, and equal to the
    /// [`ItdkSnapshot::checksum`] of the finished snapshot — the
    /// incremental-aggregation audit (lint rule `A310`) compares it
    /// against a batch-rebuild oracle.
    pub fn checksum(&self) -> u64 {
        self.tables(false).checksum()
    }

    /// Finishes into the canonical snapshot (see
    /// [`ItdkBuilder::snapshot`]), consuming the builder.
    pub fn finish(self) -> ItdkSnapshot {
        self.snapshot()
    }

    /// The canonical snapshot of the graph so far, *without* consuming
    /// the builder, so a campaign can take the bootstrap snapshot at a
    /// phase boundary and keep ingesting later-phase traces: nodes
    /// renumbered in ascending resolver-key order, per-node address
    /// lists sorted, adjacency re-indexed. Byte-identical for any ingest
    /// order of the same path set — and therefore byte-identical to
    /// [`ItdkSnapshot::build`] over those paths in any order.
    pub fn snapshot(&self) -> ItdkSnapshot {
        let tables = self.tables(true);
        let mut addr_to_node = WordMap::default();
        addr_to_node.reserve(tables.addrs.len());
        for n in 0..tables.keys.len() {
            for &a in tables.addresses(n) {
                addr_to_node.insert(a, n);
            }
        }
        let key_to_node = tables
            .keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i))
            .collect();
        ItdkSnapshot {
            tables,
            addr_to_node,
            key_to_node,
        }
    }

    /// The canonical tables: nodes renumbered in ascending key order,
    /// each node's addresses and neighbours grouped and sorted. With
    /// `both_ways` a link is listed under both its ends, as a snapshot's
    /// adjacency needs; otherwise only under its lower-keyed end, which
    /// is all [`Tables::checksum`] reads.
    fn tables(&self, both_ways: bool) -> Tables {
        let n = self.keys.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| self.keys[i as usize]);
        // old index -> canonical index
        let mut rank = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        let (addr_start, addrs) = group_sorted(
            n,
            self.addrs.iter().map(|&(node, a)| (rank[node as usize], a)),
        );
        let (adj_start, adj) = group_sorted(
            n,
            self.links.iter().flat_map(|&(a, b)| {
                let (a, b) = (rank[a as usize], rank[b as usize]);
                let (lo, hi) = (a.min(b), a.max(b));
                std::iter::once((lo, hi)).chain(both_ways.then_some((hi, lo)))
            }),
        );
        Tables {
            keys: order.iter().map(|&o| self.keys[o as usize]).collect(),
            asns: order.iter().map(|&o| self.asns[o as usize]).collect(),
            addr_start,
            addrs,
            adj_start,
            adj,
        }
    }
}

/// Groups `(row, value)` entries into `rows` compressed rows: row `r`
/// is `values[start[r]..start[r + 1]]`, sorted ascending.
fn group_sorted<T, I>(rows: usize, entries: I) -> (Vec<u32>, Vec<T>)
where
    T: Copy + Ord + Default,
    I: Iterator<Item = (u32, T)> + Clone,
{
    let mut start = vec![0u32; rows + 1];
    for (r, _) in entries.clone() {
        start[r as usize + 1] += 1;
    }
    for r in 0..rows {
        start[r + 1] += start[r];
    }
    // `next[r]` is where row `r`'s next value goes.
    let mut next = start.clone();
    let mut values = vec![T::default(); start[rows] as usize];
    for (r, v) in entries {
        let slot = &mut next[r as usize];
        values[*slot as usize] = v;
        *slot += 1;
    }
    for r in 0..rows {
        values[start[r] as usize..start[r + 1] as usize].sort_unstable();
    }
    (start, values)
}

/// A graph's canonical node, address and adjacency tables: node `n`
/// has the `n`-th smallest resolver key, and its addresses and
/// neighbours are ascending runs of two flat lists.
#[derive(Debug, Clone, Default, PartialEq)]
struct Tables {
    keys: Vec<u64>,
    asns: Vec<Option<Asn>>,
    /// Node `n`'s addresses are `addrs[addr_start[n]..addr_start[n + 1]]`.
    addr_start: Vec<u32>,
    addrs: Vec<Addr>,
    /// Node `n`'s neighbours are `adj[adj_start[n]..adj_start[n + 1]]`.
    adj_start: Vec<u32>,
    adj: Vec<u32>,
}

impl Tables {
    fn addresses(&self, n: usize) -> &[Addr] {
        &self.addrs[self.addr_start[n] as usize..self.addr_start[n + 1] as usize]
    }

    fn neighbors(&self, n: usize) -> &[u32] {
        &self.adj[self.adj_start[n] as usize..self.adj_start[n + 1] as usize]
    }

    /// [`wire::checksum`] over little-endian words: nodes in ascending
    /// key order (key, AS, sorted addresses) and links as ascending
    /// `(key, key)` pairs. Keys ascend with the node index, so a node's
    /// higher-keyed neighbours are the ones with a higher index,
    /// already in key order.
    fn checksum(&self) -> u64 {
        let mut c = wire::Checksum::default();
        let mut word = |w: u64| c.bytes(&w.to_le_bytes());
        for n in 0..self.keys.len() {
            word(self.keys[n]);
            word(match self.asns[n] {
                Some(a) => 1 | (u64::from(a.0) << 1),
                None => 0,
            });
            let addrs = self.addresses(n);
            word(addrs.len() as u64);
            for a in addrs {
                word(u64::from(a.0));
            }
            for &m in self.neighbors(n) {
                if m as usize > n {
                    word(self.keys[n]);
                    word(self.keys[m as usize]);
                }
            }
        }
        c.finish()
    }
}

/// A router-level topology snapshot in canonical form (see
/// [`ItdkBuilder::finish`] for the canonicalization rules).
#[derive(Debug, Clone, Default)]
pub struct ItdkSnapshot {
    tables: Tables,
    addr_to_node: WordMap<Addr, usize>,
    key_to_node: WordMap<u64, usize>,
}

impl ItdkSnapshot {
    /// Aggregates IP paths into a router-level graph: the batch wrapper
    /// over [`ItdkBuilder`] — ingest every path, then
    /// [`ItdkBuilder::finish`]. Because the finished snapshot is
    /// canonical, the result does not depend on the order of `paths`.
    pub fn build<R>(paths: &[Vec<Option<Addr>>], mut resolve: R) -> ItdkSnapshot
    where
        R: FnMut(Addr) -> NodeInfo,
    {
        let mut b = ItdkBuilder::new();
        for path in paths {
            b.ingest(path, &mut resolve);
        }
        b.finish()
    }

    /// The order-independent graph fingerprint; equal to the
    /// [`ItdkBuilder::checksum`] of any builder that accumulated the
    /// same paths.
    pub fn checksum(&self) -> u64 {
        self.tables.checksum()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.tables.keys.len()
    }

    /// Number of (undirected) links.
    pub fn num_links(&self) -> usize {
        self.tables.adj.len() / 2
    }

    /// Number of distinct addresses interned.
    pub fn num_addresses(&self) -> usize {
        self.addr_to_node.len()
    }

    /// The node a previously-seen address belongs to.
    pub fn node_of(&self, addr: Addr) -> Option<usize> {
        self.addr_to_node.get(&addr).copied()
    }

    /// The node carrying resolver key `key`, if any. Canonical indices
    /// change as snapshots grow across phases; keys never do, so
    /// incremental consumers correlate successive snapshots by key.
    pub fn node_by_key(&self, key: u64) -> Option<usize> {
        self.key_to_node.get(&key).copied()
    }

    /// The resolver key of `node`.
    pub fn key(&self, node: usize) -> u64 {
        self.tables.keys[node]
    }

    /// The AS annotation of `node`.
    pub fn asn(&self, node: usize) -> Option<Asn> {
        self.tables.asns[node]
    }

    /// The addresses observed for `node`, ascending.
    pub fn addresses(&self, node: usize) -> &[Addr] {
        self.tables.addresses(node)
    }

    /// The degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.tables.neighbors(node).len()
    }

    /// Neighbor nodes of `node`, ascending.
    pub fn neighbors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.tables.neighbors(node).iter().map(|&m| m as usize)
    }

    /// All node degrees.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_nodes()).map(|n| self.degree(n)).collect()
    }

    /// High-degree nodes under the paper's §4 rule: `degree ≥ threshold`.
    pub fn hdns(&self, threshold: usize) -> Vec<usize> {
        (0..self.num_nodes())
            .filter(|&n| self.degree(n) >= threshold)
            .collect()
    }

    /// The paper's target construction: set A (neighbors of the given
    /// HDNs) and set B (neighbors of neighbors), as node sets.
    pub fn hdn_neighborhoods(&self, hdns: &[usize]) -> (BTreeSet<usize>, BTreeSet<usize>) {
        let mut set_a = BTreeSet::new();
        for &h in hdns {
            set_a.extend(self.neighbors(h));
        }
        let mut set_b = BTreeSet::new();
        for &n in &set_a {
            set_b.extend(self.neighbors(n));
        }
        (set_a, set_b)
    }

    /// Graph density `2E / V(V-1)` over a node subset (Table 4's metric,
    /// computed on Ingress–Egress candidates). Returns 0 for fewer than
    /// two nodes.
    pub fn density_of(&self, nodes: &BTreeSet<usize>) -> f64 {
        let v = nodes.len();
        if v < 2 {
            return 0.0;
        }
        let mut e = 0usize;
        for &n in nodes {
            for m in self.neighbors(n) {
                if m > n && nodes.contains(&m) {
                    e += 1;
                }
            }
        }
        2.0 * e as f64 / (v as f64 * (v as f64 - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Addr {
        Addr::new(10, 0, 0, x)
    }

    /// Identity resolver: every address its own node, AS by last octet
    /// parity.
    fn ident(addr: Addr) -> NodeInfo {
        NodeInfo {
            key: addr.0 as u64,
            asn: Some(Asn(u32::from(addr.octets()[3] % 2))),
        }
    }

    #[test]
    fn builds_graph_from_paths() {
        let paths = vec![
            vec![Some(a(1)), Some(a(2)), Some(a(3))],
            vec![Some(a(1)), Some(a(2)), Some(a(4))],
        ];
        let snap = ItdkSnapshot::build(&paths, ident);
        assert_eq!(snap.num_nodes(), 4);
        assert_eq!(snap.num_links(), 3);
        let n2 = snap.node_of(a(2)).unwrap();
        assert_eq!(snap.degree(n2), 3);
    }

    #[test]
    fn stars_break_adjacency() {
        let paths = vec![vec![Some(a(1)), None, Some(a(3))]];
        let snap = ItdkSnapshot::build(&paths, ident);
        assert_eq!(snap.num_nodes(), 2);
        assert_eq!(snap.num_links(), 0);
    }

    #[test]
    fn alias_resolution_merges_addresses() {
        // Resolver maps both addresses to one router key.
        let paths = vec![vec![Some(a(1)), Some(a(2))], vec![Some(a(3)), Some(a(4))]];
        let resolve = |addr: Addr| NodeInfo {
            key: u64::from(addr.octets()[3].is_multiple_of(2)), // odd→0, even→1
            asn: None,
        };
        let snap = ItdkSnapshot::build(&paths, resolve);
        assert_eq!(snap.num_nodes(), 2);
        let n = snap.node_of(a(2)).unwrap();
        assert_eq!(snap.node_of(a(4)), Some(n));
        assert_eq!(snap.addresses(n).len(), 2);
    }

    #[test]
    fn self_adjacency_suppressed() {
        // Two consecutive addresses of the same router: no self-loop.
        let resolve = |_addr: Addr| NodeInfo { key: 7, asn: None };
        let paths = vec![vec![Some(a(1)), Some(a(2))]];
        let snap = ItdkSnapshot::build(&paths, resolve);
        assert_eq!(snap.num_nodes(), 1);
        assert_eq!(snap.num_links(), 0);
    }

    #[test]
    fn hdn_extraction_and_neighborhoods() {
        // Star: hub connected to 5 leaves.
        let mut paths = Vec::new();
        for leaf in 1..=5 {
            paths.push(vec![Some(a(0)), Some(a(leaf))]);
        }
        let snap = ItdkSnapshot::build(&paths, ident);
        let hub = snap.node_of(a(0)).unwrap();
        assert_eq!(snap.node_by_key(snap.key(hub)), Some(hub));
        assert_eq!(snap.node_by_key(u64::MAX), None);
        assert_eq!(snap.hdns(5), vec![hub]);
        assert!(snap.hdns(6).is_empty());
        let (set_a, set_b) = snap.hdn_neighborhoods(&[hub]);
        assert_eq!(set_a.len(), 5);
        assert!(set_b.contains(&hub));
    }

    #[test]
    fn density() {
        // Triangle: density 1.
        let paths = vec![vec![Some(a(1)), Some(a(2)), Some(a(3)), Some(a(1))]];
        let snap = ItdkSnapshot::build(&paths, ident);
        let all: BTreeSet<usize> = (0..3).collect();
        assert!((snap.density_of(&all) - 1.0).abs() < 1e-9);
        let two: BTreeSet<usize> = (0..2).collect();
        assert!((snap.density_of(&two) - 1.0).abs() < 1e-9);
        assert_eq!(snap.density_of(&BTreeSet::new()), 0.0);
    }

    /// Structural equality of two snapshots, field by field. Snapshots
    /// are canonical, so equal graphs must compare equal here.
    fn assert_identical(x: &ItdkSnapshot, y: &ItdkSnapshot) {
        assert_eq!(x.tables, y.tables);
        assert_eq!(x.addr_to_node, y.addr_to_node);
        assert_eq!(x.key_to_node, y.key_to_node);
        assert_eq!(x.checksum(), y.checksum());
    }

    #[test]
    fn finish_is_ingest_order_independent() {
        let paths = vec![
            vec![Some(a(9)), Some(a(2)), Some(a(3))],
            vec![Some(a(1)), None, Some(a(4))],
            vec![Some(a(4)), Some(a(2)), Some(a(9))],
            vec![Some(a(7))],
        ];
        let forward = ItdkSnapshot::build(&paths, ident);
        let mut rev = paths.clone();
        rev.reverse();
        let backward = ItdkSnapshot::build(&rev, ident);
        assert_identical(&forward, &backward);
        // A rotation too, and the builder's live counters agree with
        // the finished snapshot.
        let mut b = ItdkBuilder::new();
        for p in paths.iter().cycle().skip(2).take(paths.len()) {
            b.ingest(p, ident);
        }
        assert_eq!(b.ingested(), paths.len() as u64);
        assert_eq!(b.num_nodes(), forward.num_nodes());
        assert_eq!(b.num_links(), forward.num_links());
        assert_eq!(b.num_addresses(), forward.num_addresses());
        assert_eq!(b.checksum(), forward.checksum());
        assert_identical(&b.finish(), &forward);
    }

    #[test]
    fn snapshot_keeps_builder_usable() {
        let mut b = ItdkBuilder::new();
        b.ingest(&[Some(a(1)), Some(a(2))], ident);
        let mid = b.snapshot();
        assert_eq!(mid.num_nodes(), 2);
        b.ingest(&[Some(a(2)), Some(a(3))], ident);
        let done = b.finish();
        assert_eq!(done.num_nodes(), 3);
        assert_eq!(done.num_links(), 2);
        // The mid-flight snapshot equals a batch build of the prefix.
        let prefix = ItdkSnapshot::build(&[vec![Some(a(1)), Some(a(2))]], ident);
        assert_identical(&mid, &prefix);
    }

    #[test]
    fn checksum_tracks_graph_shape() {
        let base = ItdkSnapshot::build(&[vec![Some(a(1)), Some(a(2))]], ident);
        let more = ItdkSnapshot::build(&[vec![Some(a(1)), Some(a(2)), Some(a(3))]], ident);
        assert_ne!(base.checksum(), more.checksum());
        // Alias membership matters, not just counts.
        let merged = ItdkSnapshot::build(&[vec![Some(a(1)), Some(a(2))]], |addr| NodeInfo {
            key: u64::from(addr.octets()[3] % 2),
            asn: None,
        });
        assert_ne!(base.checksum(), merged.checksum());
    }
}
