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

use std::collections::BTreeSet;
use wormhole_net::{Addr, Asn, Network, WordMap};

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
#[derive(Debug, Clone, Default)]
pub struct ItdkBuilder {
    keys: Vec<u64>,
    asns: Vec<Option<Asn>>,
    addrs: Vec<Vec<Addr>>,
    addr_to_node: WordMap<Addr, usize>,
    key_to_node: WordMap<u64, usize>,
    adj: Vec<BTreeSet<usize>>,
    links: usize,
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
    pub fn ingest<R>(&mut self, path: &[Option<Addr>], mut resolve: R)
    where
        R: FnMut(Addr) -> NodeInfo,
    {
        let mut prev: Option<usize> = None;
        for hop in path {
            let Some(addr) = hop else {
                prev = None;
                continue;
            };
            let node = self.intern(*addr, &mut resolve);
            if let Some(p) = prev {
                if p != node && self.adj[p].insert(node) {
                    self.adj[node].insert(p);
                    self.links += 1;
                }
            }
            prev = Some(node);
        }
        self.ingested += 1;
    }

    fn intern<R>(&mut self, addr: Addr, resolve: &mut R) -> usize
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
            self.addrs.push(Vec::new());
            self.adj.push(BTreeSet::new());
            self.keys.len() - 1
        });
        self.addr_to_node.insert(addr, node);
        self.addrs[node].push(addr);
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
        self.links
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
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by_key(|&n| self.keys[n]);
        let mut h = Fnv::new();
        let (mut addrs, mut nkeys) = (Vec::new(), Vec::new());
        for &n in &order {
            h.word(self.keys[n]);
            h.word(match self.asns[n] {
                Some(a) => 1 | (u64::from(a.0) << 1),
                None => 0,
            });
            addrs.clear();
            addrs.extend_from_slice(&self.addrs[n]);
            addrs.sort_unstable();
            h.word(addrs.len() as u64);
            for a in &addrs {
                h.word(u64::from(a.0));
            }
            nkeys.clear();
            nkeys.extend(
                self.adj[n]
                    .iter()
                    .map(|&m| self.keys[m])
                    .filter(|&k| k > self.keys[n]),
            );
            nkeys.sort_unstable();
            for &k in &nkeys {
                h.word(self.keys[n]);
                h.word(k);
            }
        }
        h.finish()
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
        let n = self.keys.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.keys[i]);
        // old index -> canonical index
        let mut rank = vec![0usize; n];
        for (new, &old) in order.iter().enumerate() {
            rank[old] = new;
        }
        let mut keys = Vec::with_capacity(n);
        let mut asns = Vec::with_capacity(n);
        let mut addrs: Vec<Vec<Addr>> = Vec::with_capacity(n);
        let mut adj: Vec<BTreeSet<usize>> = Vec::with_capacity(n);
        for &old in &order {
            keys.push(self.keys[old]);
            asns.push(self.asns[old]);
            let mut a = self.addrs[old].clone();
            a.sort_unstable();
            addrs.push(a);
            adj.push(self.adj[old].iter().map(|&m| rank[m]).collect());
        }
        let addr_to_node = self
            .addr_to_node
            .iter()
            .map(|(&a, &old)| (a, rank[old]))
            .collect();
        let key_to_node = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        ItdkSnapshot {
            keys,
            asns,
            addrs,
            addr_to_node,
            key_to_node,
            adj,
        }
    }
}

/// Deterministic FNV-1a 64 over 8-byte words (no std hasher
/// randomization — checksums must be comparable across processes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A router-level topology snapshot in canonical form (see
/// [`ItdkBuilder::finish`] for the canonicalization rules).
#[derive(Debug, Clone, Default)]
pub struct ItdkSnapshot {
    keys: Vec<u64>,
    asns: Vec<Option<Asn>>,
    addrs: Vec<Vec<Addr>>,
    addr_to_node: WordMap<Addr, usize>,
    key_to_node: WordMap<u64, usize>,
    adj: Vec<BTreeSet<usize>>,
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
        let mut b = Fnv::new();
        for n in 0..self.keys.len() {
            b.word(self.keys[n]);
            b.word(match self.asns[n] {
                Some(a) => 1 | (u64::from(a.0) << 1),
                None => 0,
            });
            b.word(self.addrs[n].len() as u64);
            for a in &self.addrs[n] {
                b.word(u64::from(a.0));
            }
            for &m in &self.adj[n] {
                if self.keys[m] > self.keys[n] {
                    b.word(self.keys[n]);
                    b.word(self.keys[m]);
                }
            }
        }
        b.finish()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.keys.len()
    }

    /// Number of (undirected) links.
    pub fn num_links(&self) -> usize {
        self.adj.iter().map(|s| s.len()).sum::<usize>() / 2
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
        self.keys[node]
    }

    /// The AS annotation of `node`.
    pub fn asn(&self, node: usize) -> Option<Asn> {
        self.asns[node]
    }

    /// The addresses observed for `node`.
    pub fn addresses(&self, node: usize) -> &[Addr] {
        &self.addrs[node]
    }

    /// The degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.adj[node].len()
    }

    /// Neighbor nodes of `node`.
    pub fn neighbors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[node].iter().copied()
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
        assert_eq!(x.keys, y.keys);
        assert_eq!(x.asns, y.asns);
        assert_eq!(x.addrs, y.addrs);
        assert_eq!(x.adj, y.adj);
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
