//! A binary radix trie for longest-prefix-match FIB lookups.
//!
//! Path-compressed tries buy little at our table sizes; a plain binary
//! trie with dense child arrays is simple, robust, and fast enough that
//! lookups never show up in campaign profiles (see the `trie` Criterion
//! group). Correctness is cross-checked against a linear scan by a
//! property test.

use crate::addr::{Addr, Prefix};

#[derive(Debug, Clone)]
struct Node<T> {
    children: [Option<usize>; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Node<T> {
        Node {
            children: [None, None],
            value: None,
        }
    }
}

/// A longest-prefix-match table mapping [`Prefix`]es to values.
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty table.
    pub fn new() -> PrefixTrie<T> {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Heap bytes reserved by the node array.
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::control::vec_bytes(&self.nodes)
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bit(addr: Addr, depth: u8) -> usize {
        ((addr.0 >> (31 - depth)) & 1) as usize
    }

    /// Inserts `prefix → value`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut node = 0usize;
        for depth in 0..prefix.len {
            let b = Self::bit(prefix.addr, depth);
            node = match self.nodes[node].children[b] {
                Some(next) => next,
                None => {
                    self.nodes.push(Node::new());
                    let next = self.nodes.len() - 1;
                    self.nodes[node].children[b] = Some(next);
                    next
                }
            };
        }
        let old = self.nodes[node].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup of a stored prefix.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let mut node = 0usize;
        for depth in 0..prefix.len {
            let b = Self::bit(prefix.addr, depth);
            node = self.nodes[node].children[b]?;
        }
        self.nodes[node].value.as_ref()
    }

    /// Removes an exact prefix, returning its value. (Nodes are not
    /// reclaimed; tables are built once and queried many times.)
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let mut node = 0usize;
        for depth in 0..prefix.len {
            let b = Self::bit(prefix.addr, depth);
            node = self.nodes[node].children[b]?;
        }
        let old = self.nodes[node].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Longest-prefix-match: the most specific stored prefix containing
    /// `addr`, with its value.
    pub fn lookup(&self, addr: Addr) -> Option<(Prefix, &T)> {
        let mut node = 0usize;
        let mut best: Option<(u8, &T)> = None;
        if let Some(v) = self.nodes[node].value.as_ref() {
            best = Some((0, v));
        }
        for depth in 0..32u8 {
            let b = Self::bit(addr, depth);
            match self.nodes[node].children[b] {
                Some(next) => {
                    node = next;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Prefix::new(Addr(addr.0 & Prefix::mask(len)), len), v))
    }

    /// Iterates over all stored `(prefix, value)` pairs in trie order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> + '_ {
        // Depth-first walk carrying the accumulated prefix bits.
        let mut stack = vec![(0usize, 0u32, 0u8)];
        std::iter::from_fn(move || {
            while let Some((node, bits, depth)) = stack.pop() {
                for b in [1usize, 0usize] {
                    if let Some(next) = self.nodes[node].children[b] {
                        let nbits = bits | ((b as u32) << (31 - depth));
                        stack.push((next, nbits, depth + 1));
                    }
                }
                if let Some(v) = self.nodes[node].value.as_ref() {
                    return Some((Prefix::new(Addr(bits), depth), v));
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "big");
        t.insert(p("10.1.0.0/16"), "mid");
        t.insert(p("10.1.2.0/24"), "small");
        assert_eq!(t.lookup(a("10.1.2.3")).unwrap().1, &"small");
        assert_eq!(t.lookup(a("10.1.9.9")).unwrap().1, &"mid");
        assert_eq!(t.lookup(a("10.9.9.9")).unwrap().1, &"big");
        assert!(t.lookup(a("11.0.0.1")).is_none());
    }

    #[test]
    fn lookup_reports_matched_prefix() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.0.0/16"), 1);
        let (matched, _) = t.lookup(a("10.1.200.4")).unwrap();
        assert_eq!(matched, p("10.1.0.0/16"));
    }

    #[test]
    fn default_route() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "ten");
        assert_eq!(t.lookup(a("8.8.8.8")).unwrap().1, &"default");
        assert_eq!(t.lookup(a("10.8.8.8")).unwrap().1, &"ten");
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.3/32"), "host");
        t.insert(p("10.1.2.0/31"), "link");
        assert_eq!(t.lookup(a("10.1.2.3")).unwrap().1, &"host");
        assert_eq!(t.lookup(a("10.1.2.1")).unwrap().1, &"link");
        assert!(t.lookup(a("10.1.2.4")).is_none());
    }

    #[test]
    fn insert_replaces_and_remove_deletes() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
        assert!(t.lookup(a("10.0.0.1")).is_none());
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
    }

    #[test]
    fn get_is_exact_only() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&1));
        assert_eq!(t.get(p("10.0.0.0/16")), None);
        assert_eq!(t.get(p("10.0.0.0/7")), None);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = PrefixTrie::new();
        let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24", "0.0.0.0/0"];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        let mut got: Vec<Prefix> = t.iter().map(|(pfx, _)| pfx).collect();
        got.sort();
        let mut want: Vec<Prefix> = prefixes.iter().map(|s| p(s)).collect();
        want.sort();
        assert_eq!(got, want);
    }
}
