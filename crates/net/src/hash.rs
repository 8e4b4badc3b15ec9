//! A fixed multiplicative word hasher for maps whose keys the program
//! computes itself (addresses, router keys, short index sets) and that
//! are only probed, never iterated into output: they need neither a
//! seeded iteration order nor SipHash's resistance to crafted keys.
//! Keep the std default for keys read from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Folds each 64-bit word into the state with a rotate, xor and
/// multiply (the rustc "Fx" scheme).
#[derive(Default, Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_alike_and_the_map_works() {
        let mut m: WordMap<Vec<u32>, u16> = WordMap::default();
        for i in 0..1000u32 {
            m.insert(vec![i, i / 7], i as u16);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&[700u32, 100][..]), Some(&700));
        assert_eq!(m.get(&[700u32, 101][..]), None);
    }
}
