//! A multiplicative hasher for maps keyed by small integers.
//!
//! `HashMap`'s default SipHash is keyed against crafted collisions, at
//! ~20 ns per lookup. The simulator's hot maps are keyed by cache-line
//! numbers and `(tcu, address)` pairs it computed itself, and are never
//! iterated in an order that escapes, so they take one multiply per word.
//! Keep the default hasher for keys that arrive from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Fx-style hasher: rotate, xor, multiply by an odd constant per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// The product's high bits are the mixed ones; the table indexes by
    /// the low bits, so fold the halves.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_map_behaves_like_a_map_on_strided_keys() {
        let mut m: IntMap<(u32, u32), u32> = IntMap::default();
        // Word-aligned addresses and line numbers: constant low bits.
        for k in 0..4096u32 {
            m.insert((k % 64, k * 64), k);
        }
        assert_eq!(m.len(), 4096);
        assert!((0..4096u32).all(|k| m[&(k % 64, k * 64)] == k));
        // Strided keys still spread over the low bits the table uses.
        let low: std::collections::BTreeSet<u64> = (0..256u32)
            .map(|k| {
                let mut h = IntHasher::default();
                h.write_u32(k * 4096);
                h.finish() % 256
            })
            .collect();
        assert!(low.len() > 128, "only {} of 256 low-byte values used", low.len());
    }
}
