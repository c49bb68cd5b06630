//! A one-multiply hasher for maps keyed by a single `u64`.
//!
//! Page numbers, block addresses and bus slots are not attacker-chosen,
//! and the one walk over such a map — a checkpoint collecting
//! [`Memory`](crate::Memory)'s unshared pages — sorts what it collects,
//! so neither SipHash's flooding resistance nor its per-map random keys
//! buy anything there, and the hash order cannot reach a result. A
//! folded 64×64→128 multiply mixes every input bit into the low bits the
//! table indexes with — block addresses have their low six bits clear, so
//! a plain truncated multiply would crowd them into 1/64 of the buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher state for one `u64` key; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct U64Hasher(u64);

const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for U64Hasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = ((x ^ self.0) as u128).wrapping_mul(MUL as u128);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    /// Byte-wise fallback for non-`u64` keys: correct, not fast.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by `u64` using [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// A `HashSet` of `u64` using [`U64Hasher`].
pub type U64Set = HashSet<u64, BuildHasherDefault<U64Hasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 1024 line-aligned block addresses must land in many distinct
        // low-bit buckets, not 1/64 of them.
        let mut buckets = std::collections::BTreeSet::new();
        for i in 0..1024u64 {
            let mut h = U64Hasher::default();
            h.write_u64(i * 64);
            buckets.insert(h.finish() & 1023);
        }
        assert!(buckets.len() > 512, "{} buckets", buckets.len());
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: U64Map<u32> = U64Map::default();
        let mut s = U64Set::default();
        for i in 0..100u64 {
            m.insert(i << 12, i as u32);
            assert!(s.insert(i * 64));
        }
        assert!(!s.insert(64));
        assert_eq!(m.get(&(7 << 12)), Some(&7));
        assert_eq!(m.len(), 100);
    }
}
