//! Deterministic data-generation helpers (seeded LCG, shuffles, tables).

/// A 64-bit linear congruential generator (Knuth's MMIX constants).
/// Deterministic and dependency-free; used for all workload data.
#[derive(Debug, Clone)]
pub struct Lcg(pub u64);

impl Lcg {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Output mixing: the high bits are the good ones.
        self.0 >> 1 ^ self.0 >> 33
    }

    /// Uniform value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// A random cyclic permutation of `0..n` (Sattolo's algorithm): following
/// `perm[perm[...]]` visits every element before repeating — the ideal
/// pointer-chase substrate (no short cycles).
pub fn cyclic_permutation(n: usize, rng: &mut Lcg) -> Vec<u64> {
    let mut idx: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64) as usize;
        idx.swap(i, j);
    }
    // idx is now a random ordering; link each element to the next.
    let mut perm = vec![0u64; n];
    for k in 0..n {
        perm[idx[k] as usize] = idx[(k + 1) % n];
    }
    perm
}

/// Stores `value` little-endian as doubleword `index` of a byte table.
/// Kernels fill their data images in place with this, so a build holds
/// one copy of an image, not a `u64` table plus its serialization.
pub fn put_u64(table: &mut [u8], index: usize, value: u64) {
    table[index * 8..index * 8 + 8].copy_from_slice(&value.to_le_bytes());
}

/// Serializes a `u64` table into little-endian bytes.
pub fn table_bytes(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_deterministic() {
        let mut a = Lcg::new(7);
        let mut b = Lcg::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn lcg_below_in_range() {
        let mut r = Lcg::new(42);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn cyclic_permutation_is_one_cycle() {
        let mut r = Lcg::new(3);
        let n = 257;
        let p = cyclic_permutation(n, &mut r);
        let mut seen = vec![false; n];
        let mut cur = 0usize;
        for _ in 0..n {
            assert!(!seen[cur], "cycle shorter than n");
            seen[cur] = true;
            cur = p[cur] as usize;
        }
        assert_eq!(cur, 0, "must return to start after n hops");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn put_u64_matches_table_bytes() {
        let mut b = vec![0u8; 16];
        put_u64(&mut b, 1, 0x0102);
        put_u64(&mut b, 0, 1);
        assert_eq!(b, table_bytes(&[1, 0x0102]));
    }

    #[test]
    fn table_bytes_layout() {
        let b = table_bytes(&[1, 0x0102]);
        assert_eq!(b.len(), 16);
        assert_eq!(b[0], 1);
        assert_eq!(b[8], 2);
        assert_eq!(b[9], 1);
    }
}
