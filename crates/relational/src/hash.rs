//! A small, fast, non-cryptographic hasher (Fx-style multiply-rotate) plus
//! `HashMap`/`HashSet` aliases using it.
//!
//! The join kernels hash short integer keys billions of times in the larger
//! experiments; SipHash (std's default) would dominate their profile. This is
//! the same algorithm as the widely used `rustc-hash` crate, re-implemented
//! here to stay inside the workspace's allowed dependency set.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher over word-size chunks.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Stateless value hash used by HCube's per-attribute hash functions
/// (`h_i(x)` in Sec. II-A). Must be deterministic across workers and runs so
/// that every worker routes a tuple identically; salted by attribute id so
/// different attributes partition independently.
#[inline]
pub fn hash_value(salt: u32, v: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64((salt as u64) << 32 | 0x9e37);
    h.write_u64(v);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_value(1, 42), hash_value(1, 42));
        assert_ne!(hash_value(1, 42), hash_value(2, 42));
        assert_ne!(hash_value(1, 42), hash_value(1, 43));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(vec![i, i + 1], i);
        }
        for i in 0..1000u32 {
            assert_eq!(m[&vec![i, i + 1]], i);
        }
    }

    #[test]
    fn hash_spreads_small_ints() {
        // 64 consecutive ints should not collide mod 16 catastrophically.
        let mut buckets = [0u32; 16];
        for v in 0..64u64 {
            buckets[(hash_value(0, v) % 16) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max <= 16, "bucket skew too high: {buckets:?}");
    }
}
