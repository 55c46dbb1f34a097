//! A fast non-cryptographic hasher for groupby/join keys.
//!
//! The standard library's SipHash is robust but slow for the hot hash-join
//! and hash-aggregate loops. This is the well-known Fx multiply-xor hash
//! (as used by rustc), reimplemented here to avoid an external dependency.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher; not DoS-resistant, which is fine for analytics.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Combines an existing row hash with a new column-value hash.
///
/// Order-dependent so that key tuples `(a, b)` and `(b, a)` differ.
#[inline]
pub fn combine(seed: u64, v: u64) -> u64 {
    (seed.rotate_left(5) ^ v).wrapping_mul(SEED)
}

/// Hash of `data[s..e]`, bit-identical to `FxHasher::write` over the same
/// bytes but without the per-row variable-length copy: strings of at most
/// 8 bytes (the common case for key-ish columns) become a single masked
/// word load. Used by the string hashing and dictionary-encoding loops.
#[inline]
pub fn hash_bytes(data: &[u8], s: usize, e: usize) -> u64 {
    let len = e - s;
    if len <= 8 {
        let w = if s + 8 <= data.len() {
            // SAFETY: 8 readable bytes exist at `s`; the mask drops the
            // bytes past `e`, matching FxHasher's zero-padded tail word.
            let raw = unsafe { data.as_ptr().add(s).cast::<u64>().read_unaligned() };
            let raw = u64::from_le(raw);
            if len == 8 {
                raw
            } else {
                raw & ((1u64 << (8 * len)) - 1)
            }
        } else {
            let mut buf = [0u8; 8];
            buf[..len].copy_from_slice(&data[s..e]);
            u64::from_le_bytes(buf)
        };
        combine(0, w)
    } else {
        let mut h = FxHasher::default();
        h.write(&data[s..e]);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut a = FxHasher::default();
        a.write(b"hello");
        let mut b = FxHasher::default();
        b.write(b"world");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn combine_is_order_dependent() {
        let x = combine(combine(0, 1), 2);
        let y = combine(combine(0, 2), 1);
        assert_ne!(x, y);
    }

    #[test]
    fn hash_bytes_matches_fx_hasher() {
        let data = b"abcdefghij-short-and-some-longer-content".to_vec();
        // every (start, len) combo including 0-length, word-boundary, tail
        for s in 0..data.len() {
            for e in s..=data.len() {
                let mut h = FxHasher::default();
                h.write(&data[s..e]);
                assert_eq!(
                    hash_bytes(&data, s, e),
                    h.finish(),
                    "mismatch for range {s}..{e}"
                );
            }
        }
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<&str, i32> = FxHashMap::default();
        m.insert("a", 1);
        assert_eq!(m["a"], 1);
    }
}
