//! A fast non-cryptographic hasher for groupby/join keys, and the one
//! table ([`KeyTable`]) that finds equal keys.
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

/// Ends a chain, and marks an empty bucket.
const END: u32 = u32::MAX;

/// 2^64 / φ: multiplying by it spreads tags over the top bits.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// The one table that finds equal keys: the join's build side, grouping
/// and distinct, and both string dictionaries.
///
/// An entry is a 64-bit tag and a chain link; entries are numbered in
/// insertion order and every chain lists them in ascending order. A
/// null-free integer key is its own tag; any other key is tagged with its
/// hash and the caller confirms a candidate. [`KeyTable::build`] makes a
/// multimap of every row, and [`KeyTable::find_or_insert`] keeps one
/// entry per distinct key.
#[derive(Debug)]
pub struct KeyTable {
    /// log2 of the bucket count.
    bits: u32,
    /// First entry of each bucket's chain.
    heads: Vec<u32>,
    /// Per entry: its tag and the next entry of its chain.
    chain: Vec<(u64, u32)>,
}

impl Default for KeyTable {
    fn default() -> KeyTable {
        let mut table = KeyTable {
            bits: 0,
            heads: Vec::new(),
            chain: Vec::new(),
        };
        table.reset();
        table
    }
}

impl KeyTable {
    /// A multimap of `n` tags: entry `j` is the `j`-th tag. The caller
    /// keeps `n` below `u32::MAX`.
    pub fn build(n: usize, tags: impl IntoIterator<Item = u64>) -> KeyTable {
        let mut chain = Vec::with_capacity(n);
        chain.extend(tags.into_iter().map(|tag| (tag, END)));
        let mut table = KeyTable {
            bits: (n.max(8) * 2).next_power_of_two().trailing_zeros(),
            heads: Vec::new(),
            chain,
        };
        table.relink();
        table
    }

    /// An empty table with buckets for `n` entries, so as many
    /// [`KeyTable::find_or_insert`]s never double it.
    pub fn with_capacity(n: usize) -> KeyTable {
        KeyTable::build(n, std::iter::empty())
    }

    /// Empties the table to 1024 buckets (so a small dictionary's hot keys
    /// rarely share a chain) and keeps its allocations.
    pub fn reset(&mut self) {
        self.chain.clear();
        self.bits = 10;
        self.relink();
    }

    /// The entries tagged `tag`, in ascending order.
    #[inline]
    pub fn find(&self, tag: u64) -> impl Iterator<Item = u32> + '_ {
        let mut e = self.heads[self.bucket(tag)];
        std::iter::from_fn(move || {
            while e != END {
                let (t, next) = self.chain[e as usize];
                let here = e;
                e = next;
                if t == tag {
                    return Some(here);
                }
            }
            None
        })
    }

    /// The first entry tagged `tag` that `same` confirms, else a new entry
    /// numbered one past the last; buckets double past half full.
    #[inline]
    pub fn find_or_insert(&mut self, tag: u64, mut same: impl FnMut(u32) -> bool) -> u32 {
        let b = self.bucket(tag);
        let mut last = None;
        let mut e = self.heads[b];
        while e != END {
            let (t, next) = self.chain[e as usize];
            if t == tag && same(e) {
                return e;
            }
            last = Some(e as usize);
            e = next;
        }
        let new = self.chain.len() as u32;
        self.chain.push((tag, END));
        match last {
            Some(l) => self.chain[l].1 = new,
            None => self.heads[b] = new,
        }
        if self.chain.len() * 2 > self.heads.len() {
            self.bits += 1;
            self.relink();
        }
        new
    }

    #[inline]
    fn bucket(&self, tag: u64) -> usize {
        (tag.wrapping_mul(FIB) >> (64 - self.bits)) as usize
    }

    /// Empties `1 << bits` buckets and links every entry, from the last,
    /// so each chain is in ascending order.
    fn relink(&mut self) {
        self.heads.clear();
        self.heads.resize(1 << self.bits, END);
        for e in (0..self.chain.len()).rev() {
            let b = self.bucket(self.chain[e].0);
            self.chain[e].1 = self.heads[b];
            self.heads[b] = e as u32;
        }
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
    fn multimap_chains_list_rows_in_ascending_order() {
        let tags: Vec<u64> = (0..1000u64).map(|i| i * i % 7).collect();
        let table = KeyTable::build(tags.len(), tags.iter().copied());
        for t in 0..8 {
            let want: Vec<u32> = (0..1000).filter(|&j| tags[j as usize] == t).collect();
            assert_eq!(table.find(t).collect::<Vec<_>>(), want, "tag {t}");
        }
    }

    #[test]
    fn find_or_insert_keeps_first_entries_across_doublings() {
        // eight tags for 8000 keys: every key shares a chain with 999
        // others, and the table doubles from 1024 buckets to 16384
        let mut table = KeyTable::default();
        let keys: Vec<u64> = (0..8000).collect();
        for round in 0..2 {
            for &k in &keys {
                let e = table.find_or_insert(k % 8, |e| keys[e as usize] == k);
                assert_eq!(e as u64, k, "round {round}");
            }
        }
        assert_eq!(table.chain.len(), 8000);
        assert_eq!(table.heads.len(), 16384);
        // among several entries `same` would take, the first-inserted wins
        for t in 0..8 {
            assert_eq!(table.find_or_insert(t, |_| true), t as u32);
        }
    }

    #[test]
    fn a_reset_table_is_reused_without_growing() {
        let mut table = KeyTable::default();
        let fill = |table: &mut KeyTable| {
            for k in 0..3000u64 {
                table.find_or_insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d), |_| false);
            }
        };
        fill(&mut table);
        let (heads, chain) = (table.heads.capacity(), table.chain.capacity());
        for _ in 0..3 {
            table.reset();
            assert!(table.chain.is_empty());
            fill(&mut table);
            assert_eq!(table.heads.capacity(), heads);
            assert_eq!(table.chain.capacity(), chain);
        }
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<&str, i32> = FxHashMap::default();
        m.insert("a", 1);
        assert_eq!(m["a"], 1);
    }
}
