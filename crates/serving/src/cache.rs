//! The lineage-keyed result cache.
//!
//! Entries are keyed by the canonical structural hash of the fetched
//! tileable sub-DAG and carry the lineage fingerprints of every source the
//! result was derived from (both computed in one pass by
//! [`xorbits_core::tileable::cache_key`]). An entry holds the executors'
//! own payloads — the `Arc` that was fetched is the `Arc` a hit returns —
//! and is charged their logical bytes. The cache holds recomputable
//! results, so going over budget drops the least-recently-used entry
//! instead of spilling it to disk.
//!
//! Invalidation is lineage-driven: [`LineageCache::invalidate_source`]
//! drops every entry whose lineage contains the given source fingerprint,
//! so a changed or lost upstream source can never be served stale.

use std::collections::HashMap;
use std::sync::Arc;
use xorbits_core::chunk::Payload;
use xorbits_core::session::ResultCache;

/// Counters of one cache's lifetime (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Entries dropped to make room under the byte budget.
    pub evictions: usize,
    /// Entries dropped because an upstream source was invalidated.
    pub invalidations: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Logical bytes currently resident.
    pub resident_bytes: usize,
}

struct Entry {
    /// The entry's chunks, in result order.
    payloads: Vec<Arc<Payload>>,
    /// Lineage fingerprints this entry depends on.
    sources: Vec<u64>,
    /// Logical bytes of all chunks.
    nbytes: usize,
    /// LRU stamp (monotone use counter).
    last_use: u64,
}

/// A [`ResultCache`] with LRU byte-budget eviction and lineage-based
/// invalidation. Not internally synchronised — the serving coordinator
/// owns it and serialises access at deterministic points.
pub struct LineageCache {
    budget: usize,
    entries: HashMap<u64, Entry>,
    /// Source fingerprint → entry keys that list it in their lineage.
    /// May hold keys of since-evicted entries; consumers re-check.
    by_source: HashMap<u64, Vec<u64>>,
    clock: u64,
    resident: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
    invalidations: usize,
}

impl LineageCache {
    /// A cache holding at most `budget_bytes` of logical result bytes.
    pub fn new(budget_bytes: usize) -> LineageCache {
        LineageCache {
            budget: budget_bytes,
            entries: HashMap::new(),
            by_source: HashMap::new(),
            clock: 0,
            resident: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Lifetime counters and current residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            invalidations: self.invalidations,
            entries: self.entries.len(),
            resident_bytes: self.resident,
        }
    }

    /// Drops every entry whose lineage contains `source` (an upstream
    /// source changed or was lost). Returns how many entries were dropped.
    pub fn invalidate_source(&mut self, source: u64) -> usize {
        let keys = self.by_source.remove(&source).unwrap_or_default();
        let mut dropped = 0;
        for key in keys {
            // the index may reference entries already evicted for space
            let stale = self
                .entries
                .get(&key)
                .is_some_and(|e| e.sources.contains(&source));
            if stale {
                self.drop_entry(key);
                self.invalidations += 1;
                dropped += 1;
            }
        }
        dropped
    }

    /// Bytes currently charged to the residency ledger.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn drop_entry(&mut self, key: u64) {
        if let Some(e) = self.entries.remove(&key) {
            self.resident -= e.nbytes;
        }
    }

    /// Evicts least-recently-used entries until `need` more bytes fit.
    fn make_room(&mut self, need: usize) {
        while self.resident + need > self.budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_use, **k))
                .map(|(k, _)| *k)
                .expect("entries non-empty");
            self.drop_entry(victim);
            self.evictions += 1;
        }
    }
}

impl ResultCache for LineageCache {
    fn lookup(&mut self, key: u64) -> Option<Vec<Arc<Payload>>> {
        self.clock += 1;
        let Some(entry) = self.entries.get_mut(&key) else {
            self.misses += 1;
            return None;
        };
        entry.last_use = self.clock;
        self.hits += 1;
        Some(entry.payloads.clone())
    }

    fn insert(&mut self, key: u64, sources: &[u64], payloads: &[Arc<Payload>]) {
        if self.budget == 0 || self.entries.contains_key(&key) {
            return;
        }
        let nbytes: usize = payloads.iter().map(|p| p.nbytes()).sum();
        if nbytes > self.budget {
            return; // never cacheable under this budget
        }
        self.make_room(nbytes);
        for src in sources {
            self.by_source.entry(*src).or_default().push(key);
        }
        self.clock += 1;
        self.entries.insert(
            key,
            Entry {
                payloads: payloads.to_vec(),
                sources: sources.to_vec(),
                nbytes,
                last_use: self.clock,
            },
        );
        self.resident += nbytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_core::chunk::PayloadKind;
    use xorbits_dataframe::{Column, DataFrame};

    fn payload(tag: i64, rows: usize) -> Arc<Payload> {
        let df = DataFrame::new(vec![(
            "v",
            Column::from_i64((0..rows as i64).map(|i| i + tag).collect()),
        )])
        .unwrap();
        Arc::new(Payload::Df(df))
    }

    #[test]
    fn hit_returns_inserted_payloads() {
        let mut c = LineageCache::new(1 << 20);
        let p = payload(7, 10);
        c.insert(42, &[1, 2], &[Arc::clone(&p)]);
        let got = c.lookup(42).expect("hit");
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].as_df().unwrap(),
            p.as_df().unwrap(),
            "cached payload must be bit-identical"
        );
        assert!(Arc::ptr_eq(&got[0], &p), "a hit returns the inserted Arc");
        assert!(c.lookup(999).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_under_budget() {
        let one = payload(0, 100).nbytes();
        let mut c = LineageCache::new(one * 2 + one / 2); // fits two entries
        c.insert(1, &[], &[payload(1, 100)]);
        c.insert(2, &[], &[payload(2, 100)]);
        assert!(c.lookup(1).is_some()); // 1 is now more recent than 2
        c.insert(3, &[], &[payload(3, 100)]);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(2).is_none(), "LRU victim was 2");
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(3).is_some());
        assert!(c.resident_bytes() <= one * 2 + one / 2);
    }

    #[test]
    fn lineage_invalidation_never_serves_stale() {
        let mut c = LineageCache::new(1 << 20);
        c.insert(1, &[10, 11], &[payload(1, 4)]);
        c.insert(2, &[11, 12], &[payload(2, 4)]);
        c.insert(3, &[12], &[payload(3, 4)]);
        assert_eq!(c.invalidate_source(11), 2);
        assert!(c.lookup(1).is_none());
        assert!(c.lookup(2).is_none());
        assert!(c.lookup(3).is_some(), "entry 3 does not depend on 11");
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let mut c = LineageCache::new(64);
        c.insert(1, &[], &[payload(1, 1000)]);
        assert!(c.lookup(1).is_none());
        assert_eq!(c.stats().entries, 0);
    }
}
