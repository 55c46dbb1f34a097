//! Plan cache keyed on the whitespace/case-normalized token string: a hit
//! skips parsing and planning, and two different normalized texts never
//! share a plan. Alias-insensitive reuse of *results* lives one layer
//! down, in the id-renaming-invariant [`cache_key`](crate::tileable::cache_key)
//! the session's result cache keys every fetch by (DESIGN.md §17).

use std::collections::HashMap;

use crate::session::{DfHandle, Executor};

/// Hit/miss counters for the plan cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Hits on the normalized-text key (no parse, no plan).
    pub text_hits: u64,
    /// Misses that required parsing and planning.
    pub misses: u64,
}

/// Internal cache state guarded by the frontend's mutex.
pub(crate) struct CacheState<E: Executor> {
    /// Normalized token text -> cached lazy handle.
    plans: HashMap<String, DfHandle<E>>,
    /// Counters.
    pub stats: PlanCacheStats,
}

impl<E: Executor> Default for CacheState<E> {
    fn default() -> Self {
        CacheState {
            plans: HashMap::new(),
            stats: PlanCacheStats::default(),
        }
    }
}

impl<E: Executor> CacheState<E> {
    /// Looks `norm` up; counts a hit on success.
    pub fn lookup(&mut self, norm: &str) -> Option<DfHandle<E>> {
        let h = self.plans.get(norm)?.clone();
        self.stats.text_hits += 1;
        Some(h)
    }

    /// Records a freshly planned statement and counts a miss.
    pub fn insert(&mut self, norm: String, handle: DfHandle<E>) {
        self.plans.insert(norm, handle);
        self.stats.misses += 1;
    }
}
