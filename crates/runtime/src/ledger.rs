//! Per-worker memory ledger (§V-C).
//!
//! The ledger accounts *retained* bytes, not logical bytes: payloads are
//! zero-copy views over shared buffers, so each distinct allocation is
//! charged once per worker no matter how many resident chunks reference
//! it, and freed only when the last referencing chunk goes away. Over
//! budget, a spill-capable ledger evicts the worker's coldest resident
//! chunks (the caller moves them to the disk tier); without spill the
//! charge is the paper's OOM.

use std::collections::HashMap;
use xorbits_core::chunk::{ChunkKey, Payload};
use xorbits_core::error::{XbError, XbResult};

/// One chunk resident in a worker's memory.
struct Resident {
    worker: usize,
    /// Virtual publish time: the coldest chunk is evicted first.
    finish: f64,
    /// Distinct allocations `(id, retained_bytes)` the chunk references.
    allocs: Vec<(usize, usize)>,
}

/// Outcome of a charge: the chunks it evicted, coldest first — already
/// released from the ledger, and valid even when the charge failed, so the
/// caller's chunk table stays in step — and whether the worker now fits.
#[must_use]
pub(crate) struct Charged {
    pub evicted: Vec<ChunkKey>,
    pub fits: XbResult<()>,
}

pub(crate) struct Ledger {
    budget: usize,
    spill_enabled: bool,
    live: Vec<usize>,
    peak: Vec<usize>,
    /// Per-worker refcounts of distinct buffer allocations (keyed by
    /// [`Payload::push_allocs`] id): charged to `live` on the 0→1
    /// transition, freed on 1→0.
    refs: Vec<HashMap<usize, usize>>,
    resident: HashMap<ChunkKey, Resident>,
}

impl Ledger {
    pub(crate) fn new(workers: usize, budget: usize, spill_enabled: bool) -> Ledger {
        Ledger {
            budget,
            spill_enabled,
            live: vec![0; workers],
            peak: vec![0; workers],
            refs: vec![HashMap::new(); workers],
            resident: HashMap::new(),
        }
    }

    /// Current live bytes per worker.
    pub(crate) fn live(&self) -> &[usize] {
        &self.live
    }

    /// Highest live bytes any worker has reached (survives [`Self::clear`]).
    pub(crate) fn peak(&self) -> usize {
        self.peak.iter().copied().max().unwrap_or(0)
    }

    /// Empties every worker (end of a fetch).
    pub(crate) fn clear(&mut self) {
        self.live.iter_mut().for_each(|w| *w = 0);
        self.refs.iter_mut().for_each(|r| r.clear());
        self.resident.clear();
    }

    /// Makes `key` resident on `worker`, charging each of its allocations
    /// only on the 0→1 refcount transition — a buffer shared by several
    /// resident chunks costs its bytes once.
    pub(crate) fn admit(
        &mut self,
        worker: usize,
        key: ChunkKey,
        finish: f64,
        payload: &Payload,
    ) -> Charged {
        let mut allocs = Vec::new();
        payload.push_allocs(&mut allocs);
        allocs.sort_unstable();
        allocs.dedup_by_key(|&mut (id, _)| id);
        let mut delta = 0usize;
        for &(id, bytes) in &allocs {
            let refs = self.refs[worker].entry(id).or_insert(0);
            if *refs == 0 {
                delta += bytes;
            }
            *refs += 1;
        }
        let chunk = Resident {
            worker,
            finish,
            allocs,
        };
        self.resident.insert(key, chunk);
        self.charge(worker, delta)
    }

    /// Charges a working set held only while a subtask runs: `peak` sees
    /// it (and colder chunks may be evicted for it), `live` ends unchanged.
    pub(crate) fn transient(&mut self, worker: usize, bytes: usize) -> Charged {
        let charged = self.charge(worker, bytes);
        self.live[worker] = self.live[worker].saturating_sub(bytes);
        charged
    }

    /// Drops `key`'s residency (no-op when it is not resident), freeing
    /// the allocations whose last reference just went away.
    pub(crate) fn release(&mut self, key: ChunkKey) {
        let Some(chunk) = self.resident.remove(&key) else {
            return;
        };
        let refs = &mut self.refs[chunk.worker];
        let mut freed = 0usize;
        for (id, bytes) in chunk.allocs {
            if let Some(n) = refs.get_mut(&id) {
                *n -= 1;
                if *n == 0 {
                    refs.remove(&id);
                    freed += bytes;
                }
            }
        }
        self.live[chunk.worker] = self.live[chunk.worker].saturating_sub(freed);
    }

    /// Evicting a chunk frees only the retained bytes its departure
    /// actually releases — a victim whose buffers are still referenced by
    /// other resident chunks frees nothing but still drops a refcount, so
    /// the loop makes progress until the last sharer leaves.
    fn charge(&mut self, worker: usize, bytes: usize) -> Charged {
        self.live[worker] += bytes;
        self.peak[worker] = self.peak[worker].max(self.live[worker]);
        let mut evicted = Vec::new();
        while self.live[worker] > self.budget {
            let Some(victim) = self.coldest(worker).filter(|_| self.spill_enabled) else {
                // spilling is off, or even the disk tier can't save us
                let oom = XbError::Oom {
                    worker,
                    needed: self.live[worker],
                    budget: self.budget,
                };
                return Charged {
                    evicted,
                    fits: Err(oom),
                };
            };
            self.release(victim);
            evicted.push(victim);
        }
        Charged {
            evicted,
            fits: Ok(()),
        }
    }

    /// The resident chunk on `worker` published earliest. Every output of
    /// one subtask shares a finish time: ties break on the key, never on
    /// hash-map iteration order.
    fn coldest(&self, worker: usize) -> Option<ChunkKey> {
        self.resident
            .iter()
            .filter(|(_, c)| c.worker == worker)
            .min_by(|a, b| a.1.finish.total_cmp(&b.1.finish).then(a.0.cmp(b.0)))
            .map(|(k, _)| *k)
    }

    /// Checks the ledger invariant against the chunk table's view
    /// (`resident`: every resident chunk with its worker): both agree on
    /// what is resident where, each allocation's refcount equals the
    /// number of resident chunks referencing it, and live bytes equal the
    /// sum of distinct referenced allocation sizes.
    pub(crate) fn balanced(&self, resident: &[(ChunkKey, usize)]) -> bool {
        let same_view = resident.len() == self.resident.len()
            && resident
                .iter()
                .all(|(k, w)| self.resident.get(k).is_some_and(|c| c.worker == *w));
        same_view
            && (0..self.live.len()).all(|w| {
                let mut expect: HashMap<usize, (usize, usize)> = HashMap::new(); // id -> (count, bytes)
                for chunk in self.resident.values().filter(|c| c.worker == w) {
                    for &(id, bytes) in &chunk.allocs {
                        expect.entry(id).or_insert((0, bytes)).0 += 1;
                    }
                }
                expect.len() == self.refs[w].len()
                    && expect
                        .iter()
                        .all(|(id, (count, _))| self.refs[w].get(id) == Some(count))
                    && self.live[w] == expect.values().map(|&(_, bytes)| bytes).sum::<usize>()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{Column, DataFrame};

    fn frame(n: usize) -> DataFrame {
        DataFrame::new(vec![
            ("k", Column::from_i64((0..n as i64).collect())),
            ("v", Column::from_f64((0..n).map(|i| i as f64).collect())),
        ])
        .unwrap()
    }

    fn views(parent: &DataFrame, n: usize) -> Vec<Payload> {
        xorbits_dataframe::partition::split_even(parent, n)
            .into_iter()
            .map(Payload::Df)
            .collect()
    }

    #[test]
    fn shared_buffer_charged_once_and_freed_last() {
        // four zero-copy views over one parent: the ledger must charge the
        // parent's buffers once, keep them charged while any view is
        // resident, and free them when the last view goes away
        let parent = frame(10_000);
        let retained = parent.retained_nbytes();
        let mut ledger = Ledger::new(1, 1 << 30, true);
        for (i, view) in views(&parent, 4).iter().enumerate() {
            let charged = ledger.admit(0, i as ChunkKey + 1, 0.0, view);
            assert!(charged.fits.is_ok() && charged.evicted.is_empty());
        }
        assert_eq!(ledger.live()[0], retained, "shared parent charged once");
        let all: Vec<(ChunkKey, usize)> = (1..=4).map(|k| (k, 0)).collect();
        assert!(ledger.balanced(&all));
        for key in 1..4 {
            ledger.release(key);
            assert_eq!(ledger.live()[0], retained, "parent pinned by live views");
        }
        ledger.release(4);
        assert_eq!(ledger.live()[0], 0);
        assert!(ledger.refs[0].is_empty());
        assert!(ledger.balanced(&[]));
    }

    #[test]
    fn transient_raises_peak_and_leaves_live_unchanged() {
        let chunk = frame(100);
        let held = chunk.retained_nbytes();
        let mut ledger = Ledger::new(2, held + 5000, true);
        let _ = ledger.admit(1, 7, 0.0, &Payload::Df(chunk));
        let charged = ledger.transient(1, 4000);
        assert!(charged.fits.is_ok() && charged.evicted.is_empty());
        assert_eq!(ledger.live(), [0, held]);
        assert_eq!(ledger.peak(), held + 4000);
        // over budget: the resident chunk makes room, the working set
        // itself is never left charged
        let charged = ledger.transient(1, 6000);
        assert!(charged.fits.is_ok());
        assert_eq!(charged.evicted, [7]);
        assert_eq!(ledger.live(), [0, 0]);
        // nothing left to evict: OOM, and still nothing left charged
        let charged = ledger.transient(1, held + 5001);
        assert!(matches!(charged.fits, Err(XbError::Oom { worker: 1, .. })));
        assert_eq!(ledger.live(), [0, 0]);
    }

    #[test]
    fn without_spill_over_budget_is_oom_and_evicts_nothing() {
        let mut ledger = Ledger::new(1, 1000, false);
        let charged = ledger.admit(0, 1, 0.0, &Payload::Df(frame(1000)));
        assert!(charged.evicted.is_empty());
        assert!(matches!(charged.fits, Err(XbError::Oom { .. })));
    }

    #[test]
    fn eviction_ties_break_on_the_chunk_key() {
        // four same-age chunks, room for three: every fresh ledger (hence
        // every fresh hash seed) must evict the same one
        let chunks: Vec<Payload> = (5..9).map(|i| Payload::Df(frame(i * 100))).collect();
        let total: usize = chunks.iter().map(|p| p.retained_nbytes()).sum();
        for _ in 0..40 {
            let mut ledger = Ledger::new(1, total - 1, true);
            let mut evicted = Vec::new();
            for (i, chunk) in chunks.iter().enumerate() {
                evicted.extend(ledger.admit(0, i as ChunkKey + 1, 1.0, chunk).evicted);
            }
            assert_eq!(evicted, [1], "lowest key among the equally cold");
        }
    }

    #[test]
    fn balanced_detects_a_dangling_refcount_and_a_diverged_view() {
        let mut ledger = Ledger::new(1, 1 << 30, true);
        let _ = ledger.admit(0, 1, 0.0, &Payload::Df(frame(10)));
        assert!(ledger.balanced(&[(1, 0)]));
        assert!(!ledger.balanced(&[]), "table forgot a resident chunk");
        assert!(!ledger.balanced(&[(1, 0), (2, 0)]), "ledger lacks one");
        *ledger.refs[0].values_mut().next().unwrap() += 1;
        assert!(!ledger.balanced(&[(1, 0)]), "refcount without a holder");
    }
}
