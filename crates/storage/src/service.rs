//! The tiered chunk store: a budgeted memory tier over a disk tier of
//! spill files.
//!
//! # Memory tier
//!
//! Resident chunks are charged their logical `nbytes` against an optional
//! byte budget. When an insert pushes the tier over budget, victims are
//! chosen by **clock (second-chance)**: a ring of keys is swept, a chunk
//! touched since the last sweep gets its reference bit cleared and one more
//! lap, an untouched chunk is evicted. Pinned chunks are skipped — a
//! subtask pins its inputs for the duration of execution, so the working
//! set of an in-flight computation can never be evicted from under it.
//!
//! # Disk tier
//!
//! Eviction encodes the chunk with [`crate::chunkfmt`] and writes one spill
//! file per chunk (`chunk-<key>.xbc`). A later `get` reads the envelope
//! back, strict-decodes it, and *promotes* the chunk — best-effort: if the
//! budget cannot make room (everything else is pinned), the decoded value
//! is still returned but the tier keeps it non-resident rather than fail a
//! read. The spill file is retained after promotion; chunks are immutable,
//! so re-evicting a promoted chunk is free (drop the value, keep the file).
//!
//! With spilling disabled the tier degrades to the executor's historical
//! behavior: exceeding the budget is an immediate [`StorageError::Oom`].
//!
//! # Concurrency
//!
//! The service is `Sync` behind **one** mutex: the entry table, the clock
//! ring, the byte ledger, every counter and the codec scratch are one
//! state, so no operation can observe another half-done and there is no
//! lock order to get wrong. Spill-file IO and the encode/decode that goes
//! with it run *under* that lock. That is a decision, not an accident: a
//! host pass over the 22 TPC-H queries makes some 10⁴ store calls in
//! ≈ 350 ms against an uncontended-lock cost of tens of nanoseconds, the
//! sharded store this one replaced measured the same wall time with all
//! entries forced onto one shard (DESIGN.md §13), and no benchmark
//! workload spills with more than one executor thread. A multi-key
//! [`StorageService::load`] pins and reads a node's inputs in one
//! critical section.

use crate::chunkfmt::{
    decode_chunk_with, encoded_size, DecodeWorkspace, EncodeWorkspace, EncodingMode,
};
use crate::error::{StorageError, StorageResult};
use crate::{ChunkMeta, ChunkValue};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where evicted chunks go.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SpillConfig {
    /// No disk tier: going over budget is an immediate [`StorageError::Oom`]
    /// (the historical in-memory-executor behavior).
    #[default]
    Disabled,
    /// Spill into a fresh process-unique directory under the system temp
    /// dir; the service removes it on drop.
    TempDir,
    /// Spill into the given directory (created if absent, not removed on
    /// drop — the caller owns it).
    Dir(PathBuf),
}

/// Configuration of a [`StorageService`]. The default is unbounded, with
/// no disk tier, under [`EncodingMode::Auto`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageConfig {
    /// Byte budget of the memory tier (`None` = unbounded, nothing ever
    /// evicts).
    pub memory_budget: Option<usize>,
    /// Disk-tier policy.
    pub spill: SpillConfig,
    /// Spill-file encoding: `Auto` lets the per-column chooser compress,
    /// `Plain` pins version-1 envelopes.
    pub encoding: EncodingMode,
}

/// Cumulative counters plus a point-in-time snapshot of the tier state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetrics {
    /// Chunks pushed out of the memory tier.
    pub evictions: u64,
    /// Encoded bytes written to the disk tier.
    pub spilled_bytes: u64,
    /// Encoded bytes read back from the disk tier.
    pub read_back_bytes: u64,
    /// Reads served from the memory tier.
    pub hits: u64,
    /// Reads that had to touch the disk tier.
    pub misses: u64,
    /// High-water mark of resident logical bytes.
    pub peak_resident_bytes: usize,
    /// Resident logical bytes right now.
    pub resident_bytes: usize,
    /// Spill files currently on disk.
    pub spill_files: usize,
    /// Unpins of a chunk that was not pinned (or not present). Always a
    /// caller bug — a leaked pin elsewhere, or a double unpin — so debug
    /// builds also `debug_assert!`; release builds count it here so the
    /// trace layer can surface it.
    pub unbalanced_unpins: u64,
    /// Plain (version-1) envelope bytes of every chunk the spill path
    /// encoded — the denominator of the spill compression ratio.
    pub encoded_raw_bytes: u64,
    /// Bytes the spill path actually wrote under the configured encoding
    /// (equals `encoded_raw_bytes` under [`EncodingMode::Plain`]).
    pub encoded_wire_bytes: u64,
}

struct Entry {
    /// Present while the chunk is resident in the memory tier.
    value: Option<Arc<ChunkValue>>,
    /// Logical bytes (charged while resident) and leading-dimension length.
    meta: ChunkMeta,
    /// Spill file, once the chunk has been written to the disk tier (kept
    /// after promotion — chunks are immutable, so the envelope stays valid).
    file: Option<PathBuf>,
    /// Pin refcount; a pinned chunk is never evicted.
    pins: u32,
    /// Clock reference bit — set on access, cleared on a sweep lap.
    ref_bit: bool,
}

/// Process-wide counter making concurrent temp spill dirs unique.
static TEMP_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Everything the service's lock guards.
#[derive(Default)]
struct State {
    entries: HashMap<u64, Entry>,
    /// Clock ring of candidate keys (may hold stale keys; the sweep skips
    /// and drops them).
    ring: VecDeque<u64>,
    /// The ledger and the counters, kept in the shape they are reported in.
    metrics: StorageMetrics,
    /// Codec scratch, warm across calls: a steady-state spill or read-back
    /// allocates nothing for the envelope.
    enc: EncodeWorkspace,
    dec: DecodeWorkspace,
}

/// The multi-level chunk store. See the module docs for the design.
pub struct StorageService {
    config: StorageConfig,
    spill_dir: Option<PathBuf>,
    /// Whether the service created `spill_dir` and must remove it on drop.
    owns_dir: bool,
    state: Mutex<State>,
}

impl StorageService {
    /// Builds a service; creates the spill directory eagerly so that
    /// misconfiguration fails at construction, not mid-query.
    pub fn new(config: StorageConfig) -> StorageResult<StorageService> {
        let (spill_dir, owns_dir) = match &config.spill {
            SpillConfig::Disabled => (None, false),
            SpillConfig::TempDir => {
                let dir = std::env::temp_dir().join(format!(
                    "xorbits-spill-{}-{}",
                    std::process::id(),
                    TEMP_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir)
                    .map_err(|e| StorageError::Io(format!("create {}: {e}", dir.display())))?;
                (Some(dir), true)
            }
            SpillConfig::Dir(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| StorageError::Io(format!("create {}: {e}", dir.display())))?;
                (Some(dir.clone()), false)
            }
        };
        Ok(StorageService {
            config,
            spill_dir,
            owns_dir,
            state: Mutex::new(State::default()),
        })
    }

    /// Unbounded in-memory service (no budget, no disk tier).
    pub fn unbounded() -> StorageService {
        StorageService::new(StorageConfig::default()).expect("no io in unbounded config")
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while it held the store lock")
    }

    /// Stores a chunk, replacing (and releasing) any previous value under
    /// the key, then shrinks the memory tier back under budget — possibly
    /// spilling the chunk just stored.
    pub fn put(&self, key: u64, value: impl Into<Arc<ChunkValue>>) -> StorageResult<()> {
        let value = value.into();
        let meta = ChunkMeta {
            nbytes: value.nbytes(),
            rows: value.rows(),
        };
        let mut state = self.lock();
        state.release(key);
        state.entries.insert(
            key,
            Entry {
                value: Some(value),
                meta,
                file: None,
                pins: 0,
                ref_bit: true,
            },
        );
        state.admit(key, meta.nbytes);
        state.shrink_to_budget(self)
    }

    /// Fetches a chunk: from the memory tier if resident, otherwise by
    /// reading its envelope back from the disk tier (counted as a miss and
    /// promoted best-effort).
    pub fn get(&self, key: u64) -> StorageResult<Arc<ChunkValue>> {
        self.lock().read(key, self)
    }

    /// Pins every key, then reads them in order — one critical section, so
    /// neither a read-back among them nor a concurrent store can evict a
    /// chunk the caller is about to consume. On success each key holds one
    /// more pin for the caller to [`unpin`](Self::unpin); on error (a key
    /// the store does not hold is [`StorageError::Missing`]) nothing stays
    /// pinned.
    pub fn load(&self, keys: &[u64]) -> StorageResult<Vec<Arc<ChunkValue>>> {
        if keys.is_empty() {
            return Ok(Vec::new()); // a source node: nothing to lock for
        }
        let mut state = self.lock();
        if let Some(&missing) = keys.iter().find(|k| !state.entries.contains_key(k)) {
            return Err(StorageError::Missing(missing));
        }
        for k in keys {
            state.entries.get_mut(k).expect("checked above").pins += 1;
        }
        let loaded: StorageResult<Vec<_>> = keys.iter().map(|&k| state.read(k, self)).collect();
        if loaded.is_err() {
            for k in keys {
                state.entries.get_mut(k).expect("nothing removed").pins -= 1;
            }
        }
        loaded
    }

    /// Bytes and rows of a chunk the store holds, resident or spilled.
    pub fn meta(&self, key: u64) -> Option<ChunkMeta> {
        self.lock().entries.get(&key).map(|e| e.meta)
    }

    /// True when the key is known (resident or spilled).
    pub fn contains(&self, key: u64) -> bool {
        self.lock().entries.contains_key(&key)
    }

    /// Pins a chunk: while the pin count is nonzero the chunk is never
    /// evicted. Executors pin every input of a subtask before running it.
    pub fn pin(&self, key: u64) -> StorageResult<()> {
        let mut state = self.lock();
        let entry = state
            .entries
            .get_mut(&key)
            .ok_or(StorageError::Missing(key))?;
        entry.pins += 1;
        Ok(())
    }

    /// Releases one pin. An unpin that doesn't match a live pin (missing
    /// key, or pin count already zero) is a caller bug that used to be
    /// silently swallowed and could mask pin leaks: it now trips a
    /// `debug_assert!` in debug builds and is counted in
    /// [`StorageMetrics::unbalanced_unpins`] in release builds so the
    /// trace layer can report it.
    pub fn unpin(&self, key: u64) {
        let mut state = self.lock();
        let balanced = match state.entries.get_mut(&key) {
            Some(entry) if entry.pins > 0 => {
                entry.pins -= 1;
                true
            }
            _ => {
                state.metrics.unbalanced_unpins += 1;
                false
            }
        };
        // release the lock before asserting so a debug-build panic can't
        // poison the store mid-unwind
        drop(state);
        debug_assert!(
            balanced,
            "unbalanced unpin of chunk {key:#x}: not pinned or not present"
        );
    }

    /// Drops a chunk from both tiers.
    pub fn remove(&self, key: u64) {
        self.lock().release(key);
    }

    /// Drops every chunk from both tiers. Cumulative metrics survive;
    /// snapshot fields reset.
    pub fn clear(&self) {
        let mut state = self.lock();
        let keys: Vec<u64> = state.entries.keys().copied().collect();
        for key in keys {
            state.release(key);
        }
        state.ring.clear();
        let drift = std::mem::take(&mut state.metrics.resident_bytes);
        drop(state);
        debug_assert_eq!(drift, 0, "ledger drifted");
    }

    /// Resident logical bytes right now.
    pub fn resident_bytes(&self) -> usize {
        self.lock().metrics.resident_bytes
    }

    /// A metrics snapshot (cumulative counters + current tier state).
    pub fn metrics(&self) -> StorageMetrics {
        self.lock().metrics
    }
}

fn spill_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("chunk-{key:016x}.xbc"))
}

impl State {
    /// Makes `key` a resident clock candidate charged `nbytes`, and
    /// maintains the peak high-water mark.
    fn admit(&mut self, key: u64, nbytes: usize) {
        self.ring.push_back(key);
        let m = &mut self.metrics;
        m.resident_bytes += nbytes;
        m.peak_resident_bytes = m.peak_resident_bytes.max(m.resident_bytes);
    }

    /// Removes `key` entirely: uncharges it if resident and deletes its
    /// spill file. Stale ring slots are left behind; the sweep drops them.
    fn release(&mut self, key: u64) {
        if let Some(entry) = self.entries.remove(&key) {
            if entry.value.is_some() {
                self.metrics.resident_bytes -= entry.meta.nbytes;
            }
            if let Some(path) = entry.file {
                self.metrics.spill_files -= 1;
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// [`StorageService::get`] under the lock.
    fn read(&mut self, key: u64, service: &StorageService) -> StorageResult<Arc<ChunkValue>> {
        let entry = self
            .entries
            .get_mut(&key)
            .ok_or(StorageError::Missing(key))?;
        entry.ref_bit = true;
        if let Some(v) = &entry.value {
            self.metrics.hits += 1;
            return Ok(Arc::clone(v));
        }
        let path = entry
            .file
            .as_ref()
            .ok_or_else(|| StorageError::Io(format!("chunk {key:#x} has no value and no file")))?;
        let bytes = std::fs::read(path)
            .map_err(|e| StorageError::Io(format!("read {}: {e}", path.display())))?;
        self.metrics.misses += 1;
        self.metrics.read_back_bytes += bytes.len() as u64;
        let value = Arc::new(decode_chunk_with(bytes, &mut self.dec)?);
        // Promote: make the chunk resident again, evicting colder chunks
        // if needed. Best-effort — a failure to make room (everything
        // else pinned) leaves the chunk non-resident but still returns it.
        let nbytes = entry.meta.nbytes;
        entry.value = Some(Arc::clone(&value));
        entry.pins += 1; // shield from the sweep below
        self.admit(key, nbytes);
        let shrunk = self.shrink_to_budget(service);
        let entry = self
            .entries
            .get_mut(&key)
            .expect("the sweep removes nothing");
        entry.pins -= 1;
        if shrunk.is_err() {
            // demote in place: the caller keeps the Arc, the tier stays
            // under control (the file is already on disk)
            entry.value = None;
            self.metrics.resident_bytes -= nbytes;
        }
        Ok(value)
    }

    /// Clock sweep: evicts second-chance victims until the memory tier is
    /// back under budget. With spilling disabled any needed eviction is an
    /// [`StorageError::Oom`]; with every candidate pinned the sweep gives
    /// up (bounded by two laps) and also reports OOM.
    fn shrink_to_budget(&mut self, service: &StorageService) -> StorageResult<()> {
        let Some(budget) = service.config.memory_budget else {
            return Ok(());
        };
        let mut scanned = 0usize;
        while self.metrics.resident_bytes > budget {
            let oom = StorageError::Oom {
                needed: self.metrics.resident_bytes,
                budget,
            };
            let Some(dir) = &service.spill_dir else {
                return Err(oom);
            };
            let laps = 2 * self.ring.len() + 1;
            let Some(key) = self.ring.pop_front() else {
                return Err(oom);
            };
            let Some(entry) = self.entries.get_mut(&key) else {
                continue; // stale slot of a removed chunk
            };
            let Some(value) = &entry.value else {
                continue; // stale slot of an already-evicted chunk
            };
            scanned += 1;
            if entry.pins > 0 || entry.ref_bit {
                entry.ref_bit = false;
                self.ring.push_back(key);
                if scanned >= laps {
                    return Err(oom);
                }
                continue;
            }
            // Evict: write the envelope to the disk tier (unless a valid
            // spill file already exists from a previous eviction) and drop
            // the resident value.
            let m = &mut self.metrics;
            if entry.file.is_none() {
                let path = spill_path(dir, key);
                let bytes = self.enc.encode(value, service.config.encoding);
                std::fs::write(&path, bytes)
                    .map_err(|e| StorageError::Io(format!("write {}: {e}", path.display())))?;
                entry.file = Some(path);
                m.spill_files += 1;
                m.spilled_bytes += bytes.len() as u64;
                m.encoded_raw_bytes += encoded_size(value) as u64;
                m.encoded_wire_bytes += bytes.len() as u64;
            }
            entry.value = None;
            m.evictions += 1;
            m.resident_bytes -= entry.meta.nbytes;
            scanned = 0; // fresh laps for the next victim
        }
        Ok(())
    }
}

impl Drop for StorageService {
    fn drop(&mut self) {
        // the files are removed whatever state a panicking thread left
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        for entry in state.entries.values() {
            if let Some(path) = &entry.file {
                let _ = std::fs::remove_file(path);
            }
        }
        if self.owns_dir {
            if let Some(dir) = &self.spill_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

impl std::fmt::Debug for StorageService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageService")
            .field("config", &self.config)
            .field("metrics", &self.metrics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{Column, DataFrame};

    fn df_chunk(tag: i64, rows: usize) -> ChunkValue {
        ChunkValue::Df(
            DataFrame::new(vec![(
                "v",
                Column::from_i64((0..rows as i64).map(|i| i + tag * 1_000_000).collect()),
            )])
            .unwrap(),
        )
    }

    fn bounded(budget: usize) -> StorageService {
        StorageService::new(StorageConfig {
            memory_budget: Some(budget),
            spill: SpillConfig::TempDir,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip_in_memory() {
        let s = StorageService::unbounded();
        s.put(1, df_chunk(1, 100)).unwrap();
        let v = s.get(1).unwrap();
        assert_eq!(v.rows(), 100);
        assert_eq!(s.metrics().hits, 1);
        assert_eq!(s.metrics().misses, 0);
    }

    #[test]
    fn over_budget_without_spill_is_oom() {
        let s = StorageService::new(StorageConfig {
            memory_budget: Some(64),
            spill: SpillConfig::Disabled,
            ..Default::default()
        })
        .unwrap();
        let err = s.put(1, df_chunk(1, 1000)).unwrap_err();
        assert!(matches!(err, StorageError::Oom { .. }), "got {err}");
    }

    #[test]
    fn eviction_spills_and_reads_back_identical() {
        // each chunk is 800 logical bytes; budget fits one
        let s = bounded(1000);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.put(2, df_chunk(2, 100)).unwrap();
        let m = s.metrics();
        assert_eq!(m.evictions, 1);
        assert!(m.spilled_bytes > 0);
        assert!(s.resident_bytes() <= 1000);
        // chunk 1 was the second-chance victim; reading it promotes it back
        let v1 = s.get(1).unwrap();
        match &*v1 {
            ChunkValue::Df(df) => {
                assert_eq!(df.num_rows(), 100);
                assert_eq!(
                    df.column("v").unwrap().get(7),
                    xorbits_dataframe::Scalar::Int(1_000_007)
                );
            }
            _ => panic!("kind flipped"),
        }
        let m = s.metrics();
        assert_eq!(m.misses, 1);
        assert!(m.read_back_bytes > 0);
    }

    #[test]
    fn pinned_chunks_never_evict() {
        let s = bounded(1000);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.pin(1).unwrap();
        s.put(2, df_chunk(2, 100)).unwrap();
        // chunk 2 (the newcomer) must have been the victim: 1 is pinned
        assert_eq!(s.metrics().evictions, 1);
        assert_eq!(s.get(1).unwrap().rows(), 100);
        assert_eq!(s.metrics().hits, 1, "pinned chunk stayed resident");
        s.unpin(1);
    }

    #[test]
    fn newcomer_spills_when_everything_else_is_pinned() {
        let s = bounded(1000);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.pin(1).unwrap();
        assert!(matches!(s.pin(9), Err(StorageError::Missing(9))));
        // the pinned chunk cannot move, so the insert itself becomes the
        // victim: put succeeds with chunk 2 living on the disk tier
        s.put(2, df_chunk(2, 100)).unwrap();
        assert_eq!(s.metrics().evictions, 1);
        assert!(s.resident_bytes() <= 1000);
        assert_eq!(s.get(2).unwrap().rows(), 100);
        assert_eq!(s.metrics().misses, 1, "chunk 2 came from disk");
    }

    #[test]
    fn promotion_is_best_effort_under_pinned_pressure() {
        // fill the budget with pinned chunks, spill one more, then read it
        // back: promotion cannot make room, but the read must still succeed
        // (the chunk is demoted in place, not refused)
        let s = bounded(700);
        s.put(1, df_chunk(1, 40)).unwrap();
        s.pin(1).unwrap();
        s.put(2, df_chunk(2, 40)).unwrap();
        s.pin(2).unwrap();
        s.put(3, df_chunk(3, 40)).unwrap(); // spills itself: 1 and 2 pinned
        assert_eq!(s.metrics().evictions, 1);
        let v = s.get(3).unwrap();
        assert_eq!(v.rows(), 40);
        assert!(s.resident_bytes() <= 700, "demoted after failed promotion");
        let again = s.get(3).unwrap();
        assert_eq!(again.rows(), 40);
        assert_eq!(s.metrics().misses, 2, "still served from disk");
    }

    #[test]
    fn replace_releases_old_accounting() {
        let s = StorageService::unbounded();
        s.put(1, df_chunk(1, 100)).unwrap();
        let before = s.resident_bytes();
        s.put(1, df_chunk(2, 100)).unwrap();
        assert_eq!(s.resident_bytes(), before, "re-store leaked ledger bytes");
        s.put(1, df_chunk(3, 10)).unwrap();
        assert!(s.resident_bytes() < before);
    }

    #[test]
    fn clear_resets_ledger_and_files() {
        let s = bounded(1000);
        for k in 0..4 {
            s.put(k, df_chunk(k as i64, 100)).unwrap();
        }
        assert!(s.metrics().spill_files > 0);
        s.clear();
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.metrics().spill_files, 0);
        assert!(matches!(s.get(1), Err(StorageError::Missing(1))));
    }

    #[test]
    fn spill_dir_removed_on_drop() {
        let s = bounded(100);
        let dir = s.spill_dir.clone().unwrap();
        s.put(1, df_chunk(1, 100)).unwrap();
        assert!(dir.exists());
        drop(s);
        assert!(!dir.exists(), "temp spill dir survived drop");
    }

    /// Regression: `unpin` used `saturating_sub`, so an unbalanced unpin
    /// (never-pinned or missing key) silently no-oped and could mask pin
    /// leaks. It must now trip a `debug_assert!` in debug builds, and in
    /// release builds count into `unbalanced_unpins` without poisoning the
    /// service mutex or corrupting live pin counts.
    #[test]
    fn unbalanced_unpin_is_detected() {
        let s = StorageService::unbounded();
        s.put(1, df_chunk(1, 10)).unwrap();
        s.pin(1).unwrap();
        s.unpin(1); // balanced — never flagged
        assert_eq!(s.metrics().unbalanced_unpins, 0);

        let unbalanced = || {
            s.unpin(1); // pin count already zero
            s.unpin(99); // never stored
        };
        if cfg!(debug_assertions) {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence expected panics
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.unpin(1)));
            let missing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.unpin(99)));
            std::panic::set_hook(prev);
            assert!(caught.is_err(), "zero-count unpin must debug_assert");
            assert!(missing.is_err(), "missing-key unpin must debug_assert");
        } else {
            unbalanced();
        }
        // both paths count, the mutex stays usable, pins stay sane
        assert_eq!(s.metrics().unbalanced_unpins, 2);
        s.pin(1).unwrap();
        s.unpin(1);
        assert_eq!(s.metrics().unbalanced_unpins, 2);
        assert_eq!(s.get(1).unwrap().rows(), 10);
    }

    #[test]
    fn meta_follows_a_chunk_through_both_tiers() {
        let s = bounded(1000);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.put(2, df_chunk(2, 50)).unwrap(); // spills 1
        assert_eq!(s.metrics().evictions, 1);
        let of = |rows| ChunkMeta {
            nbytes: rows * 8,
            rows,
        };
        assert_eq!(s.meta(1), Some(of(100)), "spilled");
        assert_eq!(s.meta(2), Some(of(50)), "resident");
        assert_eq!(s.meta(3), None, "never stored");
        s.put(2, df_chunk(2, 10)).unwrap();
        assert_eq!(s.meta(2), Some(of(10)), "re-put replaces it");
        s.remove(1);
        assert_eq!(s.meta(1), None, "removed");
        s.clear();
        assert_eq!(s.meta(2), None, "cleared");
        // reading metadata is not an access: no hit, no miss, no read-back
        let m = s.metrics();
        assert_eq!((m.hits, m.misses, m.read_back_bytes), (0, 0, 0));
    }

    #[test]
    fn load_pins_every_key_before_the_first_read() {
        // 1, 2 and 3 are 400 bytes each under a budget of 1000: two fit
        let s = bounded(1000);
        for k in 1..=3 {
            s.put(k, df_chunk(k as i64, 50)).unwrap();
        }
        assert_eq!(s.metrics().evictions, 1, "1 spilled");
        // reading 1 back promotes it and must evict something. Were 2 not
        // pinned yet it would be the victim (3 is younger) and its own
        // read a second miss; pinned first, 3 goes and 2 is a hit.
        let got = s.load(&[1, 2]).unwrap();
        assert_eq!(got[0].rows() + got[1].rows(), 100);
        let m = s.metrics();
        assert_eq!((m.misses, m.hits, m.evictions), (1, 1, 2));
        // both stay pinned until the caller lets go: a further store
        // spills itself, never 1 or 2
        s.put(4, df_chunk(4, 50)).unwrap();
        assert_eq!(s.load(&[1, 2]).unwrap().len(), 2);
        assert_eq!(s.metrics().misses, 1, "the loaded chunks never left");
        for _ in 0..2 {
            s.unpin(1);
            s.unpin(2);
        }
        assert_eq!(s.metrics().unbalanced_unpins, 0);
    }

    #[test]
    fn load_of_a_missing_key_pins_nothing() {
        let s = StorageService::unbounded();
        s.put(1, df_chunk(1, 10)).unwrap();
        assert_eq!(s.load(&[1, 9]).unwrap_err(), StorageError::Missing(9));
        assert_eq!(s.load(&[]).unwrap().len(), 0);
        // 1 was not left pinned by the failed load
        if !cfg!(debug_assertions) {
            s.unpin(1);
            assert_eq!(s.metrics().unbalanced_unpins, 1);
        }
        assert_eq!(s.lock().entries[&1].pins, 0);
    }

    /// Eight threads put, load, unpin and remove under a budget that holds
    /// about three chunks, reading each other's keys while they do: every
    /// value read must be the value put, pins must net to zero, and the
    /// ledger must agree with a walk of the table and end at zero.
    #[test]
    fn concurrent_access_keeps_ledger_balanced() {
        let s = bounded(2048);
        const THREADS: u64 = 8;
        const KEYS_PER_THREAD: u64 = 24;
        let check = |key: u64, v: &ChunkValue| match v {
            ChunkValue::Df(df) => {
                assert_eq!(df.num_rows(), 64);
                let first = xorbits_dataframe::Scalar::Int(key as i64 * 1_000_000);
                assert_eq!(df.column("v").unwrap().get(0), first, "chunk {key}");
            }
            ChunkValue::Arr(_) => panic!("kind flipped"),
        };
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..KEYS_PER_THREAD {
                        let key = t * KEYS_PER_THREAD + i;
                        s.put(key, df_chunk(key as i64, 64)).unwrap();
                        // a two-key load: this one and the thread's first,
                        // which is never removed (and is the same key twice
                        // when i == 0)
                        let keys = [key, t * KEYS_PER_THREAD];
                        for (k, v) in keys.iter().zip(s.load(&keys).unwrap()) {
                            check(*k, &v);
                        }
                        keys.iter().for_each(|&k| s.unpin(k));
                        // overlap: a neighbour's first key, which it never
                        // removes before the end
                        let other = (t + 1) % THREADS * KEYS_PER_THREAD;
                        if let Ok(v) = s.get(other) {
                            check(other, &v);
                        }
                        if i % 5 == 4 {
                            s.remove(key);
                        }
                    }
                });
            }
        });
        let m = s.metrics();
        assert_eq!(m.unbalanced_unpins, 0);
        assert!(m.evictions > 0 && m.misses > 0, "the budget must bite");
        let state = s.lock();
        let walked: usize = state
            .entries
            .values()
            .filter(|e| e.value.is_some())
            .map(|e| e.meta.nbytes)
            .sum();
        assert!(state.entries.values().all(|e| e.pins == 0), "leaked pin");
        let on_disk = state.entries.values().filter(|e| e.file.is_some()).count();
        drop(state);
        assert_eq!(s.resident_bytes(), walked, "ledger drifted");
        assert_eq!(m.spill_files, on_disk, "spill-file count drifted");
        assert!(m.peak_resident_bytes >= s.resident_bytes());
        for key in 0..THREADS * KEYS_PER_THREAD {
            s.remove(key);
        }
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.metrics().spill_files, 0);
    }
}
