//! Regression tests for spill-file retention: a chunk dropped from the
//! store — by `remove` (the executor `release` path) or `clear` — must
//! take its disk-tier file with it, both in the `spill_files` metric and
//! on the actual filesystem.
//!
//! This pins the fix for a leak where `LocalExecutor::release` only
//! dropped chunk *metadata*, so a long fetch with mid-flight refcount
//! releases accumulated one orphaned `chunk-*.xbc` file per released
//! spilled chunk until the whole fetch ended. The retention tests run
//! under both encodings: the plain path is the compatibility fallback.

use std::path::{Path, PathBuf};
use xorbits_dataframe::{Column, DataFrame, Scalar};
use xorbits_storage::{ChunkValue, EncodingMode, SpillConfig, StorageConfig, StorageService};

fn df_chunk(tag: i64, rows: usize) -> ChunkValue {
    ChunkValue::Df(
        DataFrame::new(vec![(
            "v",
            Column::from_i64((0..rows as i64).map(|i| i + tag * 1_000_000).collect()),
        )])
        .unwrap(),
    )
}

/// A process-unique spill directory under the system temp dir, owned by
/// the test (`SpillConfig::Dir` services never delete the directory
/// itself, so we can inspect it after drop).
fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xorbits-spill-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn files_on_disk(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

const ENCODINGS: [EncodingMode; 2] = [EncodingMode::Plain, EncodingMode::Auto];

/// Budget fits one ~800-byte chunk, so every additional put spills one.
fn service(dir: &Path, encoding: EncodingMode) -> StorageService {
    StorageService::new(StorageConfig {
        memory_budget: Some(1000),
        spill: SpillConfig::Dir(dir.to_path_buf()),
        encoding,
    })
    .unwrap()
}

#[test]
fn remove_deletes_the_spill_file_mid_run() {
    for enc in ENCODINGS {
        let dir = test_dir(&format!("remove-{enc:?}"));
        let s = service(&dir, enc);
        for k in 0..4u64 {
            s.put(k, df_chunk(k as i64, 100)).unwrap();
        }
        let spilled_before = s.metrics().spill_files;
        assert!(spilled_before >= 3, "budget must force spilling");
        assert_eq!(files_on_disk(&dir).len(), spilled_before);

        // the executor `release` path: refcounts hit zero mid-fetch
        s.remove(0);
        s.remove(1);
        assert_eq!(
            s.metrics().spill_files,
            spilled_before - 2,
            "metric still counts released chunks"
        );
        assert_eq!(
            files_on_disk(&dir).len(),
            spilled_before - 2,
            "released chunks leaked their spill files on disk"
        );
        assert!(!s.contains(0) && !s.contains(1));

        // the surviving spilled chunks still read back
        for k in 2..4u64 {
            assert_eq!(s.get(k).unwrap().rows(), 100, "chunk {k} lost its file");
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn clear_leaves_the_spill_dir_empty() {
    for enc in ENCODINGS {
        let dir = test_dir(&format!("clear-{enc:?}"));
        let s = service(&dir, enc);
        for k in 0..6u64 {
            s.put(k, df_chunk(k as i64, 100)).unwrap();
        }
        assert!(s.metrics().spill_files > 0);
        s.clear();
        assert_eq!(s.metrics().spill_files, 0);
        assert_eq!(
            files_on_disk(&dir),
            Vec::<String>::new(),
            "clear() left spill files behind"
        );
        assert_eq!(s.resident_bytes(), 0);

        // the directory stays usable for the next fetch
        s.put(9, df_chunk(9, 100)).unwrap();
        s.put(10, df_chunk(10, 100)).unwrap();
        assert_eq!(s.metrics().spill_files, files_on_disk(&dir).len());
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn re_store_under_the_same_key_drops_the_stale_file() {
    for enc in ENCODINGS {
        let dir = test_dir(&format!("restore-{enc:?}"));
        let s = service(&dir, enc);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.put(2, df_chunk(2, 100)).unwrap(); // one of the two spills
        assert_eq!(s.metrics().spill_files, 1);
        // replacing both keys releases the old entries, including whichever
        // owned the spill file; only files of *current* spilled entries remain
        s.put(1, df_chunk(3, 100)).unwrap();
        s.put(2, df_chunk(4, 100)).unwrap();
        assert_eq!(files_on_disk(&dir).len(), s.metrics().spill_files);
        assert!(
            files_on_disk(&dir).len() <= 1,
            "stale envelope survived re-store"
        );
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drop with `SpillConfig::Dir` removes its files but not the caller's
/// directory.
#[test]
fn drop_cleans_files_but_keeps_caller_dir() {
    for enc in ENCODINGS {
        let dir = test_dir(&format!("drop-{enc:?}"));
        let s = service(&dir, enc);
        for k in 0..4u64 {
            s.put(k, df_chunk(k as i64, 100)).unwrap();
        }
        assert!(!files_on_disk(&dir).is_empty());
        drop(s);
        assert!(dir.exists(), "service must not delete a caller-owned dir");
        assert_eq!(
            files_on_disk(&dir),
            Vec::<String>::new(),
            "drop leaked spill files"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Pins the single-thread behaviour of the memory tier: a fixed script of
/// puts, touches, pins, a promoting `get`, a `remove` and a re-`put` under
/// a live key must evict the same keys at the same steps and move every
/// counter by the same amount, whatever the store's locking looks like
/// (expectations recorded at commit 6e15a4c, the sharded store).
/// Key `k` holds `5 << k` rows = `40 << k` logical bytes, so
/// `resident_bytes / 40` is the bitmask of resident keys; a step's victims
/// are the keys that left the mask, and the running eviction count also
/// catches a chunk that was stored and spilled within one step.
#[test]
fn single_thread_eviction_order_and_counters_are_pinned() {
    let dir = test_dir("pinned-order");
    let s = StorageService::new(StorageConfig {
        memory_budget: Some(1000),
        spill: SpillConfig::Dir(dir.clone()),
        encoding: EncodingMode::Auto,
    })
    .unwrap();
    let sized = |k: u64, tag: i64| df_chunk(tag, 5 << k);
    let first = |k: u64| match &*s.get(k).unwrap() {
        ChunkValue::Df(df) => df.column("v").unwrap().get(0),
        ChunkValue::Arr(_) => panic!("kind flipped"),
    };
    let mut resident = 0usize;
    let mut log: Vec<(&str, Vec<u64>, u64)> = Vec::new();
    let mut step = |name: &'static str| {
        assert_eq!(s.resident_bytes() % 40, 0, "{name}: not a key mask");
        let now = s.resident_bytes() / 40;
        let left = (0..8)
            .filter(|k| resident >> k & 1 == 1 && now >> k & 1 == 0)
            .collect();
        log.push((name, left, s.metrics().evictions));
        resident = now;
    };

    for k in 0..4 {
        s.put(k, sized(k, 0)).unwrap();
    }
    step("put 0..4");
    s.put(4, sized(4, 0)).unwrap(); // 1240 > 1000
    step("put 4");
    s.pin(3).unwrap();
    assert_eq!(first(1), Scalar::Int(0)); // read back and promoted
    step("get 1");
    assert_eq!(first(3), Scalar::Int(0)); // touch
    assert_eq!(first(2), Scalar::Int(0)); // read back and promoted
    step("get 3, 2");
    s.put(5, sized(5, 0)).unwrap(); // 1280 bytes: over the budget on its own
    step("put 5");
    s.unpin(3);
    assert_eq!(first(0), Scalar::Int(0));
    step("get 0");
    s.remove(1);
    step("remove 1");
    s.put(4, sized(4, 7)).unwrap(); // re-put under a live key
    step("re-put 4");
    assert_eq!(first(4), Scalar::Int(7_000_000));
    assert_eq!(first(5), Scalar::Int(0)); // never fits: demoted in place
    step("get 4, 5");
    s.put(1, sized(1, 0)).unwrap();
    step("put 1");
    assert_eq!(first(2), Scalar::Int(0));
    step("get 2");

    assert_eq!(
        log,
        vec![
            ("put 0..4", vec![], 0),
            ("put 4", vec![0, 1, 2], 3),
            ("get 1", vec![4], 4),
            ("get 3, 2", vec![], 4),
            ("put 5", vec![1, 2], 7), // and 5 itself; 3 is pinned
            ("get 0", vec![], 7),
            ("remove 1", vec![], 7),
            ("re-put 4", vec![], 7),
            ("get 4, 5", vec![0, 3, 4], 10),
            ("put 1", vec![], 10),
            ("get 2", vec![], 10),
        ]
    );
    assert_eq!(resident, 0b110, "keys 1 and 2 end resident");
    let m = s.metrics();
    assert_eq!(
        (m.evictions, m.spilled_bytes, m.read_back_bytes),
        (10, 759, 475)
    );
    assert_eq!((m.hits, m.misses, m.spill_files), (2, 5, 5));
    assert_eq!((m.peak_resident_bytes, m.resident_bytes), (2280, 240));
    assert_eq!(m.unbalanced_unpins, 0);
    let on_disk: Vec<String> = [0u64, 2, 3, 4, 5]
        .iter()
        .map(|k| format!("chunk-{k:016x}.xbc"))
        .collect();
    assert_eq!(files_on_disk(&dir), on_disk);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}
