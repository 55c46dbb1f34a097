//! The sequential host executor: [`ParallelExecutor`] pinned to one thread.
//! Subtasks run in graph order on the calling thread with sequential
//! kernels — the schedule every other executor's results are compared
//! against bit for bit. Used by unit tests and by the
//! single-node ("pandas-like") baseline engine, whose makespan is simply
//! its single-threaded kernel time.
//!
//! Chunk storage is the host executor's [`StorageService`](xorbits_storage::
//! StorageService): an unbounded executor keeps everything resident; a
//! budgeted one either OOMs past the budget (the historical pandas-process
//! model, [`LocalExecutor::with_budget`]) or spills cold chunks to a disk
//! tier and reads them back transparently
//! ([`LocalExecutor::with_budget_and_spill`]).

use crate::chunk::{ChunkKey, ChunkMeta, Payload};
use crate::error::XbResult;
use crate::parallel::ParallelExecutor;
use crate::session::{ExecStats, Executor};
use crate::subtask::SubtaskGraph;
use crate::tiling::MetaView;
use std::sync::Arc;
use xorbits_storage::{SpillConfig, StorageConfig, StorageMetrics};

/// Immediate single-threaded executor — optionally budgeted, optionally
/// spill-capable.
pub struct LocalExecutor(ParallelExecutor);

impl Default for LocalExecutor {
    fn default() -> LocalExecutor {
        LocalExecutor::new()
    }
}

impl LocalExecutor {
    /// Unbounded executor.
    pub fn new() -> LocalExecutor {
        LocalExecutor(ParallelExecutor::with_threads(1))
    }

    /// Executor with a single-node memory budget and **no** disk tier:
    /// exceeding the budget is an immediate OOM (models a single pandas
    /// process).
    pub fn with_budget(bytes: usize) -> LocalExecutor {
        LocalExecutor::with_storage(StorageConfig {
            memory_budget: Some(bytes),
            spill: SpillConfig::Disabled,
            ..Default::default()
        })
        .expect("no io in a memory-only config")
    }

    /// Executor with a memory budget *and* a temp-dir disk tier: going over
    /// budget spills cold chunks instead of failing.
    pub fn with_budget_and_spill(bytes: usize) -> XbResult<LocalExecutor> {
        LocalExecutor::with_storage(StorageConfig {
            memory_budget: Some(bytes),
            spill: SpillConfig::TempDir,
            ..Default::default()
        })
    }

    /// Executor over an arbitrary storage configuration.
    pub fn with_storage(config: StorageConfig) -> XbResult<LocalExecutor> {
        ParallelExecutor::with_storage_and_threads(config, 1).map(LocalExecutor)
    }

    /// Peak resident bytes observed so far.
    pub fn peak_bytes(&self) -> usize {
        self.0.peak_bytes()
    }

    /// Snapshot of the storage tier (evictions, spill/read-back bytes,
    /// hit/miss counts, residency).
    pub fn storage_metrics(&self) -> StorageMetrics {
        self.0.storage_metrics()
    }
}

impl MetaView for LocalExecutor {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.0.meta(key)
    }
}

impl Executor for LocalExecutor {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        self.0.execute(graph)
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.0.payload(key)
    }

    fn clear(&mut self) {
        self.0.clear()
    }

    fn release(&mut self, keys: &[ChunkKey]) {
        self.0.release(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XorbitsConfig;
    use crate::error::XbError;
    use crate::exec::ChunkIo;
    use crate::session::Session;
    use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame, Scalar};

    fn small_cfg() -> XorbitsConfig {
        // tiny chunk limit so even small frames split into several chunks
        XorbitsConfig {
            chunk_limit_bytes: 256,
            tree_reduce_threshold_bytes: 1 << 20,
            broadcast_threshold_bytes: 1 << 20,
            ..Default::default()
        }
    }

    fn sess() -> Session<LocalExecutor> {
        Session::new(small_cfg(), LocalExecutor::new())
    }

    /// Publishes one chunk the way a running subtask does.
    fn store(ex: &LocalExecutor, key: ChunkKey, payload: Payload) {
        ex.0.io().publish(key, payload).unwrap();
    }

    fn sample_df(n: usize) -> DataFrame {
        DataFrame::new(vec![
            (
                "k",
                Column::from_i64((0..n as i64).map(|i| i % 7).collect()),
            ),
            ("v", Column::from_i64((0..n as i64).collect())),
        ])
        .unwrap()
    }

    #[test]
    fn filter_and_fetch_round_trip() {
        let s = sess();
        let df = s.from_df(sample_df(100)).unwrap();
        let out = df.filter(col("v").lt(lit(10i64))).unwrap().fetch().unwrap();
        assert_eq!(out.num_rows(), 10);
    }

    #[test]
    fn groupby_distributed_equals_single_pass() {
        let s = sess();
        let raw = sample_df(500);
        let expected = xorbits_dataframe::groupby::groupby_agg(
            &raw,
            &["k"],
            &[AggSpec::new("v", AggFunc::Sum, "s")],
        )
        .unwrap();
        let expected = xorbits_dataframe::sort::sort_by(&expected, &[("k", true)]).unwrap();

        let df = s.from_df(raw).unwrap();
        let out = df
            .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])
            .unwrap()
            .fetch()
            .unwrap();
        let out = xorbits_dataframe::sort::sort_by(&out, &[("k", true)]).unwrap();
        assert_eq!(out, expected);
        // dynamic tiling yields once, on the map stage's partials, and
        // picks the reduce from their measured sizes
        let report = s.last_report().unwrap();
        assert_eq!(report.tiling.yields, 1);
        let [decision] = &report.tiling.decisions[..] else {
            panic!("one decision: {:?}", report.tiling.decisions);
        };
        assert!(
            decision.starts_with("groupby: tree-reduce (agg "),
            "{decision}"
        );
    }

    #[test]
    fn iloc_uses_iterative_tiling() {
        // the Listing 2 / Fig 3c scenario: filter then iloc[10]
        let s = sess();
        let df = s.from_df(sample_df(300)).unwrap();
        let filtered = df.filter(col("v").ge(lit(100i64))).unwrap();
        let row = filtered.iloc_row(10).unwrap().fetch().unwrap();
        assert_eq!(row.num_rows(), 1);
        assert_eq!(row.column("v").unwrap().get(0), Scalar::Int(110));
        let report = s.last_report().unwrap();
        assert!(
            report.tiling.yields >= 1,
            "iloc over unknown shapes requires iterative tiling"
        );
        assert!(report
            .tiling
            .decisions
            .iter()
            .any(|d| d.starts_with("iloc[10]")));
    }

    #[test]
    fn merge_broadcasts_small_side() {
        let s = sess();
        let big = s.from_df(sample_df(400)).unwrap();
        let small = s
            .from_df(
                DataFrame::new(vec![
                    ("k", Column::from_i64(vec![0, 1, 2])),
                    ("name", Column::from_str(["a", "b", "c"])),
                ])
                .unwrap(),
            )
            .unwrap();
        let joined = big.merge_on(&small, &["k"]).unwrap().fetch().unwrap();
        // k in 0..7 uniformly over 400 rows; keys 0,1,2 match
        assert!(joined.num_rows() > 100);
        assert!(joined.schema().contains("name"));
        let report = s.last_report().unwrap();
        assert!(
            report
                .tiling
                .decisions
                .iter()
                .any(|d| d.contains("broadcast")),
            "expected broadcast join, got {:?}",
            report.tiling.decisions
        );
    }

    #[test]
    fn sort_head_peephole_topk() {
        let s = sess();
        let df = s.from_df(sample_df(300)).unwrap();
        let top = df
            .sort_values(vec![("v".into(), false)])
            .unwrap()
            .head(5)
            .unwrap()
            .fetch()
            .unwrap();
        assert_eq!(top.num_rows(), 5);
        assert_eq!(top.column("v").unwrap().get(0), Scalar::Int(299));
        let report = s.last_report().unwrap();
        assert!(report.tiling.decisions.iter().any(|d| d.contains("top-5")));
    }

    #[test]
    fn qr_tsqr_reconstructs_input() {
        let s = Session::new(
            XorbitsConfig {
                chunk_limit_bytes: 64 * 8 * 4, // force several blocks
                ..Default::default()
            },
            LocalExecutor::new(),
        );
        let a = s.random(&[200, 4], 42).unwrap();
        let (q, r) = a.qr().unwrap();
        let qa = q.fetch().unwrap();
        let ra = r.fetch().unwrap();
        let a_full = xorbits_array::random::rand_uniform(&[200, 4], 42);
        // Reconstruct: Q @ R == A (chunk 0 of random uses chunk_seed(42, 0),
        // so compare against the distributed generation instead).
        let a_dist = a.fetch().unwrap();
        let prod = xorbits_array::linalg::matmul(&qa, &ra).unwrap();
        assert!(prod.max_abs_diff(&a_dist) < 1e-9);
        // Q orthonormal
        let qtq = xorbits_array::linalg::matmul(&qa.transpose().unwrap(), &qa).unwrap();
        assert!(qtq.max_abs_diff(&xorbits_array::NdArray::eye(4)) < 1e-9);
        let _ = a_full;
    }

    #[test]
    fn lstsq_distributed_recovers_weights() {
        let s = Session::new(
            XorbitsConfig {
                chunk_limit_bytes: 50 * 3 * 8,
                ..Default::default()
            },
            LocalExecutor::new(),
        );
        let x = s.random(&[300, 3], 7).unwrap();
        let w_true = xorbits_array::NdArray::from_vec(vec![2.0, -1.0, 0.5], vec![3, 1]).unwrap();
        let w_handle = s.tensor(w_true.clone()).unwrap();
        let y = x.matmul(&w_handle).unwrap();
        let w = x.lstsq(&y).unwrap().fetch().unwrap();
        for (a, b) in w.data().iter().zip(w_true.data()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn single_node_budget_ooms() {
        let ex = LocalExecutor::with_budget(1024);
        let s = Session::new(XorbitsConfig::default(), ex);
        let df = s.from_df(sample_df(10_000)).unwrap();
        let err = df.fetch().unwrap_err();
        assert!(matches!(err, XbError::Oom { .. }));
    }

    #[test]
    fn same_budget_with_spill_completes() {
        // the exact pipeline that OOMs above, rescued by the disk tier
        let ex = LocalExecutor::with_budget_and_spill(1024).unwrap();
        let s = Session::new(XorbitsConfig::default(), ex);
        let raw = sample_df(10_000);
        let df = s.from_df(raw.clone()).unwrap();
        let out = df.fetch().unwrap();
        assert_eq!(out, raw);
    }

    #[test]
    fn restore_under_same_key_releases_old_entry() {
        // regression: re-storing a payload under a present key used to add
        // its bytes to the ledger without releasing the old entry
        let ex = LocalExecutor::new();
        let payload = || Payload::Df(sample_df(100));
        let one = payload().nbytes();
        store(&ex, 7, payload());
        store(&ex, 7, payload());
        store(&ex, 7, payload());
        assert_eq!(
            ex.storage_metrics().resident_bytes,
            one,
            "re-store under the same key must not inflate the ledger"
        );
        assert_eq!(ex.peak_bytes(), one, "peak must track real residency");
    }

    #[test]
    fn clear_resets_ledger() {
        let mut ex = LocalExecutor::new();
        store(&ex, 1, Payload::Df(sample_df(100)));
        store(&ex, 2, Payload::Df(sample_df(100)));
        ex.clear();
        assert_eq!(ex.storage_metrics().resident_bytes, 0);
        assert!(ex.payload(1).is_none());
        // the ledger restarts cleanly: a fresh store is charged from zero
        store(&ex, 3, Payload::Df(sample_df(10)));
        assert_eq!(
            ex.storage_metrics().resident_bytes,
            Payload::Df(sample_df(10)).nbytes()
        );
    }

    #[test]
    fn deferred_evaluation_display_triggers_execution() {
        let s = sess();
        let df = s.from_df(sample_df(20)).unwrap();
        let shown = format!("{}", df.head(3).unwrap());
        assert!(shown.contains('k'));
        // a report now exists: display really executed
        assert!(s.last_report().is_some());
    }

    #[test]
    fn tensor_reduce_mean() {
        let s = sess();
        let a = s.random(&[1000], 3).unwrap();
        let m = a
            .reduce(xorbits_array::Reduction::Mean)
            .unwrap()
            .fetch_scalar()
            .unwrap();
        assert!((m - 0.5).abs() < 0.05);
    }
}
