//! The host executor: runs subtask graphs for real on this machine, against
//! a [`StorageService`]. With one thread it is the in-order sequential
//! schedule ([`LocalExecutor`](crate::local::LocalExecutor) is exactly that
//! case); with more it runs a graph's independent subtasks concurrently on
//! a pool of scoped threads, with results **bit-identical** to the
//! one-thread schedule regardless of thread count or completion order.
//! Either way a subtask is one [`exec::run_subtask`] call.
//!
//! # Topology
//!
//! One ready queue under one mutex, one condvar. A subtask's indegree
//! counts its distinct producer subtasks inside the graph; the queue
//! starts with the subtasks whose indegree is zero, and the worker that
//! completes a subtask's last outstanding producer pushes it. Workers pop
//! the queue front and wait on the condvar when it is empty; the predicate
//! and the wait share the lock, so a wakeup cannot be lost and nothing
//! polls. A graph is 8 subtasks on average (TPC-H, DESIGN.md §13), so the
//! lock is taken a few dozen times per graph: an injector, per-worker
//! deques and stealing measured no faster. A worker that fails — an `Err`
//! from its subtask, or a panic — records that under the same lock from a
//! drop guard; its siblings stop taking work, and `execute` returns the
//! first error or resumes the panic exactly as the one-thread schedule
//! would have raised it.
//!
//! This pool is the only consumer of the thread count: a kernel is a
//! sequential function of its input chunks, whichever thread runs it.
//!
//! # Determinism
//!
//! Subtask-level parallelism cannot change results by construction:
//! kernels are pure, every chunk key has exactly one producer, the
//! dependency graph forces producers to complete before consumers read
//! them, and a subtask reads its inputs by *key list order*, never by
//! completion order. Kernels are sequential, so a floating-point
//! reduction has one fold order. The only thing schedule order can change
//! is *placement* (which chunks spill first under a budget), never a
//! value. `tests/parallel_equivalence.rs` gates this with all 22 TPC-H
//! queries at 1/2/4/8 threads against the `LocalExecutor` oracle.
//!
//! With `threads == 1` (or a one-subtask graph) the executor skips the
//! pool entirely and runs subtasks in graph order on the calling thread —
//! no queue, no parking. That schedule is the bit-identity reference every
//! other executor is compared against.

use crate::chunk::{ChunkKey, ChunkMeta, Payload};
use crate::error::{XbError, XbResult};
use crate::exec::{self, ChunkIo};
use crate::session::{ExecStats, Executor};
use crate::subtask::SubtaskGraph;
use crate::tiling::MetaView;
use crate::trace;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;
use xorbits_storage::{SpillConfig, StorageConfig, StorageError, StorageMetrics, StorageService};

/// Host executor over a thread-safe [`StorageService`] — unbounded,
/// budgeted (over budget = OOM) or budgeted with a disk tier that spills
/// cold chunks and reads them back transparently.
pub struct ParallelExecutor {
    service: StorageService,
    threads: usize,
}

impl Default for ParallelExecutor {
    fn default() -> ParallelExecutor {
        ParallelExecutor::new()
    }
}

/// The pool size of an executor built without a thread count.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ParallelExecutor {
    /// Unbounded executor with one worker per available core.
    pub fn new() -> ParallelExecutor {
        ParallelExecutor::with_threads(host_threads())
    }

    /// Unbounded executor with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize) -> ParallelExecutor {
        ParallelExecutor::build(StorageService::unbounded(), threads)
    }

    /// Budgeted executor with **no** disk tier (over budget = OOM), with
    /// one worker per available core.
    pub fn with_budget(bytes: usize) -> ParallelExecutor {
        ParallelExecutor::with_storage(StorageConfig {
            memory_budget: Some(bytes),
            spill: SpillConfig::Disabled,
            ..Default::default()
        })
        .expect("no io in a memory-only config")
    }

    /// Budgeted executor with a temp-dir disk tier, with one worker per
    /// available core.
    pub fn with_budget_and_spill(bytes: usize) -> XbResult<ParallelExecutor> {
        ParallelExecutor::with_storage(StorageConfig {
            memory_budget: Some(bytes),
            spill: SpillConfig::TempDir,
            ..Default::default()
        })
    }

    /// Executor over an arbitrary storage configuration, with one worker
    /// per available core.
    pub fn with_storage(config: StorageConfig) -> XbResult<ParallelExecutor> {
        ParallelExecutor::with_storage_and_threads(config, host_threads())
    }

    /// Executor over an arbitrary storage configuration and worker count.
    pub fn with_storage_and_threads(
        config: StorageConfig,
        threads: usize,
    ) -> XbResult<ParallelExecutor> {
        Ok(ParallelExecutor::build(
            StorageService::new(config)?,
            threads,
        ))
    }

    fn build(service: StorageService, threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            service,
            threads: threads.max(1),
        }
    }

    /// The worker count this executor runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Peak resident bytes observed so far.
    pub fn peak_bytes(&self) -> usize {
        self.service.metrics().peak_resident_bytes
    }

    /// Snapshot of the storage tier.
    pub fn storage_metrics(&self) -> StorageMetrics {
        self.service.metrics()
    }

    /// This executor as one worker's chunk source and sink.
    pub(crate) fn io(&self) -> HostIo<'_> {
        HostIo {
            service: &self.service,
            pinned: Vec::new(),
        }
    }

    /// Runs one subtask, shared by the sequential path and every pool
    /// worker.
    fn run_subtask(&self, graph: &SubtaskGraph, sti: usize) -> XbResult<()> {
        let _st_span = if trace::is_enabled() {
            trace::span_on(
                trace::Stage::Execute,
                graph.subtask_label(sti),
                trace::Track::LOCAL,
            )
        } else {
            trace::SpanGuard::disabled()
        };
        exec::run_subtask(graph, sti, &mut self.io()).map(drop)
    }

    /// Dispatches every subtask of `graph` over the worker pool. Returns
    /// the summed per-subtask busy nanoseconds.
    fn execute_pool(&self, graph: &SubtaskGraph) -> XbResult<u64> {
        let n = graph.subtasks.len();
        // producer subtask of every chunk key published inside the graph
        let mut producer_of: HashMap<ChunkKey, usize> = HashMap::new();
        for (i, st) in graph.subtasks.iter().enumerate() {
            for &k in &st.published_outputs {
                producer_of.insert(k, i);
            }
        }
        // indegree = distinct producers; successor adjacency
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg: Vec<usize> = vec![0; n];
        let mut ready: VecDeque<usize> = VecDeque::new();
        for (i, st) in graph.subtasks.iter().enumerate() {
            let mut deps: Vec<usize> = st
                .external_inputs
                .iter()
                .filter_map(|k| producer_of.get(k).copied())
                .filter(|&p| p != i)
                .collect();
            deps.sort_unstable();
            deps.dedup();
            for &p in &deps {
                succs[p].push(i);
            }
            indeg[i] = deps.len();
            if deps.is_empty() {
                ready.push_back(i);
            }
        }

        let pool = Pool {
            state: Mutex::new(PoolState {
                ready,
                indeg,
                remaining: n,
                failed: false,
                error: None,
                busy_nanos: 0,
            }),
            work: Condvar::new(),
        };
        let handle = trace::handle();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads.min(n))
                .map(|_| {
                    let (pool, succs, handle) = (&pool, &succs, handle.clone());
                    scope.spawn(move || {
                        if let Some(h) = &handle {
                            trace::adopt(h);
                        }
                        pool.worker(self, graph, succs);
                    })
                })
                .collect();
            for worker in workers {
                if let Err(panic) = worker.join() {
                    // a subtask's panic reaches the caller as it would at
                    // one thread; the scope joins the siblings first
                    std::panic::resume_unwind(panic);
                }
            }
        });
        let state = pool.state.into_inner().unwrap_or_else(|p| p.into_inner());
        match state.error {
            Some(err) => Err(err),
            None => Ok(state.busy_nanos),
        }
    }

    fn exec_stats(
        &self,
        elapsed: f64,
        busy_seconds: f64,
        subtasks: usize,
        before: &StorageMetrics,
    ) -> ExecStats {
        let after = self.service.metrics();
        let spilled = after.spilled_bytes - before.spilled_bytes;
        let read_back = after.read_back_bytes - before.read_back_bytes;
        let enc_raw = after.encoded_raw_bytes - before.encoded_raw_bytes;
        let enc_wire = after.encoded_wire_bytes - before.encoded_wire_bytes;
        if trace::is_enabled() {
            trace::counter_add("storage.evictions", after.evictions - before.evictions);
            let unbalanced = after.unbalanced_unpins - before.unbalanced_unpins;
            if unbalanced > 0 {
                // pin-leak signal: unpin of a never-pinned / absent chunk
                trace::instant(
                    trace::Stage::Storage,
                    "unbalanced_unpins",
                    &[("count", unbalanced)],
                );
                trace::counter_add("storage.unbalanced_unpins", unbalanced);
            }
        }
        ExecStats {
            makespan: elapsed,
            subtasks,
            spilled_bytes: spilled as usize,
            read_back_bytes: read_back as usize,
            peak_worker_bytes: after.peak_resident_bytes,
            real_cpu_seconds: busy_seconds,
            encoded_raw_bytes: enc_raw as usize,
            encoded_wire_bytes: enc_wire as usize,
            ..Default::default()
        }
    }
}

/// One worker's handle on the executor's store while it runs a subtask.
pub(crate) struct HostIo<'a> {
    service: &'a StorageService,
    /// Inputs of the node in flight, unpinned when it is done.
    pinned: Vec<ChunkKey>,
}

impl ChunkIo for HostIo<'_> {
    fn load(&mut self, keys: &[ChunkKey]) -> XbResult<Vec<Arc<Payload>>> {
        // pinned until `node_done`, so storing this node's outputs cannot
        // evict (and re-read) a chunk the kernel is consuming
        let loaded = self.service.load(keys).map_err(|e| match e {
            StorageError::Missing(k) => exec::missing_input(k),
            other => other.into(),
        })?;
        self.pinned.extend_from_slice(keys);
        Ok(loaded)
    }

    fn publish(&mut self, key: ChunkKey, payload: Payload) -> XbResult<()> {
        Ok(self.service.put(key, payload)?)
    }

    fn node_done(&mut self) {
        for k in self.pinned.drain(..) {
            self.service.unpin(k);
        }
    }
}

/// What the pool's lock guards, for one `execute` call.
struct PoolState {
    /// Subtasks whose producers have all completed, oldest first.
    ready: VecDeque<usize>,
    /// Producers each subtask still waits for.
    indeg: Vec<usize>,
    /// Subtasks not yet completed; 0 ends the pool.
    remaining: usize,
    /// A worker returned an error or unwound: nobody takes more work.
    failed: bool,
    /// The first error returned.
    error: Option<XbError>,
    /// Summed per-subtask run time across all workers.
    busy_nanos: u64,
}

/// The worker pool of one `execute` call.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when `ready` grows and when the pool ends.
    work: Condvar,
}

/// Fails the pool when its worker unwinds out of a subtask, so the
/// siblings stop instead of waiting for work that will never be pushed.
struct FailOnUnwind<'a>(&'a Pool);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // no subtask runs under the lock, so the panic being reported
            // did not poison it; recover it all the same
            let mut state = self.0.state.lock().unwrap_or_else(|p| p.into_inner());
            state.failed = true;
            drop(state);
            self.0.work.notify_all();
        }
    }
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .expect("no subtask runs under the pool lock")
    }

    fn worker(&self, exec: &ParallelExecutor, graph: &SubtaskGraph, succs: &[Vec<usize>]) {
        let _guard = FailOnUnwind(self);
        let mut state = self.lock();
        while !state.failed && state.remaining > 0 {
            let Some(task) = state.ready.pop_front() else {
                state = self.work.wait(state).expect("as in `lock`");
                continue;
            };
            drop(state);
            let t0 = Instant::now();
            let ran = exec.run_subtask(graph, task);
            let nanos = t0.elapsed().as_nanos() as u64;
            state = self.lock();
            match ran {
                Ok(()) => {
                    state.busy_nanos += nanos;
                    state.remaining -= 1;
                    let queued = state.ready.len();
                    for &s in &succs[task] {
                        state.indeg[s] -= 1;
                        if state.indeg[s] == 0 {
                            state.ready.push_back(s);
                        }
                    }
                    if state.ready.len() > queued || state.remaining == 0 {
                        self.work.notify_all();
                    }
                }
                Err(err) => {
                    state.error.get_or_insert(err);
                    state.failed = true;
                    self.work.notify_all();
                }
            }
        }
    }
}

impl MetaView for ParallelExecutor {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.service.meta(key)
    }
}

impl Executor for ParallelExecutor {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        let start = Instant::now();
        let before = self.service.metrics();
        let n = graph.subtasks.len();
        let busy_seconds = if self.threads <= 1 || n <= 1 {
            // no pool: graph order on this thread
            let start = Instant::now();
            for sti in 0..n {
                self.run_subtask(graph, sti)?;
            }
            start.elapsed().as_secs_f64()
        } else {
            self.execute_pool(graph)? as f64 * 1e-9
        };
        let elapsed = start.elapsed().as_secs_f64();
        Ok(self.exec_stats(elapsed, busy_seconds, n, &before))
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.service.get(key).ok()
    }

    fn clear(&mut self) {
        self.service.clear();
    }

    fn release(&mut self, keys: &[ChunkKey]) {
        // reclaim mid-fetch: drop the chunk from every storage tier
        // (including its spill file) instead of letting released chunks —
        // and their disk footprint — accumulate until the fetch ends
        for k in keys {
            self.service.remove(*k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XorbitsConfig;
    use crate::local::LocalExecutor;
    use crate::session::Session;
    use crate::tileable::DfSource;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;
    use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame};

    fn small_cfg() -> XorbitsConfig {
        XorbitsConfig {
            chunk_limit_bytes: 256,
            tree_reduce_threshold_bytes: 1 << 20,
            broadcast_threshold_bytes: 1 << 20,
            ..Default::default()
        }
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

    fn pipeline_result<E: Executor>(exec: E) -> (DataFrame, DataFrame) {
        let s = Session::new(small_cfg(), exec);
        let df = s.from_df(sample_df(500)).unwrap();
        let agg = df
            .groupby_agg(
                vec!["k".into()],
                vec![
                    AggSpec::new("v", AggFunc::Sum, "s"),
                    AggSpec::new("v", AggFunc::Mean, "m"),
                ],
            )
            .unwrap()
            .fetch()
            .unwrap();
        let agg = xorbits_dataframe::sort::sort_by(&agg, &[("k", true)]).unwrap();
        let filt = df.filter(col("v").lt(lit(50i64))).unwrap().fetch().unwrap();
        (agg, filt)
    }

    #[test]
    fn matches_local_executor_at_every_thread_count() {
        let oracle = pipeline_result(LocalExecutor::new());
        for t in [1usize, 2, 4, 8] {
            let got = pipeline_result(ParallelExecutor::with_threads(t));
            assert_eq!(got, oracle, "threads={t}");
        }
    }

    /// A 16-byte-per-row generator source over `sample_df`'s columns whose
    /// partitions first pass through `probe(start_row)`.
    fn probed_source(rows: usize, probe: impl Fn(usize) + Send + Sync + 'static) -> DfSource {
        DfSource::Generator {
            rows,
            bytes_per_row: 16,
            gen: Arc::new(move |start, len| {
                probe(start);
                Ok(sample_df(start + len).slice(start, len))
            }),
            label: "probed".into(),
        }
    }

    /// A subtask that panics used to kill its worker without telling the
    /// pool: the siblings re-parked forever and `execute` never returned.
    /// The fetch runs on a watched thread because that regression is a
    /// hang, not a red assertion. The panic must come out as it does at
    /// one thread, the session must refuse to go on, and the process must
    /// be none the worse for it.
    #[test]
    fn a_panicking_subtask_unwinds_the_fetch_instead_of_hanging_it() {
        for t in [1usize, 2, 4] {
            let (done_tx, done_rx) = channel();
            let fetcher = std::thread::spawn(move || {
                let faulty = probed_source(4000, |start| {
                    assert!(start != 0, "partition {start} is unreadable");
                });
                let s = Session::new(small_cfg(), ParallelExecutor::with_threads(t));
                let df = s.read_df(faulty).unwrap();
                let fetch = std::panic::AssertUnwindSafe(|| df.fetch().map(drop));
                let first = std::panic::catch_unwind(fetch);
                done_tx.send((first, df.fetch().map(drop))).ok();
            });
            let (first, second) = match done_rx.recv_timeout(Duration::from_secs(20)) {
                Ok(outcome) => outcome,
                Err(RecvTimeoutError::Timeout) => {
                    panic!("threads={t}: a panicking subtask hangs the pool")
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("threads={t}: {:?}", fetcher.join().unwrap_err())
                }
            };
            let panic = first.expect_err("the subtask's panic reaches the caller");
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.contains("partition 0 is unreadable"),
                "threads={t}: {msg}"
            );
            let refused = second.unwrap_err().to_string();
            assert!(
                refused.contains("executor panicked"),
                "threads={t}: {refused}"
            );
            fetcher.join().unwrap();
        }
        // a fresh executor in the same process is unaffected
        let oracle = pipeline_result(LocalExecutor::new());
        assert_eq!(pipeline_result(ParallelExecutor::with_threads(4)), oracle);
    }

    #[test]
    fn error_in_one_subtask_aborts_cleanly() {
        let s = Session::new(small_cfg(), ParallelExecutor::with_threads(4));
        let df = s.from_df(sample_df(100)).unwrap();
        // a column that does not exist fails (at planning or inside kernel
        // execution, depending on how early the schema is checked)
        let failed = match df.filter(col("missing").lt(lit(1i64))) {
            Ok(h) => h.fetch().is_err(),
            Err(_) => true,
        };
        assert!(failed);
        drop(s);
        // the pool drained cleanly (no deadlock, no poisoned locks): a
        // fresh session on a fresh pool executes normally
        let s = Session::new(small_cfg(), ParallelExecutor::with_threads(4));
        let ok = s.from_df(sample_df(10)).unwrap().fetch().unwrap();
        assert_eq!(ok.num_rows(), 10);
    }

    #[test]
    fn spilling_executor_stays_correct_in_parallel() {
        let oracle = {
            let s = Session::new(
                small_cfg(),
                LocalExecutor::with_budget_and_spill(2048).unwrap(),
            );
            let df = s.from_df(sample_df(2000)).unwrap();
            df.fetch().unwrap()
        };
        for t in [2usize, 8] {
            let exec = ParallelExecutor::with_storage_and_threads(
                StorageConfig {
                    memory_budget: Some(2048),
                    spill: SpillConfig::TempDir,
                    ..Default::default()
                },
                t,
            )
            .unwrap();
            let s = Session::new(small_cfg(), exec);
            let df = s.from_df(sample_df(2000)).unwrap();
            assert_eq!(df.fetch().unwrap(), oracle, "threads={t}");
        }
    }

    #[test]
    fn thread_counts_are_clamped_and_default_to_the_host() {
        assert_eq!(ParallelExecutor::with_threads(0).threads(), 1);
        assert_eq!(ParallelExecutor::with_threads(6).threads(), 6);
        assert_eq!(ParallelExecutor::new().threads(), host_threads());
    }
}
