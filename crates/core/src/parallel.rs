//! The host executor: runs subtask graphs for real on this machine, against
//! a [`StorageService`]. With one thread it is the in-order sequential
//! schedule ([`LocalExecutor`](crate::local::LocalExecutor) is exactly that
//! case); with more it runs a graph's independent subtasks concurrently on
//! a work-stealing pool of scoped threads, with results **bit-identical**
//! to the one-thread schedule regardless of thread count or steal order.
//! Either way a subtask is one [`exec::run_subtask`] call.
//!
//! # Topology
//!
//! One global injector queue seeds the initially-ready subtasks; each
//! worker owns a deque. A worker pops its own deque from the back (LIFO —
//! newly-unblocked successors are hot in cache), refills from the injector,
//! and otherwise steals from sibling deques from the front (FIFO — takes
//! the oldest, likely-largest piece of a sibling's backlog). Everything is
//! std `Mutex`/`Condvar`/atomics; no external crates.
//!
//! Readiness is ready-count driven: each subtask's atomic indegree counts
//! its distinct producer subtasks inside the graph, and the worker that
//! completes the last outstanding producer pushes the successor onto its
//! own deque. Parked workers are woken through a signal-counter + condvar
//! pair (with a `wait_timeout` belt-and-braces so a lost race never
//! deadlocks the pool).
//!
//! # Determinism
//!
//! Subtask-level parallelism cannot change results by construction:
//! kernels are pure, every chunk key has exactly one producer, the
//! dependency graph forces producers to complete before consumers read
//! them, and a subtask reads its inputs by *key list order*, never by
//! completion order. Intra-kernel (morsel) parallelism is restricted to
//! the exactly-order-preserving decompositions in `xorbits_dataframe::par`
//! — so floating-point reductions keep their sequential fold order. The
//! only thing schedule order can change is *placement* (which chunks spill
//! first under a budget), never a value. `tests/parallel_equivalence.rs`
//! gates this with all 22 TPC-H queries at 1/2/4/8 threads against the
//! `LocalExecutor` oracle.
//!
//! With `threads == 1` (or a one-subtask range) the executor skips the
//! pool entirely and runs subtasks in graph order on the calling thread —
//! no queues, no parking, no atomics on the hot path. That schedule is the
//! bit-identity reference every other executor is compared against.

use crate::chunk::{payload_to_value, value_to_payload, ChunkKey, ChunkMeta, Payload};
use crate::config::{retile_from_env, threads_from_env};
use crate::error::{XbError, XbResult};
use crate::exec::{self, ChunkIo};
use crate::retile::{RetileMode, RetileRun};
use crate::session::{ExecStats, Executor};
use crate::subtask::SubtaskGraph;
use crate::tiling::MetaView;
use crate::trace;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xorbits_storage::{SpillConfig, StorageConfig, StorageMetrics, StorageService, Workspaces};

/// Host executor over a thread-safe [`StorageService`] — unbounded,
/// budgeted (over budget = OOM) or budgeted with a disk tier that spills
/// cold chunks and reads them back transparently.
pub struct ParallelExecutor {
    service: StorageService,
    metas: Mutex<HashMap<ChunkKey, ChunkMeta>>,
    threads: usize,
    /// One reusable encode/decode workspace per pool worker (index =
    /// worker id; the sequential fast path uses slot 0). Persisted across
    /// `execute` calls so steady-state spill and read-back run through
    /// warm chunkfmt-v2 buffers instead of allocating per chunk.
    worker_ws: Vec<Mutex<Workspaces>>,
    /// Mid-run skew-aware re-tiling; `None` defers to `XORBITS_RETILE`.
    retile: Option<RetileMode>,
}

impl Default for ParallelExecutor {
    fn default() -> ParallelExecutor {
        ParallelExecutor::new()
    }
}

impl ParallelExecutor {
    /// Unbounded executor with [`threads_from_env`] workers.
    pub fn new() -> ParallelExecutor {
        ParallelExecutor::with_threads(threads_from_env())
    }

    /// Unbounded executor with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize) -> ParallelExecutor {
        ParallelExecutor::build(StorageService::unbounded(), threads)
    }

    /// Budgeted executor with **no** disk tier (over budget = OOM), with
    /// [`threads_from_env`] workers.
    pub fn with_budget(bytes: usize) -> ParallelExecutor {
        ParallelExecutor::with_storage(StorageConfig {
            memory_budget: Some(bytes),
            spill: SpillConfig::Disabled,
            ..Default::default()
        })
        .expect("no io in a memory-only config")
    }

    /// Budgeted executor with a temp-dir disk tier, with
    /// [`threads_from_env`] workers.
    pub fn with_budget_and_spill(bytes: usize) -> XbResult<ParallelExecutor> {
        ParallelExecutor::with_storage(StorageConfig {
            memory_budget: Some(bytes),
            spill: SpillConfig::TempDir,
            ..Default::default()
        })
    }

    /// Executor over an arbitrary storage configuration, with
    /// [`threads_from_env`] workers.
    pub fn with_storage(config: StorageConfig) -> XbResult<ParallelExecutor> {
        ParallelExecutor::with_storage_and_threads(config, threads_from_env())
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
        let threads = threads.max(1);
        ParallelExecutor {
            service,
            metas: Mutex::new(HashMap::new()),
            threads,
            worker_ws: (0..threads)
                .map(|_| Mutex::new(Workspaces::default()))
                .collect(),
            retile: None,
        }
    }

    /// Forces the re-tiling mode instead of reading `XORBITS_RETILE`.
    pub fn with_retile(mut self, mode: RetileMode) -> ParallelExecutor {
        self.retile = Some(mode);
        self
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

    /// This executor as one worker's chunk source and sink; `ws` is the
    /// worker's own encode/decode scratch, so spill and read-back on its
    /// chunks reuse warmed buffers.
    pub(crate) fn io<'a>(&'a self, ws: &'a mut Workspaces) -> HostIo<'a> {
        HostIo {
            exec: self,
            ws,
            pinned: Vec::new(),
        }
    }

    /// Runs one subtask, shared by the sequential path and every pool
    /// worker.
    fn run_subtask(&self, graph: &SubtaskGraph, sti: usize, ws: &mut Workspaces) -> XbResult<()> {
        let _st_span = if trace::is_enabled() {
            trace::span_on(
                trace::Stage::Execute,
                graph.subtask_label(sti),
                trace::Track::LOCAL,
            )
        } else {
            trace::SpanGuard::disabled()
        };
        exec::run_subtask(graph, sti, &mut self.io(ws)).map(drop)
    }

    /// Dispatches subtasks `lo..hi` over the worker pool (producers below
    /// `lo` have already published to storage). Returns the summed
    /// per-subtask busy nanoseconds.
    fn execute_pool(&self, graph: &SubtaskGraph, lo: usize, hi: usize) -> XbResult<u64> {
        let n = hi - lo;
        // producer subtask of every chunk key published inside the range
        let mut producer_of: HashMap<ChunkKey, usize> = HashMap::new();
        for (i, st) in graph.subtasks[lo..hi].iter().enumerate() {
            for &k in &st.published_outputs {
                producer_of.insert(k, lo + i);
            }
        }
        // indegree = distinct in-range producers; successor adjacency
        // (indexed by absolute subtask id)
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); graph.subtasks.len()];
        let mut indeg: Vec<AtomicUsize> = (0..graph.subtasks.len())
            .map(|_| AtomicUsize::new(0))
            .collect();
        let mut initially_ready: Vec<usize> = Vec::new();
        #[allow(clippy::needless_range_loop)] // `indeg`/`succs` are full-graph, the range is not
        for i in lo..hi {
            let st = &graph.subtasks[i];
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
            indeg[i] = AtomicUsize::new(deps.len());
            if deps.is_empty() {
                initially_ready.push(i);
            }
        }

        let workers = self.threads.min(n.max(1));
        let pool = Pool {
            injector: Mutex::new(initially_ready.into_iter().collect()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Mutex::new(0),
            parked: Condvar::new(),
            remaining: AtomicUsize::new(n),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            busy_nanos: AtomicU64::new(0),
        };
        let handle = trace::handle();
        let (succs, indeg) = (&succs, &indeg);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let pool = &pool;
                let handle = handle.clone();
                scope.spawn(move || {
                    let _kernel_threads =
                        xorbits_dataframe::par::scoped_kernel_threads(self.threads);
                    if let Some(h) = &handle {
                        trace::adopt(h);
                    }
                    pool.worker(w, self, graph, succs, indeg);
                });
            }
        });
        match pool.error.into_inner().unwrap() {
            Some(err) => Err(err),
            None => Ok(pool.busy_nanos.into_inner()),
        }
    }

    /// Runs subtasks `lo..hi`, through the pool when it pays off.
    fn execute_range(&self, graph: &SubtaskGraph, lo: usize, hi: usize) -> XbResult<f64> {
        if hi <= lo {
            return Ok(0.0);
        }
        if self.threads <= 1 || hi - lo <= 1 {
            // sequential fast path: graph order on this thread, no pool
            let start = Instant::now();
            let mut ws = self.worker_ws[0].lock().unwrap();
            for sti in lo..hi {
                self.run_subtask(graph, sti, &mut ws)?;
            }
            Ok(start.elapsed().as_secs_f64())
        } else {
            Ok(self.execute_pool(graph, lo, hi)? as f64 * 1e-9)
        }
    }

    /// Staged execution with mid-run re-tiling: run up to each shuffle
    /// wave head (a quiesce point — every partition's size is harvested in
    /// `self.metas`), splice the pending tail if the histogram is skewed,
    /// continue. Returns (busy seconds, subtasks run, partitions retiled).
    fn execute_retiled(&self, graph: &SubtaskGraph) -> XbResult<(f64, usize, usize)> {
        let mut g = graph.clone();
        let mut retile = RetileRun::for_graph(&g.chunks);
        let mut busy = 0.0f64;
        let mut retiled = 0usize;
        let mut start = 0usize;
        while start < g.subtasks.len() {
            let cut = retile.next_wave_head(&g, start).unwrap_or(g.subtasks.len());
            busy += self.execute_range(&g, start, cut)?;
            start = cut;
            if start >= g.subtasks.len() {
                break;
            }
            let info = |k: ChunkKey| {
                self.metas
                    .lock()
                    .unwrap()
                    .get(&k)
                    .map(|m| (m.nbytes as u64, m.rows as u64))
            };
            let peek = |k: ChunkKey| self.payload(k);
            if let Some(out) = retile.maybe_retile(&mut g, start, &info, &peek) {
                retiled += out.retiled_partitions;
                if trace::is_enabled() {
                    trace::instant(
                        trace::Stage::Retile,
                        "retile",
                        &[
                            ("partitions", out.partitions as u64),
                            ("splits", out.splits as u64),
                            ("coalesces", out.coalesces as u64),
                        ],
                    );
                }
            }
        }
        Ok((busy, g.subtasks.len(), retiled))
    }

    fn exec_stats(
        &self,
        elapsed: f64,
        busy_seconds: f64,
        subtasks: usize,
        retiled: usize,
        before: &StorageMetrics,
    ) -> ExecStats {
        let after = self.service.metrics();
        let spilled = after.spilled_bytes - before.spilled_bytes;
        let read_back = after.read_back_bytes - before.read_back_bytes;
        let enc_raw = after.encoded_raw_bytes - before.encoded_raw_bytes;
        let enc_wire = after.encoded_wire_bytes - before.encoded_wire_bytes;
        if trace::is_enabled() {
            trace::counter_add("storage.evictions", after.evictions - before.evictions);
            trace::counter_add("storage.spilled_bytes", spilled);
            trace::counter_add("storage.read_back_bytes", read_back);
            trace::counter_add("storage.encoded_raw_bytes", enc_raw);
            trace::counter_add("storage.encoded_wire_bytes", enc_wire);
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
            retiled_partitions: retiled,
            ..Default::default()
        }
    }
}

/// One worker's handle on a [`ParallelExecutor`] while it runs a subtask.
pub(crate) struct HostIo<'a> {
    exec: &'a ParallelExecutor,
    ws: &'a mut Workspaces,
    /// Inputs of the node in flight, unpinned when it is done.
    pinned: Vec<ChunkKey>,
}

impl ChunkIo for HostIo<'_> {
    fn load(&mut self, keys: &[ChunkKey]) -> XbResult<Vec<Arc<Payload>>> {
        let service = &self.exec.service;
        // pin every stored input before reading the first, so neither a
        // read-back nor storing this node's outputs can evict (and
        // re-read) a chunk the kernel is consuming
        self.pinned
            .extend(keys.iter().filter(|&&k| service.pin(k).is_ok()));
        keys.iter()
            .map(|&k| {
                if !service.contains(k) {
                    return Err(exec::missing_input(k));
                }
                let v = service.get_with(k, self.ws)?;
                Ok(Arc::new(value_to_payload(&v)))
            })
            .collect()
    }

    fn publish(&mut self, key: ChunkKey, payload: Payload) -> XbResult<()> {
        let meta = ChunkMeta {
            nbytes: payload.nbytes(),
            rows: payload.rows(),
        };
        self.exec
            .service
            .put_with(key, payload_to_value(&payload), self.ws)?;
        self.exec.metas.lock().unwrap().insert(key, meta);
        Ok(())
    }

    fn node_done(&mut self) {
        for k in self.pinned.drain(..) {
            self.exec.service.unpin(k);
        }
    }
}

/// Shared pool state for one `execute` call.
struct Pool {
    /// Global injector seeded with the initially-ready subtasks.
    injector: Mutex<VecDeque<usize>>,
    /// One deque per worker: owner pops the back, thieves pop the front.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Bumped on every push so parked workers can detect missed work.
    signal: Mutex<u64>,
    parked: Condvar,
    /// Subtasks not yet completed; 0 terminates the pool.
    remaining: AtomicUsize,
    /// Set on the first error; drains the pool without running more work.
    abort: AtomicBool,
    error: Mutex<Option<XbError>>,
    /// Summed per-subtask kernel time across all workers.
    busy_nanos: AtomicU64,
}

impl Pool {
    fn push(&self, worker: usize, task: usize) {
        self.deques[worker].lock().unwrap().push_back(task);
        *self.signal.lock().unwrap() += 1;
        self.parked.notify_all();
    }

    fn wake_all(&self) {
        *self.signal.lock().unwrap() += 1;
        self.parked.notify_all();
    }

    /// Own deque back → injector front → steal sibling fronts.
    fn find_task(&self, worker: usize) -> Option<usize> {
        if let Some(t) = self.deques[worker].lock().unwrap().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            return Some(t);
        }
        let k = self.deques.len();
        for off in 1..k {
            let victim = (worker + off) % k;
            if let Some(t) = self.deques[victim].lock().unwrap().pop_front() {
                return Some(t);
            }
        }
        None
    }

    fn worker(
        &self,
        w: usize,
        exec: &ParallelExecutor,
        graph: &SubtaskGraph,
        succs: &[Vec<usize>],
        indeg: &[AtomicUsize],
    ) {
        // this worker's persistent encode/decode scratch (one lock for the
        // whole run: worker w is the slot's only contender)
        let mut ws = exec.worker_ws[w].lock().unwrap();
        let mut seen = *self.signal.lock().unwrap();
        while self.remaining.load(Ordering::Acquire) > 0 && !self.abort.load(Ordering::Acquire) {
            let Some(task) = self.find_task(w) else {
                // park until a push bumps the signal counter; the timeout is
                // a belt-and-braces against a wakeup lost between our failed
                // scan and the lock (re-scan loop catches it via `seen`)
                let guard = self.signal.lock().unwrap();
                if *guard != seen {
                    seen = *guard;
                    continue;
                }
                let (guard, _) = self
                    .parked
                    .wait_timeout(guard, Duration::from_millis(10))
                    .unwrap();
                seen = *guard;
                continue;
            };
            let t0 = Instant::now();
            match exec.run_subtask(graph, task, &mut ws) {
                Ok(()) => {
                    self.busy_nanos
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    for &s in &succs[task] {
                        if indeg[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                            self.push(w, s);
                        }
                    }
                    if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.wake_all(); // last subtask: release parked workers
                    }
                }
                Err(err) => {
                    let mut slot = self.error.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(err);
                    }
                    drop(slot);
                    self.abort.store(true, Ordering::Release);
                    self.wake_all();
                    return;
                }
            }
        }
    }
}

impl MetaView for ParallelExecutor {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.metas.lock().unwrap().get(&key).copied()
    }
}

impl Executor for ParallelExecutor {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        // morsel kernels share the worker budget (one knob, see par docs),
        // for this run only
        let _kernel_threads = xorbits_dataframe::par::scoped_kernel_threads(self.threads);
        let start = Instant::now();
        let before = self.service.metrics();
        let mode = self.retile.unwrap_or_else(retile_from_env);
        let (busy_seconds, subtasks, retiled) = if mode == RetileMode::Auto {
            self.execute_retiled(graph)?
        } else {
            let n = graph.subtasks.len();
            (self.execute_range(graph, 0, n)?, n, 0)
        };
        let elapsed = start.elapsed().as_secs_f64();
        Ok(self.exec_stats(elapsed, busy_seconds, subtasks, retiled, &before))
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        let v = self.service.get(key).ok()?;
        Some(Arc::new(value_to_payload(&v)))
    }

    fn clear(&mut self) {
        self.service.clear();
        self.metas.lock().unwrap().clear();
    }

    fn release(&mut self, keys: &[ChunkKey]) {
        // reclaim mid-fetch: drop the chunk from every storage tier
        // (including its spill file) instead of letting released chunks —
        // and their disk footprint — accumulate until the fetch ends
        let mut metas = self.metas.lock().unwrap();
        for k in keys {
            self.service.remove(*k);
            metas.remove(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XorbitsConfig;
    use crate::local::LocalExecutor;
    use crate::session::Session;
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

    #[test]
    fn kernel_thread_budget_ends_with_execute() {
        // regression: `execute` used to leave its thread count in the
        // process-wide kernel knob, so every later executor in the process
        // ran its kernels that wide
        let oracle = pipeline_result(LocalExecutor::new());
        assert_eq!(pipeline_result(ParallelExecutor::with_threads(4)), oracle);
        assert_eq!(xorbits_dataframe::par::kernel_threads(), 1);
        assert_eq!(pipeline_result(LocalExecutor::new()), oracle);
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
    fn threads_env_knob_parses() {
        // no env manipulation (tests run in parallel); exercise the parse
        // contract through with_threads clamping instead
        assert_eq!(ParallelExecutor::with_threads(0).threads(), 1);
        assert_eq!(ParallelExecutor::with_threads(6).threads(), 6);
        assert!(threads_from_env() >= 1);
    }
}
