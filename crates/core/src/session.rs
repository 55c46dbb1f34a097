//! Session: the user-facing deferred-evaluation API (§IV-C) and the
//! tiling↔execution loop of Fig 5a.
//!
//! Users build lazy [`DfHandle`]/[`TensorHandle`] graphs with pandas/NumPy
//! style methods; nothing executes until a result is needed. `fetch()` (or
//! simply `Display`-ing a handle, mirroring the paper's `__repr__` hook)
//! drives the loop: prune → tile (possibly yielding into execution for
//! metadata) → optimize → execute → gather.

use crate::chunk::{ArrStep, ChunkGraph, ChunkKey, DfStep, KeyGen, Payload, PayloadKind};
use crate::config::XorbitsConfig;
use crate::error::{XbError, XbResult};
use crate::optimizer;
use crate::subtask::SubtaskGraph;
use crate::tileable::{DfSource, TileableGraph, TileableId, TileableOp};
use crate::tiling::{MetaView, TileStep, Tiler, TilingStats};
use crate::trace;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use xorbits_array::{NdArray, Reduction};
use xorbits_dataframe::{AggSpec, DataFrame, Expr, JoinType, Scalar};

/// Aggregate statistics of one or more executed subtask graphs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Virtual makespan in seconds (the number benchmarks report).
    pub makespan: f64,
    /// Subtasks executed.
    pub subtasks: usize,
    /// Bytes moved across virtual workers.
    pub net_bytes: usize,
    /// Bytes spilled to the disk tier (encoded envelope bytes for real
    /// executors; reconciled encoded sizes for the simulator).
    pub spilled_bytes: usize,
    /// Bytes read back from the disk tier.
    pub read_back_bytes: usize,
    /// Peak live bytes on the most loaded worker.
    pub peak_worker_bytes: usize,
    /// Real CPU seconds spent in kernels (host measurement).
    pub real_cpu_seconds: f64,
    /// Subtask attempts that failed transiently and were retried
    /// (fault-injection runs; always 0 without a fault plan).
    pub retries: usize,
    /// Chunk operators re-executed through lineage recovery after a
    /// crash or chunk-loss event destroyed their outputs.
    pub recomputed_subtasks: usize,
    /// Bytes of lost chunks that were recovered from the disk tier
    /// (spilled copies survive a worker crash) instead of recomputed.
    pub recovered_from_spill_bytes: usize,
    /// Plain (version-1) envelope bytes of every chunk that went through
    /// the encoder — the *raw* side of the transport compression ratio.
    /// A chunk goes through the encoder when it is transferred or spilled
    /// (once, however many workers then receive it): both counters are 0
    /// for a run that moved nothing.
    pub encoded_raw_bytes: usize,
    /// Bytes actually written under the chosen per-column encodings
    /// (chunkfmt v2). `encoded_raw_bytes / encoded_wire_bytes` is the
    /// transport compression ratio over the bytes that moved.
    pub encoded_wire_bytes: usize,
    /// Hot shuffle partitions split by mid-run skew-aware re-tiling
    /// (`RetileMode::Auto`; always 0 when off).
    pub retiled_partitions: usize,
}

impl ExecStats {
    /// Accumulates another run (sequential composition: makespans add).
    pub fn merge(&mut self, other: &ExecStats) {
        self.makespan += other.makespan;
        self.subtasks += other.subtasks;
        self.net_bytes += other.net_bytes;
        self.spilled_bytes += other.spilled_bytes;
        self.read_back_bytes += other.read_back_bytes;
        self.peak_worker_bytes = self.peak_worker_bytes.max(other.peak_worker_bytes);
        self.real_cpu_seconds += other.real_cpu_seconds;
        self.retries += other.retries;
        self.recomputed_subtasks += other.recomputed_subtasks;
        self.recovered_from_spill_bytes += other.recovered_from_spill_bytes;
        self.encoded_raw_bytes += other.encoded_raw_bytes;
        self.encoded_wire_bytes += other.encoded_wire_bytes;
        self.retiled_partitions += other.retiled_partitions;
    }
}

/// Report of one `fetch`.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Execution statistics summed over all partial executions.
    pub stats: ExecStats,
    /// Tiling statistics (yields, probes, decisions).
    pub tiling: TilingStats,
    /// True when the fetch was answered from the session's result cache
    /// without executing anything (stats are then all zero).
    pub cache_hit: bool,
}

/// A pluggable result cache consulted by the fetch path. Keys are canonical
/// structural hashes of the fetched sub-DAG and `sources` the lineage
/// fingerprints the entry depends on (both from
/// [`crate::tileable::cache_key`]), so an implementation can invalidate
/// every dependent entry when an upstream source changes or is lost. The
/// cache assumes all sessions that share it run one fixed
/// [`XorbitsConfig`]: the key hashes the logical plan, not the tiling
/// configuration.
pub trait ResultCache: Send {
    /// Returns the cached payloads for `key`, or `None` on miss (including
    /// entries whose residency was evicted or lineage invalidated).
    fn lookup(&mut self, key: u64) -> Option<Vec<Arc<Payload>>>;
    /// Offers a freshly computed result for caching.
    fn insert(&mut self, key: u64, sources: &[u64], payloads: &[Arc<Payload>]);
}

/// A runtime capable of executing subtask graphs — implemented by the
/// virtual-cluster simulator in `xorbits-runtime`, and by anything else
/// that wants to plug in (tests use a trivial in-process executor).
pub trait Executor: MetaView {
    /// Executes a subtask graph; chunk outputs become readable via
    /// [`MetaView`] and [`Executor::payload`].
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats>;
    /// Payload of an executed chunk.
    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>>;
    /// Drops all stored chunks (end of a fetch).
    fn clear(&mut self);
    /// Informs the runtime that these chunks have no remaining consumers
    /// and their memory can be reclaimed (refcount-style lifecycle; the
    /// tiler derives this from tileable consumer counts). Default: no-op.
    fn release(&mut self, _keys: &[ChunkKey]) {}
}

/// What a fetch runs on: locked for the whole prune → tile → execute →
/// gather loop, never while the graph is being built.
struct RunState<E: Executor> {
    executor: E,
    keygen: KeyGen,
    last_report: Option<RunReport>,
    cumulative: ExecStats,
    cache: Option<Arc<Mutex<dyn ResultCache>>>,
}

/// Fuses and executes one chunk-graph fragment, keeping `protected` keys
/// published, then releases the chunks whose last consumers ran.
fn run_fragment<E: Executor>(
    executor: &mut E,
    cfg: &XorbitsConfig,
    g: ChunkGraph,
    protected: &HashSet<ChunkKey>,
    tiler: &mut Tiler,
) -> XbResult<ExecStats> {
    let sg = trace::timed(trace::Stage::Build, "build_subtasks", || {
        optimizer::build_subtask_graph(g, cfg, protected)
    })?;
    let stats = trace::timed(trace::Stage::Execute, "execute", || executor.execute(&sg))?;
    executor.release(&tiler.take_releasable());
    Ok(stats)
}

/// The shared result cache, or a typed error when a panic elsewhere (another
/// session's fetch, the cache itself) poisoned it.
fn lock_cache(
    cache: &Arc<Mutex<dyn ResultCache>>,
) -> XbResult<MutexGuard<'_, dyn ResultCache + 'static>> {
    cache
        .lock()
        .map_err(|_| XbError::Plan("the result cache was poisoned by a panic".into()))
}

struct SessInner<E: Executor> {
    cfg: XorbitsConfig,
    /// Locked only to push a node or to extract a fetch's closure, so
    /// handles keep building on other threads while a fetch executes.
    graph: Mutex<TileableGraph>,
    run: Mutex<RunState<E>>,
}

/// A Xorbits session: owns the tileable graph, the configuration and the
/// executor. Cheap to clone (shared interior).
pub struct Session<E: Executor> {
    inner: Arc<SessInner<E>>,
}

impl<E: Executor> Clone for Session<E> {
    fn clone(&self) -> Self {
        Session {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<E: Executor> Session<E> {
    /// Creates a session — the `xorbits.init()` of Listing 2.
    pub fn new(cfg: XorbitsConfig, executor: E) -> Session<E> {
        Session::with_key_base(cfg, executor, 1)
    }

    /// Creates a session whose chunk keys start at `key_base`. Concurrent
    /// sessions sharing one executor (the serving runtime) use disjoint
    /// bases so their chunks never collide in the executor's namespace.
    pub fn with_key_base(cfg: XorbitsConfig, executor: E, key_base: ChunkKey) -> Session<E> {
        Session {
            inner: Arc::new(SessInner {
                cfg,
                graph: Mutex::new(TileableGraph::new()),
                run: Mutex::new(RunState {
                    executor,
                    keygen: KeyGen::starting_at(key_base),
                    last_report: None,
                    cumulative: ExecStats::default(),
                    cache: None,
                }),
            }),
        }
    }

    /// The graph lock. Poison-tolerant: every update is a single validated
    /// `Vec::push`, so the graph is well-formed at every step and a panic
    /// elsewhere must not stop handles from building.
    fn graph(&self) -> MutexGuard<'_, TileableGraph> {
        self.inner
            .graph
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The run state, for everything but fetching. Poison-tolerant: the
    /// report, the totals and the cache slot are written only after a fetch
    /// succeeded, so they are whole even when an executor panicked
    /// mid-fetch. The executor itself may be torn, which is why
    /// [`Self::fetch_payloads`] takes the lock the strict way.
    fn run(&self) -> MutexGuard<'_, RunState<E>> {
        self.inner
            .run
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches a result cache consulted (and filled) by every fetch.
    pub fn set_result_cache(&self, cache: Arc<Mutex<dyn ResultCache>>) {
        self.run().cache = Some(cache);
    }

    /// Adds `op` over `inputs` to the graph and hands back a handle to the
    /// new tileable — how every builder method below describes its operator.
    fn derive<H: Handle<E>>(&self, op: TileableOp, inputs: Vec<TileableId>) -> XbResult<H> {
        let id = self.graph().push(op, inputs)?;
        Ok(H::new(self.clone(), id))
    }

    /// Runs `f` against the session's executor (e.g. to read executor-side
    /// metrics like storage accounting in tests and benches).
    pub fn with_executor<R>(&self, f: impl FnOnce(&E) -> R) -> R {
        f(&self.run().executor)
    }

    /// Registers a dataframe source — `xorbits.pandas.read_*`.
    pub fn read_df(&self, src: DfSource) -> XbResult<DfHandle<E>> {
        self.derive(TileableOp::DfSource(src), vec![])
    }

    /// Wraps a client-side dataframe.
    pub fn from_df(&self, df: DataFrame) -> XbResult<DfHandle<E>> {
        self.read_df(DfSource::materialized(df))
    }

    /// `xorbits.numpy.random.rand(shape)` (seeded).
    pub fn random(&self, shape: &[usize], seed: u64) -> XbResult<TensorHandle<E>> {
        self.random_tensor(shape, seed, false)
    }

    /// `xorbits.numpy.random.randn(shape)` (seeded).
    pub fn randn(&self, shape: &[usize], seed: u64) -> XbResult<TensorHandle<E>> {
        self.random_tensor(shape, seed, true)
    }

    fn random_tensor(&self, shape: &[usize], seed: u64, normal: bool) -> XbResult<TensorHandle<E>> {
        let random = TileableOp::TensorRandom {
            shape: shape.to_vec(),
            seed,
            normal,
        };
        self.derive(random, vec![])
    }

    /// Wraps a client-side array (single chunk).
    pub fn tensor(&self, arr: NdArray) -> XbResult<TensorHandle<E>> {
        self.derive(TileableOp::TensorFromArr(Arc::new(arr)), vec![])
    }

    /// Report of the most recent fetch.
    pub fn last_report(&self) -> Option<RunReport> {
        self.run().last_report.clone()
    }

    /// Statistics accumulated over every fetch of this session (multi-phase
    /// queries that fetch an intermediate scalar pay for both phases, as
    /// real lazy engines do).
    pub fn total_stats(&self) -> ExecStats {
        self.run().cumulative
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&self) {
        self.run().cumulative = ExecStats::default();
    }

    /// The Fig 5a loop over the target's ancestor closure: extract → prune
    /// → tile (yielding into execution as needed) → optimize → execute →
    /// gather payloads of the target's chunks. Everything after the
    /// extraction works on the owned closure, whose unique sink is the
    /// target, so a fetch costs what its target touches — not what the
    /// session has built — and keeps every column of the target whatever
    /// was built on top of it.
    fn fetch_payloads(&self, id: TileableId) -> XbResult<Vec<Arc<Payload>>> {
        let cfg = &self.inner.cfg;
        let (closure, graph_nodes) = trace::timed(trace::Stage::Prune, "closure", || {
            let graph = self.graph();
            (graph.closure(id), graph.len())
        });
        if trace::is_enabled() {
            let (closure_nodes, graph_nodes) = (closure.len() as u64, graph_nodes as u64);
            let args = [
                ("closure_nodes", closure_nodes),
                ("graph_nodes", graph_nodes),
            ];
            trace::instant(trace::Stage::Prune, "closure", &args);
            trace::counter_add("session.closure_nodes", closure_nodes);
            trace::counter_add("session.graph_nodes", graph_nodes);
        }
        let mut run = self.inner.run.lock().map_err(|_| {
            XbError::Plan(
                "an executor panicked inside an earlier fetch of this session; \
                 create a new session"
                    .into(),
            )
        })?;
        let run = &mut *run;

        // result cache: key the fetch by the canonical structural hash of
        // the (unpruned) closure — pruning is a deterministic rewrite, so
        // hashing the logical plan keys the same result
        let cached = run
            .cache
            .clone()
            .map(|cache| (cache, crate::tileable::cache_key(&closure)));
        if let Some((cache, (key, _))) = &cached {
            if let Some(payloads) = lock_cache(cache)?.lookup(*key) {
                if trace::is_enabled() {
                    trace::instant(trace::Stage::Gather, "result_cache_hit", &[]);
                }
                run.last_report = Some(RunReport {
                    cache_hit: true,
                    ..Default::default()
                });
                return Ok(payloads);
            }
        }

        // column pruning rewrites the logical plan (§V-A)
        let pgraph = if cfg.column_pruning {
            trace::timed(trace::Stage::Prune, "prune_columns", || {
                optimizer::pruning::prune_columns(closure)
            })
        } else {
            closure
        };
        let target = pgraph.len() - 1;

        let mut tiler = Tiler::new(&pgraph, cfg.clone(), &mut run.keygen);
        let mut stats = ExecStats::default();
        let final_keys = loop {
            let step = trace::timed(trace::Stage::Tile, "tile_step", || {
                tiler.step(&run.executor)
            })?;
            match step {
                TileStep::Execute(g) => {
                    // every layout key may be consumed by later tiling:
                    // protected keys are published, never subtask-internal
                    let protected = tiler.live_keys();
                    let ran = run_fragment(&mut run.executor, cfg, g, &protected, &mut tiler)?;
                    stats.merge(&ran);
                }
                TileStep::Done(g) => {
                    let final_keys = tiler.layout(target)?.keys();
                    if !g.is_empty() {
                        // after the final fragment only the gathered result
                        // must survive; everything else is reclaimable as
                        // its last consumer finishes — unless the engine is
                        // eager, in which case every intermediate stays
                        // referenced until the query completes
                        let protected: HashSet<ChunkKey> = if cfg.eager_memory {
                            g.nodes
                                .iter()
                                .flat_map(|n| n.outputs.iter().copied())
                                .chain(final_keys.iter().copied())
                                .collect()
                        } else {
                            final_keys.iter().copied().collect()
                        };
                        let ran = run_fragment(&mut run.executor, cfg, g, &protected, &mut tiler)?;
                        stats.merge(&ran);
                    }
                    break final_keys;
                }
            }
        };

        let payloads = trace::timed(trace::Stage::Gather, "gather", || {
            final_keys
                .iter()
                .map(|k| {
                    run.executor.payload(*k).ok_or_else(|| {
                        XbError::Plan(format!("result chunk {k} missing from storage"))
                    })
                })
                .collect::<XbResult<Vec<_>>>()
        })?;
        if trace::is_enabled() {
            trace::counter_add("tiling.yields", tiler.stats.yields as u64);
            trace::counter_add("tiling.probes", tiler.stats.probes as u64);
            for d in &tiler.stats.decisions {
                trace::instant(trace::Stage::Tile, format!("decision: {d}"), &[]);
            }
            trace::record_exec_stats(&stats);
        }
        run.cumulative.merge(&stats);
        run.last_report = Some(RunReport {
            stats,
            tiling: tiler.stats.clone(),
            cache_hit: false,
        });
        if let Some((cache, (key, sources))) = &cached {
            lock_cache(cache)?.insert(*key, sources, &payloads);
        }
        run.executor.clear();
        Ok(payloads)
    }
}

/// A lazy distributed dataframe — the `xorbits.pandas.DataFrame` analogue.
pub struct DfHandle<E: Executor> {
    sess: Session<E>,
    id: TileableId,
}

impl<E: Executor> Clone for DfHandle<E> {
    fn clone(&self) -> Self {
        DfHandle {
            sess: self.sess.clone(),
            id: self.id,
        }
    }
}

/// A lazy handle: a session and the tileable it names.
trait Handle<E: Executor> {
    fn new(sess: Session<E>, id: TileableId) -> Self;
}

impl<E: Executor> Handle<E> for DfHandle<E> {
    fn new(sess: Session<E>, id: TileableId) -> Self {
        DfHandle { sess, id }
    }
}

impl<E: Executor> DfHandle<E> {
    /// Tileable id (for inspection/tests).
    pub fn id(&self) -> TileableId {
        self.id
    }

    /// One elementwise step over this frame.
    fn step(&self, step: DfStep) -> XbResult<DfHandle<E>> {
        self.sess.derive(TileableOp::DfMap(step), vec![self.id])
    }

    /// `df[mask]` — boolean filtering.
    pub fn filter(&self, predicate: Expr) -> XbResult<DfHandle<E>> {
        self.step(DfStep::Filter(predicate))
    }

    /// `df[[cols]]` — projection.
    pub fn select(&self, columns: Vec<String>) -> XbResult<DfHandle<E>> {
        self.step(DfStep::Project(columns))
    }

    /// `df.assign(...)` — derived columns.
    pub fn assign(&self, exprs: Vec<(String, Expr)>) -> XbResult<DfHandle<E>> {
        self.step(DfStep::Assign(exprs))
    }

    /// `df[col].fillna(value)`.
    pub fn fillna(&self, column: String, value: Scalar) -> XbResult<DfHandle<E>> {
        self.step(DfStep::Fillna(column, value))
    }

    /// `df.dropna(subset=...)`.
    pub fn dropna(&self, subset: Option<Vec<String>>) -> XbResult<DfHandle<E>> {
        self.step(DfStep::Dropna(subset))
    }

    /// `df.rename(columns=...)`.
    pub fn rename(&self, pairs: Vec<(String, String)>) -> XbResult<DfHandle<E>> {
        self.step(DfStep::Rename(pairs))
    }

    /// `df.groupby(keys).agg(...)` (empty keys ⇒ whole-frame agg).
    pub fn groupby_agg(&self, keys: Vec<String>, specs: Vec<AggSpec>) -> XbResult<DfHandle<E>> {
        self.sess
            .derive(TileableOp::GroupbyAgg { keys, specs }, vec![self.id])
    }

    /// `df.sort_values(keys)`.
    pub fn sort_values(&self, keys: Vec<(String, bool)>) -> XbResult<DfHandle<E>> {
        self.sess
            .derive(TileableOp::SortValues { keys }, vec![self.id])
    }

    /// `df.head(n)`.
    pub fn head(&self, n: usize) -> XbResult<DfHandle<E>> {
        self.sess.derive(TileableOp::Head { n }, vec![self.id])
    }

    /// `df.iloc[row]` (kept as a 1-row frame).
    pub fn iloc_row(&self, row: usize) -> XbResult<DfHandle<E>> {
        self.sess.derive(TileableOp::ILocRow { row }, vec![self.id])
    }

    /// `df.drop_duplicates(subset=...)`.
    pub fn drop_duplicates(&self, subset: Option<Vec<String>>) -> XbResult<DfHandle<E>> {
        self.sess
            .derive(TileableOp::DropDuplicates { subset }, vec![self.id])
    }

    /// `df[col].value_counts()` — distinct values of `column` with their
    /// occurrence counts, sorted descending (sugar over groupby + sort).
    pub fn value_counts(&self, column: &str) -> XbResult<DfHandle<E>> {
        self.groupby_agg(
            vec![column.to_string()],
            vec![AggSpec::new(
                column,
                xorbits_dataframe::AggFunc::Count,
                "count",
            )],
        )?
        .sort_values(vec![("count".into(), false)])
    }

    /// `df.merge(other, ...)`.
    pub fn merge(
        &self,
        other: &DfHandle<E>,
        left_on: Vec<String>,
        right_on: Vec<String>,
        how: JoinType,
    ) -> XbResult<DfHandle<E>> {
        let merge = TileableOp::Merge {
            left_on,
            right_on,
            how,
            suffixes: ("_x".into(), "_y".into()),
        };
        self.sess.derive(merge, vec![self.id, other.id])
    }

    /// Inner merge on same-named keys.
    pub fn merge_on(&self, other: &DfHandle<E>, on: &[&str]) -> XbResult<DfHandle<E>> {
        let keys: Vec<String> = on.iter().map(|s| s.to_string()).collect();
        self.merge(other, keys.clone(), keys, JoinType::Inner)
    }

    /// `pd.concat([self, others...])`.
    pub fn concat(&self, others: &[&DfHandle<E>]) -> XbResult<DfHandle<E>> {
        let mut inputs = vec![self.id];
        inputs.extend(others.iter().map(|h| h.id));
        self.sess.derive(TileableOp::ConcatDf, inputs)
    }

    /// `df.pivot_table(...)`.
    pub fn pivot_table(
        &self,
        index: &str,
        columns: &str,
        values: &str,
        agg: xorbits_dataframe::AggFunc,
    ) -> XbResult<DfHandle<E>> {
        let pivot = TileableOp::PivotTable {
            index: index.into(),
            columns: columns.into(),
            values: values.into(),
            agg,
        };
        self.sess.derive(pivot, vec![self.id])
    }

    /// Materialises the result — triggers the tiling/execution loop.
    pub fn fetch(&self) -> XbResult<DataFrame> {
        let payloads = self.sess.fetch_payloads(self.id)?;
        let dfs: Vec<&DataFrame> = payloads
            .iter()
            .map(|p| p.as_df())
            .collect::<XbResult<Vec<_>>>()?;
        if dfs.is_empty() {
            return Err(XbError::Plan("result has no chunks".into()));
        }
        let non_empty: Vec<&DataFrame> = dfs.iter().copied().filter(|d| d.num_rows() > 0).collect();
        let parts = if non_empty.is_empty() {
            &dfs
        } else {
            &non_empty
        };
        Ok(DataFrame::concat(parts)?)
    }

    /// Report of the fetch that produced this handle's last result.
    pub fn last_report(&self) -> Option<RunReport> {
        self.sess.last_report()
    }
}

/// Deferred evaluation (§IV-C): displaying a handle triggers execution,
/// like the paper's customised `__repr__`.
impl<E: Executor> std::fmt::Display for DfHandle<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fetch() {
            Ok(df) => write!(f, "{df}"),
            Err(e) => write!(f, "<error: {e}>"),
        }
    }
}

/// A lazy distributed tensor — the `xorbits.numpy.ndarray` analogue.
pub struct TensorHandle<E: Executor> {
    sess: Session<E>,
    id: TileableId,
}

impl<E: Executor> Clone for TensorHandle<E> {
    fn clone(&self) -> Self {
        TensorHandle {
            sess: self.sess.clone(),
            id: self.id,
        }
    }
}

impl<E: Executor> Handle<E> for TensorHandle<E> {
    fn new(sess: Session<E>, id: TileableId) -> Self {
        TensorHandle { sess, id }
    }
}

impl<E: Executor> TensorHandle<E> {
    /// Applies `x ↦ op(x, operand)` elementwise.
    pub fn map_scalar(&self, op: xorbits_array::ElemOp, operand: f64) -> XbResult<TensorHandle<E>> {
        let step = ArrStep { op, operand };
        self.sess.derive(TileableOp::TensorMap(step), vec![self.id])
    }

    /// Elementwise binary op with another tensor.
    pub fn binary(
        &self,
        other: &TensorHandle<E>,
        op: xorbits_array::ElemOp,
    ) -> XbResult<TensorHandle<E>> {
        self.sess
            .derive(TileableOp::TensorBinary { op }, vec![self.id, other.id])
    }

    /// `a @ b` (b must be a small single-chunk matrix).
    pub fn matmul(&self, other: &TensorHandle<E>) -> XbResult<TensorHandle<E>> {
        self.sess
            .derive(TileableOp::TensorMatMul, vec![self.id, other.id])
    }

    /// `np.linalg.qr(a)` — returns `(Q, R)` handles (Fig 3a).
    pub fn qr(&self) -> XbResult<(TensorHandle<E>, TensorHandle<E>)> {
        let q: TensorHandle<E> = self.sess.derive(TileableOp::TensorQr, vec![self.id])?;
        let r = self
            .sess
            .derive(TileableOp::TensorSlot { slot: 1 }, vec![q.id])?;
        Ok((q, r))
    }

    /// Full reduction to one element.
    pub fn reduce(&self, kind: Reduction) -> XbResult<TensorHandle<E>> {
        self.sess
            .derive(TileableOp::TensorReduce { kind }, vec![self.id])
    }

    /// Distributed least squares against targets `y`.
    pub fn lstsq(&self, y: &TensorHandle<E>) -> XbResult<TensorHandle<E>> {
        self.sess
            .derive(TileableOp::TensorLstsq, vec![self.id, y.id])
    }

    /// Materialises the tensor.
    pub fn fetch(&self) -> XbResult<NdArray> {
        let payloads = self.sess.fetch_payloads(self.id)?;
        let arrs: Vec<&NdArray> = payloads
            .iter()
            .map(|p| p.as_arr())
            .collect::<XbResult<Vec<_>>>()?;
        if arrs.len() == 1 {
            return Ok(arrs[0].clone());
        }
        Ok(NdArray::concat_rows(&arrs)?)
    }

    /// Materialises a 1-element tensor as a scalar.
    pub fn fetch_scalar(&self) -> XbResult<f64> {
        let a = self.fetch()?;
        a.data()
            .first()
            .copied()
            .ok_or_else(|| XbError::Kernel("empty tensor has no scalar".into()))
    }

    /// Report of the fetch that produced this handle's last result.
    pub fn last_report(&self) -> Option<RunReport> {
        self.sess.last_report()
    }
}

impl<E: Executor> std::fmt::Display for TensorHandle<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fetch() {
            Ok(a) => write!(f, "{:?}", a.data()),
            Err(e) => write!(f, "<error: {e}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalExecutor;
    use crate::tileable::DF_FINGERPRINTS;
    use xorbits_dataframe::Column;

    /// A cache that never hits and counts what it is offered.
    #[derive(Default)]
    struct MissCache {
        inserted: Vec<(u64, Vec<u64>)>,
    }

    impl ResultCache for MissCache {
        fn lookup(&mut self, _key: u64) -> Option<Vec<Arc<Payload>>> {
            None
        }
        fn insert(&mut self, key: u64, sources: &[u64], _payloads: &[Arc<Payload>]) {
            self.inserted.push((key, sources.to_vec()));
        }
    }

    /// A fetch miss hashes every value of a materialized table to key the
    /// result cache; it must do so once per source, however the plan fans
    /// out over it, and not again for the lineage set.
    #[test]
    fn fetch_miss_fingerprints_each_materialized_source_once() {
        let df = |v: i64| DataFrame::new(vec![("a", Column::from_i64(vec![v, v + 1]))]).unwrap();
        let s = Session::new(XorbitsConfig::default(), LocalExecutor::new());
        let cache = Arc::new(Mutex::new(MissCache::default()));
        s.set_result_cache(cache.clone());
        let a = s.from_df(df(1)).unwrap();
        let b = s.from_df(df(7)).unwrap();
        // never fetched: must not be fingerprinted by anyone's fetch
        let _unrelated = s.from_df(df(99)).unwrap().head(1).unwrap();
        let diamond = a
            .head(1)
            .unwrap()
            .concat(&[&a.head(2).unwrap(), &b])
            .unwrap();

        DF_FINGERPRINTS.with(|c| c.set(0));
        assert_eq!(diamond.fetch().unwrap().num_rows(), 5);
        assert_eq!(DF_FINGERPRINTS.with(|c| c.get()), 2);
        let cache = cache.lock().unwrap();
        assert_eq!(cache.inserted.len(), 1);
        assert_eq!(cache.inserted[0].1.len(), 2, "lineage = the two sources");
    }

    /// A cache that never hits and records every key it is asked for.
    #[derive(Default)]
    struct KeyLog(Vec<u64>);

    impl ResultCache for KeyLog {
        fn lookup(&mut self, key: u64) -> Option<Vec<Arc<Payload>>> {
            self.0.push(key);
            None
        }
        fn insert(&mut self, _key: u64, _sources: &[u64], _payloads: &[Arc<Payload>]) {}
    }

    /// Alias-insensitive reuse lives in the result-cache key: texts that
    /// differ only in table aliases and a CTE name are two plan-cache
    /// misses whose fetches ask the result cache for one key.
    #[test]
    fn alias_renamed_sql_reaches_the_same_result_cache_key() {
        use crate::sql::{Catalog, SqlFrontend};
        use crate::tileable::DfSource;
        let frame = |cols: Vec<(&str, Vec<i64>)>| {
            let cols = cols
                .into_iter()
                .map(|(n, v)| (n, Column::from_i64(v)))
                .collect();
            DfSource::materialized(DataFrame::new(cols).unwrap())
        };
        let mut catalog = Catalog::new();
        catalog
            .add(
                "t",
                frame(vec![("k", vec![1, 2, 3]), ("v", vec![10, 20, 30])]),
            )
            .unwrap();
        catalog
            .add("u", frame(vec![("uk", vec![1, 3]), ("w", vec![7, 9])]))
            .unwrap();
        let s = Session::new(XorbitsConfig::default(), LocalExecutor::new());
        let keys = Arc::new(Mutex::new(KeyLog::default()));
        s.set_result_cache(keys.clone());
        let fe = SqlFrontend::new(s, catalog);

        let base = "WITH big AS (SELECT k, v FROM t WHERE v > 15) \
                    SELECT a.v, b.w FROM big a JOIN u b ON a.k = b.uk";
        let renamed = "WITH wide AS (SELECT k, v FROM t WHERE v > 15) \
                       SELECT x.v, y.w FROM wide x JOIN u y ON x.k = y.uk";
        let literal = "WITH big AS (SELECT k, v FROM t WHERE v > 5) \
                       SELECT a.v, b.w FROM big a JOIN u b ON a.k = b.uk";
        let first = fe.query(base).unwrap();
        assert_eq!(first.num_rows(), 1);
        assert_eq!(fe.query(renamed).unwrap(), first);
        fe.query(literal).unwrap();
        let stats = fe.cache_stats();
        assert_eq!((stats.text_hits, stats.misses), (0, 3));
        let keys = &keys.lock().unwrap().0;
        assert_eq!(keys.len(), 3, "one lookup per fetch");
        assert_eq!(keys[0], keys[1], "alias renaming must not change the key");
        assert_ne!(keys[0], keys[2], "a literal change must");
    }
}
