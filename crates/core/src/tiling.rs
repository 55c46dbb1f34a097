//! Dynamic tiling — the paper's §IV.
//!
//! The [`Tiler`] lowers the tileable graph to a chunk graph *incrementally*.
//! Where Python Xorbits suspends a `tile()` generator with `yield`, this
//! tiler is an explicit resumable state machine: [`Tiler::step`] either
//! returns [`TileStep::Execute`] — "here is a prefix chunk graph; run it and
//! come back with metadata" — or [`TileStep::Done`] with the final graph.
//! The session loop around it (`crate::session`) plays the role of the task
//! service in Fig 5a, and the executor's meta store plays the meta service.
//!
//! Dynamic decisions implemented here, each driven by *measured* metadata:
//!
//! * **Auto reduce selection** (Fig 6a): a probe runs `GroupbyAgg::map` on
//!   the first chunk; the measured aggregation ratio extrapolates the total
//!   aggregated size, choosing tree-reduce (small) vs shuffle-reduce (large).
//! * **Broadcast vs shuffle join**: measured side sizes pick a broadcast of
//!   the small side (avoiding skewed shuffles entirely) or a hash shuffle
//!   sized from measured bytes.
//! * **Auto merge** (Fig 6b): chunk layouts whose measured chunks shrank far
//!   below the chunk limit are concatenated back up to it before expensive
//!   downstream stages.
//! * **Iterative tiling** (Fig 3c): `iloc`/`head` over unknown-shape chunks
//!   flush execution, read the now-known lengths, and append a single
//!   `ILoc` slice to the right chunk.
//!
//! With `dynamic_tiling` off, all of the above degrade to the static
//! behaviour the paper criticises: estimates from the initial source size,
//! fixed shuffle partition counts, no combine-stage merging.

use crate::chunk::{ChunkGraph, ChunkKey, ChunkMeta, ChunkNode, ChunkOp, DfStep, KeyGen};
use crate::config::XorbitsConfig;
use crate::error::{XbError, XbResult};
use crate::rechunk;
use crate::tileable::{DfSource, TileableGraph, TileableId, TileableOp};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xorbits_dataframe::groupby::is_decomposable;
use xorbits_dataframe::{AggFunc, JoinType};

/// Estimated (or, after execution, observed) size of one planned chunk.
#[derive(Debug, Clone, Copy)]
pub struct ChunkEst {
    /// Estimated heap bytes.
    pub bytes: usize,
    /// Estimated leading-dimension rows.
    pub rows: usize,
    /// Whether the estimate is exact (static-shape lineage).
    pub exact: bool,
}

/// One planned chunk: its storage key plus the planner's size estimate.
#[derive(Debug, Clone)]
pub struct ChunkRef {
    /// Storage key.
    pub key: ChunkKey,
    /// Planner estimate.
    pub est: ChunkEst,
    /// Distributed index (r, c) of Fig 4.
    pub index: (usize, usize),
}

/// The chunk layout of one tileable output slot.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Chunks in row order.
    pub chunks: Vec<ChunkRef>,
}

impl Layout {
    /// Total estimated bytes.
    pub fn est_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.est.bytes).sum()
    }

    /// Total estimated rows.
    pub fn est_rows(&self) -> usize {
        self.chunks.iter().map(|c| c.est.rows).sum()
    }

    /// All chunk keys.
    pub fn keys(&self) -> Vec<ChunkKey> {
        self.chunks.iter().map(|c| c.key).collect()
    }
}

/// Read access to executed-chunk metadata — the meta service of Fig 5a.
pub trait MetaView {
    /// Metadata of an executed chunk, if present.
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta>;
}

impl MetaView for HashMap<ChunkKey, ChunkMeta> {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.get(&key).copied()
    }
}

/// Result of one tiler step.
#[derive(Debug)]
pub enum TileStep {
    /// Execute this prefix graph, then call [`Tiler::step`] again — the
    /// `yield` of Fig 5b.
    Execute(ChunkGraph),
    /// Tiling complete; execute this final graph fragment.
    Done(ChunkGraph),
}

/// Counters describing how tiling went (exposed for tests, the ablation
/// benches and EXPERIMENTS.md narratives).
#[derive(Debug, Clone, Default)]
pub struct TilingStats {
    /// Tiling↔execution switches (Fig 5a round trips).
    pub yields: usize,
    /// Probe operators executed.
    pub probes: usize,
    /// Human-readable log of dynamic decisions.
    pub decisions: Vec<String>,
}

/// Per-groupby/distinct probe bookkeeping.
#[derive(Debug, Clone)]
struct ProbeState {
    /// Key of the probe output (the first chunk's map result).
    out_key: ChunkKey,
    /// Key of the probed input chunk.
    in_key: ChunkKey,
}

/// The resumable tiler.
pub struct Tiler<'g> {
    graph: &'g TileableGraph,
    cfg: XorbitsConfig,
    layouts: HashMap<(TileableId, usize), Layout>,
    cursor: usize,
    pending: ChunkGraph,
    pending_keys: HashSet<ChunkKey>,
    probes: HashMap<TileableId, ProbeState>,
    /// Sort tileables absorbed into a following `Head` as a top-k.
    topk_peephole: HashSet<TileableId>,
    consumer_counts: Vec<usize>,
    /// Consumers not yet tiled, per tileable; zero ⇒ chunks reclaimable.
    remaining_consumers: Vec<usize>,
    /// Chunk keys whose memory the runtime may reclaim after the next
    /// execution (their last consumers are in the pending graph).
    releasable: Vec<ChunkKey>,
    /// Statistics.
    pub stats: TilingStats,
}

impl<'g> Tiler<'g> {
    /// Creates a tiler over a fetch's closure
    /// ([`TileableGraph::closure`], pruned or not): every node is tiled,
    /// and the chunks of sinks — the fetched target — are never reclaimed.
    pub fn new(graph: &'g TileableGraph, cfg: XorbitsConfig) -> Tiler<'g> {
        let consumer_counts = graph.consumer_counts();
        Tiler {
            graph,
            cfg,
            layouts: HashMap::new(),
            cursor: 0,
            pending: ChunkGraph::new(),
            pending_keys: HashSet::new(),
            probes: HashMap::new(),
            topk_peephole: HashSet::new(),
            remaining_consumers: consumer_counts.clone(),
            consumer_counts,
            releasable: Vec::new(),
            stats: TilingStats::default(),
        }
    }

    /// Final layout of a tileable output slot (valid once tiling passed it).
    pub fn layout(&self, id: TileableId, slot: usize) -> XbResult<&Layout> {
        self.layouts
            .get(&(id, slot))
            .ok_or_else(|| XbError::Plan(format!("tileable {id}:{slot} not tiled yet")))
    }

    /// Decrements remaining-consumer counts of `id`'s inputs; inputs whose
    /// last consumer was just tiled have their chunk keys queued for
    /// release (unless another live layout still references them, e.g.
    /// pass-through chunks of `head`/`concat`).
    fn mark_consumed(&mut self, id: TileableId) {
        let mut newly_dead = Vec::new();
        for t in self.graph.op(id).inputs() {
            self.remaining_consumers[t] -= 1;
            if self.remaining_consumers[t] == 0 {
                newly_dead.push(t);
            }
        }
        if newly_dead.is_empty() {
            return;
        }
        // keys still referenced by any live layout (live = has remaining
        // consumers, or is the sink the session gathers)
        let mut live: HashSet<ChunkKey> = HashSet::new();
        for (&(t, _slot), layout) in &self.layouts {
            if self.remaining_consumers[t] > 0 || self.consumer_counts[t] == 0 {
                live.extend(layout.chunks.iter().map(|c| c.key));
            }
        }
        for t in newly_dead {
            for slot in 0..self.graph.op(t).n_outputs() {
                if let Some(layout) = self.layouts.get(&(t, slot)) {
                    for c in &layout.chunks {
                        if !live.contains(&c.key) {
                            self.releasable.push(c.key);
                        }
                    }
                }
            }
        }
    }

    /// Drains the keys whose last consumers were included in the most
    /// recently executed graph. The session forwards them to
    /// `Executor::release`.
    pub fn take_releasable(&mut self) -> Vec<ChunkKey> {
        std::mem::take(&mut self.releasable)
    }

    /// Every chunk key that later tiling (or the final gather) may still
    /// reference: everything in a layout plus outstanding probe chunks.
    /// The session protects these from fusion elimination.
    pub fn live_keys(&self) -> HashSet<ChunkKey> {
        let mut set = HashSet::new();
        for l in self.layouts.values() {
            for c in &l.chunks {
                set.insert(c.key);
            }
        }
        for p in self.probes.values() {
            set.insert(p.out_key);
            set.insert(p.in_key);
        }
        set
    }

    /// Advances tiling until the next execution is required or everything is
    /// tiled.
    pub fn step(&mut self, keygen: &mut KeyGen, meta: &dyn MetaView) -> XbResult<TileStep> {
        while self.cursor < self.graph.len() {
            let id = self.cursor;
            if self.tile_one(id, keygen, meta)? {
                self.cursor += 1;
                self.mark_consumed(id);
            } else {
                // flush requested: hand the pending prefix to the runtime
                let g = std::mem::take(&mut self.pending);
                self.pending_keys.clear();
                self.stats.yields += 1;
                return Ok(TileStep::Execute(g));
            }
        }
        let g = std::mem::take(&mut self.pending);
        self.pending_keys.clear();
        Ok(TileStep::Done(g))
    }

    // ---- helpers ------------------------------------------------------------

    fn push_node(&mut self, node: ChunkNode) {
        for &k in &node.outputs {
            self.pending_keys.insert(k);
        }
        self.pending.push(node);
    }

    /// Actual metadata if executed, else `None`.
    fn actual(&self, meta: &dyn MetaView, key: ChunkKey) -> Option<ChunkMeta> {
        meta.meta(key)
    }

    /// True when every chunk of the layout has executed metadata.
    fn all_known(&self, meta: &dyn MetaView, layout: &Layout) -> bool {
        layout.chunks.iter().all(|c| meta.meta(c.key).is_some())
    }

    /// Best available size of a layout: measured when known, estimate
    /// otherwise.
    fn best_bytes(&self, meta: &dyn MetaView, layout: &Layout) -> usize {
        layout
            .chunks
            .iter()
            .map(|c| meta.meta(c.key).map(|m| m.nbytes).unwrap_or(c.est.bytes))
            .sum()
    }

    fn best_rows_of(&self, meta: &dyn MetaView, c: &ChunkRef) -> (usize, bool) {
        match meta.meta(c.key) {
            Some(m) => (m.rows, true),
            None => (c.est.rows, c.est.exact),
        }
    }

    /// Tree-combines `keys` down to a single chunk using `make_op` nodes
    /// with the configured fan-in. Returns the final key.
    fn tree_combine(
        &mut self,
        keygen: &mut KeyGen,
        mut keys: Vec<ChunkKey>,
        make_op: &dyn Fn() -> ChunkOp,
        level_est: ChunkEst,
    ) -> ChunkKey {
        let fanin = self.cfg.combine_fanin.max(2);
        while keys.len() > 1 {
            let mut next = Vec::with_capacity(keys.len().div_ceil(fanin));
            for batch in keys.chunks(fanin) {
                if batch.len() == 1 {
                    next.push(batch[0]);
                    continue;
                }
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: make_op(),
                    inputs: batch.to_vec(),
                    outputs: vec![out],
                });
                next.push(out);
            }
            keys = next;
        }
        let _ = level_est;
        keys[0]
    }

    /// Concatenates a group of chunks into one; passthrough for singletons.
    fn concat_group(&mut self, keygen: &mut KeyGen, group: &[ChunkRef], index: usize) -> ChunkRef {
        if group.len() == 1 {
            let mut c = group[0].clone();
            c.index = (index, 0);
            return c;
        }
        let key = keygen.next_key();
        self.push_node(ChunkNode {
            op: ChunkOp::Concat,
            inputs: group.iter().map(|c| c.key).collect(),
            outputs: vec![key],
        });
        ChunkRef {
            key,
            est: ChunkEst {
                bytes: group.iter().map(|c| c.est.bytes).sum(),
                rows: group.iter().map(|c| c.est.rows).sum(),
                exact: group.iter().all(|c| c.est.exact),
            },
            index: (index, 0),
        }
    }

    /// Auto merge (Fig 6b): when measured chunks shrank far below the chunk
    /// limit, concatenate consecutive chunks back up to it.
    fn auto_merge(&mut self, keygen: &mut KeyGen, meta: &dyn MetaView, layout: &Layout) -> Layout {
        if !self.cfg.dynamic_tiling || layout.chunks.len() <= 1 {
            return layout.clone();
        }
        // only merge when sizes are actually known
        if !self.all_known(meta, layout) {
            return layout.clone();
        }
        let limit = self.cfg.chunk_limit_bytes;
        // engage only for genuinely small chunks (Fig 6b's "numerous small
        // chunks"); re-concatenating healthy chunks is a pure copy cost
        let total: usize = layout
            .chunks
            .iter()
            .map(|c| meta.meta(c.key).map(|m| m.nbytes).unwrap_or(c.est.bytes))
            .sum();
        if total / layout.chunks.len().max(1) >= limit / 4 {
            return layout.clone();
        }
        let fanin = self.cfg.combine_fanin.max(2);
        let mut groups: Vec<Vec<&ChunkRef>> = Vec::new();
        let mut cur: Vec<&ChunkRef> = Vec::new();
        let mut cur_bytes = 0usize;
        for c in &layout.chunks {
            let b = meta.meta(c.key).map(|m| m.nbytes).unwrap_or(c.est.bytes);
            if !cur.is_empty() && (cur_bytes + b > limit || cur.len() >= fanin) {
                groups.push(std::mem::take(&mut cur));
                cur_bytes = 0;
            }
            cur.push(c);
            cur_bytes += b;
        }
        if !cur.is_empty() {
            groups.push(cur);
        }
        if groups.len() == layout.chunks.len() {
            return layout.clone(); // nothing to merge
        }
        let mut out = Layout::default();
        let mut merged_any = false;
        for (r, g) in groups.iter().enumerate() {
            if g.len() == 1 {
                let mut c = g[0].clone();
                c.index = (r, 0);
                out.chunks.push(c);
                continue;
            }
            merged_any = true;
            let key = keygen.next_key();
            let bytes: usize = g
                .iter()
                .map(|c| meta.meta(c.key).map(|m| m.nbytes).unwrap_or(c.est.bytes))
                .sum();
            let rows: usize = g
                .iter()
                .map(|c| meta.meta(c.key).map(|m| m.rows).unwrap_or(c.est.rows))
                .sum();
            self.push_node(ChunkNode {
                op: ChunkOp::Concat,
                inputs: g.iter().map(|c| c.key).collect(),
                outputs: vec![key],
            });
            out.chunks.push(ChunkRef {
                key,
                est: ChunkEst {
                    bytes,
                    rows,
                    exact: true,
                },
                index: (r, 0),
            });
        }
        if merged_any {
            self.stats.decisions.push(format!(
                "auto-merge: {} chunks -> {}",
                layout.chunks.len(),
                out.chunks.len()
            ));
        }
        out
    }

    // ---- the per-op tile dispatch ---------------------------------------------
    //
    // Returns Ok(true) when the tileable is fully tiled, Ok(false) when the
    // pending graph must be flushed first (the `yield`).

    fn tile_one(
        &mut self,
        id: TileableId,
        keygen: &mut KeyGen,
        meta: &dyn MetaView,
    ) -> XbResult<bool> {
        let op = self.graph.op(id).clone();
        match op {
            TileableOp::DfSource(src) => {
                self.tile_df_source(id, keygen, &src);
                Ok(true)
            }
            TileableOp::Filter { input, predicate } => {
                self.tile_df_map(id, input, keygen, DfStep::Filter(predicate), false);
                Ok(true)
            }
            TileableOp::Project { input, columns } => {
                self.tile_df_map(id, input, keygen, DfStep::Project(columns), true);
                Ok(true)
            }
            TileableOp::PruneColumns { input, columns } => {
                self.tile_df_map(id, input, keygen, DfStep::PruneTo(columns), true);
                Ok(true)
            }
            TileableOp::Assign { input, exprs } => {
                self.tile_df_map(id, input, keygen, DfStep::Assign(exprs), true);
                Ok(true)
            }
            TileableOp::Fillna {
                input,
                column,
                value,
            } => {
                self.tile_df_map(id, input, keygen, DfStep::Fillna(column, value), true);
                Ok(true)
            }
            TileableOp::Dropna { input, subset } => {
                self.tile_df_map(id, input, keygen, DfStep::Dropna(subset), false);
                Ok(true)
            }
            TileableOp::Rename { input, pairs } => {
                self.tile_df_map(id, input, keygen, DfStep::Rename(pairs), true);
                Ok(true)
            }
            TileableOp::GroupbyAgg { input, keys, specs } => {
                self.tile_groupby(id, input, keygen, meta, keys, specs)
            }
            TileableOp::Merge {
                left,
                right,
                left_on,
                right_on,
                how,
                suffixes,
            } => self.tile_merge(
                id, keygen, meta, left, right, left_on, right_on, how, suffixes,
            ),
            TileableOp::SortValues { input, keys } => {
                self.tile_sort(id, input, keygen, keys);
                Ok(true)
            }
            TileableOp::Head { input, n } => self.tile_head(id, input, keygen, meta, n),
            TileableOp::ILocRow { input, row } => self.tile_iloc(id, input, keygen, meta, row),
            TileableOp::DropDuplicates { input, subset } => {
                self.tile_distinct(id, input, keygen, meta, subset)
            }
            TileableOp::ConcatDf { inputs } => {
                let mut chunks = Vec::new();
                for i in &inputs {
                    chunks.extend(self.layout(*i, 0)?.chunks.clone());
                }
                for (r, c) in chunks.iter_mut().enumerate() {
                    c.index = (r, 0);
                }
                self.layouts.insert((id, 0), Layout { chunks });
                Ok(true)
            }
            TileableOp::PivotTable {
                input,
                index,
                columns,
                values,
                agg,
            } => {
                let keys = self.layout(input, 0)?.keys();
                let est = self.layout(input, 0)?.est_bytes();
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: ChunkOp::PivotLocal {
                        index,
                        columns,
                        values,
                        agg,
                    },
                    inputs: keys,
                    outputs: vec![out],
                });
                self.layouts
                    .insert((id, 0), single_chunk_layout(out, est / 2, 0, false));
                Ok(true)
            }
            TileableOp::TensorRandom {
                shape,
                seed,
                normal,
            } => {
                self.tile_tensor_random(id, keygen, &shape, seed, normal);
                Ok(true)
            }
            TileableOp::TensorFromArr(a) => {
                let out = keygen.next_key();
                let bytes = a.nbytes();
                let rows = a.shape().first().copied().unwrap_or(0);
                self.push_node(ChunkNode {
                    op: ChunkOp::ArrLiteral(a),
                    inputs: vec![],
                    outputs: vec![out],
                });
                self.layouts
                    .insert((id, 0), single_chunk_layout(out, bytes, rows, true));
                Ok(true)
            }
            TileableOp::TensorMapChain { input, steps } => {
                let layout = self.layout(input, 0)?.clone();
                let mut chunks = Vec::with_capacity(layout.chunks.len());
                for (r, c) in layout.chunks.iter().enumerate() {
                    let out = keygen.next_key();
                    self.push_node(ChunkNode {
                        op: ChunkOp::ArrMap(steps.clone()),
                        inputs: vec![c.key],
                        outputs: vec![out],
                    });
                    chunks.push(ChunkRef {
                        key: out,
                        est: c.est,
                        index: (r, 0),
                    });
                }
                self.layouts.insert((id, 0), Layout { chunks });
                Ok(true)
            }
            TileableOp::TensorBinary { a, b, op } => {
                let la = self.layout(a, 0)?.clone();
                let lb = self.layout(b, 0)?.clone();
                let mut chunks = Vec::new();
                if lb.chunks.len() == 1 {
                    for (r, c) in la.chunks.iter().enumerate() {
                        let out = keygen.next_key();
                        self.push_node(ChunkNode {
                            op: ChunkOp::ArrBinary(op),
                            inputs: vec![c.key, lb.chunks[0].key],
                            outputs: vec![out],
                        });
                        chunks.push(ChunkRef {
                            key: out,
                            est: c.est,
                            index: (r, 0),
                        });
                    }
                } else if la.chunks.len() == lb.chunks.len()
                    && la
                        .chunks
                        .iter()
                        .zip(&lb.chunks)
                        .all(|(x, y)| x.est.rows == y.est.rows)
                {
                    for (r, (ca, cb)) in la.chunks.iter().zip(&lb.chunks).enumerate() {
                        let out = keygen.next_key();
                        self.push_node(ChunkNode {
                            op: ChunkOp::ArrBinary(op),
                            inputs: vec![ca.key, cb.key],
                            outputs: vec![out],
                        });
                        chunks.push(ChunkRef {
                            key: out,
                            est: ca.est,
                            index: (r, 0),
                        });
                    }
                } else {
                    return Err(XbError::Unsupported(
                        "tensor binary op on incompatible chunkings (rechunk required)".into(),
                    ));
                }
                self.layouts.insert((id, 0), Layout { chunks });
                Ok(true)
            }
            TileableOp::TensorMatMul { a, b } => {
                let la = self.layout(a, 0)?.clone();
                let lb = self.layout(b, 0)?.clone();
                if lb.chunks.len() != 1 {
                    return Err(XbError::Unsupported(
                        "matmul requires a single-chunk right operand (rechunk required)".into(),
                    ));
                }
                let mut chunks = Vec::new();
                for (r, c) in la.chunks.iter().enumerate() {
                    let out = keygen.next_key();
                    self.push_node(ChunkNode {
                        op: ChunkOp::MatMul,
                        inputs: vec![c.key, lb.chunks[0].key],
                        outputs: vec![out],
                    });
                    chunks.push(ChunkRef {
                        key: out,
                        est: ChunkEst {
                            bytes: c.est.rows.max(1) * 8,
                            rows: c.est.rows,
                            exact: c.est.exact,
                        },
                        index: (r, 0),
                    });
                }
                self.layouts.insert((id, 0), Layout { chunks });
                Ok(true)
            }
            TileableOp::TensorQr { input } => self.tile_qr(id, input, keygen),
            TileableOp::TensorReduce { input, kind } => {
                let layout = self.layout(input, 0)?.clone();
                let mut partials = Vec::new();
                for c in &layout.chunks {
                    let out = keygen.next_key();
                    self.push_node(ChunkNode {
                        op: ChunkOp::ReducePartial { kind },
                        inputs: vec![c.key],
                        outputs: vec![out],
                    });
                    partials.push(out);
                }
                let combined = self.tree_combine(
                    keygen,
                    partials,
                    &|| ChunkOp::ReduceCombine { kind },
                    ChunkEst {
                        bytes: 16,
                        rows: 1,
                        exact: true,
                    },
                );
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: ChunkOp::ReduceFinal { kind },
                    inputs: vec![combined],
                    outputs: vec![out],
                });
                self.layouts
                    .insert((id, 0), single_chunk_layout(out, 8, 1, true));
                Ok(true)
            }
            TileableOp::TensorLstsq { x, y } => self.tile_lstsq(id, x, y, keygen),
        }
    }

    // ---- dataframe ops -----------------------------------------------------

    /// Effective per-chunk byte target: the configured limit, lowered so a
    /// large input yields at least ~2 chunks per band (load balance) but
    /// never below a floor that would drown the scheduler in tiny tasks —
    /// the automatic equivalent of Dask's hand-tuned chunk sizes.
    fn effective_chunk_limit(&self, total_bytes: usize) -> usize {
        const MIN_CHUNK: usize = 2 << 20;
        if self.cfg.cluster_parallelism <= 1 {
            // one execution slot: nothing to balance (and the pandas
            // profile must keep whole frames)
            return self.cfg.chunk_limit_bytes;
        }
        let balance_target = total_bytes / (2 * self.cfg.cluster_parallelism);
        self.cfg
            .chunk_limit_bytes
            .min(balance_target.max(MIN_CHUNK.min(self.cfg.chunk_limit_bytes)))
    }

    fn tile_df_source(&mut self, id: TileableId, keygen: &mut KeyGen, src: &DfSource) {
        let rows = src.rows();
        let bytes = src.est_bytes().max(1);
        let bytes_per_row = (bytes / rows.max(1)).max(1);
        let chunk_rows = (self.effective_chunk_limit(bytes) / bytes_per_row).max(1);
        let nchunks = rows.div_ceil(chunk_rows).max(1);
        let mut chunks = Vec::with_capacity(nchunks);
        let mut start = 0usize;
        for r in 0..nchunks {
            let len = chunk_rows.min(rows - start);
            let key = keygen.next_key();
            let op = match src {
                DfSource::Materialized(df) => {
                    let df = Arc::clone(df);
                    ChunkOp::DfGen {
                        gen: Arc::new(move || Ok(df.slice(start, len))),
                        label: format!("scan[{r}]"),
                    }
                }
                DfSource::Generator { gen, label, .. } => {
                    let gen = Arc::clone(gen);
                    ChunkOp::DfGen {
                        gen: Arc::new(move || gen(start, len)),
                        label: format!("{label}[{r}]"),
                    }
                }
            };
            self.push_node(ChunkNode {
                op,
                inputs: vec![],
                outputs: vec![key],
            });
            chunks.push(ChunkRef {
                key,
                est: ChunkEst {
                    bytes: len * bytes_per_row,
                    rows: len,
                    exact: true,
                },
                index: (r, 0),
            });
            start += len;
        }
        self.layouts.insert((id, 0), Layout { chunks });
    }

    fn tile_df_map(
        &mut self,
        id: TileableId,
        input: TileableId,
        keygen: &mut KeyGen,
        step: DfStep,
        shape_preserving: bool,
    ) {
        let layout = self.layouts[&(input, 0)].clone();
        let mut chunks = Vec::with_capacity(layout.chunks.len());
        for (r, c) in layout.chunks.iter().enumerate() {
            let out = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::DfMap(vec![step.clone()]),
                inputs: vec![c.key],
                outputs: vec![out],
            });
            chunks.push(ChunkRef {
                key: out,
                est: ChunkEst {
                    bytes: c.est.bytes,
                    rows: c.est.rows,
                    // filters/dropna invalidate exactness: the classic
                    // unknown-shape operator of §IV-A
                    exact: c.est.exact && shape_preserving,
                },
                index: (r, 0),
            });
        }
        self.layouts.insert((id, 0), Layout { chunks });
    }

    #[allow(clippy::too_many_arguments)]
    fn tile_groupby(
        &mut self,
        id: TileableId,
        input: TileableId,
        keygen: &mut KeyGen,
        meta: &dyn MetaView,
        keys: Vec<String>,
        specs: Vec<xorbits_dataframe::AggSpec>,
    ) -> XbResult<bool> {
        let layout = self.layouts[&(input, 0)].clone();

        // nunique (not column-decomposable): every group's rows must meet in
        // one place, so shuffle by key and aggregate each partition
        // directly. A gather would funnel the whole input to one worker —
        // exactly the combine-stage anti-pattern the paper warns about.
        if !is_decomposable(&specs) {
            if keys.is_empty() || layout.chunks.len() == 1 {
                // whole-frame agg or single chunk: direct
                let gathered = self.tree_combine(
                    keygen,
                    layout.keys(),
                    &|| ChunkOp::Concat,
                    ChunkEst {
                        bytes: layout.est_bytes(),
                        rows: layout.est_rows(),
                        exact: false,
                    },
                );
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: ChunkOp::GroupbyDirect {
                        keys: keys.clone(),
                        specs,
                    },
                    inputs: vec![gathered],
                    outputs: vec![out],
                });
                self.layouts.insert(
                    (id, 0),
                    single_chunk_layout(out, layout.est_bytes() / 2, 0, false),
                );
                return Ok(true);
            }
            let total = self.best_bytes(meta, &layout);
            let p = if self.cfg.dynamic_tiling {
                let by_size = total.div_ceil(self.cfg.chunk_limit_bytes).clamp(1, 64);
                by_size.max(self.cfg.cluster_parallelism.min(layout.chunks.len()))
            } else {
                self.cfg.shuffle_partitions.max(1)
            };
            self.stats.decisions.push(format!(
                "groupby: nunique -> shuffle+direct ({p} partitions)"
            ));
            let mut part_inputs: Vec<Vec<ChunkKey>> = vec![Vec::new(); p];
            for c in &layout.chunks {
                let outs = keygen.next_keys(p);
                self.push_node(ChunkNode {
                    op: ChunkOp::ShuffleSplit {
                        keys: keys.clone(),
                        n: p,
                    },
                    inputs: vec![c.key],
                    outputs: outs.clone(),
                });
                for (pi, o) in outs.into_iter().enumerate() {
                    part_inputs[pi].push(o);
                }
            }
            let mut chunks = Vec::with_capacity(p);
            for (pi, inputs) in part_inputs.into_iter().enumerate() {
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: ChunkOp::GroupbyDirect {
                        keys: keys.clone(),
                        specs: specs.clone(),
                    },
                    inputs,
                    outputs: vec![out],
                });
                chunks.push(ChunkRef {
                    key: out,
                    est: ChunkEst {
                        bytes: total / (2 * p),
                        rows: 0,
                        exact: false,
                    },
                    index: (pi, 0),
                });
            }
            self.layouts.insert((id, 0), Layout { chunks });
            return Ok(true);
        }

        // Single chunk: trivial map+finalize.
        if layout.chunks.len() == 1 {
            let mapped = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::GroupbyMap {
                    keys: keys.clone(),
                    specs: specs.clone(),
                },
                inputs: vec![layout.chunks[0].key],
                outputs: vec![mapped],
            });
            let out = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::GroupbyFinalize { keys, specs },
                inputs: vec![mapped],
                outputs: vec![out],
            });
            self.layouts.insert(
                (id, 0),
                single_chunk_layout(out, layout.est_bytes() / 2, 0, false),
            );
            return Ok(true);
        }

        let dynamic = self.cfg.dynamic_tiling && !keys.is_empty();

        // Dynamic path: probe the first chunk's map output to measure the
        // aggregation ratio (Fig 6a).
        let (est_total_agg, probe_map_key) = if dynamic {
            match self.probes.get(&id).cloned() {
                None => {
                    let in_key = layout.chunks[0].key;
                    // input chunk itself must be executed first
                    if self.actual(meta, in_key).is_none() {
                        if self.pending_keys.contains(&in_key) || !self.pending.is_empty() {
                            return Ok(false); // flush, then retry
                        }
                        return Err(XbError::Plan(format!(
                            "probe input chunk {in_key} missing from meta service"
                        )));
                    }
                    let out_key = keygen.next_key();
                    self.push_node(ChunkNode {
                        op: ChunkOp::GroupbyMap {
                            keys: keys.clone(),
                            specs: specs.clone(),
                        },
                        inputs: vec![in_key],
                        outputs: vec![out_key],
                    });
                    self.probes.insert(id, ProbeState { out_key, in_key });
                    self.stats.probes += 1;
                    return Ok(false); // flush to run the probe
                }
                Some(p) => {
                    let probe_out = self.actual(meta, p.out_key).ok_or_else(|| {
                        XbError::Plan("probe output missing from meta service".into())
                    })?;
                    let probe_in = self.actual(meta, p.in_key).ok_or_else(|| {
                        XbError::Plan("probe input missing from meta service".into())
                    })?;
                    let ratio = probe_out.nbytes as f64 / probe_in.nbytes.max(1) as f64;
                    let total_in = self.best_bytes(meta, &layout) as f64;
                    ((ratio * total_in) as usize, Some(p.out_key))
                }
            }
        } else {
            // static estimate: aggregated size assumed proportional to input
            (layout.est_bytes(), None)
        };

        // auto-merge small input chunks before the map stage
        let layout = if dynamic {
            self.auto_merge(keygen, meta, &layout)
        } else {
            layout
        };

        // Map stage over every chunk; the probe's output is reused for the
        // probed chunk ("tile the remaining chunks with metadata").
        let mut map_keys = Vec::with_capacity(layout.chunks.len());
        for (i, c) in layout.chunks.iter().enumerate() {
            if i == 0 {
                if let Some(pk) = probe_map_key {
                    // reuse only if auto-merge kept chunk 0 intact
                    if self.probes.get(&id).map(|p| p.in_key) == Some(c.key) {
                        map_keys.push(pk);
                        continue;
                    }
                }
            }
            let out = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::GroupbyMap {
                    keys: keys.clone(),
                    specs: specs.clone(),
                },
                inputs: vec![c.key],
                outputs: vec![out],
            });
            map_keys.push(out);
        }

        let use_tree =
            keys.is_empty() || (dynamic && est_total_agg <= self.cfg.tree_reduce_threshold_bytes);

        if use_tree {
            self.stats.decisions.push(format!(
                "groupby: tree-reduce (est agg {est_total_agg} B <= {} B)",
                self.cfg.tree_reduce_threshold_bytes
            ));
            let combined = self.tree_combine(
                keygen,
                map_keys,
                &|| ChunkOp::GroupbyCombine {
                    keys: keys.clone(),
                    specs: specs.clone(),
                },
                ChunkEst {
                    bytes: est_total_agg,
                    rows: 0,
                    exact: false,
                },
            );
            let out = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::GroupbyFinalize { keys, specs },
                inputs: vec![combined],
                outputs: vec![out],
            });
            self.layouts
                .insert((id, 0), single_chunk_layout(out, est_total_agg, 0, false));
        } else {
            // shuffle-reduce: partition count from measured (dynamic) or
            // configured (static) sizes
            let p = if dynamic {
                let by_size = est_total_agg
                    .div_ceil(self.cfg.chunk_limit_bytes)
                    .clamp(1, 64);
                // never fan out below the cluster's parallelism (bounded by
                // the available map outputs)
                by_size.max(self.cfg.cluster_parallelism.min(layout.chunks.len()))
            } else {
                self.cfg.shuffle_partitions.max(1)
            };
            self.stats.decisions.push(format!(
                "groupby: shuffle-reduce with {p} partitions (est agg {est_total_agg} B)"
            ));
            let mut part_inputs: Vec<Vec<ChunkKey>> = vec![Vec::new(); p];
            for mk in map_keys {
                let outs = keygen.next_keys(p);
                self.push_node(ChunkNode {
                    op: ChunkOp::ShuffleSplit {
                        keys: keys.clone(),
                        n: p,
                    },
                    inputs: vec![mk],
                    outputs: outs.clone(),
                });
                for (pi, o) in outs.into_iter().enumerate() {
                    part_inputs[pi].push(o);
                }
            }
            let mut chunks = Vec::with_capacity(p);
            for (pi, inputs) in part_inputs.into_iter().enumerate() {
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: ChunkOp::GroupbyFinalize {
                        keys: keys.clone(),
                        specs: specs.clone(),
                    },
                    inputs,
                    outputs: vec![out],
                });
                chunks.push(ChunkRef {
                    key: out,
                    est: ChunkEst {
                        bytes: est_total_agg / p,
                        rows: 0,
                        exact: false,
                    },
                    index: (pi, 0),
                });
            }
            self.layouts.insert((id, 0), Layout { chunks });
        }
        Ok(true)
    }

    #[allow(clippy::too_many_arguments)]
    fn tile_merge(
        &mut self,
        id: TileableId,
        keygen: &mut KeyGen,
        meta: &dyn MetaView,
        left: TileableId,
        right: TileableId,
        left_on: Vec<String>,
        right_on: Vec<String>,
        how: JoinType,
        suffixes: (String, String),
    ) -> XbResult<bool> {
        let llayout = self.layouts[&(left, 0)].clone();
        let rlayout = self.layouts[&(right, 0)].clone();

        let dynamic = self.cfg.dynamic_tiling;
        if dynamic {
            // dynamic tiling wants *measured* sizes of both sides: flush if
            // anything upstream is still unexecuted
            if (!self.all_known(meta, &llayout) || !self.all_known(meta, &rlayout))
                && !self.pending.is_empty()
            {
                return Ok(false);
            }
        }

        let lbytes = self.best_bytes(meta, &llayout);
        let rbytes = self.best_bytes(meta, &rlayout);

        // Broadcast decision: with dynamic tiling the sizes are *measured*;
        // `broadcast_from_estimates` engines (Spark-like) decide from
        // source-derived estimates and miss smallness that emerges
        // mid-pipeline. Right side is always a candidate; left side only
        // for inner joins (broadcasting the preserved side of a
        // left/semi/anti join would duplicate unmatched rows).
        if dynamic || self.cfg.broadcast_from_estimates {
            // a broadcast keeps only the big side's chunks as parallel
            // units: don't trade a shuffle for a serial tail
            let min_big_chunks = self.cfg.cluster_parallelism.clamp(1, 4);
            // tiny joins (everything fits one chunk) gain nothing from a
            // shuffle either — join directly
            let tiny = lbytes + rbytes <= self.cfg.chunk_limit_bytes;
            // a broadcast join rebuilds the small side's hash table once
            // per big chunk; it only beats a shuffle when that total work
            // stays below the bytes a shuffle would move
            let cheap = |small: usize, big_chunks: usize| {
                small.saturating_mul(big_chunks) <= lbytes + rbytes
            };
            let broadcast_right = rbytes <= self.cfg.broadcast_threshold_bytes
                && cheap(rbytes, llayout.chunks.len())
                && (tiny || llayout.chunks.len() >= min_big_chunks);
            let broadcast_left = how == JoinType::Inner
                && lbytes <= self.cfg.broadcast_threshold_bytes
                && cheap(lbytes, rlayout.chunks.len())
                && (tiny || rlayout.chunks.len() >= min_big_chunks);
            if broadcast_right || broadcast_left {
                let (small, big, small_is_right) =
                    if broadcast_right && (rbytes <= lbytes || !broadcast_left) {
                        (&rlayout, &llayout, true)
                    } else {
                        (&llayout, &rlayout, false)
                    };
                self.stats.decisions.push(format!(
                    "merge: broadcast {} side ({} B) against {} chunks",
                    if small_is_right { "right" } else { "left" },
                    if small_is_right { rbytes } else { lbytes },
                    big.chunks.len()
                ));
                let small_key = self.tree_combine(
                    keygen,
                    small.keys(),
                    &|| ChunkOp::Concat,
                    ChunkEst {
                        bytes: small.est_bytes(),
                        rows: small.est_rows(),
                        exact: false,
                    },
                );
                let big = self.auto_merge(keygen, meta, big);
                let mut chunks = Vec::with_capacity(big.chunks.len());
                for (r, c) in big.chunks.iter().enumerate() {
                    let out = keygen.next_key();
                    let inputs = if small_is_right {
                        vec![c.key, small_key]
                    } else {
                        vec![small_key, c.key]
                    };
                    self.push_node(ChunkNode {
                        op: ChunkOp::Join {
                            left_on: left_on.clone(),
                            right_on: right_on.clone(),
                            how,
                            suffixes: suffixes.clone(),
                        },
                        inputs,
                        outputs: vec![out],
                    });
                    chunks.push(ChunkRef {
                        key: out,
                        est: ChunkEst {
                            bytes: c.est.bytes,
                            rows: c.est.rows,
                            exact: false,
                        },
                        index: (r, 0),
                    });
                }
                self.layouts.insert((id, 0), Layout { chunks });
                return Ok(true);
            }
        }

        // Shuffle join.
        let p = if dynamic {
            let nchunks = llayout.chunks.len().max(rlayout.chunks.len());
            let by_size = (lbytes + rbytes)
                .div_ceil(self.cfg.chunk_limit_bytes)
                .clamp(1, 64);
            by_size.max(self.cfg.cluster_parallelism.min(nchunks))
        } else {
            self.cfg.shuffle_partitions.max(1)
        };
        self.stats
            .decisions
            .push(format!("merge: shuffle join with {p} partitions"));
        let split = |tiler: &mut Self, keygen: &mut KeyGen, layout: &Layout, on: &[String]| {
            let mut parts: Vec<Vec<ChunkKey>> = vec![Vec::new(); p];
            for c in &layout.chunks {
                let outs = keygen.next_keys(p);
                tiler.push_node(ChunkNode {
                    op: ChunkOp::ShuffleSplit {
                        keys: on.to_vec(),
                        n: p,
                    },
                    inputs: vec![c.key],
                    outputs: outs.clone(),
                });
                for (pi, o) in outs.into_iter().enumerate() {
                    parts[pi].push(o);
                }
            }
            parts
        };
        let lparts = split(self, keygen, &llayout, &left_on);
        let rparts = split(self, keygen, &rlayout, &right_on);
        let mut chunks = Vec::with_capacity(p);
        for pi in 0..p {
            let lcat = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::Concat,
                inputs: lparts[pi].clone(),
                outputs: vec![lcat],
            });
            let rcat = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::Concat,
                inputs: rparts[pi].clone(),
                outputs: vec![rcat],
            });
            let out = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::Join {
                    left_on: left_on.clone(),
                    right_on: right_on.clone(),
                    how,
                    suffixes: suffixes.clone(),
                },
                inputs: vec![lcat, rcat],
                outputs: vec![out],
            });
            chunks.push(ChunkRef {
                key: out,
                est: ChunkEst {
                    bytes: (lbytes + rbytes) / p,
                    rows: (llayout.est_rows() + rlayout.est_rows()) / p,
                    exact: false,
                },
                index: (pi, 0),
            });
        }
        self.layouts.insert((id, 0), Layout { chunks });
        Ok(true)
    }

    fn tile_sort(
        &mut self,
        id: TileableId,
        input: TileableId,
        keygen: &mut KeyGen,
        keys: Vec<(String, bool)>,
    ) {
        // Peephole: a sort whose only consumer is Head(n) becomes a
        // distributed top-k (per-chunk top-k, tree-combined).
        if self.consumer_counts[id] == 1 {
            let consumer = self
                .graph
                .nodes
                .iter()
                .find(|op| op.inputs().contains(&id))
                .cloned();
            if let Some(TileableOp::Head { input: hi, n }) = consumer {
                if hi == id {
                    let layout = self.layouts[&(input, 0)].clone();
                    let mut partials = Vec::new();
                    for c in &layout.chunks {
                        let out = keygen.next_key();
                        self.push_node(ChunkNode {
                            op: ChunkOp::TopKLocal {
                                keys: keys.clone(),
                                n,
                            },
                            inputs: vec![c.key],
                            outputs: vec![out],
                        });
                        partials.push(out);
                    }
                    let final_key = self.tree_combine(
                        keygen,
                        partials,
                        &|| ChunkOp::TopKLocal {
                            keys: keys.clone(),
                            n,
                        },
                        ChunkEst {
                            bytes: 0,
                            rows: n,
                            exact: false,
                        },
                    );
                    self.stats
                        .decisions
                        .push(format!("sort+head -> distributed top-{n}"));
                    self.topk_peephole.insert(id);
                    self.layouts
                        .insert((id, 0), single_chunk_layout(final_key, 0, n, false));
                    return;
                }
            }
        }
        // General path: gather then sort locally.
        let layout = self.layouts[&(input, 0)].clone();
        let gathered = self.tree_combine(
            keygen,
            layout.keys(),
            &|| ChunkOp::Concat,
            ChunkEst {
                bytes: layout.est_bytes(),
                rows: layout.est_rows(),
                exact: false,
            },
        );
        let out = keygen.next_key();
        self.push_node(ChunkNode {
            op: ChunkOp::SortLocal { keys },
            inputs: vec![gathered],
            outputs: vec![out],
        });
        self.layouts.insert(
            (id, 0),
            single_chunk_layout(out, layout.est_bytes(), layout.est_rows(), false),
        );
    }

    fn tile_head(
        &mut self,
        id: TileableId,
        input: TileableId,
        keygen: &mut KeyGen,
        meta: &dyn MetaView,
        n: usize,
    ) -> XbResult<bool> {
        // absorbed into the top-k peephole
        if self.topk_peephole.contains(&input) {
            let layout = self.layouts[&(input, 0)].clone();
            self.layouts.insert((id, 0), layout);
            return Ok(true);
        }
        let layout = self.layouts[&(input, 0)].clone();
        // iterative tiling: need actual lengths unless estimates are exact
        let need_flush = layout.chunks.iter().any(|c| {
            let (_, exact) = self.best_rows_of(meta, c);
            !exact
        });
        if need_flush && !self.pending.is_empty() {
            return Ok(false);
        }
        let mut chunks = Vec::new();
        let mut remaining = n;
        for c in &layout.chunks {
            if remaining == 0 {
                break;
            }
            let (rows, _) = self.best_rows_of(meta, c);
            if rows == 0 {
                continue;
            }
            if rows <= remaining {
                chunks.push(c.clone());
                remaining -= rows;
            } else {
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: ChunkOp::HeadLocal { n: remaining },
                    inputs: vec![c.key],
                    outputs: vec![out],
                });
                chunks.push(ChunkRef {
                    key: out,
                    est: ChunkEst {
                        bytes: c.est.bytes * remaining / rows.max(1),
                        rows: remaining,
                        exact: true,
                    },
                    index: (0, 0),
                });
                remaining = 0;
            }
        }
        for (r, c) in chunks.iter_mut().enumerate() {
            c.index = (r, 0);
        }
        self.layouts.insert((id, 0), Layout { chunks });
        Ok(true)
    }

    fn tile_iloc(
        &mut self,
        id: TileableId,
        input: TileableId,
        keygen: &mut KeyGen,
        meta: &dyn MetaView,
        row: usize,
    ) -> XbResult<bool> {
        let layout = self.layouts[&(input, 0)].clone();
        // the Fig 3c scenario: chunk lengths must be known
        let need_flush = layout.chunks.iter().any(|c| {
            let (_, exact) = self.best_rows_of(meta, c);
            !exact
        });
        if need_flush && !self.pending.is_empty() {
            return Ok(false);
        }
        let mut cum = 0usize;
        for c in &layout.chunks {
            let (rows, _) = self.best_rows_of(meta, c);
            if row < cum + rows {
                let out = keygen.next_key();
                self.push_node(ChunkNode {
                    op: ChunkOp::SliceLocal {
                        offset: row - cum,
                        len: 1,
                    },
                    inputs: vec![c.key],
                    outputs: vec![out],
                });
                self.stats.decisions.push(format!(
                    "iloc[{row}] -> chunk {} offset {}",
                    c.index.0,
                    row - cum
                ));
                self.layouts
                    .insert((id, 0), single_chunk_layout(out, 64, 1, true));
                return Ok(true);
            }
            cum += rows;
        }
        Err(XbError::Kernel(format!(
            "iloc index {row} out of bounds for {cum} rows"
        )))
    }

    fn tile_distinct(
        &mut self,
        id: TileableId,
        input: TileableId,
        keygen: &mut KeyGen,
        meta: &dyn MetaView,
        subset: Option<Vec<String>>,
    ) -> XbResult<bool> {
        let layout = self.layouts[&(input, 0)].clone();
        // dynamic tiling wants measured chunk sizes (for auto merge):
        // flush pending work first
        if self.cfg.dynamic_tiling
            && layout.chunks.len() > 1
            && !self.all_known(meta, &layout)
            && !self.pending.is_empty()
        {
            return Ok(false);
        }
        let layout = self.auto_merge(keygen, meta, &layout);
        let mut partials = Vec::new();
        for c in &layout.chunks {
            let out = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::DistinctLocal {
                    subset: subset.clone(),
                },
                inputs: vec![c.key],
                outputs: vec![out],
            });
            partials.push(out);
        }
        let final_key = self.tree_combine(
            keygen,
            partials,
            &|| ChunkOp::DistinctLocal {
                subset: subset.clone(),
            },
            ChunkEst {
                bytes: layout.est_bytes() / 2,
                rows: layout.est_rows() / 2,
                exact: false,
            },
        );
        self.layouts.insert(
            (id, 0),
            single_chunk_layout(final_key, layout.est_bytes() / 2, 0, false),
        );
        Ok(true)
    }

    // ---- tensor ops -----------------------------------------------------------

    fn tile_tensor_random(
        &mut self,
        id: TileableId,
        keygen: &mut KeyGen,
        shape: &[usize],
        seed: u64,
        normal: bool,
    ) {
        let total_bytes = shape.iter().product::<usize>() * 8;
        let splits = rechunk::row_splits(shape, 8, self.effective_chunk_limit(total_bytes));
        let row_bytes: usize = shape[1..].iter().product::<usize>().max(1) * 8;
        let mut chunks = Vec::with_capacity(splits.len());
        let mut _start = 0usize;
        for (r, &len) in splits.iter().enumerate() {
            let key = keygen.next_key();
            let mut cshape = shape.to_vec();
            cshape[0] = len;
            self.push_node(ChunkNode {
                op: ChunkOp::ArrRandom {
                    shape: cshape,
                    seed: xorbits_array::random::chunk_seed(seed, r as u64),
                    normal,
                },
                inputs: vec![],
                outputs: vec![key],
            });
            chunks.push(ChunkRef {
                key,
                est: ChunkEst {
                    bytes: len * row_bytes,
                    rows: len,
                    exact: true,
                },
                index: (r, 0),
            });
            _start += len;
        }
        self.layouts.insert((id, 0), Layout { chunks });
    }

    /// TSQR (Benson et al.): local QR per tall-skinny block, stack the Rs,
    /// QR the stack, back-multiply the Q factors.
    fn tile_qr(
        &mut self,
        id: TileableId,
        input: TileableId,
        keygen: &mut KeyGen,
    ) -> XbResult<bool> {
        let mut layout = self.layouts[&(input, 0)].clone();
        // Auto rechunk (§V-D): each block must be tall-and-skinny
        // (rows ≥ cols). Infer the column count from the estimates and merge
        // consecutive blocks until the rule holds — this is what frees users
        // from Listing 1's manual `rechunk` calls.
        let cols = layout
            .chunks
            .first()
            .map(|c| {
                (c.est.bytes / 8)
                    .checked_div(c.est.rows.max(1))
                    .unwrap_or(1)
            })
            .unwrap_or(1)
            .max(1);
        if layout.chunks.iter().any(|c| c.est.rows < cols) {
            let mut merged = Layout::default();
            let mut group: Vec<ChunkRef> = Vec::new();
            let mut group_rows = 0usize;
            for c in &layout.chunks {
                group_rows += c.est.rows;
                group.push(c.clone());
                if group_rows >= cols {
                    merged
                        .chunks
                        .push(self.concat_group(keygen, &group, merged.chunks.len()));
                    group.clear();
                    group_rows = 0;
                }
            }
            if !group.is_empty() {
                // fold the remainder into the last block to preserve m ≥ n
                if let Some(last) = merged.chunks.pop() {
                    let mut all = vec![last];
                    all.extend(group);
                    let idx = merged.chunks.len();
                    merged.chunks.push(self.concat_group(keygen, &all, idx));
                } else {
                    merged.chunks.push(self.concat_group(keygen, &group, 0));
                }
            }
            self.stats.decisions.push(format!(
                "qr: auto-rechunked {} blocks -> {} tall-skinny blocks",
                layout.chunks.len(),
                merged.chunks.len()
            ));
            layout = merged;
        }
        let k = layout.chunks.len();
        let mut q_parts = Vec::with_capacity(k);
        let mut r_parts = Vec::with_capacity(k);
        for c in &layout.chunks {
            let (qk, rk) = (keygen.next_key(), keygen.next_key());
            self.push_node(ChunkNode {
                op: ChunkOp::QrLocal,
                inputs: vec![c.key],
                outputs: vec![qk, rk],
            });
            q_parts.push((qk, c.est));
            r_parts.push(rk);
        }
        if k == 1 {
            let (qk, _) = q_parts[0];
            self.layouts.insert(
                (id, 0),
                single_chunk_layout(qk, layout.est_bytes(), layout.est_rows(), true),
            );
            self.layouts
                .insert((id, 1), single_chunk_layout(r_parts[0], 0, 0, true));
            return Ok(true);
        }
        // Stack the k R factors (k·n x n) and QR the stack.
        let stacked = keygen.next_key();
        self.push_node(ChunkNode {
            op: ChunkOp::Concat,
            inputs: r_parts,
            outputs: vec![stacked],
        });
        let (q2, r_final) = (keygen.next_key(), keygen.next_key());
        self.push_node(ChunkNode {
            op: ChunkOp::QrLocal,
            inputs: vec![stacked],
            outputs: vec![q2, r_final],
        });
        // Q_i_final = Q_i @ Q2[i*n:(i+1)*n, :]; n is unknown statically, so
        // the slice uses block index arithmetic at execution time via
        // ArrSliceRows with rows divided evenly by construction: each R_i is
        // n x n, so block i occupies rows [i*n, (i+1)*n). We don't know n
        // here, but the runtime does — encode the block index and count and
        // resolve at execution using the input's shape.
        let mut q_chunks = Vec::with_capacity(k);
        for (r, (qk, est)) in q_parts.iter().enumerate() {
            let sliced = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::ArrSliceBlock {
                    block: r,
                    nblocks: k,
                },
                inputs: vec![q2],
                outputs: vec![sliced],
            });
            let out = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::MatMul,
                inputs: vec![*qk, sliced],
                outputs: vec![out],
            });
            q_chunks.push(ChunkRef {
                key: out,
                est: *est,
                index: (r, 0),
            });
        }
        self.stats
            .decisions
            .push(format!("qr: TSQR over {k} tall-skinny blocks"));
        self.layouts.insert((id, 0), Layout { chunks: q_chunks });
        self.layouts
            .insert((id, 1), single_chunk_layout(r_final, 0, 0, true));
        Ok(true)
    }

    fn tile_lstsq(
        &mut self,
        id: TileableId,
        x: TileableId,
        y: TileableId,
        keygen: &mut KeyGen,
    ) -> XbResult<bool> {
        let lx = self.layouts[&(x, 0)].clone();
        let ly = self.layouts[&(y, 0)].clone();
        if lx.chunks.len() != ly.chunks.len() {
            return Err(XbError::Unsupported(
                "lstsq requires x and y with aligned chunking (rechunk required)".into(),
            ));
        }
        let mut xtx_parts = Vec::new();
        let mut xty_parts = Vec::new();
        for (cx, cy) in lx.chunks.iter().zip(&ly.chunks) {
            let xtx = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::XtX,
                inputs: vec![cx.key],
                outputs: vec![xtx],
            });
            xtx_parts.push(xtx);
            let xty = keygen.next_key();
            self.push_node(ChunkNode {
                op: ChunkOp::XtY,
                inputs: vec![cx.key, cy.key],
                outputs: vec![xty],
            });
            xty_parts.push(xty);
        }
        let small = ChunkEst {
            bytes: 1024,
            rows: 0,
            exact: true,
        };
        let xtx = self.tree_combine(keygen, xtx_parts, &|| ChunkOp::AddN, small);
        let xty = self.tree_combine(keygen, xty_parts, &|| ChunkOp::AddN, small);
        let out = keygen.next_key();
        self.push_node(ChunkNode {
            op: ChunkOp::SolveNe,
            inputs: vec![xtx, xty],
            outputs: vec![out],
        });
        self.layouts
            .insert((id, 0), single_chunk_layout(out, 1024, 0, true));
        Ok(true)
    }
}

fn single_chunk_layout(key: ChunkKey, bytes: usize, rows: usize, exact: bool) -> Layout {
    Layout {
        chunks: vec![ChunkRef {
            key,
            est: ChunkEst { bytes, rows, exact },
            index: (0, 0),
        }],
    }
}

/// Lowers `nunique` specs plus regular specs — helper shared with engines
/// that pre-validate agg support.
pub fn has_nunique(specs: &[xorbits_dataframe::AggSpec]) -> bool {
    specs.iter().any(|s| s.func == AggFunc::Nunique)
}
