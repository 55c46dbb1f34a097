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
//! Every tile rule is a short composition of five building blocks — the
//! §III-C map-combine-reduce stages plus a shuffle — and nothing else
//! constructs a chunk node:
//!
//! * `emit` / `emit_n` — allocate the output keys and push one node; the
//!   single emission point of the file.
//! * `map` — one node per chunk (the *map* stage).
//! * `tree` — fan-in combine down to one chunk, singletons passing through
//!   (the *combine* stage); `gather` is `tree` of `Concat`.
//! * `shuffle` — a `ShuffleSplit` per chunk, the pieces regrouped per
//!   partition in chunk order; `partitions` is its one fan-out rule.
//! * `concat_group` — merge consecutive chunks into one (auto merge and
//!   QR's auto rechunk). A join never reads a `Concat`: its node lists its
//!   pieces (shuffle pieces, a broadcast side's chunks, an auto-merge
//!   group) as they lie.
//!
//! Dynamic decisions implemented here, each driven by *measured* metadata:
//!
//! * **Auto reduce selection** (Fig 6a): a probe runs `GroupbyAgg::map` on
//!   the first chunk; the measured aggregation ratio extrapolates the total
//!   aggregated size, choosing tree-reduce (small) vs shuffle-reduce (large).
//! * **Broadcast vs shuffle join**: measured side sizes pick a broadcast of
//!   the small side's chunks to every big-side chunk (avoiding skewed
//!   shuffles entirely) or a hash shuffle sized from measured bytes.
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
use std::iter::repeat;
use std::sync::Arc;
use xorbits_dataframe::groupby::is_decomposable;
use xorbits_dataframe::{AggSpec, JoinType};

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
/// Its position in the [`Layout`] is its distributed row index (Fig 4).
#[derive(Debug, Clone)]
pub struct ChunkRef {
    /// Storage key.
    pub key: ChunkKey,
    /// Planner estimate.
    pub est: ChunkEst,
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

    /// A single-chunk layout.
    fn one(key: ChunkKey, bytes: usize, rows: usize, exact: bool) -> Layout {
        Layout::zip(vec![key], [ChunkEst { bytes, rows, exact }])
    }

    /// `keys` paired with their estimates, in order.
    fn zip(keys: Vec<ChunkKey>, ests: impl IntoIterator<Item = ChunkEst>) -> Layout {
        let chunks = keys.into_iter().zip(ests);
        Layout {
            chunks: chunks.map(|(key, est)| ChunkRef { key, est }).collect(),
        }
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

/// Best available size of a chunk: measured when executed, the estimate
/// otherwise.
fn best(meta: &dyn MetaView, c: &ChunkRef) -> ChunkEst {
    meta.meta(c.key).map_or(c.est, |m| ChunkEst {
        bytes: m.nbytes,
        rows: m.rows,
        exact: true,
    })
}

/// Size of a group of chunks read as one: a singleton keeps its own
/// estimate, a group sums `size_of` over its chunks.
fn group_est(group: &[ChunkRef], size_of: impl Fn(&ChunkRef) -> ChunkEst) -> ChunkEst {
    if let [only] = group {
        return only.est;
    }
    let mut est = ChunkEst {
        bytes: 0,
        rows: 0,
        exact: true,
    };
    for size in group.iter().map(size_of) {
        est.bytes += size.bytes;
        est.rows += size.rows;
        est.exact &= size.exact;
    }
    est
}

/// Best available size of a layout.
fn best_bytes(meta: &dyn MetaView, layout: &Layout) -> usize {
    layout.chunks.iter().map(|c| best(meta, c).bytes).sum()
}

/// True when every chunk of the layout has executed metadata.
fn all_known(meta: &dyn MetaView, layout: &Layout) -> bool {
    layout.chunks.iter().all(|c| meta.meta(c.key).is_some())
}

/// True when every chunk's length is known: measured, or exact by lineage.
fn rows_known(meta: &dyn MetaView, layout: &Layout) -> bool {
    layout.chunks.iter().all(|c| best(meta, c).exact)
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

/// Per-groupby probe bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ProbeState {
    /// Key of the probe output (the first chunk's map result).
    out_key: ChunkKey,
    /// Key of the probed input chunk.
    in_key: ChunkKey,
}

/// The resumable tiler. Borrows the session's [`KeyGen`] for its lifetime.
pub struct Tiler<'g> {
    graph: &'g TileableGraph,
    cfg: XorbitsConfig,
    keygen: &'g mut KeyGen,
    layouts: HashMap<(TileableId, usize), Layout>,
    cursor: usize,
    pending: ChunkGraph,
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
    pub fn new(graph: &'g TileableGraph, cfg: XorbitsConfig, keygen: &'g mut KeyGen) -> Tiler<'g> {
        let consumer_counts = graph.consumer_counts();
        Tiler {
            graph,
            cfg,
            keygen,
            layouts: HashMap::new(),
            cursor: 0,
            pending: ChunkGraph::new(),
            probes: HashMap::new(),
            topk_peephole: HashSet::new(),
            remaining_consumers: consumer_counts.clone(),
            consumer_counts,
            releasable: Vec::new(),
            stats: TilingStats::default(),
        }
    }

    /// Final layout of a tileable (valid once tiling passed it).
    pub fn layout(&self, id: TileableId) -> XbResult<&Layout> {
        self.layouts
            .get(&(id, 0))
            .ok_or_else(|| XbError::Plan(format!("tileable {id} not tiled yet")))
    }

    /// Decrements remaining-consumer counts of `id`'s inputs; inputs whose
    /// last consumer was just tiled have their chunk keys queued for
    /// release (unless another live layout still references them, e.g.
    /// pass-through chunks of `head`/`concat`).
    fn mark_consumed(&mut self, id: TileableId) {
        let mut newly_dead = Vec::new();
        for &t in &self.graph.nodes[id].inputs {
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
    /// The session has these published by whichever subtask produces them.
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
    pub fn step(&mut self, meta: &dyn MetaView) -> XbResult<TileStep> {
        while self.cursor < self.graph.len() {
            let id = self.cursor;
            match self.tile_one(id, meta)? {
                Some(layout) => {
                    self.layouts.insert((id, 0), layout);
                    self.cursor += 1;
                    self.mark_consumed(id);
                }
                None => {
                    // flush requested: hand the pending prefix to the runtime
                    self.stats.yields += 1;
                    return Ok(TileStep::Execute(std::mem::take(&mut self.pending)));
                }
            }
        }
        Ok(TileStep::Done(std::mem::take(&mut self.pending)))
    }

    // ---- the building blocks ------------------------------------------------

    /// Allocates `n` output keys and pushes the node producing them — the
    /// one place a chunk node is made.
    fn emit_n(&mut self, op: ChunkOp, inputs: Vec<ChunkKey>, n: usize) -> Vec<ChunkKey> {
        let outputs = self.keygen.next_keys(n);
        self.pending.push(ChunkNode {
            op,
            inputs,
            outputs: outputs.clone(),
        });
        outputs
    }

    /// [`Self::emit_n`] for the usual single-output node.
    fn emit(&mut self, op: ChunkOp, inputs: Vec<ChunkKey>) -> ChunkKey {
        self.emit_n(op, inputs, 1)[0]
    }

    /// Map stage: one `op()` node per chunk.
    fn map(&mut self, keys: &[ChunkKey], op: impl Fn() -> ChunkOp) -> Vec<ChunkKey> {
        keys.iter().map(|&k| self.emit(op(), vec![k])).collect()
    }

    /// Combine stage: tree-combines `keys` down to a single chunk using
    /// `op()` nodes with the configured fan-in. A key alone in its batch
    /// passes through to the next level.
    fn tree(&mut self, mut keys: Vec<ChunkKey>, op: impl Fn() -> ChunkOp) -> ChunkKey {
        let fanin = self.cfg.combine_fanin.max(2);
        while keys.len() > 1 {
            keys = keys
                .chunks(fanin)
                .map(|batch| match batch {
                    [only] => *only,
                    _ => self.emit(op(), batch.to_vec()),
                })
                .collect();
        }
        keys[0]
    }

    /// Funnels a whole layout into one chunk.
    fn gather(&mut self, layout: &Layout) -> ChunkKey {
        self.tree(layout.keys(), || ChunkOp::Concat)
    }

    /// Hash-partitions every chunk into `p` pieces by `on`; returns, per
    /// partition, its pieces in chunk order.
    fn shuffle(&mut self, keys: Vec<ChunkKey>, on: &[String], p: usize) -> Vec<Vec<ChunkKey>> {
        let mut parts: Vec<Vec<ChunkKey>> = vec![Vec::new(); p];
        for k in keys {
            let split = ChunkOp::ShuffleSplit {
                keys: on.to_vec(),
                n: p,
            };
            for (part, piece) in parts.iter_mut().zip(self.emit_n(split, vec![k], p)) {
                part.push(piece);
            }
        }
        parts
    }

    /// Shuffle fan-out: from measured (dynamic) or configured (static)
    /// sizes. Dynamic tiling never fans out below the cluster's parallelism
    /// (bounded by the available input chunks).
    fn partitions(&self, bytes: usize, nchunks: usize) -> usize {
        if !self.cfg.dynamic_tiling {
            return self.cfg.shuffle_partitions.max(1);
        }
        let by_size = bytes.div_ceil(self.cfg.chunk_limit_bytes).clamp(1, 64);
        by_size.max(self.cfg.cluster_parallelism.min(nchunks))
    }

    /// Concatenates a group of chunks into one sized by
    /// [`group_est`]; passthrough for singletons.
    fn concat_group(
        &mut self,
        group: &[ChunkRef],
        size_of: impl Fn(&ChunkRef) -> ChunkEst,
    ) -> ChunkRef {
        if let [only] = group {
            return only.clone();
        }
        let key = self.emit(ChunkOp::Concat, group.iter().map(|c| c.key).collect());
        let est = group_est(group, size_of);
        ChunkRef { key, est }
    }

    /// Auto merge's grouping (Fig 6b): when measured chunks shrank far
    /// below the chunk limit, runs of consecutive chunks that fit it
    /// together, at most `combine_fanin` each. `None` when nothing merges.
    fn merge_groups(&mut self, meta: &dyn MetaView, layout: &Layout) -> Option<Vec<Vec<ChunkRef>>> {
        let n = layout.chunks.len();
        // only merge when sizes are actually known
        if !self.cfg.dynamic_tiling || n <= 1 || !all_known(meta, layout) {
            return None;
        }
        let limit = self.cfg.chunk_limit_bytes;
        // engage only for genuinely small chunks (Fig 6b's "numerous small
        // chunks"); re-concatenating healthy chunks is a pure copy cost
        if best_bytes(meta, layout) / n >= limit / 4 {
            return None;
        }
        let fanin = self.cfg.combine_fanin.max(2);
        let mut groups: Vec<Vec<ChunkRef>> = Vec::new();
        let mut group_bytes = 0usize;
        for c in &layout.chunks {
            let b = best(meta, c).bytes;
            match groups.last_mut() {
                Some(g) if group_bytes + b <= limit && g.len() < fanin => {
                    g.push(c.clone());
                    group_bytes += b;
                }
                _ => {
                    groups.push(vec![c.clone()]);
                    group_bytes = b;
                }
            }
        }
        if groups.len() == n {
            return None; // nothing to merge
        }
        self.stats
            .decisions
            .push(format!("auto-merge: {n} chunks -> {}", groups.len()));
        Some(groups)
    }

    /// Auto merge (Fig 6b): each group of [`Self::merge_groups`]
    /// concatenated back into one chunk, for stages that read one chunk.
    fn auto_merge(&mut self, meta: &dyn MetaView, layout: &Layout) -> Layout {
        let Some(groups) = self.merge_groups(meta, layout) else {
            return layout.clone();
        };
        let chunks = groups
            .iter()
            .map(|g| self.concat_group(g, |c| best(meta, c)))
            .collect();
        Layout { chunks }
    }

    /// Layout of an input tileable (inputs are tiled before their consumers).
    fn input(&self, id: TileableId) -> XbResult<Layout> {
        self.layout(id).cloned()
    }

    // ---- the per-op tile dispatch ---------------------------------------------
    //
    // Returns the tileable's layout once it is fully tiled, `None` when the
    // pending graph must be flushed first (the `yield`).

    fn tile_one(&mut self, id: TileableId, meta: &dyn MetaView) -> XbResult<Option<Layout>> {
        // `TileableGraph::push` checked that the operator has the inputs it
        // reads, so the positional indexing below cannot miss
        let node = self.graph.nodes[id].clone();
        let ins = &node.inputs[..];
        let layout = match node.op {
            TileableOp::DfSource(src) => self.tile_df_source(&src),
            TileableOp::DfMap(step) => self.tile_df_map(ins[0], step)?,
            TileableOp::GroupbyAgg { keys, specs } => {
                return self.tile_groupby(id, ins[0], meta, keys, specs)
            }
            TileableOp::Merge {
                left_on,
                right_on,
                how,
                suffixes,
            } => {
                let join = |left_inputs| ChunkOp::Join {
                    left_inputs,
                    left_on: left_on.clone(),
                    right_on: right_on.clone(),
                    how,
                    suffixes: suffixes.clone(),
                };
                let (left, right) = ((ins[0], &left_on[..]), (ins[1], &right_on[..]));
                return self.tile_merge(meta, left, right, how, join);
            }
            TileableOp::SortValues { keys } => self.tile_sort(id, ins[0], keys)?,
            TileableOp::Head { n } => return self.tile_head(ins[0], meta, n),
            TileableOp::ILocRow { row } => return self.tile_iloc(ins[0], meta, row),
            TileableOp::DropDuplicates { subset } => {
                return self.tile_distinct(ins[0], meta, subset)
            }
            TileableOp::ConcatDf => {
                let mut chunks = Vec::new();
                for &i in ins {
                    chunks.extend(self.input(i)?.chunks);
                }
                Layout { chunks }
            }
            TileableOp::PivotTable {
                index,
                columns,
                values,
                agg,
            } => {
                let layout = self.input(ins[0])?;
                let pivot = ChunkOp::PivotLocal {
                    index,
                    columns,
                    values,
                    agg,
                };
                let out = self.emit(pivot, layout.keys());
                Layout::one(out, layout.est_bytes() / 2, 0, false)
            }
            TileableOp::TensorRandom {
                shape,
                seed,
                normal,
            } => self.tile_tensor_random(&shape, seed, normal),
            TileableOp::TensorFromArr(a) => {
                let (bytes, rows) = (a.nbytes(), a.shape().first().copied().unwrap_or(0));
                let out = self.emit(ChunkOp::ArrLiteral(a), vec![]);
                Layout::one(out, bytes, rows, true)
            }
            TileableOp::TensorMap(step) => {
                let layout = self.input(ins[0])?;
                let outs = self.map(&layout.keys(), || ChunkOp::ArrMap(step));
                Layout::zip(outs, layout.chunks.iter().map(|c| c.est))
            }
            TileableOp::TensorBinary { op } => {
                let (la, lb) = (self.input(ins[0])?, self.input(ins[1])?);
                let rhs: Vec<ChunkKey> = if let [single] = &lb.chunks[..] {
                    vec![single.key; la.chunks.len()]
                } else if la.chunks.len() == lb.chunks.len()
                    && la
                        .chunks
                        .iter()
                        .zip(&lb.chunks)
                        .all(|(x, y)| x.est.rows == y.est.rows)
                {
                    lb.keys()
                } else {
                    return Err(XbError::Unsupported(
                        "tensor binary op on incompatible chunkings (rechunk required)".into(),
                    ));
                };
                let pairs = la.chunks.iter().zip(rhs);
                let outs = pairs
                    .map(|(c, r)| self.emit(ChunkOp::ArrBinary(op), vec![c.key, r]))
                    .collect();
                Layout::zip(outs, la.chunks.iter().map(|c| c.est))
            }
            TileableOp::TensorMatMul => {
                let (la, lb) = (self.input(ins[0])?, self.input(ins[1])?);
                let [rhs] = &lb.chunks[..] else {
                    return Err(XbError::Unsupported(
                        "matmul requires a single-chunk right operand (rechunk required)".into(),
                    ));
                };
                let products = la.chunks.iter().map(|c| ChunkRef {
                    key: self.emit(ChunkOp::MatMul, vec![c.key, rhs.key]),
                    est: ChunkEst {
                        bytes: c.est.rows.max(1) * 8,
                        ..c.est
                    },
                });
                Layout {
                    chunks: products.collect(),
                }
            }
            TileableOp::TensorQr => self.tile_qr(id, ins[0])?,
            // a projection of a multi-output tileable emits nothing: it
            // aliases the slot's layout
            TileableOp::TensorSlot { slot } => {
                let input = ins[0];
                let layout = self.layouts.get(&(input, slot)).cloned();
                layout.ok_or_else(|| {
                    XbError::Plan(format!("tileable {input} has no output slot {slot}"))
                })?
            }
            TileableOp::TensorReduce { kind } => {
                let keys = self.input(ins[0])?.keys();
                let partials = self.map(&keys, || ChunkOp::ReducePartial { kind });
                let combined = self.tree(partials, || ChunkOp::ReduceCombine { kind });
                let out = self.emit(ChunkOp::ReduceFinal { kind }, vec![combined]);
                Layout::one(out, 8, 1, true)
            }
            TileableOp::TensorLstsq => self.tile_lstsq(ins[0], ins[1])?,
        };
        Ok(Some(layout))
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

    fn tile_df_source(&mut self, src: &DfSource) -> Layout {
        let rows = src.rows();
        let bytes = src.est_bytes().max(1);
        let bytes_per_row = (bytes / rows.max(1)).max(1);
        let chunk_rows = (self.effective_chunk_limit(bytes) / bytes_per_row).max(1);
        let nchunks = rows.div_ceil(chunk_rows).max(1);
        let mut chunks = Vec::with_capacity(nchunks);
        for r in 0..nchunks {
            let start = r * chunk_rows;
            let len = chunk_rows.min(rows - start);
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
            let est = ChunkEst {
                bytes: len * bytes_per_row,
                rows: len,
                exact: true,
            };
            chunks.push(ChunkRef {
                key: self.emit(op, vec![]),
                est,
            });
        }
        Layout { chunks }
    }

    fn tile_df_map(&mut self, input: TileableId, step: DfStep) -> XbResult<Layout> {
        let layout = self.input(input)?;
        let outs = self.map(&layout.keys(), || ChunkOp::DfMap(step.clone()));
        let ests = layout.chunks.iter().map(|c| ChunkEst {
            exact: c.est.exact && step.keeps_rows(),
            ..c.est
        });
        Ok(Layout::zip(outs, ests))
    }

    fn tile_groupby(
        &mut self,
        id: TileableId,
        input: TileableId,
        meta: &dyn MetaView,
        keys: Vec<String>,
        specs: Vec<AggSpec>,
    ) -> XbResult<Option<Layout>> {
        let layout = self.input(input)?;
        // the four stages all carry the group keys and the agg specs
        let stage =
            |make: fn(Vec<String>, Vec<AggSpec>) -> ChunkOp| make(keys.clone(), specs.clone());
        let direct = || stage(|keys, specs| ChunkOp::GroupbyDirect { keys, specs });
        let map = || stage(|keys, specs| ChunkOp::GroupbyMap { keys, specs });
        let combine = || stage(|keys, specs| ChunkOp::GroupbyCombine { keys, specs });
        let finalize = || stage(|keys, specs| ChunkOp::GroupbyFinalize { keys, specs });
        let half = layout.est_bytes() / 2;

        // nunique (not column-decomposable): every group's rows must meet in
        // one place, so shuffle by key and aggregate each partition
        // directly. A gather would funnel the whole input to one worker —
        // exactly the combine-stage anti-pattern the paper warns about.
        if !is_decomposable(&specs) {
            if keys.is_empty() || layout.chunks.len() == 1 {
                // whole-frame agg or single chunk: direct
                let gathered = self.gather(&layout);
                let out = self.emit(direct(), vec![gathered]);
                return Ok(Some(Layout::one(out, half, 0, false)));
            }
            let total = best_bytes(meta, &layout);
            let p = self.partitions(total, layout.chunks.len());
            self.stats.decisions.push(format!(
                "groupby: nunique -> shuffle+direct ({p} partitions)"
            ));
            let parts = self.shuffle(layout.keys(), &keys, p);
            let outs = parts.into_iter().map(|part| self.emit(direct(), part));
            let est = ChunkEst {
                bytes: total / (2 * p),
                rows: 0,
                exact: false,
            };
            return Ok(Some(Layout::zip(outs.collect(), repeat(est))));
        }

        // Single chunk: trivial map+finalize.
        if let [only] = &layout.chunks[..] {
            let mapped = self.emit(map(), vec![only.key]);
            let out = self.emit(finalize(), vec![mapped]);
            return Ok(Some(Layout::one(out, half, 0, false)));
        }

        let dynamic = self.cfg.dynamic_tiling && !keys.is_empty();

        // Dynamic path: probe the first chunk's map output to measure the
        // aggregation ratio (Fig 6a).
        let (est_total_agg, probe) = if dynamic {
            let Some(probe) = self.probes.get(&id).copied() else {
                let in_key = layout.chunks[0].key;
                // input chunk itself must be executed first
                if meta.meta(in_key).is_none() {
                    if !self.pending.is_empty() {
                        return Ok(None); // flush, then retry
                    }
                    return Err(XbError::Plan(format!(
                        "probe input chunk {in_key} missing from meta service"
                    )));
                }
                let out_key = self.emit(map(), vec![in_key]);
                self.probes.insert(id, ProbeState { out_key, in_key });
                self.stats.probes += 1;
                return Ok(None); // flush to run the probe
            };
            let measured = |key, what: &str| {
                meta.meta(key)
                    .ok_or_else(|| XbError::Plan(format!("probe {what} missing from meta service")))
            };
            let probe_out = measured(probe.out_key, "output")?;
            let probe_in = measured(probe.in_key, "input")?;
            let ratio = probe_out.nbytes as f64 / probe_in.nbytes.max(1) as f64;
            let total_in = best_bytes(meta, &layout) as f64;
            ((ratio * total_in) as usize, Some(probe))
        } else {
            // static estimate: aggregated size assumed proportional to input
            (layout.est_bytes(), None)
        };

        // auto-merge small input chunks before the map stage
        let layout = if dynamic {
            self.auto_merge(meta, &layout)
        } else {
            layout
        };

        // Map stage over every chunk; the probe's output is reused for the
        // probed chunk ("tile the remaining chunks with metadata") — only
        // if auto-merge kept chunk 0 intact.
        let reused = probe.filter(|p| p.in_key == layout.chunks[0].key);
        let mut map_keys: Vec<ChunkKey> = reused.iter().map(|p| p.out_key).collect();
        map_keys.extend(self.map(&layout.keys()[map_keys.len()..], map));

        let threshold = self.cfg.tree_reduce_threshold_bytes;
        if keys.is_empty() || (dynamic && est_total_agg <= threshold) {
            self.stats.decisions.push(format!(
                "groupby: tree-reduce (est agg {est_total_agg} B <= {threshold} B)"
            ));
            let combined = self.tree(map_keys, combine);
            let out = self.emit(finalize(), vec![combined]);
            return Ok(Some(Layout::one(out, est_total_agg, 0, false)));
        }
        // shuffle-reduce
        let p = self.partitions(est_total_agg, layout.chunks.len());
        self.stats.decisions.push(format!(
            "groupby: shuffle-reduce with {p} partitions (est agg {est_total_agg} B)"
        ));
        let parts = self.shuffle(map_keys, &keys, p);
        let outs = parts.into_iter().map(|part| self.emit(finalize(), part));
        let est = ChunkEst {
            bytes: est_total_agg / p,
            rows: 0,
            exact: false,
        };
        Ok(Some(Layout::zip(outs.collect(), repeat(est))))
    }

    fn tile_merge(
        &mut self,
        meta: &dyn MetaView,
        (left, left_on): (TileableId, &[String]),
        (right, right_on): (TileableId, &[String]),
        how: JoinType,
        join: impl Fn(usize) -> ChunkOp,
    ) -> XbResult<Option<Layout>> {
        let (llayout, rlayout) = (self.input(left)?, self.input(right)?);
        let dynamic = self.cfg.dynamic_tiling;
        // dynamic tiling wants *measured* sizes of both sides: flush if
        // anything upstream is still unexecuted
        if dynamic
            && !(all_known(meta, &llayout) && all_known(meta, &rlayout))
            && !self.pending.is_empty()
        {
            return Ok(None);
        }
        let lbytes = best_bytes(meta, &llayout);
        let rbytes = best_bytes(meta, &rlayout);

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
            let pays = |small: usize, big: &Layout| {
                small <= self.cfg.broadcast_threshold_bytes
                    && small.saturating_mul(big.chunks.len()) <= lbytes + rbytes
                    && (tiny || big.chunks.len() >= min_big_chunks)
            };
            let broadcast_right = pays(rbytes, &llayout);
            let broadcast_left = how == JoinType::Inner && pays(lbytes, &rlayout);
            if broadcast_right || broadcast_left {
                let small_is_right = broadcast_right && (rbytes <= lbytes || !broadcast_left);
                let (small, big, side, small_bytes) = if small_is_right {
                    (&rlayout, &llayout, "right", rbytes)
                } else {
                    (&llayout, &rlayout, "left", lbytes)
                };
                self.stats.decisions.push(format!(
                    "merge: broadcast {side} side ({small_bytes} B) against {} chunks",
                    big.chunks.len()
                ));
                // every join reads all of the small side's pieces and one
                // auto-merge group of the big side's, as they lie
                let groups = self
                    .merge_groups(meta, big)
                    .unwrap_or_else(|| big.chunks.iter().map(|c| vec![c.clone()]).collect());
                let mut outs = Vec::with_capacity(groups.len());
                for group in &groups {
                    let big_keys = group.iter().map(|c| c.key);
                    let small_keys = small.chunks.iter().map(|c| c.key);
                    let (inputs, left_inputs) = match small_is_right {
                        true => (big_keys.chain(small_keys).collect(), group.len()),
                        false => (small_keys.chain(big_keys).collect(), small.chunks.len()),
                    };
                    outs.push(self.emit(join(left_inputs), inputs));
                }
                let ests = groups.iter().map(|g| ChunkEst {
                    exact: false,
                    ..group_est(g, |c| best(meta, c))
                });
                return Ok(Some(Layout::zip(outs, ests)));
            }
        }

        // Shuffle join.
        let nchunks = llayout.chunks.len().max(rlayout.chunks.len());
        let p = self.partitions(lbytes + rbytes, nchunks);
        self.stats
            .decisions
            .push(format!("merge: shuffle join with {p} partitions"));
        let lparts = self.shuffle(llayout.keys(), left_on, p);
        let rparts = self.shuffle(rlayout.keys(), right_on, p);
        // a partition's join reads its shuffle pieces as they lie
        let outs = lparts
            .into_iter()
            .zip(rparts)
            .map(|(lpart, rpart)| self.emit(join(lpart.len()), [lpart, rpart].concat()));
        let est = ChunkEst {
            bytes: (lbytes + rbytes) / p,
            rows: (llayout.est_rows() + rlayout.est_rows()) / p,
            exact: false,
        };
        Ok(Some(Layout::zip(outs.collect(), repeat(est))))
    }

    fn tile_sort(
        &mut self,
        id: TileableId,
        input: TileableId,
        keys: Vec<(String, bool)>,
    ) -> XbResult<Layout> {
        let layout = self.input(input)?;
        // Peephole: a sort whose only consumer is Head(n) becomes a
        // distributed top-k (per-chunk top-k, tree-combined).
        if self.consumer_counts[id] == 1 {
            let consumer = self.graph.nodes.iter().find(|c| c.inputs.contains(&id));
            if let Some(&TileableOp::Head { n }) = consumer.map(|c| &c.op) {
                let topk = || ChunkOp::TopKLocal {
                    keys: keys.clone(),
                    n,
                };
                let partials = self.map(&layout.keys(), topk);
                let out = self.tree(partials, topk);
                self.stats
                    .decisions
                    .push(format!("sort+head -> distributed top-{n}"));
                self.topk_peephole.insert(id);
                return Ok(Layout::one(out, 0, n, false));
            }
        }
        // General path: gather then sort locally.
        let gathered = self.gather(&layout);
        let out = self.emit(ChunkOp::SortLocal { keys }, vec![gathered]);
        Ok(Layout::one(
            out,
            layout.est_bytes(),
            layout.est_rows(),
            false,
        ))
    }

    fn tile_head(
        &mut self,
        input: TileableId,
        meta: &dyn MetaView,
        n: usize,
    ) -> XbResult<Option<Layout>> {
        let layout = self.input(input)?;
        // absorbed into the top-k peephole
        if self.topk_peephole.contains(&input) {
            return Ok(Some(layout));
        }
        // iterative tiling: need actual lengths unless estimates are exact
        if !rows_known(meta, &layout) && !self.pending.is_empty() {
            return Ok(None);
        }
        let mut chunks = Vec::new();
        let mut remaining = n;
        for c in &layout.chunks {
            let rows = best(meta, c).rows;
            if remaining == 0 {
                break;
            } else if rows == 0 {
                continue;
            } else if rows <= remaining {
                chunks.push(c.clone());
                remaining -= rows;
            } else {
                let est = ChunkEst {
                    bytes: c.est.bytes * remaining / rows,
                    rows: remaining,
                    exact: true,
                };
                chunks.push(ChunkRef {
                    key: self.emit(ChunkOp::HeadLocal { n: remaining }, vec![c.key]),
                    est,
                });
                remaining = 0;
            }
        }
        if chunks.is_empty() {
            // no row selected: one empty chunk that carries the schema
            let key = self.emit(ChunkOp::HeadLocal { n: 0 }, vec![layout.chunks[0].key]);
            return Ok(Some(Layout::one(key, 0, 0, true)));
        }
        Ok(Some(Layout { chunks }))
    }

    fn tile_iloc(
        &mut self,
        input: TileableId,
        meta: &dyn MetaView,
        row: usize,
    ) -> XbResult<Option<Layout>> {
        let layout = self.input(input)?;
        // the Fig 3c scenario: chunk lengths must be known
        if !rows_known(meta, &layout) && !self.pending.is_empty() {
            return Ok(None);
        }
        let mut cum = 0usize;
        for (r, c) in layout.chunks.iter().enumerate() {
            let rows = best(meta, c).rows;
            if row < cum + rows {
                let offset = row - cum;
                let out = self.emit(ChunkOp::SliceLocal { offset, len: 1 }, vec![c.key]);
                self.stats
                    .decisions
                    .push(format!("iloc[{row}] -> chunk {r} offset {offset}"));
                return Ok(Some(Layout::one(out, 64, 1, true)));
            }
            cum += rows;
        }
        Err(XbError::Kernel(format!(
            "iloc index {row} out of bounds for {cum} rows"
        )))
    }

    fn tile_distinct(
        &mut self,
        input: TileableId,
        meta: &dyn MetaView,
        subset: Option<Vec<String>>,
    ) -> XbResult<Option<Layout>> {
        let layout = self.input(input)?;
        // dynamic tiling wants measured chunk sizes (for auto merge):
        // flush pending work first
        if self.cfg.dynamic_tiling
            && layout.chunks.len() > 1
            && !all_known(meta, &layout)
            && !self.pending.is_empty()
        {
            return Ok(None);
        }
        let layout = self.auto_merge(meta, &layout);
        let distinct = || ChunkOp::DistinctLocal {
            subset: subset.clone(),
        };
        let partials = self.map(&layout.keys(), distinct);
        let out = self.tree(partials, distinct);
        Ok(Some(Layout::one(out, layout.est_bytes() / 2, 0, false)))
    }

    // ---- tensor ops -----------------------------------------------------------

    fn tile_tensor_random(&mut self, shape: &[usize], seed: u64, normal: bool) -> Layout {
        let total_bytes = shape.iter().product::<usize>() * 8;
        let splits = rechunk::row_splits(shape, 8, self.effective_chunk_limit(total_bytes));
        let row_bytes: usize = shape[1..].iter().product::<usize>().max(1) * 8;
        let mut keys = Vec::with_capacity(splits.len());
        for (r, &len) in splits.iter().enumerate() {
            let mut cshape = shape.to_vec();
            cshape[0] = len;
            let random = ChunkOp::ArrRandom {
                shape: cshape,
                seed: xorbits_array::random::chunk_seed(seed, r as u64),
                normal,
            };
            keys.push(self.emit(random, vec![]));
        }
        let ests = splits.iter().map(|&len| ChunkEst {
            bytes: len * row_bytes,
            rows: len,
            exact: true,
        });
        Layout::zip(keys, ests)
    }

    /// TSQR (Benson et al.): local QR per tall-skinny block, stack the Rs,
    /// QR the stack, back-multiply the Q factors. Returns Q's layout and
    /// records R's as output slot 1.
    fn tile_qr(&mut self, id: TileableId, input: TileableId) -> XbResult<Layout> {
        let mut layout = self.input(input)?;
        // Auto rechunk (§V-D): each block must be tall-and-skinny
        // (rows ≥ cols). Infer the column count from the estimates and merge
        // consecutive blocks until the rule holds — this is what frees users
        // from Listing 1's manual `rechunk` calls.
        let first = layout.chunks.first().map(|c| c.est);
        let cols = first.map_or(1, |e| e.bytes / 8 / e.rows.max(1)).max(1);
        if layout.chunks.iter().any(|c| c.est.rows < cols) {
            let mut merged: Vec<ChunkRef> = Vec::new();
            let mut group: Vec<ChunkRef> = Vec::new();
            let mut group_rows = 0usize;
            for c in &layout.chunks {
                group.push(c.clone());
                group_rows += c.est.rows;
                if group_rows >= cols {
                    merged.push(self.concat_group(&std::mem::take(&mut group), |c| c.est));
                    group_rows = 0;
                }
            }
            if !group.is_empty() {
                // fold the remainder into the last (already emitted) block
                // to preserve m ≥ n
                group.splice(0..0, merged.pop());
                merged.push(self.concat_group(&group, |c| c.est));
            }
            self.stats.decisions.push(format!(
                "qr: auto-rechunked {} blocks -> {} tall-skinny blocks",
                layout.chunks.len(),
                merged.len()
            ));
            layout = Layout { chunks: merged };
        }
        let k = layout.chunks.len();
        let mut q_parts = Vec::with_capacity(k);
        let mut r_parts = Vec::with_capacity(k);
        for c in &layout.chunks {
            let qr = self.emit_n(ChunkOp::QrLocal, vec![c.key], 2);
            q_parts.push(qr[0]);
            r_parts.push(qr[1]);
        }
        if k == 1 {
            self.layouts
                .insert((id, 1), Layout::one(r_parts[0], 0, 0, true));
            return Ok(Layout::one(
                q_parts[0],
                layout.est_bytes(),
                layout.est_rows(),
                true,
            ));
        }
        // Stack the k R factors (k·n x n) and QR the stack.
        let stacked = self.emit(ChunkOp::Concat, r_parts);
        let qr = self.emit_n(ChunkOp::QrLocal, vec![stacked], 2);
        // Q_i_final = Q_i @ Q2[i*n:(i+1)*n, :]. Each R_i is n x n, so block
        // i of the stack's Q occupies rows [i*n, (i+1)*n); n is unknown
        // statically, so the slice carries the block index and count and
        // resolves against the input's shape at execution time.
        let mut q_keys = Vec::with_capacity(k);
        for (block, qk) in q_parts.into_iter().enumerate() {
            let slice = ChunkOp::ArrSliceBlock { block, nblocks: k };
            let sliced = self.emit(slice, vec![qr[0]]);
            q_keys.push(self.emit(ChunkOp::MatMul, vec![qk, sliced]));
        }
        self.stats
            .decisions
            .push(format!("qr: TSQR over {k} tall-skinny blocks"));
        self.layouts.insert((id, 1), Layout::one(qr[1], 0, 0, true));
        Ok(Layout::zip(q_keys, layout.chunks.iter().map(|c| c.est)))
    }

    fn tile_lstsq(&mut self, x: TileableId, y: TileableId) -> XbResult<Layout> {
        let (lx, ly) = (self.input(x)?, self.input(y)?);
        if lx.chunks.len() != ly.chunks.len() {
            return Err(XbError::Unsupported(
                "lstsq requires x and y with aligned chunking (rechunk required)".into(),
            ));
        }
        let mut xtx_parts = Vec::new();
        let mut xty_parts = Vec::new();
        for (cx, cy) in lx.chunks.iter().zip(&ly.chunks) {
            xtx_parts.push(self.emit(ChunkOp::XtX, vec![cx.key]));
            xty_parts.push(self.emit(ChunkOp::XtY, vec![cx.key, cy.key]));
        }
        let xtx = self.tree(xtx_parts, || ChunkOp::AddN);
        let xty = self.tree(xty_parts, || ChunkOp::AddN);
        let out = self.emit(ChunkOp::SolveNe, vec![xtx, xty]);
        Ok(Layout::one(out, 1024, 0, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{AggFunc, Column, DataFrame};

    fn cfg() -> XorbitsConfig {
        XorbitsConfig {
            chunk_limit_bytes: 1000,
            combine_fanin: 4,
            cluster_parallelism: 8,
            ..Default::default()
        }
    }

    /// Runs `f` on a tiler over `graph`.
    fn with_tiler<R>(
        graph: &TileableGraph,
        cfg: XorbitsConfig,
        f: impl FnOnce(&mut Tiler) -> R,
    ) -> R {
        let mut keygen = KeyGen::new();
        f(&mut Tiler::new(graph, cfg, &mut keygen))
    }

    /// Runs `f` on a tiler over no tileables: the blocks need none.
    fn with_blocks<R>(cfg: XorbitsConfig, f: impl FnOnce(&mut Tiler) -> R) -> R {
        with_tiler(&TileableGraph::new(), cfg, f)
    }

    fn layout_of(sizes: &[usize]) -> (Layout, HashMap<ChunkKey, ChunkMeta>) {
        let keys: Vec<ChunkKey> = (500..500 + sizes.len() as u64).collect();
        let unknown = ChunkEst {
            bytes: 0,
            rows: 0,
            exact: false,
        };
        let metas = keys.iter().zip(sizes).map(|(&k, &nbytes)| {
            let rows = nbytes / 10;
            (k, ChunkMeta { nbytes, rows })
        });
        (Layout::zip(keys.clone(), repeat(unknown)), metas.collect())
    }

    #[test]
    fn tree_combines_at_the_fan_in_and_passes_singletons_through() {
        for (n, nodes) in [(1u64, 0), (4, 1), (5, 2), (17, 6)] {
            with_blocks(cfg(), |t| {
                let keys: Vec<ChunkKey> = (100..100 + n).collect();
                let root = t.tree(keys.clone(), || ChunkOp::AddN);
                assert_eq!(t.pending.len(), nodes, "{n} keys");
                let Some(last) = t.pending.nodes.last() else {
                    // one key: no node, the key itself
                    return assert_eq!(root, keys[0]);
                };
                assert_eq!(last.outputs, [root]);
                assert!(t.pending.validate_topological().is_ok());
                // every leaf and every intermediate is combined exactly once
                let mut consumed: Vec<ChunkKey> = t
                    .pending
                    .nodes
                    .iter()
                    .flat_map(|node| {
                        assert!((2..=4).contains(&node.inputs.len()), "{n} keys");
                        node.inputs.clone()
                    })
                    .collect();
                consumed.sort_unstable();
                let mut expected = keys.clone();
                expected.extend(t.pending.nodes.iter().flat_map(|node| &node.outputs));
                expected.retain(|&k| k != root);
                expected.sort_unstable();
                assert_eq!(consumed, expected, "{n} keys");
            });
        }
        // five keys: the fifth is alone in its batch and skips a level
        with_blocks(cfg(), |t| {
            t.tree((100..105).collect(), || ChunkOp::AddN);
            let first_out = t.pending.nodes[0].outputs[0];
            assert_eq!(t.pending.nodes[0].inputs, [100, 101, 102, 103]);
            assert_eq!(t.pending.nodes[1].inputs, [first_out, 104]);
        });
    }

    #[test]
    fn shuffle_regroups_one_piece_per_chunk_in_chunk_order() {
        with_blocks(cfg(), |t| {
            let parts = t.shuffle(vec![10, 11, 12], &["k".to_string()], 4);
            assert_eq!(parts.len(), 4);
            assert_eq!(t.pending.len(), 3, "one split per input chunk");
            for (ci, node) in t.pending.nodes.iter().enumerate() {
                assert_eq!(node.op.name(), "ShuffleSplit");
                assert_eq!(node.inputs, [10 + ci as ChunkKey]);
                // a split's keys are allocated together, before the next split
                let base = 1 + 4 * ci as ChunkKey;
                assert_eq!(node.outputs, (base..base + 4).collect::<Vec<_>>());
                for (pi, part) in parts.iter().enumerate() {
                    assert_eq!(part.len(), 3);
                    assert_eq!(part[ci], node.outputs[pi]);
                }
            }
        });
    }

    #[test]
    fn partitions_at_its_edges() {
        let fixed = |shuffle_partitions| XorbitsConfig {
            shuffle_partitions,
            ..cfg().without_dynamic_tiling()
        };
        // static tiling: the configured count whatever the sizes, at least 1
        with_blocks(fixed(8), |t| assert_eq!(t.partitions(1 << 40, 1000), 8));
        with_blocks(fixed(0), |t| assert_eq!(t.partitions(1, 1), 1));
        with_blocks(cfg(), |t| {
            // by size: bytes over the 1000-byte chunk limit, rounded up
            assert_eq!(t.partitions(20_500, 2), 21);
            // clamped to 64
            assert_eq!(t.partitions(1 << 40, 2), 64);
            // floored at min(cluster_parallelism, nchunks)
            assert_eq!(t.partitions(1, 3), 3);
            assert_eq!(t.partitions(1, 100), 8);
            assert_eq!(t.partitions(0, 0), 1);
        });
    }

    #[test]
    fn auto_merge_groups_only_known_tiny_chunks() {
        let untouched = |cfg: XorbitsConfig, layout: &Layout, meta: &HashMap<_, _>| {
            with_blocks(cfg, |t| {
                assert_eq!(t.auto_merge(meta, layout).keys(), layout.keys());
                assert!(t.pending.is_empty() && t.stats.decisions.is_empty());
            })
        };
        let (tiny, tiny_meta) = layout_of(&[100; 10]);
        untouched(cfg(), &tiny, &HashMap::new()); // sizes unknown
        untouched(cfg().without_dynamic_tiling(), &tiny, &tiny_meta);
        let (single, single_meta) = layout_of(&[10]);
        untouched(cfg(), &single, &single_meta);
        // healthy: the mean is a quarter of the limit
        let (healthy, healthy_meta) = layout_of(&[100, 300, 300, 300]);
        untouched(cfg(), &healthy, &healthy_meta);

        // ten tiny chunks fit the byte limit together; the fan-in caps a group
        with_blocks(cfg(), |t| {
            let merged = t.auto_merge(&tiny_meta, &tiny);
            let sizes: Vec<_> = merged.chunks.iter().map(|c| c.est.bytes).collect();
            assert_eq!(sizes, [400, 400, 200]);
            assert_eq!(merged.est_rows(), 100);
            assert!(merged.chunks.iter().all(|c| c.est.exact));
            let fan_ins: Vec<_> = t.pending.nodes.iter().map(|n| n.inputs.len()).collect();
            assert_eq!(fan_ins, [4, 4, 2]);
            assert_eq!(t.stats.decisions, ["auto-merge: 10 chunks -> 3"]);
        });
        // the byte limit closes a group; a chunk left alone passes through
        with_blocks(cfg(), |t| {
            let (layout, meta) = layout_of(&[100, 100, 900, 50, 50, 50]);
            let merged = t.auto_merge(&meta, &layout);
            let inputs: Vec<_> = t.pending.nodes.iter().map(|n| n.inputs.clone()).collect();
            assert_eq!(inputs, [vec![500, 501], vec![502, 503, 504]]);
            assert_eq!(merged.chunks.len(), 3);
            assert_eq!(merged.chunks[2].key, 505);
            assert_eq!(t.stats.decisions, ["auto-merge: 6 chunks -> 3"]);
        });
    }

    /// Publishes what an executor would after running `g`: `nbytes` per
    /// output chunk.
    fn run(meta: &mut HashMap<ChunkKey, ChunkMeta>, g: &ChunkGraph, nbytes: usize) {
        for k in g.nodes.iter().flat_map(|n| &n.outputs) {
            meta.insert(*k, ChunkMeta { nbytes, rows: 1 });
        }
    }

    /// The Fig 5a round trips of a keyed group-by over a hand-built graph:
    /// yield for the input's metadata, yield for the probe, then tile the
    /// rest — reusing the probe's output as the first map output.
    #[test]
    fn groupby_probes_then_tiles_the_rest() {
        let df = DataFrame::new(vec![("k", Column::from_i64((0..400).collect()))]).unwrap();
        let mut graph = TileableGraph::new();
        let src = graph
            .push(TileableOp::DfSource(DfSource::materialized(df)), vec![])
            .unwrap();
        let count = TileableOp::GroupbyAgg {
            keys: vec!["k".into()],
            specs: vec![AggSpec::new("k", AggFunc::Count, "n")],
        };
        graph.push(count, vec![src]).unwrap();
        let names = |g: &ChunkGraph| g.nodes.iter().map(|n| n.op.name()).collect::<Vec<_>>();
        with_tiler(&graph, cfg(), |t| {
            let mut meta = HashMap::new();
            let TileStep::Execute(scan) = t.step(&meta).unwrap() else {
                panic!("the probe's input is not executed yet");
            };
            assert_eq!(names(&scan), ["DfGen"; 4]);
            run(&mut meta, &scan, 800);
            let TileStep::Execute(probe) = t.step(&meta).unwrap() else {
                panic!("the probe must run before the reduce is chosen");
            };
            assert_eq!(names(&probe), ["GroupbyAgg::map"]);
            assert_eq!(probe.nodes[0].inputs, scan.nodes[0].outputs);
            run(&mut meta, &probe, 80);
            let TileStep::Done(rest) = t.step(&meta).unwrap() else {
                panic!("nothing else needs metadata");
            };
            // est agg = 80/800 x 3200 B: under the tree threshold
            assert_eq!(
                names(&rest),
                [
                    "GroupbyAgg::map",
                    "GroupbyAgg::map",
                    "GroupbyAgg::map",
                    "GroupbyAgg::combine",
                    "GroupbyAgg::agg"
                ]
            );
            assert_eq!(rest.nodes[3].inputs[0], probe.nodes[0].outputs[0]);
            assert_eq!((t.stats.yields, t.stats.probes), (2, 1));
            assert_eq!(t.layout(1).unwrap().keys(), rest.nodes[4].outputs);
        });
    }
}
