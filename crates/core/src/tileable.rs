//! The tileable graph — the paper's logical plan.
//!
//! Each user-facing API call becomes one [`TileableOp`] node (the `__call__`
//! method of §III-C). Tileables are not yet partitioned; the
//! [`crate::tiling::Tiler`] lowers them to chunk graphs, consulting runtime
//! metadata where needed (dynamic tiling, §IV).

use crate::chunk::ArrStep;
use crate::error::{XbError, XbResult};
use std::sync::Arc;
use xorbits_array::{ElemOp, NdArray, Reduction};
use xorbits_dataframe::{AggSpec, DataFrame, Expr, JoinType, Scalar};

/// Identifier of a tileable node within its graph.
pub type TileableId = usize;

/// A data source for a distributed dataframe.
#[derive(Clone)]
pub enum DfSource {
    /// An already-materialized frame (client-side data, probe fixtures).
    Materialized(Arc<DataFrame>),
    /// A partitioned generator: `gen(start_row, len)` produces one
    /// partition. Used for synthetic workload data and range CSV scans.
    Generator {
        /// Total rows in the source.
        rows: usize,
        /// Estimated bytes per row (drives source chunking).
        bytes_per_row: usize,
        /// The partition generator.
        gen: Arc<dyn Fn(usize, usize) -> XbResult<DataFrame> + Send + Sync>,
        /// Display label.
        label: String,
    },
}

impl DfSource {
    /// Wraps a materialized frame.
    pub fn materialized(df: DataFrame) -> DfSource {
        DfSource::Materialized(Arc::new(df))
    }

    /// A lazily-read CSV source: the file is parsed once on first access
    /// and partitions are row slices of it.
    pub fn csv(path: std::path::PathBuf, rows: usize, bytes_per_row: usize) -> DfSource {
        let cell: Arc<std::sync::OnceLock<XbResult<Arc<DataFrame>>>> =
            Arc::new(std::sync::OnceLock::new());
        let label = format!("read_csv({})", path.display());
        DfSource::Generator {
            rows,
            bytes_per_row,
            gen: Arc::new(move |start, len| {
                let parsed = cell.get_or_init(|| {
                    xorbits_dataframe::csv::read_csv_path(
                        &path,
                        &xorbits_dataframe::csv::CsvOptions::default(),
                    )
                    .map(Arc::new)
                    .map_err(XbError::from)
                });
                match parsed {
                    Ok(df) => Ok(df.slice(start, len)),
                    Err(e) => Err(e.clone()),
                }
            }),
            label,
        }
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        match self {
            DfSource::Materialized(df) => df.num_rows(),
            DfSource::Generator { rows, .. } => *rows,
        }
    }

    /// Estimated total bytes.
    pub fn est_bytes(&self) -> usize {
        match self {
            DfSource::Materialized(df) => df.nbytes(),
            DfSource::Generator {
                rows,
                bytes_per_row,
                ..
            } => rows * bytes_per_row,
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            DfSource::Materialized(_) => "read_dataframe".to_string(),
            DfSource::Generator { label, .. } => label.clone(),
        }
    }
}

impl std::fmt::Debug for DfSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{} rows]", self.label(), self.rows())
    }
}

/// A logical operator — one node of the tileable graph.
#[derive(Debug, Clone)]
pub enum TileableOp {
    // ---- dataframe --------------------------------------------------------
    /// Data source.
    DfSource(DfSource),
    /// Row filter by predicate (output shape unknown until execution — a
    /// *non-static* operator in the paper's terms).
    Filter {
        /// Input tileable.
        input: TileableId,
        /// Predicate.
        predicate: Expr,
    },
    /// Column projection.
    Project {
        /// Input tileable.
        input: TileableId,
        /// Columns to keep.
        columns: Vec<String>,
    },
    /// Tolerant projection inserted by column pruning: keeps the requested
    /// columns that exist, silently dropping absent names.
    PruneColumns {
        /// Input tileable.
        input: TileableId,
        /// Columns to keep where present.
        columns: Vec<String>,
    },
    /// Derived-column assignment.
    Assign {
        /// Input tileable.
        input: TileableId,
        /// `(name, expression)` pairs evaluated in order.
        exprs: Vec<(String, Expr)>,
    },
    /// Null replacement in one column.
    Fillna {
        /// Input tileable.
        input: TileableId,
        /// Target column.
        column: String,
        /// Replacement value.
        value: Scalar,
    },
    /// Null-row removal.
    Dropna {
        /// Input tileable.
        input: TileableId,
        /// Columns to inspect (`None` ⇒ all).
        subset: Option<Vec<String>>,
    },
    /// Column renaming.
    Rename {
        /// Input tileable.
        input: TileableId,
        /// `(old, new)` pairs.
        pairs: Vec<(String, String)>,
    },
    /// Group-by aggregation (non-static; the flagship dynamic-tiling op).
    GroupbyAgg {
        /// Input tileable.
        input: TileableId,
        /// Group keys (empty ⇒ whole-frame aggregation).
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Join (non-static).
    Merge {
        /// Left input.
        left: TileableId,
        /// Right input.
        right: TileableId,
        /// Left key columns.
        left_on: Vec<String>,
        /// Right key columns.
        right_on: Vec<String>,
        /// Join type.
        how: JoinType,
        /// Suffixes for overlapping columns.
        suffixes: (String, String),
    },
    /// Global sort.
    SortValues {
        /// Input tileable.
        input: TileableId,
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
    },
    /// First `n` rows of the global order.
    Head {
        /// Input tileable.
        input: TileableId,
        /// Row count.
        n: usize,
    },
    /// Positional single-row lookup (Listing 2's `iloc[10]`; requires
    /// iterative tiling when upstream shapes are unknown).
    ILocRow {
        /// Input tileable.
        input: TileableId,
        /// Global row position.
        row: usize,
    },
    /// Global deduplication.
    DropDuplicates {
        /// Input tileable.
        input: TileableId,
        /// Key subset (`None` ⇒ all columns).
        subset: Option<Vec<String>>,
    },
    /// Vertical concatenation.
    ConcatDf {
        /// Input tileables (same schema).
        inputs: Vec<TileableId>,
    },
    /// Pivot table.
    PivotTable {
        /// Input tileable.
        input: TileableId,
        /// Row index column.
        index: String,
        /// Header column.
        columns: String,
        /// Value column.
        values: String,
        /// Aggregation.
        agg: xorbits_dataframe::AggFunc,
    },

    // ---- tensor -----------------------------------------------------------
    /// Random tensor (uniform or normal).
    TensorRandom {
        /// Shape.
        shape: Vec<usize>,
        /// Seed.
        seed: u64,
        /// Standard normal instead of uniform.
        normal: bool,
    },
    /// Client-provided tensor (single chunk).
    TensorFromArr(Arc<NdArray>),
    /// Fused scalar-operand chain.
    TensorMapChain {
        /// Input tensor.
        input: TileableId,
        /// Steps applied in order.
        steps: Vec<ArrStep>,
    },
    /// Elementwise binary op (broadcast when `b` is a single chunk).
    TensorBinary {
        /// Left tensor.
        a: TileableId,
        /// Right tensor.
        b: TileableId,
        /// Operator.
        op: ElemOp,
    },
    /// Matrix product (`a` row-chunked, `b` single chunk).
    TensorMatMul {
        /// Left tensor.
        a: TileableId,
        /// Right tensor.
        b: TileableId,
    },
    /// Reduced QR; output slot 0 = Q (row-chunked), slot 1 = R. Consumers
    /// read slot 0; R is reached through a [`TileableOp::TensorSlot`].
    TensorQr {
        /// Input tensor (tall-and-skinny after auto rechunk).
        input: TileableId,
    },
    /// Projection of one output slot of a multi-output tileable (QR's R).
    /// Tiles to no chunk operator: it aliases the slot's chunks.
    TensorSlot {
        /// The multi-output tileable.
        input: TileableId,
        /// Which of its outputs.
        slot: usize,
    },
    /// Full reduction to a 1-element tensor.
    TensorReduce {
        /// Input tensor.
        input: TileableId,
        /// Reduction kind.
        kind: Reduction,
    },
    /// Distributed least squares via partial normal equations.
    TensorLstsq {
        /// Design matrix (row-chunked `m × n`).
        x: TileableId,
        /// Targets (row-chunked `m`, same splits as `x`).
        y: TileableId,
    },
}

impl TileableOp {
    /// Ids of input tileables.
    pub fn inputs(&self) -> Vec<TileableId> {
        match self {
            TileableOp::DfSource(_)
            | TileableOp::TensorRandom { .. }
            | TileableOp::TensorFromArr(_) => vec![],
            TileableOp::Filter { input, .. }
            | TileableOp::Project { input, .. }
            | TileableOp::PruneColumns { input, .. }
            | TileableOp::Assign { input, .. }
            | TileableOp::Fillna { input, .. }
            | TileableOp::Dropna { input, .. }
            | TileableOp::Rename { input, .. }
            | TileableOp::GroupbyAgg { input, .. }
            | TileableOp::SortValues { input, .. }
            | TileableOp::Head { input, .. }
            | TileableOp::ILocRow { input, .. }
            | TileableOp::DropDuplicates { input, .. }
            | TileableOp::PivotTable { input, .. }
            | TileableOp::TensorMapChain { input, .. }
            | TileableOp::TensorQr { input }
            | TileableOp::TensorSlot { input, .. }
            | TileableOp::TensorReduce { input, .. } => vec![*input],
            TileableOp::Merge { left, right, .. } => vec![*left, *right],
            TileableOp::ConcatDf { inputs } => inputs.clone(),
            TileableOp::TensorBinary { a, b, .. } => vec![*a, *b],
            TileableOp::TensorMatMul { a, b } => vec![*a, *b],
            TileableOp::TensorLstsq { x, y } => vec![*x, *y],
        }
    }

    /// Rewrites every input id through `f` (closure extraction, pruning).
    pub(crate) fn map_inputs(&mut self, mut f: impl FnMut(TileableId) -> TileableId) {
        let mut r = |i: &mut TileableId| *i = f(*i);
        match self {
            TileableOp::DfSource(_)
            | TileableOp::TensorRandom { .. }
            | TileableOp::TensorFromArr(_) => {}
            TileableOp::Filter { input, .. }
            | TileableOp::Project { input, .. }
            | TileableOp::PruneColumns { input, .. }
            | TileableOp::Assign { input, .. }
            | TileableOp::Fillna { input, .. }
            | TileableOp::Dropna { input, .. }
            | TileableOp::Rename { input, .. }
            | TileableOp::GroupbyAgg { input, .. }
            | TileableOp::SortValues { input, .. }
            | TileableOp::Head { input, .. }
            | TileableOp::ILocRow { input, .. }
            | TileableOp::DropDuplicates { input, .. }
            | TileableOp::PivotTable { input, .. }
            | TileableOp::TensorMapChain { input, .. }
            | TileableOp::TensorQr { input }
            | TileableOp::TensorSlot { input, .. }
            | TileableOp::TensorReduce { input, .. } => r(input),
            TileableOp::Merge { left, right, .. } => {
                r(left);
                r(right);
            }
            TileableOp::ConcatDf { inputs } => inputs.iter_mut().for_each(r),
            TileableOp::TensorBinary { a, b, .. } | TileableOp::TensorMatMul { a, b } => {
                r(a);
                r(b);
            }
            TileableOp::TensorLstsq { x, y } => {
                r(x);
                r(y);
            }
        }
    }

    /// Number of output slots (only QR has two: Q and R).
    pub fn n_outputs(&self) -> usize {
        match self {
            TileableOp::TensorQr { .. } => 2,
            _ => 1,
        }
    }

    /// Whether the output shape can be computed from input shapes alone —
    /// the paper's static/non-static operator distinction (§IV-A).
    pub fn is_static_shape(&self) -> bool {
        !matches!(
            self,
            TileableOp::Filter { .. }
                | TileableOp::Dropna { .. }
                | TileableOp::GroupbyAgg { .. }
                | TileableOp::Merge { .. }
                | TileableOp::DropDuplicates { .. }
        )
    }
}

/// The logical plan: tileables in construction (= topological) order.
#[derive(Debug, Clone, Default)]
pub struct TileableGraph {
    /// Nodes; a node's inputs always have smaller ids.
    pub nodes: Vec<TileableOp>,
}

impl TileableGraph {
    /// Empty graph.
    pub fn new() -> TileableGraph {
        TileableGraph::default()
    }

    /// Adds a node; returns its id. Inputs must already exist.
    pub fn push(&mut self, op: TileableOp) -> XbResult<TileableId> {
        for i in op.inputs() {
            if i >= self.nodes.len() {
                return Err(XbError::Plan(format!(
                    "tileable references unknown input {i}"
                )));
            }
        }
        self.nodes.push(op);
        Ok(self.nodes.len() - 1)
    }

    /// Node accessor.
    pub fn op(&self, id: TileableId) -> &TileableOp {
        &self.nodes[id]
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// For each tileable, how many later tileables consume it (used by
    /// peepholes like sort+head → top-k).
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for op in &self.nodes {
            for i in op.inputs() {
                counts[i] += 1;
            }
        }
        counts
    }

    /// The ancestor closure of `target` as an owned graph: exactly the
    /// nodes `target` depends on, in construction order, ids remapped
    /// densely, `target` last (and therefore the unique sink). This is the
    /// graph a fetch prunes, tiles and executes, so its cost — this walk
    /// included — scales with the query, not with the session that holds
    /// it.
    pub fn closure(&self, target: TileableId) -> TileableGraph {
        // inputs have smaller ids than their consumer, so a max-heap pops
        // the ancestors in strictly descending order, duplicates adjacent
        let mut heap = std::collections::BinaryHeap::from([target]);
        let mut ids: Vec<TileableId> = Vec::new();
        while let Some(id) = heap.pop() {
            if ids.last() != Some(&id) {
                ids.push(id);
                heap.extend(self.op(id).inputs());
            }
        }
        ids.reverse();
        let nodes = ids
            .iter()
            .map(|&id| {
                let mut op = self.nodes[id].clone();
                op.map_inputs(|i| ids.binary_search(&i).expect("input is an ancestor"));
                op
            })
            .collect();
        TileableGraph { nodes }
    }
}

// ---- canonical structural hashing (serving result cache) -------------------
//
// The serving layer caches fetched results keyed by a *canonical* hash of the
// tileable sub-DAG below the fetch target. The hash is a Merkle hash: each
// node's digest combines its operator tag, its parameters (never its raw
// tileable ids) and the digests of its inputs in positional order. Two
// structurally identical sub-DAGs therefore hash equal no matter how their
// ids were numbered or which session built them, while any change to an op
// parameter, a constant, a source's content or an input's position changes
// the digest. Structural sharing (a diamond over one source vs. two
// identical source nodes) intentionally collapses: execution is
// deterministic, so identical subtrees produce identical results.

/// Streams node components into an FxHash-style digest.
struct Digest {
    h: u64,
}

impl Digest {
    fn new(tag: &str) -> Digest {
        let mut d = Digest { h: 0x9e37_79b9 };
        d.bytes(tag.as_bytes());
        d
    }

    fn word(&mut self, v: u64) {
        self.h = xorbits_dataframe::hash::combine(self.h, v);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(xorbits_dataframe::hash::hash_bytes(b, 0, b.len()));
        self.word(b.len() as u64);
    }

    /// Debug formatting of a parameter value. Safe for every parameter type
    /// used by [`TileableOp`] (expressions, scalars, agg specs, join types,
    /// array steps): their Debug output is deterministic and contains no
    /// graph ids or addresses.
    fn param<T: std::fmt::Debug>(&mut self, v: &T) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    fn finish(self) -> u64 {
        // final avalanche so single-word differences diffuse everywhere
        xorbits_array::prng::mix(self.h)
    }
}

#[cfg(test)]
thread_local! {
    /// Calls to [`df_fingerprint`] on this thread (each one hashes every
    /// value of a table, so tests pin how many a fetch makes).
    pub(crate) static DF_FINGERPRINTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Content fingerprint of a materialized dataframe: schema plus every value.
pub fn df_fingerprint(df: &DataFrame) -> u64 {
    #[cfg(test)]
    DF_FINGERPRINTS.with(|c| c.set(c.get() + 1));
    let mut d = Digest::new("df");
    d.word(df.num_rows() as u64);
    for (name, col) in df
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .zip(df.columns())
    {
        d.bytes(name.as_bytes());
        d.bytes(format!("{:?}", col.data_type()).as_bytes());
        for i in 0..col.len() {
            match col.get(i) {
                Scalar::Null => d.word(1),
                Scalar::Int(v) => {
                    d.word(2);
                    d.word(v as u64);
                }
                Scalar::Float(v) => {
                    d.word(3);
                    d.word(v.to_bits());
                }
                Scalar::Bool(v) => {
                    d.word(4);
                    d.word(v as u64);
                }
                Scalar::Str(s) => {
                    d.word(5);
                    d.bytes(s.as_bytes());
                }
                Scalar::Date(v) => {
                    d.word(6);
                    d.word(v as u64);
                }
            }
        }
    }
    d.finish()
}

/// Content fingerprint of a client-provided tensor.
pub fn arr_fingerprint(arr: &NdArray) -> u64 {
    let mut d = Digest::new("arr");
    for &s in arr.shape() {
        d.word(s as u64);
    }
    d.word(arr.shape().len() as u64);
    for &v in arr.data() {
        d.word(v.to_bits());
    }
    d.finish()
}

/// Fingerprint of a source node — the identity used for lineage-based cache
/// invalidation. Materialized data hashes its content; generator sources
/// hash their declared identity (label, size); random tensors hash their
/// seed and shape.
fn source_fingerprint(op: &TileableOp) -> Option<u64> {
    match op {
        TileableOp::DfSource(DfSource::Materialized(df)) => Some(df_fingerprint(df)),
        TileableOp::DfSource(DfSource::Generator {
            rows,
            bytes_per_row,
            label,
            ..
        }) => {
            let mut d = Digest::new("dfgen");
            d.bytes(label.as_bytes());
            d.word(*rows as u64);
            d.word(*bytes_per_row as u64);
            Some(d.finish())
        }
        TileableOp::TensorRandom {
            shape,
            seed,
            normal,
        } => {
            let mut d = Digest::new("rand");
            for &s in shape {
                d.word(s as u64);
            }
            d.word(shape.len() as u64);
            d.word(*seed);
            d.word(*normal as u64);
            Some(d.finish())
        }
        TileableOp::TensorFromArr(arr) => Some(arr_fingerprint(arr)),
        _ => None,
    }
}

/// Hashes one node's tag and parameters (inputs are mixed in separately via
/// their canonical digests, never via raw ids). `source_fp` is the node's
/// [`source_fingerprint`], computed once by the caller.
fn op_param_hash(op: &TileableOp, source_fp: Option<u64>) -> u64 {
    match op {
        // Sources reduce to their fingerprint so content changes propagate.
        TileableOp::DfSource(_)
        | TileableOp::TensorRandom { .. }
        | TileableOp::TensorFromArr(_) => {
            let mut d = Digest::new("source");
            d.word(source_fp.unwrap_or(0));
            d.finish()
        }
        TileableOp::Filter { predicate, .. } => {
            let mut d = Digest::new("filter");
            d.param(predicate);
            d.finish()
        }
        TileableOp::Project { columns, .. } => {
            let mut d = Digest::new("project");
            d.param(columns);
            d.finish()
        }
        TileableOp::PruneColumns { columns, .. } => {
            let mut d = Digest::new("prune");
            d.param(columns);
            d.finish()
        }
        TileableOp::Assign { exprs, .. } => {
            let mut d = Digest::new("assign");
            d.param(exprs);
            d.finish()
        }
        TileableOp::Fillna { column, value, .. } => {
            let mut d = Digest::new("fillna");
            d.param(column);
            d.param(value);
            d.finish()
        }
        TileableOp::Dropna { subset, .. } => {
            let mut d = Digest::new("dropna");
            d.param(subset);
            d.finish()
        }
        TileableOp::Rename { pairs, .. } => {
            let mut d = Digest::new("rename");
            d.param(pairs);
            d.finish()
        }
        TileableOp::GroupbyAgg { keys, specs, .. } => {
            let mut d = Digest::new("groupby");
            d.param(keys);
            d.param(specs);
            d.finish()
        }
        TileableOp::Merge {
            left_on,
            right_on,
            how,
            suffixes,
            ..
        } => {
            let mut d = Digest::new("merge");
            d.param(left_on);
            d.param(right_on);
            d.param(how);
            d.param(suffixes);
            d.finish()
        }
        TileableOp::SortValues { keys, .. } => {
            let mut d = Digest::new("sort");
            d.param(keys);
            d.finish()
        }
        TileableOp::Head { n, .. } => {
            let mut d = Digest::new("head");
            d.word(*n as u64);
            d.finish()
        }
        TileableOp::ILocRow { row, .. } => {
            let mut d = Digest::new("iloc");
            d.word(*row as u64);
            d.finish()
        }
        TileableOp::DropDuplicates { subset, .. } => {
            let mut d = Digest::new("dropdup");
            d.param(subset);
            d.finish()
        }
        TileableOp::ConcatDf { .. } => Digest::new("concat").finish(),
        TileableOp::PivotTable {
            index,
            columns,
            values,
            agg,
            ..
        } => {
            let mut d = Digest::new("pivot");
            d.param(index);
            d.param(columns);
            d.param(values);
            d.param(agg);
            d.finish()
        }
        TileableOp::TensorMapChain { steps, .. } => {
            let mut d = Digest::new("mapchain");
            d.param(steps);
            d.finish()
        }
        TileableOp::TensorBinary { op, .. } => {
            let mut d = Digest::new("binary");
            d.param(op);
            d.finish()
        }
        TileableOp::TensorMatMul { .. } => Digest::new("matmul").finish(),
        TileableOp::TensorQr { .. } => Digest::new("qr").finish(),
        TileableOp::TensorSlot { slot, .. } => {
            let mut d = Digest::new("slot");
            d.word(*slot as u64);
            d.finish()
        }
        TileableOp::TensorReduce { kind, .. } => {
            let mut d = Digest::new("reduce");
            d.param(kind);
            d.finish()
        }
        TileableOp::TensorLstsq { .. } => Digest::new("lstsq").finish(),
    }
}

/// Result-cache identity of a fetch, from one pass over the fetch's
/// [`TileableGraph::closure`] (whose last node is the target): the
/// canonical structural hash of the sub-DAG producing the target, and the
/// fingerprints of every source feeding it, sorted and deduped.
///
/// The hash is invariant under tileable-id renaming and session replay and
/// sensitive to every op parameter, constant, source content and input
/// order. The fingerprints are the lineage key set a cached result depends
/// on: losing or changing any of these sources must invalidate the entry.
/// Each source is fingerprinted exactly once.
pub fn cache_key(closure: &TileableGraph) -> (u64, Vec<u64>) {
    // inputs precede their consumers, so one ascending pass computes every
    // digest bottom-up
    let mut digests: Vec<u64> = Vec::with_capacity(closure.len());
    let mut sources = Vec::new();
    for op in &closure.nodes {
        let source_fp = source_fingerprint(op);
        sources.extend(source_fp);
        let mut d = Digest::new("node");
        d.word(op_param_hash(op, source_fp));
        let inputs = op.inputs();
        for i in &inputs {
            d.word(digests[*i]);
        }
        d.word(inputs.len() as u64);
        digests.push(d.finish());
    }
    sources.sort_unstable();
    sources.dedup();
    let mut d = Digest::new("fetch");
    d.word(digests.last().copied().unwrap_or(0));
    (d.finish(), sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{col, lit, Column};

    #[test]
    fn graph_construction_and_inputs() {
        let mut g = TileableGraph::new();
        let df = DataFrame::new(vec![("a", Column::from_i64(vec![1]))]).unwrap();
        let src = g
            .push(TileableOp::DfSource(DfSource::materialized(df)))
            .unwrap();
        let filt = g
            .push(TileableOp::Filter {
                input: src,
                predicate: col("a").gt(lit(0i64)),
            })
            .unwrap();
        assert_eq!(g.op(filt).inputs(), vec![src]);
        assert_eq!(g.consumer_counts(), vec![1, 0]);
        // forward reference rejected
        assert!(g
            .push(TileableOp::Filter {
                input: 99,
                predicate: col("a").gt(lit(0i64)),
            })
            .is_err());
    }

    #[test]
    fn static_vs_nonstatic_classification() {
        let src = TileableOp::TensorRandom {
            shape: vec![4, 4],
            seed: 0,
            normal: false,
        };
        assert!(src.is_static_shape());
        let f = TileableOp::Filter {
            input: 0,
            predicate: col("a").gt(lit(0i64)),
        };
        assert!(!f.is_static_shape());
        let g = TileableOp::GroupbyAgg {
            input: 0,
            keys: vec![],
            specs: vec![],
        };
        assert!(!g.is_static_shape());
    }

    fn canonical_hash(g: &TileableGraph, target: TileableId) -> u64 {
        cache_key(&g.closure(target)).0
    }

    fn lineage_sources(g: &TileableGraph, target: TileableId) -> Vec<u64> {
        cache_key(&g.closure(target)).1
    }

    /// Ancestors of `target` by a descending scan of `0..=target` — the
    /// whole-graph walk [`TileableGraph::closure`] replaced, kept as the
    /// oracle.
    fn reference_reach(graph: &TileableGraph, target: TileableId) -> Vec<bool> {
        let mut reach = vec![false; graph.len()];
        reach[target] = true;
        for id in (0..=target).rev() {
            if reach[id] {
                for i in graph.op(id).inputs() {
                    reach[i] = true;
                }
            }
        }
        reach
    }

    /// The pre-closure two-function cache identity (hash, then lineage),
    /// each redoing the reach walk and the source fingerprints.
    fn reference_cache_key(graph: &TileableGraph, target: TileableId) -> (u64, Vec<u64>) {
        let reach = reference_reach(graph, target);
        let mut digests = vec![0u64; graph.len()];
        for id in (0..=target).filter(|&id| reach[id]) {
            let op = graph.op(id);
            let mut d = Digest::new("node");
            d.word(op_param_hash(op, source_fingerprint(op)));
            let inputs = op.inputs();
            for i in &inputs {
                d.word(digests[*i]);
            }
            d.word(inputs.len() as u64);
            digests[id] = d.finish();
        }
        let mut d = Digest::new("fetch");
        d.word(digests[target]);
        let mut fps: Vec<u64> = (0..=target)
            .filter(|&id| reach[id])
            .filter_map(|id| source_fingerprint(graph.op(id)))
            .collect();
        fps.sort_unstable();
        fps.dedup();
        (d.finish(), fps)
    }

    /// A seeded random DAG: shared materialized/random sources, unary and
    /// multi-input operators over uniformly drawn earlier nodes (so
    /// diamonds and unreachable islands are common), multi-output QR.
    /// Only the structure matters here, so dataframe and tensor operators
    /// mix freely.
    fn random_dag(seed: u64) -> TileableGraph {
        let mut rng = xorbits_array::prng::Xoshiro256::seed_from_u64(seed);
        let mut g = TileableGraph::new();
        let n = 3 + rng.next_bounded(38) as usize;
        for id in 0..n {
            let pick = |rng: &mut xorbits_array::prng::Xoshiro256| {
                rng.next_bounded(id as u64) as TileableId
            };
            let kind = if id < 2 { 0 } else { rng.next_bounded(10) };
            let op = match kind {
                0 => {
                    // few distinct contents: equal sources dedupe in lineage
                    let v = rng.next_bounded(3) as i64;
                    let df = DataFrame::new(vec![("a", Column::from_i64(vec![v, v + 1]))]).unwrap();
                    TileableOp::DfSource(DfSource::materialized(df))
                }
                1 => TileableOp::TensorRandom {
                    shape: vec![4, 2],
                    seed: rng.next_bounded(3),
                    normal: false,
                },
                2 => TileableOp::Filter {
                    input: pick(&mut rng),
                    predicate: col("a").gt(lit(rng.next_bounded(4) as i64)),
                },
                3 => TileableOp::Head {
                    input: pick(&mut rng),
                    n: 1 + rng.next_bounded(3) as usize,
                },
                4 => TileableOp::TensorQr {
                    input: pick(&mut rng),
                },
                5 => TileableOp::Merge {
                    left: pick(&mut rng),
                    right: pick(&mut rng),
                    left_on: vec!["a".into()],
                    right_on: vec!["a".into()],
                    how: JoinType::Inner,
                    suffixes: ("_x".into(), "_y".into()),
                },
                6 => TileableOp::TensorMatMul {
                    a: pick(&mut rng),
                    b: pick(&mut rng),
                },
                7 => TileableOp::TensorSlot {
                    input: pick(&mut rng),
                    slot: rng.next_bounded(2) as usize,
                },
                8 => TileableOp::ConcatDf {
                    inputs: (0..1 + rng.next_bounded(3))
                        .map(|_| pick(&mut rng))
                        .collect(),
                },
                _ => TileableOp::TensorLstsq {
                    x: pick(&mut rng),
                    y: pick(&mut rng),
                },
            };
            g.push(op).unwrap();
        }
        g
    }

    #[test]
    fn closure_is_exactly_the_ancestors_in_order_and_keeps_the_cache_key() {
        for seed in 0..256u64 {
            let g = random_dag(seed);
            for target in [g.len() - 1, g.len() / 2, (seed as usize) % g.len()] {
                let reach = reference_reach(&g, target);
                let ancestors: Vec<TileableId> = (0..g.len()).filter(|&id| reach[id]).collect();
                let c = g.closure(target);
                // exactly the ancestors, relative order kept, target last
                assert_eq!(c.len(), ancestors.len(), "seed {seed} target {target}");
                assert_eq!(ancestors.last(), Some(&target));
                for (new_id, &old_id) in ancestors.iter().enumerate() {
                    let (new_op, old_op) = (c.op(new_id), g.op(old_id));
                    assert_eq!(
                        op_param_hash(new_op, source_fingerprint(new_op)),
                        op_param_hash(old_op, source_fingerprint(old_op)),
                        "seed {seed}: node {old_id} changed on the way into the closure"
                    );
                    // dense remap: every input precedes its consumer and
                    // names the same original node, position by position
                    let old_inputs = old_op.inputs();
                    let new_inputs = new_op.inputs();
                    assert_eq!(new_inputs.len(), old_inputs.len());
                    for (ni, oi) in new_inputs.iter().zip(&old_inputs) {
                        assert!(*ni < new_id, "seed {seed}: forward edge in closure");
                        assert_eq!(ancestors[*ni], *oi);
                    }
                }
                // the cache identity survives the renaming, and the one-pass
                // (key, sources) equals the old two-walk result
                let reference = reference_cache_key(&g, target);
                assert_eq!(
                    reference_cache_key(&c, c.len() - 1),
                    reference,
                    "seed {seed} target {target}"
                );
                assert_eq!(cache_key(&c), reference, "seed {seed} target {target}");
            }
        }
    }

    fn demo_graph(pred_lit: i64, pad: usize) -> (TileableGraph, TileableId) {
        // `pad` leading dummy nodes shift every id, exercising rename
        // invariance of the canonical hash.
        let mut g = TileableGraph::new();
        for _ in 0..pad {
            let df = DataFrame::new(vec![("pad", Column::from_i64(vec![0]))]).unwrap();
            g.push(TileableOp::DfSource(DfSource::materialized(df)))
                .unwrap();
        }
        let df = DataFrame::new(vec![("a", Column::from_i64(vec![1, 2, 3]))]).unwrap();
        let src = g
            .push(TileableOp::DfSource(DfSource::materialized(df)))
            .unwrap();
        let filt = g
            .push(TileableOp::Filter {
                input: src,
                predicate: col("a").gt(lit(pred_lit)),
            })
            .unwrap();
        let head = g.push(TileableOp::Head { input: filt, n: 2 }).unwrap();
        (g, head)
    }

    #[test]
    fn canonical_hash_rename_invariant() {
        let (g0, t0) = demo_graph(0, 0);
        let (g5, t5) = demo_graph(0, 5);
        assert_eq!(canonical_hash(&g0, t0), canonical_hash(&g5, t5));
    }

    #[test]
    fn canonical_hash_param_sensitive() {
        let (g0, t0) = demo_graph(0, 0);
        let (g1, t1) = demo_graph(1, 0);
        assert_ne!(canonical_hash(&g0, t0), canonical_hash(&g1, t1));
        // QR's outputs key differently: Q is the node, R a projection of it
        let mut g = TileableGraph::new();
        let a = g
            .push(TileableOp::TensorRandom {
                shape: vec![8, 2],
                seed: 1,
                normal: false,
            })
            .unwrap();
        let q = g.push(TileableOp::TensorQr { input: a }).unwrap();
        let mut slot = |slot| g.push(TileableOp::TensorSlot { input: q, slot }).unwrap();
        let (r, r_again, q_slot) = (slot(1), slot(1), slot(0));
        assert_ne!(canonical_hash(&g, q), canonical_hash(&g, r));
        assert_ne!(canonical_hash(&g, q_slot), canonical_hash(&g, r));
        assert_eq!(canonical_hash(&g, r), canonical_hash(&g, r_again));
    }

    #[test]
    fn canonical_hash_source_content_sensitive() {
        let mk = |vals: Vec<i64>| {
            let mut g = TileableGraph::new();
            let df = DataFrame::new(vec![("a", Column::from_i64(vals))]).unwrap();
            let src = g
                .push(TileableOp::DfSource(DfSource::materialized(df)))
                .unwrap();
            let h = g.push(TileableOp::Head { input: src, n: 1 }).unwrap();
            canonical_hash(&g, h)
        };
        assert_eq!(mk(vec![1, 2]), mk(vec![1, 2]));
        assert_ne!(mk(vec![1, 2]), mk(vec![1, 3]));
    }

    #[test]
    fn lineage_sources_cover_reachable_sources_only() {
        let (g, t) = demo_graph(0, 3);
        // pad sources are unreachable from the target; only the real source
        // (plus none of the pads) should appear.
        let fps = lineage_sources(&g, t);
        assert_eq!(fps.len(), 1);
        let df = DataFrame::new(vec![("a", Column::from_i64(vec![1, 2, 3]))]).unwrap();
        assert_eq!(fps[0], df_fingerprint(&df));
    }

    #[test]
    fn qr_has_two_outputs() {
        assert_eq!(TileableOp::TensorQr { input: 0 }.n_outputs(), 2);
        assert_eq!(
            TileableOp::TensorRandom {
                shape: vec![2],
                seed: 0,
                normal: false
            }
            .n_outputs(),
            1
        );
    }
}
