//! The tileable graph — the paper's logical plan.
//!
//! Each user-facing API call becomes one [`TileableOp`] node (the `__call__`
//! method of §III-C). Tileables are not yet partitioned; the
//! [`crate::tiling::Tiler`] lowers them to chunk graphs, consulting runtime
//! metadata where needed (dynamic tiling, §IV).

use crate::chunk::{ArrStep, DfStep};
use crate::error::{XbError, XbResult};
use crate::optimizer::names::{NameTable, Names};
use std::borrow::Cow;
use std::sync::Arc;
use xorbits_array::{ElemOp, NdArray, Reduction};
use xorbits_dataframe::join::merge_columns;
use xorbits_dataframe::{AggSpec, DataFrame, JoinType, Scalar};

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

    /// Column names, in order. A generator is asked for at most one row,
    /// so the answer costs one tiny partition, not a scan.
    pub fn column_names(&self) -> XbResult<Vec<String>> {
        let names = |df: &DataFrame| df.schema().names().into_iter().map(String::from).collect();
        Ok(match self {
            DfSource::Materialized(df) => names(df),
            DfSource::Generator { rows, gen, .. } => names(&gen(0, (*rows).min(1))?),
        })
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

/// A logical operator: what to compute, never what to compute it from.
/// Variants hold parameters only; the tileables an operator reads are the
/// [`TileableNode::inputs`] of the node that carries it, in the positional
/// order given per variant.
#[derive(Debug, Clone)]
pub enum TileableOp {
    // ---- dataframe --------------------------------------------------------
    /// Data source.
    DfSource(DfSource),
    /// One elementwise step over input `[df]` — filter, projection, derived
    /// columns, null handling, renaming. Row-dropping steps have an output
    /// shape unknown until execution: *non-static* in the paper's terms.
    DfMap(DfStep),
    /// Group-by aggregation of input `[df]` (non-static; the flagship
    /// dynamic-tiling op).
    GroupbyAgg {
        /// Group keys (empty ⇒ whole-frame aggregation).
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Join of inputs `[left, right]` (non-static).
    Merge {
        /// Left key columns.
        left_on: Vec<String>,
        /// Right key columns.
        right_on: Vec<String>,
        /// Join type.
        how: JoinType,
        /// Suffixes for overlapping columns.
        suffixes: (String, String),
    },
    /// Global sort of input `[df]`.
    SortValues {
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
    },
    /// First `n` rows of the global order of input `[df]`.
    Head {
        /// Row count.
        n: usize,
    },
    /// Positional single-row lookup in input `[df]` (Listing 2's
    /// `iloc[10]`; requires iterative tiling when upstream shapes are
    /// unknown).
    ILocRow {
        /// Global row position.
        row: usize,
    },
    /// Global deduplication of input `[df]`.
    DropDuplicates {
        /// Key subset (`None` ⇒ all columns).
        subset: Option<Vec<String>>,
    },
    /// Vertical concatenation of any number of same-schema inputs.
    ConcatDf,
    /// Pivot table of input `[df]`.
    PivotTable {
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
    /// One scalar-operand step over input `[tensor]`.
    TensorMap(ArrStep),
    /// Elementwise binary op of inputs `[a, b]` (broadcast when `b` is a
    /// single chunk).
    TensorBinary {
        /// Operator.
        op: ElemOp,
    },
    /// Matrix product of inputs `[a, b]` (`a` row-chunked, `b` single
    /// chunk).
    TensorMatMul,
    /// Reduced QR of input `[tensor]` (tall-and-skinny after auto rechunk);
    /// output slot 0 = Q (row-chunked), slot 1 = R. Consumers read slot 0;
    /// R is reached through a [`TileableOp::TensorSlot`].
    TensorQr,
    /// Projection of one output slot of a multi-output input (QR's R).
    /// Tiles to no chunk operator: it aliases the slot's chunks.
    TensorSlot {
        /// Which of the input's outputs.
        slot: usize,
    },
    /// Full reduction of input `[tensor]` to a 1-element tensor.
    TensorReduce {
        /// Reduction kind.
        kind: Reduction,
    },
    /// Distributed least squares via partial normal equations over inputs
    /// `[x, y]`: the row-chunked `m × n` design matrix and the targets
    /// (row-chunked `m`, same splits as `x`).
    TensorLstsq,
}

impl TileableOp {
    /// How many inputs the operator reads (`None`: any number).
    fn arity(&self) -> Option<usize> {
        match self {
            TileableOp::DfSource(_)
            | TileableOp::TensorRandom { .. }
            | TileableOp::TensorFromArr(_) => Some(0),
            TileableOp::Merge { .. }
            | TileableOp::TensorBinary { .. }
            | TileableOp::TensorMatMul
            | TileableOp::TensorLstsq => Some(2),
            TileableOp::ConcatDf => None,
            _ => Some(1),
        }
    }

    /// Number of output slots (only QR has two: Q and R).
    pub fn n_outputs(&self) -> usize {
        match self {
            TileableOp::TensorQr => 2,
            _ => 1,
        }
    }

    /// The operator's output column names as ids of `table`, given its
    /// inputs' in positional order; `None` where a name is unknown (an
    /// input's, a pivot's, any tensor's). The logical optimizer reads
    /// "unknown" as "leave the plan as it is".
    pub fn output_names<'g>(
        &'g self,
        inputs: &[Option<Names>],
        table: &mut NameTable<'g>,
    ) -> Option<Names> {
        let first = || inputs.first().cloned().flatten();
        match self {
            TileableOp::DfSource(src) => {
                let names = src.column_names().ok()?;
                Some(names.into_iter().map(|name| table.id(name)).collect())
            }
            TileableOp::DfMap(step) => Some(step.output_names(first()?, table)),
            TileableOp::GroupbyAgg { keys, specs } => {
                let outputs = specs.iter().map(|s| &s.output);
                Some(table.ids(keys.iter().chain(outputs)))
            }
            TileableOp::Merge {
                left_on,
                right_on,
                how,
                suffixes,
            } => {
                let (left_ids, right_ids) = (inputs[0].as_ref()?, inputs[1].as_ref()?);
                let side =
                    |names: &Names| -> Vec<&str> { names.iter().map(|&n| table.name(n)).collect() };
                let (left, right) = (side(left_ids), side(right_ids));
                let suffixes = (suffixes.0.as_str(), suffixes.1.as_str());
                // a name the rule keeps is its side's id; a suffixed one is new
                let layout: Vec<(bool, usize, Option<String>)> =
                    merge_columns(&left, &right, left_on, right_on, *how, suffixes)
                        .into_iter()
                        .map(|(from_right, c, name)| match name {
                            Cow::Borrowed(_) => (from_right, c, None),
                            Cow::Owned(suffixed) => (from_right, c, Some(suffixed)),
                        })
                        .collect();
                let id = |(from_right, c, suffixed): (bool, usize, Option<String>)| match suffixed {
                    Some(name) => table.id(name),
                    None if from_right => right_ids[c],
                    None => left_ids[c],
                };
                Some(layout.into_iter().map(id).collect())
            }
            TileableOp::SortValues { .. }
            | TileableOp::Head { .. }
            | TileableOp::ILocRow { .. }
            | TileableOp::DropDuplicates { .. }
            | TileableOp::ConcatDf => first(),
            _ => None,
        }
    }

    /// Whether the operator's kernel builds every output column anew — a
    /// join gathers each one, a filter compacts each one — so that column
    /// pruning narrows its output and the kernel skips what is dropped.
    /// Column pruning also narrows sources; every other operator outputs
    /// what its rule makes of its input's columns.
    pub fn builds_columns(&self) -> bool {
        matches!(
            self,
            TileableOp::Merge { .. } | TileableOp::DfMap(DfStep::Filter(_))
        )
    }

    /// One-line rendering for logical plans. The operator holds parameters
    /// only, so its derived `Debug` is the description; the arms elide what
    /// would not fit a line — source data, expressions, literal arrays.
    pub fn name(&self) -> String {
        match self {
            TileableOp::DfSource(src) => format!("DfSource({})", src.label()),
            TileableOp::DfMap(step) => step.label(),
            TileableOp::TensorFromArr(arr) => format!("TensorLiteral{:?}", arr.shape()),
            _ => format!("{self:?}"),
        }
    }
}

/// One node of the tileable graph — the shape of a
/// [`crate::chunk::ChunkNode`], one layer up.
#[derive(Debug, Clone)]
pub struct TileableNode {
    /// The operator.
    pub op: TileableOp,
    /// The tileables it reads, in the operator's positional order.
    pub inputs: Vec<TileableId>,
}

/// The logical plan: tileables in construction (= topological) order.
#[derive(Debug, Clone, Default)]
pub struct TileableGraph {
    /// Nodes; a node's inputs always have smaller ids and are as many as
    /// its operator reads ([`TileableGraph::push`] checks both).
    pub nodes: Vec<TileableNode>,
}

impl TileableGraph {
    /// Empty graph.
    pub fn new() -> TileableGraph {
        TileableGraph::default()
    }

    /// Adds a node; returns its id. Inputs must already exist and be as
    /// many as the operator reads.
    pub fn push(&mut self, op: TileableOp, inputs: Vec<TileableId>) -> XbResult<TileableId> {
        if op.arity().is_some_and(|n| n != inputs.len()) {
            return Err(XbError::Plan(format!(
                "{} given {} inputs",
                op.name(),
                inputs.len()
            )));
        }
        if let Some(i) = inputs.iter().find(|&&i| i >= self.nodes.len()) {
            return Err(XbError::Plan(format!(
                "tileable references unknown input {i}"
            )));
        }
        self.nodes.push(TileableNode { op, inputs });
        Ok(self.nodes.len() - 1)
    }

    /// Operator of a node.
    pub fn op(&self, id: TileableId) -> &TileableOp {
        &self.nodes[id].op
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
        for &i in self.nodes.iter().flat_map(|node| &node.inputs) {
            counts[i] += 1;
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
                heap.extend(&self.nodes[id].inputs);
            }
        }
        ids.reverse();
        let dense = |i: &TileableId| ids.binary_search(i).expect("input is an ancestor");
        let nodes = ids
            .iter()
            .map(|&id| TileableNode {
                op: self.nodes[id].op.clone(),
                inputs: self.nodes[id].inputs.iter().map(dense).collect(),
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

    fn finish(self) -> u64 {
        // final avalanche so single-word differences diffuse everywhere
        xorbits_array::prng::mix(self.h)
    }
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

/// Hashes one node's operator through the derived `Debug` of the
/// parameter-only [`TileableOp`]: it names the variant and every field, is
/// deterministic for every parameter type (expressions, scalars, agg specs,
/// join types, array steps) and holds no graph id or address — inputs are
/// mixed in separately via their canonical digests. A source reduces to
/// `source_fp` — its [`source_fingerprint`], computed once by the caller —
/// so content changes propagate and its data is never formatted.
fn op_param_hash(op: &TileableOp, source_fp: Option<u64>) -> u64 {
    match source_fp {
        Some(fp) => {
            let mut d = Digest::new("source");
            d.word(fp);
            d.finish()
        }
        None => {
            let mut d = Digest::new("op");
            d.bytes(format!("{op:?}").as_bytes());
            d.finish()
        }
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
    for node in &closure.nodes {
        let source_fp = source_fingerprint(&node.op);
        sources.extend(source_fp);
        let mut d = Digest::new("node");
        d.word(op_param_hash(&node.op, source_fp));
        for &i in &node.inputs {
            d.word(digests[i]);
        }
        d.word(node.inputs.len() as u64);
        digests.push(d.finish());
    }
    sources.sort_unstable();
    sources.dedup();
    let mut d = Digest::new("fetch");
    d.word(digests.last().copied().unwrap_or(0));
    (d.finish(), sources)
}

#[cfg(test)]
thread_local! {
    /// Calls to [`df_fingerprint`] on this thread (each one hashes every
    /// value of a table, so tests pin how many a fetch makes).
    pub(crate) static DF_FINGERPRINTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{col, lit, AggFunc, Column, Expr};

    fn materialized(vals: Vec<i64>) -> TileableOp {
        let df = DataFrame::new(vec![("a", Column::from_i64(vals))]).unwrap();
        TileableOp::DfSource(DfSource::materialized(df))
    }

    fn filter(predicate: Expr) -> TileableOp {
        TileableOp::DfMap(DfStep::Filter(predicate))
    }

    #[test]
    fn graph_construction_and_inputs() {
        let mut g = TileableGraph::new();
        let src = g.push(materialized(vec![1]), vec![]).unwrap();
        let filt = g.push(filter(col("a").gt(lit(0i64))), vec![src]).unwrap();
        assert_eq!(g.nodes[filt].inputs, vec![src]);
        assert_eq!(g.consumer_counts(), vec![1, 0]);
        // forward reference rejected
        assert!(g.push(filter(col("a").gt(lit(0i64))), vec![99]).is_err());
        // so is an input count the operator does not read
        assert!(g.push(TileableOp::Head { n: 1 }, vec![]).is_err());
        assert!(g.push(TileableOp::TensorMatMul, vec![src]).is_err());
        assert!(g.push(materialized(vec![1]), vec![src]).is_err());
        assert!(g.push(TileableOp::ConcatDf, vec![src, filt, src]).is_ok());
        assert_eq!(g.len(), 3);
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
                for &i in &graph.nodes[id].inputs {
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
            let node = &graph.nodes[id];
            let mut d = Digest::new("node");
            d.word(op_param_hash(&node.op, source_fingerprint(&node.op)));
            for &i in &node.inputs {
                d.word(digests[i]);
            }
            d.word(node.inputs.len() as u64);
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
            let kind = if id < 2 { 0 } else { rng.next_bounded(10) };
            let (op, arity) = match kind {
                // few distinct contents: equal sources dedupe in lineage
                0 => {
                    let v = rng.next_bounded(3) as i64;
                    (materialized(vec![v, v + 1]), 0)
                }
                1 => {
                    let random = TileableOp::TensorRandom {
                        shape: vec![4, 2],
                        seed: rng.next_bounded(3),
                        normal: false,
                    };
                    (random, 0)
                }
                2 => (filter(col("a").gt(lit(rng.next_bounded(4) as i64))), 1),
                3 => {
                    let n = 1 + rng.next_bounded(3) as usize;
                    (TileableOp::Head { n }, 1)
                }
                4 => (TileableOp::TensorQr, 1),
                5 => {
                    let merge = TileableOp::Merge {
                        left_on: vec!["a".into()],
                        right_on: vec!["a".into()],
                        how: JoinType::Inner,
                        suffixes: ("_x".into(), "_y".into()),
                    };
                    (merge, 2)
                }
                6 => (TileableOp::TensorMatMul, 2),
                7 => {
                    let slot = rng.next_bounded(2) as usize;
                    (TileableOp::TensorSlot { slot }, 1)
                }
                8 => (TileableOp::ConcatDf, 1 + rng.next_bounded(3)),
                _ => (TileableOp::TensorLstsq, 2),
            };
            let inputs = (0..arity).map(|_| rng.next_bounded(id as u64) as TileableId);
            g.push(op, inputs.collect()).unwrap();
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
                    let (new, old) = (&c.nodes[new_id], &g.nodes[old_id]);
                    assert_eq!(
                        op_param_hash(&new.op, source_fingerprint(&new.op)),
                        op_param_hash(&old.op, source_fingerprint(&old.op)),
                        "seed {seed}: node {old_id} changed on the way into the closure"
                    );
                    // dense remap: every input precedes its consumer and
                    // names the same original node, position by position
                    assert_eq!(new.inputs.len(), old.inputs.len());
                    for (ni, oi) in new.inputs.iter().zip(&old.inputs) {
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
            g.push(TileableOp::DfSource(DfSource::materialized(df)), vec![])
                .unwrap();
        }
        let src = g.push(materialized(vec![1, 2, 3]), vec![]).unwrap();
        let filt = g
            .push(filter(col("a").gt(lit(pred_lit))), vec![src])
            .unwrap();
        let head = g.push(TileableOp::Head { n: 2 }, vec![filt]).unwrap();
        (g, head)
    }

    #[test]
    fn canonical_hash_rename_invariant() {
        let (g0, t0) = demo_graph(0, 0);
        let (g5, t5) = demo_graph(0, 5);
        assert_eq!(canonical_hash(&g0, t0), canonical_hash(&g5, t5));
    }

    /// Every [`TileableOp`] variant (each [`DfStep`] is one), as a family:
    /// a base operator, then copies of it with exactly one parameter
    /// changed. Sources count their content and declared identity as
    /// parameters.
    fn families() -> Vec<Vec<TileableOp>> {
        use TileableOp::*;
        let s = |x: &str| x.to_string();
        let map = |steps: Vec<DfStep>| steps.into_iter().map(DfMap).collect::<Vec<_>>();
        let generator = |label: &str, rows, bytes_per_row| {
            DfSource(super::DfSource::Generator {
                rows,
                bytes_per_row,
                gen: Arc::new(|_, _| Err(XbError::Plan("never read".into()))),
                label: label.into(),
            })
        };
        let groupby = |key: &str, column: &str, func, output: &str| GroupbyAgg {
            keys: vec![s(key)],
            specs: vec![AggSpec::new(column, func, output)],
        };
        let merge = |left: &str, right: &str, how, (l, r): (&str, &str)| Merge {
            left_on: vec![s(left)],
            right_on: vec![s(right)],
            how,
            suffixes: (s(l), s(r)),
        };
        let pivot = |index: &str, columns: &str, values: &str, agg| PivotTable {
            index: s(index),
            columns: s(columns),
            values: s(values),
            agg,
        };
        let random = |shape: &[usize], seed, normal| TensorRandom {
            shape: shape.to_vec(),
            seed,
            normal,
        };
        let literal = |data: Vec<f64>, shape: &[usize]| {
            TensorFromArr(Arc::new(NdArray::from_vec(data, shape.to_vec()).unwrap()))
        };
        let map_scalar = |op, operand| TensorMap(ArrStep { op, operand });
        vec![
            vec![
                materialized(vec![1, 2]),
                materialized(vec![1, 3]),
                materialized(vec![1, 2, 2]),
            ],
            vec![
                generator("t", 8, 8),
                generator("u", 8, 8),
                generator("t", 9, 8),
                generator("t", 8, 9),
            ],
            map(vec![
                DfStep::Filter(col("a").gt(lit(0i64))),
                DfStep::Filter(col("a").gt(lit(1i64))),
                DfStep::Filter(col("b").gt(lit(0i64))),
                DfStep::Filter(col("a").lt(lit(0i64))),
            ]),
            map(vec![
                DfStep::Project(vec![s("a")]),
                DfStep::Project(vec![s("b")]),
                DfStep::Project(vec![s("a"), s("b")]),
            ]),
            map(vec![
                DfStep::PruneTo(vec![s("a")]),
                DfStep::PruneTo(vec![s("b")]),
            ]),
            map(vec![
                DfStep::Assign(vec![(s("c"), col("a"))]),
                DfStep::Assign(vec![(s("d"), col("a"))]),
                DfStep::Assign(vec![(s("c"), col("b"))]),
            ]),
            map(vec![
                DfStep::Fillna(s("a"), Scalar::Int(0)),
                DfStep::Fillna(s("b"), Scalar::Int(0)),
                DfStep::Fillna(s("a"), Scalar::Int(1)),
                DfStep::Fillna(s("a"), Scalar::Float(0.0)),
            ]),
            map(vec![
                DfStep::Dropna(None),
                DfStep::Dropna(Some(vec![s("a")])),
                DfStep::Dropna(Some(vec![s("b")])),
            ]),
            map(vec![
                DfStep::Rename(vec![(s("a"), s("b"))]),
                DfStep::Rename(vec![(s("c"), s("b"))]),
                DfStep::Rename(vec![(s("a"), s("c"))]),
            ]),
            vec![
                groupby("a", "b", AggFunc::Sum, "s"),
                groupby("k", "b", AggFunc::Sum, "s"),
                groupby("a", "c", AggFunc::Sum, "s"),
                groupby("a", "b", AggFunc::Mean, "s"),
                groupby("a", "b", AggFunc::Sum, "t"),
            ],
            vec![
                merge("a", "a", JoinType::Inner, ("_x", "_y")),
                merge("b", "a", JoinType::Inner, ("_x", "_y")),
                merge("a", "b", JoinType::Inner, ("_x", "_y")),
                merge("a", "a", JoinType::Left, ("_x", "_y")),
                merge("a", "a", JoinType::Inner, ("_l", "_y")),
                merge("a", "a", JoinType::Inner, ("_x", "_r")),
            ],
            vec![
                SortValues {
                    keys: vec![(s("a"), true)],
                },
                SortValues {
                    keys: vec![(s("a"), false)],
                },
                SortValues {
                    keys: vec![(s("b"), true)],
                },
            ],
            vec![Head { n: 1 }, Head { n: 2 }],
            vec![ILocRow { row: 1 }, ILocRow { row: 2 }],
            vec![
                DropDuplicates { subset: None },
                DropDuplicates {
                    subset: Some(vec![s("a")]),
                },
                DropDuplicates {
                    subset: Some(vec![s("b")]),
                },
            ],
            vec![ConcatDf],
            vec![
                pivot("i", "c", "v", AggFunc::Sum),
                pivot("x", "c", "v", AggFunc::Sum),
                pivot("i", "x", "v", AggFunc::Sum),
                pivot("i", "c", "x", AggFunc::Sum),
                pivot("i", "c", "v", AggFunc::Max),
            ],
            vec![
                random(&[4, 2], 1, false),
                random(&[2, 4], 1, false),
                random(&[4, 2], 2, false),
                random(&[4, 2], 1, true),
            ],
            vec![
                literal(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
                literal(vec![1.0, 2.0, 3.0, 5.0], &[2, 2]),
                literal(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]),
            ],
            vec![
                map_scalar(ElemOp::Add, 1.0),
                map_scalar(ElemOp::Mul, 1.0),
                map_scalar(ElemOp::Add, 2.0),
            ],
            vec![
                TensorBinary { op: ElemOp::Add },
                TensorBinary { op: ElemOp::Sub },
            ],
            vec![TensorMatMul],
            vec![TensorQr],
            vec![TensorSlot { slot: 0 }, TensorSlot { slot: 1 }],
            vec![
                TensorReduce {
                    kind: Reduction::Sum,
                },
                TensorReduce {
                    kind: Reduction::Mean,
                },
            ],
            vec![TensorLstsq],
        ]
    }

    /// Position of an operator's family in [`families`]. Exhaustive on
    /// purpose: a new variant or step does not compile until it is listed
    /// here, and the test below fails until the table has its family.
    fn family_of(op: &TileableOp) -> usize {
        match op {
            TileableOp::DfSource(DfSource::Materialized(_)) => 0,
            TileableOp::DfSource(DfSource::Generator { .. }) => 1,
            TileableOp::DfMap(DfStep::Filter(_)) => 2,
            TileableOp::DfMap(DfStep::Project(_)) => 3,
            TileableOp::DfMap(DfStep::PruneTo(_)) => 4,
            TileableOp::DfMap(DfStep::Assign(_)) => 5,
            TileableOp::DfMap(DfStep::Fillna(..)) => 6,
            TileableOp::DfMap(DfStep::Dropna(_)) => 7,
            TileableOp::DfMap(DfStep::Rename(_)) => 8,
            TileableOp::GroupbyAgg { .. } => 9,
            TileableOp::Merge { .. } => 10,
            TileableOp::SortValues { .. } => 11,
            TileableOp::Head { .. } => 12,
            TileableOp::ILocRow { .. } => 13,
            TileableOp::DropDuplicates { .. } => 14,
            TileableOp::ConcatDf => 15,
            TileableOp::PivotTable { .. } => 16,
            TileableOp::TensorRandom { .. } => 17,
            TileableOp::TensorFromArr(_) => 18,
            TileableOp::TensorMap(_) => 19,
            TileableOp::TensorBinary { .. } => 20,
            TileableOp::TensorMatMul => 21,
            TileableOp::TensorQr => 22,
            TileableOp::TensorSlot { .. } => 23,
            TileableOp::TensorReduce { .. } => 24,
            TileableOp::TensorLstsq => 25,
        }
    }

    /// Cache key of `op` over as many distinct sources as it reads (two for
    /// a concat), the last two swapped on request, with `pad` unrelated
    /// nodes before every node — renumbering every id — and after the
    /// target.
    fn key_over_sources(op: &TileableOp, pad: usize, swap: bool) -> u64 {
        let mut g = TileableGraph::new();
        let mut push = |op: TileableOp, inputs| {
            for _ in 0..pad {
                g.push(materialized(vec![-1]), vec![]).unwrap();
            }
            g.push(op, inputs).unwrap()
        };
        let mut inputs: Vec<TileableId> = (0..op.arity().unwrap_or(2))
            .map(|i| push(materialized(vec![i as i64]), vec![]))
            .collect();
        if swap {
            inputs.reverse();
        }
        let target = push(op.clone(), inputs);
        push(TileableOp::Head { n: 1 }, vec![target]);
        canonical_hash(&g, target)
    }

    #[test]
    fn cache_key_pins_every_parameter_of_every_variant() {
        let families = families();
        let mut seen: Vec<(u64, String)> = Vec::new();
        for (fi, family) in families.iter().enumerate() {
            for op in family {
                assert_eq!(family_of(op), fi, "{op:?} sits in the wrong family");
                let key = key_over_sources(op, 0, false);
                // any one parameter changed — or another variant over the
                // same inputs — is another key
                for (other, what) in &seen {
                    assert_ne!(key, *other, "{op:?} keys like {what}");
                }
                seen.push((key, format!("{op:?}")));
                // renumbering ids and unrelated nodes in the session: same key
                assert_eq!(key, key_over_sources(op, 3, false), "{op:?}");
                // input order is part of the identity
                if op.arity() != Some(0) && op.arity() != Some(1) {
                    assert_ne!(key, key_over_sources(op, 0, true), "{op:?}");
                    assert_ne!(key, key_over_sources(op, 2, true), "{op:?}");
                }
            }
        }
        assert_eq!(families.len(), 26, "one family per variant and step");
        // QR's outputs key differently: Q is the node, R a projection of it
        let mut g = TileableGraph::new();
        let a = g.push(families[17][0].clone(), vec![]).unwrap();
        let q = g.push(TileableOp::TensorQr, vec![a]).unwrap();
        let mut slot = |slot| g.push(TileableOp::TensorSlot { slot }, vec![q]).unwrap();
        let (r, r_again, q_slot) = (slot(1), slot(1), slot(0));
        assert_ne!(canonical_hash(&g, q), canonical_hash(&g, r));
        assert_ne!(canonical_hash(&g, q_slot), canonical_hash(&g, r));
        assert_eq!(canonical_hash(&g, r), canonical_hash(&g, r_again));
    }

    #[test]
    fn canonical_hash_source_content_sensitive() {
        let mk = |vals: Vec<i64>| {
            let mut g = TileableGraph::new();
            let src = g.push(materialized(vals), vec![]).unwrap();
            let h = g.push(TileableOp::Head { n: 1 }, vec![src]).unwrap();
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
        assert_eq!(TileableOp::TensorQr.n_outputs(), 2);
        assert_eq!(TileableOp::TensorLstsq.n_outputs(), 1);
    }
}
