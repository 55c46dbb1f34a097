//! The chunk graph — the paper's coarse-grained physical plan.
//!
//! Circles in the paper's Figure 3 are operators ([`ChunkOp`]); squares are
//! data placeholders, identified here by [`ChunkKey`]s that index into the
//! runtime's storage service. A chunk's distributed index (Figure 4) is its
//! position in the planner's `Layout`.

use crate::error::{XbError, XbResult};
use std::fmt;
use std::sync::Arc;
use xorbits_array::{ElemOp, NdArray, Reduction};
use xorbits_dataframe::{AggSpec, DataFrame, Expr, JoinType, Scalar};

/// Globally unique identifier of one data chunk (a storage-service key).
pub type ChunkKey = u64;

/// Metadata of an executed (or planned) chunk — what the paper's meta
/// service stores and dynamic tiling consumes.
pub use xorbits_storage::ChunkMeta;
/// The data held by one chunk: the storage crate's chunk value, which is
/// defined there because it is the lowest crate that knows both backends.
/// The store holds these behind `Arc`s and hands the same `Arc`s back.
pub use xorbits_storage::ChunkValue as Payload;

/// The typed views of a [`Payload`] — a trait only because the error type
/// lives in this crate and the enum one below it.
pub trait PayloadKind {
    /// Dataframe view.
    fn as_df(&self) -> XbResult<&DataFrame>;
    /// Array view.
    fn as_arr(&self) -> XbResult<&NdArray>;
}

impl PayloadKind for Payload {
    fn as_df(&self) -> XbResult<&DataFrame> {
        match self {
            Payload::Df(df) => Ok(df),
            Payload::Arr(_) => Err(XbError::Kernel("expected dataframe chunk".into())),
        }
    }

    fn as_arr(&self) -> XbResult<&NdArray> {
        match self {
            Payload::Arr(a) => Ok(a),
            Payload::Df(_) => Err(XbError::Kernel("expected array chunk".into())),
        }
    }
}

/// One elementwise dataframe step: the parameter of `DfMap` in both the
/// tileable and the chunk graph.
#[derive(Debug, Clone)]
pub enum DfStep {
    /// Keep rows where the predicate holds.
    Filter(Expr),
    /// Keep only these columns.
    Project(Vec<String>),
    /// Keep only these columns *where present* — the tolerant projection
    /// inserted by the column-pruning pass (the required-column analysis is
    /// deliberately conservative across joins, so some requested names may
    /// belong to the other join side).
    PruneTo(Vec<String>),
    /// Add/replace derived columns.
    Assign(Vec<(String, Expr)>),
    /// Replace nulls in a column.
    Fillna(String, Scalar),
    /// Drop rows with nulls in the subset (or any column).
    Dropna(Option<Vec<String>>),
    /// Rename columns.
    Rename(Vec<(String, String)>),
}

impl DfStep {
    /// Whether every input row comes out, so an exact row count stays
    /// exact. Filters and null-row removal do not: the classic
    /// unknown-shape operators of §IV-A.
    pub fn keeps_rows(&self) -> bool {
        !matches!(self, DfStep::Filter(_) | DfStep::Dropna(_))
    }

    /// One-line rendering for logical plans (expressions elided).
    pub fn label(&self) -> String {
        match self {
            DfStep::Filter(_) => "Filter".into(),
            DfStep::Project(columns) => format!("Project{columns:?}"),
            DfStep::PruneTo(columns) => format!("PruneColumns{columns:?}"),
            DfStep::Assign(exprs) => {
                let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                format!("Assign[{}]", names.join(", "))
            }
            DfStep::Fillna(column, _) => format!("Fillna({column})"),
            DfStep::Dropna(_) => "Dropna".into(),
            DfStep::Rename(_) => "Rename".into(),
        }
    }
}

/// One elementwise array step: `x ↦ op(x, operand)`.
#[derive(Debug, Clone, Copy)]
pub struct ArrStep {
    /// The scalar operator.
    pub op: ElemOp,
    /// Right-hand operand.
    pub operand: f64,
}

/// A chunk-level physical operator. Every tileable operator's `tile` method
/// lowers to a subgraph of these; every variant's `execute` lives in
/// [`crate::exec`] and bottoms out in the single-node kernels.
#[derive(Clone)]
pub enum ChunkOp {
    // ---- sources ----------------------------------------------------------
    /// Materialized dataframe chunk (used for pre-chunked inputs and
    /// dynamic-tiling probes).
    DfLiteral(Arc<DataFrame>),
    /// Generated dataframe chunk: a deterministic closure producing one
    /// partition of a data source (CSV range scan or synthetic generator).
    DfGen {
        /// The generator.
        gen: Arc<dyn Fn() -> XbResult<DataFrame> + Send + Sync>,
        /// Human-readable label for plans and progress output.
        label: String,
    },
    /// Materialized array chunk.
    ArrLiteral(Arc<NdArray>),
    /// Random array chunk with a per-chunk derived seed.
    ArrRandom {
        /// Chunk shape.
        shape: Vec<usize>,
        /// Seed (already mixed with the chunk index).
        seed: u64,
        /// Standard normal instead of uniform.
        normal: bool,
    },

    // ---- dataframe elementwise ---------------------------------------------
    /// One elementwise step over one chunk. Graph-level fusion runs a chain
    /// of these in one subtask (§V-A).
    DfMap(DfStep),

    // ---- groupby map-combine-reduce (§III-C) --------------------------------
    /// Map stage: per-chunk partial aggregation.
    GroupbyMap {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Combine stage: merge concatenated partials (pre-aggregation).
    GroupbyCombine {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Reduce stage: final aggregation from partials.
    GroupbyFinalize {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Local deduplication (map/combine stage of distributed
    /// `drop_duplicates` and of the `nunique` lowering).
    DistinctLocal {
        /// Dedup key subset (`None` ⇒ all columns).
        subset: Option<Vec<String>>,
    },
    /// Whole-input single-pass aggregation (used after a gather for
    /// aggregations whose partial state is not column-decomposable, e.g.
    /// `nunique`).
    GroupbyDirect {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },

    // ---- shuffle ------------------------------------------------------------
    /// Hash-partitions the input dataframe into `n` outputs by key.
    ShuffleSplit {
        /// Partition keys.
        keys: Vec<String>,
        /// Partition count.
        n: usize,
    },

    // ---- reshaping ------------------------------------------------------------
    /// Concatenates all inputs (dataframes, or arrays along axis 0). Also the
    /// auto-merge primitive (§IV-C) and the combine-stage gather — but never
    /// a join's input, which takes its pieces as they lie.
    Concat,
    /// First `n` rows.
    HeadLocal {
        /// Row count.
        n: usize,
    },
    /// Contiguous row slice (the `ILoc` physical op of Fig 3c).
    SliceLocal {
        /// Start row within the chunk.
        offset: usize,
        /// Row count.
        len: usize,
    },
    /// Full local sort.
    SortLocal {
        /// `(column, ascending)` sort keys.
        keys: Vec<(String, bool)>,
    },
    /// Partial sort returning the first `n` rows of the sorted order.
    TopKLocal {
        /// Sort keys.
        keys: Vec<(String, bool)>,
        /// Row count.
        n: usize,
    },

    // ---- join -----------------------------------------------------------------
    /// Hash join of its inputs: the first `left_inputs` are the left
    /// side's pieces, the rest the right side's, each side read as one
    /// frame laid end to end (no `Concat` in front of a join).
    Join {
        /// How many leading inputs are left-side pieces.
        left_inputs: usize,
        /// Left key columns.
        left_on: Vec<String>,
        /// Right key columns.
        right_on: Vec<String>,
        /// Join type.
        how: JoinType,
        /// Suffixes for overlapping columns.
        suffixes: (String, String),
    },
    /// Local pivot table.
    PivotLocal {
        /// Row index column.
        index: String,
        /// Header column.
        columns: String,
        /// Value column.
        values: String,
        /// Aggregation.
        agg: xorbits_dataframe::AggFunc,
    },

    // ---- array ops ---------------------------------------------------------------
    /// One scalar-operand step over one chunk.
    ArrMap(ArrStep),
    /// Elementwise binary op of inputs `[a, b]` with broadcasting.
    ArrBinary(ElemOp),
    /// Matrix product of inputs `[a, b]`.
    MatMul,
    /// Local reduced QR; outputs `[Q, R]` (TSQR building block).
    QrLocal,
    /// Block `i` of `k` equal row blocks of the input array — used by TSQR
    /// to slice the stacked-R Q factor when the block height is only known
    /// at execution time.
    ArrSliceBlock {
        /// Block index.
        block: usize,
        /// Total block count.
        nblocks: usize,
    },
    /// Gram-matrix partial `XᵀX` of the input chunk (linear regression map).
    XtX,
    /// `Xᵀy` partial of inputs `[X, y]`.
    XtY,
    /// Elementwise sum of all inputs (partial-sum combine).
    AddN,
    /// Solves the normal equations from inputs `[XᵀX, Xᵀy]`.
    SolveNe,
    /// Per-chunk reduction partial state (`[sum]`, `[sum,count]`, `[min]`…).
    ReducePartial {
        /// Reduction kind.
        kind: Reduction,
    },
    /// Combines reduction partial states.
    ReduceCombine {
        /// Reduction kind.
        kind: Reduction,
    },
    /// Turns the combined state into the final 1-element array.
    ReduceFinal {
        /// Reduction kind.
        kind: Reduction,
    },
}

impl ChunkOp {
    /// Short operator name for plans, fusion debugging and progress output.
    pub fn name(&self) -> &'static str {
        match self {
            ChunkOp::DfLiteral(_) => "DfLiteral",
            ChunkOp::DfGen { .. } => "DfGen",
            ChunkOp::ArrLiteral(_) => "ArrLiteral",
            ChunkOp::ArrRandom { .. } => "ArrRandom",
            ChunkOp::DfMap(_) => "DfMap",
            ChunkOp::GroupbyMap { .. } => "GroupbyAgg::map",
            ChunkOp::GroupbyCombine { .. } => "GroupbyAgg::combine",
            ChunkOp::GroupbyFinalize { .. } => "GroupbyAgg::agg",
            ChunkOp::DistinctLocal { .. } => "Distinct",
            ChunkOp::GroupbyDirect { .. } => "GroupbyAgg::direct",
            ChunkOp::ShuffleSplit { .. } => "ShuffleSplit",
            ChunkOp::Concat => "Concat",
            ChunkOp::HeadLocal { .. } => "Head",
            ChunkOp::SliceLocal { .. } => "ILoc",
            ChunkOp::SortLocal { .. } => "Sort",
            ChunkOp::TopKLocal { .. } => "TopK",
            ChunkOp::Join { .. } => "Join",
            ChunkOp::PivotLocal { .. } => "Pivot",
            ChunkOp::ArrMap(_) => "ArrMap",
            ChunkOp::ArrBinary(_) => "ArrBinary",
            ChunkOp::MatMul => "MatMul",
            ChunkOp::QrLocal => "TensorQR",
            ChunkOp::ArrSliceBlock { .. } => "ArrSliceBlock",
            ChunkOp::XtX => "XtX",
            ChunkOp::XtY => "XtY",
            ChunkOp::AddN => "AddN",
            ChunkOp::SolveNe => "SolveNE",
            ChunkOp::ReducePartial { .. } => "Reduce::map",
            ChunkOp::ReduceCombine { .. } => "Reduce::combine",
            ChunkOp::ReduceFinal { .. } => "Reduce::agg",
        }
    }

    /// True for source ops (no inputs) — the nodes the scheduler places
    /// breadth-first (§V-B).
    pub fn is_source(&self) -> bool {
        matches!(
            self,
            ChunkOp::DfLiteral(_)
                | ChunkOp::DfGen { .. }
                | ChunkOp::ArrLiteral(_)
                | ChunkOp::ArrRandom { .. }
        )
    }
}

impl fmt::Debug for ChunkOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One node of the chunk graph.
#[derive(Debug, Clone)]
pub struct ChunkNode {
    /// The operator.
    pub op: ChunkOp,
    /// Keys of input chunks. Keys produced by earlier (already-executed)
    /// graphs are legal: the runtime resolves them from the storage service,
    /// which is how dynamic tiling's partial executions compose.
    pub inputs: Vec<ChunkKey>,
    /// Keys of output chunks (most ops have exactly one).
    pub outputs: Vec<ChunkKey>,
}

/// The coarse-grained physical plan: a DAG of chunk operators in
/// topological order of construction.
#[derive(Debug, Clone, Default)]
pub struct ChunkGraph {
    /// Nodes in insertion (topological) order.
    pub nodes: Vec<ChunkNode>,
}

impl ChunkGraph {
    /// Empty graph.
    pub fn new() -> ChunkGraph {
        ChunkGraph::default()
    }

    /// Adds a node; returns its index.
    pub fn push(&mut self, node: ChunkNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Map from chunk key to the index of its producing node, for keys
    /// produced inside this graph.
    pub fn producers(&self) -> std::collections::HashMap<ChunkKey, usize> {
        let mut map = std::collections::HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for &k in &n.outputs {
                map.insert(k, i);
            }
        }
        map
    }

    /// Asserts the insertion order is topological (every producer precedes
    /// its consumers). Used by tests and debug builds.
    pub fn validate_topological(&self) -> XbResult<()> {
        let producers = self.producers();
        for (ci, n) in self.nodes.iter().enumerate() {
            for k in &n.inputs {
                if let Some(&pi) = producers.get(k) {
                    if pi >= ci {
                        return Err(XbError::Plan(format!(
                            "node {ci} consumes key {k} produced by later node {pi}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Monotonic chunk-key allocator (one per session).
#[derive(Debug, Default)]
pub struct KeyGen {
    next: ChunkKey,
}

impl KeyGen {
    /// Fresh allocator.
    pub fn new() -> KeyGen {
        KeyGen { next: 1 }
    }

    /// Allocator starting at `base.max(1)` — lets concurrent sessions that
    /// share one executor (the serving runtime) carve disjoint key ranges
    /// so chunks from different tenants never collide.
    pub fn starting_at(base: ChunkKey) -> KeyGen {
        KeyGen { next: base.max(1) }
    }

    /// The next key that would be allocated (exclusive upper bound of the
    /// keys handed out so far).
    pub fn peek(&self) -> ChunkKey {
        self.next
    }

    /// Allocates the next key.
    pub fn next_key(&mut self) -> ChunkKey {
        let k = self.next;
        self.next += 1;
        k
    }

    /// Allocates `n` keys.
    pub fn next_keys(&mut self, n: usize) -> Vec<ChunkKey> {
        (0..n).map(|_| self.next_key()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::Column;

    #[test]
    fn payload_accessors() {
        let df = DataFrame::new(vec![("a", Column::from_i64(vec![1, 2]))]).unwrap();
        let p = Payload::Df(df);
        assert_eq!(p.rows(), 2);
        assert!(p.as_df().is_ok());
        assert!(p.as_arr().is_err());
        let a = Payload::Arr(NdArray::zeros(&[3, 4]));
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nbytes(), 96);
    }

    #[test]
    fn graph_edges_and_topology() {
        let mut kg = KeyGen::new();
        let (k1, k2, k3) = (kg.next_key(), kg.next_key(), kg.next_key());
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![k1],
        });
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![k1],
            outputs: vec![k2],
        });
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![k1, k2],
            outputs: vec![k3],
        });
        assert!(g.validate_topological().is_ok());
        // break topology
        let mut bad = ChunkGraph::new();
        bad.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![k1],
            outputs: vec![k2],
        });
        bad.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![k1],
        });
        assert!(bad.validate_topological().is_err());
    }

    #[test]
    fn keygen_monotonic() {
        let mut kg = KeyGen::new();
        let a = kg.next_key();
        let ks = kg.next_keys(3);
        assert!(ks.iter().all(|&k| k > a));
        assert_eq!(ks.len(), 3);
    }
}
