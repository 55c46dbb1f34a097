//! # xorbits-core
//!
//! The heart of the Xorbits reproduction: the three computation graphs of
//! §III-C (tileable → chunk → subtask), the dynamic-tiling engine of §IV,
//! the graph optimizer of §V-A (column pruning, coloring-based graph-level
//! fusion), the auto-rechunk algorithm of
//! §V-D (paper Algorithm 1), and the deferred-evaluation session API.
//!
//! Execution is abstracted behind [`session::Executor`]; the
//! `xorbits-runtime` crate provides the virtual-time cluster simulator that
//! implements it.

#![warn(missing_docs)]

pub mod chunk;
pub mod config;
pub mod error;
pub mod exec;
pub mod explain;
pub mod local;
pub mod optimizer;
pub mod parallel;
pub mod rechunk;
pub mod retile;
pub mod session;
pub mod sql;
pub mod subtask;
pub mod tileable;
pub mod tiling;
pub mod trace;

pub use chunk::{
    ChunkGraph, ChunkKey, ChunkMeta, ChunkNode, ChunkOp, KeyGen, Payload, PayloadKind,
};
pub use config::XorbitsConfig;
pub use error::{FailureKind, XbError, XbResult};
pub use parallel::ParallelExecutor;
pub use retile::RetileMode;
pub use session::{DfHandle, ExecStats, Executor, RunReport, Session, TensorHandle};
pub use sql::{run_sql, Catalog, PlanCacheStats, SqlError, SqlFrontend};
pub use subtask::{Subtask, SubtaskGraph};
pub use tileable::{DfSource, TileableGraph, TileableId, TileableNode, TileableOp};
pub use tiling::{MetaView, TileStep, Tiler, TilingStats};
