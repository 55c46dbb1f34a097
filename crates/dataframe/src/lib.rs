//! # xorbits-dataframe
//!
//! A from-scratch, single-node, columnar dataframe kernel — the stand-in for
//! pandas in this reproduction of *Xorbits: Automating Operator Tiling for
//! Distributed Data Science* (ICDE 2024).
//!
//! In the paper's architecture, "single-node packages are the backends for
//! calculation given the split chunk (i.e., pandas is the backend for
//! dataframes)". This crate is that backend: every chunk-level `execute`
//! method in `xorbits-core` bottoms out in the operations defined here.
//!
//! The covered surface is the subset of pandas the paper's workloads
//! exercise: expression evaluation (arithmetic / comparison / string / date),
//! filtering, hash group-by with the map-combine-reduce decomposition, hash
//! joins, sorting and top-k, deduplication, pivot tables, partitioning
//! primitives for shuffles, and CSV IO.

#![warn(missing_docs)]

pub mod bitmap;
pub mod buffer;
pub mod column;
pub mod csv;
pub mod dates;
pub mod error;
pub mod eval;
pub mod expr;
pub mod frame;
pub mod groupby;
pub mod hash;
pub mod join;
pub(crate) mod mem;
pub mod par;
pub mod partition;
pub mod pivot;
pub mod scalar;
pub mod schema;
pub mod sort;

pub use bitmap::Bitmap;
pub use buffer::Buffer;
pub use column::Column;
pub use error::{DfError, DfResult};
pub use expr::{col, lit, Expr};
pub use frame::DataFrame;
pub use groupby::{AggFunc, AggSpec};
pub use join::{JoinOptions, JoinType};
pub use scalar::{DataType, Scalar};
pub use schema::{Field, Schema};
