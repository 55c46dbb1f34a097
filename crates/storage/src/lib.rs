//! # xorbits-storage
//!
//! The multi-level storage service of §V-C: the component that lets an
//! executor hold a working set larger than memory by spilling chunks to a
//! disk tier and reading them back transparently.
//!
//! Three pieces, bottom-up:
//!
//! * [`chunkfmt`] — a versioned, little-endian binary envelope for chunk
//!   payloads (dataframes and arrays). The encoder serializes sliced /
//!   copy-on-write buffer *views* losslessly; the decoder is strict
//!   (bounds-checked regions, validated offsets and UTF-8, whole-envelope
//!   checksum) and rebuilds string columns as zero-copy windows over the
//!   read buffer.
//! * [`service`] — [`service::StorageService`]: one put/get-by-chunk-key
//!   table under one lock — a memory tier governed by a byte budget with
//!   clock (second-chance) eviction and pin/unpin refcounts, over a disk
//!   tier of per-chunk spill files with transparent read-back promotion.
//!   Each entry carries its [`ChunkMeta`], so the store is the meta
//!   service too. Exports a [`service::StorageMetrics`] snapshot.
//! * [`ChunkValue`] — the chunk payload, defined here once because this is
//!   the lowest crate that knows both `DataFrame` and `NdArray`;
//!   `xorbits_core::chunk::Payload` is this type re-exported. The
//!   executors in `xorbits-core` / `xorbits-runtime` / `xorbits-serving`
//!   hand the store `Arc<ChunkValue>`s and get them back: a load is a
//!   refcount bump.
//!
//! Like the rest of the workspace, the crate has zero external
//! dependencies: the format is hand-rolled (no serde) and locking is
//! `std::sync`.

#![warn(missing_docs)]

pub mod chunkfmt;
pub mod error;
pub mod service;

pub use chunkfmt::{
    decode_chunk, decode_chunk_with, encode_chunk, encode_chunk_with_mode, encoded_size,
    DecodeWorkspace, EncodeWorkspace, EncodedSize, EncodingMode,
};
pub use error::{StorageError, StorageResult};
pub use service::{SpillConfig, StorageConfig, StorageMetrics, StorageService};

use xorbits_array::NdArray;
use xorbits_dataframe::DataFrame;

/// The data held by one chunk.
#[derive(Debug, Clone)]
pub enum ChunkValue {
    /// A dataframe chunk (pandas backend).
    Df(DataFrame),
    /// An array chunk (NumPy backend).
    Arr(NdArray),
}

impl ChunkValue {
    /// Approximate *logical* heap bytes of the viewed data (the unit for
    /// transfer costs, chunk metadata and the memory-tier budget).
    pub fn nbytes(&self) -> usize {
        match self {
            ChunkValue::Df(df) => df.nbytes(),
            ChunkValue::Arr(a) => a.nbytes(),
        }
    }

    /// Bytes of all distinct allocations this payload keeps alive (what the
    /// simulator's ledger actually charges). Allocations shared *within*
    /// the payload are counted once; sharing *across* payloads is
    /// deduplicated by the ledger via [`ChunkValue::push_allocs`].
    pub fn retained_nbytes(&self) -> usize {
        match self {
            ChunkValue::Df(df) => df.retained_nbytes(),
            ChunkValue::Arr(a) => a.retained_nbytes(),
        }
    }

    /// Appends `(alloc_id, retained_bytes)` for every buffer backing this
    /// payload.
    pub fn push_allocs(&self, out: &mut Vec<(usize, usize)>) {
        match self {
            ChunkValue::Df(df) => df.push_allocs(out),
            ChunkValue::Arr(a) => out.push((a.alloc_id(), a.retained_nbytes())),
        }
    }

    /// Materializes any backing buffer whose retained allocation exceeds
    /// `slack ×` its logical size (a small view pinning a large parent).
    /// Returns true if a copy happened.
    pub fn compact(&mut self, slack: f64) -> bool {
        match self {
            ChunkValue::Df(df) => df.compact(slack),
            ChunkValue::Arr(a) => a.compact(slack),
        }
    }

    /// Leading-dimension length (dataframe rows or array axis-0).
    pub fn rows(&self) -> usize {
        match self {
            ChunkValue::Df(df) => df.num_rows(),
            ChunkValue::Arr(a) => a.shape().first().copied().unwrap_or(0),
        }
    }
}

/// Metadata of an executed (or planned) chunk — what the paper's meta
/// service stores and dynamic tiling consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkMeta {
    /// Heap bytes.
    pub nbytes: usize,
    /// Leading-dimension length.
    pub rows: usize,
}
