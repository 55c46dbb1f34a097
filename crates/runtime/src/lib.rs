//! # xorbits-runtime
//!
//! The virtual-time cluster simulator implementing `xorbits-core`'s
//! [`Executor`](xorbits_core::session::Executor) trait: breadth-first +
//! locality-aware subtask scheduling onto workers × bands (§V-B of the
//! paper), a multi-level storage model with per-worker memory ledgers and
//! spilling (§V-C), deterministic network/disk cost accounting, and the
//! paper's failure taxonomy (OOM, Hang).
//!
//! See DESIGN.md for why a virtual-time simulator over real kernel
//! executions preserves the paper's experimental shape on a single host.

#![warn(missing_docs)]

mod chunks;
pub mod cluster;
pub mod fault;
mod ledger;
mod placement;
mod recovery;
pub mod sim;

pub use cluster::ClusterSpec;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultTrigger, RetryPolicy};
pub use sim::{GraphRun, SimExecutor};

/// A session running on the simulator (the common type in benches/tests).
pub type SimSession = xorbits_core::session::Session<SimExecutor>;
