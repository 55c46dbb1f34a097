//! Engine configuration: tiling thresholds and optimizer switches. The
//! engine reads no environment; every knob is passed by constructor.

use xorbits_storage::EncodingMode;

/// Configuration of the tiling and optimization pipeline. The boolean
/// switches are exactly the knobs the paper's ablation study (Fig 9)
/// toggles; the thresholds drive auto reduce selection, auto merge, and
/// source chunking.
#[derive(Debug, Clone)]
pub struct XorbitsConfig {
    /// Enable dynamic tiling (§IV). When off, groupby always uses
    /// shuffle-reduce with [`Self::shuffle_partitions`] partitions and merge
    /// always uses a shuffle join — the "dy off" bars of Fig 9a.
    pub dynamic_tiling: bool,
    /// Enable coloring-based graph-level fusion (§V-A, "g" in Fig 9b).
    pub graph_fusion: bool,
    /// Enable column pruning (§V-A).
    pub column_pruning: bool,
    /// Upper bound on a data chunk's size; tiling targets chunks of at most
    /// this many bytes and auto merge concatenates smaller chunks up to it.
    pub chunk_limit_bytes: usize,
    /// Tree-reduce is selected when the *measured* estimate of the total
    /// aggregated size falls below this threshold; otherwise shuffle-reduce
    /// (§IV-C "Auto Reduce Selection").
    pub tree_reduce_threshold_bytes: usize,
    /// A merge side whose total size falls below this threshold is broadcast
    /// instead of shuffled.
    pub broadcast_threshold_bytes: usize,
    /// With dynamic tiling off, still allow broadcast joins decided from
    /// *source-size estimates* (models Spark Catalyst, which knows input
    /// file sizes statically but cannot see sizes that emerge mid-pipeline).
    pub broadcast_from_estimates: bool,
    /// Fan-in of combine-stage nodes (tree reduce width; also the auto-merge
    /// batching width).
    pub combine_fanin: usize,
    /// Number of shuffle partitions when shuffle-reduce/shuffle-join is
    /// chosen. With dynamic tiling, this is recomputed from measured sizes;
    /// without, it is used as-is (the static baselines' behaviour).
    pub shuffle_partitions: usize,
    /// Total execution slots (bands) of the cluster the session runs on.
    /// Dynamic tiling sizes shuffle fan-outs to at least this parallelism
    /// (a few bytes per partition is no reason to idle the cluster and
    /// concentrate memory on three workers). Engines set it at init.
    pub cluster_parallelism: usize,
    /// Eager-engine memory semantics: every intermediate stays referenced
    /// until the query completes (each eager operator returns a
    /// materialised frame the driver holds, as with Modin on Ray's object
    /// store), so nothing is reclaimed mid-run.
    pub eager_memory: bool,
    /// Worker threads the embedding program intends to run host execution
    /// with. Nothing in the engine reads it: pass it to
    /// [`ParallelExecutor::with_threads`](crate::parallel::ParallelExecutor::with_threads)
    /// yourself (executors built without a count use the host's available
    /// parallelism); that pool is the one consumer of a thread count.
    pub threads: usize,
    /// Chunk-transport encoding the embedding program intends to use.
    /// Nothing in the engine reads it: `StorageConfig::encoding` and
    /// `ClusterSpec::with_encoding` are what executors honour (both
    /// default to `EncodingMode::Auto`).
    pub encoding: Option<EncodingMode>,
}

impl Default for XorbitsConfig {
    fn default() -> Self {
        XorbitsConfig {
            dynamic_tiling: true,
            graph_fusion: true,
            column_pruning: true,
            chunk_limit_bytes: 8 << 20,
            tree_reduce_threshold_bytes: 16 << 20,
            broadcast_threshold_bytes: 8 << 20,
            broadcast_from_estimates: false,
            combine_fanin: 4,
            shuffle_partitions: 8,
            cluster_parallelism: 8,
            eager_memory: false,
            threads: 0,
            encoding: None,
        }
    }
}

impl XorbitsConfig {
    /// Paper Fig 9a "dy off": dynamic tiling disabled, everything else on.
    pub fn without_dynamic_tiling(mut self) -> Self {
        self.dynamic_tiling = false;
        self
    }

    /// Paper Fig 9b "g off": graph-level fusion disabled.
    pub fn without_graph_fusion(mut self) -> Self {
        self.graph_fusion = false;
        self
    }

    /// Records the intended host worker-thread count ([`Self::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Records the intended chunk-transport encoding ([`Self::encoding`]).
    pub fn with_encoding(mut self, encoding: EncodingMode) -> Self {
        self.encoding = Some(encoding);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_builders() {
        let c = XorbitsConfig::default();
        assert!(c.dynamic_tiling && c.graph_fusion);
        let c = XorbitsConfig::default().without_dynamic_tiling();
        assert!(!c.dynamic_tiling && c.graph_fusion);
        let c = XorbitsConfig::default().without_graph_fusion();
        assert!(!c.graph_fusion && c.dynamic_tiling);
    }
}
