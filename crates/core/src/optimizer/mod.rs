//! Graph optimization passes (§V-A): predicate pushdown and column pruning
//! on the tileable graph, coloring-based graph-level fusion on the chunk
//! graph.

pub mod coloring;
pub mod names;
pub mod pruning;
pub mod pushdown;

use crate::chunk::{ChunkGraph, ChunkKey};
use crate::config::XorbitsConfig;
use crate::error::XbResult;
use crate::subtask::SubtaskGraph;
use crate::trace;
use std::collections::HashSet;

/// Lowers an (already tiled) chunk graph to a subtask graph: one subtask
/// per color class when graph-level fusion is on, one per node otherwise.
/// Coloring yields convex classes, so the quotient graph is acyclic; a
/// grouping [`SubtaskGraph::from_groups`] still rejects is a plan error.
pub fn build_subtask_graph(
    chunks: ChunkGraph,
    cfg: &XorbitsConfig,
    protected: &HashSet<ChunkKey>,
) -> XbResult<SubtaskGraph> {
    if !cfg.graph_fusion {
        return Ok(SubtaskGraph::singletons(chunks, protected));
    }
    let _g = trace::span(trace::Stage::Optimize, "coloring");
    let colors = coloring::color_graph(&chunks);
    let sg = SubtaskGraph::from_groups(chunks, &colors, protected)?;
    if trace::is_enabled() {
        trace::counter_add(
            "optimize.chunks_fused",
            sg.chunks.nodes.len().saturating_sub(sg.len()) as u64,
        );
    }
    Ok(sg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkNode, ChunkOp, DfStep, KeyGen};
    use xorbits_dataframe::{col, lit};

    fn chain() -> (ChunkGraph, Vec<ChunkKey>) {
        let mut kg = KeyGen::new();
        let keys: Vec<_> = (0..4).map(|_| kg.next_key()).collect();
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![keys[0]],
        });
        for i in 1..4 {
            g.push(ChunkNode {
                op: ChunkOp::DfMap(DfStep::Filter(col("a").gt(lit(0i64))).into()),
                inputs: vec![keys[i - 1]],
                outputs: vec![keys[i]],
            });
        }
        (g, keys)
    }

    #[test]
    fn graph_fusion_collapses_chain() {
        let (g, keys) = chain();
        let protected: HashSet<_> = [keys[3]].into_iter().collect();
        let sg = build_subtask_graph(g, &XorbitsConfig::default(), &protected).unwrap();
        // coloring fuses source and maps; every node stays in the graph
        assert_eq!(sg.len(), 1);
        assert_eq!(sg.chunks.nodes.len(), 4);
        assert_eq!(sg.subtasks[0].published_outputs, vec![keys[3]]);
    }

    #[test]
    fn fusion_disabled_yields_singletons() {
        let (g, keys) = chain();
        let protected: HashSet<_> = [keys[3]].into_iter().collect();
        let cfg = XorbitsConfig::default().without_graph_fusion();
        let sg = build_subtask_graph(g, &cfg, &protected).unwrap();
        assert_eq!(sg.len(), 4);
    }
}
