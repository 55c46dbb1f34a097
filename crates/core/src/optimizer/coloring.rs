//! Coloring-based graph-level fusion — the paper's §V-A algorithm (Fig 7).
//!
//! Three passes assign every chunk node a color; same-colored neighbours
//! fuse into one subtask:
//!
//! 1. **Initial coloring** — nodes without predecessors each get a fresh
//!    color.
//! 2. **Forward propagation** — in topological order, a node whose
//!    predecessors all share one color inherits it; otherwise it gets a
//!    fresh color.
//! 3. **Separation** — for each node whose successors *mix* its own color
//!    with different colors, the same-colored successors are recolored
//!    fresh (and the new color propagates down the chain). This splits
//!    nodes whose output is also needed elsewhere out of the straight-line
//!    chain — e.g. Fig 7's Operator ① must not fuse with ③ or ⑤.
//!
//! Separation can leave a class non-convex: a node that inherited a color
//! through two branches recolored apart keeps it, and the subtask graph
//! gets a cycle. A fourth step makes every class convex — one root, every
//! other member reading only from inside the class — so all edges into a
//! class enter at its root and the subtask graph is acyclic. A non-convex
//! class always closes a cycle, so an acyclic coloring is left unchanged.

use crate::chunk::ChunkGraph;

/// Computes the color (= fusion group id) of every node. Every color class
/// is convex, so grouping by color never yields a cyclic subtask graph.
pub fn color_graph(graph: &ChunkGraph) -> Vec<usize> {
    let (mut colors, preds, succs) = separated_colors(graph);
    // Step 4: in topological order, a node that is not the first of its
    // class but reads from outside it starts a class of its own, taking
    // along the descendants that inherited its color only through it.
    // Recoloring reaches only later nodes, so a visited node is final.
    let mut rooted = vec![false; colors.iter().max().map_or(0, |&c| c + 1)];
    for v in 0..colors.len() {
        let c = colors[v];
        if !rooted[c] {
            rooted[c] = true;
        } else if preds[v].iter().any(|&p| colors[p] != c) {
            recolor_chain(v, c, rooted.len(), &mut colors, &succs, &preds);
            rooted.push(true);
        }
    }
    colors
}

/// Steps 1–3, with the predecessor and successor lists they ran on.
fn separated_colors(graph: &ChunkGraph) -> (Vec<usize>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = graph.nodes.len();
    let producers = graph.producers();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    // nodes also reading chunks produced by *earlier executions* (dynamic
    // tiling fragments): their data does not flow from their in-graph
    // predecessor, so they must not inherit its color — otherwise e.g.
    // every broadcast join hanging off one Concat would fuse into a single
    // serial subtask
    let mut has_external = vec![false; n];
    for (ci, node) in graph.nodes.iter().enumerate() {
        for k in &node.inputs {
            if let Some(&pi) = producers.get(k) {
                if !preds[ci].contains(&pi) {
                    preds[ci].push(pi);
                    succs[pi].push(ci);
                }
            } else {
                has_external[ci] = true;
            }
        }
    }

    let mut colors = vec![usize::MAX; n];
    let mut next_color = 0usize;
    let mut fresh = || {
        let c = next_color;
        next_color += 1;
        c
    };

    // Steps 1 + 2: initial colors, then forward inheritance.
    // (insertion order is topological)
    for i in 0..n {
        if preds[i].is_empty() {
            colors[i] = fresh();
        } else {
            let first = colors[preds[i][0]];
            if !has_external[i] && preds[i].iter().all(|&p| colors[p] == first) {
                colors[i] = first;
            } else {
                colors[i] = fresh();
            }
        }
    }

    // Step 3: separation. For each node in topological order, if its
    // successors mix same-color and different-color, give the same-colored
    // successors a fresh color and propagate it along their inheritance
    // chains.
    for i in 0..n {
        let c = colors[i];
        let same: Vec<usize> = succs[i]
            .iter()
            .copied()
            .filter(|&s| colors[s] == c)
            .collect();
        let diff_exists = succs[i].iter().any(|&s| colors[s] != c);
        if same.is_empty() || !diff_exists {
            continue;
        }
        for s in same {
            let new_c = fresh();
            recolor_chain(s, c, new_c, &mut colors, &succs, &preds);
        }
    }
    (colors, preds, succs)
}

/// Recolors `start` from `old` to `new`, then follows descendants that had
/// inherited `old` (all of whose predecessors now carry `new`).
fn recolor_chain(
    start: usize,
    old: usize,
    new: usize,
    colors: &mut [usize],
    succs: &[Vec<usize>],
    preds: &[Vec<usize>],
) {
    colors[start] = new;
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &v in &succs[u] {
            if colors[v] == old && preds[v].iter().all(|&p| colors[p] == new) {
                colors[v] = new;
                stack.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkNode, ChunkOp, KeyGen};
    use crate::subtask::SubtaskGraph;
    use std::collections::HashSet;

    /// Builds a graph from an adjacency description: `edges[i]` lists the
    /// predecessors of node `i`.
    fn graph_from_preds(edges: &[&[usize]]) -> ChunkGraph {
        let mut kg = KeyGen::new();
        let keys: Vec<_> = (0..edges.len()).map(|_| kg.next_key()).collect();
        let mut g = ChunkGraph::new();
        for (i, preds) in edges.iter().enumerate() {
            g.push(ChunkNode {
                op: ChunkOp::Concat,
                inputs: preds.iter().map(|&p| keys[p]).collect(),
                outputs: vec![keys[i]],
            });
        }
        g
    }

    #[test]
    fn straight_chain_single_color() {
        let g = graph_from_preds(&[&[], &[0], &[1], &[2]]);
        let c = color_graph(&g);
        assert!(
            c.iter().all(|&x| x == c[0]),
            "chain should fully fuse: {c:?}"
        );
    }

    #[test]
    fn independent_sources_distinct_colors() {
        let g = graph_from_preds(&[&[], &[]]);
        let c = color_graph(&g);
        assert_ne!(c[0], c[1]);
    }

    #[test]
    fn join_node_gets_new_color() {
        // 0 -> 2 <- 1 : node 2 has mixed-color predecessors
        let g = graph_from_preds(&[&[], &[], &[0, 1]]);
        let c = color_graph(&g);
        assert_ne!(c[2], c[0]);
        assert_ne!(c[2], c[1]);
    }

    /// The paper's Figure 7 topology:
    /// ① → ③ → ④, ① → ⑤, ② → ⑤ (wait: ⑤ has preds ①②), ② → ⑦ → …
    /// Operator ① must NOT fuse with ③ (its output also feeds ⑤), and
    /// ③④ fuse together.
    #[test]
    fn figure7_separation() {
        // nodes: 0=①, 1=②, 2=③, 3=④, 4=⑤, 5=⑦, 6=⑥(succ of 5 and 4?)
        // Simplified faithful core: ① feeds ③ and ⑤; ② feeds ⑤ and ⑦;
        // ③ feeds ④; ⑦ feeds ⑥.
        let g = graph_from_preds(&[
            &[],     // 0 = ①
            &[],     // 1 = ②
            &[0],    // 2 = ③ inherits C1 in step 2
            &[2],    // 3 = ④ inherits
            &[0, 1], // 4 = ⑤ mixed preds -> new color
            &[1],    // 5 = ⑦ inherits C2 in step 2
            &[5, 4], // 6 = ⑥ mixed -> new color
        ]);
        let c = color_graph(&g);
        // separation: ① not fused with ③
        assert_ne!(c[0], c[2], "① must be split from ③: {c:?}");
        // ③ and ④ stay fused (the new color propagated to ④)
        assert_eq!(c[2], c[3], "③ and ④ should fuse: {c:?}");
        // ② split from ⑦ likewise
        assert_ne!(c[1], c[5], "② must be split from ⑦: {c:?}");
        // ⑤ is its own color
        assert_ne!(c[4], c[0]);
        assert_ne!(c[4], c[1]);
    }

    /// Whether grouping by `colors` gives an acyclic subtask graph.
    fn acyclic(g: &ChunkGraph, colors: &[usize]) -> bool {
        SubtaskGraph::from_groups(g.clone(), colors, &HashSet::new()).is_ok()
    }

    #[test]
    fn rejoined_separated_branches_get_their_own_class() {
        // 0 = i, 1 = s(i), 2 = t(i), 3 = u(s, t), 4 = y, 5 = x(i, y).
        // Separation at i recolors s and t apart; u inherited i's color
        // through both, and steps 1–3 alone leave it there, closing the
        // cycle i → s → u.
        let g = graph_from_preds(&[&[], &[0], &[0], &[1, 2], &[], &[0, 4]]);
        let raw = separated_colors(&g).0;
        assert_eq!(raw, vec![0, 3, 4, 0, 1, 2]);
        assert!(!acyclic(&g, &raw));
        let c = color_graph(&g);
        assert_eq!(c, vec![0, 3, 4, 5, 1, 2]);
        assert!(acyclic(&g, &c));
    }

    /// Random DAGs, some nodes also reading a chunk from an earlier
    /// execution: the coloring always groups acyclically, and it is the
    /// paper's three-step coloring whenever that one already was.
    #[test]
    fn coloring_is_acyclic_and_only_repairs_cycles() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut repaired = 0;
        for _ in 0..3000 {
            let n = 1 + next(14) as usize;
            let density = 1 + next(4);
            let mut kg = KeyGen::new();
            let keys = kg.next_keys(n);
            let mut g = ChunkGraph::new();
            for i in 0..n {
                let mut inputs: Vec<_> = (0..i)
                    .filter(|_| next(8) < density)
                    .map(|p| keys[p])
                    .collect();
                if next(10) == 0 {
                    inputs.push(kg.next_key());
                }
                g.push(ChunkNode {
                    op: ChunkOp::Concat,
                    inputs,
                    outputs: vec![keys[i]],
                });
            }
            let raw = separated_colors(&g).0;
            let colors = color_graph(&g);
            assert!(acyclic(&g, &colors), "cyclic grouping {colors:?}");
            if acyclic(&g, &raw) {
                assert_eq!(colors, raw);
            } else {
                repaired += 1;
            }
        }
        // the generator must reach the case the last step exists for
        assert!(repaired > 0);
    }

    #[test]
    fn multi_output_diamond_not_fused_through() {
        // 0 feeds 1 and 2; both feed 3. Step 2: 1 and 2 inherit C0; 3's
        // preds share C0 so 3 inherits too. Step 3: node 0's successors all
        // share its color (no "different" successor) so per the paper the
        // whole diamond may fuse — verify it stays consistent (all same).
        let g = graph_from_preds(&[&[], &[0], &[0], &[1, 2]]);
        let c = color_graph(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[0], c[2]);
        assert_eq!(c[0], c[3]);
    }
}
