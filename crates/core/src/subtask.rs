//! The subtask graph — the paper's fine-grained physical plan.
//!
//! A subtask is a fused group of chunk operators that executes as one unit
//! on one band (§III-C): intermediates inside a subtask never touch the
//! storage service, and the scheduler assigns whole subtasks to bands.

use crate::chunk::{ChunkGraph, ChunkKey};
use crate::error::{XbError, XbResult};
use std::collections::{HashMap, HashSet};

/// One fused execution unit.
#[derive(Debug, Clone)]
pub struct Subtask {
    /// Indices into the chunk graph, in topological order.
    pub nodes: Vec<usize>,
    /// Chunk keys read from outside the subtask.
    pub external_inputs: Vec<ChunkKey>,
    /// Chunk keys this subtask must publish to the storage service
    /// (consumed by other subtasks, or session-protected results).
    pub published_outputs: Vec<ChunkKey>,
    /// Keys produced and consumed entirely inside the subtask — the
    /// storage traffic that fusion eliminates.
    pub internal_keys: Vec<ChunkKey>,
}

/// The fine-grained physical plan handed to the runtime.
#[derive(Debug, Clone)]
pub struct SubtaskGraph {
    /// The underlying chunk graph.
    pub chunks: ChunkGraph,
    /// Subtasks in topological order.
    pub subtasks: Vec<Subtask>,
    /// Keys that must outlive this graph (future tiling reads or the final
    /// gather). Anything else may be reclaimed once its last consumer in
    /// this graph has run — the refcount lifecycle real engines apply
    /// during execution.
    pub retained: HashSet<ChunkKey>,
}

impl SubtaskGraph {
    /// Builds a subtask graph from a chunk graph and a node→group
    /// assignment (`groups[i]` = group id of chunk node `i`). `protected`
    /// keys are always published. Validates that the quotient graph is
    /// acyclic and groups are topologically orderable.
    pub fn from_groups(
        chunks: ChunkGraph,
        groups: &[usize],
        protected: &HashSet<ChunkKey>,
    ) -> XbResult<SubtaskGraph> {
        assert_eq!(groups.len(), chunks.nodes.len());
        let producers = chunks.producers();

        // collect group members in node order (already topological)
        let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &g) in groups.iter().enumerate() {
            members.entry(g).or_default().push(i);
        }

        // quotient edges for ordering/cycle detection
        let mut group_ids: Vec<usize> = members.keys().copied().collect();
        group_ids.sort_by_key(|g| members[g][0]);
        let gindex: HashMap<usize, usize> =
            group_ids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let n = group_ids.len();
        let mut succs: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        let mut indeg = vec![0usize; n];
        for (ci, node) in chunks.nodes.iter().enumerate() {
            for k in &node.inputs {
                if let Some(&pi) = producers.get(k) {
                    let (gp, gc) = (gindex[&groups[pi]], gindex[&groups[ci]]);
                    if gp != gc && succs[gp].insert(gc) {
                        indeg[gc] += 1;
                    }
                }
            }
        }
        // Kahn topological sort of groups
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&g| indeg[g] == 0).collect();
        ready.sort_unstable();
        while let Some(g) = ready.pop() {
            order.push(g);
            let mut next: Vec<usize> = Vec::new();
            for &s in &succs[g] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    next.push(s);
                }
            }
            next.sort_unstable();
            ready.extend(next);
            ready.sort_unstable();
        }
        if order.len() != n {
            return Err(XbError::Plan(
                "fusion produced a cyclic subtask graph".into(),
            ));
        }

        // consumers per key (for publish decisions)
        let mut consumed_by: HashMap<ChunkKey, Vec<usize>> = HashMap::new();
        for (ci, node) in chunks.nodes.iter().enumerate() {
            for k in &node.inputs {
                consumed_by.entry(*k).or_default().push(ci);
            }
        }

        let mut subtasks = Vec::with_capacity(n);
        for &gq in &order {
            let g = group_ids[gq];
            let nodes = members[&g].clone();
            let node_set: HashSet<usize> = nodes.iter().copied().collect();
            let mut external_inputs = Vec::new();
            let mut published = Vec::new();
            let mut internal = Vec::new();
            let mut seen_inputs = HashSet::new();
            for &ni in &nodes {
                for k in &chunks.nodes[ni].inputs {
                    let internal_producer =
                        producers.get(k).is_some_and(|pi| node_set.contains(pi));
                    if !internal_producer && seen_inputs.insert(*k) {
                        external_inputs.push(*k);
                    }
                }
                for k in &chunks.nodes[ni].outputs {
                    let all_internal = consumed_by
                        .get(k)
                        .map(|cs| cs.iter().all(|c| node_set.contains(c)))
                        .unwrap_or(false);
                    if protected.contains(k) || !all_internal {
                        published.push(*k);
                    } else {
                        internal.push(*k);
                    }
                }
            }
            subtasks.push(Subtask {
                nodes,
                external_inputs,
                published_outputs: published,
                internal_keys: internal,
            });
        }
        Ok(SubtaskGraph {
            chunks,
            subtasks,
            retained: protected.clone(),
        })
    }

    /// One subtask per node (fusion disabled).
    pub fn singletons(chunks: ChunkGraph, protected: &HashSet<ChunkKey>) -> SubtaskGraph {
        let groups: Vec<usize> = (0..chunks.nodes.len()).collect();
        SubtaskGraph::from_groups(chunks, &groups, protected)
            .expect("singleton grouping is always acyclic")
    }

    /// Minimal set of subtask indices that must re-run to rematerialize
    /// `targets`, walking producer edges through every input `available`
    /// does not report as present. This is the lineage-recovery closure:
    /// a subtask joins the set only if one of its outputs is (transitively)
    /// demanded and currently unavailable, so subtasks whose outputs
    /// survived a fault are never re-executed. Returned sorted ascending
    /// (topological, since subtasks are stored in topological order).
    /// Errors if a demanded key has no producer in this graph.
    pub fn ancestor_closure(
        &self,
        targets: &[ChunkKey],
        available: &dyn Fn(ChunkKey) -> bool,
    ) -> XbResult<Vec<usize>> {
        // producer subtask of every key this graph can materialize
        let mut producer: HashMap<ChunkKey, usize> = HashMap::new();
        for (si, st) in self.subtasks.iter().enumerate() {
            for k in st.published_outputs.iter().chain(&st.internal_keys) {
                producer.insert(*k, si);
            }
        }
        let mut need: HashSet<usize> = HashSet::new();
        let mut stack: Vec<ChunkKey> = targets.to_vec();
        while let Some(k) = stack.pop() {
            if available(k) {
                continue;
            }
            let Some(&si) = producer.get(&k) else {
                return Err(XbError::Plan(format!(
                    "chunk {k} is unavailable and has no producer in this graph"
                )));
            };
            if need.insert(si) {
                stack.extend(self.subtasks[si].external_inputs.iter().copied());
            }
        }
        let mut out: Vec<usize> = need.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Trace label of subtask `si`: its fused operator names joined by `+`.
    pub fn subtask_label(&self, si: usize) -> String {
        let names: Vec<&str> = self.subtasks[si]
            .nodes
            .iter()
            .map(|&ni| self.chunks.nodes[ni].op.name())
            .collect();
        names.join("+")
    }

    /// Number of subtasks.
    pub fn len(&self) -> usize {
        self.subtasks.len()
    }

    /// True when no subtasks.
    pub fn is_empty(&self) -> bool {
        self.subtasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkNode, ChunkOp, KeyGen};

    fn chain_graph(n: usize) -> (ChunkGraph, Vec<ChunkKey>) {
        let mut kg = KeyGen::new();
        let mut g = ChunkGraph::new();
        let mut keys = Vec::new();
        let mut prev: Option<ChunkKey> = None;
        for _ in 0..n {
            let k = kg.next_key();
            g.push(ChunkNode {
                op: ChunkOp::Concat,
                inputs: prev.map(|p| vec![p]).unwrap_or_default(),
                outputs: vec![k],
            });
            keys.push(k);
            prev = Some(k);
        }
        (g, keys)
    }

    #[test]
    fn fused_chain_hides_intermediates() {
        let (g, keys) = chain_graph(3);
        let protected: HashSet<_> = [keys[2]].into_iter().collect();
        let sg = SubtaskGraph::from_groups(g, &[0, 0, 0], &protected).unwrap();
        assert_eq!(sg.len(), 1);
        let st = &sg.subtasks[0];
        assert!(st.external_inputs.is_empty());
        assert_eq!(st.published_outputs, vec![keys[2]]);
        assert_eq!(st.internal_keys, vec![keys[0], keys[1]]);
    }

    #[test]
    fn singleton_publishes_everything_consumed() {
        let (g, keys) = chain_graph(2);
        let protected: HashSet<_> = [keys[1]].into_iter().collect();
        let sg = SubtaskGraph::singletons(g, &protected);
        assert_eq!(sg.len(), 2);
        assert_eq!(sg.subtasks[0].published_outputs, vec![keys[0]]);
        assert_eq!(sg.subtasks[1].external_inputs, vec![keys[0]]);
    }

    #[test]
    fn cyclic_grouping_rejected() {
        // a -> b -> c with a and c in one group but b in another would be
        // cyclic in the quotient graph
        let (g, _keys) = chain_graph(3);
        let r = SubtaskGraph::from_groups(g, &[0, 1, 0], &HashSet::new());
        assert!(r.is_err());
    }

    #[test]
    fn ancestor_closure_is_minimal() {
        // chain k0 -> k1 -> k2 -> k3, one subtask per node
        let (g, keys) = chain_graph(4);
        let protected: HashSet<_> = keys.iter().copied().collect();
        let sg = SubtaskGraph::singletons(g, &protected);
        // everything available: nothing to recompute
        assert_eq!(
            sg.ancestor_closure(&[keys[3]], &|_| true).unwrap(),
            Vec::<usize>::new()
        );
        // k2 lost, everything else present: only its producer re-runs
        let lost = keys[2];
        let avail = move |k: ChunkKey| k != lost;
        assert_eq!(sg.ancestor_closure(&[keys[2]], &avail).unwrap(), vec![2]);
        // k1 and k2 lost: recovering k3's input pulls in both producers,
        // but never the surviving source
        let (l1, l2) = (keys[1], keys[2]);
        let avail2 = move |k: ChunkKey| k != l1 && k != l2;
        assert_eq!(
            sg.ancestor_closure(&[keys[2]], &avail2).unwrap(),
            vec![1, 2]
        );
        // a key nobody in the graph produces is an error
        assert!(sg.ancestor_closure(&[9999], &|_| false).is_err());
    }

    #[test]
    fn groups_ordered_topologically() {
        let (g, keys) = chain_graph(4);
        let protected: HashSet<_> = [keys[3]].into_iter().collect();
        let sg = SubtaskGraph::from_groups(g, &[1, 1, 0, 0], &protected).unwrap();
        assert_eq!(sg.len(), 2);
        // first subtask must be the producer group
        assert_eq!(sg.subtasks[0].nodes, vec![0, 1]);
        assert_eq!(sg.subtasks[1].nodes, vec![2, 3]);
    }
}
