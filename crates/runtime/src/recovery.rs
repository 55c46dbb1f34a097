//! Fault state and lineage: which plan events fired, which bands died,
//! which chunks a fault destroyed, and how every chunk of the fetch was
//! produced — enough to pick the minimal set of nodes to replay. The
//! replay itself (clock, IO charges, ledger) is the executor's.

use crate::fault::{FaultKind, FaultPlan, FaultTrigger, RetryPolicy};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xorbits_array::prng::Xoshiro256;
use xorbits_core::chunk::{ChunkGraph, ChunkKey, ChunkNode};
use xorbits_core::error::{XbError, XbResult};

/// How one chunk node was produced — recorded for every node executed in
/// the current fetch so lost chunks can be recomputed from lineage. The
/// record is shared (`Arc`) by all of the node's output keys.
pub(crate) struct LineageNode {
    /// Global production order across all graphs in the fetch: monotone in
    /// execution order, hence a valid topological order for replay.
    pub seq: u64,
    pub node: ChunkNode,
}

pub(crate) struct Recovery {
    /// The spec's fault plan (an empty one when it has none).
    plan: FaultPlan,
    /// Plan RNG for this fetch (re-seeded by [`Self::arm`]).
    rng: Xoshiro256,
    /// Which plan events already fired this fetch.
    fired: Vec<bool>,
    /// Bands killed by fault events this fetch (never scheduled again).
    pub band_dead: Vec<bool>,
    /// Keys destroyed by a fault and not yet rematerialised. Distinguishes
    /// fault loss from the session's legitimate between-graph releases —
    /// only fault-lost retained keys are recovered at end of graph.
    pub lost: HashSet<ChunkKey>,
    lineage: HashMap<ChunkKey, Arc<LineageNode>>,
    seq: u64,
    /// First output key of every lineage node replayed this fetch, in
    /// replay order (test introspection).
    pub log: Vec<ChunkKey>,
}

impl Recovery {
    pub(crate) fn new(bands: usize, plan: Option<FaultPlan>) -> Recovery {
        let plan = plan.unwrap_or_else(|| FaultPlan::none(0));
        Recovery {
            rng: plan.rng(),
            fired: vec![false; plan.events.len()],
            plan,
            band_dead: vec![false; bands],
            lost: HashSet::new(),
            lineage: HashMap::new(),
            seq: 0,
            log: Vec::new(),
        }
    }

    /// Re-arms the fault schedule for a fresh fetch: revives every band,
    /// re-seeds the plan RNG and marks every event unfired, so each fetch
    /// replays the same schedule.
    pub(crate) fn arm(&mut self) {
        let plan = std::mem::replace(&mut self.plan, FaultPlan::none(0));
        *self = Recovery::new(self.band_dead.len(), Some(plan));
    }

    /// Whether the plan can ever do anything; an empty plan behaves
    /// exactly like none.
    pub(crate) fn on(&self) -> bool {
        !self.plan.is_trivial()
    }

    /// Records how every node of `chunks` is produced; `seq` is monotone
    /// in execution order across all graphs of the fetch, hence
    /// topological. Re-recording a graph (after a re-tile splice) replaces
    /// its nodes' records with fresh, still topological, seqs.
    pub(crate) fn record_lineage(&mut self, chunks: &ChunkGraph) {
        for node in &chunks.nodes {
            let rec = Arc::new(LineageNode {
                seq: self.seq,
                node: node.clone(),
            });
            self.seq += 1;
            for k in &node.outputs {
                self.lineage.insert(*k, Arc::clone(&rec));
            }
        }
    }

    /// The not-yet-fired events due at dispatch step `step`, in plan
    /// order; they are marked fired.
    pub(crate) fn take_due(&mut self, step: u64) -> Vec<FaultKind> {
        let mut due = Vec::new();
        for (ev, fired) in self.plan.events.iter().zip(&mut self.fired) {
            let FaultTrigger::Step(at) = ev.at;
            if !*fired && step >= at {
                *fired = true;
                due.push(ev.kind);
            }
        }
        due
    }

    /// Chunk-loss victims: `fraction` of `keys` (sorted by the caller), by
    /// a partial Fisher-Yates with the plan RNG — a deterministic sample.
    pub(crate) fn sample_victims(
        &mut self,
        mut keys: Vec<ChunkKey>,
        fraction: f64,
    ) -> Vec<ChunkKey> {
        let n = ((keys.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let n = n.min(keys.len());
        for i in 0..n {
            let j = i + self.rng.next_bounded((keys.len() - i) as u64) as usize;
            keys.swap(i, j);
        }
        keys.truncate(n);
        keys
    }

    /// The minimal ancestor closure that rematerialises `targets`: walks
    /// producer records back through every input that is not `readable`,
    /// and returns the nodes to replay in production order.
    pub(crate) fn closure(
        &self,
        targets: &[ChunkKey],
        readable: &dyn Fn(ChunkKey) -> bool,
    ) -> XbResult<Vec<Arc<LineageNode>>> {
        let mut nodes: Vec<Arc<LineageNode>> = Vec::new();
        let mut seen_nodes: HashSet<u64> = HashSet::new();
        let mut planned: HashSet<ChunkKey> = HashSet::new();
        let mut stack: Vec<ChunkKey> = targets.to_vec();
        while let Some(k) = stack.pop() {
            if readable(k) || planned.contains(&k) {
                continue;
            }
            let Some(rec) = self.lineage.get(&k) else {
                return Err(XbError::Plan(format!(
                    "chunk {k} was lost and has no lineage to recover from"
                )));
            };
            if seen_nodes.insert(rec.seq) {
                planned.extend(rec.node.outputs.iter().copied());
                stack.extend(rec.node.inputs.iter().copied());
                nodes.push(Arc::clone(rec));
            }
        }
        nodes.sort_by_key(|n| n.seq);
        Ok(nodes)
    }

    /// Notes one replayed node: its outputs are no longer lost.
    pub(crate) fn replayed(&mut self, node: &ChunkNode) {
        for key in &node.outputs {
            self.lost.remove(key);
        }
        self.log.extend(node.outputs.first());
    }

    /// Draws one dispatch's transient-failure attempts off the plan RNG:
    /// each attempt fails independently with the plan's probability (one
    /// seeded draw per attempt), and every failed attempt burns the
    /// measured kernel time plus an exponential backoff in virtual time.
    /// Returns `(failures, virtual_overhead)`, or `Err(failures)` once the
    /// draw exceeds the retry budget.
    pub(crate) fn draw_attempts(
        &mut self,
        retry: RetryPolicy,
        measured: f64,
    ) -> Result<(usize, f64), usize> {
        let p = self.plan.transient_failure_p;
        let mut failures = 0usize;
        let mut overhead = 0.0f64;
        let mut backoff = retry.backoff_base;
        while p > 0.0 && self.rng.gen_bool(p) {
            failures += 1;
            if failures > retry.max_retries {
                return Err(failures);
            }
            overhead += measured + backoff;
            backoff *= retry.backoff_factor;
        }
        Ok((failures, overhead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_core::chunk::ChunkOp;

    fn node(inputs: &[ChunkKey], outputs: &[ChunkKey]) -> ChunkNode {
        ChunkNode {
            op: ChunkOp::Concat,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
        }
    }

    /// 1 → {2, 3} → 4, plus an unrelated 5, recorded in that order.
    fn diamond() -> Recovery {
        let mut g = ChunkGraph::new();
        for (ins, outs) in [
            (&[][..], &[1][..]),
            (&[1], &[2]),
            (&[1], &[3]),
            (&[2, 3], &[4]),
            (&[], &[5]),
        ] {
            g.push(node(ins, outs));
        }
        let mut recovery = Recovery::new(4, None);
        recovery.record_lineage(&g);
        recovery
    }

    fn first_outputs(nodes: &[Arc<LineageNode>]) -> Vec<ChunkKey> {
        nodes.iter().map(|n| n.node.outputs[0]).collect()
    }

    #[test]
    fn closure_is_exactly_the_missing_ancestors_in_seq_order() {
        let recovery = diamond();
        // everything gone: the whole diamond, nothing unrelated
        let nodes = recovery.closure(&[4], &|_| false).unwrap();
        assert_eq!(first_outputs(&nodes), [1, 2, 3, 4]);
        assert!(nodes.windows(2).all(|w| w[0].seq < w[1].seq));
        // one ancestor still readable: its branch stops there, and the
        // source is still needed for the other branch
        let nodes = recovery.closure(&[4], &|k| k == 2).unwrap();
        assert_eq!(first_outputs(&nodes), [1, 3, 4]);
        // both middle chunks readable: the source is not replayed
        let nodes = recovery.closure(&[4], &|k| k == 2 || k == 3).unwrap();
        assert_eq!(first_outputs(&nodes), [4]);
        // a readable target needs nothing
        assert!(recovery.closure(&[4], &|_| true).unwrap().is_empty());
    }

    #[test]
    fn lost_key_without_lineage_is_a_plan_error() {
        let err = diamond().closure(&[4, 99], &|_| false).err();
        assert!(matches!(err, Some(XbError::Plan(m)) if m.contains("chunk 99")));
    }

    #[test]
    fn events_fire_once_in_plan_order_and_rearm_per_fetch() {
        let plan = FaultPlan::none(1)
            .with_event(FaultTrigger::Step(3), FaultKind::BandCrash { band: 1 })
            .with_event(FaultTrigger::Step(2), FaultKind::BandCrash { band: 0 });
        let mut recovery = Recovery::new(2, Some(plan));
        assert!(recovery.on());
        assert!(recovery.take_due(1).is_empty());
        assert_eq!(recovery.take_due(2), [FaultKind::BandCrash { band: 0 }]);
        assert_eq!(
            recovery.take_due(5),
            [FaultKind::BandCrash { band: 1 }],
            "the fired event stays fired"
        );
        recovery.band_dead.fill(true);
        recovery.lost.insert(7);
        recovery.arm();
        assert_eq!(recovery.band_dead, [false, false]);
        assert!(recovery.lost.is_empty());
        assert_eq!(recovery.take_due(5).len(), 2);
        assert!(!Recovery::new(2, Some(FaultPlan::none(1))).on());
    }
}
