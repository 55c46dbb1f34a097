//! Property tests for lineage-based recovery on random subtask DAGs.
//!
//! For seeded random graphs executed directly on [`SimExecutor`], a worker
//! killed at a random dispatch step must (a) leave every retained chunk
//! readable with exactly the fault-free payload, (b) recompute **only**
//! the minimal ancestor closure of what the crash destroyed — checked
//! against an independent mirror of the recovery algorithm built on
//! [`SubtaskGraph::ancestor_closure`] and the fault-free twin's
//! placements — (c) keep every per-worker memory ledger balanced, and
//! (d) leak nothing across `clear()`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xorbits_array::prng::Xoshiro256;
use xorbits_core::chunk::{ChunkGraph, ChunkKey, ChunkNode, ChunkOp, KeyGen, PayloadKind};
use xorbits_core::session::Executor;
use xorbits_core::subtask::SubtaskGraph;
use xorbits_dataframe::{Column, DataFrame};
use xorbits_runtime::{ClusterSpec, FaultKind, FaultPlan, FaultTrigger, SimExecutor};

const CASES: u64 = 24;

/// A small distinct frame per source node (data is index-derived, not
/// random, so the twin and the faulty run read identical inputs).
fn src_frame(i: usize) -> DataFrame {
    let base = (i as i64) * 7;
    DataFrame::new(vec![(
        "k",
        Column::from_i64((0..8).map(|r| base + r).collect()),
    )])
    .unwrap()
}

/// Random DAG: a few `DfGen` sources, then interior `Concat` nodes
/// over random earlier keys. Every key is protected, so every chunk is
/// published and retained — the hardest case for end-of-graph recovery.
fn arb_graph(rng: &mut Xoshiro256) -> SubtaskGraph {
    let n_src = 3 + rng.next_bounded(4) as usize;
    let n_mid = 4 + rng.next_bounded(8) as usize;
    let mut kg = KeyGen::new();
    let mut g = ChunkGraph::new();
    let mut keys: Vec<ChunkKey> = Vec::new();
    for i in 0..n_src {
        let k = kg.next_key();
        g.push(ChunkNode {
            op: ChunkOp::DfGen {
                gen: Arc::new(move || Ok(src_frame(i))),
                label: format!("src{i}"),
            },
            inputs: Vec::new(),
            outputs: vec![k],
        });
        keys.push(k);
    }
    for _ in 0..n_mid {
        let k = kg.next_key();
        let fan = 1 + rng.next_bounded(3) as usize;
        let mut inputs: Vec<ChunkKey> = Vec::new();
        for _ in 0..fan {
            let pick = keys[rng.next_bounded(keys.len() as u64) as usize];
            if !inputs.contains(&pick) {
                inputs.push(pick);
            }
        }
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs,
            outputs: vec![k],
        });
        keys.push(k);
    }
    let protected: HashSet<ChunkKey> = keys.iter().copied().collect();
    SubtaskGraph::singletons(g, &protected)
}

fn fetch_all(ex: &SimExecutor, graph: &SubtaskGraph) -> HashMap<ChunkKey, DataFrame> {
    let mut out = HashMap::new();
    for st in &graph.subtasks {
        for k in &st.published_outputs {
            let p = ex
                .payload(*k)
                .unwrap_or_else(|| panic!("chunk {k} unreadable"));
            out.insert(*k, p.as_df().unwrap().clone());
        }
    }
    out
}

/// Independent mirror of the executor's recovery algorithm, with
/// `ancestor_closure` as the minimality spec: replays availability
/// subtask by subtask and returns the expected recompute log.
fn expected_recovery(
    graph: &SubtaskGraph,
    placements: &HashMap<ChunkKey, usize>,
    crash_worker: usize,
    crash_step: usize,
) -> Vec<ChunkKey> {
    let s = crash_step.min(graph.len());
    let mut avail: HashSet<ChunkKey> = HashSet::new();
    for st in &graph.subtasks[..s] {
        avail.extend(st.published_outputs.iter().copied());
    }
    let lost: HashSet<ChunkKey> = avail
        .iter()
        .copied()
        .filter(|k| placements[k] == crash_worker)
        .collect();
    for k in &lost {
        avail.remove(k);
    }

    let mut log = Vec::new();
    let replay = |targets: &[ChunkKey], avail: &mut HashSet<ChunkKey>, log: &mut Vec<ChunkKey>| {
        let snapshot = avail.clone();
        let mut closure = graph
            .ancestor_closure(targets, &|k| snapshot.contains(&k))
            .expect("every lost key has a producer in the graph");
        // the executor replays in lineage order = chunk-node insertion
        // order, which the Kahn sort of `from_groups` may permute relative
        // to subtask indices
        closure.sort_unstable_by_key(|&si| graph.subtasks[si].nodes[0]);
        for si in closure {
            let st = &graph.subtasks[si];
            avail.extend(st.published_outputs.iter().copied());
            log.push(st.published_outputs[0]);
        }
    };

    for st in &graph.subtasks[s..] {
        let missing: Vec<ChunkKey> = st
            .external_inputs
            .iter()
            .copied()
            .filter(|k| !avail.contains(k))
            .collect();
        if !missing.is_empty() {
            replay(&missing, &mut avail, &mut log);
        }
        avail.extend(st.published_outputs.iter().copied());
    }
    // end-of-graph sweep: retained keys the crash destroyed that no later
    // subtask demanded
    let mut missing: Vec<ChunkKey> = graph
        .retained
        .iter()
        .copied()
        .filter(|k| lost.contains(k) && !avail.contains(k))
        .collect();
    if !missing.is_empty() {
        missing.sort_unstable();
        replay(&missing, &mut avail, &mut log);
    }
    log
}

#[test]
fn worker_crash_recomputes_exactly_the_minimal_closure() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xfa17 + case);
        let graph = arb_graph(&mut rng);
        let workers = 2 + rng.next_bounded(3) as usize;
        let crash_worker = rng.next_bounded(workers as u64) as usize;
        let crash_step = 1 + rng.next_bounded(graph.len() as u64 - 1) as usize;
        let spec = ClusterSpec::new(workers, 1 << 30);

        // fault-free twin: expected payloads and the pre-crash placements
        // (the faulty run's dispatch prefix is identical by determinism)
        let mut twin = SimExecutor::new(spec.clone());
        twin.execute(&graph).unwrap();
        let expect = fetch_all(&twin, &graph);
        let placements: HashMap<ChunkKey, usize> = twin
            .chunk_placements()
            .into_iter()
            .map(|(k, w, _, _)| (k, w))
            .collect();

        let plan = FaultPlan::worker_crash_at_step(case, crash_worker, crash_step as u64);
        let mut ex = SimExecutor::new(spec.clone().with_fault_plan(plan.clone()));
        let stats = ex.execute(&graph).unwrap_or_else(|e| {
            panic!("case {case}: crash w{crash_worker}@{crash_step} failed: {e}")
        });
        assert!(ex.ledger_balanced(), "case {case}: ledger out of balance");

        let got = fetch_all(&ex, &graph);
        for (k, df) in &expect {
            assert_eq!(got[k], *df, "case {case}: chunk {k} differs after recovery");
        }

        let want_log = expected_recovery(&graph, &placements, crash_worker, crash_step);
        assert_eq!(
            ex.recovery_log(),
            &want_log[..],
            "case {case}: recompute set is not the minimal ancestor closure \
             (crash w{crash_worker}@{crash_step}, {} subtasks)",
            graph.len()
        );
        assert_eq!(stats.recomputed_subtasks, want_log.len());

        // determinism: the same plan replays the same recovery
        let mut ex2 = SimExecutor::new(spec.with_fault_plan(plan));
        ex2.execute(&graph).unwrap();
        assert_eq!(ex.recovery_log(), ex2.recovery_log(), "case {case}");

        // clear() leaks nothing: empty ledgers, zero live bytes, no payloads
        ex.clear();
        assert!(
            ex.ledger_balanced(),
            "case {case}: ledger dirty after clear"
        );
        assert!(
            ex.live_worker_bytes().iter().all(|&b| b == 0),
            "case {case}: live bytes after clear: {:?}",
            ex.live_worker_bytes()
        );
        let probe = graph.subtasks[0].published_outputs[0];
        assert!(
            ex.payload(probe).is_none(),
            "case {case}: payload survived clear"
        );
    }
}

#[test]
fn band_crash_loses_no_chunks_and_recomputes_nothing() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xbad0 + case);
        let graph = arb_graph(&mut rng);
        let workers = 2 + rng.next_bounded(3) as usize;
        let spec = ClusterSpec::new(workers, 1 << 30);
        let band = rng.next_bounded(spec.n_bands() as u64) as usize;
        let step = 1 + rng.next_bounded(graph.len() as u64 - 1);

        let mut twin = SimExecutor::new(spec.clone());
        twin.execute(&graph).unwrap();
        let expect = fetch_all(&twin, &graph);

        let plan = FaultPlan::none(case)
            .with_event(FaultTrigger::Step(step), FaultKind::BandCrash { band });
        let mut ex = SimExecutor::new(spec.with_fault_plan(plan));
        let stats = ex.execute(&graph).unwrap();
        // a dead band is only a slot: the worker's memory — and every
        // chunk on it — survives, so nothing is ever recomputed
        assert_eq!(stats.recomputed_subtasks, 0, "case {case}");
        assert!(ex.recovery_log().is_empty(), "case {case}");
        assert!(ex.ledger_balanced(), "case {case}");
        let got = fetch_all(&ex, &graph);
        for (k, df) in &expect {
            assert_eq!(got[k], *df, "case {case}: chunk {k} differs");
        }
    }
}
