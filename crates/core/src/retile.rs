//! Mid-run skew-aware re-tiling: sizes in, splits out.
//!
//! Static tiling picks shuffle partition counts from estimated sizes; under
//! skewed keys (Zipf group keys, lopsided join fan-out) the real partitions
//! are lopsided and one band ends up with most of the work. When the
//! executor reaches the first consumer of a completed shuffle (a quiesce
//! point — every partition's real size is now known) it hands this module
//! the sizes of the wave's shuffle pieces. [`plan_retile`] turns that byte
//! histogram into splits, and the splice fans each hot partition's reducer
//! out into contiguous byte-balanced sub-reducers plus a final merge,
//! rewriting the still-pending tail of the [`SubtaskGraph`] in place.
//!
//! Nothing here reads a chunk: every decision derives from result bytes, so
//! same seed → same data → same bytes → same plan, independent of measured
//! wall time. A split is applied only where the operator's shape alone
//! makes it bit-identical to the static plan:
//!
//! * `GroupbyDirect` (the `nunique` lowering) → per-run `DistinctLocal`
//!   over the group keys plus every aggregated column, then the original
//!   direct aggregation over the deduplicated runs. Dedup preserves the
//!   *set* of (key, value) combinations and first-occurrence order, and
//!   distinct counts are insensitive to duplicates, so this is exact —
//!   gated on *all* specs being `Nunique`.
//! * `Join` → the probe (left) side is split into contiguous runs, each
//!   joined against the full build side, and the outputs concatenated.
//!   Every [`JoinType`](xorbits_dataframe::JoinType) in this engine emits
//!   probe-order rows derived from the left side only (no unmatched-right
//!   emission), so run-concatenation is exact unconditionally.
//!
//! Decomposable group-bys (`GroupbyFinalize` waves) are left alone by
//! design: map-side pre-aggregation has already made their partials
//! proportional to distinct groups, not rows (DESIGN §16).

use crate::chunk::{ChunkGraph, ChunkKey, ChunkNode, ChunkOp};
use crate::subtask::{Subtask, SubtaskGraph};
use std::collections::{HashMap, HashSet};
use xorbits_dataframe::{AggFunc, AggSpec};

/// Whether the runtime re-tiles mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetileMode {
    /// Static tiling only (the pre-PR-9 behaviour).
    #[default]
    Off,
    /// Harvest shuffle histograms and re-tile skewed waves.
    Auto,
}

/// Most sub-partitions a single hot partition may be split into.
pub const MAX_SPLIT_WAYS: usize = 64;

/// A wave is re-tiled when its largest partition holds at least this many
/// times the mean partition's bytes.
const SKEW_FACTOR: u128 = 2;

// ---------------------------------------------------------------------------
// the pure planner
// ---------------------------------------------------------------------------

/// The whole re-tiling policy: from a wave's harvested histogram (bytes per
/// shuffle partition) to `(partition, ways)` splits, ascending by
/// partition. A skewed wave (see `SKEW_FACTOR`) fans every partition above
/// the mean out to mean-sized sub-partitions, `ways` in
/// `2..=`[`MAX_SPLIT_WAYS`]; any other wave gets no split. Deterministic
/// and side-effect free.
pub fn plan_retile(hist: &[u64]) -> Vec<(usize, usize)> {
    let n = hist.len() as u128;
    let total: u128 = hist.iter().map(|&b| b as u128).sum();
    let hottest = hist.iter().copied().max().unwrap_or(0) as u128;
    if n < 2 || total == 0 || hottest * n < SKEW_FACTOR * total {
        return Vec::new();
    }
    let cap = total.div_ceil(n) as u64;
    hist.iter()
        .enumerate()
        .filter(|&(_, &bytes)| bytes > cap)
        .map(|(part, &bytes)| {
            let ways = (bytes.div_ceil(cap) as usize).clamp(2, MAX_SPLIT_WAYS);
            (part, ways)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// synthetic chunk keys
// ---------------------------------------------------------------------------

/// Allocator for the chunk keys a splice introduces. Keys carry the high
/// bit plus the graph's max ordinary key shifted into bits 16..63, so they
/// can never collide with the session `KeyGen`'s sequential keys nor with
/// another tenant's disjoint serving range (distinct max keys → disjoint
/// 65536-key windows).
#[derive(Debug, Clone)]
struct SynthKeys {
    next: ChunkKey,
}

impl SynthKeys {
    /// Carves this graph's synthetic-key window (one per run; allocate
    /// sequentially across every wave of the run).
    fn for_graph(chunks: &ChunkGraph) -> SynthKeys {
        let mut maxk: ChunkKey = 0;
        for n in &chunks.nodes {
            for &k in n.inputs.iter().chain(n.outputs.iter()) {
                maxk = maxk.max(k & !(1u64 << 63));
            }
        }
        let base = (1u64 << 63) | ((maxk & ((1u64 << 47) - 1)) << 16);
        SynthKeys { next: base }
    }

    /// Next synthetic key.
    fn next_key(&mut self) -> ChunkKey {
        let k = self.next;
        self.next += 1;
        k
    }
}

// ---------------------------------------------------------------------------
// wave detection
// ---------------------------------------------------------------------------

/// One reduce partition of a detected shuffle wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WavePart {
    /// Singleton `GroupbyDirect` subtask.
    Groupby { st: usize },
    /// Shuffle-join partition: probe-concat and join subtasks, plus the
    /// build-concat subtask when it is still pending (`None` when the
    /// build side is already materialized — e.g. a single-chunk build
    /// whose split and concats fused into one earlier subtask).
    Join {
        lcat: usize,
        rcat: Option<usize>,
        join: usize,
    },
}

impl WavePart {
    /// The partition's subtasks, in dispatch order.
    fn member_sts(&self) -> Vec<usize> {
        match *self {
            WavePart::Groupby { st } => vec![st],
            WavePart::Join { lcat, rcat, join } => {
                let mut v = vec![lcat, join];
                v.extend(rcat);
                v.sort_unstable();
                v
            }
        }
    }
}

/// A shuffle whose every partition consumer is still pending. Identity is
/// the sorted set of producing `ShuffleSplit` node indices.
#[derive(Debug, Clone)]
struct Wave {
    id: Vec<usize>,
    parts: Vec<WavePart>,
}

/// Sorted `ShuffleSplit` node indices producing `keys`, or `None` if any
/// key has a non-split producer, no producer, or more than one consumer.
fn split_producers(
    chunks: &ChunkGraph,
    producers: &HashMap<ChunkKey, usize>,
    consumer_count: &HashMap<ChunkKey, usize>,
    keys: &[ChunkKey],
) -> Option<Vec<usize>> {
    let mut out: Vec<usize> = Vec::with_capacity(keys.len());
    for k in keys {
        let &pi = producers.get(k)?;
        if !matches!(chunks.nodes[pi].op, ChunkOp::ShuffleSplit { .. }) {
            return None;
        }
        if consumer_count.get(k) != Some(&1) {
            return None;
        }
        out.push(pi);
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// Classifies pending subtask `sti` as one partition of a shuffle wave.
/// Returns the partition plus its producing split-node set.
fn classify(
    graph: &SubtaskGraph,
    producers: &HashMap<ChunkKey, usize>,
    consumer_count: &HashMap<ChunkKey, usize>,
    st_of_node: &HashMap<usize, usize>,
    next: usize,
    sti: usize,
) -> Option<(WavePart, Vec<usize>)> {
    let st = &graph.subtasks[sti];
    if st.nodes.len() != 1 {
        return None;
    }
    let ni = st.nodes[0];
    let node = &graph.chunks.nodes[ni];
    match &node.op {
        ChunkOp::GroupbyDirect { .. } => {
            if node.inputs.len() < 2 {
                return None;
            }
            let splits = split_producers(&graph.chunks, producers, consumer_count, &node.inputs)?;
            Some((WavePart::Groupby { st: sti }, splits))
        }
        ChunkOp::Join { .. } => {
            if node.inputs.len() != 2 {
                return None;
            }
            // the probe (left) side — the one a split fans out — must be a
            // pending singleton Concat subtask fed exclusively by splits
            let lk = node.inputs[0];
            if consumer_count.get(&lk) != Some(&1) {
                return None;
            }
            let &lpi = producers.get(&lk)?;
            if !matches!(graph.chunks.nodes[lpi].op, ChunkOp::Concat) {
                return None;
            }
            let &lcst = st_of_node.get(&lpi)?;
            if lcst < next || graph.subtasks[lcst].nodes.len() != 1 {
                return None;
            }
            let mut splits = split_producers(
                &graph.chunks,
                producers,
                consumer_count,
                &graph.chunks.nodes[lpi].inputs,
            )?;

            // the build (right) side is never split, so it may be either
            // the same pending shape or already materialized: a small
            // build often fuses its lone split with every partition's
            // Concat into one subtask that completed before the wave head
            let rk = node.inputs[1];
            if consumer_count.get(&rk) != Some(&1) {
                return None;
            }
            let &rpi = producers.get(&rk)?;
            let &rcst = st_of_node.get(&rpi)?;
            let rcat = if rcst < next {
                None
            } else {
                if !matches!(graph.chunks.nodes[rpi].op, ChunkOp::Concat)
                    || graph.subtasks[rcst].nodes.len() != 1
                {
                    return None;
                }
                splits.extend(split_producers(
                    &graph.chunks,
                    producers,
                    consumer_count,
                    &graph.chunks.nodes[rpi].inputs,
                )?);
                Some(rcst)
            };
            splits.sort_unstable();
            splits.dedup();
            Some((
                WavePart::Join {
                    lcat: lcst,
                    rcat,
                    join: sti,
                },
                splits,
            ))
        }
        _ => None,
    }
}

/// Detects the shuffle wave whose earliest member is exactly the subtask at
/// `next` (the quiesce point: every shuffle-split producer has completed,
/// no consumer has started). Returns `None` when the head subtask is not a
/// wave member or the wave has fewer than two partitions.
fn detect_wave(graph: &SubtaskGraph, next: usize) -> Option<Wave> {
    let n = graph.subtasks.len();
    if next >= n {
        return None;
    }
    // cheap pre-check: the head must look like a wave member before we
    // build whole-graph maps
    let head = &graph.subtasks[next];
    if head.nodes.len() != 1 {
        return None;
    }
    if !matches!(
        graph.chunks.nodes[head.nodes[0]].op,
        ChunkOp::GroupbyDirect { .. } | ChunkOp::Join { .. } | ChunkOp::Concat
    ) {
        return None;
    }

    let producers = graph.chunks.producers();
    let mut consumer_count: HashMap<ChunkKey, usize> = HashMap::new();
    for node in &graph.chunks.nodes {
        for k in &node.inputs {
            *consumer_count.entry(*k).or_insert(0) += 1;
        }
    }
    let mut st_of_node: HashMap<usize, usize> = HashMap::new();
    for (si, st) in graph.subtasks.iter().enumerate() {
        for &ni in &st.nodes {
            st_of_node.insert(ni, si);
        }
    }

    // classify every pending subtask, grouping partitions by split set
    let mut waves: HashMap<Vec<usize>, Vec<WavePart>> = HashMap::new();
    for sti in next..n {
        if let Some((part, splits)) =
            classify(graph, &producers, &consumer_count, &st_of_node, next, sti)
        {
            waves.entry(splits).or_default().push(part);
        }
    }
    // the head must be the earliest member of its wave
    for (id, parts) in waves {
        if parts.len() < 2 {
            continue;
        }
        let first = parts.iter().map(|p| p.member_sts()[0]).min();
        if first == Some(next) {
            let mut parts = parts;
            parts.sort_by_key(|p| p.member_sts()[0]);
            return Some(Wave { id, parts });
        }
    }
    None
}

/// One graph run's re-tiling state, held by whichever executor drives the
/// run: the synthetic-key allocator for spliced nodes, and the waves
/// already considered (each is harvested and re-tiled at most once, keyed
/// by its split-node set).
#[derive(Debug, Clone)]
pub struct RetileRun {
    synth: SynthKeys,
    done: HashSet<Vec<usize>>,
}

impl RetileRun {
    /// Fresh state for one run over `chunks` (carves its synthetic-key
    /// window).
    pub fn for_graph(chunks: &ChunkGraph) -> RetileRun {
        RetileRun {
            synth: SynthKeys::for_graph(chunks),
            done: HashSet::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// the splice
// ---------------------------------------------------------------------------

/// What a successful mid-run retile did (for stats and tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetileOutcome {
    /// Partitions in the detected wave.
    pub partitions: usize,
    /// Hot partitions that were split.
    pub splits: usize,
}

/// Contiguous byte-balanced runs: partitions `bytes` into exactly `ways`
/// non-empty ranges with near-proportional cumulative bytes. Deterministic.
fn balanced_runs(bytes: &[u64], ways: usize) -> Vec<(usize, usize)> {
    let n = bytes.len();
    debug_assert!(2 <= ways && ways <= n);
    let total: u128 = bytes.iter().map(|&b| b as u128).sum();
    let mut runs = Vec::with_capacity(ways);
    let mut start = 0usize;
    let mut prefix: u128 = 0;
    for (i, &b) in bytes.iter().enumerate() {
        prefix += b as u128;
        let r = runs.len();
        let remaining_items = n - (i + 1);
        let remaining_runs = ways - (r + 1);
        let boundary = prefix * ways as u128 >= total * (r as u128 + 1);
        if r + 1 < ways && (remaining_items == remaining_runs || boundary) {
            runs.push((start, i + 1));
            start = i + 1;
        }
    }
    runs.push((start, n));
    debug_assert_eq!(runs.len(), ways);
    runs
}

/// Dedup subset for a `GroupbyDirect` split: group keys plus every
/// aggregated column, in first-mention order.
fn nunique_subset(keys: &[String], specs: &[AggSpec]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for k in keys
        .iter()
        .map(String::as_str)
        .chain(specs.iter().map(|s| s.column.as_str()))
    {
        if !out.iter().any(|x| x == k) {
            out.push(k.to_string());
        }
    }
    out
}

impl RetileRun {
    /// Quiesce-point entry: detect a shuffle wave at the pending head, harvest
    /// its partition histogram through `size_of` (a produced chunk's bytes),
    /// and splice the splits [`plan_retile`] asks for into `graph.subtasks`
    /// starting at `next`. Each wave is attempted once per run.
    ///
    /// On success the pending tail of `graph.subtasks` has been rewritten (the
    /// prefix `[0, next)` is untouched) and the caller must refresh anything it
    /// derived from subtask indices (last-consumer refcounts, lineage).
    pub fn maybe_retile(
        &mut self,
        graph: &mut SubtaskGraph,
        next: usize,
        size_of: &dyn Fn(ChunkKey) -> Option<u64>,
    ) -> Option<RetileOutcome> {
        let wave = detect_wave(graph, next)?;
        if !self.done.insert(wave.id.clone()) {
            return None;
        }

        // harvest the histogram: partition bytes = sum over its shuffle
        // inputs (probe + build for joins)
        let inputs_of = |st: usize| &graph.chunks.nodes[graph.subtasks[st].nodes[0]].inputs;
        let mut hist = Vec::with_capacity(wave.parts.len());
        for part in &wave.parts {
            let pieces: Vec<ChunkKey> = match *part {
                WavePart::Groupby { st } => inputs_of(st).clone(),
                WavePart::Join { lcat, rcat, join } => {
                    let mut v = inputs_of(lcat).clone();
                    match rcat {
                        // pending build concat: sum its shuffle inputs
                        Some(r) => v.extend_from_slice(inputs_of(r)),
                        // materialized build: its one concatenated chunk
                        None => v.push(inputs_of(join)[1]),
                    }
                    v
                }
            };
            let mut bytes = 0u64;
            for k in pieces {
                bytes += size_of(k)?;
            }
            hist.push(bytes);
        }

        // build the replacement sequence, partition by partition
        let ways_of: HashMap<usize, usize> = plan_retile(&hist).into_iter().collect();
        let mut seq: Vec<Subtask> = Vec::new();
        let mut splits = 0usize;
        for (pi, part) in wave.parts.iter().enumerate() {
            let applied = match (ways_of.get(&pi), *part) {
                (None, _) => false,
                (Some(&ways), WavePart::Groupby { st }) => {
                    split_groupby(graph, st, ways, &mut self.synth, size_of, &mut seq)
                }
                (Some(&ways), WavePart::Join { lcat, rcat, join }) => {
                    let sts = (lcat, rcat, join);
                    split_join(graph, sts, ways, &mut self.synth, size_of, &mut seq)
                }
            };
            if applied {
                splits += 1;
            } else {
                // unchanged partition: re-emit its subtasks in original order
                for sti in part.member_sts() {
                    seq.push(graph.subtasks[sti].clone());
                }
            }
        }
        if splits == 0 {
            return None;
        }

        // splice: prefix unchanged, wave emitted contiguously at `next`, other
        // pending subtasks keep their relative order after it
        let member_set: HashSet<usize> = wave.parts.iter().flat_map(|p| p.member_sts()).collect();
        debug_assert_eq!(member_set.iter().min().copied(), Some(next));
        let old = std::mem::take(&mut graph.subtasks);
        let mut rebuilt = Vec::with_capacity(old.len() + seq.len());
        for (idx, st) in old.into_iter().enumerate() {
            if idx == next {
                rebuilt.append(&mut seq);
            }
            if idx >= next && member_set.contains(&idx) {
                continue;
            }
            rebuilt.push(st);
        }
        graph.subtasks = rebuilt;

        Some(RetileOutcome {
            partitions: wave.parts.len(),
            splits,
        })
    }
}

/// Splits a hot `GroupbyDirect` reduce partition into `ways` contiguous
/// `DistinctLocal` runs plus the original direct aggregation over them.
/// Returns `false` (leaving the graph untouched) when the aggregation is
/// not all-`Nunique`: dedup preserves distinct sets and first-seen order
/// but destroys sums, counts and means.
fn split_groupby(
    graph: &mut SubtaskGraph,
    st: usize,
    ways: usize,
    synth: &mut SynthKeys,
    size_of: &dyn Fn(ChunkKey) -> Option<u64>,
    seq: &mut Vec<Subtask>,
) -> bool {
    let ni = graph.subtasks[st].nodes[0];
    let node = &graph.chunks.nodes[ni];
    let ways = ways.min(node.inputs.len());
    let ChunkOp::GroupbyDirect { keys, specs } = &node.op else {
        return false;
    };
    if ways < 2 || !specs.iter().all(|s| s.func == AggFunc::Nunique) {
        return false;
    }
    let sub_op = ChunkOp::DistinctLocal {
        subset: Some(nunique_subset(keys, specs)),
    };
    let ChunkNode {
        op: fin_op,
        inputs: ins,
        outputs: orig_outputs,
    } = node.clone();

    let in_bytes: Vec<u64> = ins.iter().map(|k| size_of(*k).unwrap_or(0)).collect();
    let runs = balanced_runs(&in_bytes, ways);
    let orig_published = graph.subtasks[st].published_outputs.clone();

    let mut partial_keys = Vec::with_capacity(ways);
    for (ri, &(s, e)) in runs.iter().enumerate() {
        let ck = synth.next_key();
        partial_keys.push(ck);
        let node = ChunkNode {
            op: sub_op.clone(),
            inputs: ins[s..e].to_vec(),
            outputs: vec![ck],
        };
        // reuse the original node slot for run 0 so node indices stay
        // topological; later runs append (their consumers append later)
        let rni = if ri == 0 {
            graph.chunks.nodes[ni] = node;
            ni
        } else {
            graph.chunks.push(node)
        };
        seq.push(Subtask {
            nodes: vec![rni],
            external_inputs: ins[s..e].to_vec(),
            published_outputs: vec![ck],
            internal_keys: Vec::new(),
        });
    }
    let fni = graph.chunks.push(ChunkNode {
        op: fin_op,
        inputs: partial_keys.clone(),
        outputs: orig_outputs,
    });
    seq.push(Subtask {
        nodes: vec![fni],
        external_inputs: partial_keys,
        published_outputs: orig_published,
        internal_keys: Vec::new(),
    });
    true
}

/// Splits a hot shuffle-join partition — `(lcat, rcat, join)`, the
/// [`WavePart::Join`] subtasks — by fanning the probe (left) side into
/// contiguous runs, each joined against the full build side, then
/// concatenating in run order. Exact for every join type in this engine
/// (all emit probe-order, left-derived rows only). `rcat` is `None` when
/// the build side is already materialized — the runs then read its chunk
/// directly and no build subtask is re-emitted.
fn split_join(
    graph: &mut SubtaskGraph,
    (lcat, rcat, join): (usize, Option<usize>, usize),
    ways: usize,
    synth: &mut SynthKeys,
    size_of: &dyn Fn(ChunkKey) -> Option<u64>,
    seq: &mut Vec<Subtask>,
) -> bool {
    let lni = graph.subtasks[lcat].nodes[0];
    let jni = graph.subtasks[join].nodes[0];
    let l_ins = graph.chunks.nodes[lni].inputs.clone();
    let ways = ways.min(l_ins.len());
    if ways < 2 {
        return false;
    }
    let rcat_key = graph.chunks.nodes[jni].inputs[1];
    let join_op = graph.chunks.nodes[jni].op.clone();
    let orig_outputs = graph.chunks.nodes[jni].outputs.clone();
    let orig_published = graph.subtasks[join].published_outputs.clone();

    // a still-pending build side runs first, unchanged (every run reads it)
    if let Some(rcat) = rcat {
        seq.push(graph.subtasks[rcat].clone());
    }

    let l_bytes: Vec<u64> = l_ins.iter().map(|k| size_of(*k).unwrap_or(0)).collect();
    let runs = balanced_runs(&l_bytes, ways);
    let mut jkeys = Vec::with_capacity(ways);
    for (ri, &(s, e)) in runs.iter().enumerate() {
        let lk = synth.next_key();
        let jk = synth.next_key();
        jkeys.push(jk);
        let cat_node = ChunkNode {
            op: ChunkOp::Concat,
            inputs: l_ins[s..e].to_vec(),
            outputs: vec![lk],
        };
        let join_node = ChunkNode {
            op: join_op.clone(),
            inputs: vec![lk, rcat_key],
            outputs: vec![jk],
        };
        // reuse the original concat + join node slots for run 0 (keeps
        // node indices topological: lni < jni < appended nodes)
        let (cni, jni2) = if ri == 0 {
            graph.chunks.nodes[lni] = cat_node;
            graph.chunks.nodes[jni] = join_node;
            (lni, jni)
        } else {
            (graph.chunks.push(cat_node), graph.chunks.push(join_node))
        };
        let mut ext = l_ins[s..e].to_vec();
        ext.push(rcat_key);
        seq.push(Subtask {
            nodes: vec![cni, jni2],
            external_inputs: ext,
            published_outputs: vec![jk],
            internal_keys: vec![lk],
        });
    }
    let fni = graph.chunks.push(ChunkNode {
        op: ChunkOp::Concat,
        inputs: jkeys.clone(),
        outputs: orig_outputs,
    });
    seq.push(Subtask {
        nodes: vec![fni],
        external_inputs: jkeys,
        published_outputs: orig_published,
        internal_keys: Vec::new(),
    });
    true
}

// ---------------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::KeyGen;

    #[test]
    fn balanced_histogram_is_noop() {
        assert!(plan_retile(&[100, 110, 95, 105]).is_empty());
    }

    #[test]
    fn hot_partition_splits_to_mean_sized_runs() {
        // mean 226: only partition 0 is above it, ceil(1000 / 226) = 5 ways
        assert_eq!(plan_retile(&[1000, 10, 10, 10, 100]), vec![(0, 5)]);
    }

    #[test]
    fn plan_is_pure() {
        let h = [999, 3, 14, 2000, 7, 7, 7, 120];
        assert_eq!(plan_retile(&h), plan_retile(&h));
    }

    #[test]
    fn balanced_runs_cover_and_balance() {
        let runs = balanced_runs(&[10, 10, 10, 10, 10, 10], 3);
        assert_eq!(runs, vec![(0, 2), (2, 4), (4, 6)]);
        let runs = balanced_runs(&[100, 1, 1, 1], 2);
        assert_eq!(runs[0], (0, 1));
        assert_eq!(runs[1], (1, 4));
        // every run non-empty even with zero bytes
        let runs = balanced_runs(&[0, 0, 0], 3);
        assert_eq!(runs, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn synth_keys_have_high_bit_and_avoid_graph_keys() {
        let mut kg = KeyGen::new();
        let mut g = ChunkGraph::new();
        let k = kg.next_key();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![k],
        });
        let mut s = SynthKeys::for_graph(&g);
        let a = s.next_key();
        let b = s.next_key();
        assert_ne!(a, b);
        assert!(a & (1 << 63) != 0);
        assert_ne!(a, k);
    }

    #[test]
    fn env_knob_parses() {
        // no env mutation here (tests run in parallel); just the default
        assert_eq!(RetileMode::default(), RetileMode::Off);
    }
}
