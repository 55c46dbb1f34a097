//! Mid-run skew-aware re-tiling (dynamic tiling v2, paper Algorithm 1
//! applied *continuously*).
//!
//! Static tiling picks shuffle partition counts from estimated sizes; under
//! skewed keys (Zipf group keys, lopsided join fan-out) the harvested
//! partition histogram is lopsided and one band ends up with most of the
//! work. This module re-applies the paper's harvest-then-retile loop at the
//! *shuffle barrier*: when the executor reaches the first consumer of a
//! completed shuffle (a quiesce point — every partition's real size is now
//! known), it measures the per-partition byte histogram, and if the
//! imbalance `max/mean` exceeds a threshold it rewrites the still-pending
//! tail of the [`SubtaskGraph`] in place:
//!
//! * **split** — a hot partition's reducer is fanned out into contiguous
//!   byte-balanced sub-reducers plus a final merge;
//! * **coalesce** — runs of tiny partitions are fused into one subtask so
//!   they stop paying per-subtask scheduling overhead.
//!
//! Everything stays bit-identical to the static plan. Splits are only
//! applied where the operator algebra makes them exact:
//!
//! * `GroupbyFinalize` → per-run `GroupbyCombine` + final finalize. The
//!   combine stage is documented idempotent over arbitrary trees, and
//!   contiguous runs preserve first-seen group order; integer/date sums
//!   wrap deterministically, but `f64` sums are not associative, so any
//!   Float64 sum state vetoes the split
//!   (`xorbits_dataframe::groupby::combine_split_exact`).
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
//! Coalescing never touches operators — it only merges subtasks — and is
//! therefore always exact.
//!
//! The planner ([`plan_retile`]) is a pure function of the histogram, so
//! retile decisions are deterministic: same seed → same data → same bytes →
//! same plan, independent of measured wall time.

use crate::chunk::{ChunkGraph, ChunkKey, ChunkNode, ChunkOp, Payload, PayloadKind};
use crate::subtask::{Subtask, SubtaskGraph};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xorbits_dataframe::groupby::{combine_split_exact, is_decomposable};
use xorbits_dataframe::{AggFunc, AggSpec};

// ---------------------------------------------------------------------------
// knobs
// ---------------------------------------------------------------------------

/// Whether the runtime re-tiles mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetileMode {
    /// Static tiling only (the pre-PR-9 behaviour).
    #[default]
    Off,
    /// Harvest shuffle histograms and re-tile skewed waves.
    Auto,
}

/// Planner thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetileParams {
    /// Trigger when `max partition bytes / mean partition bytes` reaches
    /// this value.
    pub threshold: f64,
    /// Target bytes per partition after re-tiling; `0` means "use the mean
    /// of the harvested histogram".
    pub cap_bytes: u64,
}

impl Default for RetileParams {
    fn default() -> RetileParams {
        RetileParams {
            threshold: 2.0,
            cap_bytes: 0,
        }
    }
}

/// Most sub-partitions a single hot partition may be split into.
pub const MAX_SPLIT_WAYS: usize = 64;

// ---------------------------------------------------------------------------
// the pure planner
// ---------------------------------------------------------------------------

/// One harvested shuffle partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartStat {
    /// Total bytes across the partition's input chunks.
    pub bytes: u64,
    /// Total rows across the partition's input chunks.
    pub rows: u64,
}

/// One rebalancing decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetileAction {
    /// Fan partition `part` out into `ways` byte-balanced sub-partitions.
    Split {
        /// Partition index in the histogram.
        part: usize,
        /// Fan-out degree (≥ 2, ≤ [`MAX_SPLIT_WAYS`]).
        ways: usize,
    },
    /// Fuse a run of consecutive tiny partitions into one.
    Coalesce {
        /// Ascending, consecutive partition indices (≥ 2 of them).
        parts: Vec<usize>,
    },
}

/// The planner's output: a pure function of the histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RetilePlan {
    /// Resolved per-partition byte cap the actions aim for.
    pub cap_bytes: u64,
    /// Splits first (ascending by partition), then coalesces (ascending by
    /// first member). A partition appears in at most one action.
    pub actions: Vec<RetileAction>,
}

impl RetilePlan {
    /// True when the plan changes nothing.
    pub fn is_noop(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Algorithm 1 over a harvested partition histogram: decide which hot
/// partitions to split and which runs of tiny partitions to coalesce.
/// Deterministic and side-effect free — calling it twice on the same
/// histogram yields the same plan.
pub fn plan_retile(hist: &[PartStat], params: &RetileParams) -> RetilePlan {
    let n = hist.len();
    let total: u64 = hist.iter().map(|p| p.bytes).sum();
    if n < 2 || total == 0 {
        return RetilePlan::default();
    }
    let mean = total as f64 / n as f64;
    let maxb = hist.iter().map(|p| p.bytes).max().unwrap_or(0);
    let cap = if params.cap_bytes > 0 {
        params.cap_bytes
    } else {
        (mean.ceil() as u64).max(1)
    };
    if (maxb as f64) < params.threshold * mean {
        return RetilePlan {
            cap_bytes: cap,
            actions: Vec::new(),
        };
    }

    let mut actions = Vec::new();
    // Hot partitions: fan out to ~cap-sized sub-partitions.
    for (i, p) in hist.iter().enumerate() {
        if p.bytes > cap {
            let ways = (p.bytes.div_ceil(cap) as usize).clamp(2, MAX_SPLIT_WAYS);
            actions.push(RetileAction::Split { part: i, ways });
        }
    }
    // Tiny partitions (< cap/4): greedy runs of consecutive tiny parts
    // whose combined bytes stay under the cap.
    let tiny = |p: &PartStat| p.bytes.saturating_mul(4) <= cap;
    let mut i = 0;
    while i < n {
        if !tiny(&hist[i]) {
            i += 1;
            continue;
        }
        let mut run = vec![i];
        let mut run_bytes = hist[i].bytes;
        let mut j = i + 1;
        while j < n && tiny(&hist[j]) && run_bytes + hist[j].bytes <= cap {
            run_bytes += hist[j].bytes;
            run.push(j);
            j += 1;
        }
        if run.len() >= 2 {
            actions.push(RetileAction::Coalesce { parts: run });
        }
        i = j;
    }
    RetilePlan {
        cap_bytes: cap,
        actions,
    }
}

/// Applies a plan to a histogram, returning the rebalanced histogram (used
/// by the property tests to check conservation and cap compliance; the
/// runtime splice balances by real chunk bytes instead).
pub fn apply_plan(hist: &[PartStat], plan: &RetilePlan) -> Vec<PartStat> {
    let mut split: HashMap<usize, usize> = HashMap::new();
    let mut head: HashMap<usize, &[usize]> = HashMap::new();
    let mut absorbed: HashSet<usize> = HashSet::new();
    for a in &plan.actions {
        match a {
            RetileAction::Split { part, ways } => {
                split.insert(*part, *ways);
            }
            RetileAction::Coalesce { parts } => {
                head.insert(parts[0], parts);
                absorbed.extend(parts[1..].iter().copied());
            }
        }
    }
    let mut out = Vec::with_capacity(hist.len());
    for (i, p) in hist.iter().enumerate() {
        if absorbed.contains(&i) {
            continue;
        }
        if let Some(&ways) = split.get(&i) {
            let w = ways as u64;
            for j in 0..w {
                // near-equal integer split that conserves totals exactly
                let part_of = |v: u64| v / w + u64::from(j < v % w);
                out.push(PartStat {
                    bytes: part_of(p.bytes),
                    rows: part_of(p.rows),
                });
            }
        } else if let Some(parts) = head.get(&i) {
            let bytes = parts.iter().map(|&k| hist[k].bytes).sum();
            let rows = parts.iter().map(|&k| hist[k].rows).sum();
            out.push(PartStat { bytes, rows });
        } else {
            out.push(*p);
        }
    }
    out
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
    /// Singleton `GroupbyFinalize`/`GroupbyDirect` subtask.
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
    fn min_st(&self) -> usize {
        match *self {
            WavePart::Groupby { st } => st,
            WavePart::Join { lcat, rcat, join } => lcat.min(rcat.unwrap_or(usize::MAX)).min(join),
        }
    }

    fn member_sts(&self) -> Vec<usize> {
        match *self {
            WavePart::Groupby { st } => vec![st],
            WavePart::Join { lcat, rcat, join } => {
                let mut v = vec![lcat];
                v.extend(rcat);
                v.push(join);
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
        ChunkOp::GroupbyFinalize { .. } | ChunkOp::GroupbyDirect { .. } => {
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
        ChunkOp::GroupbyFinalize { .. }
            | ChunkOp::GroupbyDirect { .. }
            | ChunkOp::Join { .. }
            | ChunkOp::Concat
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
        let first = parts.iter().map(|p| p.min_st()).min().unwrap_or(usize::MAX);
        if first == next {
            let mut parts = parts;
            parts.sort_by_key(|p| p.min_st());
            return Some(Wave { id, parts });
        }
    }
    None
}

/// One graph run's re-tiling state, held by whichever executor drives the
/// run: the planner thresholds, the synthetic-key allocator for spliced
/// nodes, and the waves already considered (each is harvested and re-tiled
/// at most once, keyed by its split-node set).
#[derive(Debug, Clone)]
pub struct RetileRun {
    params: RetileParams,
    synth: SynthKeys,
    done: HashSet<Vec<usize>>,
}

impl RetileRun {
    /// Fresh state for one run over `chunks` (carves its synthetic-key
    /// window).
    pub fn for_graph(chunks: &ChunkGraph) -> RetileRun {
        RetileRun {
            params: RetileParams::default(),
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
    /// Partitions that were split or absorbed into a coalesced run.
    pub retiled_partitions: usize,
    /// Hot-partition splits applied.
    pub splits: usize,
    /// Coalesced runs applied.
    pub coalesces: usize,
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

/// Merges the member subtasks of a coalesced run into one subtask.
/// `consumed_by` maps each key to the chunk nodes reading it (pre-splice;
/// coalesced partitions are disjoint from split partitions, so the map
/// stays valid for them).
fn merge_subtasks(
    graph: &SubtaskGraph,
    consumed_by: &HashMap<ChunkKey, Vec<usize>>,
    members: &[usize],
) -> Subtask {
    let mut nodes = Vec::new();
    for &sti in members {
        nodes.extend(graph.subtasks[sti].nodes.iter().copied());
    }
    let node_set: HashSet<usize> = nodes.iter().copied().collect();
    let producers = graph.chunks.producers();
    let mut external = Vec::new();
    let mut published = Vec::new();
    let mut internal = Vec::new();
    let mut seen = HashSet::new();
    for &ni in &nodes {
        for k in &graph.chunks.nodes[ni].inputs {
            let internal_producer = producers.get(k).is_some_and(|pi| node_set.contains(pi));
            if !internal_producer && seen.insert(*k) {
                external.push(*k);
            }
        }
        for k in &graph.chunks.nodes[ni].outputs {
            let all_internal = consumed_by
                .get(k)
                .map(|cs| cs.iter().all(|c| node_set.contains(c)))
                .unwrap_or(false);
            if graph.retained.contains(k) || !all_internal {
                published.push(*k);
            } else {
                internal.push(*k);
            }
        }
    }
    Subtask {
        nodes,
        external_inputs: external,
        published_outputs: published,
        internal_keys: internal,
    }
}

impl RetileRun {
    /// Quiesce-point entry: detect a shuffle wave at the pending head, harvest
    /// its partition histogram through `info` (`key → (bytes, rows)`), and if
    /// the skew warrants it splice a rebalanced wave into `graph.subtasks`
    /// starting at `next`. `peek` fetches a produced chunk payload so the
    /// groupby split gate can inspect partial-state dtypes. Each wave is
    /// attempted once per run.
    ///
    /// On success the pending tail of `graph.subtasks` has been rewritten (the
    /// prefix `[0, next)` is untouched) and the caller must refresh anything it
    /// derived from subtask indices (last-consumer refcounts, lineage).
    pub fn maybe_retile(
        &mut self,
        graph: &mut SubtaskGraph,
        next: usize,
        info: &dyn Fn(ChunkKey) -> Option<(u64, u64)>,
        peek: &dyn Fn(ChunkKey) -> Option<Arc<Payload>>,
    ) -> Option<RetileOutcome> {
        let wave = detect_wave(graph, next)?;
        if !self.done.insert(wave.id.clone()) {
            return None;
        }

        // harvest the histogram: partition bytes/rows = sum over its shuffle
        // inputs (probe + build for joins)
        let part_inputs = |part: &WavePart| -> Vec<ChunkKey> {
            match *part {
                WavePart::Groupby { st } => graph.chunks.nodes[graph.subtasks[st].nodes[0]]
                    .inputs
                    .clone(),
                WavePart::Join { lcat, rcat, join } => {
                    let mut v = graph.chunks.nodes[graph.subtasks[lcat].nodes[0]]
                        .inputs
                        .clone();
                    match rcat {
                        // pending build concat: sum its shuffle inputs
                        Some(r) => v.extend_from_slice(
                            &graph.chunks.nodes[graph.subtasks[r].nodes[0]].inputs,
                        ),
                        // materialized build: its one concatenated chunk
                        None => v.push(graph.chunks.nodes[graph.subtasks[join].nodes[0]].inputs[1]),
                    }
                    v
                }
            }
        };
        let mut hist = Vec::with_capacity(wave.parts.len());
        for part in &wave.parts {
            let mut stat = PartStat::default();
            for k in part_inputs(part) {
                let (b, r) = info(k)?;
                stat.bytes += b;
                stat.rows += r;
            }
            hist.push(stat);
        }

        let plan = plan_retile(&hist, &self.params);
        if plan.is_noop() {
            return None;
        }

        // index the plan by partition
        let mut split_ways: HashMap<usize, usize> = HashMap::new();
        let mut coalesce_runs: Vec<Vec<usize>> = Vec::new();
        for a in &plan.actions {
            match a {
                RetileAction::Split { part, ways } => {
                    split_ways.insert(*part, *ways);
                }
                RetileAction::Coalesce { parts } => coalesce_runs.push(parts.clone()),
            }
        }
        let mut run_head: HashMap<usize, usize> = HashMap::new(); // part -> run idx
        let mut absorbed: HashSet<usize> = HashSet::new();
        for (ri, run) in coalesce_runs.iter().enumerate() {
            run_head.insert(run[0], ri);
            absorbed.extend(run[1..].iter().copied());
        }

        // pre-splice consumer map (publish decisions for coalesced runs)
        let mut consumed_by: HashMap<ChunkKey, Vec<usize>> = HashMap::new();
        for (ci, node) in graph.chunks.nodes.iter().enumerate() {
            for k in &node.inputs {
                consumed_by.entry(*k).or_default().push(ci);
            }
        }

        // build the replacement sequence, partition by partition
        let mut seq: Vec<Subtask> = Vec::new();
        let mut splits_applied = 0usize;
        let mut retiled = 0usize;
        for (pi, part) in wave.parts.iter().enumerate() {
            if let Some(ri) = run_head.get(&pi) {
                let run = &coalesce_runs[*ri];
                let mut members: Vec<usize> = Vec::new();
                for &p in run {
                    members.extend(wave.parts[p].member_sts());
                }
                members.sort_unstable();
                seq.push(merge_subtasks(graph, &consumed_by, &members));
                retiled += run.len();
                continue;
            }
            if absorbed.contains(&pi) {
                continue;
            }
            let ways = split_ways.get(&pi).copied().unwrap_or(0);
            let applied = if ways >= 2 {
                match *part {
                    WavePart::Groupby { st } => {
                        split_groupby(graph, st, ways, &mut self.synth, info, peek, &mut seq)
                    }
                    WavePart::Join { lcat, rcat, join } => split_join(
                        graph,
                        lcat,
                        rcat,
                        join,
                        ways,
                        &mut self.synth,
                        info,
                        &mut seq,
                    ),
                }
            } else {
                false
            };
            if applied {
                splits_applied += 1;
                retiled += 1;
            } else {
                // unchanged partition: re-emit its subtasks in original order
                let mut members = part.member_sts();
                members.sort_unstable();
                for sti in members {
                    seq.push(graph.subtasks[sti].clone());
                }
            }
        }

        if splits_applied == 0 && coalesce_runs.is_empty() {
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
            retiled_partitions: retiled,
            splits: splits_applied,
            coalesces: coalesce_runs.len(),
        })
    }
}

/// Splits a hot groupby reduce partition into `ways` contiguous combine
/// runs plus a final finalize. Returns `false` (leaving the graph
/// untouched) when the operator algebra can't guarantee bit-exactness.
#[allow(clippy::too_many_arguments)]
fn split_groupby(
    graph: &mut SubtaskGraph,
    st: usize,
    ways: usize,
    synth: &mut SynthKeys,
    info: &dyn Fn(ChunkKey) -> Option<(u64, u64)>,
    peek: &dyn Fn(ChunkKey) -> Option<Arc<Payload>>,
    seq: &mut Vec<Subtask>,
) -> bool {
    let ni = graph.subtasks[st].nodes[0];
    let ins = graph.chunks.nodes[ni].inputs.clone();
    let ways = ways.min(ins.len());
    if ways < 2 {
        return false;
    }
    // exactness gates (see module docs)
    let sub_op = match &graph.chunks.nodes[ni].op {
        ChunkOp::GroupbyFinalize { keys, specs } => {
            if !is_decomposable(specs) {
                return false;
            }
            // peek one non-empty partial for the Float64-sum-state veto
            let mut exact = None;
            for k in &ins {
                if let Some(p) = peek(*k) {
                    if let Ok(df) = p.as_df() {
                        if df.num_rows() > 0 {
                            exact = Some(combine_split_exact(df, specs));
                            break;
                        }
                    }
                }
            }
            if exact != Some(true) {
                return false;
            }
            ChunkOp::GroupbyCombine {
                keys: keys.clone(),
                specs: specs.clone(),
            }
        }
        ChunkOp::GroupbyDirect { keys, specs } => {
            // exact only for the nunique lowering: dedup preserves distinct
            // sets and first-seen order but destroys sums/counts/means
            if !specs.iter().all(|s| s.func == AggFunc::Nunique) {
                return false;
            }
            ChunkOp::DistinctLocal {
                subset: Some(nunique_subset(keys, specs)),
            }
        }
        _ => return false,
    };

    let in_bytes: Vec<u64> = ins
        .iter()
        .map(|k| info(*k).map(|(b, _)| b).unwrap_or(0))
        .collect();
    let runs = balanced_runs(&in_bytes, ways);
    let fin_op = graph.chunks.nodes[ni].op.clone();
    let orig_outputs = graph.chunks.nodes[ni].outputs.clone();
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

/// Splits a hot shuffle-join partition by fanning the probe (left) side
/// into contiguous runs, each joined against the full build side, then
/// concatenating in run order. Exact for every join type in this engine
/// (all emit probe-order, left-derived rows only). `rcat` is `None` when
/// the build side is already materialized — the runs then read its chunk
/// directly and no build subtask is re-emitted.
#[allow(clippy::too_many_arguments)]
fn split_join(
    graph: &mut SubtaskGraph,
    lcat: usize,
    rcat: Option<usize>,
    join: usize,
    ways: usize,
    synth: &mut SynthKeys,
    info: &dyn Fn(ChunkKey) -> Option<(u64, u64)>,
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

    let l_bytes: Vec<u64> = l_ins
        .iter()
        .map(|k| info(*k).map(|(b, _)| b).unwrap_or(0))
        .collect();
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

    fn hist(bytes: &[u64]) -> Vec<PartStat> {
        bytes
            .iter()
            .map(|&b| PartStat {
                bytes: b,
                rows: b / 8,
            })
            .collect()
    }

    #[test]
    fn balanced_histogram_is_noop() {
        let h = hist(&[100, 110, 95, 105]);
        let plan = plan_retile(&h, &RetileParams::default());
        assert!(plan.is_noop());
    }

    #[test]
    fn hot_partition_splits_tiny_runs_coalesce() {
        let h = hist(&[1000, 10, 10, 10, 100]);
        let plan = plan_retile(&h, &RetileParams::default());
        assert!(!plan.is_noop());
        assert!(plan
            .actions
            .iter()
            .any(|a| matches!(a, RetileAction::Split { part: 0, .. })));
        assert!(plan
            .actions
            .iter()
            .any(|a| matches!(a, RetileAction::Coalesce { parts } if parts == &vec![1, 2, 3])));
        // conservation
        let out = apply_plan(&h, &plan);
        assert_eq!(
            out.iter().map(|p| p.bytes).sum::<u64>(),
            h.iter().map(|p| p.bytes).sum::<u64>()
        );
        assert_eq!(
            out.iter().map(|p| p.rows).sum::<u64>(),
            h.iter().map(|p| p.rows).sum::<u64>()
        );
    }

    #[test]
    fn plan_is_pure() {
        let h = hist(&[999, 3, 14, 2000, 7, 7, 7, 120]);
        let p = RetileParams::default();
        assert_eq!(plan_retile(&h, &p), plan_retile(&h, &p));
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
