//! Chunk-operator execution — the `execute` methods of §III-C.
//!
//! Every [`ChunkOp`] variant is executed here against its input payloads,
//! bottoming out in the single-node kernels (`xorbits-dataframe` standing in
//! for pandas, `xorbits-array` for NumPy), exactly as the paper's workers
//! call the single-node packages on split chunks.
//!
//! The fused-subtask loop of §V lives here too, once: [`run_node`] is one
//! chunk operator against a scratch map and a [`ChunkIo`], [`run_subtask`]
//! is a subtask's nodes in order. Every executor — host or simulated,
//! first run or lineage replay — supplies only the [`ChunkIo`].

use crate::chunk::{ArrStep, ChunkKey, ChunkNode, ChunkOp, DfStep, Payload, PayloadKind};
use crate::error::{XbError, XbResult};
use crate::subtask::SubtaskGraph;
use std::collections::HashMap;
use std::sync::Arc;
use xorbits_array::{linalg, random, NdArray, Reduction};
use xorbits_dataframe::{eval, groupby, join, partition, pivot, sort, DataFrame, JoinOptions};

/// Where a running subtask's chunks come from and go to.
pub trait ChunkIo {
    /// Reads the inputs of one node that no earlier node of the run left
    /// in scratch, one payload per key, in order. A key the store does not
    /// hold is a [`missing_input`] error.
    fn load(&mut self, keys: &[ChunkKey]) -> XbResult<Vec<Arc<Payload>>>;

    /// Takes an output that outlives the run.
    fn publish(&mut self, key: ChunkKey, payload: Payload) -> XbResult<()>;

    /// The node that last called [`ChunkIo::load`] is over: its outputs
    /// are handed over, or it failed.
    fn node_done(&mut self) {}
}

/// The error for an input that is neither in scratch nor in the store.
pub fn missing_input(key: ChunkKey) -> XbError {
    XbError::Plan(format!("input chunk {key} not found"))
}

/// Runs one chunk node: inputs resolve scratch-then-store, every output
/// goes to the store when `publishes(key)` and into `scratch` otherwise.
/// Returns the logical bytes of all outputs.
pub fn run_node<IO: ChunkIo>(
    node: &ChunkNode,
    scratch: &mut HashMap<ChunkKey, Arc<Payload>>,
    publishes: impl Fn(ChunkKey) -> bool,
    io: &mut IO,
) -> XbResult<usize> {
    let stored: Vec<ChunkKey> = node
        .inputs
        .iter()
        .copied()
        .filter(|k| !scratch.contains_key(k))
        .collect();
    let result = (|| {
        let mut loaded = io.load(&stored)?.into_iter();
        let payloads: Vec<Arc<Payload>> = node
            .inputs
            .iter()
            .map(|k| match scratch.get(k) {
                Some(p) => Ok(Arc::clone(p)),
                None => loaded.next().ok_or_else(|| missing_input(*k)),
            })
            .collect::<XbResult<_>>()?;
        let mut bytes = 0usize;
        let outputs = execute_chunk(&node.op, &payloads)?;
        for (key, payload) in node.outputs.iter().zip(outputs) {
            bytes += payload.nbytes();
            if publishes(*key) {
                io.publish(*key, payload)?;
            } else {
                scratch.insert(*key, Arc::new(payload));
            }
        }
        Ok(bytes)
    })();
    io.node_done();
    result
}

/// Runs subtask `si` of `graph`: its fused nodes in order, intermediates
/// in a scratch map that never touches the store, each one dropped after
/// its last consumer inside the subtask. Returns the peak transient
/// working set in logical bytes — the most that outputs published so far
/// plus live intermediates came to after any node — which is what fusion
/// still costs in memory (§V-C).
pub fn run_subtask<IO: ChunkIo>(graph: &SubtaskGraph, si: usize, io: &mut IO) -> XbResult<usize> {
    let st = &graph.subtasks[si];
    let nodes = &graph.chunks.nodes;
    // last node consuming each intermediate
    let mut last_use: HashMap<ChunkKey, usize> =
        st.internal_keys.iter().map(|&k| (k, usize::MAX)).collect();
    for &ni in &st.nodes {
        for k in &nodes[ni].inputs {
            if let Some(last) = last_use.get_mut(k) {
                *last = ni;
            }
        }
    }
    let mut scratch: HashMap<ChunkKey, Arc<Payload>> = HashMap::new();
    let (mut live, mut peak) = (0usize, 0usize);
    for &ni in &st.nodes {
        let node = &nodes[ni];
        let publishes = |k| st.published_outputs.contains(&k);
        live += run_node(node, &mut scratch, publishes, io)?;
        peak = peak.max(live);
        for k in &node.inputs {
            if last_use.get(k) == Some(&ni) {
                if let Some(p) = scratch.remove(k) {
                    live = live.saturating_sub(p.nbytes());
                }
            }
        }
    }
    Ok(peak)
}

/// Executes one chunk operator. Returns one payload per declared output.
pub fn execute_chunk(op: &ChunkOp, inputs: &[Arc<Payload>]) -> XbResult<Vec<Payload>> {
    match op {
        // ---- sources -------------------------------------------------------
        // literal clones are O(1): frames/arrays share their buffers
        ChunkOp::DfLiteral(df) => Ok(vec![Payload::Df(df.as_ref().clone())]),
        // the generator already returns an owned frame — no extra clone
        ChunkOp::DfGen { gen, .. } => Ok(vec![Payload::Df(gen()?)]),
        ChunkOp::ArrLiteral(a) => Ok(vec![Payload::Arr(a.as_ref().clone())]),
        ChunkOp::ArrRandom {
            shape,
            seed,
            normal,
        } => {
            let a = if *normal {
                random::rand_normal(shape, *seed)
            } else {
                random::rand_uniform(shape, *seed)
            };
            Ok(vec![Payload::Arr(a)])
        }

        // ---- dataframe elementwise ------------------------------------------
        ChunkOp::DfMap(step) => Ok(vec![Payload::Df(apply_df_step(inputs[0].as_df()?, step)?)]),

        // ---- groupby stages ---------------------------------------------------
        ChunkOp::GroupbyMap { keys, specs } => {
            let df = inputs[0].as_df()?;
            let keys: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
            Ok(vec![Payload::Df(groupby::groupby_map(df, &keys, specs)?)])
        }
        ChunkOp::GroupbyCombine { keys, specs } => {
            let df = concat_df_inputs(inputs)?;
            let keys: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
            Ok(vec![Payload::Df(groupby::groupby_combine(
                &df, &keys, specs,
            )?)])
        }
        ChunkOp::GroupbyFinalize { keys, specs } => {
            let df = concat_df_inputs(inputs)?;
            let keys: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
            Ok(vec![Payload::Df(groupby::groupby_finalize(
                &df, &keys, specs,
            )?)])
        }
        ChunkOp::GroupbyDirect { keys, specs } => {
            let df = concat_df_inputs(inputs)?;
            let keys: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
            Ok(vec![Payload::Df(groupby::groupby_agg(&df, &keys, specs)?)])
        }
        ChunkOp::DistinctLocal { subset } => {
            let df = concat_df_inputs(inputs)?;
            let subset: Option<Vec<&str>> = subset
                .as_ref()
                .map(|s| s.iter().map(|x| x.as_str()).collect());
            Ok(vec![Payload::Df(df.drop_duplicates(subset.as_deref())?)])
        }

        // ---- shuffle ---------------------------------------------------------
        ChunkOp::ShuffleSplit { keys, n } => {
            let df = inputs[0].as_df()?;
            let keys: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
            // single-pass typed scatter: one partition-id pass over the
            // rows, then every column writes straight into per-partition
            // builders (the map side of the paper's map-combine-reduce)
            let parts = partition::hash_partition(df, &keys, *n)?;
            Ok(parts.into_iter().map(Payload::Df).collect())
        }

        // ---- reshaping ---------------------------------------------------------
        ChunkOp::Concat => match inputs[0].as_ref() {
            Payload::Df(_) => Ok(vec![Payload::Df(concat_df_inputs(inputs)?)]),
            Payload::Arr(_) => {
                let arrs: Vec<&NdArray> = inputs
                    .iter()
                    .map(|p| p.as_arr())
                    .collect::<XbResult<Vec<_>>>()?;
                Ok(vec![Payload::Arr(NdArray::concat_rows(&arrs)?)])
            }
        },
        ChunkOp::HeadLocal { n } => {
            let df = inputs[0].as_df()?;
            Ok(vec![Payload::Df(df.head(*n))])
        }
        ChunkOp::SliceLocal { offset, len } => {
            let df = inputs[0].as_df()?;
            Ok(vec![Payload::Df(df.slice(*offset, *len))])
        }
        ChunkOp::SortLocal { keys } => {
            let df = inputs[0].as_df()?;
            let keys: Vec<(&str, bool)> = keys.iter().map(|(k, a)| (k.as_str(), *a)).collect();
            Ok(vec![Payload::Df(sort::sort_by(df, &keys)?)])
        }
        ChunkOp::TopKLocal { keys, n } => {
            let df = concat_df_inputs(inputs)?;
            let keys: Vec<(&str, bool)> = keys.iter().map(|(k, a)| (k.as_str(), *a)).collect();
            Ok(vec![Payload::Df(sort::top_k(&df, &keys, *n)?)])
        }

        // ---- join ------------------------------------------------------------
        ChunkOp::Join {
            left_inputs,
            left_on,
            right_on,
            how,
            suffixes,
        } => {
            let dfs = df_inputs(inputs)?;
            let (l, r) = dfs.split_at((*left_inputs).min(dfs.len()));
            let lo: Vec<&str> = left_on.iter().map(|s| s.as_str()).collect();
            let ro: Vec<&str> = right_on.iter().map(|s| s.as_str()).collect();
            let opts = JoinOptions {
                how: *how,
                suffixes: suffixes.clone(),
            };
            Ok(vec![Payload::Df(join::merge_pieces(
                l, r, &lo, &ro, &opts,
            )?)])
        }
        ChunkOp::PivotLocal {
            index,
            columns,
            values,
            agg,
        } => {
            let df = concat_df_inputs(inputs)?;
            Ok(vec![Payload::Df(pivot::pivot_table(
                &df, index, columns, values, *agg,
            )?)])
        }

        // ---- array ops -----------------------------------------------------------
        ChunkOp::ArrMap(step) => {
            let a = inputs[0].as_arr()?;
            Ok(vec![Payload::Arr(apply_arr_step(a, *step))])
        }
        ChunkOp::ArrBinary(op) => {
            let a = inputs[0].as_arr()?;
            let b = inputs[1].as_arr()?;
            Ok(vec![Payload::Arr(xorbits_array::binary(*op, a, b)?)])
        }
        ChunkOp::MatMul => {
            let a = inputs[0].as_arr()?;
            let b = inputs[1].as_arr()?;
            Ok(vec![Payload::Arr(linalg::matmul(a, b)?)])
        }
        ChunkOp::QrLocal => {
            let a = inputs[0].as_arr()?;
            let (q, r) = linalg::qr(a)?;
            Ok(vec![Payload::Arr(q), Payload::Arr(r)])
        }
        ChunkOp::ArrSliceBlock { block, nblocks } => {
            let a = inputs[0].as_arr()?;
            let rows = a.shape()[0];
            if rows % nblocks != 0 {
                return Err(XbError::Kernel(format!(
                    "block slice: {rows} rows not divisible into {nblocks} blocks"
                )));
            }
            let h = rows / nblocks;
            Ok(vec![Payload::Arr(
                a.slice_rows(block * h, (block + 1) * h)?,
            )])
        }
        ChunkOp::XtX => {
            let x = inputs[0].as_arr()?;
            let xt = x.transpose()?;
            Ok(vec![Payload::Arr(linalg::matmul(&xt, x)?)])
        }
        ChunkOp::XtY => {
            let x = inputs[0].as_arr()?;
            let y = inputs[1].as_arr()?;
            let xt = x.transpose()?;
            Ok(vec![Payload::Arr(linalg::matvec(&xt, y)?)])
        }
        ChunkOp::AddN => {
            let mut acc = inputs[0].as_arr()?.clone();
            for p in &inputs[1..] {
                acc = xorbits_array::binary(xorbits_array::ElemOp::Add, &acc, p.as_arr()?)?;
            }
            Ok(vec![Payload::Arr(acc)])
        }
        ChunkOp::SolveNe => {
            let xtx = inputs[0].as_arr()?;
            let xty = inputs[1].as_arr()?;
            Ok(vec![Payload::Arr(linalg::solve_normal_equations(
                xtx, xty,
            )?)])
        }
        ChunkOp::ReducePartial { kind } => {
            let a = inputs[0].as_arr()?;
            Ok(vec![Payload::Arr(reduce_state(*kind, a))])
        }
        ChunkOp::ReduceCombine { kind } => {
            let states: Vec<&NdArray> = inputs
                .iter()
                .map(|p| p.as_arr())
                .collect::<XbResult<Vec<_>>>()?;
            Ok(vec![Payload::Arr(combine_states(*kind, &states)?)])
        }
        ChunkOp::ReduceFinal { kind } => {
            let states: Vec<&NdArray> = inputs
                .iter()
                .map(|p| p.as_arr())
                .collect::<XbResult<Vec<_>>>()?;
            let combined = combine_states(*kind, &states)?;
            let value = match kind {
                Reduction::Mean => {
                    let d = combined.data();
                    if d[1] == 0.0 {
                        f64::NAN
                    } else {
                        d[0] / d[1]
                    }
                }
                _ => combined.data()[0],
            };
            Ok(vec![Payload::Arr(NdArray::from_iter([value]))])
        }
    }
}

fn apply_df_step(df: &DataFrame, step: &DfStep) -> XbResult<DataFrame> {
    Ok(match step {
        DfStep::Filter(expr) => {
            let mask = eval::eval_mask(df, expr)?;
            df.filter(&mask)?
        }
        DfStep::Project(cols) => {
            let names: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            df.select(&names)?
        }
        DfStep::PruneTo(cols) => {
            let names: Vec<&str> = cols
                .iter()
                .map(|s| s.as_str())
                .filter(|n| df.schema().contains(n))
                .collect();
            df.select(&names)?
        }
        DfStep::Assign(exprs) => {
            let mut out = df.clone();
            for (name, expr) in exprs {
                // evaluate against the running frame so later assigns can
                // reference earlier ones, like chained pandas assigns
                let col = eval::eval(&out, expr)?;
                out = out.with_column_in_place(name, col)?;
            }
            out
        }
        DfStep::Fillna(col, value) => df.fillna(col, value)?,
        DfStep::Dropna(subset) => {
            let subset: Option<Vec<&str>> = subset
                .as_ref()
                .map(|s| s.iter().map(|x| x.as_str()).collect());
            df.dropna(subset.as_deref())?
        }
        DfStep::Rename(pairs) => {
            let pairs: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            df.rename(&pairs)?
        }
    })
}

/// `x ↦ op(x, operand)` over every element, in one traversal.
fn apply_arr_step(a: &NdArray, step: ArrStep) -> NdArray {
    let x = step.operand;
    a.map(|v| match step.op {
        xorbits_array::ElemOp::Add => v + x,
        xorbits_array::ElemOp::Sub => v - x,
        xorbits_array::ElemOp::Mul => v * x,
        xorbits_array::ElemOp::Div => v / x,
        xorbits_array::ElemOp::Max => v.max(x),
        xorbits_array::ElemOp::Min => v.min(x),
        xorbits_array::ElemOp::Pow => v.powf(x),
    })
}

fn df_inputs(inputs: &[Arc<Payload>]) -> XbResult<Vec<&DataFrame>> {
    inputs.iter().map(|p| p.as_df()).collect()
}

fn concat_df_inputs(inputs: &[Arc<Payload>]) -> XbResult<DataFrame> {
    if inputs.len() == 1 {
        return Ok(inputs[0].as_df()?.clone());
    }
    // tolerates empty chunks with divergent inferred schemas
    let parts = DataFrame::live_parts(&df_inputs(inputs)?)?;
    Ok(DataFrame::concat(&parts)?)
}

/// `[sum]` / `[sum, count]` / `[min]` / `[max]` partial state of one chunk.
fn reduce_state(kind: Reduction, a: &NdArray) -> NdArray {
    match kind {
        Reduction::Sum => NdArray::from_iter([xorbits_array::reduce_all(Reduction::Sum, a)]),
        Reduction::Mean => {
            NdArray::from_iter([xorbits_array::reduce_all(Reduction::Sum, a), a.len() as f64])
        }
        Reduction::Min => NdArray::from_iter([xorbits_array::reduce_all(Reduction::Min, a)]),
        Reduction::Max => NdArray::from_iter([xorbits_array::reduce_all(Reduction::Max, a)]),
    }
}

fn combine_states(kind: Reduction, states: &[&NdArray]) -> XbResult<NdArray> {
    let width = states
        .first()
        .map(|s| s.len())
        .ok_or_else(|| XbError::Kernel("combine of zero states".into()))?;
    let mut acc = states[0].data().to_vec();
    for s in &states[1..] {
        if s.len() != width {
            return Err(XbError::Kernel("reduce state width mismatch".into()));
        }
        for (i, v) in s.data().iter().enumerate() {
            acc[i] = match kind {
                Reduction::Sum | Reduction::Mean => acc[i] + v,
                Reduction::Min => acc[i].min(*v),
                Reduction::Max => acc[i].max(*v),
            };
        }
    }
    Ok(NdArray::from_vec(acc, vec![width])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column};

    fn df_payload() -> Arc<Payload> {
        Arc::new(Payload::Df(
            DataFrame::new(vec![
                ("k", Column::from_str(["a", "b", "a"])),
                ("v", Column::from_i64(vec![1, 2, 3])),
            ])
            .unwrap(),
        ))
    }

    /// A store that is just a map.
    #[derive(Default)]
    struct MapIo(HashMap<ChunkKey, Arc<Payload>>);

    impl ChunkIo for MapIo {
        fn load(&mut self, keys: &[ChunkKey]) -> XbResult<Vec<Arc<Payload>>> {
            keys.iter()
                .map(|k| self.0.get(k).cloned().ok_or_else(|| missing_input(*k)))
                .collect()
        }

        fn publish(&mut self, key: ChunkKey, payload: Payload) -> XbResult<()> {
            self.0.insert(key, Arc::new(payload));
            Ok(())
        }
    }

    #[test]
    fn fused_chain_drops_intermediates_after_last_consumer() {
        // literal (k0) -> filter (k1) -> assign (k2), fused into one subtask
        // that publishes only k2
        let src = DataFrame::new(vec![("v", Column::from_i64((0..1000).collect()))]).unwrap();
        let ops = [
            ChunkOp::DfLiteral(Arc::new(src)),
            ChunkOp::DfMap(DfStep::Filter(col("v").lt(lit(100i64)))),
            ChunkOp::DfMap(DfStep::Assign(vec![("w".into(), col("v").mul(lit(2i64)))])),
        ];
        let mut chunks = crate::chunk::ChunkGraph::new();
        let mut sizes = Vec::new();
        let mut prev: Option<(ChunkKey, Arc<Payload>)> = None;
        for (key, op) in ops.into_iter().enumerate() {
            let key = key as ChunkKey;
            let inputs: Vec<_> = prev.iter().map(|(_, p)| Arc::clone(p)).collect();
            let out = execute_chunk(&op, &inputs).unwrap().remove(0);
            sizes.push(out.nbytes());
            chunks.push(ChunkNode {
                op,
                inputs: prev.iter().map(|(k, _)| *k).collect(),
                outputs: vec![key],
            });
            prev = Some((key, Arc::new(out)));
        }
        let protected = [2].into_iter().collect();
        let graph = SubtaskGraph::from_groups(chunks, &[0, 0, 0], &protected).unwrap();
        assert_eq!(graph.subtasks[0].internal_keys, vec![0, 1]);

        let mut io = MapIo::default();
        let peak = run_subtask(&graph, 0, &mut io).unwrap();
        // intermediates never reach the store
        assert_eq!(io.0.keys().copied().collect::<Vec<_>>(), vec![2]);
        // k0 is gone once the filter has run and k1 once the assign has,
        // so the peak is the larger adjacent pair — never all three
        let (a, b, c) = (sizes[0], sizes[1], sizes[2]);
        assert_eq!(peak, (a + b).max(b + c));
        assert!(peak < a + b + c);
    }

    #[test]
    fn missing_input_is_a_plan_error() {
        let node = ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![7],
            outputs: vec![8],
        };
        let err = run_node(&node, &mut HashMap::new(), |_| true, &mut MapIo::default());
        assert!(matches!(err, Err(XbError::Plan(m)) if m.contains("chunk 7")));
    }

    /// Runs `ops` one after another, each on the previous one's output.
    fn run_chain(ops: &[ChunkOp], input: Arc<Payload>) -> Arc<Payload> {
        ops.iter().fold(input, |p, op| {
            Arc::new(execute_chunk(op, &[p]).unwrap().remove(0))
        })
    }

    #[test]
    fn df_steps_apply_in_order() {
        let ops = [
            ChunkOp::DfMap(DfStep::Assign(vec![("w".into(), col("v").mul(lit(10i64)))])),
            ChunkOp::DfMap(DfStep::Filter(col("w").gt(lit(10i64)))),
            ChunkOp::DfMap(DfStep::Project(vec!["k".into(), "w".into()])),
        ];
        let out = run_chain(&ops, df_payload());
        let df = out.as_df().unwrap();
        assert_eq!(df.num_rows(), 2);
        assert_eq!(df.schema().names(), vec!["k", "w"]);
    }

    #[test]
    fn groupby_stage_pipeline() {
        let specs = vec![AggSpec::new("v", AggFunc::Sum, "s")];
        let keys = vec!["k".to_string()];
        let mapped = execute_chunk(
            &ChunkOp::GroupbyMap {
                keys: keys.clone(),
                specs: specs.clone(),
            },
            &[df_payload()],
        )
        .unwrap();
        let finalized = execute_chunk(
            &ChunkOp::GroupbyFinalize {
                keys: keys.clone(),
                specs,
            },
            &[Arc::new(mapped.into_iter().next().unwrap())],
        )
        .unwrap();
        let df = finalized[0].as_df().unwrap();
        assert_eq!(df.num_rows(), 2);
    }

    #[test]
    fn shuffle_split_covers_rows() {
        let out = execute_chunk(
            &ChunkOp::ShuffleSplit {
                keys: vec!["k".into()],
                n: 3,
            },
            &[df_payload()],
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        let total: usize = out.iter().map(|p| p.rows()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn qr_local_outputs_q_and_r() {
        let a = Arc::new(Payload::Arr(xorbits_array::random::rand_uniform(
            &[8, 3],
            5,
        )));
        let out = execute_chunk(&ChunkOp::QrLocal, std::slice::from_ref(&a)).unwrap();
        assert_eq!(out.len(), 2);
        let q = out[0].as_arr().unwrap();
        let r = out[1].as_arr().unwrap();
        let prod = linalg::matmul(q, r).unwrap();
        assert!(prod.max_abs_diff(a.as_arr().unwrap()) < 1e-9);
    }

    #[test]
    fn reduce_tree_mean() {
        let a = Arc::new(Payload::Arr(NdArray::from_iter([1.0, 2.0, 3.0])));
        let b = Arc::new(Payload::Arr(NdArray::from_iter([4.0, 5.0])));
        let kind = Reduction::Mean;
        let pa = execute_chunk(&ChunkOp::ReducePartial { kind }, &[a]).unwrap();
        let pb = execute_chunk(&ChunkOp::ReducePartial { kind }, &[b]).unwrap();
        let f = execute_chunk(
            &ChunkOp::ReduceFinal { kind },
            &[
                Arc::new(pa.into_iter().next().unwrap()),
                Arc::new(pb.into_iter().next().unwrap()),
            ],
        )
        .unwrap();
        assert!((f[0].as_arr().unwrap().data()[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn arr_steps_apply_in_order() {
        let a = Arc::new(Payload::Arr(NdArray::from_iter([1.0, 2.0])));
        let step = |op, operand| ChunkOp::ArrMap(ArrStep { op, operand });
        let ops = [
            step(xorbits_array::ElemOp::Mul, 3.0),
            step(xorbits_array::ElemOp::Add, 1.0),
        ];
        let out = run_chain(&ops, a);
        assert_eq!(out.as_arr().unwrap().data(), &[4.0, 7.0]);
    }

    #[test]
    fn concat_skips_empty_chunks() {
        let empty = Arc::new(Payload::Df(
            DataFrame::new(vec![("k", Column::from_str(Vec::<&str>::new()))]).unwrap(),
        ));
        let out = execute_chunk(&ChunkOp::Concat, &[df_payload(), empty]).unwrap();
        assert_eq!(out[0].rows(), 3);
    }

    #[test]
    fn solve_ne_linear_regression_reduce() {
        // two chunks of X, y; partial XtX/Xty summed then solved
        let x1 = NdArray::from_vec(vec![1., 0., 0., 1., 1., 1.], vec![3, 2]).unwrap();
        let y1 = NdArray::from_iter([2., 3., 5.]);
        let xtx = execute_chunk(&ChunkOp::XtX, &[Arc::new(Payload::Arr(x1.clone()))]).unwrap();
        let xty = execute_chunk(
            &ChunkOp::XtY,
            &[Arc::new(Payload::Arr(x1)), Arc::new(Payload::Arr(y1))],
        )
        .unwrap();
        let w = execute_chunk(
            &ChunkOp::SolveNe,
            &[
                Arc::new(xtx.into_iter().next().unwrap()),
                Arc::new(xty.into_iter().next().unwrap()),
            ],
        )
        .unwrap();
        let w = w[0].as_arr().unwrap();
        assert!((w.data()[0] - 2.0).abs() < 1e-10);
        assert!((w.data()[1] - 3.0).abs() < 1e-10);
    }
}
