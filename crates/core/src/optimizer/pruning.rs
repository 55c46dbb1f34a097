//! Column pruning — §V-A.
//!
//! "Xorbits traverses backward from the data sink, recording the columns
//! needed for each operator": this pass computes, per tileable, the set of
//! columns any downstream consumer can observe, then inserts a `Project`
//! immediately after every dataframe source that produces more. Graph-level
//! fusion later glues the projection into the scan subtask, so unpruned
//! data never reaches the storage service or the network.

use crate::chunk::DfStep;
use crate::tileable::{TileableGraph, TileableId, TileableOp};
use std::collections::BTreeSet;
use xorbits_dataframe::JoinType;

/// Required-column set: `None` means "all columns" (unprunable).
type Req = Option<BTreeSet<String>>;

fn union(a: &mut Req, names: impl IntoIterator<Item = String>) {
    if let Some(set) = a {
        set.extend(names);
    }
}

fn mark_all(a: &mut Req) {
    *a = None;
}

impl DfStep {
    /// The step's column rule: given what consumers need of its output,
    /// what it needs of its input — `(carried, extra)` in the terms of
    /// [`propagate`].
    fn input_columns(&self, out_req: &Req) -> (Req, BTreeSet<String>) {
        let needed = |name: &String| out_req.as_ref().is_none_or(|set| set.contains(name));
        let mut extra = BTreeSet::new();
        let carried = match self {
            DfStep::Filter(predicate) => {
                predicate.required_columns(&mut extra);
                out_req.clone()
            }
            // projection caps what upstream needs regardless of out_req
            DfStep::Project(columns) | DfStep::PruneTo(columns) => {
                extra.extend(columns.iter().filter(|c| needed(c)).cloned());
                Some(BTreeSet::new())
            }
            DfStep::Assign(exprs) => {
                for (_, e) in exprs.iter().filter(|(name, _)| needed(name)) {
                    e.required_columns(&mut extra);
                }
                // pass through out_req minus assigned names
                out_req.clone().map(|mut set| {
                    for (name, _) in exprs {
                        set.remove(name);
                    }
                    set
                })
            }
            DfStep::Fillna(column, _) => {
                extra.insert(column.clone());
                out_req.clone()
            }
            DfStep::Dropna(Some(cols)) => {
                extra.extend(cols.iter().cloned());
                out_req.clone()
            }
            DfStep::Dropna(None) => None,
            // map required new names back to old names
            DfStep::Rename(pairs) => out_req.clone().map(|set| {
                set.into_iter()
                    .map(|name| {
                        pairs
                            .iter()
                            .find(|(_, new)| *new == name)
                            .map(|(old, _)| old.clone())
                            .unwrap_or(name)
                    })
                    .collect()
            }),
        };
        (carried, extra)
    }
}

/// Computes the columns each tileable of a fetch's closure
/// ([`TileableGraph::closure`]) must expose, walking backward from the
/// sink — the last node, i.e. the fetched target, which keeps everything.
/// Conservative across joins: a side keeps every name read above the join
/// that it may own.
pub fn required_columns(graph: &TileableGraph) -> Vec<Req> {
    let n = graph.len();
    let mut req: Vec<Req> = vec![Some(BTreeSet::new()); n];
    if let Some(sink) = req.last_mut() {
        *sink = None;
    }

    for (id, node) in graph.nodes.iter().enumerate().rev() {
        let out_req = req[id].clone();
        // `TileableGraph::push` checked the input count against the operator
        let ins = &node.inputs[..];
        match &node.op {
            TileableOp::DfSource(_) => {}
            TileableOp::DfMap(step) => {
                let (carried, extra) = step.input_columns(&out_req);
                propagate(&mut req, ins[0], &carried, extra);
            }
            TileableOp::GroupbyAgg { keys, specs } => {
                let mut cols: BTreeSet<String> = keys.iter().cloned().collect();
                cols.extend(specs.iter().map(|s| s.column.clone()));
                propagate(&mut req, ins[0], &Some(BTreeSet::new()), cols);
            }
            // conservative: each side keeps every name consumers read plus
            // its keys ("all" propagates as "all"), and a suffixed name
            // needs its base name on both sides, or the collision that
            // suffixes it is pruned away. A semi or anti join outputs no
            // right column, so its right side needs its keys alone.
            TileableOp::Merge {
                left_on,
                right_on,
                how,
                suffixes,
            } => {
                let bases: Vec<String> = out_req
                    .iter()
                    .flatten()
                    .filter_map(|n| {
                        n.strip_suffix(suffixes.0.as_str())
                            .or_else(|| n.strip_suffix(suffixes.1.as_str()))
                    })
                    .map(String::from)
                    .collect();
                let left = left_on.iter().chain(&bases).cloned();
                propagate(&mut req, ins[0], &out_req, left);
                match how {
                    JoinType::Semi | JoinType::Anti => {
                        let right = right_on.iter().cloned();
                        propagate(&mut req, ins[1], &Some(BTreeSet::new()), right);
                    }
                    JoinType::Inner | JoinType::Left => {
                        let right = right_on.iter().chain(&bases).cloned();
                        propagate(&mut req, ins[1], &out_req, right);
                    }
                }
            }
            TileableOp::SortValues { keys } => {
                let cols = keys.iter().map(|(k, _)| k.clone());
                propagate(&mut req, ins[0], &out_req, cols);
            }
            TileableOp::DropDuplicates { subset } => match subset {
                Some(cols) => propagate(&mut req, ins[0], &out_req, cols.clone()),
                None => mark_all(&mut req[ins[0]]),
            },
            TileableOp::Head { .. } | TileableOp::ILocRow { .. } | TileableOp::ConcatDf => {
                for &i in ins {
                    propagate(&mut req, i, &out_req, []);
                }
            }
            TileableOp::PivotTable {
                index,
                columns,
                values,
                ..
            } => {
                let cols = [index.clone(), columns.clone(), values.clone()];
                propagate(&mut req, ins[0], &Some(BTreeSet::new()), cols);
            }
            // tensor ops carry no column structure
            _ => {}
        }
    }
    req
}

fn propagate(
    req: &mut [Req],
    input: TileableId,
    carried: &Req,
    extra: impl IntoIterator<Item = String>,
) {
    match carried {
        None => mark_all(&mut req[input]),
        Some(set) => {
            if req[input].is_some() {
                union(&mut req[input], set.iter().cloned());
                union(&mut req[input], extra);
            }
        }
    }
}

/// Rewrites a fetch's closure, inserting a projection after each dataframe
/// source whose required set is known. The target stays the last node.
pub fn prune_columns(graph: TileableGraph) -> TileableGraph {
    let req = required_columns(&graph);
    let mut out = TileableGraph::new();
    // old tileable id -> new id
    let mut remap: Vec<TileableId> = Vec::with_capacity(graph.len());
    for (node, req) in graph.nodes.into_iter().zip(req) {
        let inputs = node.inputs.iter().map(|&i| remap[i]).collect();
        let is_source = matches!(node.op, TileableOp::DfSource(_));
        let mut new_id = out
            .push(node.op, inputs)
            .expect("remapped inputs are valid");
        // insert projection after prunable sources
        if let Some(cols) = req.filter(|cols| is_source && !cols.is_empty()) {
            let prune = DfStep::PruneTo(cols.into_iter().collect());
            new_id = out
                .push(TileableOp::DfMap(prune), vec![new_id])
                .expect("projection input valid");
        }
        remap.push(new_id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tileable::DfSource;
    use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame};

    /// A graph over one three-column source; returns the source's id.
    fn source_graph() -> (TileableGraph, TileableId) {
        let df = DataFrame::new(vec![
            ("a", Column::from_i64(vec![1])),
            ("b", Column::from_i64(vec![2])),
            ("c", Column::from_i64(vec![3])),
        ])
        .unwrap();
        let mut g = TileableGraph::new();
        let s = g
            .push(TileableOp::DfSource(DfSource::materialized(df)), vec![])
            .unwrap();
        (g, s)
    }

    fn step(g: &mut TileableGraph, step: DfStep, input: TileableId) -> TileableId {
        g.push(TileableOp::DfMap(step), vec![input]).unwrap()
    }

    fn sum_b_by_a() -> TileableOp {
        TileableOp::GroupbyAgg {
            keys: vec!["a".into()],
            specs: vec![AggSpec::new("b", AggFunc::Sum, "s")],
        }
    }

    #[test]
    fn groupby_prunes_to_keys_and_aggs() {
        let (mut g, s) = source_graph();
        g.push(sum_b_by_a(), vec![s]).unwrap();
        let req = required_columns(&g);
        assert_eq!(
            req[s].as_ref().unwrap().iter().cloned().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string()]
        );
        // rewrite inserts a projection after the source
        let pruned = prune_columns(g);
        assert_eq!(pruned.len(), 3);
        assert!(matches!(
            pruned.op(s + 1),
            TileableOp::DfMap(DfStep::PruneTo(columns)) if columns == &vec!["a".to_string(), "b".to_string()]
        ));
        assert_eq!(pruned.nodes[s + 1].inputs, [s]);
        assert!(matches!(pruned.op(2), TileableOp::GroupbyAgg { .. }));
        assert_eq!(pruned.nodes[2].inputs, [1]);
    }

    #[test]
    fn filter_adds_predicate_columns() {
        let (mut g, s) = source_graph();
        let f = step(&mut g, DfStep::Filter(col("c").gt(lit(0i64))), s);
        step(&mut g, DfStep::Project(vec!["a".into()]), f);
        let req = required_columns(&g);
        let cols: Vec<_> = req[s].as_ref().unwrap().iter().cloned().collect();
        assert_eq!(cols, vec!["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn sink_requires_all() {
        let (g, s) = source_graph();
        let req = required_columns(&g);
        assert!(req[s].is_none());
        // no projection inserted when everything is needed
        assert_eq!(prune_columns(g).len(), 1);
    }

    #[test]
    fn fetched_target_keeps_all_columns_whatever_consumes_it() {
        let (mut g, s) = source_graph();
        let f = step(&mut g, DfStep::Filter(col("c").gt(lit(0i64))), s);
        g.push(sum_b_by_a(), vec![f]).unwrap();
        // fetching the filter: the groupby on top of it is not in its
        // closure and cannot narrow what it must expose
        let req = required_columns(&g.closure(f));
        assert!(req[f].is_none() && req[s].is_none());
    }

    #[test]
    fn semi_and_anti_joins_read_only_the_right_keys() {
        for how in [JoinType::Semi, JoinType::Anti] {
            let (mut g, l) = source_graph();
            let r = g.push(g.op(l).clone(), vec![]).unwrap();
            let m = g
                .push(
                    TileableOp::Merge {
                        left_on: vec!["a".into()],
                        right_on: vec!["b".into()],
                        how,
                        suffixes: ("_x".into(), "_y".into()),
                    },
                    vec![l, r],
                )
                .unwrap();
            // fetched as the sink, and under a step that reads every column
            let req = required_columns(&g);
            assert!(req[l].is_none());
            assert_eq!(req[r], Some(["b".to_string()].into_iter().collect()));
            step(&mut g, DfStep::Dropna(None), m);
            let req = required_columns(&g);
            assert!(req[l].is_none());
            assert_eq!(req[r], Some(["b".to_string()].into_iter().collect()));
        }
    }

    #[test]
    fn a_suffixed_name_keeps_its_base_on_both_sides() {
        let (mut g, l) = source_graph();
        let r = g.push(g.op(l).clone(), vec![]).unwrap();
        let m = g
            .push(
                TileableOp::Merge {
                    left_on: vec!["a".into()],
                    right_on: vec!["a".into()],
                    how: JoinType::Inner,
                    suffixes: ("_x".into(), "_y".into()),
                },
                vec![l, r],
            )
            .unwrap();
        // reads `b_x` alone: both sides keep `b`, so it is still suffixed
        step(&mut g, DfStep::Project(vec!["b_x".into()]), m);
        let req = required_columns(&g);
        for side in [l, r] {
            let cols: Vec<_> = req[side].as_ref().unwrap().iter().cloned().collect();
            assert!(cols.contains(&"a".to_string()) && cols.contains(&"b".to_string()));
            assert!(!cols.contains(&"c".to_string()));
        }
    }

    #[test]
    fn dropna_all_blocks_pruning() {
        let (mut g, s) = source_graph();
        let d = step(&mut g, DfStep::Dropna(None), s);
        step(&mut g, DfStep::Project(vec!["a".into()]), d);
        let req = required_columns(&g);
        assert!(req[s].is_none());
    }
}
