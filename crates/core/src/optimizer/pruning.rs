//! Column pruning — §V-A.
//!
//! "Xorbits traverses backward from the data sink, recording the columns
//! needed for each operator": this pass computes, per tileable, the set of
//! columns any downstream consumer can observe, then inserts a `Project`
//! immediately after every dataframe source that produces more. Graph-level
//! fusion later glues the projection into the scan subtask, so unpruned
//! data never reaches the storage service or the network.

use crate::tileable::{TileableGraph, TileableId, TileableOp};
use std::collections::BTreeSet;

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

/// Computes the columns each tileable of a fetch's closure
/// ([`TileableGraph::closure`]) must expose, walking backward from the
/// sink — the last node, i.e. the fetched target, which keeps everything.
/// Conservative: suffix-renamed join columns fall back to "all".
pub fn required_columns(graph: &TileableGraph) -> Vec<Req> {
    let n = graph.len();
    let mut req: Vec<Req> = vec![Some(BTreeSet::new()); n];
    if let Some(sink) = req.last_mut() {
        *sink = None;
    }

    for id in (0..n).rev() {
        let out_req = req[id].clone();
        match graph.op(id) {
            TileableOp::DfSource(_) => {}
            TileableOp::Filter { input, predicate } => {
                let mut cols = BTreeSet::new();
                predicate.required_columns(&mut cols);
                propagate(&mut req, *input, &out_req, cols);
            }
            TileableOp::PruneColumns { input, columns }
            | TileableOp::Project { input, columns } => {
                // projection caps what upstream needs regardless of out_req
                let need: BTreeSet<String> = match &out_req {
                    None => columns.iter().cloned().collect(),
                    Some(set) => columns
                        .iter()
                        .filter(|c| set.contains(*c))
                        .cloned()
                        .collect(),
                };
                propagate(&mut req, *input, &Some(BTreeSet::new()), need);
            }
            TileableOp::Assign { input, exprs } => {
                let mut extra = BTreeSet::new();
                for (name, e) in exprs {
                    let needed = match &out_req {
                        None => true,
                        Some(set) => set.contains(name),
                    };
                    if needed {
                        e.required_columns(&mut extra);
                    }
                }
                // pass through out_req minus assigned names
                let passthrough = out_req.clone().map(|mut set| {
                    for (name, _) in exprs {
                        set.remove(name);
                    }
                    set
                });
                propagate(&mut req, *input, &passthrough, extra);
            }
            TileableOp::Fillna { input, column, .. } => {
                propagate(&mut req, *input, &out_req, [column.clone()]);
            }
            TileableOp::Dropna { input, subset } => match subset {
                Some(cols) => propagate(&mut req, *input, &out_req, cols.clone()),
                None => mark_all(&mut req[*input]),
            },
            TileableOp::Rename { input, pairs } => {
                // map required new names back to old names
                let mapped = out_req.clone().map(|set| {
                    set.into_iter()
                        .map(|name| {
                            pairs
                                .iter()
                                .find(|(_, new)| *new == name)
                                .map(|(old, _)| old.clone())
                                .unwrap_or(name)
                        })
                        .collect()
                });
                propagate(&mut req, *input, &mapped, []);
            }
            TileableOp::GroupbyAgg { input, keys, specs } => {
                let mut cols: BTreeSet<String> = keys.iter().cloned().collect();
                cols.extend(specs.iter().map(|s| s.column.clone()));
                propagate(&mut req, *input, &Some(BTreeSet::new()), cols);
            }
            TileableOp::Merge {
                left,
                right,
                left_on,
                right_on,
                ..
            } => {
                // conservative: suffixing makes precise back-mapping fiddly,
                // so require out_req columns on both sides plus keys; "all"
                // propagates as "all".
                match &out_req {
                    None => {
                        mark_all(&mut req[*left]);
                        mark_all(&mut req[*right]);
                    }
                    Some(set) => {
                        propagate(&mut req, *left, &Some(set.clone()), left_on.iter().cloned());
                        propagate(
                            &mut req,
                            *right,
                            &Some(set.clone()),
                            right_on.iter().cloned(),
                        );
                    }
                }
            }
            TileableOp::SortValues { input, keys } => {
                propagate(
                    &mut req,
                    *input,
                    &out_req,
                    keys.iter().map(|(k, _)| k.clone()),
                );
            }
            TileableOp::Head { input, .. } | TileableOp::ILocRow { input, .. } => {
                propagate(&mut req, *input, &out_req, []);
            }
            TileableOp::DropDuplicates { input, subset } => match subset {
                Some(cols) => propagate(&mut req, *input, &out_req, cols.clone()),
                None => mark_all(&mut req[*input]),
            },
            TileableOp::ConcatDf { inputs } => {
                for i in inputs {
                    propagate(&mut req, *i, &out_req, []);
                }
            }
            TileableOp::PivotTable {
                input,
                index,
                columns,
                values,
                ..
            } => {
                propagate(
                    &mut req,
                    *input,
                    &Some(BTreeSet::new()),
                    [index.clone(), columns.clone(), values.clone()],
                );
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
    for (mut op, req) in graph.nodes.into_iter().zip(req) {
        op.map_inputs(|i| remap[i]);
        let is_source = matches!(op, TileableOp::DfSource(_));
        let mut new_id = out.push(op).expect("remapped inputs are valid");
        // insert projection after prunable sources
        if let Some(cols) = req.filter(|cols| is_source && !cols.is_empty()) {
            new_id = out
                .push(TileableOp::PruneColumns {
                    input: new_id,
                    columns: cols.into_iter().collect(),
                })
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

    fn source() -> TileableOp {
        let df = DataFrame::new(vec![
            ("a", Column::from_i64(vec![1])),
            ("b", Column::from_i64(vec![2])),
            ("c", Column::from_i64(vec![3])),
        ])
        .unwrap();
        TileableOp::DfSource(DfSource::materialized(df))
    }

    #[test]
    fn groupby_prunes_to_keys_and_aggs() {
        let mut g = TileableGraph::new();
        let s = g.push(source()).unwrap();
        let _agg = g
            .push(TileableOp::GroupbyAgg {
                input: s,
                keys: vec!["a".into()],
                specs: vec![AggSpec::new("b", AggFunc::Sum, "s")],
            })
            .unwrap();
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
            TileableOp::PruneColumns { columns, .. } if columns == &vec!["a".to_string(), "b".to_string()]
        ));
        assert!(matches!(
            pruned.op(2),
            TileableOp::GroupbyAgg { input: 1, .. }
        ));
    }

    #[test]
    fn filter_adds_predicate_columns() {
        let mut g = TileableGraph::new();
        let s = g.push(source()).unwrap();
        let f = g
            .push(TileableOp::Filter {
                input: s,
                predicate: col("c").gt(lit(0i64)),
            })
            .unwrap();
        let _p = g
            .push(TileableOp::Project {
                input: f,
                columns: vec!["a".into()],
            })
            .unwrap();
        let req = required_columns(&g);
        let cols: Vec<_> = req[s].as_ref().unwrap().iter().cloned().collect();
        assert_eq!(cols, vec!["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn sink_requires_all() {
        let mut g = TileableGraph::new();
        let s = g.push(source()).unwrap();
        let req = required_columns(&g);
        assert!(req[s].is_none());
        // no projection inserted when everything is needed
        assert_eq!(prune_columns(g).len(), 1);
    }

    #[test]
    fn fetched_target_keeps_all_columns_whatever_consumes_it() {
        let mut g = TileableGraph::new();
        let s = g.push(source()).unwrap();
        let f = g
            .push(TileableOp::Filter {
                input: s,
                predicate: col("c").gt(lit(0i64)),
            })
            .unwrap();
        let _agg = g
            .push(TileableOp::GroupbyAgg {
                input: f,
                keys: vec!["a".into()],
                specs: vec![AggSpec::new("b", AggFunc::Sum, "s")],
            })
            .unwrap();
        // fetching the filter: the groupby on top of it is not in its
        // closure and cannot narrow what it must expose
        let req = required_columns(&g.closure(f));
        assert!(req[f].is_none() && req[s].is_none());
    }

    #[test]
    fn dropna_all_blocks_pruning() {
        let mut g = TileableGraph::new();
        let s = g.push(source()).unwrap();
        let d = g
            .push(TileableOp::Dropna {
                input: s,
                subset: None,
            })
            .unwrap();
        let _p = g
            .push(TileableOp::Project {
                input: d,
                columns: vec!["a".into()],
            })
            .unwrap();
        let req = required_columns(&g);
        assert!(req[s].is_none());
    }
}
