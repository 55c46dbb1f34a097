//! Predicate pushdown — the selection half of §V-A's logical rewrite.
//!
//! Column pruning narrows the columns every operator reads; this pass
//! narrows the rows a join reads. A filter's top-level AND is split into
//! conjuncts, their order kept. A conjunct moves into a `Merge`'s left
//! input when every column it reads is a left column the merge passes
//! through under its own name (inner, left, semi and anti joins), and into
//! the right input when every column is such a right column and the join
//! is inner. The rest stays above the join, AND-ed in its original order.
//! A moved conjunct is AND-ed into the input when that input is a filter
//! the merge alone reads, and becomes a new filter on it otherwise; the
//! pass repeats until nothing moves, so filters sink through join chains.
//!
//! A merge is rewritten only when the filter is its one consumer in the
//! fetch's closure, so no other reader sees fewer rows; the rewritten
//! merge takes the filter's place, which keeps the fetched target last.
//! Both frontends build the same logical plan, so SQL text and hand-built
//! programs stay bit-identical to each other on every executor.

use super::names::{NameTable, Names};
use crate::chunk::DfStep;
use crate::tileable::{TileableGraph, TileableId, TileableOp};
use crate::trace;
use std::collections::BTreeSet;
use xorbits_dataframe::expr::BinOp;
use xorbits_dataframe::join::merge_columns;
use xorbits_dataframe::{Expr, JoinType};

/// One rewrite: the conjuncts of the filter `filter` over the merge
/// `merge`, split by where they go: `sides` into the left and right input,
/// `stay` above the join.
struct Push {
    filter: TileableId,
    merge: TileableId,
    sides: [Vec<Expr>; 2],
    stay: Vec<Expr>,
}

/// Pushes every filter of a fetch's closure as far below the joins it
/// sits on as its columns allow. The target stays the last node.
pub fn push_filters(mut graph: TileableGraph) -> TileableGraph {
    let _g = trace::span(trace::Stage::Prune, "push_filters");
    let mut moved = 0;
    while let Some(push) = find_push(&graph) {
        moved += push.sides.iter().map(Vec::len).sum::<usize>();
        graph = rewrite(graph, push);
    }
    if trace::is_enabled() {
        trace::counter_add("optimize.filters_pushed", moved as u64);
    }
    graph
}

/// The first filter (in construction order) that can move a conjunct
/// below the merge it reads.
fn find_push(graph: &TileableGraph) -> Option<Push> {
    let consumers = graph.consumer_counts();
    // names are read only once a filter sits on a merge
    let mut table = NameTable::default();
    let mut names: Option<Vec<Option<Names>>> = None;
    for (filter, node) in graph.nodes.iter().enumerate() {
        let TileableOp::DfMap(DfStep::Filter(predicate)) = &node.op else {
            continue;
        };
        let merge = node.inputs[0];
        let TileableOp::Merge {
            left_on,
            right_on,
            how,
            suffixes,
        } = graph.op(merge)
        else {
            continue;
        };
        if consumers[merge] != 1 {
            continue;
        }
        let names = names.get_or_insert_with(|| column_names(graph, &mut table));
        let ins = &graph.nodes[merge].inputs;
        let (Some(left), Some(right)) = (&names[ins[0]], &names[ins[1]]) else {
            continue;
        };
        let side = |names: &Names| -> Vec<&str> { names.iter().map(|&n| table.name(n)).collect() };
        let (left, right) = (side(left), side(right));
        let suffixes = (suffixes.0.as_str(), suffixes.1.as_str());
        let layout = merge_columns(&left, &right, left_on, right_on, *how, suffixes);
        // a column a conjunct may take below the join: it names exactly
        // one output column, read from that side under that same name
        let passes = |name: &String, from_right: bool| {
            let mut hits = layout.iter().filter(|(_, _, out)| out == name);
            let side = if from_right { &right } else { &left };
            matches!((hits.next(), hits.next()),
                (Some((r, c, _)), None) if *r == from_right && side[*c] == *name)
        };
        let mut push = Push {
            filter,
            merge,
            sides: [Vec::new(), Vec::new()],
            stay: Vec::new(),
        };
        for conjunct in conjuncts(predicate) {
            let mut cols = BTreeSet::new();
            conjunct.required_columns(&mut cols);
            if cols.iter().all(|c| passes(c, false)) {
                push.sides[0].push(conjunct);
            } else if *how == JoinType::Inner && cols.iter().all(|c| passes(c, true)) {
                push.sides[1].push(conjunct);
            } else {
                push.stay.push(conjunct);
            }
        }
        if push.sides.iter().any(|side| !side.is_empty()) {
            return Some(push);
        }
    }
    None
}

/// Every tileable's output column names, in one pass over the graph.
fn column_names<'g>(graph: &'g TileableGraph, table: &mut NameTable<'g>) -> Vec<Option<Names>> {
    let mut names: Vec<Option<Names>> = Vec::with_capacity(graph.len());
    for node in &graph.nodes {
        let inputs: Vec<_> = node.inputs.iter().map(|&i| names[i].clone()).collect();
        names.push(node.op.output_names(&inputs, table));
    }
    names
}

/// A predicate's top-level AND as its conjuncts, left to right.
fn conjuncts(predicate: &Expr) -> Vec<Expr> {
    match predicate {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let mut out = conjuncts(lhs);
            out.extend(conjuncts(rhs));
            out
        }
        other => vec![other.clone()],
    }
}

/// Rebuilds `graph` with `push` applied.
fn rewrite(graph: TileableGraph, push: Push) -> TileableGraph {
    let consumers = graph.consumer_counts();
    let merge_inputs = graph.nodes[push.merge].inputs.clone();
    let mut out = TileableGraph::new();
    // old tileable id -> new id (the merge's own slot is never read)
    let mut remap: Vec<TileableId> = Vec::with_capacity(graph.len());
    let mut merge = None;
    let Push { sides, stay, .. } = push;
    let mut stay = Some(stay);
    for (id, node) in graph.nodes.into_iter().enumerate() {
        if id == push.merge {
            merge = Some(node.op);
            remap.push(TileableId::MAX);
            continue;
        }
        if id != push.filter {
            let inputs = node.inputs.iter().map(|&i| remap[i]).collect();
            remap.push(
                out.push(node.op, inputs)
                    .expect("remapped inputs are valid"),
            );
            continue;
        }
        // the merge, its inputs filtered, in the filter's place
        let mut inputs = Vec::with_capacity(2);
        for (side, &old) in sides.iter().zip(&merge_inputs) {
            let new = remap[old];
            let Some(predicate) = side.iter().cloned().reduce(Expr::and) else {
                inputs.push(new);
                continue;
            };
            // a filter only this merge reads takes the conjuncts itself
            if let TileableOp::DfMap(DfStep::Filter(own)) = &mut out.nodes[new].op {
                if consumers[old] == 1 {
                    *own = own.clone().and(predicate);
                    inputs.push(new);
                    continue;
                }
            }
            let step = TileableOp::DfMap(DfStep::Filter(predicate));
            inputs.push(out.push(step, vec![new]).expect("input is valid"));
        }
        let op = merge.take().expect("a merge precedes its consumer");
        let mut new = out.push(op, inputs).expect("inputs are valid");
        let residual = stay.take().into_iter().flatten().reduce(Expr::and);
        if let Some(predicate) = residual {
            let step = TileableOp::DfMap(DfStep::Filter(predicate));
            new = out.push(step, vec![new]).expect("input is valid");
        }
        remap.push(new);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tileable::DfSource;
    use xorbits_dataframe::{col, lit, Column, DataFrame};

    fn source(g: &mut TileableGraph, names: &[&str]) -> TileableId {
        let cols = names.iter().map(|&n| (n, Column::from_i64(vec![1])));
        let df = DataFrame::new(cols.collect()).unwrap();
        g.push(TileableOp::DfSource(DfSource::materialized(df)), vec![])
            .unwrap()
    }

    fn merge(g: &mut TileableGraph, how: JoinType, l: TileableId, r: TileableId) -> TileableId {
        let op = TileableOp::Merge {
            left_on: vec!["k".into()],
            right_on: vec!["k".into()],
            how,
            suffixes: ("_x".into(), "_y".into()),
        };
        g.push(op, vec![l, r]).unwrap()
    }

    fn filter(g: &mut TileableGraph, predicate: Expr, input: TileableId) -> TileableId {
        g.push(TileableOp::DfMap(DfStep::Filter(predicate)), vec![input])
            .unwrap()
    }

    /// `left(k, a, v) ⋈ right(k, b, v)`.
    fn join(how: JoinType) -> (TileableGraph, TileableId) {
        let mut g = TileableGraph::new();
        let l = source(&mut g, &["k", "a", "v"]);
        let r = source(&mut g, &["k", "b", "v"]);
        let m = merge(&mut g, how, l, r);
        (g, m)
    }

    /// The filter reading `id`, if there is exactly one such node.
    fn predicate_on(g: &TileableGraph, id: TileableId) -> Option<Expr> {
        let mut found = g.nodes.iter().filter(|n| n.inputs == [id]).filter_map(|n| {
            let TileableOp::DfMap(DfStep::Filter(p)) = &n.op else {
                return None;
            };
            Some(p.clone())
        });
        let p = found.next();
        assert!(found.next().is_none());
        p
    }

    fn merge_of(g: &TileableGraph) -> TileableId {
        let mut merges = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, TileableOp::Merge { .. }));
        let (id, _) = merges.next().unwrap();
        id
    }

    #[test]
    fn each_conjunct_goes_to_the_side_its_columns_come_from() {
        let (mut g, m) = join(JoinType::Inner);
        let left = col("a").gt(lit(1i64));
        let right = col("b").gt(lit(2i64));
        let key = col("k").gt(lit(3i64));
        let both = col("a").lt(col("b"));
        let suffixed = col("v_x").gt(lit(4i64));
        let predicate = right
            .clone()
            .and(both.clone())
            .and(left.clone())
            .and(suffixed.clone())
            .and(key.clone());
        filter(&mut g, predicate, m);
        let out = push_filters(g);
        // left source, right source, two pushed filters, merge, residual
        assert_eq!(out.len(), 6);
        let m = merge_of(&out);
        assert_eq!(out.len() - 1, m + 1);
        let [l, r] = [out.nodes[m].inputs[0], out.nodes[m].inputs[1]];
        // the shared key `k` is a left column; order is kept per side
        assert_eq!(predicate_on(&out, 0), Some(left.and(key)));
        assert_eq!(predicate_on(&out, 1), Some(right));
        assert_eq!(
            (&out.nodes[l].inputs, &out.nodes[r].inputs),
            (&vec![0], &vec![1])
        );
        assert_eq!(predicate_on(&out, m), Some(both.and(suffixed)));
    }

    #[test]
    fn outer_sides_of_left_semi_and_anti_joins_stay_above() {
        for how in [JoinType::Left, JoinType::Semi, JoinType::Anti] {
            let (mut g, m) = join(how);
            let left = col("a").gt(lit(1i64));
            let right = col("b").gt(lit(2i64));
            filter(&mut g, right.clone().and(left.clone()), m);
            let out = push_filters(g);
            let m = merge_of(&out);
            assert_eq!(predicate_on(&out, 0), Some(left), "{how:?}");
            assert_eq!(predicate_on(&out, 1), None, "{how:?}");
            assert_eq!(predicate_on(&out, m), Some(right), "{how:?}");
        }
    }

    #[test]
    fn a_conjunct_over_no_column_moves_left() {
        let (mut g, m) = join(JoinType::Inner);
        filter(&mut g, lit(true), m);
        let out = push_filters(g);
        assert_eq!(predicate_on(&out, 0), Some(lit(true)));
        // the filter was the sink: the merge takes its place
        assert_eq!(merge_of(&out), out.len() - 1);
    }

    #[test]
    fn a_merge_with_another_consumer_is_left_alone() {
        let (mut g, m) = join(JoinType::Inner);
        let f = filter(&mut g, col("a").gt(lit(1i64)), m);
        g.push(TileableOp::ConcatDf, vec![f, m]).unwrap();
        let before = format!("{:?}", g.nodes);
        assert_eq!(format!("{:?}", push_filters(g).nodes), before);
    }

    #[test]
    fn a_filter_over_no_merge_or_unknown_names_is_left_alone() {
        let mut g = TileableGraph::new();
        let l = source(&mut g, &["k", "a"]);
        let f = filter(&mut g, col("a").gt(lit(1i64)), l);
        let pivot = TileableOp::PivotTable {
            index: "k".into(),
            columns: "a".into(),
            values: "a".into(),
            agg: xorbits_dataframe::AggFunc::Sum,
        };
        let p = g.push(pivot, vec![f]).unwrap();
        let m = merge(&mut g, JoinType::Inner, l, p);
        filter(&mut g, col("a").gt(lit(1i64)), m);
        let before = format!("{:?}", g.nodes);
        assert_eq!(format!("{:?}", push_filters(g).nodes), before);
    }

    #[test]
    fn filters_sink_through_a_join_chain() {
        // (left ⋈ right) filtered on `a < b`, then ⋈ third(k, c)
        let (mut g, m1) = join(JoinType::Inner);
        let both = col("a").lt(col("b"));
        let f1 = filter(&mut g, both.clone(), m1);
        let third = source(&mut g, &["k", "c"]);
        let m2 = merge(&mut g, JoinType::Inner, f1, third);
        let top = col("a")
            .gt(lit(1i64))
            .and(col("c").gt(lit(2i64)))
            .and(col("b").gt(lit(3i64)));
        filter(&mut g, top, m2);
        let out = push_filters(g);
        // `a` reaches the left source, `b` the right one, `c` the third;
        // the join filter keeps its own conjunct and nothing stays on top
        assert_eq!(predicate_on(&out, 0), Some(col("a").gt(lit(1i64))));
        assert_eq!(predicate_on(&out, 1), Some(col("b").gt(lit(3i64))));
        let mut sources = (0..out.len()).filter(|&i| matches!(out.op(i), TileableOp::DfSource(_)));
        let third = sources.nth(2).unwrap();
        assert_eq!(predicate_on(&out, third), Some(col("c").gt(lit(2i64))));
        assert!(matches!(out.op(out.len() - 1), TileableOp::Merge { .. }));
        let m1 = merge_of(&out);
        assert_eq!(predicate_on(&out, m1), Some(both));
    }
}
