//! Column pruning — §V-A.
//!
//! "Xorbits traverses backward from the data sink, recording the columns
//! needed for each operator": this pass computes, per tileable, the set of
//! columns any downstream consumer can observe, then inserts a `PruneTo`
//! after every dataframe source, join and filter that produces more.
//! Graph-level fusion glues each projection into its producer's subtask,
//! where the join or filter kernel builds only the columns it keeps
//! (`exec::run_subtask`), so unread columns are never gathered, compacted,
//! stored or shuffled. Names are ids of one [`NameTable`] throughout, and
//! a required set is a bitset over them.

use super::names::{NameTable, Names};
use crate::chunk::DfStep;
use crate::tileable::{TileableGraph, TileableId, TileableOp};
use crate::trace;
use std::borrow::Cow;
use xorbits_dataframe::JoinType;

/// A set of name ids: a bitset whose first 128 ids live inline, so the
/// sets of a closure of up to 128 names never allocate.
#[derive(Debug, Clone, Default)]
struct Cols {
    inline: [u64; 2],
    more: Vec<u64>,
}

impl Cols {
    fn word(&self, w: usize) -> u64 {
        match w {
            0 | 1 => self.inline[w],
            _ => self.more.get(w - 2).copied().unwrap_or(0),
        }
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < 2 {
            return &mut self.inline[w];
        }
        if w - 2 >= self.more.len() {
            self.more.resize(w - 1, 0);
        }
        &mut self.more[w - 2]
    }

    fn insert(&mut self, id: u32) {
        *self.word_mut(id as usize / 64) |= 1 << (id % 64);
    }

    fn remove(&mut self, id: u32) {
        *self.word_mut(id as usize / 64) &= !(1 << (id % 64));
    }

    fn contains(&self, id: u32) -> bool {
        self.word(id as usize / 64) & (1 << (id % 64)) != 0
    }

    fn union(&mut self, other: &Cols) {
        for (w, &o) in other.words().enumerate() {
            if o != 0 {
                *self.word_mut(w) |= o;
            }
        }
    }

    fn words(&self) -> impl Iterator<Item = &u64> {
        self.inline.iter().chain(&self.more)
    }

    fn is_empty(&self) -> bool {
        self.words().all(|&w| w == 0)
    }

    /// The ids, ascending.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(w as u32 * 64 + bit)
            })
        })
    }
}

impl FromIterator<u32> for Cols {
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> Cols {
        let mut cols = Cols::default();
        for id in ids {
            cols.insert(id);
        }
        cols
    }
}

/// Required-column set: `None` means "all columns" (unprunable).
type Req = Option<Cols>;

impl DfStep {
    /// The step's column rule: given what consumers need of its output,
    /// what it needs of its input — `(carried, extra)` in the terms of
    /// [`propagate`]; a step that carries what is read of it borrows it.
    fn input_columns<'g, 'r>(
        &'g self,
        out_req: &'r Req,
        table: &mut NameTable<'g>,
    ) -> (Cow<'r, Req>, Cols) {
        let needed = |id: u32| out_req.as_ref().is_none_or(|set| set.contains(id));
        let mut extra = Cols::default();
        let carried = match self {
            DfStep::Filter(predicate) => {
                predicate.visit_columns(&mut |c| extra.insert(table.id(c)));
                Cow::Borrowed(out_req)
            }
            // projection caps what upstream needs regardless of out_req
            DfStep::Project(columns) | DfStep::PruneTo(columns) => {
                for c in columns {
                    let id = table.id(c);
                    if needed(id) {
                        extra.insert(id);
                    }
                }
                Cow::Owned(Some(Cols::default()))
            }
            // the kernel evaluates every expression, read above or not
            DfStep::Assign(exprs) => {
                for (_, e) in exprs {
                    e.visit_columns(&mut |c| extra.insert(table.id(c)));
                }
                // pass through out_req minus assigned names
                let mut carried = out_req.clone();
                if let Some(set) = &mut carried {
                    for (name, _) in exprs {
                        set.remove(table.id(name));
                    }
                }
                Cow::Owned(carried)
            }
            DfStep::Fillna(column, _) => {
                extra.insert(table.id(column));
                Cow::Borrowed(out_req)
            }
            DfStep::Dropna(Some(cols)) => {
                extra = cols.iter().map(|c| table.id(c)).collect();
                Cow::Borrowed(out_req)
            }
            DfStep::Dropna(None) => Cow::Owned(None),
            // map required new names back to old names
            DfStep::Rename(pairs) => {
                let pairs: Vec<(u32, u32)> = pairs
                    .iter()
                    .map(|(old, new)| (table.id(old), table.id(new)))
                    .collect();
                let old = |id| pairs.iter().find(|(_, new)| *new == id).map_or(id, |p| p.0);
                Cow::Owned(out_req.as_ref().map(|set| set.iter().map(old).collect()))
            }
        };
        (carried, extra)
    }
}

/// Computes the columns each tileable of a fetch's closure
/// ([`TileableGraph::closure`]) must expose, walking backward from the
/// sink — the last node, i.e. the fetched target, which keeps everything.
/// Conservative across joins: a side keeps every name read above the join
/// that it may own.
fn required_columns<'g>(graph: &'g TileableGraph, table: &mut NameTable<'g>) -> Vec<Req> {
    let n = graph.len();
    let mut req: Vec<Req> = vec![Some(Cols::default()); n];
    if let Some(sink) = req.last_mut() {
        *sink = None;
    }
    let ids = |table: &mut NameTable<'g>, names: &'g [String]| -> Cols {
        names.iter().map(|name| table.id(name)).collect()
    };

    for (id, node) in graph.nodes.iter().enumerate().rev() {
        // inputs have smaller ids, so the node's own set is read in place
        let (req, above) = req.split_at_mut(id);
        let out_req = &above[0];
        // `TileableGraph::push` checked the input count against the operator
        let ins = &node.inputs[..];
        match &node.op {
            TileableOp::DfSource(_) => {}
            TileableOp::DfMap(step) => {
                let (carried, extra) = step.input_columns(out_req, table);
                propagate(req, ins[0], &carried, &extra);
            }
            TileableOp::GroupbyAgg { keys, specs } => {
                let mut cols = ids(table, keys);
                for spec in specs {
                    cols.insert(table.id(&spec.column));
                }
                propagate(req, ins[0], &Some(Cols::default()), &cols);
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
                    .flat_map(Cols::iter)
                    .filter_map(|n| {
                        let name = table.name(n);
                        name.strip_suffix(suffixes.0.as_str())
                            .or_else(|| name.strip_suffix(suffixes.1.as_str()))
                    })
                    .map(String::from)
                    .collect();
                let bases: Cols = bases.into_iter().map(|base| table.id(base)).collect();
                let mut left = ids(table, left_on);
                left.union(&bases);
                propagate(req, ins[0], out_req, &left);
                let mut right = ids(table, right_on);
                match how {
                    JoinType::Semi | JoinType::Anti => {
                        propagate(req, ins[1], &Some(Cols::default()), &right);
                    }
                    JoinType::Inner | JoinType::Left => {
                        right.union(&bases);
                        propagate(req, ins[1], out_req, &right);
                    }
                }
            }
            TileableOp::SortValues { keys } => {
                let cols = keys.iter().map(|(k, _)| table.id(k)).collect();
                propagate(req, ins[0], out_req, &cols);
            }
            TileableOp::DropDuplicates { subset } => match subset {
                Some(cols) => propagate(req, ins[0], out_req, &ids(table, cols)),
                None => req[ins[0]] = None,
            },
            TileableOp::Head { .. } | TileableOp::ILocRow { .. } | TileableOp::ConcatDf => {
                for &i in ins {
                    propagate(req, i, out_req, &Cols::default());
                }
            }
            TileableOp::PivotTable {
                index,
                columns,
                values,
                ..
            } => {
                let cols = [index, columns, values].map(|c| table.id(c));
                propagate(
                    req,
                    ins[0],
                    &Some(Cols::default()),
                    &cols.into_iter().collect(),
                );
            }
            // tensor ops carry no column structure
            _ => {}
        }
    }
    req
}

fn propagate(req: &mut [Req], input: TileableId, carried: &Req, extra: &Cols) {
    match (carried, &mut req[input]) {
        (None, input) => *input = None,
        (Some(set), Some(input)) => {
            input.union(set);
            input.union(extra);
        }
        (Some(_), None) => {}
    }
}

/// Rewrites a fetch's closure so that no join or filter hands on a column
/// its consumers do not read: a `PruneTo` of the required set follows
/// every dataframe source whose required set is known, and every join or
/// filter ([`TileableOp::builds_columns`]) that may output a name outside
/// its set. The target stays the last node. With tracing on,
/// `optimize.columns_pruned` counts the names dropped after joins and
/// filters.
///
/// Output names come from the required sets, never from running a source:
/// a pruned source outputs its required set, an unpruned one names nobody
/// knows, and every other operator [`TileableOp::output_names`] of its inputs'
/// names.
/// They decide only where a `PruneTo` goes; the projection keeps every
/// required name its input has, so a wrong guess costs a no-op node or a
/// missed drop, never a column read above.
pub fn prune_columns(graph: TileableGraph) -> TileableGraph {
    let (keeps, dropped) = projections(&graph);
    let mut out = TileableGraph {
        nodes: Vec::with_capacity(graph.len() + keeps.iter().flatten().count()),
    };
    // old tileable id -> new id
    let mut remap: Vec<TileableId> = Vec::with_capacity(graph.len());
    for (mut node, keep) in graph.nodes.into_iter().zip(keeps) {
        for input in &mut node.inputs {
            *input = remap[*input];
        }
        let mut new_id = out
            .push(node.op, node.inputs)
            .expect("remapped inputs are valid");
        if let Some(keep) = keep {
            new_id = out
                .push(TileableOp::DfMap(DfStep::PruneTo(keep)), vec![new_id])
                .expect("projection input valid");
        }
        remap.push(new_id);
    }
    if trace::is_enabled() {
        trace::counter_add("optimize.columns_pruned", dropped as u64);
    }
    out
}

/// The columns of the `PruneTo` that follows each node, if one does, and
/// how many names those after joins and filters drop.
fn projections(graph: &TileableGraph) -> (Vec<Option<Vec<String>>>, usize) {
    let mut table = NameTable::default();
    let req = required_columns(graph, &mut table);
    // names matter where a join or filter may narrow, and below it
    let mut wanted: Vec<bool> = graph
        .nodes
        .iter()
        .zip(&req)
        .map(|(node, req)| node.op.builds_columns() && req.as_ref().is_some_and(|r| !r.is_empty()))
        .collect();
    for (id, node) in graph.nodes.iter().enumerate().rev() {
        if wanted[id] {
            for &input in &node.inputs {
                wanted[input] = true;
            }
        }
    }
    // the names each node may output once pruned, where they matter
    let mut names: Vec<Option<Names>> = Vec::with_capacity(graph.len());
    let mut keeps = Vec::with_capacity(graph.len());
    let mut dropped = 0;
    for ((node, req), wanted) in graph.nodes.iter().zip(req).zip(wanted) {
        let is_source = matches!(node.op, TileableOp::DfSource(_));
        let narrows = is_source || node.op.builds_columns();
        let mut outputs = match (is_source || !wanted, &node.inputs[..]) {
            (true, _) => None,
            (false, [one]) => node
                .op
                .output_names(std::slice::from_ref(&names[*one]), &mut table),
            (false, inputs) => {
                let inputs = input_names(&names, inputs, &req);
                node.op.output_names(&inputs, &mut table)
            }
        };
        let mut keep = None;
        if let Some(cols) = req.filter(|cols| narrows && !cols.is_empty()) {
            // a source's names are unknown: it is pruned whatever it holds
            let unread = outputs.iter().flat_map(|n| n.iter());
            let unread = unread.filter(|&&n| !cols.contains(n)).count();
            if is_source || unread > 0 {
                dropped += unread;
                outputs = wanted.then(|| match outputs {
                    Some(names) => names
                        .iter()
                        .copied()
                        .filter(|&n| cols.contains(n))
                        .collect(),
                    None => cols.iter().collect(),
                });
                // the required set, in name order
                let mut cols: Vec<String> =
                    cols.iter().map(|n| table.name(n).to_string()).collect();
                cols.sort_unstable();
                keep = Some(cols);
            }
        }
        names.push(outputs);
        keeps.push(keep);
    }
    (keeps, dropped)
}

/// The names a node's `inputs` may output, as the node reads them. A name
/// its consumers read (`req`) and several inputs may own is read
/// unsuffixed, so it is one input's column: only the first that may own
/// it keeps it. Without this a join's sides, whose required sets both
/// carry every name read above the join, would seem to collide on all of
/// them.
fn input_names(names: &[Option<Names>], inputs: &[TileableId], req: &Req) -> Vec<Option<Names>> {
    let mut ins: Vec<Option<Names>> = inputs.iter().map(|&i| names[i].clone()).collect();
    if let (Some(read), [Some(first), rest @ ..]) = (req, &mut ins[..]) {
        let firsts = |n: &u32| read.contains(*n) && first.contains(n);
        for other in rest.iter_mut().flatten() {
            if other.iter().any(firsts) {
                *other = other.iter().copied().filter(|n| !firsts(n)).collect();
            }
        }
    }
    ins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tileable::DfSource;
    use std::collections::BTreeSet;
    use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame};

    /// Each tileable's required set, as names (`None`: all).
    fn required_columns(g: &TileableGraph) -> Vec<Option<BTreeSet<String>>> {
        let mut table = NameTable::default();
        let req = super::required_columns(g, &mut table);
        let names = |cols: Cols| cols.iter().map(|n| table.name(n).to_string()).collect();
        req.into_iter().map(|r| r.map(names)).collect()
    }

    /// A graph over one three-column source; returns the source's id.
    fn source_graph() -> (TileableGraph, TileableId) {
        let mut g = TileableGraph::new();
        let s = source(&mut g, &["a", "b", "c"]);
        (g, s)
    }

    /// A one-row source of `Int64` columns named `names`.
    fn source(g: &mut TileableGraph, names: &[&str]) -> TileableId {
        let columns = names.iter().map(|n| (*n, Column::from_i64(vec![1])));
        let df = DataFrame::new(columns.collect()).unwrap();
        g.push(TileableOp::DfSource(DfSource::materialized(df)), vec![])
            .unwrap()
    }

    fn merge(
        g: &mut TileableGraph,
        on: [&str; 2],
        how: JoinType,
        sides: [TileableId; 2],
    ) -> TileableId {
        let op = TileableOp::Merge {
            left_on: vec![on[0].into()],
            right_on: vec![on[1].into()],
            how,
            suffixes: ("_x".into(), "_y".into()),
        };
        g.push(op, sides.to_vec()).unwrap()
    }

    fn sum_by(key: &str, value: &str) -> TileableOp {
        TileableOp::GroupbyAgg {
            keys: vec![key.into()],
            specs: vec![AggSpec::new(value, AggFunc::Sum, "s")],
        }
    }

    /// The rewrite and the `optimize.columns_pruned` count it traced.
    fn pruned(g: TileableGraph) -> (TileableGraph, u64) {
        trace::enable_default();
        let out = prune_columns(g);
        let log = trace::disable().expect("tracing was enabled");
        let dropped = log.metrics.counters.get("optimize.columns_pruned");
        (out, dropped.copied().unwrap_or(0))
    }

    /// The columns of every `PruneTo` of `g` after a node that is no
    /// source, with that node's operator label.
    fn narrowed(g: &TileableGraph) -> Vec<(String, Vec<String>)> {
        let prunes = g.nodes.iter().filter_map(|n| match &n.op {
            TileableOp::DfMap(DfStep::PruneTo(cols)) => Some((n.inputs[0], cols.clone())),
            _ => None,
        });
        prunes
            .filter(|(input, _)| !matches!(g.op(*input), TileableOp::DfSource(_)))
            .map(|(input, cols)| (g.op(input).name(), cols))
            .collect()
    }

    fn strings(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
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
    fn a_column_set_spills_past_its_inline_words() {
        let ids = [0, 5, 63, 64, 127, 128, 200, 1000];
        let mut cols: Cols = ids.into_iter().collect();
        assert_eq!(cols.iter().collect::<Vec<_>>(), ids);
        assert!(!cols.contains(129) && !cols.contains(5000));
        let mut more = Cols::default();
        more.insert(300);
        more.union(&cols);
        cols.remove(1000);
        cols.remove(4000);
        assert_eq!(cols.iter().count(), ids.len() - 1);
        assert_eq!(more.iter().count(), ids.len() + 1);
        assert!(Cols::default().is_empty() && !more.is_empty());
        let mut emptied: Cols = [200].into_iter().collect();
        emptied.remove(200);
        assert!(emptied.is_empty());
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
    fn a_join_drops_its_unread_keys_and_payload() {
        for how in [JoinType::Inner, JoinType::Left] {
            let mut g = TileableGraph::new();
            let l = source(&mut g, &["k", "a", "x"]);
            let r = source(&mut g, &["rk", "b", "y"]);
            let m = merge(&mut g, ["k", "rk"], how, [l, r]);
            g.push(sum_by("a", "b"), vec![m]).unwrap();
            let (out, dropped) = pruned(g);
            // `x` and `y` go at the scans, both keys after the join
            let merge = "Merge".to_string();
            assert!(narrowed(&out)[0].0.starts_with(&merge), "{how:?}");
            assert_eq!(narrowed(&out)[0].1, strings(&["a", "b"]), "{how:?}");
            assert_eq!(narrowed(&out).len(), 1, "{how:?}");
            assert_eq!(dropped, 2, "{how:?}");
            // the group-by reads the projection, the projection the join
            let last = out.len() - 1;
            let prune = out.nodes[last].inputs[0];
            assert!(matches!(
                out.op(prune),
                TileableOp::DfMap(DfStep::PruneTo(_))
            ));
            assert!(matches!(
                out.op(out.nodes[prune].inputs[0]),
                TileableOp::Merge { .. }
            ));
        }
    }

    #[test]
    fn a_filter_drops_the_columns_only_its_predicate_reads() {
        let (mut g, s) = source_graph();
        let f = step(&mut g, DfStep::Filter(col("c").gt(lit(0i64))), s);
        g.push(sum_b_by_a(), vec![f]).unwrap();
        let (out, dropped) = pruned(g);
        assert_eq!(
            narrowed(&out),
            [("Filter".to_string(), strings(&["a", "b"]))]
        );
        assert_eq!(dropped, 1);
        // a predicate over read columns leaves the filter's output alone
        let (mut g, s) = source_graph();
        let f = step(&mut g, DfStep::Filter(col("a").gt(lit(0i64))), s);
        g.push(sum_b_by_a(), vec![f]).unwrap();
        let (out, dropped) = pruned(g);
        assert!(narrowed(&out).is_empty());
        assert_eq!((out.len(), dropped), (4, 0));
    }

    #[test]
    fn a_semi_or_anti_join_drops_its_key_and_keeps_no_right_column() {
        for how in [JoinType::Semi, JoinType::Anti] {
            let mut g = TileableGraph::new();
            let l = source(&mut g, &["k", "a", "x"]);
            let r = source(&mut g, &["k", "a", "b"]);
            let m = merge(&mut g, ["k", "k"], how, [l, r]);
            g.push(sum_by("a", "x"), vec![m]).unwrap();
            let (out, dropped) = pruned(g);
            assert_eq!(narrowed(&out)[0].1, strings(&["a", "x"]), "{how:?}");
            assert_eq!(dropped, 1, "{how:?}");
            // the right scan keeps its key alone
            let right_scan = out.nodes.iter().filter_map(|n| match &n.op {
                TileableOp::DfMap(DfStep::PruneTo(cols)) if cols == &strings(&["k"]) => Some(()),
                _ => None,
            });
            assert_eq!(right_scan.count(), 1, "{how:?}");
        }
    }

    #[test]
    fn a_suffixed_name_read_above_a_join_is_kept_and_its_twin_dropped() {
        let mut g = TileableGraph::new();
        let l = source(&mut g, &["k", "v", "a"]);
        let r = source(&mut g, &["k", "v", "b"]);
        let m = merge(&mut g, ["k", "k"], JoinType::Inner, [l, r]);
        g.push(sum_by("b", "v_x"), vec![m]).unwrap();
        let (out, dropped) = pruned(g);
        // out of `k, v_x, v_y, b`, the key and `v_y` go
        assert_eq!(narrowed(&out)[0].1, strings(&["b", "v_x"]));
        assert_eq!(dropped, 2);
    }

    #[test]
    fn the_fetched_target_keeps_every_column() {
        let mut g = TileableGraph::new();
        let l = source(&mut g, &["k", "a", "x"]);
        let r = source(&mut g, &["rk", "b", "y"]);
        let m = merge(&mut g, ["k", "rk"], JoinType::Inner, [l, r]);
        step(&mut g, DfStep::Filter(col("a").gt(lit(0i64))), m);
        // fetching the filter, then the join under it: nothing narrows
        // either, not even through its predicate or keys
        for target in [g.len() - 1, m] {
            let (out, dropped) = pruned(g.closure(target));
            assert!(narrowed(&out).is_empty() && dropped == 0, "{target}");
            assert_eq!(out.len(), g.closure(target).len(), "{target}");
        }
    }

    #[test]
    fn an_assign_reads_every_expression_even_one_nobody_reads() {
        let (mut g, s) = source_graph();
        let x = vec![("x".into(), col("c").mul(lit(2i64)))];
        let a = step(&mut g, DfStep::Assign(x), s);
        step(&mut g, DfStep::Project(vec!["a".into()]), a);
        let req = required_columns(&g);
        assert_eq!(req[s], Some(["a", "c"].map(String::from).into()));
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
