//! Hash joins (pandas `merge`).
//!
//! A side may arrive as pieces (the chunks of one shuffle partition, or a
//! broadcast side's chunks) and is never concatenated; see
//! [`merge_pieces`]. The right side is a [`KeyTable`] multimap probed by
//! one loop: a single null-free `Int64` / `Date` key — almost every join —
//! is its own tag; null-free `Int64`, `Date` and coded-string keys
//! (sharing one dictionary) whose ranges fit 64 bits are packed into one
//! word ([`Radix`]) that is its own tag; every other key is tagged with
//! its row hash and confirmed by `Column::eq_at`.

use crate::column::{Column, GatherPlan, PrimArr, StrArr, NO_ROW};
use crate::error::{DfError, DfResult};
use crate::frame::DataFrame;
use crate::groupby::{IntKey, Radix};
use crate::hash::KeyTable;
use crate::scalar::DataType;
use std::borrow::Cow;

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Rows with matches on both sides (`how="inner"`).
    Inner,
    /// All left rows; unmatched right columns become null (`how="left"`).
    Left,
    /// Left rows that have at least one match (no right columns).
    Semi,
    /// Left rows with no match (no right columns).
    Anti,
}

/// Options for [`merge`].
#[derive(Debug, Clone)]
pub struct JoinOptions {
    /// Join type.
    pub how: JoinType,
    /// Suffixes for overlapping non-key columns, pandas `("_x", "_y")`.
    pub suffixes: (String, String),
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            how: JoinType::Inner,
            suffixes: ("_x".to_string(), "_y".to_string()),
        }
    }
}

/// Hash join of `left` and `right` on `left_on`/`right_on` key columns.
///
/// Matches pandas `merge` on the covered surface: null keys match null keys,
/// result preserves left-row order then right match order, same-named key
/// columns appear once, and overlapping non-key names get suffixed. Key
/// columns must pair up by type: an `Int64` key never silently matches
/// nothing against a `Float64` or `Date` one, it is a
/// [`DfError::TypeMismatch`].
pub fn merge(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &[&str],
    right_on: &[&str],
    opts: &JoinOptions,
) -> DfResult<DataFrame> {
    merge_pieces(&[left], &[right], left_on, right_on, opts, None)
}

/// [`merge`] of two sides each given as pieces — the chunks of one
/// partition — read as one frame laid end to end, with zero-row pieces
/// tolerated as [`DataFrame::live_parts`] does. The result is the merge of
/// the concatenated sides, but no side is ever concatenated: the build
/// (right) side is indexed by global row id across its pieces, the probe
/// (left) side is probed piece by piece, and each output column is
/// gathered once, straight from the pieces ([`Column::gather`]).
///
/// With `keep`, only the output columns it names are gathered, in output
/// order: the result is the merge with every other column dropped, and a
/// dropped column costs nothing.
pub fn merge_pieces(
    left: &[&DataFrame],
    right: &[&DataFrame],
    left_on: &[&str],
    right_on: &[&str],
    opts: &JoinOptions,
    keep: Option<&[String]>,
) -> DfResult<DataFrame> {
    if left_on.len() != right_on.len() || left_on.is_empty() {
        return Err(DfError::Unsupported(
            "merge requires equal, non-empty key lists".into(),
        ));
    }
    let (left, right) = (DataFrame::live_parts(left)?, DataFrame::live_parts(right)?);
    // key columns as `[key][piece]`, paired up by type before any probe
    let lkeys = key_pieces(&left, left_on)?;
    let rkeys = key_pieces(&right, right_on)?;
    for ((lk, rk), (ln, rn)) in lkeys.iter().zip(&rkeys).zip(left_on.iter().zip(right_on)) {
        let (lt, rt) = (lk[0].data_type(), rk[0].data_type());
        if lt != rt {
            return Err(DfError::TypeMismatch {
                expected: format!("{lt} (left key {ln:?})"),
                found: format!("{rt} (right key {rn:?})"),
            });
        }
    }

    let null_free = |keys: &[Vec<&Column>]| keys[0].iter().all(|c| c.null_count() == 0);
    let single = lkeys.len() == 1 && null_free(&lkeys) && null_free(&rkeys);
    let nright = row_count(&rkeys[0])?;
    let mut matches = Matches::new(opts.how, row_count(&lkeys[0])?);
    match lkeys[0][0].data_type() {
        DataType::Int64 if single => probe_ints(
            &slices(&lkeys[0], Column::as_i64)?,
            &slices(&rkeys[0], Column::as_i64)?,
            |k| k as u64,
            nright,
            &mut matches,
        ),
        DataType::Date if single => probe_ints(
            &slices(&lkeys[0], Column::as_date)?,
            &slices(&rkeys[0], Column::as_date)?,
            |k| k as i64 as u64,
            nright,
            &mut matches,
        ),
        _ => match pack_sides(&lkeys, &rkeys) {
            Some((lw, rw)) => probe_ints(&[&lw], &[&rw], |w| w, nright, &mut matches),
            None => probe_hashed(&lkeys, &rkeys, &mut matches)?,
        },
    }

    // each side's ids are resolved against its pieces once, for all of
    // its columns
    let plan = |side: &[&DataFrame], idx| {
        let lens: Vec<usize> = side.iter().map(|d| d.num_rows()).collect();
        GatherPlan::new(&lens, idx)
    };
    let gather = |side: &[&DataFrame], c: usize, plan: &GatherPlan<u32>| {
        let parts: Vec<&Column> = side.iter().map(|d| d.column_at(c)).collect();
        Column::gather_planned(&parts, plan)
    };
    let (left_names, right_names) = (left[0].schema().names(), right[0].schema().names());
    let mut layout = merge_columns(
        &left_names,
        &right_names,
        left_on,
        right_on,
        opts.how,
        (&opts.suffixes.0, &opts.suffixes.1),
    );
    if let Some(keep) = keep {
        layout.retain(|(_, _, name)| keep.iter().any(|k| k == name));
    }
    let lplan = plan(&left, &matches.left);
    // a semi or anti join reads no right column
    let rplan = layout
        .iter()
        .any(|(from_right, _, _)| *from_right)
        .then(|| plan(&right, &matches.right));
    let mut pairs: Vec<(String, Column)> = Vec::with_capacity(layout.len());
    for (from_right, c, name) in layout {
        // a left join's unmatched rows gather `NO_ROW`: nulls, made
        // directly in the output column
        let column = match &rplan {
            Some(rplan) if from_right => gather(&right, c, rplan)?,
            _ => gather(&left, c, &lplan)?,
        };
        pairs.push((name.into_owned(), column));
    }
    DataFrame::new(pairs)
}

/// The output columns of a merge, in order, as `(from_right, index, name)`:
/// the side a column is read from, its position in that side's schema and
/// its output name, borrowed from the side unless suffixed. A semi or anti
/// join keeps the left columns as they are. Otherwise the left columns
/// come first, then the right ones; a key both sides name alike appears
/// once, from the left, and any other name both sides carry gets its
/// side's suffix. [`merge_pieces`] builds its result from this layout,
/// and the logical optimizer and the SQL binder read it, so the suffix
/// rule is written once.
pub fn merge_columns<'a, L: AsRef<str>, R: AsRef<str>, K: AsRef<str>>(
    left: &'a [L],
    right: &'a [R],
    left_on: &[K],
    right_on: &[K],
    how: JoinType,
    suffixes: (&str, &str),
) -> Vec<(bool, usize, Cow<'a, str>)> {
    let left = left.iter().map(AsRef::as_ref);
    if matches!(how, JoinType::Semi | JoinType::Anti) {
        return left
            .enumerate()
            .map(|(c, n)| (false, c, n.into()))
            .collect();
    }
    let shared_key = |name: &str| {
        left_on
            .iter()
            .zip(right_on)
            .any(|(l, r)| l.as_ref() == name && r.as_ref() == name)
    };
    let in_left = |name: &str| left.clone().any(|n| n == name);
    let in_right = |name: &str| right.iter().any(|n| n.as_ref() == name);
    let mut out = Vec::with_capacity(left.len() + right.len());
    for (c, name) in left.clone().enumerate() {
        let out_name = if in_right(name) && !shared_key(name) {
            format!("{name}{}", suffixes.0).into()
        } else {
            name.into()
        };
        out.push((false, c, out_name));
    }
    for (c, name) in right.iter().map(AsRef::as_ref).enumerate() {
        if shared_key(name) {
            continue;
        }
        let out_name = if in_left(name) {
            format!("{name}{}", suffixes.1).into()
        } else {
            name.into()
        };
        out.push((true, c, out_name));
    }
    out
}

/// Each key column as its pieces: `[key][piece]`.
fn key_pieces<'a>(side: &[&'a DataFrame], on: &[&str]) -> DfResult<Vec<Vec<&'a Column>>> {
    on.iter()
        .map(|k| side.iter().map(|d| d.column(k)).collect())
        .collect()
}

/// The value slices of key pieces through a typed view.
fn slices<'a, T>(
    pieces: &[&'a Column],
    view: fn(&Column) -> DfResult<&PrimArr<T>>,
) -> DfResult<Vec<&'a [T]>> {
    pieces
        .iter()
        .map(|c| Ok(view(c)?.values.as_slice()))
        .collect()
}

/// Rows of a side, as `u32` row ids: [`NO_ROW`] is reserved.
fn row_count(pieces: &[&Column]) -> DfResult<usize> {
    let rows: usize = pieces.iter().map(|c| c.len()).sum();
    if rows >= NO_ROW as usize {
        return Err(DfError::Unsupported(format!(
            "join side of {rows} rows exceeds u32 row ids"
        )));
    }
    Ok(rows)
}

/// What a probe found: left row ids in output order and, for inner and
/// left joins, the right row id each one pairs with ([`NO_ROW`] for a left
/// join's unmatched row). Row ids are global over a side's pieces.
struct Matches {
    how: JoinType,
    left: Vec<u32>,
    right: Vec<u32>,
    /// Id of the next left row to probe.
    next: u32,
}

impl Matches {
    fn new(how: JoinType, nleft: usize) -> Matches {
        let pairs = matches!(how, JoinType::Inner | JoinType::Left);
        Matches {
            how,
            left: Vec::with_capacity(nleft),
            right: Vec::with_capacity(if pairs { nleft } else { 0 }),
            next: 0,
        }
    }

    /// Probes the next left rows, given by their tags, against the right
    /// side's table; `same(r, j)` confirms that the `r`-th of these rows
    /// and right row `j` have equal keys. A right row that matches comes
    /// out in ascending order, and a semi or anti join stops at the first.
    /// The join type is matched once per call, not per row.
    #[inline]
    fn probe(
        &mut self,
        table: &KeyTable,
        tags: impl IntoIterator<Item = u64>,
        same: impl Fn(usize, u32) -> bool,
    ) {
        let (left, right) = (&mut self.left, &mut self.right);
        let mut i = self.next;
        let tags = tags.into_iter().enumerate();
        match self.how {
            JoinType::Inner => tags.for_each(|(r, tag)| {
                for j in table.find(tag).filter(|&j| same(r, j)) {
                    left.push(i);
                    right.push(j);
                }
                i += 1;
            }),
            JoinType::Left => tags.for_each(|(r, tag)| {
                let before = left.len();
                for j in table.find(tag).filter(|&j| same(r, j)) {
                    left.push(i);
                    right.push(j);
                }
                if left.len() == before {
                    left.push(i);
                    right.push(NO_ROW);
                }
                i += 1;
            }),
            JoinType::Semi | JoinType::Anti => {
                let keep = self.how == JoinType::Semi;
                tags.for_each(|(r, tag)| {
                    if table.find(tag).any(|j| same(r, j)) == keep {
                        left.push(i);
                    }
                    i += 1;
                })
            }
        }
        self.next = i;
    }
}

/// The probe for keys that are their own tags (`tag` widens one): one
/// null-free `Int64` or `Date` key, or packed words. A candidate costs one
/// load and one compare and needs no confirming; each left piece is
/// probed on its own.
fn probe_ints<T: Copy>(
    lk: &[&[T]],
    rk: &[&[T]],
    tag: impl Fn(T) -> u64 + Copy,
    nright: usize,
    out: &mut Matches,
) {
    let rtags = rk.iter().flat_map(|p| p.iter().map(move |&k| tag(k)));
    let table = KeyTable::build(nright, rtags);
    for p in lk {
        out.probe(&table, p.iter().map(|&k| tag(k)), |_, _| true);
    }
}

/// Both sides' keys packed into one word per row over a [`Radix`] of both
/// sides' ranges, so equal keys get equal words: `None` unless every key
/// is a null-free `Int64`, `Date` or coded string (every piece of both
/// sides coded with one dictionary) and the ranges fit 64 bits.
fn pack_sides(lkeys: &[Vec<&Column>], rkeys: &[Vec<&Column>]) -> Option<(Vec<u64>, Vec<u64>)> {
    // a zero-row piece may be a plain string column: it has no rows to pack
    fn views<'a>(pieces: &[&'a Column]) -> Option<Vec<IntKey<'a>>> {
        pieces
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| IntKey::of(c))
            .collect()
    }
    let (mut lviews, mut rviews) = (Vec::new(), Vec::new());
    for (l, r) in lkeys.iter().zip(rkeys) {
        let both = || l.iter().chain(r).copied();
        if both().any(|c| c.null_count() > 0) {
            return None;
        }
        if let Column::Utf8(_) = l[0] {
            let strs: Vec<&StrArr> = both().map(|c| c.as_utf8()).collect::<DfResult<_>>().ok()?;
            StrArr::shared_dict(&strs)?;
        }
        lviews.push(views(l)?);
        rviews.push(views(r)?);
    }
    let radix = Radix::new(lviews.iter().zip(&rviews).map(|(l, r)| {
        let ranges = l.iter().chain(r).filter_map(|k| k.range());
        (ranges.reduce(|a, b| (a.0.min(b.0), a.1.max(b.1))), false)
    }))?;
    let words = |views: &[Vec<IntKey>], keys: &[Vec<&Column>]| {
        let mut words = vec![0u64; keys[0].iter().map(|c| c.len()).sum()];
        for (k, pieces) in views.iter().enumerate() {
            let mut at = 0;
            for key in pieces {
                radix.add(k, *key, &mut words[at..at + key.len()]);
                at += key.len();
            }
        }
        words
    };
    Some((words(&lviews, lkeys), words(&rviews, rkeys)))
}

/// The probe for every other key: several columns, strings, floats,
/// booleans or nulls. The tag is the row hash. The build side's key
/// columns are concatenated across its pieces (the keys only); a left
/// piece is hashed and probed on its own, and a candidate with an equal
/// hash is confirmed through [`Column::eq_at`], so null matches null and
/// floats match by bits.
fn probe_hashed(lkeys: &[Vec<&Column>], rkeys: &[Vec<&Column>], out: &mut Matches) -> DfResult<()> {
    let rcols: Vec<Cow<Column>> = rkeys
        .iter()
        .map(|pieces| match pieces[..] {
            [one] => Ok(Cow::Borrowed(one)),
            _ => Column::concat(pieces).map(Cow::Owned),
        })
        .collect::<DfResult<_>>()?;
    let hashes = |cols: &[&Column]| {
        let mut h = vec![0u64; cols[0].len()];
        for c in cols {
            c.hash_combine(&mut h);
        }
        h
    };
    let rhashes = hashes(&rcols.iter().map(|c| &**c).collect::<Vec<_>>());
    let table = KeyTable::build(rhashes.len(), rhashes);
    for piece in 0..lkeys[0].len() {
        let lcols: Vec<&Column> = lkeys.iter().map(|k| k[piece]).collect();
        out.probe(&table, hashes(&lcols), |r, j| {
            lcols
                .iter()
                .zip(&rcols)
                .all(|(l, c)| l.eq_at(r, c, j as usize))
        });
    }
    Ok(())
}

/// Convenience: inner merge on same-named keys.
pub fn merge_on(left: &DataFrame, right: &DataFrame, on: &[&str]) -> DfResult<DataFrame> {
    merge(left, right, on, on, &JoinOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    fn left() -> DataFrame {
        DataFrame::new(vec![
            ("k", Column::from_i64(vec![1, 2, 3, 2])),
            ("lv", Column::from_str(["a", "b", "c", "d"])),
        ])
        .unwrap()
    }

    fn right() -> DataFrame {
        DataFrame::new(vec![
            ("k", Column::from_i64(vec![2, 1, 2])),
            ("rv", Column::from_i64(vec![20, 10, 21])),
        ])
        .unwrap()
    }

    #[test]
    fn inner_join() {
        let out = merge_on(&left(), &right(), &["k"]).unwrap();
        // rows: k=1 ->1 match, k=2 ->2 matches, k=3 ->0, k=2 ->2
        assert_eq!(out.num_rows(), 5);
        assert_eq!(out.schema().names(), vec!["k", "lv", "rv"]);
        // left order preserved
        assert_eq!(out.column("k").unwrap().get(0), Scalar::Int(1));
    }

    #[test]
    fn left_join_nulls() {
        let opts = JoinOptions {
            how: JoinType::Left,
            ..Default::default()
        };
        let out = merge(&left(), &right(), &["k"], &["k"], &opts).unwrap();
        assert_eq!(out.num_rows(), 6);
        // k=3 row has null rv
        let k = out.column("k").unwrap();
        let rv = out.column("rv").unwrap();
        let row3 = (0..6).find(|&i| k.get(i) == Scalar::Int(3)).unwrap();
        assert!(rv.get(row3).is_null());
    }

    #[test]
    fn semi_and_anti() {
        let semi = merge(
            &left(),
            &right(),
            &["k"],
            &["k"],
            &JoinOptions {
                how: JoinType::Semi,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(semi.num_rows(), 3); // k=1,2,2
        assert_eq!(semi.schema().names(), vec!["k", "lv"]);
        let anti = merge(
            &left(),
            &right(),
            &["k"],
            &["k"],
            &JoinOptions {
                how: JoinType::Anti,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(anti.num_rows(), 1);
        assert_eq!(anti.column("k").unwrap().get(0), Scalar::Int(3));
    }

    #[test]
    fn suffixes_for_overlap() {
        let l = DataFrame::new(vec![
            ("k", Column::from_i64(vec![1])),
            ("v", Column::from_i64(vec![100])),
        ])
        .unwrap();
        let r = DataFrame::new(vec![
            ("k", Column::from_i64(vec![1])),
            ("v", Column::from_i64(vec![200])),
        ])
        .unwrap();
        let out = merge_on(&l, &r, &["k"]).unwrap();
        assert_eq!(out.schema().names(), vec!["k", "v_x", "v_y"]);
    }

    #[test]
    fn different_key_names_kept() {
        let l = DataFrame::new(vec![("lk", Column::from_i64(vec![1, 2]))]).unwrap();
        let r = DataFrame::new(vec![
            ("rk", Column::from_i64(vec![2])),
            ("rv", Column::from_i64(vec![9])),
        ])
        .unwrap();
        let out = merge(&l, &r, &["lk"], &["rk"], &JoinOptions::default()).unwrap();
        assert_eq!(out.schema().names(), vec!["lk", "rk", "rv"]);
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn multi_key_join() {
        let l = DataFrame::new(vec![
            ("a", Column::from_i64(vec![1, 1, 2])),
            ("b", Column::from_str(["x", "y", "x"])),
        ])
        .unwrap();
        let r = DataFrame::new(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_str(["y", "x"])),
            ("v", Column::from_i64(vec![7, 8])),
        ])
        .unwrap();
        let out = merge_on(&l, &r, &["a", "b"]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn null_keys_match_nulls_like_pandas() {
        let l = DataFrame::new(vec![("k", Column::from_opt_i64(vec![None, Some(1)]))]).unwrap();
        let r = DataFrame::new(vec![
            ("k", Column::from_opt_i64(vec![None])),
            ("v", Column::from_i64(vec![5])),
        ])
        .unwrap();
        let out = merge_on(&l, &r, &["k"]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(5));
    }

    #[test]
    fn key_types_must_pair_up() {
        let r =
            |k: Column| DataFrame::new(vec![("rk", k), ("v", Column::from_i64(vec![7]))]).unwrap();
        for other in [Column::from_f64(vec![1.0]), Column::from_date(vec![1])] {
            for how in [JoinType::Inner, JoinType::Left] {
                let opts = JoinOptions {
                    how,
                    ..Default::default()
                };
                let err = merge(&left(), &r(other.clone()), &["k"], &["rk"], &opts).unwrap_err();
                assert!(matches!(err, DfError::TypeMismatch { .. }), "{err}");
            }
        }
        let ok = merge(
            &left(),
            &r(Column::from_i64(vec![1])),
            &["k"],
            &["rk"],
            &Default::default(),
        );
        assert_eq!(ok.unwrap().num_rows(), 1);
    }

    #[test]
    fn pieces_join_like_their_concatenation() {
        let (l, r) = (left(), right());
        let (lp, rp) = (
            [l.slice(0, 1), l.slice(1, 0), l.slice(1, 3)],
            [r.slice(0, 2), r.slice(2, 1)],
        );
        let lrefs: Vec<&DataFrame> = lp.iter().collect();
        let rrefs: Vec<&DataFrame> = rp.iter().collect();
        for how in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let opts = JoinOptions {
                how,
                ..Default::default()
            };
            let got = merge_pieces(&lrefs, &rrefs, &["k"], &["k"], &opts, None).unwrap();
            assert_eq!(
                got,
                merge(&l, &r, &["k"], &["k"], &opts).unwrap(),
                "{how:?}"
            );
        }
    }

    #[test]
    fn empty_sides() {
        let out = merge_on(&left().head(0), &right(), &["k"]).unwrap();
        assert_eq!(out.num_rows(), 0);
        let out = merge_on(&left(), &right().head(0), &["k"]).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
