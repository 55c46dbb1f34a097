//! Hash joins (pandas `merge`).
//!
//! A side may arrive as pieces (the chunks of one shuffle partition, or a
//! broadcast side's chunks) and is never concatenated; see
//! [`merge_pieces`]. A single null-free `Int64` / `Date` key — almost every
//! join — takes a typed probe over the key slices; every other key takes
//! one generic probe over stored row hashes and `Column::eq_at`.

use crate::column::{Column, GatherPlan, PrimArr, NO_ROW};
use crate::error::{DfError, DfResult};
use crate::frame::DataFrame;
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
    merge_pieces(&[left], &[right], left_on, right_on, opts)
}

/// [`merge`] of two sides each given as pieces — the chunks of one
/// partition — read as one frame laid end to end, with zero-row pieces
/// tolerated as [`DataFrame::live_parts`] does. The result is the merge of
/// the concatenated sides, but no side is ever concatenated: the build
/// (right) side is indexed by global row id across its pieces, the probe
/// (left) side is probed piece by piece, and each output column is
/// gathered once, straight from the pieces ([`Column::gather`]).
pub fn merge_pieces(
    left: &[&DataFrame],
    right: &[&DataFrame],
    left_on: &[&str],
    right_on: &[&str],
    opts: &JoinOptions,
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
    let matches = match lkeys[0][0].data_type() {
        DataType::Int64 if single => probe_typed(
            &slices(&lkeys[0], Column::as_i64)?,
            &slices(&rkeys[0], Column::as_i64)?,
            opts.how,
        )?,
        DataType::Date if single => probe_typed(
            &slices(&lkeys[0], Column::as_date)?,
            &slices(&rkeys[0], Column::as_date)?,
            opts.how,
        )?,
        _ => probe_generic(&lkeys, &rkeys, opts.how)?,
    };

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
    let lplan = plan(&left, &matches.left);
    let lschema = left[0].schema();
    // Semi/anti: just select left rows.
    if matches!(opts.how, JoinType::Semi | JoinType::Anti) {
        let columns = (0..lschema.len())
            .map(|c| gather(&left, c, &lplan))
            .collect::<DfResult<_>>()?;
        let rows = matches.left.len();
        return Ok(DataFrame::from_parts(lschema.clone(), columns, rows));
    }

    // Column layout.
    let shared_keys: Vec<&str> = left_on
        .iter()
        .zip(right_on)
        .filter(|(l, r)| l == r)
        .map(|(l, _)| *l)
        .collect();
    let left_names = lschema.names();
    let right_names = right[0].schema().names();

    let mut pairs: Vec<(String, Column)> = Vec::new();
    for (c, name) in left_names.iter().enumerate() {
        let out_name = if right_names.contains(name) && !shared_keys.contains(name) {
            format!("{name}{}", opts.suffixes.0)
        } else {
            name.to_string()
        };
        pairs.push((out_name, gather(&left, c, &lplan)?));
    }
    let rplan = plan(&right, &matches.right);
    for (c, name) in right_names.iter().enumerate() {
        if shared_keys.contains(name) {
            continue; // same-named key appears once (from left)
        }
        let out_name = if left_names.contains(name) {
            format!("{name}{}", opts.suffixes.1)
        } else {
            name.to_string()
        };
        // a left join's unmatched rows gather `NO_ROW`: nulls, made
        // directly in the output column
        pairs.push((out_name, gather(&right, c, &rplan)?));
    }
    DataFrame::new(pairs)
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
fn row_count<T>(pieces: &[T], len: impl Fn(&T) -> usize) -> DfResult<usize> {
    let rows: usize = pieces.iter().map(len).sum();
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
}

impl Matches {
    fn new(how: JoinType, nleft: usize) -> Matches {
        let pairs = matches!(how, JoinType::Inner | JoinType::Left);
        Matches {
            how,
            left: Vec::with_capacity(nleft),
            right: Vec::with_capacity(if pairs { nleft } else { 0 }),
        }
    }

    /// Left row `i` matches right row `j`; true when `i`'s probe may stop
    /// (a semi or anti join needs one match).
    #[inline]
    fn hit(&mut self, i: u32, j: u32) -> bool {
        match self.how {
            JoinType::Inner | JoinType::Left => {
                self.left.push(i);
                self.right.push(j);
                false
            }
            JoinType::Semi => {
                self.left.push(i);
                true
            }
            JoinType::Anti => true,
        }
    }

    /// Left row `i` matched nothing.
    #[inline]
    fn miss(&mut self, i: u32) {
        match self.how {
            JoinType::Left => {
                self.left.push(i);
                self.right.push(NO_ROW);
            }
            JoinType::Anti => self.left.push(i),
            JoinType::Inner | JoinType::Semi => {}
        }
    }
}

/// A key the typed probe hashes and compares as itself.
trait TypedKey: Copy + Eq {
    fn bits(self) -> u64;
}

impl TypedKey for i64 {
    #[inline]
    fn bits(self) -> u64 {
        self as u64
    }
}

impl TypedKey for i32 {
    #[inline]
    fn bits(self) -> u64 {
        self as u64
    }
}

/// The probe for one null-free `Int64` or `Date` key. The build side is
/// one chain array over the right rows holding `(key, next row)`, so a
/// candidate costs one load and one compare of the key itself, and no
/// per-row hash is kept; bucket heads take the top bits of a Fibonacci
/// hash. Chains link rows in ascending order, so matches come out in
/// right-row order.
fn probe_typed<T: TypedKey>(lk: &[&[T]], rk: &[&[T]], how: JoinType) -> DfResult<Matches> {
    let nleft = row_count(lk, |p| p.len())?;
    let mut chain: Vec<(T, u32)> = Vec::with_capacity(row_count(rk, |p| p.len())?);
    chain.extend(rk.iter().flat_map(|p| p.iter().map(|&k| (k, NO_ROW))));
    let bits = (chain.len().max(1) * 2)
        .next_power_of_two()
        .trailing_zeros();
    let bucket = |k: T| (k.bits().wrapping_mul(FIB) >> (64 - bits)) as usize;
    let mut heads = vec![NO_ROW; 1 << bits];
    // inserting from the last row links each chain in ascending order
    for j in (0..chain.len()).rev() {
        let head = &mut heads[bucket(chain[j].0)];
        chain[j].1 = *head;
        *head = j as u32;
    }

    let mut out = Matches::new(how, nleft);
    for (i, &k) in lk.iter().flat_map(|p| p.iter()).enumerate() {
        let i = i as u32;
        let mut matched = false;
        let mut j = heads[bucket(k)];
        while j != NO_ROW {
            let (key, next) = chain[j as usize];
            if key == k {
                matched = true;
                if out.hit(i, j) {
                    break;
                }
            }
            j = next;
        }
        if !matched {
            out.miss(i);
        }
    }
    Ok(out)
}

/// 2^64 / φ: multiplying by it spreads keys over the top bits.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// The probe for every other key: several columns, strings, floats,
/// booleans or nulls. The build side's key columns are concatenated across
/// its pieces (the keys only) and each right row's hash is stored; a left
/// piece is hashed and probed on its own, a candidate is prefiltered on
/// the stored hash and confirmed through [`Column::eq_at`], so null
/// matches null and floats match by bits.
fn probe_generic(
    lkeys: &[Vec<&Column>],
    rkeys: &[Vec<&Column>],
    how: JoinType,
) -> DfResult<Matches> {
    let rcols: Vec<Cow<Column>> = rkeys
        .iter()
        .map(|pieces| match pieces[..] {
            [one] => Ok(Cow::Borrowed(one)),
            _ => Column::concat(pieces).map(Cow::Owned),
        })
        .collect::<DfResult<_>>()?;
    let nright = row_count(&rkeys[0], |c| c.len())?;
    let mut rhashes = vec![0u64; nright];
    for c in &rcols {
        c.hash_combine(&mut rhashes);
    }
    // Two flat arrays — bucket heads and per-row chain links — instead of
    // a hash map of per-key `Vec`s; reverse insertion so each chain yields
    // right rows in ascending order. Buckets take the hash's top bits,
    // where its final multiply mixes.
    let bits = (nright.max(1) * 2).next_power_of_two().trailing_zeros();
    let bucket = |h: u64| (h >> (64 - bits)) as usize;
    let mut heads = vec![NO_ROW; 1 << bits];
    let mut next = vec![NO_ROW; nright];
    for j in (0..nright).rev() {
        let b = bucket(rhashes[j]);
        next[j] = heads[b];
        heads[b] = j as u32;
    }

    let mut out = Matches::new(how, row_count(&lkeys[0], |c| c.len())?);
    let mut i = 0u32;
    for piece in 0..lkeys[0].len() {
        let lcols: Vec<&Column> = lkeys.iter().map(|k| k[piece]).collect();
        let mut lhashes = vec![0u64; lcols[0].len()];
        for c in &lcols {
            c.hash_combine(&mut lhashes);
        }
        for (r, &h) in lhashes.iter().enumerate() {
            let mut matched = false;
            let mut j = heads[bucket(h)];
            while j != NO_ROW {
                let jr = j as usize;
                if rhashes[jr] == h && lcols.iter().zip(&rcols).all(|(l, c)| l.eq_at(r, c, jr)) {
                    matched = true;
                    if out.hit(i, j) {
                        break;
                    }
                }
                j = next[jr];
            }
            if !matched {
                out.miss(i);
            }
            i += 1;
        }
    }
    Ok(out)
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
            let got = merge_pieces(&lrefs, &rrefs, &["k"], &["k"], &opts).unwrap();
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
