//! Sorting and top-k selection.

use crate::bitmap::Bitmap;
use crate::column::{Column, StrArr};
use crate::error::DfResult;
use crate::frame::DataFrame;
use std::cmp::Ordering;

/// Stable multi-column sort; `(column, ascending)` per key. Nulls sort last
/// regardless of direction (pandas `na_position="last"`).
pub fn sort_by(df: &DataFrame, keys: &[(&str, bool)]) -> DfResult<DataFrame> {
    Ok(df.take(&argsort(df, keys)?))
}

/// `argsort`: the permutation that [`sort_by`] would apply.
pub fn argsort(df: &DataFrame, keys: &[(&str, bool)]) -> DfResult<Vec<usize>> {
    let keys = sort_keys(df, keys)?;
    let mut idx: Vec<usize> = (0..df.num_rows()).collect();
    match &keys[..] {
        [key] if key.validity.is_none() => key.sort(&mut idx),
        _ => idx.sort_by(|&a, &b| compare_rows(&keys, a, b)),
    }
    Ok(idx)
}

/// A sort key resolved once per call: its values through a typed view,
/// its validity bitmap and its direction.
struct SortKey<'a> {
    values: Values<'a>,
    validity: Option<&'a Bitmap>,
    ascending: bool,
}

/// A sort key's values, read without the per-comparison dispatch on
/// [`Column`].
enum Values<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Date(&'a [i32]),
    Bool(&'a Bitmap),
    Str(&'a StrArr),
}

impl SortKey<'_> {
    /// Stable sort of `idx` by this key alone, null-free: a comparator
    /// monomorphic in the value type, which the sort compiles without a
    /// branch per comparison.
    fn sort(&self, idx: &mut [usize]) {
        fn by<T>(idx: &mut [usize], v: &[T], ascending: bool, cmp: impl Fn(&T, &T) -> Ordering) {
            match ascending {
                true => idx.sort_by(|&a, &b| cmp(&v[a], &v[b])),
                false => idx.sort_by(|&a, &b| cmp(&v[b], &v[a])),
            }
        }
        match self.values {
            Values::I64(v) => by(idx, v, self.ascending, i64::cmp),
            Values::F64(v) => by(idx, v, self.ascending, f64::total_cmp),
            Values::Date(v) => by(idx, v, self.ascending, i32::cmp),
            Values::Bool(_) | Values::Str(_) => {
                idx.sort_by(|&a, &b| compare_rows(std::slice::from_ref(self), a, b))
            }
        }
    }
}

fn sort_keys<'a>(df: &'a DataFrame, keys: &[(&str, bool)]) -> DfResult<Vec<SortKey<'a>>> {
    keys.iter()
        .map(|&(name, ascending)| {
            let col = df.column(name)?;
            let values = match col {
                Column::Int64(a) => Values::I64(a.values.as_slice()),
                Column::Float64(a) => Values::F64(a.values.as_slice()),
                Column::Date(a) => Values::Date(a.values.as_slice()),
                Column::Bool(a) => Values::Bool(&a.values),
                Column::Utf8(a) => Values::Str(a),
            };
            Ok(SortKey {
                values,
                validity: col.validity(),
                ascending,
            })
        })
        .collect()
}

/// Typed row comparator: nulls last in both directions (pandas
/// `na_position="last"`), floats by `total_cmp`, a descending key's
/// order reversed.
fn compare_rows(keys: &[SortKey], a: usize, b: usize) -> Ordering {
    for key in keys {
        if let Some(valid) = key.validity {
            match (valid.get(a), valid.get(b)) {
                (true, true) => {}
                (false, false) => continue,
                (false, true) => return Ordering::Greater,
                (true, false) => return Ordering::Less,
            }
        }
        let ord = match key.values {
            Values::I64(v) => v[a].cmp(&v[b]),
            Values::F64(v) => v[a].total_cmp(&v[b]),
            Values::Date(v) => v[a].cmp(&v[b]),
            Values::Bool(v) => v.get(a).cmp(&v.get(b)),
            Values::Str(v) => v.value(a).cmp(v.value(b)),
        };
        let ord = if key.ascending { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Partial sort: the first `n` rows of the full sort (pandas
/// `nsmallest`/`nlargest`/`sort_values().head(n)`), computed without
/// sorting the rest.
pub fn top_k(df: &DataFrame, keys: &[(&str, bool)], n: usize) -> DfResult<DataFrame> {
    let keys = sort_keys(df, keys)?;
    let mut idx: Vec<usize> = (0..df.num_rows()).collect();
    let n = n.min(idx.len());
    if n < idx.len() {
        idx.select_nth_unstable_by(n, |&a, &b| compare_rows(&keys, a, b));
        idx.truncate(n);
    }
    // select_nth is unstable: re-sort the prefix, tie-breaking on original
    // position to restore stability.
    idx.sort_by(|&a, &b| compare_rows(&keys, a, b).then(a.cmp(&b)));
    Ok(df.take(&idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    fn df() -> DataFrame {
        DataFrame::new(vec![
            ("g", Column::from_str(["b", "a", "b", "a"])),
            (
                "v",
                Column::from_opt_i64(vec![Some(2), Some(9), None, Some(1)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn single_key_asc() {
        let s = sort_by(&df(), &[("v", true)]).unwrap();
        assert_eq!(s.column("v").unwrap().get(0), Scalar::Int(1));
        // null last
        assert!(s.column("v").unwrap().get(3).is_null());
    }

    #[test]
    fn desc_still_nulls_last() {
        let s = sort_by(&df(), &[("v", false)]).unwrap();
        assert_eq!(s.column("v").unwrap().get(0), Scalar::Int(9));
        assert!(s.column("v").unwrap().get(3).is_null());
    }

    #[test]
    fn multi_key() {
        let s = sort_by(&df(), &[("g", true), ("v", false)]).unwrap();
        assert_eq!(s.column("g").unwrap().get(0), Scalar::Str("a".into()));
        assert_eq!(s.column("v").unwrap().get(0), Scalar::Int(9));
    }

    #[test]
    fn stability() {
        let d = DataFrame::new(vec![
            ("k", Column::from_i64(vec![1, 1, 1])),
            ("pos", Column::from_i64(vec![0, 1, 2])),
        ])
        .unwrap();
        let s = sort_by(&d, &[("k", true)]).unwrap();
        assert_eq!(s.column("pos").unwrap(), &Column::from_i64(vec![0, 1, 2]));
    }

    #[test]
    fn top_k_matches_sort_head() {
        let d = df();
        let full = sort_by(&d, &[("v", true)]).unwrap().head(2);
        let tk = top_k(&d, &[("v", true)], 2).unwrap();
        assert_eq!(full, tk);
        // n larger than frame
        assert_eq!(top_k(&d, &[("v", true)], 100).unwrap().num_rows(), 4);
    }

    #[test]
    fn argsort_permutation() {
        let p = argsort(&df(), &[("v", true)]).unwrap();
        assert_eq!(p, vec![3, 0, 1, 2]);
    }
}
